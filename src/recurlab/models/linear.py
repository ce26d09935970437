"""Recurrence-incomplete attention: RWKV time-mix and the linear Transformer.

Each mechanism has two evaluation routes that must agree numerically:

* parallel -- the attention sums over all past positions for the whole
  (batch, length, d) sequence at once, as masked (length x length) score
  or decay tensors (what training would use).  Each layer costs a constant
  number of graph nodes whatever the length; the quadratic work sits inside
  those nodes;
* recurrent -- constant-size accumulator pairs (a, b) updated by the fixed
  shifting operation, consuming one token at a time.

The accumulator update never applies the learned function to the carried
state, only to the current input; that is precisely what makes these models
recurrence-incomplete.
"""

from __future__ import annotations

import numpy as np

from .. import tensor as T
from ..tensor import Value
from .common import (ParamGraph, concat_heads, embed_one, embed_sequence, readout,
                     residual_block, split_heads, unstack)


def _decay(pg: ParamGraph, prefix: str) -> Value:
    # per-channel decay w > 0 via elu_plus_one of an unconstrained parameter
    return T.nonlinearity(pg[f"{prefix}.w_raw"], "elu_plus_one")


def parallel_forward(cfg, pg: ParamGraph, token_ids: np.ndarray, attend) -> list:
    """Whole-sequence route: each layer runs once on (B, L, d); the readout is
    sliced into one (B, vocab) logits Value per position."""
    h = embed_sequence(pg, token_ids, cfg.use_positional)
    for layer in range(cfg.n_layers):
        prefix = f"l{layer}"
        h = residual_block(cfg, pg, prefix, h,
                           lambda x, _prefix=prefix: attend(cfg, pg, _prefix, x))
    return unstack(readout(pg, h))


# -- RWKV time-mix ----------------------------------------------------------

def rwkv_attn_masked(cfg, pg: ParamGraph, prefix: str, x: Value) -> Value:
    """Channel-wise weighted average over positions 1..t for every t at once.
    Past positions j < t weigh exp(k_j - (t-1-j) w); the current position
    carries the bonus exp(u + k_t)."""
    k = T.matmul(x, pg[f"{prefix}.wk"])
    v = T.matmul(x, pg[f"{prefix}.wv"])
    batch, length, d = k.shape
    pos = np.arange(length)
    past = pos[None, :] < pos[:, None]                       # (t, j): j < t
    # lag t-1-j on past pairs; 0 elsewhere keeps the masked exponents finite
    lag = np.where(past, pos[:, None] - 1 - pos[None, :], 0).astype(np.float64)
    exponent = k.reshape((batch, 1, length, d)) - T.constant(lag[:, :, None]) * _decay(pg, prefix)
    weights = T.exp(exponent) * T.constant(past[:, :, None].astype(np.float64))  # (B, L, L, d)
    bonus = T.exp(pg[f"{prefix}.u"] + k)
    num = (weights * v.reshape((batch, 1, length, d))).sum(axis=2) + bonus * v
    den = weights.sum(axis=2) + bonus
    return num / den


def rwkv_attn_recurrent(pg: ParamGraph, prefix: str, ab, k_t: Value, v_t: Value) -> tuple:
    """(a, b) carry the decayed numerator/denominator sums over positions < t;
    state size is constant in t."""
    w = _decay(pg, prefix)
    z = T.exp(-w)
    a, b = ab
    bonus = T.exp(pg[f"{prefix}.u"] + k_t)
    if a is None:
        h = v_t  # empty history: bonus cancels
        ek = T.exp(k_t)
        state = (ek * v_t, ek)
    else:
        h = (a + bonus * v_t) / (b + bonus)
        ek = T.exp(k_t)
        state = (z * a + ek * v_t, z * b + ek)
    return h, state


def rwkv_init(cfg, batch: int, length: int | None) -> dict:
    return {"t": 0, "layers": [(None, None) for _ in range(cfg.n_layers)]}


def rwkv_step(cfg, pg: ParamGraph, state: dict, token_ids_t: np.ndarray) -> tuple:
    t = state["t"]
    h = embed_one(pg, token_ids_t, t, cfg.use_positional)
    new_layers = []
    for layer in range(cfg.n_layers):
        prefix = f"l{layer}"

        def attend(x, _prefix=prefix, _ab=state["layers"][layer]):
            out, ab = rwkv_attn_recurrent(pg, _prefix, _ab,
                                          T.matmul(x, pg[f"{_prefix}.wk"]),
                                          T.matmul(x, pg[f"{_prefix}.wv"]))
            new_layers.append(ab)
            return out

        h = residual_block(cfg, pg, prefix, h, attend)
    return h, {"t": t + 1, "layers": new_layers}


# -- linear transformer -----------------------------------------------------

def _phi(cfg, x: Value) -> Value:
    return T.nonlinearity(x, cfg.feature_map)


def _linear_layer_heads(cfg, pg, prefix, x):
    q = _phi(cfg, T.matmul(x, pg[f"{prefix}.wq"]))
    k = _phi(cfg, T.matmul(x, pg[f"{prefix}.wk"]))
    v = T.matmul(x, pg[f"{prefix}.wv"])
    return (split_heads(q, cfg.n_heads), split_heads(k, cfg.n_heads),
            split_heads(v, cfg.n_heads))


def linear_attn_masked(cfg, pg: ParamGraph, prefix: str, x: Value) -> Value:
    """sum_i (phi(q_t).phi(k_i)) v_i / sum_i phi(q_t).phi(k_i), i = 1..t, for
    every t at once: per head, the (B, L, L) scores phi(Q) phi(K)^T times a
    lower-triangular mask (diagonal included)."""
    batch, length, _ = x.shape
    causal = T.constant(np.tril(np.ones((length, length))))
    heads = []
    for q, k, v in zip(*_linear_layer_heads(cfg, pg, prefix, x)):
        dh = q.shape[-1]
        scores = (q.reshape((batch, length, 1, dh)) * k.reshape((batch, 1, length, dh))
                  ).sum(axis=-1) * causal
        heads.append(T.matmul(scores, v) / scores.sum(axis=-1, keepdims=True))
    return concat_heads(heads)


def linear_attn_recurrent(ab, pq: Value, pk: Value, v_t: Value) -> tuple:
    """a accumulates rank-1 outer products phi(k) v^T; b accumulates phi(k).
    The current token's contribution is folded in before the read-out, so the
    result covers positions 1..t."""
    batch, dh = pk.shape
    outer = T.matmul(pk.reshape((batch, dh, 1)), v_t.reshape((batch, 1, dh)))
    a, b = ab
    a = outer if a is None else a + outer
    b = pk if b is None else b + pk
    num = T.matmul(pq.reshape((batch, 1, dh)), a).reshape((batch, dh))
    den = (pq * b).sum(axis=-1, keepdims=True)
    return num / den, (a, b)


def linear_init(cfg, batch: int, length: int | None) -> dict:
    return {"t": 0,
            "layers": [[(None, None) for _ in range(cfg.n_heads)]
                       for _ in range(cfg.n_layers)]}


def linear_step(cfg, pg: ParamGraph, state: dict, token_ids_t: np.ndarray) -> tuple:
    t = state["t"]
    h = embed_one(pg, token_ids_t, t, cfg.use_positional)
    new_layers = []
    for layer in range(cfg.n_layers):
        prefix = f"l{layer}"

        def attend(x, _prefix=prefix, _abs=state["layers"][layer]):
            heads, new_abs = [], []
            for ab, q, k, v in zip(_abs, *_linear_layer_heads(cfg, pg, _prefix, x)):
                out, ab = linear_attn_recurrent(ab, q, k, v)
                heads.append(out)
                new_abs.append(ab)
            new_layers.append(new_abs)
            return concat_heads(heads)

        h = residual_block(cfg, pg, prefix, h, attend)
    return h, {"t": t + 1, "layers": new_layers}
