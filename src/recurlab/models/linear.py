"""Recurrence-incomplete attention: RWKV time-mix and the linear Transformer.

Each mechanism has two evaluation routes that must agree numerically:

* parallel -- the attention sums over all past positions for the whole
  (batch, length, d) sequence at once, as masked (length x length) score
  or decay tensors (what training would use).  Each layer costs a constant
  number of graph nodes whatever the length; the quadratic work sits inside
  those nodes;
* recurrent -- constant-size accumulator pairs (a, b) updated by the fixed
  shifting operation, consuming one token at a time.  The update and the
  read-out are a few fused ``tensor`` nodes per layer, for all heads of the
  linear Transformer at once, each counted as the elementary ops it
  replaces.

The accumulator update never applies the learned function to the carried
state, only to the current input; that is precisely what makes these models
recurrence-incomplete.
"""

from __future__ import annotations

import numpy as np

from .. import tensor as T
from ..tensor import Value
from .common import (ParamGraph, concat_heads, embed_one, embed_sequence, readout,
                     residual_block, split_heads, step_layers)


def _decay(pg: ParamGraph, prefix: str) -> Value:
    # per-channel decay w > 0 via elu_plus_one of an unconstrained parameter
    return T.nonlinearity(pg[f"{prefix}.w_raw"], "elu_plus_one")


def parallel_forward(cfg, pg: ParamGraph, token_ids: np.ndarray, positions, attend) -> dict:
    """Whole-sequence route: each layer and the readout run once on (B, L, d),
    and {position: logits} slices the readout at ``positions``.  Reading out
    per position instead would change the logits' last bits (see
    ``common``)."""
    h = embed_sequence(pg, token_ids, cfg.use_positional)
    for layer in range(cfg.n_layers):
        prefix = f"l{layer}"
        h, _ = residual_block(cfg, pg, prefix, h, lambda x: (attend(cfg, pg, prefix, x), None))
    logits = readout(pg, h)
    return {t: logits.slice((slice(None), t)) for t in sorted(positions)}


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
    """(a, b) carry the decayed numerator/denominator sums over positions < t,
    and are None before the first token; state size is constant in t."""
    if ab is None:
        ek = T.exp(k_t)
        return v_t, (ek * v_t, ek)   # empty history: the bonus cancels
    a, b = ab
    z = T.rwkv_decay(pg[f"{prefix}.w_raw"])
    h = T.rwkv_output(pg[f"{prefix}.u"], k_t, v_t, a, b)
    ek = T.exp(k_t)
    return h, (T.decayed_sum(z, a, ek, v_t), T.decayed_sum(z, b, ek))


def rwkv_step(cfg, pg: ParamGraph, state: dict, token_ids_t: np.ndarray) -> tuple:
    def layer(prefix, h, ab):
        return residual_block(cfg, pg, prefix, h, lambda x: rwkv_attn_recurrent(
            pg, prefix, ab, T.matmul(x, pg[f"{prefix}.wk"]), T.matmul(x, pg[f"{prefix}.wv"])))

    return step_layers(state, embed_one(pg, token_ids_t, state["t"], cfg.use_positional), layer)


# -- linear transformer -----------------------------------------------------

def _phi(cfg, x: Value) -> Value:
    return T.nonlinearity(x, cfg.feature_map)


def _projections(cfg, pg, prefix, x) -> tuple:
    """phi(q), phi(k) and v of layer ``prefix``, full width."""
    q = _phi(cfg, T.matmul(x, pg[f"{prefix}.wq"]))
    k = _phi(cfg, T.matmul(x, pg[f"{prefix}.wk"]))
    return q, k, T.matmul(x, pg[f"{prefix}.wv"])


def linear_attn_masked(cfg, pg: ParamGraph, prefix: str, x: Value) -> Value:
    """sum_i (phi(q_t).phi(k_i)) v_i / sum_i phi(q_t).phi(k_i), i = 1..t, for
    every t at once: per head, the (B, L, L) scores phi(Q) phi(K)^T times a
    lower-triangular mask (diagonal included)."""
    batch, length, _ = x.shape
    causal = T.constant(np.tril(np.ones((length, length))))
    heads = []
    for q, k, v in zip(*(split_heads(p, cfg.n_heads) for p in _projections(cfg, pg, prefix, x))):
        dh = q.shape[-1]
        scores = (q.reshape((batch, length, 1, dh)) * k.reshape((batch, 1, length, dh))
                  ).sum(axis=-1) * causal
        heads.append(T.matmul(scores, v) / scores.sum(axis=-1, keepdims=True))
    return concat_heads(heads)


def linear_attn_recurrent(ab, q: Value, k: Value, v: Value, n_heads: int) -> tuple:
    """a accumulates each head's rank-1 outer products phi(k) v^T; b
    accumulates phi(k).  The current token's contribution is folded in
    before the read-out, so the result covers positions 1..t.  The update,
    the sum and the read-out read k's heads from one ``split_row`` node."""
    k = T.split_row(k, n_heads)
    if ab is None:
        a, b = T.outer_update(None, k, v, n_heads), k
    else:
        a, b = T.outer_update(ab[0], k, v, n_heads), T.key_sum(ab[1], k, n_heads)
    return T.linear_readout(q, a, b), (a, b)


def linear_step(cfg, pg: ParamGraph, state: dict, token_ids_t: np.ndarray) -> tuple:
    """Layer states are one (a, b) pair for all heads, None while empty: a
    (B, n_heads, dh, dv) holds each head's sum of outer products and b (B,
    d) the sum of phi(k), head i in columns i·dh on; after the first token
    b is that token's split phi(k)."""
    def layer(prefix, h, ab):
        return residual_block(cfg, pg, prefix, h, lambda x: linear_attn_recurrent(
            ab, *_projections(cfg, pg, prefix, x), cfg.n_heads))

    return step_layers(state, embed_one(pg, token_ids_t, state["t"], cfg.use_positional), layer)
