"""Recurrence-incomplete attention: RWKV time-mix and the linear Transformer.

Each mechanism has two evaluation routes that must agree numerically:

* parallel -- the attention sums over all past positions for the whole
  (batch, length, d) sequence at once, as masked (length x length) score
  or decay tensors (what training would use).  Each layer costs a constant
  number of graph nodes whatever the length; the quadratic work sits inside
  those nodes;
* recurrent -- constant-size accumulator pairs (a, b) updated by the fixed
  shifting operation, token by token.  The step cells take a chunk of
  tokens and run each layer over the chunk's (n, B, d) stack of rows: LN1,
  the projections and the FFN sublayer as stacked nodes, and the
  recurrence, for all heads at once, as one ``tensor`` scan node per
  layer, which loops over the tokens inside the node and reads out only
  where asked.  A step is the chunk of one token, and a chunk's last scan
  per layer is the state the next chunk resumes.  Each node is counted as
  the elementary ops it replaces, once per token.

The accumulator update never applies the learned function to the carried
state, only to the current input; that is precisely what makes these models
recurrence-incomplete.
"""

from __future__ import annotations

import numpy as np

from .. import tensor as T
from ..tensor import Value
from .common import (ParamGraph, chunk_layers, concat_heads, embed_sequence, readout,
                     residual_block, split_heads)


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


def _project(pg: ParamGraph, weight: str, x: Value) -> Value:
    """The stack of rows ``x`` (n, B, d) times the weight ``weight``, one
    product per row."""
    return T.affine([(x, pg[weight])], None, stacked=True)


def rwkv_chunk(cfg, pg: ParamGraph, state: dict, token_ids: np.ndarray, queries) -> tuple:
    """Scan cell: per layer, the keys and values of every row of the chunk,
    then one ``tensor.rwkv_scan`` node for the (a, b) recurrence."""
    def attend(prefix, x, rows, prev):
        k, v = (_project(pg, f"{prefix}.{w}", x) for w in ("wk", "wv"))
        return T.rwkv_scan(pg[f"{prefix}.w_raw"], pg[f"{prefix}.u"], k, v, prev, rows)

    return chunk_layers(cfg, pg, state, token_ids, queries, attend)


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


def linear_chunk(cfg, pg: ParamGraph, state: dict, token_ids: np.ndarray, queries) -> tuple:
    """Scan cell: per layer, the queries of the rows read out and the keys
    and values of every row of the chunk, then one ``tensor.linear_scan``
    node, which applies the feature map and runs the (a, b) recurrence for
    all heads."""
    def attend(prefix, x, rows, prev):
        read = x if len(rows) == x.shape[0] else T.pick(x, rows)
        q, k, v = (_project(pg, f"{prefix}.{w}", rows_of)
                   for w, rows_of in (("wq", read), ("wk", x), ("wv", x)))
        return T.linear_scan(q, k, v, prev, rows, cfg.n_heads, cfg.feature_map)

    return chunk_layers(cfg, pg, state, token_ids, queries, attend)
