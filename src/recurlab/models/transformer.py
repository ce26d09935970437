"""Softmax-attention architectures: standard, recurrent, feedback, block,
universal.

The standard model has two routes: a batch forward (whole-sequence weight
multiplications) and a cached step decoder (per-token, KV cache).  They share
the attention math but not the op order, so their agreement is a real check.
The batch forward builds a product and a sum node per (query, key) pair,
which is the O(n^2) node count the profiler measures; the cached cell
(``attn_cell``, shared by the step decoder and the recurrent, block and
universal variants) scores the whole cache in one node per head.
"""

from __future__ import annotations

import numpy as np

from .. import tensor as T
from ..tensor import Value
from .common import (ModelError, ParamGraph, as_row, attend_cached, attend_one_head,
                     concat_heads, embed_one, embed_tokens, ffn_sublayer, layer_norm,
                     readout, residual_block, scale_for, split_heads)


def _layer_cache(cfg) -> list:
    return [{"k": [], "v": []} for _ in range(cfg.n_heads)]


def _copy_cache(cache: list) -> list:
    # step states are value-semantic: copy the per-head lists so appending
    # for this step never mutates a caller-retained state
    return [{"k": list(h["k"]), "v": list(h["v"])} for h in cache]


def attn_cell(cfg, pg: ParamGraph, prefix: str, h_t: Value, cache: list) -> Value:
    """One attention layer at one position; appends this position's key/value
    rows to ``cache`` and returns the layer output.  The node count does not
    depend on how many positions the cache holds."""
    def attend(x):
        q = T.matmul(x, pg[f"{prefix}.wq"])
        k = T.matmul(x, pg[f"{prefix}.wk"])
        v = T.matmul(x, pg[f"{prefix}.wv"])
        heads = []
        for head, (qh, kh, vh) in enumerate(zip(split_heads(q, cfg.n_heads),
                                                split_heads(k, cfg.n_heads),
                                                split_heads(v, cfg.n_heads))):
            cache[head]["k"].append(as_row(kh))
            cache[head]["v"].append(as_row(vh))
            heads.append(attend_cached(qh, cache[head]["k"], cache[head]["v"],
                                       scale_for(cfg)))
        return concat_heads(heads)

    return residual_block(cfg, pg, prefix, h_t, attend)


# -- standard transformer ---------------------------------------------------

def transformer_forward(cfg, pg: ParamGraph, token_ids: np.ndarray,
                        positions: list | None = None) -> list:
    """Batch route: per-layer whole-sequence projections, causal per-position
    attention.

    Returns logits at ``positions`` (every position when None), in that order.
    The last layer projects keys and values at every position, but its
    per-query attention, residual, FFN and the readout run only at the
    requested positions, with the same ops in the same order as the full route.
    """
    hs = dict(enumerate(embed_tokens(pg, token_ids, cfg.use_positional)))
    length = len(hs)
    kept = range(length) if positions is None else sorted(positions)
    for layer in range(cfg.n_layers):
        prefix = f"l{layer}"
        queries = kept if layer == cfg.n_layers - 1 else range(length)
        stacked = T.concat([as_row(hs[t]) for t in range(length)], axis=1)   # (B, L, d)
        normed = layer_norm(pg, f"{prefix}.ln1", stacked) if cfg.use_residual else stacked
        q_all = T.matmul(normed, pg[f"{prefix}.wq"])
        k_all = T.matmul(normed, pg[f"{prefix}.wk"])
        v_all = T.matmul(normed, pg[f"{prefix}.wv"])
        qh = {t: split_heads(q_all.slice((slice(None), t)), cfg.n_heads) for t in queries}
        kh = [split_heads(k_all.slice((slice(None), t)), cfg.n_heads) for t in range(length)]
        vh = [[as_row(x) for x in split_heads(v_all.slice((slice(None), t)), cfg.n_heads)]
              for t in range(length)]
        new_hs = {}
        for t in queries:
            heads = []
            for head in range(cfg.n_heads):
                keys = [kh[j][head] for j in range(t + 1)]
                vals = [vh[j][head] for j in range(t + 1)]
                heads.append(attend_one_head(qh[t][head], keys, vals, scale_for(cfg)))
            attn = concat_heads(heads)
            new_hs[t] = ffn_sublayer(cfg, pg, prefix, hs[t] + attn) if cfg.use_residual else attn
        hs = new_hs
    logits = {t: readout(pg, hs[t]) for t in kept}
    return [logits[t] for t in (kept if positions is None else positions)]


def transformer_init(cfg, batch: int, length: int | None) -> dict:
    return {"t": 0, "layers": [_layer_cache(cfg) for _ in range(cfg.n_layers)]}


def transformer_step(cfg, pg: ParamGraph, state: dict, token_ids_t: np.ndarray) -> tuple:
    """Cached step cell, returning the top hidden and the new state;
    ``state['t']`` must equal tokens already consumed."""
    t = state["t"]
    consumed = len(state["layers"][0][0]["k"])
    if consumed != t:
        raise ModelError(f"cache holds {consumed} positions but t={t}")
    h = embed_one(pg, token_ids_t, t, cfg.use_positional)
    layers = [_copy_cache(c) for c in state["layers"]]
    for layer in range(cfg.n_layers):
        h = attn_cell(cfg, pg, f"l{layer}", h, layers[layer])
    return h, {"t": t + 1, "layers": layers}


# -- standard recurrent transformer -----------------------------------------

def recurrent_transformer_init(cfg, batch: int, length: int | None) -> dict:
    return {"t": 0, "h_top": None, "layers": [_layer_cache(cfg) for _ in range(cfg.n_layers)]}


def recurrent_transformer_step(cfg, pg: ParamGraph, state: dict,
                               token_ids_t: np.ndarray) -> tuple:
    t = state["t"]
    x = embed_one(pg, token_ids_t, t, cfg.use_positional)
    if state["h_top"] is not None:
        x = x + state["h_top"]   # layer-1 input carries the previous top hidden
    h = x
    layers = [_copy_cache(c) for c in state["layers"]]
    for layer in range(cfg.n_layers):
        h = attn_cell(cfg, pg, f"l{layer}", h, layers[layer])
    return h, {"t": t + 1, "h_top": h, "layers": layers}


# -- feedback transformer ---------------------------------------------------

def feedback_init(cfg, batch: int, length: int | None) -> dict:
    return {"t": 0, "memory": []}


def feedback_step(cfg, pg: ParamGraph, state: dict, token_ids_t: np.ndarray) -> tuple:
    """Every layer attends over the shared top-layer memory plus the current
    position (single-position query)."""
    t = state["t"]
    memory = state["memory"]
    h = embed_one(pg, token_ids_t, t, cfg.use_positional)
    for layer in range(cfg.n_layers):
        prefix = f"l{layer}"

        def attend(x):
            sources = memory + [x]
            q = T.matmul(x, pg[f"{prefix}.wq"])
            ks = [T.matmul(m, pg[f"{prefix}.wk"]) for m in sources]
            vs = [T.matmul(m, pg[f"{prefix}.wv"]) for m in sources]
            kh = [split_heads(k, cfg.n_heads) for k in ks]
            vh = [[as_row(part) for part in split_heads(v, cfg.n_heads)] for v in vs]
            heads = []
            for head, q_h in enumerate(split_heads(q, cfg.n_heads)):
                keys = [k[head] for k in kh]
                vals = [v[head] for v in vh]
                heads.append(attend_one_head(q_h, keys, vals, scale_for(cfg)))
            return concat_heads(heads)

        h = residual_block(cfg, pg, prefix, h, attend)
    memory = memory + [h]
    if cfg.feedback_window is not None:
        memory = memory[-cfg.feedback_window:]
    return h, {"t": t + 1, "memory": memory}


# -- block recurrent transformer --------------------------------------------

def block_recurrent_forward(cfg, pg: ParamGraph, token_ids: np.ndarray) -> list:
    """Attention strictly within blocks of ``cfg.block_size`` tokens; the last
    top hidden of a block is added to every embedding of the next block."""
    xs = embed_tokens(pg, token_ids, cfg.use_positional)
    logits = []
    carry = None
    for start in range(0, len(xs), cfg.block_size):
        block = xs[start:start + cfg.block_size]
        caches = [_layer_cache(cfg) for _ in range(cfg.n_layers)]
        h = None
        for x in block:
            h = x if carry is None else x + carry
            for layer in range(cfg.n_layers):
                h = attn_cell(cfg, pg, f"l{layer}", h, caches[layer])
            logits.append(readout(pg, h))
        carry = h
    return logits


# -- universal transformer --------------------------------------------------

def universal_forward(cfg, pg: ParamGraph, token_ids: np.ndarray, T_steps: int) -> list:
    """One shared attention layer applied ``T_steps`` times over the whole
    sequence; available depth grows with the iteration budget, not with a
    layer stack."""
    if not 1 <= T_steps <= cfg.max_halting_steps:
        raise ModelError(f"T={T_steps} outside [1, {cfg.max_halting_steps}]")
    hs = embed_tokens(pg, token_ids, cfg.use_positional)
    for _ in range(T_steps):
        cache = _layer_cache(cfg)
        hs = [attn_cell(cfg, pg, "shared", h, cache) for h in hs]
    return [readout(pg, h) for h in hs]
