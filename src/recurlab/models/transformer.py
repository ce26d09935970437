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

from functools import partial

import numpy as np

from .. import tensor as T
from ..tensor import Value
from .common import (ModelError, ParamGraph, as_row, attend_cached, attend_heads,
                     concat_heads, embed_one, embed_tokens, ffn_sublayer, init_layers,
                     layer_norm, readout, residual_block, scale_for, split_heads,
                     step_layers)


def attn_cell(cfg, pg: ParamGraph, prefix: str, h_t: Value, cache) -> tuple:
    """One attention layer at one position.  ``cache`` holds one immutable
    (key rows, value rows) pair of tuples per head, or is None while empty;
    returns (layer output, cache with this position appended).  The node count
    does not depend on how many positions the cache holds."""
    def attend(x):
        q = T.matmul(x, pg[f"{prefix}.wq"])
        k = T.matmul(x, pg[f"{prefix}.wk"])
        v = T.matmul(x, pg[f"{prefix}.wv"])
        heads, new_cache = [], []
        for (keys, vals), qh, kh, vh in zip(cache or (((), ()),) * cfg.n_heads,
                                            split_heads(q, cfg.n_heads),
                                            split_heads(k, cfg.n_heads),
                                            split_heads(v, cfg.n_heads)):
            keys, vals = keys + (as_row(kh),), vals + (as_row(vh),)
            heads.append(attend_cached(qh, keys, vals, scale_for(cfg)))
            new_cache.append((keys, vals))
        return concat_heads(heads), tuple(new_cache)

    return residual_block(cfg, pg, prefix, h_t, attend)


# -- standard transformer ---------------------------------------------------

def transformer_forward(cfg, pg: ParamGraph, token_ids: np.ndarray, positions) -> dict:
    """Batch route: per-layer whole-sequence projections, causal per-position
    attention.

    Returns {position: logits} for ``positions``.  The last layer projects
    keys and values at every position, but its per-query attention, residual,
    FFN and the readout run only at those positions, in increasing order, with
    the same ops in the same order as the route over every position.
    """
    hs = dict(enumerate(embed_tokens(pg, token_ids, cfg.use_positional)))
    length = len(hs)
    kept = sorted(positions)
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
            attn = attend_heads(cfg, qh[t], kh[:t + 1], vh[:t + 1])
            new_hs[t] = ffn_sublayer(cfg, pg, prefix, hs[t] + attn) if cfg.use_residual else attn
        hs = new_hs
    return {t: readout(pg, hs[t]) for t in kept}


def transformer_step(cfg, pg: ParamGraph, state: dict, token_ids_t: np.ndarray) -> tuple:
    """Cached step cell, returning the top hidden and the new state;
    ``state['t']`` must equal tokens already consumed."""
    t, cache = state["t"], state["layers"][0]
    consumed = 0 if cache is None else len(cache[0][0])
    if consumed != t:
        raise ModelError(f"cache holds {consumed} positions but t={t}")
    return step_layers(state, embed_one(pg, token_ids_t, t, cfg.use_positional),
                       partial(attn_cell, cfg, pg))


# -- standard recurrent transformer -----------------------------------------

def recurrent_transformer_step(cfg, pg: ParamGraph, state: dict,
                               token_ids_t: np.ndarray) -> tuple:
    x = embed_one(pg, token_ids_t, state["t"], cfg.use_positional)
    if state.get("h_top") is not None:
        x = x + state["h_top"]   # layer-1 input carries the previous top hidden
    h, state = step_layers(state, x, partial(attn_cell, cfg, pg))
    return h, {**state, "h_top": h}


# -- feedback transformer ---------------------------------------------------

def feedback_step(cfg, pg: ParamGraph, state: dict, token_ids_t: np.ndarray) -> tuple:
    """Every layer attends over the shared top-layer memory plus the current
    position (single-position query); each layer's own state stays None."""
    memory = state.get("memory", [])

    def layer(prefix, h, _):
        def attend(x):
            sources = memory + [x]
            q = T.matmul(x, pg[f"{prefix}.wq"])
            ks = [T.matmul(m, pg[f"{prefix}.wk"]) for m in sources]
            vs = [T.matmul(m, pg[f"{prefix}.wv"]) for m in sources]
            kh = [split_heads(k, cfg.n_heads) for k in ks]
            vh = [[as_row(part) for part in split_heads(v, cfg.n_heads)] for v in vs]
            return attend_heads(cfg, split_heads(q, cfg.n_heads), kh, vh), None

        return residual_block(cfg, pg, prefix, h, attend)

    h, state = step_layers(state, embed_one(pg, token_ids_t, state["t"], cfg.use_positional),
                           layer)
    memory = memory + [h]
    if cfg.feedback_window is not None:
        memory = memory[-cfg.feedback_window:]
    return h, {**state, "memory": memory}


# -- block recurrent transformer --------------------------------------------

def block_recurrent_forward(cfg, pg: ParamGraph, token_ids: np.ndarray) -> list:
    """Attention strictly within blocks of ``cfg.block_size`` tokens; the last
    top hidden of a block is added to every embedding of the next block."""
    xs = embed_tokens(pg, token_ids, cfg.use_positional)
    logits = []
    h = None
    for start in range(0, len(xs), cfg.block_size):
        carry, state = h, init_layers(cfg)
        for x in xs[start:start + cfg.block_size]:
            h, state = step_layers(state, x if carry is None else x + carry,
                                   partial(attn_cell, cfg, pg))
            logits.append(readout(pg, h))
    return logits


# -- universal transformer --------------------------------------------------

def universal_forward(cfg, pg: ParamGraph, token_ids: np.ndarray) -> list:
    """One shared attention layer applied ``cfg.max_halting_steps`` times over
    the whole sequence; available depth grows with that iteration budget, not
    with a layer stack."""
    hs = embed_tokens(pg, token_ids, cfg.use_positional)
    for _ in range(cfg.max_halting_steps):
        cache = None
        for i, h in enumerate(hs):
            hs[i], cache = attn_cell(cfg, pg, "shared", h, cache)
    return [readout(pg, h) for h in hs]
