"""Recurrence-complete baselines: MLP, RNN, LSTM, and memory-augmented RNNs.

All step functions are pure in (params, state, input): state objects hold
graph Values and can be saved, shipped across threads and resumed; re-running
the same steps rebuilds bit-identical data.  Each step embeds its token
without positional encoding: the recurrence carries order.
"""

from __future__ import annotations

import numpy as np

from .. import tensor as T
from ..tasks import PAD_ID
from ..tensor import Value
from .common import ModelError, ParamGraph, readout, step_layers


def _zeros(batch: int, d: int) -> Value:
    return T.constant(np.zeros((batch, d)))


# -- MLP --------------------------------------------------------------------

def mlp_forward(cfg, pg: ParamGraph, token_ids: np.ndarray, positions) -> dict:
    """Mean-pooled bag of embeddings through m feed-forward layers.

    Each row pools over its non-PAD positions only, so a right-padded row
    gives the logits of the same sequence alone (an all-PAD row pools to
    zeros).  The pooled input keeps the graph size independent of sequence
    length, so the profiler sees the architecture's constant depth directly.
    """
    token_ids = np.asarray(token_ids)
    emb = T.take_rows(pg["embed"], token_ids)            # (B, L, d)
    keep = (token_ids != PAD_ID).astype(np.float64)      # (B, L)
    weights = keep / np.maximum(keep.sum(axis=1, keepdims=True), 1.0)
    h = (emb * T.constant(weights[:, :, None])).sum(axis=1)   # (B, d)
    for layer in range(cfg.n_layers):
        h = T.nonlinearity(T.affine([(h, pg[f"l{layer}.w"])], pg[f"l{layer}.b"]), cfg.nonlin)
    return dict.fromkeys(positions, readout(pg, h))


# -- plain RNN --------------------------------------------------------------

def rnn_step(cfg, pg: ParamGraph, state: dict, token_ids_t: np.ndarray) -> tuple:
    """h_t = sigma(W1 h_{t-1} + W2 x_t + b), stacked over layers; layer i+1
    consumes layer i's hidden at the same step.  An empty layer starts from
    zeros."""
    def layer(prefix, inp, h_prev):
        if h_prev is None:
            h_prev = _zeros(inp.shape[0], cfg.d_model)
        pre = T.affine([(h_prev, pg[f"{prefix}.w1"]), (inp, pg[f"{prefix}.w2"])],
                       pg[f"{prefix}.b"])
        h = T.nonlinearity(pre, cfg.nonlin)
        return h, h

    return step_layers(state, T.take_rows(pg["embed"], token_ids_t), layer)


# -- LSTM -------------------------------------------------------------------

def lstm_step(cfg, pg: ParamGraph, state: dict, token_ids_t: np.ndarray) -> tuple:
    d = cfg.d_model

    def layer(prefix, inp, hc):
        if hc is None:
            hc = (_zeros(inp.shape[0], d), _zeros(inp.shape[0], d))
        h_prev, c_prev = hc
        gates = T.affine([(inp, pg[f"{prefix}.wx"]), (h_prev, pg[f"{prefix}.wh"])],
                         pg[f"{prefix}.b"])
        h, c = T.lstm_cell(gates, c_prev)
        return h, (h, c)

    return step_layers(state, T.take_rows(pg["embed"], token_ids_t), layer)


# -- stack-augmented RNN ----------------------------------------------------
# One controller cell plus a soft stack, held as one (B, S, d) Value with the
# top at slot 0.  The controller emits a simplex over {push, pop, no-op}; the
# new stack is the convex blend of the three hard updates, each a shifted
# concat of the whole stack, so a step builds the same nodes at every depth.
# The stack grows one (zero) slot per step, so a push never drops a cell.

def stack_rnn_init(cfg, batch: int, length: int | None) -> dict:
    return {"batch": batch, "h": _zeros(batch, cfg.d_model),
            "stack": T.constant(np.zeros((batch, 1, cfg.d_model)))}


def stack_rnn_step(cfg, pg: ParamGraph, state: dict, token_ids_t: np.ndarray) -> tuple:
    x_t = T.take_rows(pg["embed"], token_ids_t)
    batch, d = x_t.shape[0], cfg.d_model
    stack = state["stack"]
    top = stack.slice((slice(None), 0))

    pre = T.affine([(state["h"], pg["w1"]), (x_t, pg["w2"]), (top, pg["w3"])], pg["b"])
    h = T.nonlinearity(pre, cfg.nonlin)
    action = T.softmax(T.affine([(h, pg["wa"])], pg["ba"]))  # (B, 3): push, pop, noop
    # (B, 1, 1) each, to scale every slot of the stack
    p_push, p_pop, p_noop = (action.slice((slice(None), slice(i, i + 1), None))
                             for i in range(3))
    v = T.nonlinearity(T.affine([(h, pg["wv"])], pg["bv"]), cfg.nonlin)

    zero = T.constant(np.zeros((batch, 1, d)))
    pushed = T.concat([v.reshape((batch, 1, d)), stack], axis=1)
    popped = T.concat([stack.slice((slice(None), slice(1, None))), zero, zero], axis=1)
    kept = T.concat([stack, zero], axis=1)
    return h, {**state, "h": h, "stack": p_push * pushed + p_pop * popped + p_noop * kept}


# -- tape-augmented RNN -----------------------------------------------------
# Soft tape of n + c vector cells, held as one (B, C, d) Value, with a soft
# head distribution over the cells.  A read is the head-weighted sum of the
# cells; a write blends the write vector into every cell by its head mass.
# Moves shift the head distribution with boundary clamping (shifted-out mass
# stays at the edge cell).

def tape_rnn_init(cfg, batch: int, length: int | None) -> dict:
    if length is None:
        raise ModelError("tape-rnn needs the sequence length up front")
    cells = length + cfg.tape_extra_cells
    head = np.zeros((batch, cells))
    head[:, 0] = 1.0
    return {"batch": batch, "h": _zeros(batch, cfg.d_model),
            "tape": T.constant(np.zeros((batch, cells, cfg.d_model))),
            "head": T.constant(head)}


def _shift_head(p: Value, direction: int) -> Value:
    batch, length = p.shape
    if length == 1:
        return p
    zero = T.constant(np.zeros((batch, 1)))
    if direction > 0:
        body = T.concat([zero, p.slice((Ellipsis, slice(0, length - 1)))], axis=-1)
        edge_mask = np.zeros(length)
        edge_mask[-1] = 1.0
    else:
        body = T.concat([p.slice((Ellipsis, slice(1, length))), zero], axis=-1)
        edge_mask = np.zeros(length)
        edge_mask[0] = 1.0
    return body + p * T.constant(edge_mask)


def tape_rnn_step(cfg, pg: ParamGraph, state: dict, token_ids_t: np.ndarray) -> tuple:
    x_t = T.take_rows(pg["embed"], token_ids_t)
    batch, d = x_t.shape[0], cfg.d_model
    tape, head = state["tape"], state["head"]
    cells = tape.shape[1]

    # expected cell under the head distribution: (B, 1, C) x (B, C, d)
    read = T.matmul(head.reshape((batch, 1, cells)), tape).reshape((batch, d))
    pre = T.affine([(state["h"], pg["w1"]), (x_t, pg["w2"]), (read, pg["w3"])], pg["b"])
    h = T.nonlinearity(pre, cfg.nonlin)
    write = T.nonlinearity(T.affine([(h, pg["ww"])], pg["bw"]), cfg.nonlin)
    move = T.softmax(T.affine([(h, pg["wm"])], pg["bm"]))  # (B, 3): left, stay, right

    p = head.reshape((batch, cells, 1))
    new_tape = (T.constant(1.0) - p) * tape + p * write.reshape((batch, 1, d))
    m_left, m_stay, m_right = (move.slice((Ellipsis, slice(i, i + 1))) for i in range(3))
    new_head = m_left * _shift_head(head, -1) + m_stay * head \
        + m_right * _shift_head(head, +1)
    return h, {**state, "h": h, "tape": new_tape, "head": new_head}
