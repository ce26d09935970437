"""Recurrence-complete baselines: MLP, RNN, LSTM, and memory-augmented RNNs.

All step functions are pure in (params, state, input): state objects hold
per-position graph Values and can be saved, shipped across threads and
resumed; re-running the same steps rebuilds bit-identical data.  Each step
embeds its token without positional encoding: the recurrence carries order.
"""

from __future__ import annotations

import numpy as np

from .. import tensor as T
from ..tensor import Value
from .common import ModelError, ParamGraph, as_row, readout


def _zeros(batch: int, d: int) -> Value:
    return T.constant(np.zeros((batch, d)))


# -- MLP --------------------------------------------------------------------

def mlp_forward(cfg, pg: ParamGraph, token_ids: np.ndarray) -> list:
    """Mean-pooled bag of embeddings through m feed-forward layers.

    The pooled input keeps the graph size independent of sequence length, so
    the profiler sees the architecture's constant depth directly.
    """
    token_ids = np.asarray(token_ids)
    length = token_ids.shape[1]
    emb = T.take_rows(pg["embed"], token_ids)            # (B, L, d)
    h = emb.sum(axis=1) * T.constant(1.0 / length)       # (B, d)
    for layer in range(cfg.n_layers):
        h = T.nonlinearity(T.matmul(h, pg[f"l{layer}.w"]) + pg[f"l{layer}.b"], cfg.nonlin)
    logits = readout(pg, h)
    return [logits] * length


# -- plain RNN --------------------------------------------------------------

def rnn_init(cfg, batch: int, length: int | None) -> list:
    return [None] * cfg.n_layers  # lazy zeros, created at first step


def rnn_step(cfg, pg: ParamGraph, state: list, token_ids_t: np.ndarray) -> tuple:
    """h_t = sigma(W1 h_{t-1} + W2 x_t + b), stacked over layers; layer i+1
    consumes layer i's hidden at the same step."""
    x_t = T.take_rows(pg["embed"], token_ids_t)
    new_state = []
    inp = x_t
    for layer in range(cfg.n_layers):
        h_prev = state[layer]
        if h_prev is None:
            h_prev = _zeros(x_t.shape[0], cfg.d_model)
        pre = T.matmul(h_prev, pg[f"l{layer}.w1"]) + T.matmul(inp, pg[f"l{layer}.w2"]) \
            + pg[f"l{layer}.b"]
        h = T.nonlinearity(pre, cfg.nonlin)
        new_state.append(h)
        inp = h
    return inp, new_state


# -- LSTM -------------------------------------------------------------------

def lstm_step(cfg, pg: ParamGraph, state: list, token_ids_t: np.ndarray) -> tuple:
    x_t = T.take_rows(pg["embed"], token_ids_t)
    d = cfg.d_model
    new_state = []
    inp = x_t
    for layer in range(cfg.n_layers):
        hc = state[layer]
        if hc is None:
            hc = (_zeros(x_t.shape[0], d), _zeros(x_t.shape[0], d))
        h_prev, c_prev = hc
        gates = T.matmul(inp, pg[f"l{layer}.wx"]) + T.matmul(h_prev, pg[f"l{layer}.wh"]) \
            + pg[f"l{layer}.b"]
        i = T.nonlinearity(gates.slice((Ellipsis, slice(0, d))), "sigmoid")
        f = T.nonlinearity(gates.slice((Ellipsis, slice(d, 2 * d))), "sigmoid")
        o = T.nonlinearity(gates.slice((Ellipsis, slice(2 * d, 3 * d))), "sigmoid")
        g = T.nonlinearity(gates.slice((Ellipsis, slice(3 * d, 4 * d))), "tanh")
        c = f * c_prev + i * g
        h = o * T.nonlinearity(c, "tanh")
        new_state.append((h, c))
        inp = h
    return inp, new_state


# -- stack-augmented RNN ----------------------------------------------------
# One controller cell plus a soft stack of vectors (top = slot 0).  The
# controller emits a simplex over {push, pop, no-op}; the stack update is the
# convex superposition of the three hard updates.

def stack_rnn_init(cfg, batch: int, length: int | None) -> dict:
    return {"h": None, "stack": []}


def stack_rnn_step(cfg, pg: ParamGraph, state: dict, token_ids_t: np.ndarray) -> tuple:
    x_t = T.take_rows(pg["embed"], token_ids_t)
    batch, d = x_t.shape[0], cfg.d_model
    h_prev = state["h"] if state["h"] is not None else _zeros(batch, d)
    stack = state["stack"]
    zero = _zeros(batch, d)
    top = stack[0] if stack else zero

    pre = T.matmul(h_prev, pg["w1"]) + T.matmul(x_t, pg["w2"]) + T.matmul(top, pg["w3"]) \
        + pg["b"]
    h = T.nonlinearity(pre, cfg.nonlin)
    action = T.softmax(T.matmul(h, pg["wa"]) + pg["ba"])  # (B, 3): push, pop, noop
    p_push = action.slice((Ellipsis, slice(0, 1)))
    p_pop = action.slice((Ellipsis, slice(1, 2)))
    p_noop = action.slice((Ellipsis, slice(2, 3)))
    v = T.nonlinearity(T.matmul(h, pg["wv"]) + pg["bv"], cfg.nonlin)

    old = list(stack) + [zero]  # one extra slot to grow into
    new_stack = []
    for i in range(len(stack) + 1):
        pushed = v if i == 0 else old[i - 1]
        popped = old[i + 1] if i + 1 < len(old) else zero
        kept = old[i]
        new_stack.append(p_push * pushed + p_pop * popped + p_noop * kept)
    return h, {"h": h, "stack": new_stack}


# -- tape-augmented RNN -----------------------------------------------------
# Soft tape of n + c vector cells with a soft head distribution.  Writes blend
# the write vector into cells by head mass; moves shift the head distribution
# with boundary clamping (shifted-out mass stays at the edge cell).

def tape_rnn_init(cfg, batch: int, length: int | None) -> dict:
    if length is None:
        raise ModelError("tape-rnn needs the sequence length up front")
    tape_len = length + cfg.tape_extra_cells
    return {"h": None, "tape": [None] * tape_len, "head": None, "len": tape_len}


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
    length = state["len"]
    h_prev = state["h"] if state["h"] is not None else _zeros(batch, d)
    head = state["head"]
    if head is None:
        start = np.zeros((batch, length))
        start[:, 0] = 1.0
        head = T.constant(start)
    tape = [c if c is not None else _zeros(batch, d) for c in state["tape"]]

    # expected cell under the head distribution: (B, 1, C) x (B, C, d)
    stacked = T.concat([as_row(c) for c in tape], axis=1)
    read = T.matmul(head.reshape((batch, 1, length)), stacked).reshape((batch, d))
    pre = T.matmul(h_prev, pg["w1"]) + T.matmul(x_t, pg["w2"]) + T.matmul(read, pg["w3"]) \
        + pg["b"]
    h = T.nonlinearity(pre, cfg.nonlin)
    write = T.nonlinearity(T.matmul(h, pg["ww"]) + pg["bw"], cfg.nonlin)
    move = T.softmax(T.matmul(h, pg["wm"]) + pg["bm"])  # (B, 3): left, stay, right

    new_tape = []
    for i in range(length):
        p_i = head.slice((Ellipsis, slice(i, i + 1)))    # (B, 1)
        one_minus = T.constant(np.ones((batch, 1))) - p_i
        new_tape.append(one_minus * tape[i] + p_i * write)

    m_left = move.slice((Ellipsis, slice(0, 1)))
    m_stay = move.slice((Ellipsis, slice(1, 2)))
    m_right = move.slice((Ellipsis, slice(2, 3)))
    new_head = m_left * _shift_head(head, -1) + m_stay * head \
        + m_right * _shift_head(head, +1)
    return h, {"h": h, "tape": new_tape, "head": new_head, "len": length}
