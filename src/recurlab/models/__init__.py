"""Architecture zoo: a single forward entry point plus a uniform step API.

``model_forward`` builds one graph for a whole batch of sequences and returns
per-position logits.  ``init_state``/``step`` expose token-at-a-time decoding
for every architecture with a step form in ``config.ARCH_TABLE`` (all but the
MLP).  Every state records its ``"batch"``, which ``step`` checks the tokens
against.  The layered step cells (all but stack-rnn and tape-rnn) share
``common.init_layers``'s state ``{"t", "batch", "layers"}``, one immutable
state per layer (per iteration of the universal Transformer's shared layer),
and run their stacks through ``common.step_layers``, or, for a chunked cell,
``common.chunk_layers``.  No step mutates its input state, so a kept state
resumes bit-identically to an uninterrupted run.

``model_forward`` takes the step route, which drives the row's cell, when the
row has a step form and the mode is recurrent or the row has no parallel
form; otherwise it takes the row's parallel route.  The step route calls a
chunked cell once, over the tokens up to the last requested position, and
any other cell once per token.  Every route has one
contract, ``route(cfg, pg, token_ids, positions) -> {position: logits}``: it
reads every setting from the config and reads out only at ``positions``, in
increasing position order.  Only ``model_forward`` orders the logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import tensor as T
from ..tensor import graph_scope
from .common import ModelError, ParamGraph, readout
from .config import (ARCH_TABLE, ARCHS, STEP_CAPABLE, ModelConfig, init_params,
                     load_checkpoint, save_checkpoint)

__all__ = [
    "ARCHS", "ModelConfig", "ModelError", "ParamGraph",
    "ForwardResult", "init_params", "save_checkpoint", "load_checkpoint",
    "model_forward", "init_state", "step", "STEP_CAPABLE",
]


@dataclass
class ForwardResult:
    logits: list          # one (B, vocab) Value per position
    pgraph: ParamGraph    # parameter nodes of this graph, for .grads()


def init_state(cfg: ModelConfig, batch: int, length: int | None = None):
    """The state before the first token of ``batch`` sequences, at least
    one, as ``model_forward`` and ``step`` take them; only tape-rnn reads
    ``length``, which sizes its tape."""
    if ARCH_TABLE[cfg.arch].step is None:
        raise ModelError(f"{cfg.arch} has no token-level step form")
    if batch < 1:
        raise ModelError(f"batch must be >= 1, got {batch}")
    return ARCH_TABLE[cfg.arch].step[0](cfg, batch, length)


_TOKEN_SHAPES = {1: "(batch,)", 2: "(batch, length)"}


def _check_tokens(cfg: ModelConfig, token_ids, ndim: int) -> np.ndarray:
    """``token_ids`` as an ``ndim``-dimensional array of at least one
    sequence; a ``ModelError`` names another shape, an empty batch, a
    non-integer dtype or the first id outside [0, vocab_size), which the
    embedding lookup would fail on or wrap."""
    token_ids = np.asarray(token_ids)
    if token_ids.ndim != ndim:
        raise ModelError(f"token ids must be {_TOKEN_SHAPES[ndim]}, "
                         f"got shape {token_ids.shape}")
    if not token_ids.shape[0]:
        raise ModelError(f"token ids hold no sequence: shape {token_ids.shape}")
    if not np.issubdtype(token_ids.dtype, np.integer):
        raise ModelError(f"token ids must be integers, got dtype {token_ids.dtype}")
    bad = token_ids[(token_ids < 0) | (token_ids >= cfg.vocab_size)]
    if bad.size:
        raise ModelError(f"token id {bad[0]} outside [0, {cfg.vocab_size})")
    return token_ids


def step(cfg: ModelConfig, pg: ParamGraph, state, token_ids_t: np.ndarray):
    """Consume one token per sequence; returns (logits, new_state).  The input
    state is not mutated, so any retained copy stays resumable.  The tokens'
    batch must be the state's."""
    token_ids_t = _check_tokens(cfg, token_ids_t, 1)
    if len(token_ids_t) != state["batch"]:
        raise ModelError(f"token ids have batch {len(token_ids_t)} but the state "
                         f"has batch {state['batch']}")
    logits, state = _advance(cfg, pg, state, token_ids_t[:, None], [0])
    return logits[0], state


def _advance(cfg, pg, state, token_ids: np.ndarray, positions) -> tuple:
    """Run the step cell over the tokens (B, n) from ``state``; returns
    ({position: logits} at ``positions``, increasing positions in [0, n),
    and the new state).  A chunked cell takes every token at once, and
    every other cell one token at a time."""
    row = ARCH_TABLE[cfg.arch]
    cell = row.step[1]
    if row.chunked:
        h, state = cell(cfg, pg, state, token_ids, positions)
        logits = readout(pg, h, stacked=True)
        return {t: T.pick(logits, i) for i, t in enumerate(positions)}, state
    wanted = set(positions)
    logits = {}
    for t in range(token_ids.shape[1]):
        h, state = cell(cfg, pg, state, token_ids[:, t])
        if t in wanted:
            logits[t] = readout(pg, h)
    return logits, state


def _step_route(cfg, pg, token_ids, positions) -> dict:
    """Run the step cell over the tokens up to the last of ``positions``;
    returns {position: logits}, read out only at ``positions``."""
    state = ARCH_TABLE[cfg.arch].step[0](cfg, *token_ids.shape)
    if not positions:
        return {}
    return _advance(cfg, pg, state, token_ids[:, :max(positions) + 1], sorted(positions))[0]


# -- whole-sequence forward -------------------------------------------------

def _check_positions(positions, length: int) -> list:
    try:
        positions = list(positions)
    except TypeError:
        raise ModelError(f"positions must be a sequence of ints, got {positions!r}") from None
    for p in positions:
        if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
            raise ModelError(f"position {p!r} is not an int")
        if not 0 <= p < length:
            raise ModelError(f"position {p} outside [0, {length})")
    if len(set(positions)) != len(positions):
        raise ModelError(f"duplicate positions in {positions}")
    return [int(p) for p in positions]


@graph_scope()
def model_forward(cfg: ModelConfig, params: dict, token_ids: np.ndarray,
                  mode: str = "parallel", positions=None) -> ForwardResult:
    """Run ``cfg.arch`` over a (B, L) int batch, producing (B, vocab) logits.

    ``mode`` selects the evaluation route where an architecture has two:
    "parallel" evaluates attention sums directly, "recurrent" threads the
    constant-size state token by token.  Architectures with a single route
    accept either value.

    ``positions=None`` returns logits at every position, and the graph is the
    full one; the profiler relies on this, since its growth laws count the
    work of producing every position.  A sequence of distinct ints in
    [0, L) returns one logits Value per requested position, in the order
    given, with values bit-identical to the full forward's at those positions.
    Every route reads out only there, so it builds no more than the full
    forward; the Transformer's parallel route also runs its last layer's
    per-query work only there.  Only this function puts the logits in the
    requested order.
    """
    if mode not in ("parallel", "recurrent"):
        raise ModelError(f"unknown mode {mode!r}")
    token_ids = _check_tokens(cfg, token_ids, 2)
    length = token_ids.shape[1]
    order = range(length) if positions is None else _check_positions(positions, length)
    pg = ParamGraph(params)
    row = ARCH_TABLE[cfg.arch]
    route = _step_route if row.step and (mode == "recurrent" or not row.parallel) else row.parallel
    logits = route(cfg, pg, token_ids, order)
    return ForwardResult(logits=[logits[t] for t in order], pgraph=pg)
