"""Architecture zoo: a single forward entry point plus a uniform step API.

``model_forward`` builds one graph for a whole batch of sequences and returns
per-position logits.  ``init_state``/``step`` expose token-at-a-time decoding
for every architecture that supports it; states are plain value-semantic
containers (tuples/lists/dicts of graph Values), so a state can be kept, the
model resumed from it later, and the results are bit-identical to an
uninterrupted run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import ModelError, ParamGraph, embed_one, readout
from .config import (ARCHS, TRANSFORMER_FAMILY, ModelConfig, init_params,
                     load_checkpoint, save_checkpoint)
from . import linear, recurrent, transformer

__all__ = [
    "ARCHS", "TRANSFORMER_FAMILY", "ModelConfig", "ModelError", "ParamGraph",
    "ForwardResult", "init_params", "save_checkpoint", "load_checkpoint",
    "model_forward", "init_state", "step", "STEP_CAPABLE",
]


@dataclass
class ForwardResult:
    logits: list          # one (B, vocab) Value per position
    pgraph: ParamGraph    # parameter nodes of this graph, for .grads()


# -- uniform step API -------------------------------------------------------
# Wrapped states carry the position counter; the inner layout is per-arch.

def _rc_init(inner_init):
    def init(cfg, pg, batch, length=None):
        if cfg.arch == "tape-rnn":
            if length is None:
                raise ModelError("tape-rnn needs the sequence length up front")
            inner = recurrent.tape_rnn_init(cfg, batch, length + cfg.tape_extra_cells)
        else:
            inner = inner_init(cfg, batch)
        return {"t": 0, "inner": inner}
    return init


def _rc_step(inner_step):
    def do_step(cfg, pg, state, token_ids_t):
        t = state["t"]
        x_t = embed_one(pg, token_ids_t, t, use_positional=False)
        h, inner = inner_step(cfg, pg, state["inner"], x_t)
        return readout(pg, h), {"t": t + 1, "inner": inner}
    return do_step


def _plain(init_fn, step_fn):
    return (lambda cfg, pg, batch, length=None: init_fn(cfg, batch), step_fn)


_STEP_API = {
    "rnn": (_rc_init(recurrent.rnn_init), _rc_step(recurrent.rnn_step)),
    "lstm": (_rc_init(recurrent.lstm_init), _rc_step(recurrent.lstm_step)),
    "stack-rnn": (_rc_init(recurrent.stack_rnn_init), _rc_step(recurrent.stack_rnn_step)),
    "tape-rnn": (_rc_init(recurrent.tape_rnn_init), _rc_step(recurrent.tape_rnn_step)),
    "transformer": _plain(transformer.transformer_init, transformer.transformer_step),
    "recurrent-transformer": _plain(transformer.recurrent_transformer_init,
                                    transformer.recurrent_transformer_step),
    "feedback-transformer": _plain(transformer.feedback_init, transformer.feedback_step),
    "rwkv": _plain(linear.rwkv_init, linear.rwkv_step),
    "linear-transformer": _plain(linear.linear_init, linear.linear_step),
}

STEP_CAPABLE = frozenset(_STEP_API)


def init_state(cfg: ModelConfig, pg: ParamGraph, batch: int, length: int | None = None):
    if cfg.arch not in _STEP_API:
        raise ModelError(f"{cfg.arch} has no token-level step form")
    return _STEP_API[cfg.arch][0](cfg, pg, batch, length)


def step(cfg: ModelConfig, pg: ParamGraph, state, token_ids_t: np.ndarray):
    """Consume one token per sequence; returns (logits, new_state).  The input
    state is not mutated, so any retained copy stays resumable."""
    return _STEP_API[cfg.arch][1](cfg, pg, state, np.asarray(token_ids_t))


def _step_route(cfg, pg, token_ids) -> list:
    token_ids = np.asarray(token_ids)
    batch, length = token_ids.shape
    state = init_state(cfg, pg, batch, length)
    logits = []
    for t in range(length):
        out, state = step(cfg, pg, state, token_ids[:, t])
        logits.append(out)
    return logits


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


def _every_position(cfg, pg, token_ids, mode, T_steps) -> list:
    """Routes that build logits at every position whatever is read."""
    arch = cfg.arch
    if arch == "mlp":
        return recurrent.mlp_forward(cfg, pg, token_ids)
    if arch in ("transformer", "recurrent-transformer", "feedback-transformer"):
        return _step_route(cfg, pg, token_ids)
    if arch == "block-recurrent-transformer":
        return transformer.block_recurrent_forward(cfg, pg, token_ids)
    if arch == "universal-transformer":
        return transformer.universal_forward(
            cfg, pg, token_ids, T_steps if T_steps is not None else cfg.max_halting_steps)
    if arch == "rwkv":
        return (linear.rwkv_forward_parallel(cfg, pg, token_ids)
                if mode == "parallel" else _step_route(cfg, pg, token_ids))
    if arch == "linear-transformer":
        return (linear.linear_forward_parallel(cfg, pg, token_ids)
                if mode == "parallel" else _step_route(cfg, pg, token_ids))
    raise ModelError(f"unknown arch {arch!r}")


def model_forward(cfg: ModelConfig, params: dict, token_ids: np.ndarray,
                  mode: str = "parallel", T_steps: int | None = None,
                  positions=None) -> ForwardResult:
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
    The Transformer's parallel route then runs its last layer's per-query
    work and the readout only there, and the RNN-family routes read out only
    there; every other route builds all positions and picks the requested
    ones.
    """
    if mode not in ("parallel", "recurrent"):
        raise ModelError(f"unknown mode {mode!r}")
    token_ids = np.asarray(token_ids)
    if token_ids.ndim != 2:
        raise ModelError(f"token_ids must be (batch, length), got {token_ids.shape}")
    if positions is not None:
        positions = _check_positions(positions, token_ids.shape[1])
    pg = ParamGraph(params)
    arch = cfg.arch

    if arch in ("rnn", "lstm", "stack-rnn", "tape-rnn"):
        logits = recurrent.recurrent_forward(cfg, pg, token_ids, positions)
    elif arch == "transformer" and mode == "parallel":
        logits = transformer.transformer_forward(cfg, pg, token_ids, positions)
    else:
        logits = _every_position(cfg, pg, token_ids, mode, T_steps)
        if positions is not None:
            logits = [logits[p] for p in positions]
    return ForwardResult(logits=logits, pgraph=pg)
