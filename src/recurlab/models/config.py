"""The architecture table, configuration, parameter initialization, checkpoints.

``ARCH_TABLE`` is the one place that says what an architecture is: its
parameter function; its step form ``(init, cell)``, with ``init(cfg, batch,
length) -> state`` and ``cell(cfg, pg, state, token_ids_t) -> (top hidden, new
state)``, or None for the MLP; and its parallel route, or None for a step-only
arch.  ``ARCHS``, ``STEP_CAPABLE``, ``init_params`` and ``models.model_forward``
read it.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from ..tensor import NONLINEARITIES
from . import linear, recurrent, transformer
from .common import ModelError, init_layers

CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    arch: str
    vocab_size: int
    d_model: int = 16
    n_layers: int = 1
    n_heads: int = 1
    block_size: int = 4            # block-recurrent window
    feedback_window: int | None = 8  # feedback memory length; None = unlimited
    max_halting_steps: int = 8     # universal-transformer iteration budget
    feature_map: str = "elu_plus_one"
    nonlin: str = "tanh"
    d_ff: int | None = None
    scale_scores: bool = True
    use_residual: bool = True
    use_positional: bool = True
    tape_extra_cells: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.arch not in ARCH_TABLE:
            raise ModelError(f"unknown arch {self.arch!r}")
        if self.d_ff is None:
            self.d_ff = 2 * self.d_model
        for name, least in (("vocab_size", 1), ("d_model", 1), ("n_layers", 1), ("n_heads", 1),
                            ("d_ff", 1), ("block_size", 1), ("max_halting_steps", 1),
                            ("tape_extra_cells", 0)):
            if getattr(self, name) < least:
                raise ModelError(f"{name} must be >= {least}, got {getattr(self, name)}")
        # rows[-0:] would keep every cached row, so 0 cannot mean "none"
        if self.feedback_window is not None and self.feedback_window < 1:
            raise ModelError(f"feedback_window must be >= 1 or None, got {self.feedback_window}")
        if self.d_model % self.n_heads:
            raise ModelError(f"d_model {self.d_model} not divisible by {self.n_heads} heads")
        for name in ("nonlin", "feature_map"):
            if getattr(self, name) not in NONLINEARITIES:
                raise ModelError(f"{name} must be one of {sorted(NONLINEARITIES)}, "
                                 f"got {getattr(self, name)!r}")


# -- parameter functions: (rng, cfg, params) adds one layout's weights --------

def _dense_params(rng, cfg, params, weights, gates=1):
    """Per layer, each of ``weights`` (d, gates * d), then a zero bias ``b``
    whose second gate, an LSTM's forget gate, starts open (one gate has none)."""
    d, s = cfg.d_model, 1.0 / np.sqrt(cfg.d_model)
    for layer in range(cfg.n_layers):
        for name in weights:
            params[f"l{layer}.{name}"] = rng.normal(0.0, s, size=(d, gates * d))
        params[f"l{layer}.b"] = np.zeros(gates * d)
        params[f"l{layer}.b"][d:2 * d] = 1.0


def _controller_params(rng, cfg, params, heads):
    """One controller whatever ``n_layers`` is, then a (d, width) weight and a
    zero bias per ``(weight, bias, width)`` of ``heads``; None is ``d_model``."""
    d, s = cfg.d_model, 1.0 / np.sqrt(cfg.d_model)
    for name in ("w1", "w2", "w3"):
        params[name] = rng.normal(0.0, s, size=(d, d))
    params["b"] = np.zeros(d)
    for weight, bias, width in heads:
        params[weight] = rng.normal(0.0, s, size=(d, width or d))
        params[bias] = np.zeros(width or d)


def _attn_layer_params(rng, cfg, prefix, params, projections=("wq", "wk", "wv")):
    d, d_ff, s = cfg.d_model, cfg.d_ff, 1.0 / np.sqrt(cfg.d_model)
    for name in projections:
        params[f"{prefix}.{name}"] = rng.normal(0.0, s, size=(d, d))
    params[f"{prefix}.ffn.w1"] = rng.normal(0.0, s, size=(d, d_ff))
    params[f"{prefix}.ffn.b1"] = np.zeros(d_ff)
    params[f"{prefix}.ffn.w2"] = rng.normal(0.0, 1.0 / np.sqrt(d_ff), size=(d_ff, d))
    params[f"{prefix}.ffn.b2"] = np.zeros(d)
    for ln in ("ln1", "ln2"):
        params[f"{prefix}.{ln}_g"] = np.ones(d)
        params[f"{prefix}.{ln}_b"] = np.zeros(d)


def _attention_params(rng, cfg, params, prefixes=None):
    """One attention layer per prefix, ``l0``, ``l1``, ... by default."""
    for prefix in prefixes or [f"l{layer}" for layer in range(cfg.n_layers)]:
        _attn_layer_params(rng, cfg, prefix, params)


def _rwkv_params(rng, cfg, params):
    for layer in range(cfg.n_layers):
        _attn_layer_params(rng, cfg, f"l{layer}", params, projections=("wk", "wv"))
        # decay passes through elu_plus_one, so effective w stays positive
        params[f"l{layer}.w_raw"] = rng.uniform(-0.5, 1.0, size=cfg.d_model)
        params[f"l{layer}.u"] = rng.normal(0.0, 0.5, size=cfg.d_model)


class Arch(NamedTuple):
    params: Callable                  # (rng, cfg, params) adds the arch's weights
    step: tuple | None                # (init, cell), or None: no step form
    parallel: Callable | None = None  # route(cfg, pg, token_ids, positions), or None


ARCH_TABLE = {
    "mlp": Arch(partial(_dense_params, weights=("w",)), None, recurrent.mlp_forward),
    "rnn": Arch(partial(_dense_params, weights=("w1", "w2")), (init_layers, recurrent.rnn_step)),
    "lstm": Arch(partial(_dense_params, weights=("wx", "wh"), gates=4),
                 (init_layers, recurrent.lstm_step)),
    "stack-rnn": Arch(partial(_controller_params, heads=(("wa", "ba", 3), ("wv", "bv", None))),
                      (recurrent.stack_rnn_init, recurrent.stack_rnn_step)),
    "tape-rnn": Arch(partial(_controller_params, heads=(("ww", "bw", None), ("wm", "bm", 3))),
                     (recurrent.tape_rnn_init, recurrent.tape_rnn_step)),
    "transformer": Arch(_attention_params, (init_layers, transformer.transformer_step),
                        transformer.transformer_forward),
    "recurrent-transformer": Arch(_attention_params,
                                  (init_layers, transformer.recurrent_transformer_step)),
    "feedback-transformer": Arch(_attention_params, (init_layers, transformer.feedback_step)),
    "block-recurrent-transformer": Arch(_attention_params,
                                        (init_layers, transformer.block_recurrent_step)),
    "universal-transformer": Arch(partial(_attention_params, prefixes=("shared",)),
                                  (transformer.universal_init, transformer.universal_step)),
    "rwkv": Arch(_rwkv_params, (init_layers, linear.rwkv_step),
                 partial(linear.parallel_forward, attend=linear.rwkv_attn_masked)),
    "linear-transformer": Arch(_attention_params, (init_layers, linear.linear_step),
                               partial(linear.parallel_forward, attend=linear.linear_attn_masked)),
}

ARCHS = tuple(ARCH_TABLE)
STEP_CAPABLE = frozenset(arch for arch, row in ARCH_TABLE.items() if row.step)


def init_params(cfg: ModelConfig) -> dict:
    rng = np.random.default_rng(cfg.seed)
    d, v = cfg.d_model, cfg.vocab_size
    params: dict[str, np.ndarray] = {
        "embed": rng.normal(0.0, 1.0, size=(v, d)),
        "out_w": rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, v)),
        "out_b": np.zeros(v),
    }
    ARCH_TABLE[cfg.arch].params(rng, cfg, params)
    return params


def save_checkpoint(path, cfg: ModelConfig, params: dict, extra: dict | None = None):
    """Versioned npz container: config echo as JSON plus named weight arrays."""
    meta = {"version": CHECKPOINT_VERSION, "config": asdict(cfg), "extra": extra or {}}
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **params)


def load_checkpoint(path) -> tuple:
    """(config, params, extra) of a ``save_checkpoint`` file; a
    ``ModelError`` for a file that cannot be read as one: unreadable, empty,
    truncated, not an npz archive, or without a readable ``__meta__`` that
    holds a well-typed config mapping."""
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not an npz archive")
        with data:
            if "__meta__" not in data.files:
                raise ValueError("no __meta__ entry")
            meta = json.loads(bytes(data["__meta__"].tobytes()).decode())
            params = {k: data[k] for k in data.files if k != "__meta__"}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as err:
        raise ModelError(f"cannot read checkpoint {path}: {err}") from None
    version = meta.get("version") if isinstance(meta, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ModelError(f"unsupported checkpoint version {version}")
    config = meta.get("config")
    if not isinstance(config, dict):
        raise ModelError(f"checkpoint {path} holds no config mapping")
    unknown = set(config) - {f.name for f in fields(ModelConfig)}
    if unknown:
        raise ModelError(f"unknown config keys {sorted(unknown)} in checkpoint")
    try:
        cfg = ModelConfig(**config)
    except TypeError as err:      # a value of the wrong type
        raise ModelError(f"checkpoint {path} has a malformed config: {err}") from None
    return cfg, params, meta.get("extra", {})
