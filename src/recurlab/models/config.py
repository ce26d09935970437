"""Architecture configuration, parameter initialization, checkpoints."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..tensor import NONLINEARITIES
from .common import ModelError

ARCHS = (
    "mlp",
    "rnn",
    "lstm",
    "stack-rnn",
    "tape-rnn",
    "transformer",
    "recurrent-transformer",
    "feedback-transformer",
    "block-recurrent-transformer",
    "universal-transformer",
    "rwkv",
    "linear-transformer",
)

TRANSFORMER_FAMILY = frozenset({
    "transformer", "recurrent-transformer", "feedback-transformer",
    "block-recurrent-transformer", "universal-transformer",
})

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
        if self.arch not in ARCHS:
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


def _attn_layer_params(rng, d, d_ff, prefix, params, with_query=True):
    s = 1.0 / np.sqrt(d)
    for name in (("wq", "wk", "wv") if with_query else ("wk", "wv")):
        params[f"{prefix}.{name}"] = rng.normal(0.0, s, size=(d, d))
    params[f"{prefix}.ffn.w1"] = rng.normal(0.0, s, size=(d, d_ff))
    params[f"{prefix}.ffn.b1"] = np.zeros(d_ff)
    params[f"{prefix}.ffn.w2"] = rng.normal(0.0, 1.0 / np.sqrt(d_ff), size=(d_ff, d))
    params[f"{prefix}.ffn.b2"] = np.zeros(d)
    for ln in ("ln1", "ln2"):
        params[f"{prefix}.{ln}_g"] = np.ones(d)
        params[f"{prefix}.{ln}_b"] = np.zeros(d)


def init_params(cfg: ModelConfig) -> dict:
    rng = np.random.default_rng(cfg.seed)
    d, v = cfg.d_model, cfg.vocab_size
    s = 1.0 / np.sqrt(d)
    params: dict[str, np.ndarray] = {
        "embed": rng.normal(0.0, 1.0, size=(v, d)),
        "out_w": rng.normal(0.0, s, size=(d, v)),
        "out_b": np.zeros(v),
    }
    if cfg.arch == "mlp":
        for layer in range(cfg.n_layers):
            params[f"l{layer}.w"] = rng.normal(0.0, s, size=(d, d))
            params[f"l{layer}.b"] = np.zeros(d)
    elif cfg.arch == "rnn":
        for layer in range(cfg.n_layers):
            params[f"l{layer}.w1"] = rng.normal(0.0, s, size=(d, d))
            params[f"l{layer}.w2"] = rng.normal(0.0, s, size=(d, d))
            params[f"l{layer}.b"] = np.zeros(d)
    elif cfg.arch == "lstm":
        for layer in range(cfg.n_layers):
            params[f"l{layer}.wx"] = rng.normal(0.0, s, size=(d, 4 * d))
            params[f"l{layer}.wh"] = rng.normal(0.0, s, size=(d, 4 * d))
            b = np.zeros(4 * d)
            b[d:2 * d] = 1.0  # forget-gate bias starts open
            params[f"l{layer}.b"] = b
    elif cfg.arch in ("stack-rnn", "tape-rnn"):
        for name in ("w1", "w2", "w3"):
            params[name] = rng.normal(0.0, s, size=(d, d))
        params["b"] = np.zeros(d)
        if cfg.arch == "stack-rnn":
            params["wa"] = rng.normal(0.0, s, size=(d, 3))
            params["ba"] = np.zeros(3)
            params["wv"] = rng.normal(0.0, s, size=(d, d))
            params["bv"] = np.zeros(d)
        else:
            params["ww"] = rng.normal(0.0, s, size=(d, d))
            params["bw"] = np.zeros(d)
            params["wm"] = rng.normal(0.0, s, size=(d, 3))
            params["bm"] = np.zeros(3)
    elif cfg.arch == "universal-transformer":
        _attn_layer_params(rng, d, cfg.d_ff, "shared", params)
    elif cfg.arch == "rwkv":
        for layer in range(cfg.n_layers):
            _attn_layer_params(rng, d, cfg.d_ff, f"l{layer}", params, with_query=False)
            # decay passes through elu_plus_one, so effective w stays positive
            params[f"l{layer}.w_raw"] = rng.uniform(-0.5, 1.0, size=d)
            params[f"l{layer}.u"] = rng.normal(0.0, 0.5, size=d)
    elif cfg.arch in TRANSFORMER_FAMILY or cfg.arch == "linear-transformer":
        for layer in range(cfg.n_layers):
            _attn_layer_params(rng, d, cfg.d_ff, f"l{layer}", params)
    else:
        raise ModelError(f"unknown arch {cfg.arch!r}")
    return params


def save_checkpoint(path, cfg: ModelConfig, params: dict, extra: dict | None = None):
    """Versioned npz container: config echo as JSON plus named weight arrays."""
    meta = {"version": CHECKPOINT_VERSION, "config": asdict(cfg), "extra": extra or {}}
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **params)


def load_checkpoint(path) -> tuple:
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"].tobytes()).decode())
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ModelError(f"unsupported checkpoint version {meta.get('version')}")
        params = {k: data[k] for k in data.files if k != "__meta__"}
    unknown = set(meta["config"]) - {f.name for f in fields(ModelConfig)}
    if unknown:
        raise ModelError(f"unknown config keys {sorted(unknown)} in checkpoint")
    return ModelConfig(**meta["config"]), params, meta.get("extra", {})
