"""Deterministic training/evaluation harness for expert models on tasks.

Everything is derived from explicit seeds: parameter init from the model
config seed, batch contents from (run seed, step), evaluation instances from
the evaluation seed.  Two runs with the same config produce identical metrics
histories.

Loss is cross-entropy on placeholder positions only (teacher forcing on the
encoded slots; no autoregressive sampling).  Instances within a batch are
grouped at one drawn size parameter and right-padded to the longest encoded
sequence, so the loss mask follows each row's own placeholder positions.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import tensor as T
from .models import ModelConfig, init_params, model_forward
from .tasks import PAD_ID, TaskId, encode, generate_with_length, placeholder_positions, task_vocab


class TrainerError(Exception):
    pass


class DivergenceError(TrainerError):
    def __init__(self, step: int, last_finite_step: int, history: list):
        super().__init__(f"loss became non-finite at step {step} "
                         f"(last finite step {last_finite_step})")
        self.step = step
        self.last_finite_step = last_finite_step
        self.history = history


@dataclass
class TrainConfig:
    task: TaskId
    model: ModelConfig
    optimizer: str = "adam"          # adam | sgd
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 64
    max_steps: int = 20000
    train_lengths: tuple[int, int] = (1, 20)
    test_lengths: tuple[int, int] = (21, 40)
    n_seeds: int = 3
    patience: int = 20               # evals without test improvement before stopping
    eval_every: int = 200
    n_eval: int = 100
    seed: int = 0
    stop_at_test_acc: float | None = None
    grad_clip: float | None = 1.0

    def __post_init__(self):
        if isinstance(self.task, str):
            self.task = TaskId.from_key(self.task)
        if self.lr < 0:
            raise TrainerError("lr must be >= 0")
        if self.optimizer not in ("adam", "sgd"):
            raise TrainerError(f"unknown optimizer {self.optimizer!r}")
        for name in ("batch_size", "max_steps", "eval_every", "n_eval", "n_seeds"):
            if getattr(self, name) < 1:
                raise TrainerError(f"{name} must be >= 1, got {getattr(self, name)}")
        # a negative clip would flip the gradient's sign
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise TrainerError(f"grad_clip must be > 0 or None, got {self.grad_clip}")
        for name in ("train_lengths", "test_lengths"):
            _length_range(name, getattr(self, name))
        vocab = task_vocab(self.task)
        if self.model.vocab_size != len(vocab):
            raise TrainerError(f"model vocab {self.model.vocab_size} != "
                               f"task vocab {len(vocab)} for {self.task.key}")


@dataclass(frozen=True)
class Metrics:
    step: int
    train_loss: float
    train_acc: float
    test_acc: float
    seed: int

    def __post_init__(self):
        for a in (self.train_acc, self.test_acc):
            if not 0.0 <= a <= 100.0:
                raise TrainerError(f"accuracy {a} outside [0, 100]")

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass
class TrainResult:
    config: TrainConfig
    best_params: dict
    best_test_acc: float
    best_step: int
    history: list


# -- batching ---------------------------------------------------------------

def _instance_batch(task, rng: np.random.Generator, lengths, size):
    lo, hi = lengths
    n = int(rng.integers(lo, hi + 1))
    seeds = rng.integers(0, 2 ** 31 - 1, size=size)
    return [generate_with_length(task, int(s), n) for s in seeds]


def encode_batch(instances, vocab):
    """Right-pad encoded inputs with PAD; returns (ids (B, L), list of
    per-row (positions, target_ids))."""
    encoded = [encode(inst, vocab) for inst in instances]
    max_len = max(len(ids) for ids, _ in encoded)
    batch = np.full((len(encoded), max_len), PAD_ID, dtype=np.int64)
    slots = []
    for i, (ids, tgt) in enumerate(encoded):
        batch[i, :len(ids)] = ids
        slots.append((placeholder_positions(ids), list(tgt)))
    return batch, slots


def _read_slots(cfg_model, params, batch, slots):
    """Build the forward graph once, reading logits only at the sorted union
    of the batch's placeholder positions; returns (logits by position, the
    parameter graph, each row's exact-match flag under argmax decoding)."""
    order = sorted({pos for positions, _ in slots for pos in positions})
    res = model_forward(cfg_model, params, batch, positions=order)
    logits = dict(zip(order, res.logits))
    predicted = {pos: x.data.argmax(axis=-1).tolist() for pos, x in logits.items()}
    correct = [[predicted[pos][row] for pos in positions] == targets
               for row, (positions, targets) in enumerate(slots)]
    return logits, res.pgraph, correct


def _loss_and_correct(cfg_model, params, batch, slots, vocab_size):
    """CE averaged over all slots of the batch, from one ``T.cross_entropy``
    node per read position, plus ``_read_slots``'s per-row correctness."""
    logits, pgraph, correct = _read_slots(cfg_model, params, batch, slots)
    onehots = {pos: np.zeros((batch.shape[0], vocab_size)) for pos in logits}
    for row, (positions, targets) in enumerate(slots):
        for pos, tgt in zip(positions, targets):
            onehots[pos][row, tgt] = 1.0
    loss = None
    for pos, x in logits.items():                         # x: (B, V)
        term = T.cross_entropy(x, onehots[pos])
        loss = term if loss is None else loss + term
    loss = loss * T.constant(1.0 / sum(len(targets) for _, targets in slots))
    return loss, pgraph, correct


# -- optimizers -------------------------------------------------------------

class _Optimizer:
    """SGD or Adam over a name->ndarray store, updated in place.  Adam keeps
    its moments ``m`` and ``v`` and two scratch arrays per parameter, so a
    step allocates no array; each update evaluates the textbook formula's
    operations in its order, so the bytes are those of the formula."""

    def __init__(self, tc: TrainConfig, params: dict):
        self.tc = tc
        self.t = 0
        if tc.optimizer == "adam":
            self.m = {k: np.zeros_like(v) for k, v in params.items()}
            self.v = {k: np.zeros_like(v) for k, v in params.items()}
            self._scratch = {k: (np.empty_like(v), np.empty_like(v))
                             for k, v in params.items()}

    def update(self, params: dict, grads: dict):
        tc = self.tc
        self.t += 1
        if tc.grad_clip is not None:
            norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            if norm > tc.grad_clip:
                grads = {k: g * (tc.grad_clip / norm) for k, g in grads.items()}
        if tc.optimizer == "sgd":
            for k, g in grads.items():
                params[k] -= tc.lr * g
            return
        b1, b2 = tc.beta1, tc.beta2
        for k, g in grads.items():
            m, v = self.m[k], self.v[k]
            a, b = self._scratch[k]
            np.multiply(g, 1 - b1, out=a)         # m = b1 * m + (1 - b1) * g
            m *= b1
            m += a
            np.multiply(g, 1 - b2, out=a)         # v = b2 * v + (1 - b2) * g * g
            a *= g
            v *= b2
            v += a
            np.divide(m, 1 - b1 ** self.t, out=a)  # m_hat
            np.divide(v, 1 - b2 ** self.t, out=b)  # v_hat
            np.sqrt(b, out=b)
            b += tc.adam_eps
            a *= tc.lr                            # lr * m_hat / (sqrt(v_hat) + eps)
            a /= b
            params[k] -= a


# -- train/evaluate ---------------------------------------------------------

# one scope for the whole run, so every step's loss and backward and the
# closing evaluates share it; a diverging step is reported by the graph's
# finite checks and the loss check, not by numpy's overflow warnings
@T.graph_scope()
def train(tc: TrainConfig, log=None) -> TrainResult:
    vocab = task_vocab(tc.task)
    model_cfg = replace(tc.model, seed=tc.seed)
    params = init_params(model_cfg)
    opt = _Optimizer(tc, params)
    rng = np.random.default_rng(np.random.SeedSequence([tc.seed, 0xDA7A]))

    history: list[Metrics] = []
    best_params = {k: v.copy() for k, v in params.items()}
    best_acc, best_step = -1.0, 0
    evals_since_best = 0
    last_finite = 0

    for step_i in range(1, tc.max_steps + 1):
        instances = _instance_batch(tc.task, rng, tc.train_lengths, tc.batch_size)
        batch, slots = encode_batch(instances, vocab)
        evaluating = step_i % tc.eval_every == 0 or step_i == tc.max_steps
        try:
            # the graph layer's finite checks flag a non-finite loss or
            # gradient (backward's scope checks the loss's pending nodes
            # first), and the closing evaluate is the first graph to read
            # parameters the update may have overflowed
            loss, pgraph, correct = _loss_and_correct(model_cfg, params, batch,
                                                      slots, len(vocab))
            T.backward(loss)
            last_finite = step_i
            opt.update(params, pgraph.grads())
            if evaluating:
                test_acc = evaluate(model_cfg, params, tc.task, tc.test_lengths,
                                    tc.n_eval, seed=tc.seed + 1)
        except T.GraphOverflowError as exc:
            raise DivergenceError(step_i, last_finite, history) from exc

        if evaluating:
            train_acc = 100.0 * sum(correct) / len(correct)
            m = Metrics(step_i, float(loss.data), train_acc, test_acc, tc.seed)
            history.append(m)
            if log is not None:
                log(m)
            if test_acc > best_acc:
                best_acc, best_step = test_acc, step_i
                best_params = {k: v.copy() for k, v in params.items()}
                evals_since_best = 0
            else:
                evals_since_best += 1
            if tc.stop_at_test_acc is not None and test_acc >= tc.stop_at_test_acc:
                break
            if evals_since_best >= tc.patience:
                break
    return TrainResult(tc, best_params, best_acc, best_step, history)


def _length_range(name: str, length_range) -> tuple:
    """(lo, hi) of a range of instance lengths; raises unless 1 <= lo <= hi."""
    lo, hi = length_range
    if not 1 <= lo <= hi:
        raise TrainerError(f"{name} ({lo}, {hi}) needs 1 <= lo <= hi")
    return lo, hi


def eval_instances(task: TaskId, length_range, n_instances: int, seed: int) -> list:
    lo, hi = _length_range("length range", length_range)
    if n_instances < 1:
        raise TrainerError(f"n_instances must be >= 1, got {n_instances}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE7A1]))
    out = []
    for _ in range(n_instances):
        n = int(rng.integers(lo, hi + 1))
        out.append(generate_with_length(task, int(rng.integers(0, 2 ** 31 - 1)), n))
    return out


def evaluate_predictor(predict, task: TaskId, length_range, n_instances: int,
                       seed: int = 0) -> float:
    """Exact-match accuracy of any predictor callable, one instance at a time.

    ``predict(input_ids, n_slots) -> list of predicted target ids``.
    ``evaluate`` does not use it: it is the seam for the benchmark's
    one-at-a-time reference and for the tests' oracle and random predictors.
    """
    vocab = task_vocab(task)
    correct = 0
    for inst in eval_instances(task, length_range, n_instances, seed):
        input_ids, target_ids = encode(inst, vocab)
        preds = predict(list(input_ids), len(target_ids))
        correct += list(preds) == list(target_ids)
    return 100.0 * correct / n_instances


def evaluate(model_cfg: ModelConfig, params: dict, task: TaskId, length_range,
             n_instances: int, seed: int = 0) -> float:
    """Exact-match accuracy of a trained model, batched by encoded length."""
    vocab = task_vocab(task)
    if model_cfg.vocab_size != len(vocab):
        raise TrainerError(f"model vocab {model_cfg.vocab_size} != "
                           f"task vocab {len(vocab)} for {task.key}")
    by_len: dict[int, list] = {}
    for inst in eval_instances(task, length_range, n_instances, seed):
        by_len.setdefault(len(encode(inst, vocab)[0]), []).append(inst)
    correct = 0
    for group in by_len.values():
        batch, slots = encode_batch(group, vocab)
        correct += sum(_read_slots(model_cfg, params, batch, slots)[2])
    return 100.0 * correct / n_instances


def best_of_seeds(tc: TrainConfig, log=None) -> TrainResult:
    """Train ``tc.n_seeds`` runs (seeds tc.seed .. tc.seed+n-1) and return the
    best test accuracy; ties break toward the lower seed."""
    best = None
    failures = []
    for offset in range(tc.n_seeds):
        run_tc = replace(tc, seed=tc.seed + offset)
        try:
            result = train(run_tc, log=log)
        except DivergenceError as exc:
            failures.append((run_tc.seed, exc))
            continue
        if best is None or result.best_test_acc > best.best_test_acc:
            best = result
    if best is None:
        raise TrainerError(f"all {tc.n_seeds} seed runs diverged: "
                           + ", ".join(f"seed {s}: {e}" for s, e in failures))
    return best


# -- config files (kebab-case YAML) -----------------------------------------

# the value types PyYAML builds that each field annotation takes
_YAML_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float), "str": (str,),
               "TaskId": (str,), "tuple[int, int]": (list,)}


def _read_section(path, raw, cls, skip: str, section: str) -> dict:
    """Keyword arguments for dataclass ``cls`` from a YAML mapping keyed by its
    fields except ``skip`` in kebab case, each value checked against its type."""
    if not isinstance(raw, dict):
        raise TrainerError(f"{path}: {section} must be a mapping, got {raw!r}")
    known = {f.name.replace("_", "-"): f for f in fields(cls) if f.name != skip}
    unknown = sorted(str(key) for key in raw if key not in known)
    if unknown:
        raise TrainerError(f"{path}: unknown {section} keys {unknown}")
    kw = {}
    for key, value in raw.items():
        annotation = known[key].type
        base = annotation.removesuffix(" | None")
        if base == "float" and type(value) is str:
            try:   # PyYAML reads an exponent without a dot, as in 1e-3, as a string
                value = float(value)
            except ValueError:
                pass
        ok = type(value) in _YAML_TYPES[base] or value is None and base != annotation
        if not ok or type(value) is list and [type(x) for x in value] != [int, int]:
            raise TrainerError(f"{path}: {section} key {key!r} takes {annotation}, "
                               f"got {value!r}")
        kw[known[key].name] = tuple(value) if type(value) is list else value
    return kw


def load_train_config(path, seed: int = 0) -> TrainConfig:
    """Read a kebab-case YAML config; ``seed`` applies when the file sets no
    top-level ``seed``."""
    import yaml
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise TrainerError(f"{path}: expected a mapping at top level")
    model_raw = raw.pop("model", None)
    if model_raw is None:
        raise TrainerError(f"{path}: missing 'model' section")
    kw = _read_section(path, raw, TrainConfig, "model", "top-level")
    mkw = _read_section(path, model_raw, ModelConfig, "seed", "model")
    if "task" not in kw:
        raise TrainerError(f"{path}: missing 'task'")
    mkw.setdefault("vocab_size", len(task_vocab(TaskId.from_key(kw["task"]))))
    kw.setdefault("seed", seed)
    return TrainConfig(model=ModelConfig(**mkw), **kw)
