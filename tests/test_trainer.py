"""Training harness: determinism, optimization sanity, evaluation, selection."""

import warnings
from dataclasses import fields

import numpy as np
import pytest
import yaml

from recurlab import tensor as T
from recurlab import trainer
from recurlab.models import ModelConfig, init_params, model_forward
from recurlab.tasks import (SEP_ID, TaskId, generate_with_length, oracle,
                            task_vocab)
from recurlab.trainer import (DivergenceError, Metrics, TrainConfig,
                              TrainerError, _loss_and_correct, _Optimizer,
                              best_of_seeds, encode_batch, evaluate,
                              evaluate_predictor, eval_instances,
                              load_train_config, train)

PARITY_VOCAB = task_vocab(TaskId.PARITY_CHECK)


def parity_tc(**kw):
    kw.setdefault("model", ModelConfig(arch="rnn", vocab_size=len(PARITY_VOCAB),
                                       d_model=8))
    kw.setdefault("task", TaskId.PARITY_CHECK)
    kw.setdefault("batch_size", 8)
    kw.setdefault("max_steps", 40)
    kw.setdefault("eval_every", 20)
    kw.setdefault("n_eval", 20)
    return TrainConfig(**kw)


# -- config validation ------------------------------------------------------

def test_vocab_mismatch_rejected():
    with pytest.raises(TrainerError):
        parity_tc(model=ModelConfig(arch="rnn", vocab_size=3))


def test_bad_ranges_and_optimizer_rejected():
    with pytest.raises(TrainerError):
        parity_tc(train_lengths=(5, 2))
    with pytest.raises(TrainerError):
        parity_tc(optimizer="rmsprop")
    with pytest.raises(TrainerError):
        parity_tc(lr=-1.0)


def test_metrics_accuracy_bounds():
    with pytest.raises(TrainerError):
        Metrics(1, 0.5, 120.0, 50.0, 0)


def test_task_accepts_string_key():
    tc = parity_tc(task="parity-check")
    assert tc.task is TaskId.PARITY_CHECK


# -- optimization sanity ----------------------------------------------------

def test_lr_zero_leaves_parameters_unchanged():
    tc = parity_tc(lr=0.0, max_steps=10, eval_every=10)
    result = train(tc)
    from dataclasses import replace
    fresh = init_params(replace(tc.model, seed=tc.seed))
    for name, arr in fresh.items():
        np.testing.assert_array_equal(result.best_params[name], arr)


def test_same_seed_identical_history():
    tc = parity_tc(max_steps=60, eval_every=20)
    h1 = [m for m in train(tc).history]
    h2 = [m for m in train(tc).history]
    assert h1 == h2


def test_different_seeds_differ():
    a = train(parity_tc(seed=0)).history[-1]
    b = train(parity_tc(seed=1)).history[-1]
    assert a.train_loss != b.train_loss


def test_sgd_first_order_decrease():
    """One SGD step with small lr decreases the loss by ~lr*||g||^2."""
    tc = parity_tc(optimizer="sgd", grad_clip=None)
    from dataclasses import replace
    cfg = replace(tc.model, seed=0)
    params = init_params(cfg)
    instances = [generate_with_length(tc.task, s, 6) for s in range(8)]
    batch, slots = encode_batch(instances, PARITY_VOCAB)

    loss, pgraph, _ = _loss_and_correct(cfg, params, batch, slots, len(PARITY_VOCAB))
    T.backward(loss)
    grads = pgraph.grads()
    gnorm2 = sum(float(np.sum(g * g)) for g in grads.values())
    lr = 1e-4
    for k, g in grads.items():
        params[k] -= lr * g
    loss2, _, _ = _loss_and_correct(cfg, params, batch, slots, len(PARITY_VOCAB))
    drop = float(loss.data) - float(loss2.data)
    assert drop > 0
    assert abs(drop - lr * gnorm2) < 0.3 * lr * gnorm2


def reference_loss_and_correct(cfg, params, batch, slots, vocab_size):
    """The loss built from the full forward, in the trainer's op order."""
    res = model_forward(cfg, params, batch)
    logits = res.logits
    onehots = {}
    for row, (positions, targets) in enumerate(slots):
        for pos, tgt in zip(positions, targets):
            onehots.setdefault(pos, np.zeros((batch.shape[0], vocab_size)))[row, tgt] = 1.0
    loss = None
    for pos, onehot in sorted(onehots.items()):
        x = logits[pos]
        c = T.constant(x.data.max(axis=-1, keepdims=True))
        lse = T.log(T.exp(x - c).sum(axis=-1, keepdims=True)) + c
        term = ((lse - x) * T.constant(onehot)).sum()
        loss = term if loss is None else loss + term
    loss = loss * T.constant(1.0 / sum(len(p) for p, _ in slots))
    correct = [[int(np.argmax(logits[p].data[row])) for p in positions] == targets
               for row, (positions, targets) in enumerate(slots)]
    return loss, res.pgraph, correct


@pytest.mark.parametrize("task", [TaskId.PARITY_CHECK, TaskId.SORTING])
@pytest.mark.parametrize("arch,n_layers,n_heads", [
    ("transformer", 1, 1), ("transformer", 2, 2), ("rnn", 1, 1), ("lstm", 2, 1)])
def test_loss_and_grads_match_full_forward(task, arch, n_layers, n_heads):
    """Reading logits only at placeholder slots changes no bit of the loss,
    the gradients or the per-row correctness."""
    vocab = task_vocab(task)
    cfg = ModelConfig(arch=arch, vocab_size=len(vocab), d_model=8, n_layers=n_layers,
                      n_heads=n_heads, seed=3)
    params = init_params(cfg)
    # rows of different lengths: the slots sit at several padded positions
    instances = [generate_with_length(task, s, n) for s, n in enumerate((3, 7, 5, 7))]
    batch, slots = encode_batch(instances, vocab)

    loss, pgraph, correct = _loss_and_correct(cfg, params, batch, slots, len(vocab))
    T.backward(loss)
    ref_loss, ref_pgraph, ref_correct = reference_loss_and_correct(
        cfg, params, batch, slots, len(vocab))
    T.backward(ref_loss)
    assert loss.data.tobytes() == ref_loss.data.tobytes()
    assert correct == ref_correct
    grads, ref_grads = pgraph.grads(), ref_pgraph.grads()
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert g.tobytes() == ref_grads[name].tobytes(), name


def test_overfit_fixed_instances():
    """Capacity sanity: 32 fixed parity instances reach 100% train accuracy."""
    cfg = ModelConfig(arch="rnn", vocab_size=len(PARITY_VOCAB), d_model=16, seed=0)
    params = init_params(cfg)
    tc = parity_tc(lr=5e-3, model=cfg)
    opt = _Optimizer(tc, params)
    instances = [generate_with_length(TaskId.PARITY_CHECK, s, 5 + s % 4)
                 for s in range(32)]
    batch, slots = encode_batch(instances, PARITY_VOCAB)
    for step_i in range(5000):
        loss, pgraph, correct = _loss_and_correct(cfg, params, batch, slots,
                                                  len(PARITY_VOCAB))
        if all(correct):
            break
        T.backward(loss)
        opt.update(params, pgraph.grads())
    assert all(correct), f"stuck at {sum(correct)}/32 after {step_i} steps"


def test_divergence_raises_with_last_finite_step():
    tc = parity_tc(optimizer="sgd", lr=1e10, grad_clip=None, max_steps=50,
                   model=ModelConfig(arch="rnn", vocab_size=len(PARITY_VOCAB),
                                     d_model=8, nonlin="relu"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError) as exc_info:
            train(tc)
    # the structured error is the only report: no stray numpy overflow warning
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert exc_info.value.last_finite_step >= 1
    assert exc_info.value.step > exc_info.value.last_finite_step


def test_overflow_in_closing_evaluate_is_divergence():
    # the update after a finite step overflows the parameters, so the first
    # graph to see them is the evaluate that closes the step; best_of_seeds
    # must count that seed as diverged and go on to the next one
    tc = parity_tc(optimizer="sgd", lr=1e6, grad_clip=None, eval_every=1,
                   n_seeds=2,
                   model=ModelConfig(arch="rnn", vocab_size=len(PARITY_VOCAB),
                                     d_model=8, nonlin="relu"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrainerError, match="all 2 seed runs diverged"):
            best_of_seeds(tc)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_overflow_in_loss_raises_before_train_reads_the_loss(monkeypatch):
    # train calls _loss_and_correct inside its own scope and then reads the
    # loss value; the loss's own faulty node must already have raised
    logits = T.constant(np.array([[1e308, -1e308]]))
    monkeypatch.setattr(trainer, "_read_slots", lambda *args: ({0: logits}, None, [True]))
    start = T.constant(0.0).id
    with T.graph_scope():
        with pytest.raises(T.GraphOverflowError) as exc_info:
            _loss_and_correct(None, None, np.zeros((1, 1), dtype=int), [([0], [1])], 2)
    # nodes: the max constant c (start + 1), then x - c (start + 2)
    assert (exc_info.value.op_kind, exc_info.value.node_id) == ("sub", start + 2)


def test_all_seeds_diverged_message_names_each_step():
    # the steps where a finite check per node found each seed's overflow
    tc = parity_tc(optimizer="sgd", lr=1e6, grad_clip=None, eval_every=1,
                   n_seeds=2,
                   model=ModelConfig(arch="rnn", vocab_size=len(PARITY_VOCAB),
                                     d_model=8, nonlin="relu"))
    with pytest.raises(TrainerError) as exc_info:
        best_of_seeds(tc)
    assert str(exc_info.value) == (
        "all 2 seed runs diverged: "
        "seed 0: loss became non-finite at step 3 (last finite step 3), "
        "seed 1: loss became non-finite at step 4 (last finite step 4)")


# -- evaluation -------------------------------------------------------------

def oracle_predictor(task):
    vocab = task_vocab(task)

    def predict(input_ids, n_slots):
        sep = input_ids.index(SEP_ID)
        toks = [vocab.id_to_token[i] for i in input_ids[:sep]]
        return [vocab.encode_token(t) for t in oracle(task, toks)]
    return predict


@pytest.mark.parametrize("task", [TaskId.PARITY_CHECK, TaskId.SORTING,
                                  TaskId.STACK_MANIPULATION])
def test_oracle_as_model_scores_100(task):
    assert evaluate_predictor(oracle_predictor(task), task, (5, 12), 50) == 100.0


def test_uniform_random_parity_near_half():
    rng = np.random.default_rng(0)
    ids = [PARITY_VOCAB.encode_token("True"), PARITY_VOCAB.encode_token("False")]

    def predict(input_ids, n_slots):
        return [int(rng.choice(ids))]
    acc = evaluate_predictor(predict, TaskId.PARITY_CHECK, (10, 20), 1000)
    assert 45.0 <= acc <= 55.0          # ±~3 binomial sigma around 50


def test_constant_class_cycle_near_20():
    const = [task_vocab(TaskId.CYCLE_NAVIGATION).encode_token("3")]
    acc = evaluate_predictor(lambda i, n: const, TaskId.CYCLE_NAVIGATION,
                             (10, 20), 1000)
    assert 14.0 <= acc <= 26.0          # 5 balanced classes -> ~20


def test_evaluate_checks_vocab():
    cfg = ModelConfig(arch="rnn", vocab_size=3)
    with pytest.raises(TrainerError):
        evaluate(cfg, init_params(cfg), TaskId.PARITY_CHECK, (5, 10), 4)


def test_eval_lengths_stay_in_range():
    for inst in eval_instances(TaskId.PARITY_CHECK, (21, 40), 200, seed=3):
        assert 21 <= inst.n <= 40
        assert len(inst.input_tokens) == inst.n


# -- best-of-seeds ----------------------------------------------------------

def test_best_of_one_equals_train():
    tc = parity_tc(n_seeds=1)
    assert best_of_seeds(tc).history == train(tc).history


def test_best_of_seeds_argmax_and_tie_break(monkeypatch):
    accs = {0: 50.0, 1: 80.0, 2: 80.0}

    def fake_train(tc, log=None):
        return trainer.TrainResult(tc, {}, accs[tc.seed], 1, [])
    monkeypatch.setattr(trainer, "train", fake_train)
    best = best_of_seeds(parity_tc(n_seeds=3))
    assert best.best_test_acc == 80.0
    assert best.config.seed == 1        # tie with seed 2 goes to the lower seed


def test_best_of_seeds_all_diverged(monkeypatch):
    def fake_train(tc, log=None):
        raise DivergenceError(3, 2, [])
    monkeypatch.setattr(trainer, "train", fake_train)
    with pytest.raises(TrainerError, match="diverged"):
        best_of_seeds(parity_tc(n_seeds=2))


def test_best_of_seeds_skips_diverged_runs(monkeypatch):
    def fake_train(tc, log=None):
        if tc.seed == 0:
            raise DivergenceError(3, 2, [])
        return trainer.TrainResult(tc, {}, 70.0, 1, [])
    monkeypatch.setattr(trainer, "train", fake_train)
    assert best_of_seeds(parity_tc(n_seeds=2)).config.seed == 1


# -- config files -----------------------------------------------------------

CONFIG_YAML = """\
task: parity-check
optimizer: adam
lr: 0.002
batch-size: 16
max-steps: 500
train-lengths: [1, 20]
test-lengths: [21, 40]
n-seeds: 3
model:
  arch: rnn
  d-model: 32
  n-layers: 1
"""


def test_load_train_config(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(CONFIG_YAML)
    tc = load_train_config(path)
    assert tc.task is TaskId.PARITY_CHECK
    assert tc.lr == 0.002 and tc.batch_size == 16
    assert tc.train_lengths == (1, 20) and tc.test_lengths == (21, 40)
    assert tc.model.arch == "rnn" and tc.model.d_model == 32
    assert tc.model.vocab_size == len(PARITY_VOCAB)   # derived from the task


def test_load_train_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(CONFIG_YAML + "warmup-steps: 5\n")
    with pytest.raises(TrainerError, match="warmup-steps"):
        load_train_config(path)


# one non-default value per settable field: TrainConfig's except ``model``,
# ModelConfig's except ``seed`` (the run seed sets that)
EVERY_TRAIN_FIELD = dict(
    task="cycle-navigation", optimizer="sgd", lr=0.01, beta1=0.8, beta2=0.99,
    adam_eps=1e-7, batch_size=5, max_steps=7, train_lengths=[2, 3], test_lengths=[4, 6],
    n_seeds=2, patience=3, eval_every=4, n_eval=9, seed=11, stop_at_test_acc=90.5,
    grad_clip=None)
EVERY_MODEL_FIELD = dict(
    arch="feedback-transformer", vocab_size=len(task_vocab(TaskId.CYCLE_NAVIGATION)),
    d_model=8, n_layers=2, n_heads=2, block_size=3, feedback_window=5,
    max_halting_steps=4, feature_map="relu", nonlin="relu", d_ff=12, scale_scores=False,
    use_residual=False, use_positional=False, tape_extra_cells=2)


def _kebab(values: dict) -> dict:
    return {k.replace("_", "-"): v for k, v in values.items()}


def test_every_config_field_settable_from_yaml(tmp_path):
    assert set(EVERY_TRAIN_FIELD) == {f.name for f in fields(TrainConfig)} - {"model"}
    assert set(EVERY_MODEL_FIELD) == {f.name for f in fields(ModelConfig)} - {"seed"}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({**_kebab(EVERY_TRAIN_FIELD),
                                    "model": _kebab(EVERY_MODEL_FIELD)}))
    tc = load_train_config(path)
    for name, value in EVERY_TRAIN_FIELD.items():
        want = {"task": TaskId.CYCLE_NAVIGATION}.get(name, value)
        assert getattr(tc, name) == (tuple(want) if isinstance(want, list) else want), name
    for name, value in EVERY_MODEL_FIELD.items():
        assert getattr(tc.model, name) == value, name


@pytest.mark.parametrize("text", ["lr: 1e-3", "lr: 1.0e-3", "lr: '1e-3'", "lr: 0.001"])
def test_load_train_config_reads_float_notations(tmp_path, text):
    # PyYAML reads an exponent without a dot (1e-3) as a string
    path = tmp_path / "cfg.yaml"
    path.write_text(CONFIG_YAML.replace("lr: 0.002", text))
    assert load_train_config(path).lr == 0.001


@pytest.mark.parametrize("old, new", [
    ("n-seeds: 3", "n-seeds: 3\nwarmup-steps: 5"),
    ("  arch: rnn", "  arch: rnn\n  seed: 3"),
    ("  d-model: 32", "  d_model: 32"),
], ids=["top-level", "model-seed", "model-snake-case"])
def test_load_train_config_rejects_unknown_keys_in_each_section(tmp_path, old, new):
    path = tmp_path / "cfg.yaml"
    path.write_text(CONFIG_YAML.replace(old, new))
    key = new.split("\n")[-1].split(":")[0].strip()
    with pytest.raises(TrainerError, match=f"unknown .*'{key}'"):
        load_train_config(path)


@pytest.mark.parametrize("old, new", [
    ("batch-size: 16", "batch-size: '16'"),
    ("batch-size: 16", "batch-size: 16.0"),
    ("batch-size: 16", "batch-size: true"),
    ("lr: 0.002", "lr: fast"),
    ("lr: 0.002", "lr: null"),
    ("train-lengths: [1, 20]", "train-lengths: [1]"),
    ("train-lengths: [1, 20]", "train-lengths: [1, 2.5]"),
    ("train-lengths: [1, 20]", "train-lengths: 5"),
    ("task: parity-check", "task: 5"),
    ("optimizer: adam", "optimizer: null"),
    ("d-model: 32", "d-model: '32'"),
    ("n-layers: 1", "n-layers: [1]"),
    ("  arch: rnn", "  arch: rnn\n  use-residual: 1"),
    ("  arch: rnn", "  arch: rnn\n  feedback-window: '4'"),
])
def test_load_train_config_rejects_wrongly_typed_values(tmp_path, old, new):
    path = tmp_path / "cfg.yaml"
    assert old in CONFIG_YAML
    path.write_text(CONFIG_YAML.replace(old, new))
    key = new.split("\n")[-1].split(":")[0].strip()
    with pytest.raises(TrainerError, match=f"key '{key}' takes"):
        load_train_config(path)


def test_load_train_config_rejects_a_model_that_is_no_mapping(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(CONFIG_YAML.split("model:")[0] + "model: 5\n")
    with pytest.raises(TrainerError, match="model must be a mapping"):
        load_train_config(path)


def test_metrics_jsonl_round_trip():
    import json
    m = Metrics(10, 0.25, 75.0, 50.0, 1)
    assert json.loads(m.to_json()) == {"step": 10, "train_loss": 0.25,
                                       "train_acc": 75.0, "test_acc": 50.0,
                                       "seed": 1}
