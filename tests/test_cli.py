"""CLI wiring: subcommands, determinism, exit codes, structured errors."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from click.testing import CliRunner

from recurlab.cli import main
from recurlab.llm_eval import EndpointConfig, build_prompt, prompt_key, protocol_instances
from recurlab.models import ModelConfig, init_params, save_checkpoint
from recurlab.tasks import TaskId, from_json_line, task_vocab


@pytest.fixture
def runner():
    return CliRunner()


# -- gen --------------------------------------------------------------------

def test_gen_deterministic(runner, tmp_path):
    args = ["--seed", "1", "gen", "parity-check", "--count", "5",
            "--out", str(tmp_path)]
    assert runner.invoke(main, args).exit_code == 0
    first = (tmp_path / "parity-check.jsonl").read_text()
    assert runner.invoke(main, args).exit_code == 0
    assert (tmp_path / "parity-check.jsonl").read_text() == first
    assert len(first.splitlines()) == 5


def test_gen_all_writes_ten_files(runner, tmp_path):
    result = runner.invoke(main, ["gen", "all", "--count", "2",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0
    assert len(list(tmp_path.glob("*.jsonl"))) == 10


def test_gen_reverse_list_lengths(runner, tmp_path):
    result = runner.invoke(main, ["gen", "reverse-list", "--count", "20",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0
    for line in (tmp_path / "reverse-list.jsonl").read_text().splitlines():
        inst = from_json_line(line)
        assert 30 <= inst.n <= 40


def test_gen_unknown_task_exit_2(runner, tmp_path):
    result = runner.invoke(main, ["gen", "fizzbuzz", "--out", str(tmp_path)])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"] == "validation"


# -- profile ----------------------------------------------------------------

def test_profile_transformer_constant_depth(runner, tmp_path):
    csv_path = tmp_path / "prof.csv"
    result = runner.invoke(main, ["profile", "transformer,rnn",
                                  "--n", "4,8,16,32", "--csv", str(csv_path)])
    assert result.exit_code == 0
    line = next(ln for ln in result.output.splitlines() if "| transformer |" in ln)
    assert "| constant |" in line
    line = next(ln for ln in result.output.splitlines() if "| rnn |" in ln)
    assert "| linear |" in line
    depths = {row.split(",")[3] for row in csv_path.read_text().splitlines()[1:]
              if row.startswith("transformer,")}
    assert len(depths) == 1


def test_profile_block_recurrent_linear_over_k(runner):
    result = runner.invoke(main, ["profile", "block-recurrent-transformer",
                                  "--n", "4,6,8,12,16", "--k", "4"])
    assert result.exit_code == 0
    assert "linear_over_k" in result.output


def test_profile_single_n_exit_2(runner):
    result = runner.invoke(main, ["profile", "rnn", "--n", "8"])
    assert result.exit_code == 2
    assert "at least 4" in json.loads(result.stderr.strip())["message"]


def test_profile_unknown_arch_exit_2(runner):
    result = runner.invoke(main, ["profile", "perceptron", "--n", "4,8,16,32"])
    assert result.exit_code == 2


# -- train / eval -----------------------------------------------------------

TRAIN_YAML = """\
task: parity-check
lr: 0.005
batch-size: 8
max-steps: 60
eval-every: 30
n-eval: 10
n-seeds: 1
seed: 0
train-lengths: [1, 10]
test-lengths: [11, 15]
model:
  arch: rnn
  d-model: 8
"""


def test_train_then_eval_round_trip(runner, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(TRAIN_YAML)
    out = tmp_path / "run"
    result = runner.invoke(main, ["train", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    ckpt = out / "parity-check-rnn.npz"
    assert ckpt.exists()
    metrics = (out / "metrics-parity-check-rnn.jsonl").read_text().splitlines()
    assert len(metrics) == 2 and json.loads(metrics[0])["step"] == 30
    cell = json.loads((out / "cell-parity-check-rnn.json").read_text())
    assert cell["task"] == "parity-check" and cell["column"] == "rnn"

    result = runner.invoke(main, ["eval", str(ckpt), "--task", "parity-check",
                                  "--lengths", "5,10", "--count", "20"])
    assert result.exit_code == 0
    assert "accuracy" in result.output


def test_train_honours_seed_flag_without_seed_key(runner, tmp_path):
    # the config keeps "n-seeds", whose name contains "seed"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(TRAIN_YAML.replace("seed: 0\n", ""))
    result = runner.invoke(main, ["--seed", "7", "train", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert "best seed 7" in result.output


def test_eval_checkpoint_with_unknown_config_key_exit_2(runner, tmp_path):
    cfg = ModelConfig(arch="rnn", vocab_size=len(task_vocab(TaskId.PARITY_CHECK)), d_model=4)
    meta = {"version": 1, "config": {**asdict(cfg), "mystery_knob": 1}, "extra": {}}
    ckpt = tmp_path / "model.npz"
    np.savez(ckpt, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **init_params(cfg))
    result = runner.invoke(main, ["eval", str(ckpt), "--task", "parity-check",
                                  "--lengths", "2,3", "--count", "2"])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"] == "validation" and "mystery_knob" in err["message"]


def test_train_bad_config_exit_2(runner, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(TRAIN_YAML + "mystery-knob: 1\n")
    result = runner.invoke(main, ["train", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_train_reads_lr_exponent_without_dot(runner, tmp_path):
    # PyYAML reads 1e-3 (no dot) as a string; the README writes lr that way
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(TRAIN_YAML.replace("lr: 0.005", "lr: 1e-3").replace("max-steps: 60",
                                                                       "max-steps: 30"))
    result = runner.invoke(main, ["train", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert "best seed 0" in result.output


@pytest.mark.parametrize("text, fragment", [
    (TRAIN_YAML.split("model:")[0] + "model: 5\n", "model must be a mapping"),
    (TRAIN_YAML.replace("batch-size: 8", 'batch-size: "8"'), "'batch-size' takes int"),
    (TRAIN_YAML + "lr: [\n", "line"),
    (TRAIN_YAML.replace("arch: rnn", "arch: feedback-transformer")
     + "  feedback-window: 0\n", "feedback_window must be >= 1"),
    (TRAIN_YAML + "  n-heads: 0\n", "n_heads must be >= 1"),
    (TRAIN_YAML + "  n-layers: 0\n", "n_layers must be >= 1"),
    (TRAIN_YAML + "  nonlin: swish\n", "nonlin must be one of"),
    (TRAIN_YAML + "  feature-map: relu2\n", "feature_map must be one of"),
    (TRAIN_YAML.replace("batch-size: 8", "batch-size: 0"), "batch_size must be >= 1"),
    (TRAIN_YAML.replace("max-steps: 60", "max-steps: 0"), "max_steps must be >= 1"),
    (TRAIN_YAML.replace("eval-every: 30", "eval-every: 0"), "eval_every must be >= 1"),
    (TRAIN_YAML.replace("n-eval: 10", "n-eval: 0"), "n_eval must be >= 1"),
    (TRAIN_YAML.replace("n-seeds: 1", "n-seeds: 0"), "n_seeds must be >= 1"),
    (TRAIN_YAML.replace("lr: 0.005", "lr: 0.005\ngrad-clip: -1.0"), "grad_clip must be > 0"),
    (TRAIN_YAML.replace("lr: 0.005", "lr: 0.005\ngrad-clip: 0.0"), "grad_clip must be > 0"),
], ids=["model-not-a-mapping", "string-batch-size", "unparsable-yaml",
        "feedback-window-0", "n-heads-0", "n-layers-0", "unknown-nonlin",
        "unknown-feature-map", "batch-size-0", "max-steps-0", "eval-every-0", "n-eval-0",
        "n-seeds-0", "grad-clip-negative", "grad-clip-0"])
def test_train_malformed_config_exit_2_one_json_line(runner, tmp_path, text, fragment):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    result = runner.invoke(main, ["train", str(cfg), "--out", str(tmp_path)])
    lines = result.stderr.strip().splitlines()
    assert result.exit_code == 2 and len(lines) == 1, result.output
    err = json.loads(lines[0])
    assert err["error"] == "validation" and fragment in err["message"]


# -- llm --------------------------------------------------------------------

def _write_fixture(path, task, count, mode, seed=0):
    with open(path, "w") as fh:
        for idx, inst in enumerate(protocol_instances(task, count, seed=seed)):
            prompt = build_prompt(inst, mode)
            for trial in (1, 2, 3):
                answer = (", ".join(inst.target_tokens) if idx % 2 == 0
                          else "no idea")
                fh.write(json.dumps({"key": prompt_key(prompt, trial),
                                     "completion": f"ANSWER: {answer}"}) + "\n")


def test_llm_offline_replay(runner, tmp_path):
    fixture = tmp_path / "fix.jsonl"
    _write_fixture(fixture, TaskId.SORTING, 6, "direct")
    out = tmp_path / "llm"
    result = runner.invoke(main, ["llm", "--task", "sorting", "--mode", "direct",
                                  "--count", "6", "--fixture", str(fixture),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "| sorting | direct | 6 | 50.0 |" in result.output
    assert (out / "transcripts-sorting-direct.jsonl").exists()
    cell = json.loads((out / "cell-sorting-llm-direct.json").read_text())
    assert cell == {"task": "sorting", "column": "llm-direct", "accuracy": 50.0}


def test_llm_missing_fixture_and_url_exit_2(runner):
    result = runner.invoke(main, ["llm", "--task", "sorting", "--mode", "cot"])
    assert result.exit_code == 2


def test_llm_connection_error_retried_then_exit_4(runner, tmp_path, monkeypatch):
    import requests
    attempts = []

    def refuse(*args, **kwargs):
        attempts.append(args)
        raise requests.ConnectionError("connection refused")
    monkeypatch.setattr(requests, "post", refuse)
    monkeypatch.setenv(EndpointConfig().api_key_env, "test-key")
    result = runner.invoke(main, ["llm", "--task", "parity-check", "--mode", "direct",
                                  "--count", "1", "--url", "http://localhost:9/v1",
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 4
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"] == "network" and "connection refused" in err["message"]
    assert len(attempts) == EndpointConfig().max_retries


def test_llm_incomplete_fixture_is_validation_error(runner, tmp_path):
    fixture = tmp_path / "fix.jsonl"
    fixture.write_text("")
    result = runner.invoke(main, ["llm", "--task", "sorting", "--mode", "direct",
                                  "--count", "2", "--fixture", str(fixture),
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 2


# -- report -----------------------------------------------------------------

def _cell(path, task, column, acc):
    path.write_text(json.dumps({"task": task, "column": column, "accuracy": acc}))


def test_report_merges_and_dashes_missing(runner, tmp_path):
    d = tmp_path / "cells"
    d.mkdir()
    _cell(d / "cell-parity-check-rnn.json", "parity-check", "rnn", 100.0)
    _cell(d / "cell-sorting-llm-cot.json", "sorting", "llm-cot", 46.0)
    csv_path = tmp_path / "rep.csv"
    result = runner.invoke(main, ["report", str(d), "--csv", str(csv_path)])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    parity = next(ln for ln in lines if "parity-check" in ln)
    assert "| R | parity-check |" in parity and "100.0" in parity and "—" in parity
    # row order follows levels R, CF, CS
    order = [ln.split("|")[2].strip() for ln in lines[2:12]]
    assert order[0] == "mod-arith-simple" and order[-1] == "sorting"
    csv_rows = csv_path.read_text().splitlines()
    assert csv_rows[0] == "level,task,llm-cot,rnn"
    assert runner.invoke(main, ["report", str(d)]).output == result.output.replace(
        f"csv written to {csv_path}\n", "")


def test_report_conflicting_cells_exit_2(runner, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    _cell(d1 / "cell-sorting-lstm.json", "sorting", "lstm", 90.0)
    _cell(d2 / "cell-sorting-lstm.json", "sorting", "lstm", 80.0)
    result = runner.invoke(main, ["report", str(d1), str(d2)])
    assert result.exit_code == 2
    msg = json.loads(result.stderr.strip())["message"]
    assert "conflicting" in msg and "a" in msg and "b" in msg


def test_report_on_a_regular_file_exits_2_naming_it(runner, tmp_path):
    """A regular file used to exit 0 with an empty table: rglob finds no
    cell under it."""
    path = tmp_path / "cell-sorting-lstm.json"
    path.write_text(_cell_text())
    result = runner.invoke(main, ["report", str(path)])
    assert result.exit_code == 2, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "validation" and str(path) in err["message"]


def _cell_text(task="sorting", column="lstm", accuracy=90.0):
    return json.dumps({"task": task, "column": column, "accuracy": accuracy})


@pytest.mark.parametrize("text, names", [('{"task": "sorting", "accuracy": 1.0}', "'column'"),
                                         ("not json", "not a JSON object"),
                                         ("[1]", "not a JSON object"),
                                         (_cell_text(task="no-such-task"),
                                          "names no task: 'no-such-task'"),
                                         (_cell_text(task=["sorting"]),
                                          "names no task: ['sorting']"),
                                         (_cell_text(column=3), "not a string: 3"),
                                         (_cell_text(column=["x"]), "not a string: ['x']"),
                                         (_cell_text(accuracy="90"), "accuracy '90'"),
                                         (_cell_text(accuracy=True), "accuracy True"),
                                         (_cell_text(accuracy=100.5), "accuracy 100.5"),
                                         (_cell_text(accuracy=-1), "accuracy -1"),
                                         (_cell_text(accuracy=float("nan")), "accuracy nan")],
                         ids=["missing-key", "not-json", "not-an-object", "unknown-task",
                              "task-not-a-string", "column-an-int", "column-a-list",
                              "accuracy-a-string", "accuracy-a-bool", "accuracy-over-100",
                              "accuracy-negative", "accuracy-nan"])
def test_report_malformed_cell_exit_2_naming_file(runner, tmp_path, text, names):
    """A malformed cell file used to exit 2 with a bare ``'column'`` or JSON
    decoder message that named no file; a JSON list raised a traceback.  A
    cell of an unknown task was dropped with exit 0, a string accuracy exited
    2 naming no file, and a column that is not a string raised a traceback."""
    path = tmp_path / "cell-sorting-lstm.json"
    path.write_text(text)
    result = runner.invoke(main, ["report", str(tmp_path)])
    assert result.exit_code == 2
    msg = json.loads(result.stderr.strip())["message"]
    assert str(path) in msg and names in msg


def test_help_lists_subcommands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for sub in ("gen", "profile", "train", "eval", "llm", "report"):
        assert sub in result.output


# -- counts and lengths ------------------------------------------------------

@pytest.mark.parametrize("args", [
    "gen parity-check --count -1 --out {tmp}",
    "eval {tmp}/model.npz --task parity-check --count 0",
    "eval {tmp}/model.npz --task parity-check --count -3",
    "eval {tmp}/model.npz --task parity-check --lengths 0,3",
    "llm --task sorting --mode direct --count 0 --fixture {tmp}/fix.jsonl --out {tmp}",
    "llm --task sorting --mode direct --count -2 --fixture {tmp}/fix.jsonl --out {tmp}",
], ids=["gen-count-neg", "eval-count-0", "eval-count-neg", "eval-lengths-0",
        "llm-count-0", "llm-count-neg"])
def test_meaningless_count_or_length_exit_2_one_json_line(runner, tmp_path, args):
    cfg = ModelConfig(arch="rnn", vocab_size=len(task_vocab(TaskId.PARITY_CHECK)), d_model=4)
    save_checkpoint(tmp_path / "model.npz", cfg, init_params(cfg))
    (tmp_path / "fix.jsonl").write_text("")
    result = runner.invoke(main, args.format(tmp=tmp_path).split())
    assert result.exit_code == 2, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "validation"


# -- file errors --------------------------------------------------------------

def _bad_files(tmp):
    """What the file-error cases read, under ``tmp``: a regular file, an
    empty checkpoint, one cut in half, an empty fixture and a train config."""
    cfg = ModelConfig(arch="rnn", vocab_size=len(task_vocab(TaskId.PARITY_CHECK)), d_model=4)
    save_checkpoint(tmp / "model.npz", cfg, init_params(cfg))
    whole = (tmp / "model.npz").read_bytes()
    (tmp / "half.npz").write_bytes(whole[:len(whole) // 2])
    (tmp / "empty.npz").write_bytes(b"")
    (tmp / "file").write_text("not a directory\n")
    (tmp / "fix.jsonl").write_text("")
    (tmp / "train.yaml").write_text("task: parity-check\nmodel: {arch: rnn, d-model: 4}\n"
                                    "max-steps: 1\nn-seeds: 1\n")


@pytest.mark.parametrize("args", [
    "gen parity-check --count 1 --out {tmp}/file",
    "train {tmp}/train.yaml --out {tmp}/file",
    "llm --task sorting --mode direct --count 1 --fixture {tmp}/fix.jsonl --out {tmp}/file",
    "profile rnn --n 4,8,16,32 --csv {tmp}",
    "eval {tmp}/empty.npz --task parity-check --lengths 1,2",
    "eval {tmp}/half.npz --task parity-check --lengths 1,2",
], ids=["gen-out-file", "train-out-file", "llm-out-file", "profile-csv-dir",
        "eval-empty-checkpoint", "eval-truncated-checkpoint"])
def test_file_errors_exit_2_one_json_line(runner, tmp_path, args):
    _bad_files(tmp_path)
    result = runner.invoke(main, args.format(tmp=tmp_path).split())
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "validation"


@pytest.mark.parametrize("args, option", [
    ("eval {tmp}/model.npz --task parity-check --lengths 5", "--lengths"),
    ("eval {tmp}/model.npz --task parity-check --lengths 5,6,7", "--lengths"),
    ("eval {tmp}/model.npz --task parity-check --lengths a,b", "--lengths"),
    ("profile rnn --n 4,8,x,16", "--n"),
    ("profile rnn --n 0,4,8,16", "--n"),
    ("profile rnn --n -4,4,8,16", "--n"),
    ("profile ,", "ARCHS"),
], ids=["eval-lengths-one", "eval-lengths-three", "eval-lengths-letters",
        "profile-n-letter", "profile-n-0", "profile-n-neg", "profile-no-arch"])
def test_malformed_int_list_or_archs_exit_2_naming_option(runner, tmp_path, args, option):
    cfg = ModelConfig(arch="rnn", vocab_size=len(task_vocab(TaskId.PARITY_CHECK)), d_model=4)
    save_checkpoint(tmp_path / "model.npz", cfg, init_params(cfg))
    result = runner.invoke(main, args.format(tmp=tmp_path).split())
    assert result.exit_code == 2, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "validation" and option in err["message"]
