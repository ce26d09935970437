"""recurlab command line: gen / profile / train / eval / llm / report.

Exit codes: 0 success, 2 validation error, 3 runtime or numeric error,
4 network error.  Errors print one structured JSON line on stderr
({"error": <kind>, "message": ...}) so scripts can parse failures.

All randomness flows from a single --seed; submodules receive derived seeds
(documented per subcommand: instance i uses seed*1000+i, seed runs use
seed+offset).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import yaml

from . import llm_eval, profiler, tasks, trainer
from .llm_eval import (AuthError, EndpointConfig, EndpointTimeout, LLMEvalError,
                       MalformedResponse, TransientFailure)
from .models import ARCHS, ModelConfig, ModelError, load_checkpoint, save_checkpoint
from .profiler import ProfilerError
from .tasks import LEVEL_ORDER, TaskError, TaskId
from .tensor import GraphOverflowError, ShapeError
from .trainer import DivergenceError, TrainerError

_VALIDATION = (TaskError, ModelError, ProfilerError, TrainerError, ShapeError,
               ValueError, KeyError, FileNotFoundError, yaml.YAMLError)
_RUNTIME = (DivergenceError, GraphOverflowError, ArithmeticError)
_NETWORK = (AuthError, EndpointTimeout, TransientFailure, MalformedResponse)


def _fail(kind: str, exc: BaseException, code: int):
    click.echo(json.dumps({"error": kind, "message": str(exc)}), err=True)
    sys.exit(code)


def _positive_ints(option: str, text: str, form: str, count: int | None = None) -> list:
    """The comma-separated positive ints of ``option`` (blank items skipped),
    ``count`` of them if given; a ``ValueError`` naming ``option`` and
    ``form`` otherwise."""
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values or min(values) < 1 or (count is not None and len(values) != count):
        raise ValueError(f"{option} takes {form}, got {text!r}")
    return values


def _guard(fn):
    import functools

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _NETWORK as exc:
            _fail("network", exc, 4)
        except _RUNTIME as exc:
            _fail("runtime", exc, 3)
        except LLMEvalError as exc:
            _fail("validation", exc, 2)
        except _VALIDATION as exc:
            _fail("validation", exc, 2)
    return wrapped


@click.group()
@click.option("--seed", default=0, show_default=True,
              help="Root seed; instance i derives seed*1000+i, "
                   "seed run j derives seed+j.")
@click.pass_context
def main(ctx, seed):
    """Desk-scale lab for recurrence vs autoregression experiments."""
    ctx.ensure_object(dict)
    ctx.obj["seed"] = seed


@main.command()
@click.argument("task")
@click.option("--count", default=50, show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=Path("."),
              show_default=True, help="Output directory.")
@click.pass_context
@_guard
def gen(ctx, task, count, out):
    """Write COUNT instances of TASK (or 'all') as JSONL, one file per task."""
    if count < 1:
        raise TaskError(f"--count must be >= 1, got {count}")
    seed = ctx.obj["seed"]
    chosen = list(TaskId) if task == "all" else [TaskId.from_key(task)]
    out.mkdir(parents=True, exist_ok=True)
    for t in chosen:
        path = out / f"{t.key}.jsonl"
        with open(path, "w") as fh:
            for i in range(count):
                fh.write(tasks.to_json_line(tasks.generate(t, seed * 1000 + i)) + "\n")
        click.echo(f"wrote {count} instances to {path}")


@main.command()
@click.argument("archs")
@click.option("--n", "n_grid", default="4,8,16,32", show_default=True,
              help="Comma-separated input lengths (need >= 4 for the fit).")
@click.option("--d-model", default=16, show_default=True)
@click.option("--n-layers", default=1, show_default=True)
@click.option("--k", "block_size", default=4, show_default=True,
              help="Block size for block-recurrent-transformer.")
@click.option("--vocab-size", default=8, show_default=True)
@click.option("--csv", "csv_path", type=click.Path(path_type=Path), default=None,
              help="Also write raw CSV rows here.")
@click.pass_context
@_guard
def profile(ctx, archs, n_grid, d_model, n_layers, block_size, vocab_size, csv_path):
    """Depth/time profile for comma-separated ARCHS over an n grid."""
    names = [a.strip() for a in archs.split(",") if a.strip()]
    if not names:
        raise ProfilerError(f"ARCHS names no architecture, got {archs!r}")
    for a in names:
        if a not in ARCHS:
            raise ProfilerError(f"unknown arch {a!r} (choose from {', '.join(ARCHS)})")
    ns = _positive_ints("--n", n_grid, "comma-separated positive ints such as 4,8,16,32")
    if len(set(ns)) < 4:
        raise ProfilerError("need at least 4 distinct n values to fit")
    cfgs = [ModelConfig(arch=a, vocab_size=vocab_size, d_model=d_model,
                        n_layers=n_layers, block_size=block_size) for a in names]
    rows = profiler.profile_table(cfgs, ns, seed=ctx.obj["seed"])
    click.echo(profiler.table_to_markdown(rows), nl=False)
    if csv_path is not None:
        csv_path.write_text(profiler.table_to_csv(rows))
        click.echo(f"csv written to {csv_path}")


@main.command()
@click.argument("config", type=click.Path(exists=True, path_type=Path))
@click.option("--out", type=click.Path(path_type=Path), default=Path("runs"),
              show_default=True, help="Directory for metrics/checkpoint/cell.")
@click.pass_context
@_guard
def train(ctx, config, out):
    """Train from a YAML CONFIG (kebab-case keys; see README), best-of-seeds."""
    # a top-level seed in the file wins; otherwise --seed applies
    tc = trainer.load_train_config(config, seed=ctx.obj["seed"])
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / f"metrics-{tc.task.key}-{tc.model.arch}.jsonl"
    with open(metrics_path, "w") as fh:
        result = trainer.best_of_seeds(tc, log=lambda m: fh.write(m.to_json() + "\n"))
    ckpt = out / f"{tc.task.key}-{tc.model.arch}.npz"
    save_checkpoint(ckpt, result.config.model,
                    result.best_params,
                    extra={"task": tc.task.key, "best_step": result.best_step,
                           "best_test_acc": result.best_test_acc,
                           "seed": result.config.seed})
    cell = {"task": tc.task.key, "column": tc.model.arch,
            "accuracy": result.best_test_acc}
    (out / f"cell-{tc.task.key}-{tc.model.arch}.json").write_text(json.dumps(cell))
    click.echo(f"best seed {result.config.seed}: test accuracy "
               f"{result.best_test_acc:.1f} at step {result.best_step}; "
               f"checkpoint {ckpt}")


@main.command("eval")
@click.argument("checkpoint", type=click.Path(exists=True, path_type=Path))
@click.option("--task", required=True)
@click.option("--lengths", default="21,40", show_default=True)
@click.option("--count", default=100, show_default=True)
@click.pass_context
@_guard
def eval_cmd(ctx, checkpoint, task, lengths, count):
    """Exact-match accuracy of a CHECKPOINT on fresh instances."""
    t = TaskId.from_key(task)
    form = "two comma-separated positive ints LO,HI"
    lo, hi = _positive_ints("--lengths", lengths, form, count=2)
    cfg, params, _extra = load_checkpoint(checkpoint)
    acc = trainer.evaluate(cfg, params, t, (lo, hi), count, seed=ctx.obj["seed"])
    click.echo(f"{t.key} accuracy over {count} instances (n in [{lo},{hi}]): {acc:.1f}")


@main.command()
@click.option("--task", required=True)
@click.option("--mode", type=click.Choice(["cot", "direct"]), required=True)
@click.option("--count", default=50, show_default=True)
@click.option("--fixture", type=click.Path(exists=True, path_type=Path),
              default=None, help="Replay fixture (offline; no network).")
@click.option("--url", default="", help="Chat-completions endpoint URL.")
@click.option("--model", default="replay", show_default=True)
@click.option("--temperature", type=float, default=None)
@click.option("--out", type=click.Path(path_type=Path), default=Path("llm-runs"),
              show_default=True)
@click.pass_context
@_guard
def llm(ctx, task, mode, count, fixture, url, model, temperature, out):
    """Run the CoT/direct protocol (3 trials, best-of-3 over COUNT instances)."""
    t = TaskId.from_key(task)
    cfg = EndpointConfig(url=url, model=model, temperature=temperature)
    if fixture is not None:
        transport = llm_eval.replay_transport(fixture)
    elif url:
        transport = None  # live HTTP
    else:
        raise LLMEvalError("either --fixture or --url is required")
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / f"transcripts-{t.key}-{mode}.jsonl"
    with open(log_path, "w") as log:
        report = llm_eval.run_protocol(t, cfg, mode, n_instances=count,
                                       seed=ctx.obj["seed"], transport=transport,
                                       persist=log)
    cell = {"task": t.key, "column": f"llm-{mode}", "accuracy": report.accuracy}
    (out / f"cell-{t.key}-llm-{mode}.json").write_text(json.dumps(cell))
    click.echo(llm_eval.report_to_markdown([report]), nl=False)
    click.echo(f"transcripts: {log_path}")


@main.command()
@click.argument("dirs", nargs=-1, type=click.Path(exists=True, path_type=Path))
@click.option("--csv", "csv_path", type=click.Path(path_type=Path), default=None)
@click.pass_context
@_guard
def report(ctx, dirs, csv_path):
    """Merge cell-*.json files from DIRS into one accuracy table.

    Rows follow the task layout (levels R, CF, CS); columns are sorted names;
    missing cells render as an em dash; the same (task, column) cell from two
    sources with different values is an error.
    """
    cells: dict[tuple, float] = {}
    sources: dict[tuple, Path] = {}
    for d in dirs:
        for path in sorted(Path(d).rglob("cell-*.json")):
            rec = json.loads(path.read_text())
            key = (rec["task"], rec["column"])
            if key in cells and cells[key] != rec["accuracy"]:
                raise TrainerError(
                    f"conflicting cell {key}: {cells[key]} from {sources[key]} "
                    f"vs {rec['accuracy']} from {path}")
            cells[key] = rec["accuracy"]
            sources[key] = path
    columns = sorted({c for _, c in cells})
    lines = ["| level | task | " + " | ".join(columns) + " |",
             "|---" * (2 + len(columns)) + "|"]
    csv_lines = ["level,task," + ",".join(columns)]
    for t in LEVEL_ORDER:
        vals = [cells.get((t.key, c)) for c in columns]
        lines.append(f"| {t.level.value} | {t.key} | "
                     + " | ".join("—" if v is None else f"{v:.1f}" for v in vals)
                     + " |")
        csv_lines.append(f"{t.level.value},{t.key},"
                         + ",".join("" if v is None else f"{v:.1f}" for v in vals))
    click.echo("\n".join(lines))
    if csv_path is not None:
        csv_path.write_text("\n".join(csv_lines) + "\n")
        click.echo(f"csv written to {csv_path}")


if __name__ == "__main__":
    main()
