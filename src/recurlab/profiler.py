"""Empirical depth/time complexity measurement over realized forward graphs.

Counting rule: every non-input graph node is one operation, regardless of
tensor size (a matmul of any shape counts 1).  ``depth`` is the length of the
longest dependency chain from any input/parameter leaf to a logit node;
``total_ops`` is the number of distinct operation nodes reachable from the
logits.  Both are measured on the graph an architecture actually builds, so
the numbers reflect the implementation, not an idealized formula.  A fused
node counts as the elementary ops it replaces, in total ops, depth and
flops: a ``layer_norm`` node is 13 ops, on a chain 13 long from its input.

Per-scalar FLOPs are reported as a secondary metric (``flops``): the counting
rule above deliberately ignores tensor width, so FLOPs are the place to see
the cost that width does add.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from . import models
from .tensor import Value, graph_scope, topo_nodes

_LEAF_KINDS = frozenset({"input", "parameter"})
# a fused node's op kind -> (the elementary ops it replaces, the longest
# chain of them from each parent to its output)
_FUSED = {"layer_norm": (13, (13, 2, 1))}


class ProfilerError(Exception):
    pass


@dataclass(frozen=True)
class DepthProfile:
    total_ops: int
    depth: int
    n: int
    arch: str
    flops: int = 0

    def __post_init__(self):
        if self.total_ops and not 1 <= self.depth <= self.total_ops:
            raise ProfilerError(
                f"invalid profile: depth {self.depth}, total_ops {self.total_ops}")


@dataclass(frozen=True)
class ComplexityFit:
    class_label: str          # constant | linear | linear_over_k | quadratic
    slope: float              # leading coefficient: of n, ceil(n/k) or n²
    intercept: float
    r_squared: float

    def __post_init__(self):
        if not -1e-12 <= self.r_squared <= 1.0 + 1e-12:
            raise ProfilerError(f"r_squared {self.r_squared} outside [0, 1]")


def _node_flops(v: Value) -> int:
    """Rough per-scalar cost of one node; elementwise ops count one flop per
    output scalar, a sum one per input scalar, matmul the classic 2·m·n·k."""
    size = v.data.size
    if v.op_kind == "layer_norm":
        # sum, sub, square, sum, * inv_std, * gain and + bias take one flop
        # per element of x; the 6 ops on the row statistics take 12 per row
        x = v.parents[0].data
        return 7 * x.size + 12 * (x.size // x.shape[-1])
    if v.op_kind == "sum":
        return v.parents[0].data.size
    if v.op_kind == "matmul":
        inner = v.parents[0].shape[-1]
        return 2 * size * int(inner)
    if v.op_kind in ("softmax", "exp", "log") or v.op_kind.startswith("nonlinearity("):
        return 4 * size
    if v.op_kind in ("concat", "reshape", "slice"):
        return 0
    return size


def graph_profile(sinks: list, n: int, arch: str) -> DepthProfile:
    """Measure the union graph reachable from ``sinks`` (typically all logit
    nodes of one forward pass)."""
    sinks = [s for s in sinks if isinstance(s, Value)]
    if not sinks:
        raise ProfilerError("no sink nodes to profile")
    # topo_nodes orders by id, and ids are globally monotonic, so parents
    # always precede children
    depth: dict[int, int] = {}
    total_ops = 0
    flops = 0
    max_depth = 0
    for v in topo_nodes(*sinks):
        if v.op_kind in _LEAF_KINDS:
            depth[v.id] = 0
            continue
        fused = _FUSED.get(v.op_kind)
        if fused is None:
            d = 1 + max((depth[p.id] for p in v.parents), default=0)
            total_ops += 1
        else:
            ops, chains = fused
            d = max(depth[p.id] + c for p, c in zip(v.parents, chains))
            total_ops += ops
        depth[v.id] = d
        flops += _node_flops(v)
        max_depth = max(max_depth, d)
    return DepthProfile(total_ops=total_ops, depth=max_depth, n=n, arch=arch, flops=flops)


@graph_scope()
def profile(config, params, token_ids) -> DepthProfile:
    """Build one parallel-mode forward graph for ``token_ids`` and measure it
    end to end (input embedding to final logits)."""
    token_ids = np.asarray(token_ids)
    result = models.model_forward(config, params, token_ids)
    return graph_profile(result.logits, n=int(token_ids.shape[1]), arch=config.arch)


def _least_squares(xs: np.ndarray, ys: np.ndarray, degree: int = 1) -> tuple:
    """(leading coefficient, constant term, r²) of a polynomial fit."""
    coef = np.polyfit(xs, ys, degree)
    pred = np.polyval(coef, xs)
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return float(coef[0]), float(coef[-1]), r2


def fit_complexity(samples, k: int | None = None) -> ComplexityFit:
    """Classify (n, y) samples as constant, linear, linear in n/k, or
    quadratic.

    ``constant`` means the fitted slope is within 1e-9 of zero (which for
    integer depths means the values are exactly flat).  With ``k`` given, the
    samples are refit against ceil(n/k); if that fit reaches r-squared above
    0.999 the label is ``linear_over_k``.  ``quadratic`` needs a fit of
    [n², n, 1] with r-squared above 0.999 and a positive n² coefficient, and
    slopes per token that rise strictly from each sample to the next.
    """
    pairs = sorted(set((int(n), float(y)) for n, y in samples))
    if len({n for n, _ in pairs}) < 4:
        raise ProfilerError("need at least 4 distinct n values to fit")
    xs = np.array([n for n, _ in pairs], dtype=np.float64)
    ys = np.array([y for _, y in pairs], dtype=np.float64)
    slope, intercept, r2 = _least_squares(xs, ys)
    if abs(slope) <= 1e-9:
        return ComplexityFit("constant", slope, intercept, r2)
    if k is not None and k > 1:
        xk = np.ceil(xs / k)
        slope_k, intercept_k, r2_k = _least_squares(xk, ys)
        if r2_k > 0.999 and r2_k >= r2 - 1e-9:
            return ComplexityFit("linear_over_k", slope_k, intercept_k, r2_k)
    a, c, r2_q = _least_squares(xs, ys, degree=2)
    # slopes per token are undefined where n repeats
    rising = len(set(xs)) == len(xs) and np.all(np.diff(np.diff(ys) / np.diff(xs)) > 0)
    if r2_q > 0.999 and a > 0 and rising:
        return ComplexityFit("quadratic", a, c, r2_q)
    return ComplexityFit("linear", slope, intercept, r2)


def profile_table(configs, n_grid, seed: int = 0) -> list:
    """Profile each config across ``n_grid`` and fit depth/time growth.

    Returns one row dict per config: the per-n profiles plus depth and
    total_ops fits — a machine-readable analogue of a depth/time complexity
    table.  Universal-transformer depth scales with its iteration budget, so
    the budget is tied to n here: max_halting_steps = min(n, max_halting_steps).
    """
    rows = []
    rng = np.random.default_rng(seed)
    for cfg in configs:
        params = models.init_params(cfg)
        profiles = []
        for n in n_grid:
            toks = rng.integers(0, cfg.vocab_size, size=(1, int(n)))
            budget = replace(cfg, max_halting_steps=min(int(n), cfg.max_halting_steps))
            profiles.append(profile(budget, params, toks))
        k = cfg.block_size if cfg.arch == "block-recurrent-transformer" else None
        depth_fit = fit_complexity([(p.n, p.depth) for p in profiles], k=k)
        ops_fit = fit_complexity([(p.n, p.total_ops) for p in profiles], k=k)
        rows.append({"arch": cfg.arch, "profiles": profiles,
                     "depth_fit": depth_fit, "ops_fit": ops_fit})
    return rows


def table_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["arch", "n", "total_ops", "depth", "flops"])
    for row in rows:
        for p in row["profiles"]:
            writer.writerow([row["arch"], p.n, p.total_ops, p.depth, p.flops])
    return buf.getvalue()


def table_to_markdown(rows) -> str:
    lines = ["| arch | depth class | depth slope | depth r² | time class | time slope |",
             "|---|---|---|---|---|---|"]
    for row in rows:
        df, of = row["depth_fit"], row["ops_fit"]
        lines.append(f"| {row['arch']} | {df.class_label} | {df.slope:.4g} "
                     f"| {df.r_squared:.6f} | {of.class_label} | {of.slope:.4g} |")
    return "\n".join(lines) + "\n"
