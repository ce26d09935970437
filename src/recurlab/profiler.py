"""Empirical depth/time complexity measurement over realized forward graphs.

Counting rule: every non-leaf graph node is one operation, regardless of
tensor size (a matmul of any shape counts 1), and a fused node is the
elementary ops it replaces.  Each node's ``tensor.Op`` gives its count, chain
lengths and flops (a fused kind's read off the node), so this module names no
op kind.  ``depth`` is the length of the longest dependency chain from any
input/parameter leaf to a logit node; ``total_ops`` is the number of
operations reachable from the logits.  A stack whose rows stand for chains
of different lengths, such as a recurrent scan's read-outs, holds one depth
per row, carried through the kinds that keep rows apart and placed by the
kinds that mix or pick them, in the same one walk.
Both are measured on the graph an architecture actually builds, so the
numbers reflect the implementation, not an idealized formula.

Per-scalar FLOPs are a secondary metric (``flops``): the counting rule
deliberately ignores tensor width, so FLOPs are the place to see the cost
that width does add.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from . import models
from .tensor import Value, graph_scope, topo_nodes


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


def graph_profile(sinks: list, n: int, arch: str) -> DepthProfile:
    """Measure the union graph reachable from ``sinks`` (typically all logit
    nodes of one forward pass)."""
    sinks = [s for s in sinks if isinstance(s, Value)]
    if not sinks:
        raise ProfilerError("no sink nodes to profile")
    # topo_nodes orders by id, and ids are globally monotonic, so parents
    # always precede children
    depth: dict[int, int] = {}
    rows: dict[int, np.ndarray] = {}     # one depth per row, where a stack's rows differ
    total_ops = flops = 0
    for v in topo_nodes(*sinks):
        op = v.op
        if op.rows is not None or rows and any(p.id in rows for p in v.parents):
            _row_depths(v, [rows.get(p.id, depth[p.id]) for p in v.parents], depth, rows)
            total_ops += op.ops(v)
        elif op.chains is None:       # a leaf or an elementary op
            if not op.ops:
                depth[v.id] = 0
                continue
            depth[v.id] = 1 + max(depth[p.id] for p in v.parents)
            total_ops += op.ops
        else:
            depth[v.id] = max(depth[p.id] + c for p, c in zip(v.parents, _chains(v)))
            total_ops += op.ops(v)
        flops += op.flops(v)
    return DepthProfile(total_ops, max(depth[s.id] for s in sinks), n, arch, flops)


def _chains(v: Value) -> tuple:
    """The chain lengths of a fused node, one per parent."""
    chains = v.op.chains(v)
    if len(chains) != len(v.parents):
        raise ProfilerError(f"{v.op.name} node {v.id} has {len(v.parents)} parents "
                            f"but {len(chains)} chain lengths")
    return chains


def _row_depths(v: Value, depths: list, depth: dict, rows: dict) -> None:
    """Set the depth of ``v``, whose parents' ``depths`` include one per row
    of a stack or whose kind places rows itself: its own kind's ``rows``,
    or, for a row-wise kind, each row's parents' rows plus the chains.  A
    stack whose rows' depths are all one keeps a single depth."""
    op = v.op
    if op.rows is not None:
        d = op.rows(v, depths)
    elif op.rowwise:
        chains = _chains(v)
        if any(np.ndim(x) and len(x) != v.shape[0] for x in depths):
            raise ProfilerError(f"{op.name} node {v.id} of {v.shape[0]} rows has a parent "
                                f"with another number of row depths")
        d = np.max(np.broadcast_arrays(*(x + c for x, c in zip(depths, chains))), axis=0)
    else:
        raise ProfilerError(f"{op.name} node {v.id} has a parent with one depth per row, "
                            f"but its kind neither keeps rows apart nor places them")
    if np.ndim(d):
        if d.min() != d.max():
            rows[v.id] = d
        d = d.max()
    depth[v.id] = int(d)


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
    integer depths means the values are exactly flat); its slope is then 0
    and its intercept the mean, not the fit's rounding residue.  With ``k``
    given, the samples are refit against ceil(n/k); if that fit reaches
    r-squared above 0.999 the label is ``linear_over_k``.  ``quadratic``
    needs a fit of [n², n, 1] with r-squared above 0.999 and a positive n²
    coefficient, and slopes per token that rise strictly from each sample to
    the next.
    """
    pairs = sorted(set((int(n), float(y)) for n, y in samples))
    if len({n for n, _ in pairs}) < 4:
        raise ProfilerError("need at least 4 distinct n values to fit")
    xs = np.array([n for n, _ in pairs], dtype=np.float64)
    ys = np.array([y for _, y in pairs], dtype=np.float64)
    slope, intercept, r2 = _least_squares(xs, ys)
    if abs(slope) <= 1e-9:
        return ComplexityFit("constant", 0.0, float(np.mean(ys)), r2)
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
