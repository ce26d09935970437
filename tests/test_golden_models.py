"""Golden-digest gate: every logits array and every parameter gradient of a
fixed loss, for all architectures in both modes, must stay byte-identical, and
so must every architecture's profile table.

``tests/golden_models.json`` holds sha256 digests of the float64 bytes (and
shapes) of those arrays under ``digests``, and of ``table_to_csv`` of each
architecture's ``profile_table`` (d16, n = 4/8/16/32, 1 layer and 1 head or 2
layers and 2 heads) under ``profiles``.  The tests only read it; a refactor
that changes any output bit or any profile number (total_ops, depth, flops)
fails here with the keys that differ.  Digests depend on numpy's float
arithmetic, so the file records the numpy version that wrote it.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from recurlab import tensor as T
from recurlab.profiler import profile_table, table_to_csv
from recurlab.models import (ARCHS, STEP_CAPABLE, ModelConfig, ParamGraph, init_params,
                             init_state, model_forward, step)

GOLDEN = Path(__file__).with_name("golden_models.json")
VOCAB = 9
CONFIGS = {"d8-l2-h2": dict(d_model=8, n_layers=2, n_heads=2),
           "d16-l1-h1": dict(d_model=16, n_layers=1, n_heads=1)}
POSITIONS = {"all": None, "6,2": [6, 2]}
PROFILE_LAYERS = (1, 2)          # n_layers == n_heads
PROFILE_GRID = (4, 8, 16, 32)


def _cfg(arch, shape):
    return ModelConfig(arch=arch, vocab_size=VOCAB, block_size=3, feedback_window=4,
                       seed=3, **CONFIGS[shape])


def _tokens():
    return np.random.default_rng(7).integers(0, VOCAB, size=(2, 7))


def _digest(named_arrays) -> str:
    h = hashlib.sha256()
    for name, a in named_arrays:
        h.update(f"{name}:{a.shape};".encode())
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def golden_digests() -> dict:
    digests = {}
    toks = _tokens()
    for arch in ARCHS:
        for shape in CONFIGS:
            cfg = _cfg(arch, shape)
            params = init_params(cfg)
            for mode in ("parallel", "recurrent"):
                for pos_name, positions in POSITIONS.items():
                    res = model_forward(cfg, params, toks, mode=mode, positions=positions)
                    loss = T.vsum(T.concat([lg.softmax().log().sum(axis=-1)
                                            for lg in res.logits], axis=0))
                    T.backward(loss)
                    key = f"{arch}/{shape}/{mode}/{pos_name}"
                    digests[key + "/logits"] = _digest(
                        (str(i), lg.data) for i, lg in enumerate(res.logits))
                    grads = res.pgraph.grads()
                    digests[key + "/grads"] = _digest((n, grads[n]) for n in sorted(grads))
    for arch in sorted(STEP_CAPABLE):
        cfg = _cfg(arch, "d8-l2-h2")
        pg = ParamGraph(init_params(cfg))
        state = init_state(cfg, toks.shape[0], length=toks.shape[1])
        outs = []
        for t in range(toks.shape[1]):
            out, state = step(cfg, pg, state, toks[:, t])
            outs.append((str(t), out.data))
        digests[f"{arch}/step"] = _digest(outs)
    return digests


def profile_digests() -> dict:
    digests = {}
    for arch in ARCHS:
        for n in PROFILE_LAYERS:
            cfg = ModelConfig(arch=arch, vocab_size=8, d_model=16, n_layers=n, n_heads=n)
            csv = table_to_csv(profile_table([cfg], PROFILE_GRID))
            digests[f"{arch}/d16-l{n}-h{n}/profile"] = hashlib.sha256(csv.encode()).hexdigest()
    return digests


def _assert_unchanged(section: str, got: dict):
    golden = json.loads(GOLDEN.read_text())
    want = golden[section]
    differ = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not differ, (f"{len(differ)} of {len(want)} {section} digests differ (golden "
                        f"written with numpy {golden['numpy']}, running {np.__version__}): "
                        f"{differ}")


def test_golden_digests_unchanged():
    _assert_unchanged("digests", golden_digests())


def test_profile_table_digests_unchanged():
    _assert_unchanged("profiles", profile_digests())
