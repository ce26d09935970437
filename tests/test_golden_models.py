"""Golden-digest gate: every logits array and every parameter gradient of a
fixed loss, for all architectures in both modes, must stay byte-identical.

``tests/golden_models.json`` holds sha256 digests of the float64 bytes (and
shapes) of those arrays.  The test only reads it; a refactor that changes any
output bit fails here with the keys that differ.  Digests depend on numpy's
float arithmetic, so the file records the numpy version that wrote it.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from recurlab import tensor as T
from recurlab.models import (ARCHS, STEP_CAPABLE, ModelConfig, ParamGraph, init_params,
                             init_state, model_forward, step)

GOLDEN = Path(__file__).with_name("golden_models.json")
VOCAB = 9
CONFIGS = {"d8-l2-h2": dict(d_model=8, n_layers=2, n_heads=2),
           "d16-l1-h1": dict(d_model=16, n_layers=1, n_heads=1)}
POSITIONS = {"all": None, "6,2": [6, 2]}


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


def test_golden_digests_unchanged():
    golden = json.loads(GOLDEN.read_text())
    got = golden_digests()
    want = golden["digests"]
    differ = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not differ, (f"{len(differ)} of {len(want)} digests differ (golden written with "
                        f"numpy {golden['numpy']}, running {np.__version__}): {differ}")
