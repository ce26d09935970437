"""Acceptance suite: the eight gate criteria at their stated tolerances.

Each test prints one PASS line (visible with -s or in failure output) so the
gate can be audited from the log.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from recurlab import tensor as T
from recurlab import llm_eval as LE
from recurlab.models import (STEP_CAPABLE, ModelConfig, ParamGraph, init_params,
                             init_state, model_forward, step)
from recurlab.profiler import fit_complexity, profile
from recurlab.tasks import TaskId, generate, oracle, task_vocab
from recurlab.trainer import TrainConfig, best_of_seeds

from bruteforce import brute_force

VOCABS = {t: task_vocab(t) for t in TaskId}


# -- 1. RI-equivalence ------------------------------------------------------

@pytest.mark.parametrize("arch", ["rwkv", "linear-transformer"])
def test_criterion_1_ri_equivalence(arch):
    """Recurrent-state decoding vs parallel evaluation within 1e-8 max-abs,
    d=16 m=2 heads=2, n <= 64, 100 seeds; runtime < 1 min."""
    start = time.time()
    worst = 0.0
    for seed in range(100):
        cfg = ModelConfig(arch=arch, vocab_size=11, d_model=16, n_layers=2,
                          n_heads=2, seed=seed)
        params = init_params(cfg)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 65))
        toks = rng.integers(0, 11, size=(1, n))
        par = model_forward(cfg, params, toks, mode="parallel").logits
        rec = model_forward(cfg, params, toks, mode="recurrent").logits
        gap = max(float(np.abs(a.data - b.data).max()) for a, b in zip(par, rec))
        worst = max(worst, gap)
        assert gap < 1e-8, f"{arch} seed {seed} n {n}: {gap:.3e}"
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"PASS criterion 1 [{arch}]: 100 seeds, max gap {worst:.2e}, "
          f"{elapsed:.1f}s")


# -- 2. KV-cache equivalence ------------------------------------------------

def test_criterion_2_kv_cache_equivalence():
    """Cached step decoding == batch forward within 1e-9, n <= 64, 100 seeds."""
    worst = 0.0
    for seed in range(100):
        cfg = ModelConfig(arch="transformer", vocab_size=11, d_model=16,
                          n_layers=2, n_heads=2, seed=seed)
        params = init_params(cfg)
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 65))
        toks = rng.integers(0, 11, size=(1, n))
        par = model_forward(cfg, params, toks, mode="parallel").logits
        rec = model_forward(cfg, params, toks, mode="recurrent").logits
        gap = max(float(np.abs(a.data - b.data).max()) for a, b in zip(par, rec))
        worst = max(worst, gap)
        assert gap < 1e-9, f"seed {seed} n {n}: {gap:.3e}"
    print(f"PASS criterion 2: 100 seeds, max gap {worst:.2e}")


# -- 3. gradient suite ------------------------------------------------------

ALL_ARCHS = ("mlp", "rnn", "lstm", "stack-rnn", "tape-rnn", "transformer",
             "recurrent-transformer", "feedback-transformer",
             "block-recurrent-transformer", "universal-transformer", "rwkv",
             "linear-transformer")


@pytest.mark.parametrize("arch", ALL_ARCHS)
def test_criterion_3_gradients(arch):
    """Central differences, eps 1e-5, max_rel_err < 1e-4 at tiny dims."""
    cfg = ModelConfig(arch=arch, vocab_size=7, d_model=4, n_layers=1,
                      n_heads=1, block_size=2, seed=0)
    params = init_params(cfg)
    rng = np.random.default_rng(42)
    toks = rng.integers(0, 7, size=(1, 4))

    def loss_fn():
        res = model_forward(cfg, params, toks)
        total = None
        for lg in res.logits:
            term = (lg.softmax().log() * T.constant(np.ones(lg.shape))).sum()
            total = term if total is None else total + term
        return total, res

    loss, res = loss_fn()
    T.backward(loss)
    grads = res.pgraph.grads()
    eps, worst = 1e-5, 0.0
    for name, g in grads.items():
        for fi in rng.choice(g.size, size=min(5, g.size), replace=False):
            idx = np.unravel_index(fi, g.shape)
            orig = params[name][idx]
            params[name][idx] = orig + eps
            up, _ = loss_fn()
            params[name][idx] = orig - eps
            dn, _ = loss_fn()
            params[name][idx] = orig
            numeric = (float(up.data) - float(dn.data)) / (2 * eps)
            analytic = float(g[idx])
            rel = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            worst = max(worst, rel)
    assert worst < 1e-4, f"{arch}: max rel err {worst:.3e}"
    print(f"PASS criterion 3 [{arch}]: max rel err {worst:.2e}")


# -- 4. oracle suite --------------------------------------------------------

def test_criterion_4_oracles_vs_brute_force():
    """10,000 instances per task, 100% agreement with the independent
    re-implementations, plus the printed worked examples."""
    for task in TaskId:
        for i in range(10_000):
            inst = generate(task, i)
            assert list(inst.target_tokens) == list(brute_force(task, inst.input_tokens)), \
                f"{task.key} seed {i}: {inst.input_tokens}"
        print(f"PASS criterion 4 [{task.key}]: 10000 instances agree")

    examples = [
        (TaskId.MOD_ARITH_SIMPLE, "1 + 3 - 2", ["2"]),
        (TaskId.MOD_ARITH_COMPLEX, "( ( 3 + 4 ) - 1 ) * ( 2 + ( 1 - 2 ) )", ["1"]),
        (TaskId.STACK_MANIPULATION,
         "grape banana | push peach pop peach push peach",
         ["grape", "banana", "peach"]),
        (TaskId.ODDS_FIRST, "apple grape banana peach",
         ["apple", "banana", "grape", "peach"]),
        (TaskId.PARITY_CHECK, "apple banana banana apple", ["True"]),
    ]
    for task, text, want in examples:
        got = oracle(task, text.split())
        assert got == want, f"{task.key}: {text!r} -> {got}, want {want}"
        print(f"PASS criterion 4 [example]: {task.key} {text!r} -> {got}")


# -- 5. complexity profile --------------------------------------------------

def test_criterion_5_complexity_profile():
    start = time.time()
    ns = [4, 8, 16, 32]
    rng = np.random.default_rng(0)

    def depths(cfg, ns, T_of_n=None):
        params = init_params(cfg)
        out = []
        for n in ns:
            toks = rng.integers(0, cfg.vocab_size, size=(1, n))
            budget = cfg if T_of_n is None else replace(cfg, max_halting_steps=T_of_n(n))
            out.append((n, profile(budget, params, toks).depth))
        return out

    tr = depths(ModelConfig(arch="transformer", vocab_size=8, d_model=8), ns)
    fit = fit_complexity(tr)
    assert fit.class_label == "constant" and len({d for _, d in tr}) == 1
    print(f"PASS criterion 5: transformer depth constant = {tr[0][1]}")

    rnn = fit_complexity(depths(ModelConfig(arch="rnn", vocab_size=8, d_model=8), ns))
    assert rnn.class_label == "linear" and rnn.r_squared > 0.999
    print(f"PASS criterion 5: rnn depth linear, slope {rnn.slope:.2f}, "
          f"r2 {rnn.r_squared:.6f}")

    blk = fit_complexity(
        depths(ModelConfig(arch="block-recurrent-transformer", vocab_size=8,
                           d_model=8, block_size=4), [4, 6, 8, 12, 16, 24]), k=4)
    assert blk.class_label == "linear_over_k" and blk.r_squared > 0.999
    print(f"PASS criterion 5: block-recurrent depth linear in ceil(n/4)")

    uni = fit_complexity(
        depths(ModelConfig(arch="universal-transformer", vocab_size=8, d_model=8,
                           max_halting_steps=32), ns, T_of_n=lambda n: n))
    assert uni.class_label == "linear" and uni.r_squared > 0.999
    print(f"PASS criterion 5: universal depth linear in T=n")
    assert time.time() - start < 60.0


# -- 6. desk-scale training -------------------------------------------------

def test_criterion_6_desk_scale_training():
    """Three statements, 3 seeds best-of each; the criterion passes when at
    least 2 of 3 hold (stochastic-training allowance)."""
    parity_v = len(VOCABS[TaskId.PARITY_CHECK])
    sorting_v = len(VOCABS[TaskId.SORTING])
    runs = [
        ("rnn parity >= 90",
         TrainConfig(task=TaskId.PARITY_CHECK,
                     model=ModelConfig(arch="rnn", vocab_size=parity_v, d_model=32),
                     lr=3e-3, batch_size=32, max_steps=3000, eval_every=200,
                     n_eval=100, train_lengths=(1, 20), test_lengths=(21, 40),
                     n_seeds=3, stop_at_test_acc=95.0),
         lambda acc: acc >= 90.0),
        ("transformer parity <= 75",
         TrainConfig(task=TaskId.PARITY_CHECK,
                     model=ModelConfig(arch="transformer", vocab_size=parity_v,
                                       d_model=16, n_layers=1, n_heads=1),
                     lr=1e-3, batch_size=16, max_steps=600, eval_every=200,
                     n_eval=100, train_lengths=(1, 20), test_lengths=(21, 40),
                     n_seeds=3),
         lambda acc: acc <= 75.0),
        ("lstm sorting >= 80",
         TrainConfig(task=TaskId.SORTING,
                     model=ModelConfig(arch="lstm", vocab_size=sorting_v, d_model=64),
                     lr=3e-3, batch_size=32, max_steps=4000, eval_every=250,
                     n_eval=100, train_lengths=(2, 10), test_lengths=(11, 14),
                     n_seeds=3, stop_at_test_acc=90.0),
         lambda acc: acc >= 80.0),
    ]
    passed = 0
    for label, tc, check in runs:
        start = time.time()
        result = best_of_seeds(tc)
        ok = check(result.best_test_acc)
        passed += ok
        status = "PASS" if ok else "FAIL"
        print(f"{status} criterion 6 [{label}]: best acc "
              f"{result.best_test_acc:.1f} (seed {result.config.seed}, "
              f"step {result.best_step}, {time.time() - start:.0f}s)")
        if not ok:
            for m in result.history:
                print(f"  triage: step {m.step} loss {m.train_loss:.4f} "
                      f"train {m.train_acc:.1f} test {m.test_acc:.1f}")
    assert passed >= 2, f"only {passed}/3 training statements held"
    print(f"PASS criterion 6: {passed}/3 statements held")


# -- 7. LLM protocol offline ------------------------------------------------

def test_criterion_7_llm_protocol_offline(tmp_path):
    task = TaskId.PARITY_CHECK
    n = 50
    instances = LE.protocol_instances(task, n)

    # every direct prompt carries the verbatim forbidding clause
    for inst in instances:
        assert LE.DIRECT_CLAUSE in LE.build_prompt(inst, "direct").user_text
    print("PASS criterion 7: verbatim direct-mode clause present in 50 prompts")

    # replay fixture: exactly 23 instances get one correct trial -> 46.0
    fixture = tmp_path / "fixture.jsonl"
    with open(fixture, "w") as fh:
        for idx, inst in enumerate(instances):
            prompt = LE.build_prompt(inst, "direct")
            for trial in (1, 2, 3):
                good = idx < 23 and trial == 2
                answer = " ".join(inst.target_tokens) if good else "no idea"
                fh.write(json.dumps({"key": LE.prompt_key(prompt, trial),
                                     "completion": f"ANSWER: {answer}"}) + "\n")

    cfg = LE.EndpointConfig(model="replay")
    transport = LE.replay_transport(fixture)
    log_path = tmp_path / "transcripts.jsonl"
    with open(log_path, "w") as log:
        report = LE.run_protocol(task, cfg, "direct", n_instances=n,
                                 transport=transport, persist=log)
    assert report.accuracy == 46.0
    print(f"PASS criterion 7: best-of-3 grid scores exactly {report.accuracy}")

    targets = {i: inst.target_tokens for i, inst in enumerate(instances)}
    rescored = LE.rescore_file(task, log_path, targets)
    assert rescored == report
    again = LE.rescore_file(task, log_path, targets)
    assert again == rescored
    print("PASS criterion 7: re-scoring persisted transcripts is bit-stable")


# -- 8. prefix-state property -----------------------------------------------

@pytest.mark.parametrize("arch", sorted(STEP_CAPABLE))
def test_criterion_8_prefix_state_resume(arch):
    """50 random (n, j) splits; suffix logits after resuming from the stored
    state are bit-identical to the uninterrupted run."""
    cfg = ModelConfig(arch=arch, vocab_size=9, d_model=8, n_layers=1,
                      n_heads=1, seed=0)
    params = init_params(cfg)
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        j = int(rng.integers(1, n))
        toks = rng.integers(0, 9, size=(1, n))

        pg = ParamGraph(params)
        state = init_state(cfg, 1, length=n)
        straight = []
        for t in range(n):
            out, state = step(cfg, pg, state, toks[:, t])
            straight.append(out.data)

        pg2 = ParamGraph(params)
        state = init_state(cfg, 1, length=n)
        for t in range(j):
            out, state = step(cfg, pg2, state, toks[:, t])
        for t in range(j, n):
            out, state = step(cfg, pg2, state, toks[:, t])
            np.testing.assert_array_equal(straight[t], out.data)
    print(f"PASS criterion 8 [{arch}]: 50 (n, j) splits bit-identical")
