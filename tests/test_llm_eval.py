"""Prompting, transport fault handling, answer parsing, best-of-3 scoring."""

import json

import pytest

from recurlab import llm_eval as LE
from recurlab.llm_eval import (ANSWER_TAG, DIRECT_CLAUSE, AuthError,
                               EndpointConfig, LLMEvalError, Transcript,
                               TransientFailure, build_prompt,
                               extract_answer, http_transport, prompt_key,
                               protocol_instances, query_endpoint,
                               replay_transport, rescore_file, run_protocol,
                               score)
from recurlab.tasks import TaskId, generate


# -- prompts ----------------------------------------------------------------

def test_direct_prompt_contains_verbatim_clause():
    inst = generate(TaskId.PARITY_CHECK, 0)
    p = build_prompt(inst, "direct")
    assert DIRECT_CLAUSE in p.user_text
    assert " ".join(inst.input_tokens) in p.user_text
    assert ANSWER_TAG in p.system_text


def test_cot_prompt_asks_for_steps_not_forbidding():
    inst = generate(TaskId.REVERSE_LIST, 0)
    p = build_prompt(inst, "cot")
    assert "step by step" in p.user_text
    assert DIRECT_CLAUSE not in p.user_text


def test_modes_share_payload_differ_only_in_instruction():
    inst = generate(TaskId.SORTING, 3)
    direct = build_prompt(inst, "direct").user_text
    cot = build_prompt(inst, "cot").user_text
    # identical up to the instruction block (last paragraph)
    assert direct.rsplit("\n\n", 1)[0] == cot.rsplit("\n\n", 1)[0]
    assert direct != cot


def test_prompt_deterministic():
    inst = generate(TaskId.ADDITION, 9)
    assert build_prompt(inst, "cot") == build_prompt(inst, "cot")


def test_unknown_mode_rejected():
    with pytest.raises(LLMEvalError):
        build_prompt(generate(TaskId.SORTING, 0), "tot")


# -- answer extraction ------------------------------------------------------

def make_transcript(completion, task=TaskId.PARITY_CHECK, trial=1, idx=0):
    return Transcript(instance_index=idx, trial=trial, mode="direct",
                      task_key=task.key, system_text="s", user_text="u",
                      completion=completion, model="m", temperature=None,
                      timestamp=0.0)


def test_extract_answer_boolean():
    tr = extract_answer(make_transcript("Reasoning...\nANSWER: True"),
                        TaskId.PARITY_CHECK)
    assert tr.parsed_answer == ["True"] and tr.parse_status == "ok"


def test_extract_answer_fruit_list():
    tr = extract_answer(make_transcript("ANSWER: [peach, banana]"),
                        TaskId.REVERSE_LIST)
    assert tr.parsed_answer == ["peach", "banana"]


def test_extract_answer_number_canonicalized():
    tr = extract_answer(make_transcript("ANSWER: 007"), TaskId.ADDITION)
    assert tr.parsed_answer == ["7"] and tr.parse_status == "ok"


def test_extract_answer_cycle_state():
    tr = extract_answer(make_transcript("ANSWER: position 4"),
                        TaskId.CYCLE_NAVIGATION)
    assert tr.parsed_answer == ["4"]


@pytest.mark.parametrize("task", [TaskId.MOD_ARITH_SIMPLE, TaskId.MOD_ARITH_COMPLEX,
                                  TaskId.ADDITION, TaskId.MULTIPLICATION],
                         ids=lambda t: t.key)
def test_extract_answer_takes_ascii_digits_only(task):
    """``int()`` and ``str.isdigit()`` also take superscript and Arabic-Indic
    digits: ``ANSWER: 12²`` raised ValueError for addition and multiplication,
    and ``ANSWER: ٣`` parsed as 3 for all four tasks."""
    for answer in ("3²", "12²", "٣", "٣٤"):
        tr = extract_answer(make_transcript(f"ANSWER: {answer}", task), task)
        assert (tr.parsed_answer, tr.parse_status) == (None, "failed"), answer


def test_extract_answer_takes_a_number_past_the_int_digit_limit():
    """A number of more than 4300 digits raised ValueError from ``int()``."""
    task = TaskId.MULTIPLICATION
    tr = extract_answer(make_transcript("ANSWER: 00" + "12" * 2500, task), task)
    assert tr.parsed_answer == list("12" * 2500) and tr.parse_status == "ok"


def test_extract_uses_last_answer_line():
    tr = extract_answer(make_transcript("ANSWER: False\nno wait\nANSWER: True"),
                        TaskId.PARITY_CHECK)
    assert tr.parsed_answer == ["True"]


def test_lenient_fallback_is_flagged():
    tr = extract_answer(make_transcript("The parity is even so:\nTrue"),
                        TaskId.PARITY_CHECK)
    assert tr.parsed_answer == ["True"] and tr.parse_status == "lenient"


def test_unparseable_is_data_not_error():
    tr = extract_answer(make_transcript("I cannot solve this."),
                        TaskId.SORTING)
    assert tr.parsed_answer is None and tr.parse_status == "failed"


def test_trial_index_validated():
    with pytest.raises(LLMEvalError):
        make_transcript("x", trial=4)


# -- scoring ----------------------------------------------------------------

def synthetic_transcripts(task, outcome_grid, target=("True",)):
    """outcome_grid: per instance, a (bool, bool, bool) of trial correctness."""
    transcripts, targets = [], {}
    for idx, outcomes in enumerate(outcome_grid):
        targets[idx] = tuple(target)
        for trial, ok in enumerate(outcomes, start=1):
            tr = make_transcript("", task=task, trial=trial, idx=idx)
            tr.parsed_answer = list(target) if ok else ["False"]
            tr.parse_status = "ok"
            transcripts.append(tr)
    return transcripts, targets


def test_all_correct_scores_100():
    trs, targets = synthetic_transcripts(TaskId.PARITY_CHECK, [(True,) * 3] * 10)
    assert score(TaskId.PARITY_CHECK, trs, targets).accuracy == 100.0


def test_single_correct_trial_counts():
    trs, targets = synthetic_transcripts(TaskId.PARITY_CHECK,
                                         [(False, False, True)])
    report = score(TaskId.PARITY_CHECK, trs, targets)
    assert report.accuracy == 100.0
    assert report.per_instance[0][1] == (False, False, True)


def test_synthetic_grid_46_percent():
    grid = [(False, True, False)] * 23 + [(False, False, False)] * 27
    trs, targets = synthetic_transcripts(TaskId.PARITY_CHECK, grid)
    assert score(TaskId.PARITY_CHECK, trs, targets).accuracy == 46.0


def test_missing_trials_count_incorrect():
    trs, targets = synthetic_transcripts(TaskId.PARITY_CHECK, [(True, True, True)])
    trs = [t for t in trs if t.trial == 1]
    trs[0].parsed_answer = ["False"]
    assert score(TaskId.PARITY_CHECK, trs, targets).accuracy == 0.0


def test_score_monotonicity():
    grid = [(False, False, False)] * 4
    trs, targets = synthetic_transcripts(TaskId.PARITY_CHECK, grid)
    base = score(TaskId.PARITY_CHECK, trs, targets).accuracy
    trs[0].parsed_answer = ["True"]          # make one trial correct
    assert score(TaskId.PARITY_CHECK, trs, targets).accuracy >= base


def test_score_rejects_unknown_instance_and_duplicates():
    trs, targets = synthetic_transcripts(TaskId.PARITY_CHECK, [(True, True, True)])
    with pytest.raises(LLMEvalError):
        score(TaskId.PARITY_CHECK, trs, {5: ("True",)})
    dup = trs + [trs[0]]
    with pytest.raises(LLMEvalError):
        score(TaskId.PARITY_CHECK, dup, targets)


# -- transport --------------------------------------------------------------

CFG = EndpointConfig(model="test-model", max_retries=3, backoff_base=0.01)


def test_missing_credential_fails_before_any_network_call(monkeypatch):
    monkeypatch.delenv(CFG.api_key_env, raising=False)
    transport = http_transport(EndpointConfig(url="http://192.0.2.1/none"))
    prompt = build_prompt(generate(TaskId.PARITY_CHECK, 0), "direct")
    with pytest.raises(AuthError):
        transport(prompt, 1)


def test_429_twice_then_success_logs_three_attempts():
    attempts = []

    def flaky(prompt, trial):
        attempts.append(trial)
        if len(attempts) < 3:
            raise TransientFailure("status 429")
        return "ANSWER: True"

    naps = []
    prompt = build_prompt(generate(TaskId.PARITY_CHECK, 0), "direct")
    tr = query_endpoint(prompt, CFG, trial=1, instance_index=0,
                        transport=flaky, sleep=naps.append)
    assert len(attempts) == 3 and tr.completion == "ANSWER: True"
    assert naps == [0.01, 0.02]              # exponential backoff


def test_transient_failure_exhausts_retries():
    def always_down(prompt, trial):
        raise TransientFailure("status 503")
    prompt = build_prompt(generate(TaskId.PARITY_CHECK, 0), "direct")
    with pytest.raises(TransientFailure):
        query_endpoint(prompt, CFG, 1, 0, transport=always_down,
                       sleep=lambda s: None)


def test_auth_error_not_retried():
    calls = []

    def denied(prompt, trial):
        calls.append(1)
        raise AuthError("401")
    prompt = build_prompt(generate(TaskId.PARITY_CHECK, 0), "direct")
    with pytest.raises(AuthError):
        query_endpoint(prompt, CFG, 1, 0, transport=denied, sleep=lambda s: None)
    assert len(calls) == 1


# -- replay + persistence ---------------------------------------------------

def write_fixture(path, task, n_instances, mode, answer_fn):
    """Record completions for every (instance, trial); answer_fn(idx, inst,
    trial) returns the completion text."""
    with open(path, "w") as fh:
        for idx, inst in enumerate(protocol_instances(task, n_instances)):
            prompt = build_prompt(inst, mode)
            for trial in (1, 2, 3):
                fh.write(json.dumps({"key": prompt_key(prompt, trial),
                                     "completion": answer_fn(idx, inst, trial)}) + "\n")


def test_replay_transcript_byte_exact(tmp_path):
    fixture = tmp_path / "fix.jsonl"
    completion = "Sure.\nANSWER: True\n"
    write_fixture(fixture, TaskId.PARITY_CHECK, 2, "direct",
                  lambda idx, inst, trial: completion)
    prompt = build_prompt(protocol_instances(TaskId.PARITY_CHECK, 2)[0], "direct")
    tr = query_endpoint(prompt, CFG, 1, 0, transport=replay_transport(fixture))
    assert tr.completion == completion


def test_replay_unknown_prompt_is_error(tmp_path):
    fixture = tmp_path / "fix.jsonl"
    fixture.write_text("")
    prompt = build_prompt(generate(TaskId.PARITY_CHECK, 123), "direct")
    with pytest.raises(LLMEvalError):
        query_endpoint(prompt, CFG, 1, 0, transport=replay_transport(fixture))


def test_full_protocol_offline_with_rescore(tmp_path):
    """End to end: oracle answers for even instances, garbage for odd ones;
    re-scoring the persisted transcripts reproduces the report exactly."""
    task = TaskId.SORTING
    n = 10
    fixture = tmp_path / "fix.jsonl"

    def answer(idx, inst, trial):
        if idx % 2 == 0 and trial == 2:
            return "ANSWER: " + ", ".join(inst.target_tokens)
        return "ANSWER: banana"

    write_fixture(fixture, task, n, "direct", answer)
    log_path = tmp_path / "transcripts.jsonl"
    with open(log_path, "w") as log:
        report = run_protocol(task, CFG, "direct", n_instances=n,
                              transport=replay_transport(fixture), persist=log)
    assert report.accuracy == 50.0
    assert report.n_instances == n

    targets = {i: inst.target_tokens
               for i, inst in enumerate(protocol_instances(task, n))}
    again = rescore_file(task, log_path, targets)
    assert again == report
    assert sum(1 for _ in open(log_path)) == 3 * n


def test_report_emitters():
    trs, targets = synthetic_transcripts(TaskId.PARITY_CHECK, [(True,) * 3] * 4)
    report = score(TaskId.PARITY_CHECK, trs, targets)
    md = LE.report_to_markdown([report])
    assert "| parity-check | direct | 4 | 100.0 |" in md
