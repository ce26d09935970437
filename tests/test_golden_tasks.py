"""Golden-digest gate for the task suite: every generated instance, encoding,
vocabulary, prompt and parsed LLM answer must stay byte-identical.

Each task's digest is a sha256 over JSON lines of
- ``generate`` for seeds 0-199;
- ``generate_with_length`` for n in ``LENGTHS`` and seeds 0-19, with the
  ``encode`` output of each instance;
- ``task_vocab(task).id_to_token``;
- ``build_prompt`` of the first 20 instances in both modes;
- ``extract_answer`` over every completion in ``COMPLETIONS``, which mixes
  answers that parse (``ok``), that parse only from the last line
  (``lenient``) and that do not (``failed``) for each task.

A refactor that changes any of these bytes fails here with the tasks whose
digest moved.
"""

import hashlib
import json

import pytest

from recurlab import tasks
from recurlab.llm_eval import Transcript, build_prompt, extract_answer
from recurlab.tasks import TaskId

LENGTHS = (1, 2, 3, 7, 20)

# ASCII only; each task meets answers of its own form and of every other form
COMPLETIONS = (
    "ANSWER: 3", "ANSWER: 007", "ANSWER: position 4", "ANSWER: [peach, banana]",
    "ANSWER: even", "ANSWER: 1,234", "ANSWER: True", "answer: no.", "ANSWER: odd",
    "ANSWER: 5", "ANSWER: -0", "ANSWER: +3", "ANSWER: 12 345", "ANSWER: 4.",
    "ANSWER: 1, 2, 2, 9", "ANSWER: (0)", "ANSWER: apple banana kiwi",
    "ANSWER: grape, | push", "ANSWER: Peach,APPLE", "ANSWER: 2 and 3",
    "ANSWER: False\nno wait\nANSWER: yes", "Reasoning...\nTrue",
    "The sum is:\n1,234", "steps\n3", "thinking\npeach, kiwi", "x\n1 2 3",
    "I cannot solve this.", "", "ANSWER:", "  \n\n", "ANSWER: []",
)

GOLDEN = {
    "mod-arith-simple": "6deb5299d9e8f13bbb69c6f6fd92a1dc5bda80942525503b8ee45e1b45fea104",
    "parity-check": "22958ccb4c7000600474f3b5a2404a2cf31c62359c2698e273391d293f310a91",
    "cycle-navigation": "afff770d2510f1b3f0314b7f8478be6f4a64e48fa2de88464a84428e1c9506af",
    "stack-manipulation": "076d8e62786488e2756c986eee63d46133438a13c9c571a903365847c1341964",
    "reverse-list": "70bed4380be6a4cfcd77a2ac7dcf73d685e16a0275cc6d421b56389946667d02",
    "mod-arith-complex": "a38a3730e26ebbef105acfaa17617ef01be869ab25926e7e4db2a17a0e2a726f",
    "odds-first": "e4a6b8161a7707cc1481b4da00335b440591e6bace5f0b97bb23e62ac06ac41b",
    "addition": "e179ada5e0dc87ce601b22d5a721f9f31f13cefe856ab8226a55c6e73c07e318",
    "multiplication": "8f1bd2802ce0b03ad1d064a39bb1662bd9aefbe5002342b1e0a80cc91ecf3123",
    "sorting": "bd9609cfc816b5f51ed985fa1b898e7939d8459301a508d4a3af6e213d141744",
}


def _instance_line(inst) -> list:
    return [inst.task.key, list(inst.input_tokens), list(inst.target_tokens), inst.n, inst.seed]


def task_lines(task: TaskId):
    vocab = tasks.task_vocab(task)
    for seed in range(200):
        yield _instance_line(tasks.generate(task, seed))
    for n in LENGTHS:
        for seed in range(20):
            inst = tasks.generate_with_length(task, seed, n)
            input_ids, target_ids = tasks.encode(inst, vocab)
            yield _instance_line(inst) + [[int(i) for i in input_ids],
                                          [int(i) for i in target_ids]]
    yield list(vocab.id_to_token)
    for seed in range(20):
        for mode in ("cot", "direct"):
            p = build_prompt(tasks.generate(task, seed), mode)
            yield [p.mode, p.task.key, p.system_text, p.user_text]
    yield from parsed_lines(task)


def parsed_lines(task: TaskId):
    for completion in COMPLETIONS:
        tr = extract_answer(Transcript(instance_index=0, trial=1, mode="direct",
                                       task_key=task.key, system_text="s", user_text="u",
                                       completion=completion, model="m", temperature=None,
                                       timestamp=0.0), task)
        yield [completion, tr.parsed_answer, tr.parse_status]


def task_digest(task: TaskId) -> str:
    h = hashlib.sha256()
    for line in task_lines(task):
        h.update(json.dumps(line).encode() + b"\n")
    return h.hexdigest()


def test_golden_covers_every_task():
    assert list(GOLDEN) == [t.key for t in TaskId]


def test_corpus_has_each_parse_status_for_every_task():
    for task in TaskId:
        statuses = {status for _, _, status in parsed_lines(task)}
        assert statuses == {"ok", "lenient", "failed"}, task.key


@pytest.mark.parametrize("task", list(TaskId), ids=[t.key for t in TaskId])
def test_task_outputs_match_golden_digest(task):
    assert task_digest(task) == GOLDEN[task.key]
