"""CoT-vs-direct evaluation protocol for chat-completion endpoints.

Instances are rendered into prompts (both modes share the task payload and
differ only in the instruction block; direct mode carries the exact clause
"Give a direct answer without steps"), each instance is queried three times,
and an instance counts as solved if at least one of the three parsed answers
matches the oracle target.

The network layer is a swappable transport callable, so the whole pipeline
runs offline against record-replay fixtures, and fault handling is testable
with injected failures.  Raw completions are preserved byte-exact; scoring is
a pure function of (transcripts, targets) and can be re-run from the
persisted JSONL at any time.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field

from . import tasks
from .tasks import TaskId, TaskInstance

DIRECT_CLAUSE = "Give a direct answer without steps"
ANSWER_TAG = "ANSWER:"


class LLMEvalError(Exception):
    pass


class AuthError(LLMEvalError):
    pass


class EndpointTimeout(LLMEvalError):
    pass


class MalformedResponse(LLMEvalError):
    pass


# -- prompts ----------------------------------------------------------------

_TASK_BRIEFS = {
    "mod-arith-simple": ("Evaluate the expression modulo 5 and reply with the "
                         "resulting digit (0-4)."),
    "parity-check": ("Decide whether the word 'apple' appears an even number of "
                     "times in the list. Reply True for even, False for odd."),
    "cycle-navigation": ("You start at position 1 on a cycle of positions 1-5. "
                         "Each instruction moves you forward one, backward one, "
                         "or stays. Reply with the final position (1-5)."),
    "stack-manipulation": ("The words before '|' are a stack, bottom to top. "
                           "Apply the push/pop actions in order and reply with "
                           "the final stack from bottom to top, comma-separated. "
                           "Each pop is annotated with the word it removes."),
    "reverse-list": "Reply with the list of words in reverse order, comma-separated.",
    "mod-arith-complex": ("Evaluate the parenthesized expression modulo 5 and "
                          "reply with the resulting digit (0-4)."),
    "odds-first": ("Reply with the words at odd positions (1st, 3rd, 5th, ...) "
                   "followed by the words at even positions, comma-separated."),
    "addition": "Add the two numbers and reply with the decimal result.",
    "multiplication": "Multiply the two numbers and reply with the decimal result.",
    "sorting": ("Sort the digits into non-decreasing order and reply with the "
                "sorted digits, comma-separated."),
}

_SYSTEM = ("You solve short symbolic tasks. Always finish your reply with one "
           f"final line of the form '{ANSWER_TAG} <answer>'.")


@dataclass(frozen=True)
class PromptSpec:
    mode: str                 # cot | direct
    task: TaskId
    instance: TaskInstance
    system_text: str
    user_text: str


def build_prompt(instance: TaskInstance, mode: str) -> PromptSpec:
    if mode not in ("cot", "direct"):
        raise LLMEvalError(f"unknown mode {mode!r}")
    payload = (f"{_TASK_BRIEFS[instance.task.key]}\n\n"
               f"Input: {' '.join(instance.input_tokens)}")
    if mode == "cot":
        instruction = ("Think step by step and write out your reasoning before "
                       "the final line.")
    else:
        instruction = (f"{DIRECT_CLAUSE}. Do not write any reasoning; reply "
                       "with only the final line.")
    user = f"{payload}\n\n{instruction}"
    return PromptSpec(mode, instance.task, instance, _SYSTEM, user)


# -- transport & transcripts ------------------------------------------------

@dataclass
class EndpointConfig:
    url: str = ""
    model: str = "replay"
    temperature: float | None = None
    api_key_env: str = "RECURLAB_API_KEY"
    timeout: float = 60.0
    max_retries: int = 3
    backoff_base: float = 0.5


@dataclass
class Transcript:
    instance_index: int
    trial: int                       # 1..3
    mode: str
    task_key: str
    system_text: str
    user_text: str
    completion: str
    model: str
    temperature: float | None
    timestamp: float
    parsed_answer: list | None = None
    parse_status: str = "unparsed"   # unparsed | ok | lenient | failed

    def __post_init__(self):
        if self.trial not in (1, 2, 3):
            raise LLMEvalError(f"trial index {self.trial} outside 1..3")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=False)

    @classmethod
    def from_json(cls, line: str) -> "Transcript":
        return cls(**json.loads(line))


def prompt_key(prompt: PromptSpec, trial: int) -> str:
    h = hashlib.sha256()
    for part in (prompt.system_text, prompt.user_text, str(trial)):
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def http_transport(cfg: EndpointConfig):
    """Chat-completions POST; the credential is read from the environment at
    call time, never stored."""
    import requests

    def send(prompt: PromptSpec, trial: int) -> str:
        key = os.environ.get(cfg.api_key_env)
        if not key:
            raise AuthError(f"credential env var {cfg.api_key_env} not set")
        payload = {"model": cfg.model,
                   "messages": [{"role": "system", "content": prompt.system_text},
                                {"role": "user", "content": prompt.user_text}]}
        if cfg.temperature is not None:
            payload["temperature"] = cfg.temperature
        try:
            resp = requests.post(cfg.url, json=payload, timeout=cfg.timeout,
                                 headers={"Authorization": f"Bearer {key}"})
        except requests.Timeout as exc:
            raise EndpointTimeout(str(exc)) from exc
        except requests.ConnectionError as exc:
            # DNS failure or connection refused: as retryable as a 5xx
            raise TransientFailure(f"connection failed: {exc}") from exc
        if resp.status_code == 401 or resp.status_code == 403:
            raise AuthError(f"endpoint returned {resp.status_code}")
        if resp.status_code == 429 or resp.status_code >= 500:
            raise TransientFailure(f"status {resp.status_code}")
        try:
            return resp.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise MalformedResponse(f"unexpected body: {resp.text[:200]}") from exc
    return send


class TransientFailure(LLMEvalError):
    pass


def replay_transport(fixture_path):
    """Replays completions recorded as JSONL {key, completion}; any unknown
    prompt is an error, guaranteeing zero hidden network traffic."""
    table = {}
    with open(fixture_path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                table[rec["key"]] = rec["completion"]

    def send(prompt: PromptSpec, trial: int) -> str:
        key = prompt_key(prompt, trial)
        try:
            return table[key]
        except KeyError:
            raise LLMEvalError(f"no replay fixture for prompt key {key}") from None
    return send


def query_endpoint(prompt: PromptSpec, cfg: EndpointConfig, trial: int,
                   instance_index: int, transport=None, persist=None,
                   sleep=time.sleep) -> Transcript:
    """One trial: send with retry/backoff on transient failures, persist the
    transcript before returning it.

    Auth failures are never retried; transient failures (HTTP 429/5xx,
    connection errors, timeouts) retry up to ``cfg.max_retries`` attempts
    with exponential backoff.
    """
    if transport is None:
        transport = http_transport(cfg)
    attempt = 0
    while True:
        attempt += 1
        try:
            completion = transport(prompt, trial)
            break
        except AuthError:
            raise
        except (TransientFailure, EndpointTimeout):
            if attempt >= cfg.max_retries:
                raise
            sleep(cfg.backoff_base * 2 ** (attempt - 1))
    transcript = Transcript(
        instance_index=instance_index, trial=trial, mode=prompt.mode,
        task_key=prompt.task.key, system_text=prompt.system_text,
        user_text=prompt.user_text, completion=completion, model=cfg.model,
        temperature=cfg.temperature, timestamp=time.time())
    transcript = extract_answer(transcript, prompt.task)
    if persist is not None:
        persist.write(transcript.to_json() + "\n")
        persist.flush()
    return transcript


# -- answer extraction ------------------------------------------------------

def _normalize(task: TaskId, text: str) -> list | None:
    text = text.strip().strip(".").strip()
    if not text:
        return None
    vocab = {t.lower(): t for t in tasks.task_vocab(task).id_to_token[3:]}
    if task is TaskId.PARITY_CHECK:
        low = text.lower()
        if low in ("true", "yes", "even"):
            return ["True"]
        if low in ("false", "no", "odd"):
            return ["False"]
        return None
    if task is TaskId.CYCLE_NAVIGATION:
        digits = [c for c in text if c.isdigit()]
        if len(digits) == 1 and digits[0] in "12345":
            return [digits[0]]
        return None
    if task in (TaskId.MOD_ARITH_SIMPLE, TaskId.MOD_ARITH_COMPLEX):
        try:
            return [str(int(text))] if 0 <= int(text) <= 4 else None
        except ValueError:
            return None
    if task in (TaskId.ADDITION, TaskId.MULTIPLICATION):
        cleaned = text.replace(",", "").replace(" ", "")
        if cleaned.isdigit():
            return list(str(int(cleaned)))  # 007 -> 7
        return None
    # token-sequence tasks: split on commas/whitespace/brackets
    for ch in "[](),":
        text = text.replace(ch, " ")
    toks = []
    for raw in text.split():
        canon = vocab.get(raw.lower())
        if canon is None:
            return None
        toks.append(canon)
    return toks or None


def extract_answer(transcript: Transcript, task: TaskId) -> Transcript:
    """Parse the final ANSWER: line; fall back (flagged) to the last nonempty
    line.  Failures are recorded in parse_status, never raised."""
    lines = [ln.strip() for ln in transcript.completion.splitlines() if ln.strip()]
    answer_lines = [ln for ln in lines if ln.upper().startswith(ANSWER_TAG)]
    status, parsed = "failed", None
    if answer_lines:
        parsed = _normalize(task, answer_lines[-1][len(ANSWER_TAG):])
        status = "ok" if parsed is not None else "failed"
    elif lines:
        parsed = _normalize(task, lines[-1])
        status = "lenient" if parsed is not None else "failed"
    transcript.parsed_answer = parsed
    transcript.parse_status = status
    return transcript


# -- scoring ----------------------------------------------------------------

@dataclass(frozen=True)
class ScoreReport:
    task_key: str
    mode: str
    n_instances: int
    accuracy: float                 # percent, best-of-3 per instance
    per_instance: tuple             # ((instance_index, (bool, bool, bool)), ...)
    protocol: dict = field(default_factory=dict)


def score(task: TaskId, transcripts: list, oracle_targets: dict) -> ScoreReport:
    """Best-of-3 exact match.  ``oracle_targets`` maps instance_index to the
    target token tuple; every scored instance needs exactly 3 trials (missing
    trials count as incorrect)."""
    by_instance: dict[int, dict] = {}
    modes = set()
    for tr in transcripts:
        if tr.instance_index not in oracle_targets:
            raise LLMEvalError(f"transcript for unknown instance {tr.instance_index}")
        trials = by_instance.setdefault(tr.instance_index, {})
        if tr.trial in trials:
            raise LLMEvalError(f"duplicate trial {tr.trial} for instance "
                               f"{tr.instance_index}")
        trials[tr.trial] = tr
        modes.add(tr.mode)
    per_instance = []
    n_correct = 0
    for idx in sorted(oracle_targets):
        target = list(oracle_targets[idx])
        outcomes = []
        for trial in (1, 2, 3):
            tr = by_instance.get(idx, {}).get(trial)
            outcomes.append(tr is not None and tr.parsed_answer == target)
        n_correct += any(outcomes)
        per_instance.append((idx, tuple(outcomes)))
    n = len(oracle_targets)
    return ScoreReport(task_key=task.key, mode=modes.pop() if len(modes) == 1 else "mixed",
                       n_instances=n, accuracy=100.0 * n_correct / n,
                       per_instance=tuple(per_instance),
                       protocol={"best_of": 3, "rule": "any-trial-correct"})


# -- full protocol ----------------------------------------------------------

def protocol_instances(task: TaskId, n_instances: int = 50, seed: int = 0) -> list:
    return [tasks.generate(task, seed * 1000 + i) for i in range(n_instances)]


def run_protocol(task: TaskId, cfg: EndpointConfig, mode: str,
                 n_instances: int = 50, seed: int = 0, transport=None,
                 persist=None, sleep=time.sleep) -> ScoreReport:
    """Render, query 3 trials per instance, and score."""
    instances = protocol_instances(task, n_instances, seed)
    transcripts = []
    targets = {}
    for idx, inst in enumerate(instances):
        targets[idx] = inst.target_tokens
        prompt = build_prompt(inst, mode)
        for trial in (1, 2, 3):
            transcripts.append(query_endpoint(prompt, cfg, trial, idx,
                                              transport=transport,
                                              persist=persist, sleep=sleep))
    return score(task, transcripts, targets)


def rescore_file(task: TaskId, path, oracle_targets: dict) -> ScoreReport:
    """Re-score persisted transcripts; pure, so the report is reproducible."""
    with open(path) as fh:
        transcripts = [Transcript.from_json(line) for line in fh if line.strip()]
    return score(task, transcripts, oracle_targets)


def report_to_csv(reports: list) -> str:
    lines = ["task,mode,n_instances,accuracy"]
    for r in reports:
        lines.append(f"{r.task_key},{r.mode},{r.n_instances},{r.accuracy}")
    return "\n".join(lines) + "\n"


def report_to_markdown(reports: list) -> str:
    lines = ["| task | mode | instances | accuracy |", "|---|---|---|---|"]
    for r in reports:
        lines.append(f"| {r.task_key} | {r.mode} | {r.n_instances} | {r.accuracy:.1f} |")
    return "\n".join(lines) + "\n"
