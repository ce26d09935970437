"""Task generators, oracles and token encodings for the three-level suite.

Ten tasks, grouped by the machine class needed to solve them: Regular (R),
Context-Free (CF) and Context-Sensitive (CS).  Instances use word-level tokens
(fruit names, digit strings, operator strings) that survive real tokenizers as
single tokens; no character splitting anywhere.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass
from typing import Sequence

from . import automata

FRUITS = ("apple", "banana", "grape", "peach", "orange",
          "mango", "cherry", "lemon", "kiwi", "plum")

PAD, SEP, PLACEHOLDER = "<pad>", "<sep>", "<blank>"
PAD_ID, SEP_ID, PLACEHOLDER_ID = 0, 1, 2


class TaskError(Exception):
    pass


class ParseError(TaskError):
    def __init__(self, msg, position):
        super().__init__(f"{msg} at position {position}")
        self.position = position


class Level(str, enum.Enum):
    R = "R"
    CF = "CF"
    CS = "CS"


class TaskId(enum.Enum):
    MOD_ARITH_SIMPLE = ("mod-arith-simple", Level.R)
    PARITY_CHECK = ("parity-check", Level.R)
    CYCLE_NAVIGATION = ("cycle-navigation", Level.R)
    STACK_MANIPULATION = ("stack-manipulation", Level.CF)
    REVERSE_LIST = ("reverse-list", Level.CF)
    MOD_ARITH_COMPLEX = ("mod-arith-complex", Level.CF)
    ODDS_FIRST = ("odds-first", Level.CS)
    ADDITION = ("addition", Level.CS)
    MULTIPLICATION = ("multiplication", Level.CS)
    SORTING = ("sorting", Level.CS)

    def __init__(self, key: str, level: Level):
        self.key = key
        self.level = level

    @classmethod
    def from_key(cls, key: str) -> "TaskId":
        for t in cls:
            if t.key == key:
                return t
        raise TaskError(f"unknown task {key!r}")


# single output token per instance
CLASSIFICATION_TASKS = frozenset({
    TaskId.MOD_ARITH_SIMPLE, TaskId.PARITY_CHECK,
    TaskId.CYCLE_NAVIGATION, TaskId.MOD_ARITH_COMPLEX,
})

# length n sampled uniformly from these (inclusive) ranges
# declaration order is the report layout: R tasks, then CF, then CS
LEVEL_ORDER = tuple(TaskId)

LENGTH_RANGES = {t: (10, 20) for t in TaskId}
LENGTH_RANGES[TaskId.REVERSE_LIST] = (30, 40)


@dataclass(frozen=True)
class TaskInstance:
    task: TaskId
    input_tokens: tuple
    target_tokens: tuple
    n: int
    seed: int


class Vocab:
    """Token<->id bijection with fixed reserved ids 0/1/2."""

    def __init__(self, tokens: Sequence[str]):
        self.id_to_token = [PAD, SEP, PLACEHOLDER]
        for tok in tokens:
            if tok in (PAD, SEP, PLACEHOLDER):
                raise TaskError(f"token {tok!r} collides with a reserved token")
            if tok not in self.id_to_token:
                self.id_to_token.append(tok)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self):
        return len(self.id_to_token)

    def encode_token(self, tok: str) -> int:
        try:
            return self.token_to_id[tok]
        except KeyError:
            raise TaskError(f"unknown token {tok!r}") from None


_DIGITS5 = tuple(str(d) for d in range(5))
_DIGITS10 = tuple(str(d) for d in range(10))


def task_vocab(task: TaskId) -> Vocab:
    if task is TaskId.MOD_ARITH_SIMPLE:
        return Vocab(_DIGITS5 + ("+", "-"))
    if task is TaskId.PARITY_CHECK:
        return Vocab(("apple", "banana", "True", "False"))
    if task is TaskId.CYCLE_NAVIGATION:
        return Vocab(("forward", "backward", "stay", "1", "2", "3", "4", "5"))
    if task is TaskId.STACK_MANIPULATION:
        return Vocab(FRUITS + ("|", "push", "pop"))
    if task in (TaskId.REVERSE_LIST, TaskId.ODDS_FIRST):
        return Vocab(FRUITS)
    if task is TaskId.MOD_ARITH_COMPLEX:
        return Vocab(_DIGITS5 + ("+", "-", "*", "(", ")"))
    if task is TaskId.ADDITION:
        return Vocab(_DIGITS10 + ("+",))
    if task is TaskId.MULTIPLICATION:
        return Vocab(_DIGITS10 + ("*",))
    if task is TaskId.SORTING:
        return Vocab(_DIGITS10)
    raise TaskError(f"unknown task {task}")


# ---------------------------------------------------------------------------
# generation

def generate(task: TaskId, seed: int) -> TaskInstance:
    """Deterministic instance for (task, seed); n drawn from the task range."""
    rng = random.Random(f"{task.key}:{seed}")
    lo, hi = LENGTH_RANGES[task]
    n = rng.randint(lo, hi)
    return _generate_at(task, seed, n, rng)


def generate_with_length(task: TaskId, seed: int, n: int) -> TaskInstance:
    """Instance at an explicit size parameter (trainer batching hook)."""
    rng = random.Random(f"{task.key}:{seed}:{n}")
    return _generate_at(task, seed, n, rng)


def _generate_at(task: TaskId, seed: int, n: int, rng: random.Random) -> TaskInstance:
    if task is TaskId.MOD_ARITH_SIMPLE:
        tokens = [str(rng.randint(0, 4))]
        for _ in range(n - 1):
            tokens += [rng.choice("+-"), str(rng.randint(0, 4))]
    elif task is TaskId.PARITY_CHECK:
        tokens = [rng.choice(("apple", "banana")) for _ in range(n)]
    elif task is TaskId.CYCLE_NAVIGATION:
        tokens = [rng.choice(("forward", "backward", "stay")) for _ in range(n)]
    elif task is TaskId.STACK_MANIPULATION:
        stack = [rng.choice(FRUITS) for _ in range(rng.randint(3, 7))]
        tokens = list(stack) + ["|"]
        depth = len(stack)
        for _ in range(n):
            if depth <= 1 or rng.random() < 0.5:
                tok = rng.choice(FRUITS)
                tokens += ["push", tok]
                stack.append(tok)
                depth += 1
            else:
                tokens += ["pop", stack.pop()]
                depth -= 1
    elif task in (TaskId.REVERSE_LIST, TaskId.ODDS_FIRST):
        tokens = [rng.choice(FRUITS) for _ in range(n)]
    elif task is TaskId.MOD_ARITH_COMPLEX:
        tokens = _gen_expression(rng, n, root=True)
    elif task in (TaskId.ADDITION, TaskId.MULTIPLICATION):
        op = "+" if task is TaskId.ADDITION else "*"
        a = _gen_number(rng, n)
        b = _gen_number(rng, n)
        tokens = list(a) + [op] + list(b)
    elif task is TaskId.SORTING:
        tokens = [str(rng.randint(0, 9)) for _ in range(n)]
    else:
        raise TaskError(f"unknown task {task}")
    tokens = tuple(tokens)
    return TaskInstance(task, tokens, tuple(oracle(task, tokens)), n, seed)


def _gen_number(rng: random.Random, n_digits: int) -> list:
    digits = [str(rng.randint(1, 9))]
    digits += [str(rng.randint(0, 9)) for _ in range(n_digits - 1)]
    return digits


def _gen_expression(rng: random.Random, n_ops: int, root: bool = False) -> list:
    if n_ops == 0:
        return [str(rng.randint(0, 4))]
    left_ops = rng.randint(0, n_ops - 1)
    op = rng.choice("+-*")
    body = (_gen_expression(rng, left_ops) + [op]
            + _gen_expression(rng, n_ops - 1 - left_ops))
    return body if root else ["("] + body + [")"]


# ---------------------------------------------------------------------------
# oracles

# the regular-language oracles run these reference DFAs, built once
_PARITY_DFA = automata.parity_dfa()
_CYCLE_DFA = automata.cycle_dfa()
_MOD_ADD_DFA = automata.mod_add_dfa()


def oracle(task: TaskId, input_tokens: Sequence[str]) -> list:
    if task is TaskId.MOD_ARITH_SIMPLE:
        # the first digit is the start residue; each "op digit" pair is a symbol
        steps = [op + d for op, d in zip(input_tokens[1::2], input_tokens[2::2])]
        start = int(input_tokens[0]) % 5
        return [str(automata.dfa_run_from(_MOD_ADD_DFA, start, steps).final)]
    if task is TaskId.PARITY_CHECK:
        return [str(automata.dfa_run(_PARITY_DFA, input_tokens).accepted)]
    if task is TaskId.CYCLE_NAVIGATION:
        # state q is position q + 1
        return [str(automata.dfa_run(_CYCLE_DFA, input_tokens).final + 1)]
    if task is TaskId.STACK_MANIPULATION:
        bar = list(input_tokens).index("|")
        stack, actions = list(input_tokens[:bar]), _parse_stack_actions(input_tokens[bar + 1:])
        return automata.stack_run(actions, stack)
    if task is TaskId.REVERSE_LIST:
        return list(reversed(input_tokens))
    if task is TaskId.MOD_ARITH_COMPLEX:
        return [str(_parse_mod_expression(list(input_tokens)))]
    if task is TaskId.ODDS_FIRST:
        return list(input_tokens[0::2]) + list(input_tokens[1::2])
    if task in (TaskId.ADDITION, TaskId.MULTIPLICATION):
        op = "+" if task is TaskId.ADDITION else "*"
        i = list(input_tokens).index(op)
        a = int("".join(input_tokens[:i]))
        b = int("".join(input_tokens[i + 1:]))
        result = a + b if op == "+" else a * b
        return list(str(result))
    if task is TaskId.SORTING:
        return [str(v) for v in _insertion_sort([int(t) for t in input_tokens])]
    raise TaskError(f"unknown task {task}")


def _parse_stack_actions(tokens) -> list:
    actions = []
    i = 0
    while i < len(tokens):
        if tokens[i] == "push":
            actions.append(("push", tokens[i + 1]))
        elif tokens[i] == "pop":
            actions.append(("pop", tokens[i + 1]))
        else:
            raise ParseError(f"expected push/pop, got {tokens[i]!r}", i)
        i += 2
    return actions


def _insertion_sort(values: list) -> list:
    out = list(values)
    for i in range(1, len(out)):
        key = out[i]
        j = i - 1
        while j >= 0 and out[j] > key:
            out[j + 1] = out[j]
            j -= 1
        out[j + 1] = key
    return out


def _parse_mod_expression(tokens: list) -> int:
    """Recursive-descent parse of a fully parenthesized {+,-,*} expression,
    evaluated mod 5.  Grammar: expr := term (op term)* evaluated left-to-right;
    term := digit | '(' expr ')'."""
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def term() -> int:
        nonlocal pos
        tok = peek()
        if tok == "(":
            pos += 1
            v = expr()
            if peek() != ")":
                raise ParseError("expected ')'", pos)
            pos += 1
            return v
        if tok is not None and tok.isdigit():
            pos += 1
            return int(tok) % 5
        raise ParseError(f"expected digit or '(', got {tok!r}", pos)

    def expr() -> int:
        nonlocal pos
        v = term()
        while peek() in ("+", "-", "*"):
            op = tokens[pos]
            pos += 1
            w = term()
            if op == "+":
                v = (v + w) % 5
            elif op == "-":
                v = (v - w) % 5
            else:
                v = (v * w) % 5
        return v

    v = expr()
    if pos != len(tokens):
        raise ParseError(f"trailing token {tokens[pos]!r}", pos)
    return v


# ---------------------------------------------------------------------------
# encoding

def encode(instance: TaskInstance, vocab: Vocab) -> tuple:
    """(input_ids, target_ids): input is tokens ++ SEP ++ one placeholder per
    target token; target ids are aligned with the placeholder positions."""
    n_slots = 1 if instance.task in CLASSIFICATION_TASKS else len(instance.target_tokens)
    if n_slots != len(instance.target_tokens):
        raise TaskError("classification task with multi-token target")
    input_ids = ([vocab.encode_token(t) for t in instance.input_tokens]
                 + [SEP_ID] + [PLACEHOLDER_ID] * n_slots)
    target_ids = [vocab.encode_token(t) for t in instance.target_tokens]
    return input_ids, target_ids


def decode(input_ids: Sequence[int], target_ids: Sequence[int], vocab: Vocab) -> tuple:
    sep = list(input_ids).index(SEP_ID)
    input_tokens = tuple(vocab.id_to_token[i] for i in input_ids[:sep])
    target_tokens = tuple(vocab.id_to_token[i] for i in target_ids)
    return input_tokens, target_tokens


def placeholder_positions(input_ids: Sequence[int]) -> list:
    return [i for i, t in enumerate(input_ids) if t == PLACEHOLDER_ID]


# ---------------------------------------------------------------------------
# dataset export: one JSON object per line, stable field order

def to_json_line(instance: TaskInstance) -> str:
    return json.dumps({
        "task": instance.task.key,
        "seed": instance.seed,
        "n": instance.n,
        "input_tokens": list(instance.input_tokens),
        "target_tokens": list(instance.target_tokens),
    }, sort_keys=False)


def from_json_line(line: str) -> TaskInstance:
    obj = json.loads(line)
    return TaskInstance(TaskId.from_key(obj["task"]), tuple(obj["input_tokens"]),
                        tuple(obj["target_tokens"]), obj["n"], obj["seed"])
