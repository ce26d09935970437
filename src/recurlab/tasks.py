"""Task generators, oracles and token encodings for the three-level suite.

Ten tasks, grouped by the machine class needed to solve them: Regular (R),
Context-Free (CF) and Context-Sensitive (CS).  Instances use word-level tokens
(fruit names, digit strings, operator strings) that survive real tokenizers as
single tokens; no character splitting anywhere.

``TASK_TABLE`` is the one place that says what a task is, from its vocabulary
and generator to the brief and answer parser of its LLM prompts; ``task_vocab``,
``generate``, ``oracle``, ``encode`` and ``llm_eval`` read it.
"""

from __future__ import annotations

import enum
import json
import operator
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

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
    # declaration order is the report layout: R tasks, then CF, then CS
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
        for tok in tokens:
            if tok in (PAD, SEP, PLACEHOLDER):
                raise TaskError(f"token {tok!r} collides with a reserved token")
        # a tuple, because TASK_TABLE hands every caller the same instance
        self.id_to_token = (PAD, SEP, PLACEHOLDER) + tuple(dict.fromkeys(tokens))
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self):
        return len(self.id_to_token)

    def encode_token(self, tok: str) -> int:
        try:
            return self.token_to_id[tok]
        except KeyError:
            raise TaskError(f"unknown token {tok!r}") from None


# ---------------------------------------------------------------------------
# generator bodies: (rng, n) -> input tokens; the rng calls and their order
# fix every generated instance

def _draw(choices: tuple):
    return lambda rng, n: [rng.choice(choices) for _ in range(n)]


def _gen_mod_arith_simple(rng: random.Random, n: int) -> list:
    tokens = [str(rng.randint(0, 4))]
    for _ in range(n - 1):
        tokens += [rng.choice("+-"), str(rng.randint(0, 4))]
    return tokens


def _gen_stack(rng: random.Random, n: int) -> list:
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
    return tokens


def _gen_number(rng: random.Random, n_digits: int) -> list:
    digits = [str(rng.randint(1, 9))]
    digits += [str(rng.randint(0, 9)) for _ in range(n_digits - 1)]
    return digits


def _gen_operands(op: str):
    """Two n-digit numbers around ``op``."""
    return lambda rng, n: _gen_number(rng, n) + [op] + _gen_number(rng, n)


def _gen_expression(rng: random.Random, n_ops: int, root: bool = False) -> list:
    if n_ops == 0:
        return [str(rng.randint(0, 4))]
    left_ops = rng.randint(0, n_ops - 1)
    op = rng.choice("+-*")
    body = (_gen_expression(rng, left_ops) + [op]
            + _gen_expression(rng, n_ops - 1 - left_ops))
    return body if root else ["("] + body + [")"]


# ---------------------------------------------------------------------------
# oracles: input tokens -> target tokens

# the regular-language oracles run these reference DFAs, built once
_PARITY_DFA = automata.parity_dfa()
_CYCLE_DFA = automata.cycle_dfa()
_MOD_ADD_DFA = automata.mod_add_dfa()
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _digit_tokens(tokens, start: int = 0):
    """``tokens``, which begin at position ``start`` of the input, if each is
    a string of decimal digits; else ``ParseError`` at the first that is not."""
    for i, tok in enumerate(tokens, start):
        if not (tok.isascii() and tok.isdigit()):
            raise ParseError(f"expected a digit, got {tok!r}", i)
    return tokens


def _number(tokens, start: int) -> str:
    """The decimal digits of the number ``tokens`` spell from ``start`` on."""
    if not tokens:
        raise ParseError("expected a number", start)
    return "".join(_digit_tokens(tokens, start))


def _run_dfa(dfa, symbols, state=None, first: int = 0, stride: int = 1):
    """``dfa``'s run over ``symbols`` from ``state`` (else its start); symbol
    j is read at input position first + stride·j, where an unknown symbol
    raises ``ParseError``."""
    try:
        return (automata.dfa_run(dfa, symbols) if state is None
                else automata.dfa_run_from(dfa, state, symbols))
    except automata.UnknownSymbolError as err:
        raise ParseError(f"unknown symbol {err.symbol!r}",
                         first + stride * err.position) from None


def _mod_arith_simple(tokens) -> list:
    # the first digit is the start residue; each "op digit" pair is a symbol
    residue = int(_number(tokens[:1], 0)) % 5
    if len(tokens) % 2 == 0:
        raise ParseError(f"expected a digit after {tokens[-1]!r}", len(tokens))
    for i in range(1, len(tokens), 2):
        if tokens[i] not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', got {tokens[i]!r}", i)
    # with the operators valid, an unknown pair is its digit's fault
    steps = [op + d for op, d in zip(tokens[1::2], tokens[2::2])]
    return [str(_run_dfa(_MOD_ADD_DFA, steps, residue, first=2, stride=2).final)]


def _stack_manipulation(tokens) -> list:
    tokens = list(tokens)
    if "|" not in tokens:
        raise ParseError("expected '|'", len(tokens))
    bar = tokens.index("|")
    try:
        return automata.stack_run(_parse_stack_actions(tokens, bar + 1), tokens[:bar])
    except automata.EmptyStackError as err:
        # action j's "pop" token is at bar + 1 + 2·j
        raise ParseError("pop on an empty stack", bar + 1 + 2 * err.action_index) from None


def _operate(op: str):
    """The two numbers around ``op`` combined by it, as decimal digits; exact
    at any length, since ``decimal``, unlike int, has no 4300-digit limit on
    converting a number to or from a string."""
    def oracle(tokens) -> list:
        import decimal  # here, not at import: only these two oracles need it
        tokens = list(tokens)
        if op not in tokens:
            raise ParseError(f"expected {op!r}", len(tokens))
        i = tokens.index(op)
        a, b = _number(tokens[:i], 0), _number(tokens[i + 1:], i + 1)
        exact = decimal.Context(prec=len(a) + len(b) + 1, Emax=decimal.MAX_EMAX,
                                traps=[decimal.Inexact])
        with decimal.localcontext(exact):
            return list(str(_OPS[op](decimal.Decimal(a), decimal.Decimal(b))))
    return oracle


def _parse_stack_actions(tokens, start: int) -> list:
    """The push and pop actions of ``tokens`` from position ``start`` on."""
    actions = []
    for i in range(start, len(tokens), 2):
        if tokens[i] not in ("push", "pop"):
            raise ParseError(f"expected push/pop, got {tokens[i]!r}", i)
        if i + 1 == len(tokens):
            raise ParseError(f"expected a word after {tokens[i]!r}", i + 1)
        actions.append((tokens[i], tokens[i + 1]))
    return actions


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
        if tok is not None and tok.isascii() and tok.isdigit():
            pos += 1
            return int(tok) % 5
        raise ParseError(f"expected digit or '(', got {tok!r}", pos)

    def expr() -> int:
        nonlocal pos
        v = term()
        while peek() in ("+", "-", "*"):
            op = tokens[pos]
            pos += 1
            v = _OPS[op](v, term()) % 5
        return v

    v = expr()
    if pos != len(tokens):
        raise ParseError(f"trailing token {tokens[pos]!r}", pos)
    return v


# ---------------------------------------------------------------------------
# free-text answer parsers: (text, vocab) -> answer tokens, or None when the
# text is not an answer of the task's form; the text arrives stripped

_TRUTH = {"true": "True", "yes": "True", "even": "True",
          "false": "False", "no": "False", "odd": "False"}


def _parse_truth(text: str, vocab: Vocab) -> list | None:
    return [_TRUTH[text.lower()]] if text.lower() in _TRUTH else None


def _parse_position(text: str, vocab: Vocab) -> list | None:
    digits = [c for c in text if c.isdigit()]
    return [digits[0]] if len(digits) == 1 and digits[0] in "12345" else None


def _parse_residue(text: str, vocab: Vocab) -> list | None:
    try:
        return [str(int(text))] if 0 <= int(text) <= 4 else None
    except ValueError:
        return None


def _parse_number(text: str, vocab: Vocab) -> list | None:
    cleaned = text.replace(",", "").replace(" ", "")
    # 007 -> 7, with no int(): it refuses strings of more than 4300 digits
    return list(cleaned.lstrip("0") or "0") if cleaned.isdigit() else None


def _parse_words(text: str, vocab: Vocab) -> list | None:
    """Vocabulary words split on commas, whitespace and brackets, any case."""
    for ch in "[](),":
        text = text.replace(ch, " ")
    canon = {t.lower(): t for t in vocab.id_to_token[3:]}
    toks = [canon.get(raw.lower()) for raw in text.split()]
    return toks if toks and None not in toks else None


# ---------------------------------------------------------------------------
# the task table

class Task(NamedTuple):
    vocab: Vocab
    body: Callable                # (rng, n) -> input tokens
    oracle: Callable              # input tokens -> target tokens
    one_token: bool               # the answer is exactly one token
    brief: str                    # what an LLM prompt asks for
    parse: Callable               # (text, vocab) -> answer tokens, or None
    lengths: tuple = (10, 20)     # generate draws n uniformly from this inclusive range


TASK_TABLE = {
    TaskId.MOD_ARITH_SIMPLE: Task(
        Vocab([*"01234", "+", "-"]), _gen_mod_arith_simple, _mod_arith_simple, True,
        "Evaluate the expression modulo 5 and reply with the resulting digit (0-4).",
        _parse_residue),
    TaskId.PARITY_CHECK: Task(
        Vocab(("apple", "banana", "True", "False")), _draw(("apple", "banana")),
        lambda tokens: [str(_run_dfa(_PARITY_DFA, tokens).accepted)], True,
        "Decide whether the word 'apple' appears an even number of times in the list. "
        "Reply True for even, False for odd.", _parse_truth),
    TaskId.CYCLE_NAVIGATION: Task(
        Vocab(("forward", "backward", "stay", "1", "2", "3", "4", "5")),
        _draw(("forward", "backward", "stay")),
        # state q is position q + 1
        lambda tokens: [str(_run_dfa(_CYCLE_DFA, tokens).final + 1)], True,
        "You start at position 1 on a cycle of positions 1-5. Each instruction moves you "
        "forward one, backward one, or stays. Reply with the final position (1-5).",
        _parse_position),
    TaskId.STACK_MANIPULATION: Task(
        Vocab(FRUITS + ("|", "push", "pop")), _gen_stack, _stack_manipulation, False,
        "The words before '|' are a stack, bottom to top. Apply the push/pop actions in "
        "order and reply with the final stack from bottom to top, comma-separated. "
        "Each pop is annotated with the word it removes.", _parse_words),
    TaskId.REVERSE_LIST: Task(
        Vocab(FRUITS), _draw(FRUITS), lambda tokens: list(reversed(tokens)), False,
        "Reply with the list of words in reverse order, comma-separated.", _parse_words,
        lengths=(30, 40)),
    TaskId.MOD_ARITH_COMPLEX: Task(
        Vocab([*"01234", "+", "-", "*", "(", ")"]),
        lambda rng, n: _gen_expression(rng, n, root=True),
        lambda tokens: [str(_parse_mod_expression(list(tokens)))], True,
        "Evaluate the parenthesized expression modulo 5 and reply with the resulting "
        "digit (0-4).", _parse_residue),
    TaskId.ODDS_FIRST: Task(
        Vocab(FRUITS), _draw(FRUITS), lambda tokens: list(tokens[0::2]) + list(tokens[1::2]),
        False, "Reply with the words at odd positions (1st, 3rd, 5th, ...) followed by the "
        "words at even positions, comma-separated.", _parse_words),
    TaskId.ADDITION: Task(
        Vocab([*"0123456789", "+"]), _gen_operands("+"), _operate("+"), False,
        "Add the two numbers and reply with the decimal result.", _parse_number),
    TaskId.MULTIPLICATION: Task(
        Vocab([*"0123456789", "*"]), _gen_operands("*"), _operate("*"), False,
        "Multiply the two numbers and reply with the decimal result.", _parse_number),
    TaskId.SORTING: Task(
        Vocab([*"0123456789"]), lambda rng, n: [str(rng.randint(0, 9)) for _ in range(n)],
        lambda tokens: [str(v) for v in sorted(int(t) for t in _digit_tokens(tokens))], False,
        "Sort the digits into non-decreasing order and reply with the sorted digits, "
        "comma-separated.", _parse_words),
}


def task_vocab(task: TaskId) -> Vocab:
    return TASK_TABLE[task].vocab


# ---------------------------------------------------------------------------
# generation

def generate(task: TaskId, seed: int) -> TaskInstance:
    """Deterministic instance for (task, seed); n drawn from the task range."""
    rng = random.Random(f"{task.key}:{seed}")
    return _generate_at(task, seed, rng.randint(*TASK_TABLE[task].lengths), rng)


def generate_with_length(task: TaskId, seed: int, n: int) -> TaskInstance:
    """Instance at an explicit size parameter (trainer batching hook)."""
    rng = random.Random(f"{task.key}:{seed}:{n}")
    return _generate_at(task, seed, n, rng)


def _generate_at(task: TaskId, seed: int, n: int, rng: random.Random) -> TaskInstance:
    tokens = tuple(TASK_TABLE[task].body(rng, n))
    return TaskInstance(task, tokens, tuple(oracle(task, tokens)), n, seed)


def oracle(task: TaskId, input_tokens: Sequence[str]) -> list:
    return TASK_TABLE[task].oracle(input_tokens)


# ---------------------------------------------------------------------------
# encoding

def encode(instance: TaskInstance, vocab: Vocab) -> tuple:
    """(input_ids, target_ids): input is tokens ++ SEP ++ one placeholder per
    target token; target ids are aligned with the placeholder positions."""
    n_slots = 1 if TASK_TABLE[instance.task].one_token else len(instance.target_tokens)
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
