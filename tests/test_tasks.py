import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab import automata as am
from recurlab import tasks
from recurlab.tasks import TaskId

from bruteforce import brute_force


# -- printed examples -------------------------------------------------------

def test_mod_arith_simple_example():
    assert tasks.oracle(TaskId.MOD_ARITH_SIMPLE, ["1", "+", "3", "-", "2"]) == ["2"]


def test_mod_arith_complex_example():
    expr = list("((3+4)-1)*(2+(1-2))")
    assert tasks.oracle(TaskId.MOD_ARITH_COMPLEX, expr) == ["1"]


def test_stack_manipulation_example():
    toks = ["grape", "banana", "apple", "|", "pop", "apple", "push", "peach"]
    assert tasks.oracle(TaskId.STACK_MANIPULATION, toks) == ["grape", "banana", "peach"]


def test_odds_first_example():
    out = tasks.oracle(TaskId.ODDS_FIRST, ["apple", "grape", "banana", "peach"])
    assert out == ["apple", "banana", "grape", "peach"]


def test_parity_example():
    assert tasks.oracle(TaskId.PARITY_CHECK, ["apple", "apple", "banana"]) == ["True"]


def test_cycle_navigation_follows_stated_semantics():
    # +1 +1 -1 from position 1 lands on 2 under the stated action semantics;
    # deliberately not asserting the suspect printed value.
    out = tasks.oracle(TaskId.CYCLE_NAVIGATION, ["forward", "forward", "backward"])
    assert out == ["2"]


# -- generation -------------------------------------------------------------

def test_generate_deterministic():
    a = tasks.generate(TaskId.PARITY_CHECK, 7)
    b = tasks.generate(TaskId.PARITY_CHECK, 7)
    assert a == b


def test_parity_generation_shape():
    inst = tasks.generate(TaskId.PARITY_CHECK, 7)
    assert 10 <= inst.n <= 20
    assert set(inst.input_tokens) <= {"apple", "banana"}
    assert inst.target_tokens in (("True",), ("False",))


def test_reverse_list_lengths_uniform():
    lengths = [tasks.generate(TaskId.REVERSE_LIST, s).n for s in range(1000)]
    counts = collections.Counter(lengths)
    assert set(counts) == set(range(30, 41))
    observed = np.array([counts[n] for n in range(30, 41)], dtype=float)
    expected = len(lengths) / 11
    chi2 = ((observed - expected) ** 2 / expected).sum()
    # chi-square critical value for p=0.01 with 10 dof
    assert chi2 < 23.21


@pytest.mark.parametrize("task", list(TaskId))
def test_generated_target_matches_oracle(task):
    for seed in range(20):
        inst = tasks.generate(task, seed)
        assert list(inst.target_tokens) == tasks.oracle(task, inst.input_tokens)
        lo, hi = tasks.TASK_TABLE[task].lengths
        assert lo <= inst.n <= hi


@pytest.mark.parametrize("task", list(TaskId))
def test_oracle_agrees_with_brute_force(task):
    for seed in range(500):
        inst = tasks.generate(task, seed)
        assert list(inst.target_tokens) == brute_force(task, inst.input_tokens), (task, seed)


def test_levels_match_table_layout():
    by_level = {lvl: [t for t in TaskId if t.level is lvl] for lvl in tasks.Level}
    assert [t.key for t in by_level[tasks.Level.R]] == [
        "mod-arith-simple", "parity-check", "cycle-navigation"]
    assert [t.key for t in by_level[tasks.Level.CF]] == [
        "stack-manipulation", "reverse-list", "mod-arith-complex"]
    assert [t.key for t in by_level[tasks.Level.CS]] == [
        "odds-first", "addition", "multiplication", "sorting"]


# -- oracle properties ------------------------------------------------------

@given(st.lists(st.sampled_from(tasks.FRUITS), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_reverse_is_an_involution(tokens):
    once = tasks.oracle(TaskId.REVERSE_LIST, tokens)
    assert tasks.oracle(TaskId.REVERSE_LIST, once) == tokens


def test_addition_ten_digit_bigint():
    inst = tasks.generate_with_length(TaskId.ADDITION, 3, 10)
    i = inst.input_tokens.index("+")
    a = int("".join(inst.input_tokens[:i]))
    b = int("".join(inst.input_tokens[i + 1:]))
    assert "".join(inst.target_tokens) == str(a + b)


def test_cycle_navigation_equivalent_to_dfa():
    dfa = am.cycle_dfa()
    for seed in range(200):
        inst = tasks.generate(TaskId.CYCLE_NAVIGATION, seed)
        trace = am.dfa_run(dfa, inst.input_tokens)
        assert str(trace.final + 1) == inst.target_tokens[0]


def test_odds_first_permutation_order():
    # applying the odds-first permutation repeatedly must return to identity
    # within the permutation group order for that n
    import math
    for n in range(2, 41):
        base = [str(i) for i in range(n)]
        perm = tasks.oracle(TaskId.ODDS_FIRST, base)
        # cycle structure of the permutation gives its order
        index = {v: i for i, v in enumerate(base)}
        mapping = [index[v] for v in perm]
        seen = [False] * n
        cycle_lengths = []
        for i in range(n):
            if not seen[i]:
                length, j = 0, i
                while not seen[j]:
                    seen[j] = True
                    j = mapping[j]
                    length += 1
                cycle_lengths.append(length)
        order = math.lcm(*cycle_lengths)
        current = base
        for _ in range(order):
            current = tasks.oracle(TaskId.ODDS_FIRST, current)
        assert current == base


def test_mod_arith_complex_parse_error_has_position():
    with pytest.raises(tasks.ParseError):
        tasks.oracle(TaskId.MOD_ARITH_COMPLEX, ["(", "3", "+", "4"])


@pytest.mark.parametrize("task, tokens, position", [
    (TaskId.STACK_MANIPULATION, ["apple", "|", "push"], 3),
    (TaskId.STACK_MANIPULATION, ["apple", "|", "push", "kiwi", "pop"], 5),
    (TaskId.STACK_MANIPULATION, ["apple", "push", "kiwi"], 3),
    (TaskId.STACK_MANIPULATION, ["apple", "|", "kiwi"], 2),
    (TaskId.ADDITION, ["+"], 0),
    (TaskId.ADDITION, ["1", "+"], 2),
    (TaskId.ADDITION, ["1", "<blank>", "+", "2"], 1),
    (TaskId.ADDITION, ["1", "2"], 2),
    (TaskId.MULTIPLICATION, ["3", "4"], 2),
    (TaskId.MULTIPLICATION, ["3", "*", "²"], 2),
    (TaskId.SORTING, ["<blank>"], 0),
    (TaskId.SORTING, ["3", "1", "x"], 2),
    (TaskId.MOD_ARITH_SIMPLE, [], 0),
    (TaskId.MOD_ARITH_SIMPLE, ["<blank>"], 0),
    (TaskId.MOD_ARITH_SIMPLE, ["1", "+"], 2),
    # a symbol outside the task's automaton alphabet
    (TaskId.PARITY_CHECK, ["zz"], 0),
    (TaskId.PARITY_CHECK, ["apple", "banana", "kiwi", "apple"], 2),
    (TaskId.CYCLE_NAVIGATION, ["zz"], 0),
    (TaskId.CYCLE_NAVIGATION, ["forward", "stay", "left"], 2),
    (TaskId.MOD_ARITH_SIMPLE, ["1", "*", "2"], 1),
    (TaskId.MOD_ARITH_SIMPLE, ["1", "+", "2", "-", "7"], 4),
    (TaskId.MOD_ARITH_SIMPLE, ["1", "+", "2", "+1", "3"], 3),
    # a digit outside ASCII, and a pop on an empty stack
    (TaskId.MOD_ARITH_COMPLEX, ["²"], 0),
    (TaskId.MOD_ARITH_COMPLEX, ["٣"], 0),
    (TaskId.MOD_ARITH_COMPLEX, ["(", "1", "+", "²", ")"], 3),
    (TaskId.STACK_MANIPULATION, ["|", "pop", "x"], 1),
    (TaskId.STACK_MANIPULATION, ["apple", "|", "pop", "apple", "pop", "kiwi"], 4),
])
def test_malformed_tokens_raise_parse_error_with_position(task, tokens, position):
    """A malformed token list raises ``ParseError`` at the token it trips
    on, not a bare ``IndexError`` or ``ValueError``."""
    with pytest.raises(tasks.ParseError) as err:
        tasks.oracle(task, tokens)
    assert err.value.position == position


def _residue(digits, p: int) -> int:
    """The number ``digits`` spells, modulo ``p``, read one digit at a time."""
    r = 0
    for d in "".join(digits):
        r = (r * 10 + int(d)) % p
    return r


@pytest.mark.parametrize("task, n", [(TaskId.ADDITION, 4400), (TaskId.MULTIPLICATION, 2200)])
def test_operands_past_the_int_string_limit_give_exact_targets(task, n):
    """Past the 4300 digits that int and str convert into each other, the
    target still agrees with the operands modulo large primes."""
    inst = tasks.generate_with_length(task, 0, n)
    op = "+" if task is TaskId.ADDITION else "*"
    i = inst.input_tokens.index(op)
    a, b, target = inst.input_tokens[:i], inst.input_tokens[i + 1:], inst.target_tokens
    assert target[0] != "0" and len(target) >= len(a)
    for p in (1_000_000_007, 998_244_353, 2**61 - 1):
        ra, rb = _residue(a, p), _residue(b, p)
        assert _residue(target, p) == ((ra + rb) if op == "+" else (ra * rb)) % p


# -- encoding ---------------------------------------------------------------

def test_parity_encodes_single_placeholder():
    inst = tasks.generate(TaskId.PARITY_CHECK, 1)
    vocab = tasks.task_vocab(TaskId.PARITY_CHECK)
    input_ids, target_ids = tasks.encode(inst, vocab)
    assert input_ids.count(tasks.PLACEHOLDER_ID) == 1
    assert len(target_ids) == 1


def test_reverse_list_placeholder_count():
    inst = tasks.generate_with_length(TaskId.REVERSE_LIST, 0, 30)
    vocab = tasks.task_vocab(TaskId.REVERSE_LIST)
    input_ids, _ = tasks.encode(inst, vocab)
    assert input_ids.count(tasks.PLACEHOLDER_ID) == 30


def test_unknown_token_named_in_error():
    vocab = tasks.task_vocab(TaskId.PARITY_CHECK)
    with pytest.raises(tasks.TaskError) as err:
        vocab.encode_token("durian")
    assert "durian" in str(err.value)


@pytest.mark.parametrize("task", list(TaskId))
def test_encode_decode_round_trip(task):
    vocab = tasks.task_vocab(task)
    for seed in range(100):
        inst = tasks.generate(task, seed)
        input_ids, target_ids = tasks.encode(inst, vocab)
        in_toks, tgt_toks = tasks.decode(input_ids, target_ids, vocab)
        assert in_toks == inst.input_tokens
        assert tgt_toks == inst.target_tokens


def test_json_line_round_trip():
    inst = tasks.generate(TaskId.SORTING, 11)
    line = tasks.to_json_line(inst)
    assert tasks.from_json_line(line) == inst
    assert tasks.to_json_line(tasks.from_json_line(line)) == line
