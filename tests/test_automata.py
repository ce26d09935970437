import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab import automata as am


def test_parity_dfa_single_steps():
    dfa = am.parity_dfa()
    assert am.dfa_step(dfa, 0, "apple") == 1
    assert am.dfa_step(dfa, 0, "banana") == 0


def test_mod5_dfa_step():
    dfa = am.mod_add_dfa()
    assert am.dfa_step(dfa, 2, "+3") == 0


def test_unknown_symbol_names_symbol():
    dfa = am.parity_dfa()
    with pytest.raises(am.UnknownSymbolError) as err:
        am.dfa_step(dfa, 0, "pear")
    assert "pear" in str(err.value)


def test_parity_run_worked_example():
    trace = am.dfa_run(am.parity_dfa(), ("apple", "apple", "banana"))
    assert trace.accepted is True


def test_empty_run():
    dfa = am.parity_dfa()
    trace = am.dfa_run(dfa, ())
    assert trace.final == dfa.start
    assert trace.step_count == 0


def test_seven_apples_rejected():
    trace = am.dfa_run(am.parity_dfa(), ("apple",) * 7)
    assert trace.accepted is False


def test_run_error_carries_position():
    with pytest.raises(am.UnknownSymbolError) as err:
        am.dfa_run(am.parity_dfa(), ("apple", "pear"))
    assert err.value.position == 1


@given(st.lists(st.sampled_from(["apple", "banana"]), max_size=30), st.integers(0, 30))
@settings(max_examples=100, deadline=None)
def test_dfa_run_composes_over_splits(symbols, j):
    dfa = am.parity_dfa()
    j = min(j, len(symbols))
    whole = am.dfa_run(dfa, symbols)
    first = am.dfa_run(dfa, symbols[:j])
    rest = am.dfa_run_from(dfa, first.final, symbols[j:])
    assert rest.final == whole.final


def test_stack_run_worked_example():
    out = am.stack_run([("pop", "apple"), ("push", "peach")],
                       ["grape", "banana", "apple"])
    assert out == ["grape", "banana", "peach"]


def test_stack_run_no_actions():
    assert am.stack_run([], ["kiwi"]) == ["kiwi"]


def test_stack_push_pop_inverse():
    assert am.stack_run([("push", "plum"), ("pop",)], ["kiwi"]) == ["kiwi"]


def test_stack_pop_empty_reports_index():
    with pytest.raises(am.EmptyStackError) as err:
        am.stack_run([("push", "a"), ("pop",), ("pop",)], [])
    assert err.value.action_index == 2


@given(st.lists(st.sampled_from([("push", "a"), ("push", "b"), ("pop",)]), max_size=20),
       st.integers(0, 20))
@settings(max_examples=100, deadline=None)
def test_stack_run_is_a_left_fold(actions, j):
    depth = 3
    for a in actions:
        depth += 1 if a[0] == "push" else -1
        if depth < 0:
            return  # invalid program, precondition excludes it
    initial = ["x", "y", "z"]
    j = min(j, len(actions))
    whole = am.stack_run(actions, initial)
    chunked = am.stack_run(actions[j:], am.stack_run(actions[:j], initial))
    assert whole == chunked


def test_tape_write_move_write():
    out = am.tape_run([("write", "a"), ("move", 1), ("write", "b")], 3)
    assert out == ["a", "b", am.BLANK]


def test_tape_no_actions_blank():
    assert am.tape_run([], 2) == [am.BLANK, am.BLANK]


def test_tape_copy_reverse_microprogram():
    # write x y z left-to-right, then overwrite walking back: z y x
    program = [("write", "x"), ("move", 1), ("write", "y"), ("move", 1), ("write", "z"),
               ("write", "z"), ("move", -1), ("write", "y"), ("move", -1), ("write", "x")]
    # hand-simulated: the forward pass leaves [x,y,z]; the backward pass
    # rewrites the same cells, so final tape is [x,y,z] -> now a real reversal:
    out = am.tape_run([("write", "z"), ("move", 1), ("write", "y"), ("move", 1), ("write", "x")], 3)
    assert out == ["z", "y", "x"]
    assert am.tape_run(program, 3) == ["x", "y", "z"]


def test_tape_head_clamps_at_boundaries():
    out = am.tape_run([("move", -1), ("write", "L"), ("move", 1), ("move", 1),
                       ("move", 1), ("write", "R")], 3)
    assert out == ["L", am.BLANK, "R"]


@pytest.mark.parametrize("n", [0, 5, 17])
def test_machine_profile_depth_equals_ops(n):
    trace = am.dfa_run(am.parity_dfa(), ("banana",) * n)
    profile = am.machine_profile(trace)
    assert profile.total_ops == n
    assert profile.depth == n


@pytest.mark.parametrize("start,accepting", [(2, frozenset({0})), (0, frozenset({0, 5}))])
def test_dfa_rejects_states_outside_range(start, accepting):
    delta = {(q, s): q for q in range(2) for s in ("a", "b")}
    with pytest.raises(am.AutomatonError):
        am.Dfa(2, ("a", "b"), delta, start, accepting)


@pytest.mark.parametrize("symbols", [["+1"], []], ids=["one-symbol", "no-symbols"])
def test_run_from_rejects_a_state_outside_the_dfa(symbols):
    """A start state outside the DFA used to raise a bare KeyError at the
    first symbol, or, with none, return a trace sitting in that state."""
    with pytest.raises(am.AutomatonError, match="state 7 outside 0..4"):
        am.dfa_run_from(am.mod_add_dfa(), 7, symbols)
