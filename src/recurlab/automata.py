"""Reference machines: DFA, stack machine, bounded-tape machine.

These are the ground-truth executors behind the task oracles.  A DFA's
transition function is the canonical one-term recurrence: the run folds it
left-to-right over the input, and its depth equals its total operation count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class AutomatonError(Exception):
    pass


class UnknownSymbolError(AutomatonError):
    def __init__(self, symbol, position=None):
        at = "" if position is None else f" at position {position}"
        super().__init__(f"unknown symbol {symbol!r}{at}")
        self.symbol = symbol
        self.position = position


class EmptyStackError(AutomatonError):
    def __init__(self, action_index: int):
        super().__init__(f"pop on empty stack at action {action_index}")
        self.action_index = action_index


@dataclass(frozen=True)
class Dfa:
    """Deterministic finite automaton with integer-indexed states.

    ``delta`` must be total over states x alphabet.
    """
    n_states: int
    alphabet: tuple
    delta: dict          # (state, symbol) -> state
    start: int
    accepting: frozenset

    def __post_init__(self):
        states = range(self.n_states)
        if self.start not in states:
            raise AutomatonError(f"start state {self.start} outside 0..{self.n_states - 1}")
        bad = sorted(q for q in self.accepting if q not in states)
        if bad:
            raise AutomatonError(f"accepting states {bad} outside 0..{self.n_states - 1}")
        for q in states:
            for sym in self.alphabet:
                if (q, sym) not in self.delta:
                    raise AutomatonError(f"delta undefined for ({q}, {sym!r})")


@dataclass
class RunTrace:
    states_visited: list  # length n+1, starts at the start state
    step_count: int
    accepted: bool

    @property
    def final(self) -> int:
        return self.states_visited[-1]


def dfa_step(dfa: Dfa, state: int, symbol) -> int:
    if symbol not in dfa.alphabet:
        raise UnknownSymbolError(symbol)
    return dfa.delta[(state, symbol)]


def dfa_run(dfa: Dfa, symbols: Iterable) -> RunTrace:
    return dfa_run_from(dfa, dfa.start, symbols)


def dfa_run_from(dfa: Dfa, state: int, symbols: Iterable) -> RunTrace:
    """Fold dfa_step from an arbitrary state (compositionality hook)."""
    if not 0 <= state < dfa.n_states:
        raise AutomatonError(f"state {state} outside 0..{dfa.n_states - 1}")
    visited = [state]
    for pos, sym in enumerate(symbols):
        try:
            state = dfa_step(dfa, state, sym)
        except UnknownSymbolError as err:
            raise UnknownSymbolError(err.symbol, pos) from None
        visited.append(state)
    return RunTrace(visited, len(visited) - 1, state in dfa.accepting)


# -- stack machine ----------------------------------------------------------
# actions: ("push", token) or ("pop",) / ("pop", token).  A pop argument is
# advisory: the machine pops the top unconditionally; generators only emit
# arguments equal to the current top so instances stay consistent.

def stack_run(actions: Sequence[tuple], initial_stack: Sequence[str]) -> list:
    stack = list(initial_stack)
    for i, action in enumerate(actions):
        kind = action[0]
        if kind == "push":
            stack.append(action[1])
        elif kind == "pop":
            if not stack:
                raise EmptyStackError(i)
            stack.pop()
        else:
            raise AutomatonError(f"malformed stack action {action!r} at {i}")
    return stack


# -- bounded tape machine ---------------------------------------------------
# actions: ("write", token) or ("move", -1|0|+1).  Moves past either end clamp
# to the boundary (linear-bounded semantics).

BLANK = "_"


def tape_run(actions: Sequence[tuple], tape_len: int) -> list:
    if tape_len < 1:
        raise AutomatonError(f"tape_len must be >= 1, got {tape_len}")
    tape = [BLANK] * tape_len
    head = 0
    for i, action in enumerate(actions):
        kind = action[0]
        if kind == "write":
            tape[head] = action[1]
        elif kind == "move":
            if action[1] not in (-1, 0, 1):
                raise AutomatonError(f"bad move {action!r} at {i}")
            head = min(max(head + action[1], 0), tape_len - 1)
        else:
            raise AutomatonError(f"malformed tape action {action!r} at {i}")
    return tape


def machine_profile(trace: RunTrace):
    """A DFA run is fully sequential: depth == total_ops == step count."""
    from .profiler import DepthProfile
    return DepthProfile(total_ops=trace.step_count, depth=trace.step_count,
                        n=trace.step_count, arch="dfa")


# -- stock machines used by tasks and tests ---------------------------------

def parity_dfa(counted: str = "apple", other: str = "banana") -> Dfa:
    """Accepts iff ``counted`` appears an even number of times."""
    delta = {(0, counted): 1, (1, counted): 0, (0, other): 0, (1, other): 1}
    return Dfa(2, (counted, other), delta, start=0, accepting=frozenset({0}))


def mod_add_dfa(modulus: int = 5) -> Dfa:
    """States are residues; symbols "+k"/"-k" add or subtract k mod ``modulus``."""
    alphabet = tuple(f"{s}{k}" for s in "+-" for k in range(modulus))
    delta = {}
    for q in range(modulus):
        for k in range(modulus):
            delta[(q, f"+{k}")] = (q + k) % modulus
            delta[(q, f"-{k}")] = (q - k) % modulus
    return Dfa(modulus, alphabet, delta, start=0, accepting=frozenset({0}))


def cycle_dfa(n_positions: int = 5) -> Dfa:
    """Positions 1..n encoded as states 0..n-1; start corresponds to position 1."""
    alphabet = ("forward", "backward", "stay")
    delta = {}
    for q in range(n_positions):
        delta[(q, "forward")] = (q + 1) % n_positions
        delta[(q, "backward")] = (q - 1) % n_positions
        delta[(q, "stay")] = q
    return Dfa(n_positions, alphabet, delta, start=0, accepting=frozenset({0}))
