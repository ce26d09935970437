"""Independent brute-force re-implementations of every task target.

Deliberately written without touching recurlab.tasks internals (different
algorithms where possible), so oracle bugs can't hide behind shared code.
"""

from recurlab.tasks import TaskId


def _eval_simple(tokens):
    text = " ".join(tokens)
    return str(eval(text) % 5)  # python eval as the independent route


def _eval_complex(tokens):
    return str(eval("".join(tokens)) % 5)


def _cycle(tokens):
    move = {"forward": 1, "backward": -1, "stay": 0}
    total = sum(move[t] for t in tokens)
    return str((total % 5) + 1)


def _parity(tokens):
    return str(tokens.count("apple") % 2 == 0)


def _stack(tokens):
    bar = list(tokens).index("|")
    stack = list(tokens[:bar])
    rest = list(tokens[bar + 1:])
    for verb, arg in zip(rest[0::2], rest[1::2]):
        if verb == "push":
            stack.append(arg)
        else:
            assert stack and stack[-1] == arg
            del stack[-1]
    return stack


def _odds_first(tokens):
    odd = [t for i, t in enumerate(tokens, start=1) if i % 2 == 1]
    even = [t for i, t in enumerate(tokens, start=1) if i % 2 == 0]
    return odd + even


def _arith(tokens, op):
    i = list(tokens).index(op)
    a, b = int("".join(tokens[:i])), int("".join(tokens[i + 1:]))
    return list(str(a + b if op == "+" else a * b))


def brute_force(task, input_tokens):
    """Expected target tokens computed by a second, independent route."""
    tokens = list(input_tokens)
    if task is TaskId.MOD_ARITH_SIMPLE:
        return [_eval_simple(tokens)]
    if task is TaskId.PARITY_CHECK:
        return [_parity(tokens)]
    if task is TaskId.CYCLE_NAVIGATION:
        return [_cycle(tokens)]
    if task is TaskId.STACK_MANIPULATION:
        return _stack(tokens)
    if task is TaskId.REVERSE_LIST:
        return tokens[::-1]
    if task is TaskId.MOD_ARITH_COMPLEX:
        return [_eval_complex(tokens)]
    if task is TaskId.ODDS_FIRST:
        return _odds_first(tokens)
    if task is TaskId.ADDITION:
        return _arith(tokens, "+")
    if task is TaskId.MULTIPLICATION:
        return _arith(tokens, "*")
    if task is TaskId.SORTING:
        # counting sort over the digits: the oracle calls sorted
        return [str(d) for d in range(10) for _ in range(tokens.count(str(d)))]
    raise ValueError(task)
