"""Formulas the generator never makes, shared by the verify, evaluator and CLI tests."""
from functools import lru_cache

from machin.generator import FormulaTerm, MachinFormula, RemainderState, next_term_signed


def with_fold_remainder(terms):
    """The partial formula of these terms with the remainder their fold leaves.

    The fold runs on raw Gaussian integers, R = (1+i) * prod (q - s*i), and
    the formula records R = B + delta*A*i as its remainder, so the identity
    check passes whatever the terms are.
    """
    x, y = 1, 1
    for term in terms:
        for _ in range(term.coefficient):
            x, y = term.q * x + term.sign * y, term.q * y - term.sign * x
    return MachinFormula(terms[0].q, tuple(terms), False,
                         RemainderState(abs(y), x, 1 if y > 0 else -1))


@lru_cache(maxsize=None)
def nine_pi_quarters():
    """36*arctan(1/5) plus the signed walk on the remainder of (1+i)*(5-i)^36.

    36*arctan(1/5) lies near 9*pi/4, so the 19 terms sum to exactly 9*pi/4:
    tangent 1 like pi/4, but one turn of 2*pi away.
    """
    x, y = 1, 1
    for _ in range(36):
        x, y = 5 * x + y, 5 * y - x
    state = RemainderState(abs(y), x, 1 if y > 0 else -1)
    terms = [FormulaTerm(1, 5, 36)]
    while state.A:
        term, state = next_term_signed(state)
        terms.append(term)
    return MachinFormula(5, tuple(terms), True)
