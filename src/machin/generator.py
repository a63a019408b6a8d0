"""Machin-like identity generation via exact integer recurrences.

Starting from arctan(1) = pi/4, the generator first finds the multiplier m
for the leading term m*arctan(1/q0): it estimates m from below, forms the
remainder B + y*i = (1+i)*(q0 - i)^m with one Gaussian power, and steps on
by (q0 - i) until the imaginary part y turns negative. It then keeps
splitting single arctangent terms off the remainder arctan(A/B), A = |y|,
until it vanishes (a complete identity) or a digit budget stops the run (a
partial identity). Two term-selection rules are supported:

* ``signed``   -- q is the nearest integer to B/A; the remainder numerator
                  at least halves per step and term signs may alternate.
* ``positive`` -- q is the ceiling of B/A; every sign is positive but the
                  numerator decays much more slowly.

The remainder is the Gaussian integer B + y*i with y = delta*A, the frame
that ``verify`` folds in, and every step multiplies it by (q - delta*i):
``exactint.remainder_power`` for the first term, ``exactint.remainder_step``
for the walk and each later term. Deep in a run, where A is short next to
q, the step trades the big-by-big q*B for a squaring of q; ``exactint``
says when. Each pick divides B by A through ``exactint.big_divmod``, which
is subquadratic once A and q are both long.
"""
from __future__ import annotations

from collections import namedtuple
from operator import index

from ._bigint import bigint
from .errors import GenerationCutoffError
from .exactint import Record, big_divmod, exceeds_digits, remainder_power, remainder_step

__all__ = [
    "FormulaTerm",
    "GenerationConfig",
    "MachinFormula",
    "RemainderState",
    "find_first_term",
    "generate",
    "next_term_positive",
    "next_term_signed",
]

MODES = ("signed", "positive")


class RemainderState(Record, namedtuple("RemainderState", "A B delta")):
    """The trailing term delta * arctan(A/B) left over during generation."""

    __slots__ = ()

    def __new__(cls, A, B, delta):
        A, B, delta = index(A), index(B), index(delta)
        if A < 0:
            raise ValueError("remainder numerator A must be nonnegative")
        if B <= 0:
            raise ValueError("remainder denominator B must be positive")
        if delta not in (-1, 1):
            raise ValueError("remainder sign delta must be -1 or +1")
        return tuple.__new__(cls, (A, B, delta))


class FormulaTerm(Record, namedtuple("FormulaTerm", "sign q coefficient")):
    """One term sign * coefficient * arctan(1/q) of an identity."""

    __slots__ = ()

    def __new__(cls, sign, q, coefficient=1):
        sign, q, coefficient = index(sign), index(q), index(coefficient)
        if sign not in (-1, 1):
            raise ValueError("term sign must be -1 or +1")
        if q < 1:
            raise ValueError("term denominator q must be positive")
        if coefficient < 1:
            raise ValueError("term coefficient must be at least 1")
        return tuple.__new__(cls, (sign, q, coefficient))


class MachinFormula(Record, namedtuple(
        "MachinFormula", "q0 terms complete final_remainder mode")):
    """A generated identity: pi/4 = m*arctan(1/q0) + sum of signed terms.

    ``terms`` is a tuple of FormulaTerm, the first being m*arctan(1/q0).
    ``complete`` means the remainder reached zero and the term list is an
    exact identity; otherwise the run was cut off and ``final_remainder``
    (a RemainderState, when available) holds the unconsumed tail.
    """

    __slots__ = ()

    def __new__(cls, q0, terms, complete, final_remainder=None, mode="signed"):
        q0 = index(q0)
        if not isinstance(complete, bool):
            raise TypeError("complete must be a bool")
        if not terms:
            raise ValueError("a formula needs at least one term")
        first = terms[0]
        if first.q != q0 or q0 < 2:
            raise ValueError("the first term must be arctan(1/q0) with q0 >= 2")
        if first.sign != 1:
            raise ValueError("the first term is always positive")
        for earlier, later in zip(terms, terms[1:]):
            if later.coefficient != 1:
                raise ValueError("only the first term may carry a coefficient")
            if later.q <= earlier.q:
                raise ValueError("term denominators must strictly increase")
        if complete and final_remainder is not None:
            raise ValueError("a complete formula has no remainder")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        return tuple.__new__(cls, (q0, terms, complete, final_remainder, mode))


class GenerationConfig(Record, namedtuple("GenerationConfig", "mode partial max_digits")):
    """How generate() picks terms and when it stops (see generate)."""

    __slots__ = ()

    def __new__(cls, mode="signed", partial=False, max_digits=1_000_000):
        max_digits = index(max_digits)
        if not isinstance(partial, bool):
            raise TypeError("partial must be a bool")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if max_digits < 1:
            raise ValueError("max_digits must be at least 1")
        return tuple.__new__(cls, (mode, partial, max_digits))


# floor(pi/4 * 2^64); c = this / 2^64 is at most pi/4 and arctan(1/q0) < 1/q0,
# so floor(c*q0) is below pi/(4*arctan(1/q0)) and never overshoots m
_PI_QUARTER_Q64 = 0xC90FDAA22168C234


def _first_term(q0, mode):
    """q0, m and the remainder frame (B, y = delta*A) of m*arctan(1/q0).

    The walk starts at a lower bound on m, at most 2 + q0/2^64 steps short,
    and stops at the largest m whose remainder y/B is still positive. In
    signed mode the next m, whose remainder is negative, is taken instead
    when it leaves the smaller remainder, (B - q*y)/(q*B + y) < y/B: when
    B/y < q + sqrt(q*q + 1), a bound in (2q, 2q + 1). So B = k*y + r
    decides by k < 2q, or by r*(2q*y + r) < y*y when k == 2q.
    """
    q0 = index(q0)
    if q0 < 2:
        raise ValueError("q0 must be at least 2 (q0 = 1 is the bare arctan(1) identity)")
    q, m = bigint(q0), q0 * _PI_QUARTER_Q64 >> 64
    B, y = remainder_power(q, m)
    while True:
        B2, y2 = remainder_step(B, y, q, 1)
        if y2 < 0:
            break
        m, B, y = m + 1, B2, y2
    if mode == "signed":
        k, r = divmod(B, y)
        if k < 2 * q or k == 2 * q and r * (2 * q * y + r) < y * y:
            return q0, m + 1, B2, y2
    return q0, m, B, y


def _remainder(B, y, delta):
    """The RemainderState of the frame B + y*i; delta stays when y = 0."""
    return RemainderState(abs(y), B, (1 if y > 0 else -1) if y else delta)


def find_first_term(q0):
    """Multiplier m and remainder for the leading term m*arctan(1/q0).

    Of the two bracketing candidates (remainder still positive vs. first
    negative), picks whichever leaves the smaller remainder magnitude.
    """
    _, m, B, y = _first_term(q0, "signed")
    return m, _remainder(B, y, 1)


def _pick_signed(A, B):
    """Nearest integer q to B/A (halves round up), and whether q*A == B."""
    q, r = big_divmod(2 * B + A, 2 * A)
    return q, r == A  # q*A - B == (A - r) / 2


def _pick_positive(A, B):
    """Ceiling q of B/A, and whether q*A == B."""
    q, r = big_divmod(-B, A)
    return -q, r == 0  # q*A - B == r


def _next_term(state: RemainderState, pick):
    A, B = bigint(state.A), bigint(state.B)
    q, _ = pick(A, B)
    B2, y2 = remainder_step(B, state.delta * A, q, state.delta)
    return FormulaTerm(sign=state.delta, q=q), _remainder(B2, y2, state.delta)


def next_term_signed(state: RemainderState):
    """Split the nearest-integer term off a remainder; numerator halves."""
    if state.A <= 0:
        raise ValueError("remainder is exhausted (A = 0); generation must stop")
    return _next_term(state, _pick_signed)


def next_term_positive(state: RemainderState):
    """Split the ceiling term off a remainder; all signs stay positive."""
    if state.A <= 0:
        raise ValueError("remainder is exhausted (A = 0); generation must stop")
    if state.delta != 1:
        raise ValueError("positive mode requires a positive remainder")
    return _next_term(state, _pick_positive)


def generate(q0, config: GenerationConfig | None = None) -> MachinFormula:
    """Build the Machin-like formula for q0 under the given configuration.

    Extension terms are appended until the remainder vanishes. If a term's
    denominator grows past ``config.max_digits`` decimal digits first, the
    run stops: in partial mode the oversized term is kept and the formula
    is returned incomplete (with the unconsumed remainder attached),
    otherwise GenerationCutoffError is raised. Completion on the very term
    that crosses the budget still counts as complete.
    """
    cfg = config if config is not None else GenerationConfig()
    q0, m, B, y = _first_term(q0, cfg.mode)
    pick = _pick_signed if cfg.mode == "signed" else _pick_positive
    terms = [FormulaTerm(sign=1, q=q0, coefficient=m)]
    while True:
        delta = 1 if y > 0 else -1
        qn, exact = pick(abs(y), B)
        terms.append(FormulaTerm(sign=delta, q=qn))
        if exact:  # complete: the B' after this term is never needed
            return MachinFormula(q0, tuple(terms), True, None, cfg.mode)
        B, y = remainder_step(B, y, qn, delta)
        if exceeds_digits(qn, cfg.max_digits):
            if cfg.partial:
                return MachinFormula(q0, tuple(terms), False, _remainder(B, y, delta), cfg.mode)
            raise GenerationCutoffError(
                f"term {len(terms) - 1} exceeded {cfg.max_digits} decimal digits; "
                "rerun in partial mode or raise max_digits"
            )
