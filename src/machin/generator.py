"""Machin-like identity generation via exact integer recurrences.

Starting from arctan(1) = pi/4, the generator first finds the multiplier m
for the leading term m*arctan(1/q0): it estimates m from below, forms the
remainder b + a*i = (1+i)*(q0 - i)^m with one Gaussian power, and follows
the integer pair (a, b) -> (q0*a - b, q0*b + a) until the numerator changes
sign. It then keeps splitting single arctangent terms off the remainder
arctan(A/B) until it vanishes (a complete identity) or a digit budget stops
the run (a partial identity). Two term-selection rules are supported:

* ``signed``   -- q is the nearest integer to B/A; the remainder numerator
                  at least halves per step and term signs may alternate.
* ``positive`` -- q is the ceiling of B/A; every sign is positive but the
                  numerator decays much more slowly.

Both walks are one Gaussian-integer step, ``exactint.remainder_step``: the
remainder B + delta*A*i is multiplied by (q - delta*i), and the first-term
walk is (b + a*i) * (q0 - i). The step forms the short new numerator
raw = q*A - B first; once A and raw have fewer than 1/64 of q's bits, which
is nearly every step of a deep run, it gets B' = q*B + A as
A*(q*q + 1) - q*raw, one squaring of q plus short multiplies instead of the
big-by-big q*B. The first-term walk, with its small q0, and runs whose
first remainder is still long next to q keep q*B + A.
"""
from __future__ import annotations

from collections import namedtuple

from ._bigint import bigint
from .errors import GenerationCutoffError
from .exactint import exceeds_digits, remainder_step

__all__ = [
    "FormulaTerm",
    "GenerationConfig",
    "MachinFormula",
    "RemainderState",
    "find_first_term",
    "first_term_step",
    "generate",
    "next_term_positive",
    "next_term_signed",
]

MODES = ("signed", "positive")


class RemainderState(namedtuple("RemainderState", "A B delta")):
    """The trailing term delta * arctan(A/B) left over during generation."""

    __slots__ = ()

    def __new__(cls, A, B, delta):
        if A < 0:
            raise ValueError("remainder numerator A must be nonnegative")
        if B <= 0:
            raise ValueError("remainder denominator B must be positive")
        if delta not in (-1, 1):
            raise ValueError("remainder sign delta must be -1 or +1")
        return tuple.__new__(cls, (A, B, delta))

    # _replace builds through _make; send it through __new__'s checks
    _make = classmethod(lambda cls, values: cls(*values))


class FormulaTerm(namedtuple("FormulaTerm", "sign q coefficient")):
    """One term sign * coefficient * arctan(1/q) of an identity."""

    __slots__ = ()

    def __new__(cls, sign, q, coefficient=1):
        if sign not in (-1, 1):
            raise ValueError("term sign must be -1 or +1")
        if q < 1:
            raise ValueError("term denominator q must be positive")
        if coefficient < 1:
            raise ValueError("term coefficient must be at least 1")
        return tuple.__new__(cls, (sign, q, coefficient))

    _make = classmethod(lambda cls, values: cls(*values))


class MachinFormula(namedtuple("MachinFormula", "q0 terms complete final_remainder mode")):
    """A generated identity: pi/4 = m*arctan(1/q0) + sum of signed terms.

    ``terms`` is a tuple of FormulaTerm, the first being m*arctan(1/q0).
    ``complete`` means the remainder reached zero and the term list is an
    exact identity; otherwise the run was cut off and ``final_remainder``
    (a RemainderState, when available) holds the unconsumed tail.
    """

    __slots__ = ()

    def __new__(cls, q0, terms, complete, final_remainder=None, mode="signed"):
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

    _make = classmethod(lambda cls, values: cls(*values))


class GenerationConfig(namedtuple("GenerationConfig", "mode partial max_digits")):
    """How generate() picks terms and when it stops (see generate)."""

    __slots__ = ()

    def __new__(cls, mode="signed", partial=False, max_digits=1_000_000):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if max_digits < 1:
            raise ValueError("max_digits must be at least 1")
        return tuple.__new__(cls, (mode, partial, max_digits))

    _make = classmethod(lambda cls, values: cls(*values))


def first_term_step(state, q0):
    """One subtraction of arctan(1/q0) from a first-term remainder (a, b)."""
    a, b = state
    b2, a2 = remainder_step(b, a, q0, 1)  # (b + a*i) * (q0 - i)
    return a2, b2


# floor(pi/4 * 2^64); c = this / 2^64 is at most pi/4 and arctan(1/q0) < 1/q0,
# so floor(c*q0) is below pi/(4*arctan(1/q0)) and never overshoots m
_PI_QUARTER_Q64 = 0xC90FDAA22168C234


def _first_remainder(q0, m):
    """(b, a) with b + a*i = (1+i) * (q0 - i)^m, by one Gaussian power."""
    x, y = bigint(1), bigint(0)
    for bit in bin(m)[2:]:
        x, y = (x + y) * (x - y), 2 * x * y
        if bit == "1":
            x, y = remainder_step(x, y, q0, 1)
    return x - y, x + y


def _first_term_floor(q0):
    """Subtract arctan(1/q0) while the remainder stays positive.

    Returns (m, a, b, a_next, b_next) for the largest m whose remainder
    arctan(a/b) is still positive; (a_next, b_next) is the very next step,
    where the numerator has turned negative. The walk starts at a lower
    bound on m, at most 2 + q0/2^64 steps short, instead of at zero.
    """
    m = q0 * _PI_QUARTER_Q64 >> 64
    b, a = _first_remainder(q0, m)
    while True:
        b_next, a_next = remainder_step(b, a, q0, 1)
        if a_next < 0:
            return m, a, b, a_next, b_next
        m, a, b = m + 1, a_next, b_next


def _first_term_nearest(q):
    """m, A, B, delta for the bracketing m that leaves the smaller remainder.

    The comparison is done purely on integer cross products.
    """
    m, a, b, a_next, b_next = _first_term_floor(q)
    if a * b_next + b * a_next > 0:  # overshooting leaves the smaller remainder
        return m + 1, -a_next, b_next, -1
    return m, a, b, 1


def _coerce_q0(q0):
    q = bigint(int(q0))
    if q < 2:
        raise ValueError("q0 must be at least 2 (q0 = 1 is the bare arctan(1) identity)")
    return q


def find_first_term(q0):
    """Multiplier m and remainder for the leading term m*arctan(1/q0).

    Of the two bracketing candidates (remainder still positive vs. first
    negative), picks whichever leaves the smaller remainder magnitude.
    """
    m, A, B, delta = _first_term_nearest(_coerce_q0(q0))
    return m, RemainderState(int(A), int(B), delta)


def _pick_signed(A, B):
    """Nearest integer q to B/A (halves round up), and whether q*A == B."""
    q, r = divmod(2 * B + A, 2 * A)
    return q, r == A  # q*A - B == (A - r) / 2


def _pick_positive(A, B):
    """Ceiling q of B/A, and whether q*A == B."""
    q, r = divmod(-B, A)
    return -q, r == 0  # q*A - B == r


def _advance(A, B, delta, q):
    """The remainder (A', B', delta') left after the term delta*arctan(1/q).

    B + delta*A*i times (q - delta*i): the imaginary part is delta*(q*A - B),
    at most A in size, so remainder_step squares q for B' = q*B + A
    whenever A is short next to q.
    """
    B2, y2 = remainder_step(B, delta * A, q, delta)
    return abs(y2), B2, (1 if y2 > 0 else -1) if y2 else delta


def _next_term(state: RemainderState, pick):
    A, B = bigint(state.A), bigint(state.B)
    q, _ = pick(A, B)
    A2, B2, delta2 = _advance(A, B, state.delta, q)
    return FormulaTerm(sign=state.delta, q=int(q)), RemainderState(int(A2), int(B2), delta2)


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
    q = _coerce_q0(q0)
    q0_int = int(q)

    if cfg.mode == "signed":
        m, A, B, delta = _first_term_nearest(q)
        pick = _pick_signed
    else:
        m, A, B, _, _ = _first_term_floor(q)  # keep the positive remainder
        delta, pick = 1, _pick_positive

    terms = [FormulaTerm(sign=1, q=q0_int, coefficient=m)]
    while True:
        qn, exact = pick(A, B)
        terms.append(FormulaTerm(sign=delta, q=int(qn)))
        if exact:  # complete: the B' after this term is never needed
            return MachinFormula(q0_int, tuple(terms), True, None, cfg.mode)
        A, B, delta = _advance(A, B, delta, qn)
        if exceeds_digits(qn, cfg.max_digits):
            if cfg.partial:
                remainder = RemainderState(int(A), int(B), delta)
                return MachinFormula(q0_int, tuple(terms), False, remainder, cfg.mode)
            raise GenerationCutoffError(
                f"term {len(terms) - 1} exceeded {cfg.max_digits} decimal digits; "
                "rerun in partial mode or raise max_digits"
            )
