"""Machin-like identity generation via exact integer recurrences.

Starting from arctan(1) = pi/4, the generator first finds the multiplier m
for the leading term m*arctan(1/q0) by following the integer pair
(a, b) -> (q0*a - b, q0*b + a) until the numerator changes sign, then keeps
splitting single arctangent terms off the remainder arctan(A/B) until it
vanishes (a complete identity) or a digit budget stops the run (a partial
identity). Two term-selection rules are supported:

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

from dataclasses import dataclass

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


@dataclass(frozen=True)
class RemainderState:
    """The trailing term delta * arctan(A/B) left over during generation."""

    A: int
    B: int
    delta: int

    def __post_init__(self):
        if self.A < 0:
            raise ValueError("remainder numerator A must be nonnegative")
        if self.B <= 0:
            raise ValueError("remainder denominator B must be positive")
        if self.delta not in (-1, 1):
            raise ValueError("remainder sign delta must be -1 or +1")


@dataclass(frozen=True)
class FormulaTerm:
    """One term sign * coefficient * arctan(1/q) of an identity."""

    sign: int
    q: int
    coefficient: int = 1

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("term sign must be -1 or +1")
        if self.q < 1:
            raise ValueError("term denominator q must be positive")
        if self.coefficient < 1:
            raise ValueError("term coefficient must be at least 1")


@dataclass(frozen=True)
class MachinFormula:
    """A generated identity: pi/4 = m*arctan(1/q0) + sum of signed terms.

    ``complete`` means the remainder reached zero and the term list is an
    exact identity; otherwise the run was cut off and ``final_remainder``
    (when available) holds the unconsumed tail.
    """

    q0: int
    terms: tuple[FormulaTerm, ...]
    complete: bool
    final_remainder: RemainderState | None = None
    mode: str = "signed"

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a formula needs at least one term")
        first = self.terms[0]
        if first.q != self.q0 or self.q0 < 2:
            raise ValueError("the first term must be arctan(1/q0) with q0 >= 2")
        if first.sign != 1:
            raise ValueError("the first term is always positive")
        for earlier, later in zip(self.terms, self.terms[1:]):
            if later.coefficient != 1:
                raise ValueError("only the first term may carry a coefficient")
            if later.q <= earlier.q:
                raise ValueError("term denominators must strictly increase")
        if self.complete and self.final_remainder is not None:
            raise ValueError("a complete formula has no remainder")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


@dataclass(frozen=True)
class GenerationConfig:
    mode: str = "signed"
    partial: bool = False
    max_digits: int = 1_000_000

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.max_digits < 1:
            raise ValueError("max_digits must be at least 1")


def first_term_step(state, q0):
    """One subtraction of arctan(1/q0) from a first-term remainder (a, b)."""
    a, b = state
    b2, a2 = remainder_step(b, a, q0, 1)  # (b + a*i) * (q0 - i)
    return a2, b2


def _first_term_floor(q0):
    """Subtract arctan(1/q0) while the remainder stays positive.

    Returns (m, a, b, a_next, b_next) for the largest m whose remainder
    arctan(a/b) is still positive; (a_next, b_next) is the very next step,
    where the numerator has turned negative.
    """
    m, a, b = 0, bigint(1), bigint(1)
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
