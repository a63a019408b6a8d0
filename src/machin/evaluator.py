"""Digit-accurate pi from a formula, on an audited error budget.

The plan splits the requested error eps = 10^-digits into a tail cut eps1
(terms small enough to drop) and a per-arctangent Maclaurin allowance
eps2, then finds the shortest series length K for every kept term. All
threshold comparisons are exact integer cross-multiplications; nothing is
decided by floating point.

Evaluation runs in fixed point: integer mantissas at a common power-of-ten
scale with guard digits, every division floored. The final digit string is
truncated only after checking that the rigorous error interval does not
straddle the truncation boundary; if it does, the whole evaluation repeats
with a finer budget.
"""
from __future__ import annotations

from collections import namedtuple

from ._bigint import bigint
from .errors import PrecisionUnachievableError
from .exactint import decimal_digits, to_decimal_string

__all__ = [
    "FixedPoint",
    "PrecisionBudget",
    "arctan_recip_fixed",
    "compute_pi",
    "plan_budget",
]


class FixedPoint(namedtuple("FixedPoint", "mantissa scale")):
    """An exact decimal fixed-point value: mantissa * 10^-scale."""

    __slots__ = ()


class PrecisionBudget(namedtuple(
        "PrecisionBudget", "epsilon epsilon1 epsilon2 accepted_terms maclaurin_lengths")):
    """The error plan for one evaluation.

    epsilon is the requested bound, epsilon1 the tail cut, epsilon2 the
    per-term Maclaurin allowance, all three Fractions; maclaurin_lengths
    holds the minimal K for each of the accepted_terms leading terms.
    """

    __slots__ = ()


def plan_budget(formula, digits: int) -> PrecisionBudget:
    """Pick the terms and Maclaurin lengths needed for 10^-digits accuracy.

    Terms are kept up to the first one with 1/q < eps1; everything from
    that term on (including anything never generated) is covered by the
    tail bound, because the remainder the formula left behind at the cut
    is exactly the sum of all dropped terms. A partial formula whose last
    term is still too small to anchor the cut cannot reach the requested
    precision and is rejected.
    """
    from fractions import Fraction  # its only user; kept out of `import machin`

    if digits < 1:
        raise ValueError("digits must be at least 1")
    eps = Fraction(1, 10 ** digits)
    eps1 = eps / (2 + eps)
    terms = formula.terms

    cut = len(terms)
    for k in range(1, len(terms)):  # the leading term is always kept
        # exclude from the first term with 1/q < eps1
        if terms[k].q * eps1.numerator > eps1.denominator:
            cut = k
            break
    if not formula.complete and cut == len(terms):
        raise PrecisionUnachievableError(
            f"partial formula ends at a {decimal_digits(terms[-1].q)}-digit term; "
            f"too short to bound the tail below 10^-{digits}"
        )

    m = terms[0].coefficient
    eps2 = eps1 / ((1 - eps1) * (m + cut - 1))
    lengths = []
    for term in terms[:cut]:
        q = bigint(term.q)
        power = q ** 3  # q^(2K+3) at K = 0
        K = 0
        # smallest K with 1/((2K+3)*q^(2K+3)) < eps2, cross-multiplied
        while (2 * K + 3) * power * eps2.numerator <= eps2.denominator:
            K += 1
            power *= q * q
        lengths.append(K)
    return PrecisionBudget(eps, eps1, eps2, cut, tuple(lengths))


def arctan_recip_fixed(q, K: int, scale: int) -> FixedPoint:
    """Maclaurin value of arctan(1/q) with K+1 terms at the given scale.

    Every term is a floored division, so the result differs from the true
    arctangent by less than 1/((2K+3)*q^(2K+3)) + (K+1)*10^-scale.
    """
    if q < 2:
        raise ValueError("arctan_recip_fixed requires q >= 2")
    if K < 0 or scale < 0:
        raise ValueError("K and scale must be nonnegative")
    qb = bigint(q)
    base = bigint(10) ** scale
    q_sq = qb * qb
    power = qb  # q^(2k+1)
    mantissa = bigint(0)
    for k in range(K + 1):
        piece = base // ((2 * k + 1) * power)
        mantissa = mantissa - piece if k & 1 else mantissa + piece
        if k < K:
            power *= q_sq
    return FixedPoint(int(mantissa), scale)


def compute_pi(formula, digits: int) -> str:
    """pi as "3." plus at least `digits` correct decimal digits.

    Runs plan_budget at a slightly finer precision than asked (the budget
    bounds pi/4, the output is pi), sums the per-term fixed-point
    arctangents exactly, and certifies the printed digits against the
    rigorous error interval. In the rare case the interval straddles a
    truncation boundary, the budget is tightened and evaluation repeats.
    """
    if digits < 1:
        raise ValueError("digits must be at least 1")
    target = digits + 2
    for _ in range(64):
        budget = plan_budget(formula, target)
        ops = sum(k + 1 for k in budget.maclaurin_lengths)
        scale = target + 10 + len(str(ops))
        acc = 0
        floor_ops = 0
        for term, K in zip(formula.terms[: budget.accepted_terms], budget.maclaurin_lengths):
            part = arctan_recip_fixed(term.q, K, scale)
            acc += term.sign * term.coefficient * part.mantissa
            floor_ops += term.coefficient * (K + 1)
        value = 4 * acc
        # 4x the budgeted series error plus 4x one floored ulp per division
        half_width = 4 * floor_ops + 4 * 10 ** (scale - target)
        cell = 10 ** (scale - digits)
        if (value - half_width) // cell == (value + half_width) // cell:
            mantissa = value // cell
            text = to_decimal_string(mantissa)
            if len(text) != digits + 1:
                raise ArithmeticError("internal error: pi mantissa has unexpected width")
            return text[0] + "." + text[1:]
        target += 2
    raise ArithmeticError("internal error: truncation interval failed to settle")
