"""Lehmer measure of a formula: sum of 1/log10(q) over its denominators.

A smaller measure means fewer Maclaurin terms overall when the formula is
used to compute pi. For an incomplete formula the sum of the missing
terms is smaller than the last kept term's contribution, so doubling that
contribution yields an upper bound for the true measure.
"""
from __future__ import annotations

from collections import namedtuple

from .exactint import log10_approx

__all__ = ["LehmerResult", "lehmer_measure"]


class LehmerResult(namedtuple("LehmerResult", "value is_upper_bound bound_3_over_lg_q0")):
    """The measure (a float), whether it is an upper bound, and 3/lg(q0)."""

    __slots__ = ()


def lehmer_measure(formula) -> LehmerResult:
    """Measure a formula; incomplete ones report an upper bound.

    Each distinct denominator contributes 1/lg(q) once, regardless of the
    first term's coefficient. Incomplete formulas need at least two terms
    (the bound rule has nothing to double otherwise) and get the last
    contribution counted twice, with ``is_upper_bound`` set.
    """
    if not getattr(formula, "terms", ()):
        raise ValueError("formula has no terms to measure")
    if not formula.complete and len(formula.terms) < 2:
        raise ValueError("an incomplete formula needs at least 2 terms for the bound")
    value = 0.0
    last = 0.0
    for term in formula.terms:
        if term.q < 2:
            raise ValueError("every denominator must be at least 2 (lg 1 = 0)")
        last = 1.0 / log10_approx(term.q)
        value += last
    if not formula.complete:
        value += last
    return LehmerResult(
        value=value,
        is_upper_bound=not formula.complete,
        bound_3_over_lg_q0=3.0 / log10_approx(formula.terms[0].q),
    )
