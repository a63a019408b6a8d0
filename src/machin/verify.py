"""Independent checks that a formula really is an identity for pi/4.

``fold_formula`` composes every term through the exact arctangent addition
law on raw integers; a complete formula must land on tangent exactly 1.
Adding arctan(1/q) with sign s multiplies the Gaussian integer
P = den + num*i by (q + s*i), so the fold is P = (q0+i)^m * prod(q_k + s_k*i).
It runs in the remainder frame instead: R = (1+i)*conj(P) starts at 1+i and
is multiplied by (q - s*i) per factor. After each term of a generated
formula R equals the generator's own remainder B + delta*A*i, so its
imaginary part stays as small as A while the real part grows, and each
factor costs one big multiply, not the two that P needs. No fraction
reduction is performed.

``float_sanity`` is the quick machine-precision cross check: the plain
double sum 4*(m*atan(1/q0) + sum of s*atan(1/q)).
"""
from __future__ import annotations

import math

from ._bigint import bigint
from .errors import FoldError, IncompleteFormulaError
from .exactint import Ratio

__all__ = ["float_sanity", "fold_formula"]


def fold_formula(formula) -> Ratio:
    """Fold a complete formula into one arctangent; identity iff num == den.

    Starts from arctan(0/1) and adds the first term coefficient-many
    times, then each signed term. Raises FoldError if a fold ever lands
    exactly on a zero denominator (tangent through pi/2), which cannot
    happen for formulas produced by the generator. The result equals the
    plain tangent-addition fold num/den exactly, without reduction.
    """
    if not formula.complete:
        raise IncompleteFormulaError("cannot verify a partial formula as an identity")
    # x + y*i = (1+i)*(den - num*i): x = den + num, y = den - num
    x, y = bigint(1), bigint(1)
    for term in formula.terms:
        q, s = bigint(term.q), term.sign
        for _ in range(term.coefficient):
            x, y = q * x + s * y, q * y - s * x
            if x + y == 0:
                raise FoldError("fold passed through tangent pi/2 (zero denominator)")
    return Ratio(int((x - y) >> 1), int((x + y) >> 1))


def float_sanity(formula) -> float:
    """Machine-precision value of the formula times 4 (should be close to pi).

    Denominators beyond the double range make 1/q underflow to zero and
    drop out on their own, so partial formulas are fine here.
    """
    first = formula.terms[0]
    total = first.coefficient * math.atan(first.sign / first.q)
    for term in formula.terms[1:]:
        total += math.atan(term.sign / term.q)
    return 4.0 * total
