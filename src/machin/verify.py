"""Independent checks that a formula really is an identity for pi/4.

``fold_formula`` composes every term through the exact arctangent addition
law on raw integers; a complete formula must land on tangent exactly 1.
Adding arctan(1/q) with sign s multiplies the Gaussian integer
P = den + num*i by (q + s*i), so the fold is P = (q0+i)^m * prod(q_k + s_k*i).
It runs in the remainder frame instead: R = (1+i)*conj(P) starts at 1+i and
is multiplied by (q - s*i) per factor. After each term of a generated
formula R equals the generator's own remainder B + delta*A*i, so its
imaginary part stays as small as A while the real part grows, and each
factor costs one big multiply, not the two that P needs. That factor is
``exactint.remainder_step``, the generator's own step: once A (and the
next A) has fewer than 1/64 of q's bits, the multiply is a squaring of q,
x' = s*((q*q + 1)*y - q*y'), cheaper than q times the long real part. The
first term's factors, whose parts are both long, keep q*x + s*y. No
fraction reduction is performed.

``check_identity`` is the check made before a loaded formula is trusted:
it folds a complete formula or the prefix of a partial one and requires
the fold to end on a positive multiple of the recorded remainder.

``float_sanity`` is the quick machine-precision cross check: the plain
double sum 4*(m*atan(1/q0) + sum of s*atan(1/q)).
"""
from __future__ import annotations

import math

from ._bigint import bigint
from .errors import FoldError, IncompleteFormulaError
from .exactint import Ratio, remainder_step

__all__ = ["check_identity", "float_sanity", "fold_formula"]


def _fold(formula):
    """R = (1+i) * conj(P) after every term, as its parts (x, y)."""
    x, y = bigint(1), bigint(1)
    for term in formula.terms:
        q, s = bigint(term.q), term.sign
        for _ in range(term.coefficient):
            x, y = remainder_step(x, y, q, s)
            if x == -y:  # x + y == 0, without forming the sum
                raise FoldError("fold passed through tangent pi/2 (zero denominator)")
    return x, y


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
    x, y = _fold(formula)
    return Ratio(int((x - y) >> 1), int((x + y) >> 1))


def check_identity(formula) -> None:
    """Raise unless the formula plus its remainder is exactly pi/4.

    A complete formula must fold to a positive real R (tangent 1 with a
    positive denominator). A partial one must fold to a positive multiple
    of its final remainder B + delta*A*i: cross product zero, dot product
    positive. Raises IncompleteFormulaError for a partial formula that
    carries no remainder, FoldError when the check fails.
    """
    rem = formula.final_remainder
    if not formula.complete and rem is None:
        raise IncompleteFormulaError("a partial formula without its remainder cannot be checked")
    b, a = (rem.B, rem.delta * rem.A) if rem is not None else (1, 0)
    x, y = _fold(formula)
    if x * a != y * b or x * b + y * a <= 0:
        end = "tangent 1" if rem is None else "the recorded remainder"
        raise FoldError(f"the fold does not end on {end}")


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
