"""Independent checks that a formula really is an identity for pi/4.

``fold_formula`` composes every term through the exact arctangent addition
law on raw integers; a complete formula must land on tangent exactly 1.
Adding arctan(1/q) with sign s multiplies the Gaussian integer
P = den + num*i by (q + s*i), so the fold is P = (q0+i)^m * prod(q_k + s_k*i).
It runs in the remainder frame instead: R = (1+i)*conj(P) starts at 1+i and
is multiplied by (q - s*i) per factor. After each term of a generated
formula R equals the generator's own remainder B + delta*A*i, so its
imaginary part stays as small as A while the real part grows, and each
factor costs one big multiply, not the two that P needs. The fold shares
the generator's core: the first term is one Gaussian power,
(1+i)*(q0 - i)^m by ``exactint.remainder_power``, and every later term is
one ``exactint.remainder_step``. No fraction reduction is performed.

``check_identity`` is the check made before a loaded formula is trusted.
It treats a complete formula as a partial one whose remainder is its last
term s*arctan(1/q): it folds every term before the remainder and has one
end test, that the fold is a positive multiple of b + a*i, with
(b, a) = (B, delta*A) for a recorded remainder and (q, s) for a last term,
so a complete formula's largest q is never multiplied into the fold. The
fold fixes the sum of the arctangents only modulo 2*pi, so the check also
encloses that sum and requires it to lie within 2*pi of pi/4.

``float_sanity`` is the quick machine-precision cross check: the plain
double sum 4*(m*atan(1/q0) + sum of s*atan(1/q)).
"""
from __future__ import annotations

import math

from ._bigint import bigint
from .errors import FoldError, IncompleteFormulaError
from .exactint import Ratio, remainder_power, remainder_step

__all__ = ["check_identity", "float_sanity", "fold_formula"]

# pi/2 lies in [_HALF_PI, _HALF_PI + 1) * 2^-64
_HALF_PI = 0x1921FB54442D18469


def _fold(terms):
    """R = (1+i) * conj(P) after every term, as its parts (x, y).

    The first term's coefficient-many factors are one Gaussian power, and
    every later term is one step. For q0 >= 2, q0 + i has a Gaussian prime
    factor of odd norm whose conjugate does not divide it, so no power of
    it is real or purely imaginary: only the later steps can reach tangent
    pi/2.
    """
    first = terms[0]
    x, y = remainder_power(bigint(first.q), first.coefficient)
    for term in terms[1:]:
        x, y = remainder_step(x, y, bigint(term.q), term.sign)
        if x == -y:  # x + y == 0, without forming the sum
            raise FoldError("fold passed through tangent pi/2 (zero denominator)")
    return x, y


def fold_formula(formula) -> Ratio:
    """Fold a complete formula into one arctangent, the tangent num/den.

    Starts from arctan(0/1), adds the first term m*arctan(1/q0) as one
    Gaussian power, then each signed term. Raises FoldError if a fold lands
    exactly on a zero denominator (tangent through pi/2), which cannot
    happen for formulas produced by the generator. The result equals the
    plain tangent-addition fold num/den exactly, without reduction.
    An identity folds to num == den, but so does a sum of 5*pi/4 (the
    Ratio carries the sign in num) or of 9*pi/4: ``check_identity``, not
    this tangent, decides whether a formula is an identity.
    """
    if not formula.complete:
        raise IncompleteFormulaError("cannot verify a partial formula as an identity")
    # x + y*i = (1+i)*(den - num*i): x = den + num, y = den - num
    x, y = _fold(formula.terms)
    return Ratio((x - y) >> 1, (x + y) >> 1)


def _check_branch(formula):
    """Raise FoldError unless the formula sums to within 2*pi of pi/4.

    Each c*arctan(x), with x = 1/q or a remainder's A/B, is enclosed by
    x - x^3/3 <= arctan x <= x after rounding x to 2^-64 both ways; for
    x > 1, arctan x = pi/2 - arctan(1/x) with pi/2 rounded both ways to
    2^-64 as well. As pi > 3, the values pi/4 - 2*pi and pi/4 + 2*pi lie
    outside [-21/4, 27/4], so a sum enclosed in that interval that is
    congruent to pi/4 modulo 2*pi is pi/4.
    """
    rem = formula.final_remainder
    parts = [(term.sign * term.coefficient, 1, term.q) for term in formula.terms]
    if rem is not None:
        parts.append((rem.delta, rem.A, rem.B))
    lo = hi = 0  # bounds on the sum, in units of 2^-192
    for c, a, b in parts:
        flip = a > b
        if flip:
            a, b = b, a
        x = (a << 64) // b  # a/b lies in [x, x + 1) * 2^-64
        # x*2^-64 - (x + 1)^3*2^-192/3 rounded down, and (x + 1)*2^-64
        lower, upper = (x << 128) + (-(x + 1) ** 3 // 3), (x + 1) << 128
        if flip:
            lower, upper = (_HALF_PI << 128) - upper, ((_HALF_PI + 1) << 128) - lower
        if c < 0:
            lower, upper = upper, lower
        lo, hi = lo + c * lower, hi + c * upper
    if 4 * lo <= -21 << 192 or 4 * hi >= 27 << 192:
        raise FoldError("the terms do not sum to within 2*pi of pi/4")


def check_identity(formula) -> None:
    """Raise unless the formula plus its remainder is exactly pi/4.

    The terms before the remainder must fold to a positive multiple of
    b + a*i: B + delta*A*i for a partial formula, q + s*i for a complete
    one's last term s*arctan(1/q), whose factor then takes the fold to a
    positive real. As b > 0, that is x*a == y*b and x > 0. The sum must
    also lie within 2*pi of pi/4, which the fold alone cannot tell. Raises
    IncompleteFormulaError for a partial formula that carries no
    remainder, FoldError when the check fails.
    """
    rem = formula.final_remainder
    if rem is None and not formula.complete:
        raise IncompleteFormulaError("a partial formula without its remainder cannot be checked")
    _check_branch(formula)
    if rem is not None:
        terms, b, a, end = formula.terms, rem.B, rem.delta * rem.A, "the recorded remainder"
    else:
        *terms, last = formula.terms
        b, a, end = last.q, last.sign, "tangent 1"
    if not terms:  # m*arctan(1/q0) alone: no power of q0 + i is real
        raise FoldError(f"the fold does not end on {end}")
    x, y = _fold(terms)
    if x * a != y * b or x <= 0:
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
