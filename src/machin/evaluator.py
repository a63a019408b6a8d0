"""Digit-accurate pi from a formula, on an audited error budget.

The plan splits the requested error eps = 10^-digits into a tail cut eps1
(terms small enough to drop) and a per-arctangent Maclaurin allowance
eps2, then finds the shortest series length K for every kept term. With
T = 10^digits both are 1 over an integer, so every threshold is an integer
comparison; a floating-point estimate only proposes each K, and exact
comparisons confirm it.

Evaluation runs in fixed point: integer mantissas at a common power-of-ten
scale with guard digits, every division floored. The final digit string is
truncated only after checking that the rigorous error interval does not
straddle the truncation boundary; if it does, the whole evaluation repeats
with a finer budget.

The kept series are independent, so compute_pi splits them across the
usable CPUs: the caller sums one bin of terms and a forked child sums each
other bin, sending its exact partial sum back over a pipe. The total, and
so every printed digit, is the same as the serial sum's. There is no knob:
the split happens only where os.fork exists, two or more CPUs are usable,
no other thread is alive, two or more terms are kept and the work estimate
reaches _FORK_WORK; otherwise the series run one after another here.
"""
from __future__ import annotations

import math
import os
import sys
from collections import namedtuple
from operator import index

from ._bigint import bigint
from .errors import PrecisionUnachievableError
from .exactint import Ratio, Record, log10_approx, to_decimal_string

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

    Every term is a floored division, so mantissa * 10^-scale differs from
    the true arctangent by less than 1/((2K+3)*q^(2K+3)) + (K+1)*10^-scale.
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
    for k in range(K + 1):
        piece = base // ((2 * k + 1) * power)
        mantissa = mantissa - piece if k & 1 else mantissa + piece
        if k < K:
            power *= q_sq
    return int(mantissa)


# The work estimate, sum of (K+1) * scale^2 over the kept terms in digit^2
# units (floored divisions times the squared width of what is divided), at
# which a forked split starts to pay: measured in fresh interpreters running
# mixed sizes (700 to 8000 digits), forked ops lost at 10^8.9..10^9.0 and won
# at 10^9.0..10^9.1. Both this constant and the K+1 weights model the
# current cubic series (each term a full-width division) and must be fitted
# again when the series changes.
_FORK_WORK = 10 ** 9


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _series_sum(kept, scale):
    return sum(term.sign * term.coefficient * arctan_recip_fixed(term.q, K, scale)
               for term, K in kept)


def _split(kept, scale):
    """The kept terms in bins for one process each, longest first on K+1.

    One bin unless os.fork exists, no other thread is alive, two CPUs are
    usable, two terms are kept and the work reaches _FORK_WORK.
    """
    threading = sys.modules.get("threading")
    if (not hasattr(os, "fork") or len(kept) < 2
            or threading is not None and threading.active_count() > 1
            or sum(K + 1 for _, K in kept) * scale * scale < _FORK_WORK):
        return [kept]
    bins = [[] for _ in range(min(_usable_cpus(), len(kept)))]
    loads = [0] * len(bins)
    for term, K in sorted(kept, key=lambda pair: -pair[1]):
        i = loads.index(min(loads))
        bins[i].append((term, K))
        loads[i] += K + 1
    return bins


def _spawn(part, scale):
    """(pid, pipe) of a child writing part's exact sum, or None if fork fails."""
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:  # the child: it leaves only through os._exit
        code = 1
        try:
            os.close(r)
            value = int(_series_sum(part, scale))
            with open(w, "wb") as pipe:
                pipe.write(value.to_bytes(value.bit_length() // 8 + 1, "little", signed=True))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _arctan_sum(kept, scale):
    """Σ sign * coefficient * arctan_recip_fixed(q, K, scale) over kept.

    All bins but the first run in forked children, which send their exact
    partial sums back over pipes; the caller sums the first bin. A bin whose
    child cannot start or does not exit 0 is summed here instead, and if
    anything raises here, every child is killed and reaped first.
    """
    own, *others = _split(kept, scale)
    children = []
    try:
        for part in others:
            child = _spawn(part, scale)
            if child is None:
                own += part
            else:
                children.append((*child, part))
        total = _series_sum(own, scale)
        while children:
            pid, pipe, part = children[-1]
            data = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            children.pop()
            if status == 0:
                total += int.from_bytes(data, "little", signed=True)
            else:
                total += _series_sum(part, scale)
        return total
    except BaseException:
        from signal import SIGKILL  # not loaded at start, so only on this path
        for pid, pipe, _ in children:
            pipe.close()
            try:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
            except OSError:  # reaped just before the exception, not yet popped
                pass
        raise


def compute_pi(formula, digits: int) -> str:
    """pi as "3." plus at least `digits` correct decimal digits.

    Runs plan_budget at a slightly finer precision than asked (the budget
    bounds pi/4, the output is pi), sums the per-term fixed-point
    arctangents exactly, and certifies the printed digits against the
    rigorous error interval. When the interval straddles a truncation
    boundary, the budget is tightened and evaluation repeats. The interval
    is a little over 0.08 units of the last printed digit wide, so about
    one request in twelve repeats (256 of 3000 seeded requests, q0 in
    [100, 880], 50 to 1500 digits).

    The series sum is split across forked children when that pays (see the
    module docstring and _FORK_WORK): the output is identical either way,
    and below _FORK_WORK, with one usable CPU, with a live thread or without
    os.fork, every series runs here.
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
        floor_ops = sum(term.coefficient * (K + 1) for term, K in kept)
        scale = target + 10 + len(str(floor_ops))
        value = 4 * _arctan_sum(kept, scale)
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
