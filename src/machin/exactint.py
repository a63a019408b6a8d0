"""Exact unbounded-integer primitives.

The base of the library's records and an integer-fraction record, the
Gaussian-integer step and power that the generator and the fold share, a
floored divmod for long operands, a base-10 logarithm that is correctly
rounded to a double for integers of any size without ever converting the
full value to a machine float, and a decimal codec for integers of any
size.

The divmod is subquadratic without gmpy2: once the divisor and the
quotient are both long (the cut-offs of CPython 3.12's own division), it
divides by Burnikel & Ziegler's recursion, which turns one long division
into multiplications and short divisions. The pi series and the
generator's term picks divide through it. CPython 3.11 divides in
quadratic time and multiplies with Karatsuba; there a 6.6M-bit by
3.3M-bit divmod takes about 1.1 s this way and 19 s built in.

The logarithm runs in integer fixed point at 2^-128 (an atanh series and
two rounded constants) and keeps a proven error interval; only when that
interval straddles a rounding boundary of doubles does it fall back to
50-digit ``decimal`` arithmetic.

The codec is subquadratic without gmpy2 (divide-and-conquer radix
conversion, Brent & Zimmermann, *Modern Computer Arithmetic*, §1.7). It
pads its input to a leaf size k times a power of two, so every split halves
a piece exactly and all the pieces of one level recombine with one power:
the built-in ``**`` with exponent k at the lowest level, and above it the
square of the power one level down. It never reads or changes the
interpreter's int/str digit limit: the only built-in ``str()``/``int()``
conversions it makes are on pieces of at most 640 digits, the lowest value
that limit can take.
"""
from __future__ import annotations

from collections import namedtuple
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, localcontext
from functools import lru_cache
from operator import index

from ._bigint import HAVE_GMPY2, bigint

__all__ = [
    "Ratio",
    "Record",
    "big_divmod",
    "decimal_digits",
    "exceeds_digits",
    "from_decimal_string",
    "log10_approx",
    "remainder_power",
    "remainder_step",
    "to_decimal_string",
]

# 56 digits of log10(2); enough that shift * LOG10_2 stays exact far below
# the final double rounding even for billion-bit inputs.
_LOG10_2 = Decimal("0.30102999566398119521373889472449302676818988146210854131")
# log10(2) and ln(10) at 2^-128, each rounded to the nearest integer
_LOG10_2_Q128 = 0x4D104D427DE7FBCC47C4ACD605BE48BC
_LN10_Q128 = 0x24D763776AAA2B05BA95B58AE0B4C28A4
# bounds the error of _log10_head's series (under 112 units of 2^-128)
_SERIES_ERR = 128
# _log10_head's fallback context, whatever traps and precision the caller set
_FALLBACK = Context(prec=50)

# Largest pieces the codec hands to the built-in str()/int(): 2**2126 < 10**640,
# and 640 digits is the lowest int/str limit an interpreter accepts.
_LEAF_BITS = 2126
_LEAF_DIGITS = 640
# Integer-valued Decimal arithmetic that is exact at any size (or raises).
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
# remainder_step squares q once y and y' both have fewer than 1/64 of q's
# bits. Against q*x, with y' as short as y, the squared form broke even near
# 1/32 for a 20-80 kbit q and near 1/48 for 0.3-1.2 Mbit, and won 6-20% at
# 1/64 (CPython 3.11, no gmpy2; a square costs 0.6-0.7 of a multiply there).
_SQUARE_RATIO = 64
# big_divmod divides recursively once the divisor has more than _DIV_BITS bits
# and the quotient more than _DIV_QUOTIENT_BITS, where CPython 3.12's own //
# turns recursive (300 and 150 30-bit digits). For an 8000-digit compute_pi
# (CPython 3.11, no gmpy2, medians of 12) these took 309 ms, 4000/2000 and
# 6000/3000 bits 286 ms, 12000/6000 bits 328 ms and the built-in alone 368 ms.
# The 7% of the lower sets is one sitting's; pi below about 4000 digits and
# complete runs up to q0 = 20 never divide recursively at these values.
_DIV_BITS = 9000
_DIV_QUOTIENT_BITS = 4500


class Record:
    """What the library's named tuples share, put first among their bases.

    _replace builds through _make, which is sent through the record's own
    __new__ and its checks. The repr is the text namedtuple prints, but int
    fields go through to_decimal_string, so the interpreter's int/str digit
    limit never applies.
    """

    __slots__ = ()

    _make = classmethod(lambda cls, values: cls(*values))

    def __repr__(self):
        fields = ", ".join(
            f"{name}={to_decimal_string(value) if type(value) is int else repr(value)}"
            for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"


class Ratio(Record, namedtuple("Ratio", "num den")):
    """An integer fraction num/den with den > 0 (the sign lives in num)."""

    __slots__ = ()

    def __new__(cls, num, den):
        num, den = index(num), index(den)
        if den == 0:
            raise ValueError("Ratio denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        return tuple.__new__(cls, (num, den))


def remainder_step(x, y, q, s):
    """(x + y*i) * (q - s*i) for s = +1 or -1, as (q*x + s*y, q*y - s*x).

    y' = q*y - s*x comes first. When y and y' are both short next to q,
    x' = s*((q*q + 1)*y - q*y') costs one squaring of q plus multiplies by
    short numbers, where q*x would be a big-by-big multiply. Otherwise x'
    is q*x + s*y. Either way the result is exact.
    """
    # s*x and s*y would each cost a pass as long as a multiply by a small q
    y2 = q * y - x if s > 0 else q * y + x
    if max(y.bit_length(), y2.bit_length()) * _SQUARE_RATIO < q.bit_length():
        u, v = (q * q + 1) * y, q * y2
        return (u - v if s > 0 else v - u), y2
    return (q * x + y if s > 0 else q * x - y), y2


def remainder_power(q, m):
    """(1+i) * (q - i)^m as (x, y), the remainder frame of m*arctan(1/q).

    Equal to m calls x, y = remainder_step(x, y, q, 1) from (1, 1), but by
    binary powering: one squaring per bit of m and one step per set bit.
    """
    m = index(m)
    if m < 0:
        raise ValueError("remainder_power requires m >= 0")
    x, y = bigint(1), bigint(0)
    for bit in bin(m)[2:]:
        x, y = (x + y) * (x - y), 2 * x * y
        if bit == "1":
            x, y = remainder_step(x, y, q, 1)
    return x - y, x + y


def big_divmod(a, b):
    """divmod(a, b) for ints, in subquadratic time when b and a // b are long.

    Below the cut-offs (_DIV_BITS, _DIV_QUOTIENT_BITS), and on gmpy2, this
    is the built-in divmod. Above them the quotient of |a| by |b| comes from
    Burnikel & Ziegler's recursive division (Brent & Zimmermann, *Modern
    Computer Arithmetic*, section 1.4.3), and the signs follow the floor
    rule: the remainder takes b's sign.
    """
    n = b.bit_length()
    if HAVE_GMPY2 or n <= _DIV_BITS or a.bit_length() - n <= _DIV_QUOTIENT_BITS:
        return divmod(a, b)
    q, r = _bz_divmod(abs(a), abs(b))
    if (a < 0) != (b < 0):
        q, r = (-q, r) if r == 0 else (~q, abs(b) - r)  # ~q == -q - 1
    return (q, -r) if b < 0 else (q, r)


def _bz_divmod(a, b):
    """divmod(a, b) for a >= 0 and b > 0.

    With n = b.bit_length(), an a below b << n takes one _bz_2n_1n. A longer
    a is cut at a multiple of n so that its high part holds about half the
    quotient; the high part's remainder then heads the low part.
    """
    n = b.bit_length()
    if a >> n < b:
        return _bz_2n_1n(a, b, n)
    s = n * max(1, (a.bit_length() - n) // (2 * n))
    q_hi, r = _bz_divmod(a >> s, b)
    q_lo, r = _bz_divmod(r << s | a & ((1 << s) - 1), b)
    return q_hi << s | q_lo, r


def _bz_2n_1n(a, b, n):
    """divmod(a, b) for a b of exactly n bits and 0 <= a < b << n.

    The quotient has at most n bits. With h = n/2 its high and low h bits
    each come from one _bz_3h_2h; an odd n is made even first by doubling a
    and b, which leaves the quotient and doubles the remainder.
    """
    if n <= _DIV_BITS or a.bit_length() - n <= _DIV_QUOTIENT_BITS:
        return divmod(a, b)
    odd = n & 1
    a, b, n = a << odd, b << odd, n + odd
    h = n >> 1
    b_hi, b_lo = b >> h, b & ((1 << h) - 1)
    q_hi, r = _bz_3h_2h(a >> h, b, b_hi, b_lo, h)
    q_lo, r = _bz_3h_2h(r << h | a & ((1 << h) - 1), b, b_hi, b_lo, h)
    return q_hi << h | q_lo, r >> odd


def _bz_3h_2h(x, b, b_hi, b_lo, h):
    """divmod(x, b) for b = b_hi << h | b_lo of exactly 2h bits and 0 <= x < b << h.

    The quotient, under 2^h, is first estimated as (x >> h) // b_hi, capped
    at 2^h - 1. Since b_hi has its top bit set, the estimate is never low
    and at most 2 high, so at most two corrections by b follow.
    """
    top = x >> h
    if top >> h == b_hi:  # the estimate would reach 2^h
        q, r = (1 << h) - 1, top - (b_hi << h) + b_hi  # r = top - q * b_hi
    else:
        q, r = _bz_2n_1n(top, b_hi, h)
    r = (r << h | x & ((1 << h) - 1)) - q * b_lo
    while r < 0:
        q -= 1
        r += b
    return q, r


def log10_approx(x) -> float:
    """log10(x) for a positive integer of any size.

    Works from the leading 64 bits plus the bit length. The logarithm of
    that value is carried through 128-bit fixed-point arithmetic with a
    proven error bound (50-digit decimal arithmetic when the bound cannot
    decide the last bit), so the only error left is the final rounding to
    a double. Powers of ten come out exact.
    """
    n = index(x)
    if n <= 0:
        raise ValueError("log10_approx requires a positive integer")
    shift = max(n.bit_length() - 64, 0)
    return _log10_head(n >> shift, shift)


@lru_cache(maxsize=256)
def _log10_head(head: int, shift: int) -> float:
    """log10(head * 2**shift); keyed on small ints, so a formula's terms
    measured once for the Lehmer sum cost nothing more to write out.

    With head = 2^e * (1 + t), ln(1 + t) = 2*atanh(u) for u = t/(2 + t)
    <= 1/3, summed as floored terms in fixed point at 2^-128 (Brent &
    Zimmermann, *Modern Computer Arithmetic*, section 4.4). The sum falls
    short of atanh(u) * 2^128 by less than 3 units per term, at most 41
    terms, plus 2 for the series left out; divided by ln 10 that is under
    112 units of log10. Rounding ln 10 and log10 2 to 2^-128 adds 1/2 unit
    per multiple of log10 2. So y, the value in units of 2^-128, lies
    within err = _SERIES_ERR + e + shift of the true value (e + shift when
    t = 0), and so does the 50-digit Decimal result, whose error is below
    10^-10 * (e + shift + 1) units. When both ends of that interval round
    to the same double, so does either value. Otherwise (for a random
    head, less than once in 2^65 calls) the Decimal computation decides.
    """
    e = head.bit_length() - 1
    num, den = head - (1 << e), head + (1 << e)  # u = num/den
    y = (e + shift) * _LOG10_2_Q128
    err = e + shift
    if num:
        u = (num << 128) // den
        u2 = u * u >> 128
        term, atanh, k = u, 0, 1
        while term:
            atanh += term // k
            term = term * u2 >> 128
            k += 2
        y += (atanh << 129) // _LN10_Q128
        err += _SERIES_ERR
    low = (y - err) / (1 << 128)  # int / int is correctly rounded
    if low == (y + err) / (1 << 128):
        return low
    with localcontext(_FALLBACK):
        # shift * _LOG10_2 is an exact zero when shift is 0
        return float(Decimal(head).log10() + shift * _LOG10_2)


def decimal_digits(x) -> int:
    """Exact number of decimal digits of |x| (zero counts as one digit)."""
    return len(to_decimal_string(abs(index(x))))


def exceeds_digits(x, digits: int) -> bool:
    """True iff |x| has more than `digits` decimal digits (|x| >= 10**digits).

    Cheap bit-length prefilters keep the exact power-of-ten comparison off
    the hot path; it only fires for values very close to the boundary.
    """
    digits = index(digits)
    if digits < 1:
        raise ValueError("digit budget must be at least 1")
    n = abs(index(x))
    bits = n.bit_length()
    # 3.3219 < log2(10) < 3.32193, so these bounds are safe in both directions.
    if bits * 10000 <= digits * 33219:
        return False
    return (bits - 1) * 100000 >= digits * 332193 or n >= bigint(10) ** digits


def to_decimal_string(x) -> str:
    """Decimal form of an integer, exactly as str() would print it.

    Subquadratic and independent of the int/str digit limit: a large value
    is split on bits into Decimal pieces, which libmpdec recombines with
    subquadratic multiplication, and the Decimal is printed.
    """
    n = index(x)
    if HAVE_GMPY2:
        return bigint(n).digits(10)
    bits = n.bit_length()
    if bits <= _LEAF_BITS:
        return str(n)
    # the width is padded to a leaf width k times 2**levels (see the module
    # docstring); pow2[i] = 2**(k << i)
    levels = ((bits - 1) // _LEAF_BITS).bit_length()
    k = -(-bits >> levels)

    def join(n, i):  # Decimal equal to n < 2**(2*w) with w = k << i; i = -1 at a leaf
        if i < 0:
            return Decimal(n)
        w = k << i
        return join(n & ((1 << w) - 1), i - 1) + join(n >> w, i - 1) * pow2[i]

    with localcontext(_EXACT):
        pow2 = [p := Decimal(2) ** k] + [p := p * p for _ in range(levels - 1)]
        return ("-" if n < 0 else "") + str(join(abs(n), levels - 1))


def from_decimal_string(s: str) -> int:
    """Parse a decimal integer of any size.

    Accepts digits with an optional sign and surrounding whitespace, and
    rejects everything else (underscores, points, exponents, prefixes).
    Subquadratic and independent of the int/str digit limit: a long digit
    string is split in halves and recombined as hi * 10**w + lo, with
    10**w = 5**w << w.
    """
    text = s.strip()
    body = text[1:] if text[:1] in "+-" else text
    if not (body.isascii() and body.isdigit()):
        raise ValueError(f"not a decimal integer: {s!r}")
    if HAVE_GMPY2:
        return int(bigint(text))
    if len(body) <= _LEAF_DIGITS:
        return int(text)
    # zeros pad the digits to a leaf length k times 2**levels (see the module
    # docstring); pow5[i] = 5**(k << i)
    levels = ((len(body) - 1) // _LEAF_DIGITS).bit_length()
    k = -(-len(body) >> levels)
    body = body.zfill(k << levels)
    pow5 = [p := 5 ** k] + [p := p * p for _ in range(levels - 1)]

    def split(a, i):  # value of the 2*w digits from body[a], w = k << i; i = -1 at a leaf
        if i < 0:
            return int(body[a:a + k])
        w = k << i
        return split(a + w, i - 1) + (split(a, i - 1) * pow5[i] << w)

    n = split(0, levels - 1)
    return -n if text[:1] == "-" else n
