import json
import math
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import machin
from machin import exactint
from machin.exactint import (
    Ratio,
    decimal_digits,
    exceeds_digits,
    from_decimal_string,
    log10_approx,
    remainder_power,
    remainder_step,
    to_decimal_string,
)
from machin.generator import _pick_positive, _pick_signed

from intstr import unlimited_int_str
from reference_runs import REFERENCE_RUNS

LOG10_2 = Decimal("0.30102999566398119521373889472449302676818988146210854131")

nums = st.integers(min_value=-(10 ** 40), max_value=10 ** 40)
dens = st.integers(min_value=1, max_value=10 ** 20)

# bit sizes on both sides of the codec's leaves (2126 bits, 640 digits),
# of 2000/8000 and of the default 4300-digit int/str limit (14284 bits)
codec_bits = st.one_of(
    st.integers(min_value=1, max_value=40_000),
    st.sampled_from([2125, 2126, 2127, 2128, 4252, 4253, 6644, 8000, 14283, 14284, 14285]),
)


@st.composite
def codec_ints(draw):
    """Signed integers of every size the codec splits differently."""
    if draw(st.booleans()):
        bits = draw(codec_bits)
        n = random.Random(draw(st.integers(0, 2 ** 32))).getrandbits(bits) | (1 << (bits - 1))
    else:  # runs of zeros or nines in every piece
        n = 10 ** draw(st.integers(0, 12_000)) + draw(st.integers(-1, 1))
    return -n if draw(st.booleans()) else n


needs_int_str_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int/str digit limit"
)


@st.composite
def step_inputs(draw):
    """(x, y, q, s) with y and y' on both sides of remainder_step's cut-off.

    In the remainder frame y' = q*y - s*x is short, so x is mostly drawn
    as s*(q*y - r) for a short r (then y' == r); sometimes x is arbitrary.
    """
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    q_bits = draw(st.one_of(st.integers(1, 200), st.integers(200, 20_000)))
    q = rng.getrandbits(q_bits) | (1 << (q_bits - 1))
    cut = q_bits // 64  # the squared form needs fewer bits than this
    y_bits = draw(st.one_of(st.integers(0, cut + 2), st.integers(max(cut - 2, 0), q_bits + 64)))
    y = rng.getrandbits(y_bits) * draw(st.sampled_from([-1, 1]))
    s = draw(st.sampled_from([-1, 1]))
    r = rng.getrandbits(draw(st.integers(0, y_bits + 2))) * draw(st.sampled_from([-1, 1]))
    if draw(st.integers(0, 3)):
        x = s * (q * y - r)
    else:
        x = rng.getrandbits(q_bits + y_bits + 2) * draw(st.sampled_from([-1, 1]))
    return x, y, q, s


def decimal_log10(head, shift):
    """log10(head * 2**shift) in 50-digit Decimal arithmetic, as a double:
    the computation _log10_head must reproduce bit for bit."""
    with localcontext() as ctx:
        ctx.prec = 50
        if shift == 0:
            return float(Decimal(head).log10())
        return float(Decimal(head).log10() + shift * LOG10_2)


def head_and_shift(x):
    """The leading 64 bits of x and the shift that drops the rest."""
    shift = max(x.bit_length() - 64, 0)
    return x >> shift, shift


def run_fresh(code: str, limit: int) -> dict:
    """Run code in a fresh interpreter at the given int/str limit; parse its JSON."""
    proc = subprocess.run(
        [sys.executable, "-X", f"int_max_str_digits={limit}", "-c", code],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestDivision:
    """The rounding rules of the generator's term picks on B/A = num/den.

    _pick_positive gives the ceiling and _pick_signed the nearest integer
    (halves round up), each with whether den divides num.
    """

    def test_floor_examples(self):
        # the floor is the ceiling, less one unless the division is exact
        assert _pick_positive(2, 7) == (4, False)  # floor 3
        assert _pick_positive(2, -7) == (-3, False)  # floor -4: toward -inf
        assert _pick_positive(3, 6) == (2, True)  # floor 2

    def test_ceil_examples(self):
        assert _pick_positive(2, 7) == (4, False)
        assert _pick_positive(3, 6) == (2, True)
        assert _pick_positive(4, 956) == (239, True)

    def test_nearest_examples(self):
        assert _pick_signed(2, 7) == (4, False)  # 3.5 ties up
        assert _pick_signed(4, 956) == (239, True)  # exact
        assert _pick_signed(4, 10) == (3, False)  # 2.5 ties up
        assert _pick_signed(2, -7) == (-3, False)  # -3.5 ties up (toward +inf)

    @given(num=nums, den=dens)
    def test_floor_ceil_bracket(self, num, den):
        hi, exact = _pick_positive(den, num)
        assert exact == (num % den == 0)
        lo = hi if exact else hi - 1
        assert lo * den <= num <= hi * den
        assert (hi - 1) * den < num

    @given(num=nums, den=dens)
    def test_nearest_within_half(self, num, den):
        r, exact = _pick_signed(den, num)
        assert 2 * abs(r * den - num) <= den
        assert exact == (r * den == num)

    @given(num=nums, den=dens)
    def test_nearest_picks_closer_candidate(self, num, den):
        hi, exact = _pick_positive(den, num)
        lo = hi if exact else hi - 1
        x = Fraction(num, den)
        if abs(lo - x) < abs(hi - x):
            expected = lo
        else:
            expected = hi  # includes the exact-half tie
        assert _pick_signed(den, num)[0] == expected


class TestRemainderStep:
    @given(step_inputs())
    @example((3 * (1 << 6400), 5, 1 << 6399, 1))
    # q of 6400 bits: a 99-bit y and y' take the squared form, a 100-bit one the plain
    @example(((1 << 6399) * ((1 << 98) + 7) - 3, (1 << 98) + 7, 1 << 6399, 1))
    @example((-((1 << 6399) * ((1 << 98) + 7) - 3), (1 << 98) + 7, 1 << 6399, -1))
    @example(((1 << 6399) * ((1 << 99) + 7) - 3, (1 << 99) + 7, 1 << 6399, 1))
    @example((-((1 << 6399) * -((1 << 98) + 7) + 3), -((1 << 98) + 7), 1 << 6399, -1))
    @example((956, -4, 239, -1))  # Machin: 4*arctan(1/5) - arctan(1/239) lands on 956*239 + 4
    @example((12345, 0, 10 ** 40, 1))
    @example((0, 0, 7, -1))
    def test_matches_plain_product(self, args):
        x, y, q, s = args
        assert remainder_step(x, y, q, s) == (q * x + s * y, q * y - s * x)

    def test_first_term_walk(self):
        # (b + a*i) * (q0 - i) is the first-term step (a, b) -> (q0*a - b, q0*b + a)
        assert remainder_step(6, 4, 5, 1) == (34, 14)
        assert remainder_step(184, 36, 5, 1) == (956, -4)

    @given(st.integers(min_value=2, max_value=10 ** 30), st.integers(min_value=0, max_value=400))
    @example(5, 0)
    @example(5, 4)  # (1+i)(5-i)^4 = 956 - 4i, Machin's remainder
    @example(2 ** 100 + 1, 1)  # one factor of a q that takes the squared form
    def test_power_is_repeated_steps(self, q, m):
        x, y = 1, 1
        for _ in range(m):
            x, y = remainder_step(x, y, q, 1)
        assert remainder_power(q, m) == (x, y)


class TestLog10:
    def test_powers_of_ten_exact(self):
        for k in (0, 1, 2, 3, 7, 15, 100, 1234, 10 ** 5, 10 ** 6):
            assert log10_approx(10 ** k) == float(k)

    def test_one(self):
        assert log10_approx(1) == 0.0

    def test_sixteen_digit_value(self):
        # small enough to be an exact double, so math.log10 is the oracle
        x = 2526830931360443
        assert x < 2 ** 53
        assert abs(log10_approx(x) - math.log10(x)) < 1e-10

    @given(head=st.integers(min_value=1, max_value=2 ** 53 - 1),
           k=st.integers(min_value=0, max_value=290))
    def test_matches_float_oracle_for_shifted_values(self, head, k):
        # head * 10^k: oracle = log10(head) + k, accurate to ~1e-13 here
        assert abs(log10_approx(head * 10 ** k) - (math.log10(head) + k)) < 1e-9

    @given(st.lists(st.integers(min_value=1, max_value=10 ** 300), min_size=2, max_size=20))
    def test_monotone_nondecreasing(self, values):
        values.sort()
        logs = [log10_approx(v) for v in values]
        assert all(a <= b for a, b in zip(logs, logs[1:]))

    @pytest.mark.parametrize("bad", [0, -1, -10 ** 30])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            log10_approx(bad)

    @given(st.lists(st.integers(1, 5000), min_size=1, max_size=8), st.integers(0, 2 ** 32))
    def test_memo_returns_the_uncached_value(self, sizes, seed):
        # the 50-digit Decimal computation, uncached, as the oracle; every
        # value is asked for twice so the second answer comes from the cache
        rng = random.Random(seed)
        values = [rng.getrandbits(b) | (1 << (b - 1)) for b in sizes]
        for x in values + values:
            assert log10_approx(x) == decimal_log10(*head_and_shift(x))

    @pytest.mark.parametrize("bits", range(1, 65))
    def test_fixed_point_matches_decimal_for_every_head_length(self, bits):
        rng = random.Random(bits)
        heads = {1 << (bits - 1), (1 << bits) - 1}  # t = 0 and u closest to 1/3
        heads.update(rng.getrandbits(bits) | (1 << (bits - 1)) for _ in range(40))
        shifts = [0, 1, 2 ** 36 - 1, 2 ** 36] + [rng.randrange(2 ** 36) for _ in range(3)]
        for head in heads:
            for shift in shifts:
                assert exactint._log10_head.__wrapped__(head, shift) == decimal_log10(head, shift)

    def test_fixed_point_matches_decimal_at_powers(self):
        values = {3 ** k for k in range(400)}
        for k in range(400):
            values.update((10 ** k - 1, 10 ** k, 10 ** k + 1, 2 ** k))
        values.discard(0)
        for x in values:
            head, shift = head_and_shift(x)
            assert exactint._log10_head.__wrapped__(head, shift) == decimal_log10(head, shift)

    def test_fixed_point_matches_decimal_on_reference_terms(self):
        qs = {q for q0, ref in REFERENCE_RUNS.items()
              for q in (q0, *(q for _, q in ref["terms"])) if isinstance(q, int)}
        assert max(qs).bit_length() > 64  # some take the shifted path
        for q in qs:
            head, shift = head_and_shift(q)
            assert exactint._log10_head.__wrapped__(head, shift) == decimal_log10(head, shift)

    def test_fixed_point_constants(self):
        # log10(2) and ln(10) to 60 digits, scaled by 2^128 and rounded to nearest
        with localcontext() as ctx:
            ctx.prec = 60
            log10_2 = Decimal(2).log10() * 2 ** 128
            ln10 = Decimal(10).ln() * 2 ** 128
        assert abs(exactint._LOG10_2_Q128 - log10_2) < Decimal("0.5")
        assert abs(exactint._LN10_Q128 - ln10) < Decimal("0.5")

    @pytest.mark.parametrize("x", [3, 7, 10 ** 19 + 1, 2 ** 64 - 1, 3 ** 200, 10 ** 300 - 1])
    def test_decimal_fallback_when_interval_is_ambiguous(self, monkeypatch, x):
        # an error bound too wide to decide any double sends every head that
        # is not a power of two to the 50-digit Decimal code
        monkeypatch.setattr(exactint, "_SERIES_ERR", 1 << 400)
        contexts = []

        def counted_localcontext():
            contexts.append(x)
            return localcontext()

        monkeypatch.setattr(exactint, "localcontext", counted_localcontext)
        head, shift = head_and_shift(x)
        assert exactint._log10_head.__wrapped__(head, shift) == decimal_log10(head, shift)
        assert contexts == [x]


class TestDigitHelpers:
    @given(st.integers(min_value=0, max_value=10 ** 60))
    def test_decimal_digits_matches_str(self, n):
        assert decimal_digits(n) == len(str(n))

    def test_decimal_digits_boundaries(self):
        for k in (1, 2, 10, 100, 2000, 5000):
            assert decimal_digits(10 ** k - 1) == k
            assert decimal_digits(10 ** k) == k + 1
            # at budget k both pass the bit-length prefilters and the exact comparison decides
            assert not exceeds_digits(10 ** k - 1, k)
            assert exceeds_digits(10 ** k, k)
            if k > 1:
                assert exceeds_digits(10 ** k - 1, k - 1)
                assert exceeds_digits(10 ** k, k - 1)

    @given(n=st.integers(min_value=0, max_value=10 ** 60),
           budget=st.integers(min_value=1, max_value=70))
    def test_exceeds_digits_matches_count(self, n, budget):
        assert exceeds_digits(n, budget) == (decimal_digits(n) > budget)

    @given(st.one_of(st.integers(min_value=-(10 ** 50), max_value=10 ** 50), codec_ints()))
    def test_decimal_string_round_trip(self, n):
        with unlimited_int_str():
            expected = str(n)
        assert to_decimal_string(n) == expected
        assert from_decimal_string(to_decimal_string(n)) == n

    @pytest.mark.parametrize("text, value", [
        ("+5", 5),
        ("-0", 0),
        ("007", 7),
        ("  42\n", 42),
        ("\t-0012 ", -12),
        pytest.param("0" * 5000 + "9" * 3000, 10 ** 3000 - 1, id="long-leading-zeros"),
        pytest.param("+1" + "0" * 9000, 10 ** 9000, id="long-plus"),
    ])
    def test_from_decimal_string_accepts(self, text, value):
        assert from_decimal_string(text) == value

    @pytest.mark.parametrize("bad", [
        "", " ", "+", "-", "--1", "+-1", "12.5", "1e5", "1_0", "0x10", "ten", "1 2",
        pytest.param("1" * 3000 + "_" + "1" * 3000, id="long-underscore"),
        pytest.param("9" * 5000 + ".0", id="long-point"),
        # str.isdigit() holds for each: Arabic-Indic five, fullwidth five, superscript two
        "\u0665", "\uff15", "\u00b2", "1\u00b2", "-\u0665",
    ])
    def test_from_decimal_string_rejects_garbage(self, bad):
        with pytest.raises(ValueError, match="not a decimal integer"):
            from_decimal_string(bad)

    @needs_int_str_limit
    @pytest.mark.parametrize("limit", [640, 4300])  # the lowest allowed and the default
    def test_codec_in_fresh_process_keeps_int_str_limit(self, limit):
        # a fresh process, so the codec runs under exactly this limit
        out = run_fresh(
            "import json, random, sys\n"
            "from machin.exactint import from_decimal_string, to_decimal_string\n"
            "rng = random.Random(5)\n"
            "cases = []\n"
            "for d in (640, 641, 4300, 4301, 100_000):\n"
            "    n = rng.randrange(10 ** (d - 1), 10 ** d)\n"
            "    text = ''.join(rng.choice('0123456789') for _ in range(d))\n"
            "    s = to_decimal_string(-n)\n"
            "    cases.append([hex(n), s, from_decimal_string(s) == -n,\n"
            "                  text, hex(from_decimal_string(text))])\n"
            "print(json.dumps({'cases': cases, 'limit': sys.get_int_max_str_digits()}))\n",
            limit,
        )
        assert out["limit"] == limit
        for n, s, back, text, m in out["cases"]:
            with unlimited_int_str():
                assert s == str(-int(n, 16))
                assert int(m, 16) == int(text)
            assert back

    @pytest.mark.parametrize("call", [
        lambda: log10_approx(2.5),  # int() would give log10(2)
        lambda: to_decimal_string(5.7),  # "5"
        lambda: decimal_digits(9.99),  # 1
        lambda: exceeds_digits(99.5, 1),
        lambda: log10_approx(100.0),
        lambda: to_decimal_string(-3.0),
    ], ids=["log10_approx", "to_decimal_string", "decimal_digits", "exceeds_digits",
            "log10_approx-integral", "to_decimal_string-integral"])
    def test_floats_raise_type_error(self, call):
        with pytest.raises(TypeError):
            call()

    def test_library_never_sets_int_str_limit(self):
        sources = sorted(Path(machin.__file__).parent.glob("*.py"))
        assert sources
        for path in sources:
            assert "set_int_max_str_digits" not in path.read_text(encoding="utf-8"), path.name


class TestRatio:
    def test_sign_normalizes_into_num(self):
        r = Ratio(3, -4)
        assert (r.num, r.den) == (-3, 4)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            Ratio(1, 0)
