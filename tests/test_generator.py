from fractions import Fraction
from math import isqrt
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machin.errors import GenerationCutoffError
from machin.evaluator import compute_pi
from machin.generator import (
    _PI_QUARTER_Q64,
    FormulaTerm,
    GenerationConfig,
    MachinFormula,
    RemainderState,
    find_first_term,
    generate,
    next_term_positive,
    next_term_signed,
)

from reference_runs import REFERENCE_RUNS


def tiny_fold(formula):
    """Independent identity oracle: tangent-addition fold on Fractions."""
    tan = Fraction(0)
    for term in formula.terms:
        t = Fraction(term.sign, term.q)
        for _ in range(term.coefficient):
            tan = (tan + t) / (1 - tan * t)
    return tan


class TestFirstTerm:
    def test_q5_overshoot_selected(self):
        m, rem = find_first_term(5)
        assert m == 4
        assert rem == RemainderState(4, 956, -1)

    def test_q7(self):
        m, rem = find_first_term(7)
        assert m == 6
        assert rem.delta == -1
        assert (2 * rem.B + rem.A) // (2 * rem.A) == 15  # next denominator: nearest to B/A

    def test_q10(self):
        m, rem = find_first_term(10)
        assert m == 8
        assert rem.delta == -1

    @pytest.mark.parametrize("offset", range(30))
    def test_matches_plain_walk(self, offset):
        # q0 = 2..3000 in thirty interleaved slices of like cost
        for q0 in range(2 + offset, 3001, 30):
            m, a, b = _floor_first(q0)
            a2, b2 = q0 * a - b, q0 * b + a
            if a * b2 + b * a2 > 0:
                assert find_first_term(q0) == (m + 1, RemainderState(-a2, b2, -1))
            else:
                assert find_first_term(q0) == (m, RemainderState(a, b, 1))
            positive = generate(q0, GenerationConfig(mode="positive", partial=True, max_digits=1))
            assert positive.terms[:2] == (FormulaTerm(1, q0, m), FormulaTerm(1, -(-b // a)))

    @given(st.data())
    @settings(max_examples=100)
    def test_overshoot_choice_matches_cross_product(self, data):
        # frames B + y*i with B = k*y + r and k next to 2q, the band where
        # the quotient alone cannot decide; r is drawn near the root of
        # r*(2q*y + r) = y*y as well
        q = data.draw(st.one_of(st.integers(2, 50), st.integers(2, 10 ** 30)))
        y = data.draw(st.one_of(st.integers(1, 10 ** 6), st.integers(1, 10 ** 60)))
        k = data.draw(st.sampled_from([2 * q - 1, 2 * q, 2 * q + 1]))
        root = isqrt(y * y * (q * q + 1)) - q * y
        r = data.draw(st.one_of(st.integers(0, y - 1),
                                st.integers(root - 2, root + 2).map(lambda v: min(max(v, 0), y - 1))))
        B = k * y + r
        with mock.patch("machin.generator.remainder_power", lambda q0, m: (B, y)):
            m, _ = find_first_term(q)
        B2, y2 = q * B + y, q * y - B
        assert m == (q * _PI_QUARTER_Q64 >> 64) + (y * B2 + B * y2 > 0)

    @pytest.mark.parametrize("q0", [35, 2034, 2486])
    def test_sweep_reaches_the_tie_band(self, q0):
        # test_matches_plain_walk covers these q0, where B // y == 2*q0
        _, a, b = _floor_first(q0)
        assert b // a == 2 * q0

    def test_walk_starts_at_or_below_m(self):
        # the walk starts at floor(c*q0), c = _PI_QUARTER_Q64 / 2^64; that is
        # at most m only if c <= pi/4, and within a step of pi*q0/4 for
        # q0 < 2^64 only if pi/4 < c + 2^-64
        pi_lo = Fraction(compute_pi(generate(5), 40))
        pi_hi = pi_lo + Fraction(1, 10 ** 40)
        assert pi_hi * 2 ** 62 - 1 < _PI_QUARTER_Q64 <= pi_lo * 2 ** 62

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_rejects_q0_below_2(self, bad):
        with pytest.raises(ValueError):
            find_first_term(bad)

    @given(st.integers(min_value=2, max_value=500))
    def test_first_remainder_never_zero(self, q0):
        # a single-term identity only exists for q0 = 1
        _, rem = find_first_term(q0)
        assert rem.A > 0
        assert rem.B > 0


class TestSignedStep:
    def test_machin_terminating_step(self):
        term, nxt = next_term_signed(RemainderState(4, 956, -1))
        assert (term.sign, term.q) == (-1, 239)
        assert nxt.A == 0

    def test_classic_half_third(self):
        term, nxt = next_term_signed(RemainderState(1, 3, 1))
        assert (term.sign, term.q) == (1, 3)
        assert nxt.A == 0

    def test_q7_chain_reaches_1712(self):
        _, state = find_first_term(7)
        term1, state = next_term_signed(state)
        assert (term1.sign, term1.q) == (-1, 15)
        term2, state = next_term_signed(state)
        assert (term2.sign, term2.q) == (1, 1712)

    def test_requires_live_remainder(self):
        with pytest.raises(ValueError):
            next_term_signed(RemainderState(0, 7, 1))

    @given(st.integers(min_value=2, max_value=300))
    def test_numerator_halves_each_step(self, q0):
        _, state = find_first_term(q0)
        for _ in range(12):
            if state.A == 0:
                break
            _, nxt = next_term_signed(state)
            assert 2 * nxt.A <= state.A
            assert nxt.B > state.B
            state = nxt


class TestPositiveStep:
    def test_examples(self):
        term, nxt = next_term_positive(RemainderState(1, 3, 1))
        assert (term.sign, term.q) == (1, 3)
        assert nxt.A == 0

        term, nxt = next_term_positive(RemainderState(1, 2, 1))
        assert (term.sign, term.q) == (1, 2)
        assert (nxt.A, nxt.B, nxt.delta) == (0, 5, 1)

        term, nxt = next_term_positive(RemainderState(2, 5, 1))
        assert (term.sign, term.q) == (1, 3)
        assert (nxt.A, nxt.B, nxt.delta) == (1, 17, 1)

    def test_rejects_negative_remainder(self):
        with pytest.raises(ValueError):
            next_term_positive(RemainderState(1, 3, -1))

    @given(st.integers(min_value=2, max_value=120))
    def test_numerator_strictly_decreases(self, q0):
        # positive mode starts from the undershoot remainder, delta = +1
        _, a, b = _floor_first(q0)
        state = RemainderState(a, b, 1)
        for _ in range(8):
            if state.A == 0:
                break
            _, nxt = next_term_positive(state)
            assert 0 <= nxt.A < state.A
            state = nxt


def _floor_first(q0):
    a = b = 1
    m = 0
    while True:
        a2 = q0 * a - b
        if a2 < 0:
            return m, a, b
        a, b = a2, q0 * b + a
        m += 1


def plain_run(q0, mode="signed", max_digits=1_000_000):
    """The textbook recurrences, an oracle independent of remainder_step.

    Returns (m, [(sign, q)], [remainder after each term], complete), where
    every remainder carries the full B' = q*B + A, the last one included.
    """
    m, a, b = _floor_first(q0)
    A, B, delta = a, b, 1
    if mode == "signed":
        a2, b2 = q0 * a - b, q0 * b + a
        if a * b2 + b * a2 > 0:
            m, A, B, delta = m + 1, -a2, b2, -1
    terms, states = [], []
    while True:
        q = (2 * B + A) // (2 * A) if mode == "signed" else -((-B) // A)
        raw = q * A - B
        terms.append((delta, q))
        A, B, delta = abs(raw), q * B + A, -delta if raw < 0 else delta
        states.append(RemainderState(A, B, delta))
        if A == 0 or q >= 10 ** max_digits:
            return m, terms, states, A == 0


class TestGenerate:
    def test_q5_signed_golden(self):
        f = generate(5)
        assert f.complete
        assert f.terms[0] == FormulaTerm(1, 5, 4)
        assert [(t.sign, t.q) for t in f.terms[1:]] == [(-1, 239)]
        assert f.final_remainder is None

    def test_q9_signed_golden(self):
        ref = REFERENCE_RUNS[9]
        f = generate(9)
        assert f.complete
        assert f.terms[0].coefficient == ref["m"]
        assert [(t.sign, t.q) for t in f.terms[1:]] == ref["terms"]

    def test_q2_positive_classic(self):
        f = generate(2, GenerationConfig(mode="positive"))
        assert f.complete
        assert f.terms[0] == FormulaTerm(1, 2, 1)
        assert [(t.sign, t.q) for t in f.terms[1:]] == [(1, 3)]
        assert tiny_fold(f) == 1  # arctan(1/2) + arctan(1/3) = pi/4

    def test_q2_signed(self):
        f = generate(2)
        assert f.terms[0].coefficient == 2
        assert [(t.sign, t.q) for t in f.terms[1:]] == [(-1, 7)]
        assert tiny_fold(f) == 1

    @given(st.integers(min_value=2, max_value=200))
    @settings(max_examples=40)
    def test_second_denominator_at_least_doubles(self, q0):
        f = generate(q0, GenerationConfig(partial=True, max_digits=500))
        assert f.terms[1].q >= 2 * q0

    def test_partial_cutoff_keeps_oversized_term(self):
        cfg = GenerationConfig(partial=True, max_digits=3)
        f = generate(7, cfg)
        assert not f.complete
        assert f.terms[-1].q == 1712  # first term wider than 3 digits
        assert f.final_remainder is not None
        assert f.final_remainder.A > 0

    def test_cutoff_without_partial_raises(self):
        with pytest.raises(GenerationCutoffError):
            generate(7, GenerationConfig(max_digits=3))

    def test_completion_wins_over_cutoff(self):
        # 239 is wider than 2 digits but ends the run exactly; that is a
        # completed identity, not a truncated one
        f = generate(5, GenerationConfig(partial=True, max_digits=2))
        assert f.complete
        f = generate(5, GenerationConfig(max_digits=2))
        assert f.complete

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            generate(1)
        with pytest.raises(ValueError):
            GenerationConfig(mode="mixed")
        with pytest.raises(ValueError):
            GenerationConfig(max_digits=0)

    @given(st.integers(min_value=2, max_value=150))
    @settings(max_examples=30)
    def test_term_denominators_strictly_increase(self, q0):
        f = generate(q0, GenerationConfig(partial=True, max_digits=400))
        qs = [t.q for t in f.terms]
        assert qs == sorted(qs)
        assert len(set(qs)) == len(qs)
        assert all(t.coefficient == 1 for t in f.terms[1:])

    @given(st.integers(min_value=2, max_value=150), st.sampled_from(["signed", "positive"]))
    @settings(max_examples=40)
    def test_matches_single_steps(self, q0, mode):
        # generate() runs its own loop, which skips the final B' = q*B + A
        f = generate(q0, GenerationConfig(mode=mode, partial=True, max_digits=300))
        if mode == "signed":
            _, state = find_first_term(q0)
            step = next_term_signed
        else:
            _, a, b = _floor_first(q0)
            state, step = RemainderState(a, b, 1), next_term_positive
        terms = []
        for _ in f.terms[1:]:
            term, state = step(state)
            terms.append(term)
        assert terms == list(f.terms[1:])
        assert f.final_remainder == (None if f.complete else state)
        assert f.complete == (state.A == 0)

    @pytest.mark.parametrize("mode,q0,max_digits",
                             [("signed", q0, 1_000_000) for q0 in range(2, 21)]
                             + [("positive", q0, 1_000_000) for q0 in range(2, 19)]
                             + [(mode, q0, d) for mode in ("signed", "positive")
                                for q0 in (28, 100, 327, 1000) for d in (30, 2000)])
    def test_matches_plain_recurrence(self, mode, q0, max_digits):
        m, terms, states, complete = plain_run(q0, mode, max_digits)
        f = generate(q0, GenerationConfig(mode=mode, partial=True, max_digits=max_digits))
        assert f.terms[0] == FormulaTerm(1, q0, m)
        assert [(t.sign, t.q) for t in f.terms[1:]] == terms
        assert f.complete == complete
        assert f.final_remainder == (None if complete else states[-1])
        if mode == "signed":
            _, state = find_first_term(q0)
            step = next_term_signed
        else:
            _, a, b = _floor_first(q0)
            state, step = RemainderState(a, b, 1), next_term_positive
        for sign_q, expected in zip(terms, states):
            term, state = step(state)
            assert ((term.sign, term.q), state) == (sign_q, expected)

    def test_large_q0_is_not_special(self):
        f = generate(100000, GenerationConfig(partial=True, max_digits=30))
        assert f.terms[0].coefficient == 78540
        assert f.terms[1].q == 544491


class TestTypes:
    def test_remainder_state_validation(self):
        with pytest.raises(ValueError):
            RemainderState(-1, 3, 1)
        with pytest.raises(ValueError):
            RemainderState(1, 0, 1)
        with pytest.raises(ValueError):
            RemainderState(1, 3, 0)

    def test_formula_term_validation(self):
        with pytest.raises(ValueError):
            FormulaTerm(2, 5)
        with pytest.raises(ValueError):
            FormulaTerm(1, 0)
        with pytest.raises(ValueError):
            FormulaTerm(1, 5, 0)

    def test_formula_validation(self):
        t0 = FormulaTerm(1, 5, 4)
        with pytest.raises(ValueError):
            MachinFormula(q0=5, terms=(), complete=True)
        with pytest.raises(ValueError):
            MachinFormula(q0=5, terms=(t0, FormulaTerm(1, 5)), complete=True)
        with pytest.raises(ValueError):
            MachinFormula(q0=5, terms=(t0, FormulaTerm(1, 9, 2)), complete=True)
        with pytest.raises(ValueError):
            MachinFormula(q0=5, terms=(t0,), complete=True,
                          final_remainder=RemainderState(1, 2, 1))
