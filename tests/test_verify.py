import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from machin.errors import FoldError, IncompleteFormulaError
from machin.evaluator import compute_pi
from machin.exactint import Ratio
from machin.generator import (
    FormulaTerm,
    GenerationConfig,
    MachinFormula,
    RemainderState,
    generate,
)
from machin.verify import check_identity, float_sanity, fold_formula

from forged import nine_pi_quarters, with_fold_remainder
from reference_runs import REFERENCE_RUNS


def reverse_fold(formula):
    """Same tangent addition, folding the terms back to front."""
    num, den = 0, 1
    for term in reversed(formula.terms):
        for _ in range(term.coefficient):
            num, den = num * term.q + term.sign * den, den * term.q - term.sign * num
    return num, den


def tangent_addition_fold(formula):
    """The plain forward fold: two big multiplies per factor, the oracle."""
    num, den = 0, 1
    for term in formula.terms:
        for _ in range(term.coefficient):
            num, den = num * term.q + term.sign * den, den * term.q - term.sign * num
            if den == 0:
                raise FoldError("fold passed through tangent pi/2 (zero denominator)")
    return Ratio(num, den)


def fold_outcome(fold, formula):
    try:
        return fold(formula)
    except FoldError as exc:
        return "FoldError", str(exc)


def complete_formula(q0, m, signed_qs):
    terms = (FormulaTerm(1, q0, m),) + tuple(FormulaTerm(s, q) for s, q in signed_qs)
    return MachinFormula(q0=q0, terms=terms, complete=True)


# 3*arctan(1/2) + arctan(1/3) - arctan(1/7) = pi/2: (2+i)^3 (3+i)(7-i) = 250i
THROUGH_PI_HALF = complete_formula(2, 3, [(1, 3), (-1, 7)])
# Two sums of 5*pi/4, tangent 1 as well: the fold ends on a negative real,
# after a last factor of either sign
FIVE_PI_QUARTERS = [
    complete_formula(2, 8, [(1, 5), (1, 49), (1, 110443)]),
    complete_formula(3, 12, [(1, 15), (-1, 1712), (1, 8886139), (-1, 2526830931360443)]),
]


def ends_on_pi_quarter(formula):
    """The tangent-addition fold ends on num == den > 0, never through den == 0,
    and the double sum is near pi/4, not another angle with the same tangent."""
    num, den = 0, 1
    for term in formula.terms:
        for _ in range(term.coefficient):
            num, den = num * term.q + term.sign * den, den * term.q - term.sign * num
            if den == 0:
                return False
    return num == den > 0 and abs(float_sanity(formula) - math.pi) < 1


# arctan(1/2) - arctan(1/3) - ... - arctan(1/k): the remainder to pi/4 is above 1
REMAINDER_ABOVE_ONE = {k: [FormulaTerm(1, 2)] + [FormulaTerm(-1, q) for q in range(3, k + 1)]
                       for k in (6, 7, 8)}


@st.composite
def forged_partial_formulas(draw):
    """Terms with the remainder their fold leaves, whatever they sum to."""
    size = st.one_of(st.integers(2, 60), st.integers(2, 10 ** 40))
    qs = sorted(draw(st.sets(size, min_size=1, max_size=8)))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(qs) - 1, max_size=len(qs) - 1))
    terms = [FormulaTerm(1, qs[0], draw(st.integers(1, 60)))]
    terms += [FormulaTerm(s, q) for s, q in zip(signs, qs[1:])]
    try:
        return with_fold_remainder(terms)
    except ValueError:  # the fold ends on B <= 0, which no remainder records
        assume(False)


@st.composite
def forged_formulas(draw):
    size = st.one_of(st.integers(2, 60), st.integers(2, 10 ** 40))
    qs = sorted(draw(st.sets(size, min_size=1, max_size=8)))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(qs) - 1, max_size=len(qs) - 1))
    return complete_formula(qs[0], draw(st.integers(1, 12)), zip(signs, qs[1:]))


class TestFold:
    def test_machin_identity(self):
        ratio = fold_formula(generate(5))
        assert ratio.num == ratio.den

    def test_hand_fold_half_plus_third(self):
        f = MachinFormula(
            q0=2,
            terms=(FormulaTerm(1, 2, 1), FormulaTerm(1, 3, 1)),
            complete=True,
            mode="positive",
        )
        ratio = fold_formula(f)
        assert (ratio.num, ratio.den) == (5, 5)  # (1*3 + 2*1) / (2*3 - 1*1)

    def test_q9_identity(self):
        ratio = fold_formula(generate(9))
        assert ratio.num == ratio.den

    @pytest.mark.parametrize("q0", range(2, 21))
    def test_signed_sweep(self, q0):
        formula = generate(q0, GenerationConfig(max_digits=200_000))
        ratio = fold_formula(formula)
        assert ratio.num == ratio.den
        assert ratio == tangent_addition_fold(formula)

    # positive mode completes within 10^6 digits only up to q0 = 18
    @pytest.mark.parametrize("q0", range(2, 19))
    def test_positive_sweep(self, q0):
        formula = generate(q0, GenerationConfig(mode="positive", max_digits=200_000))
        ratio = fold_formula(formula)
        assert ratio.num == ratio.den
        assert ratio == tangent_addition_fold(formula)

    @pytest.mark.parametrize("q0", [7, 9, 10, 13])
    def test_fold_order_does_not_matter(self, q0):
        f = generate(q0)
        forward = fold_formula(f)
        num, den = reverse_fold(f)
        assert forward.num * den == num * forward.den

    def test_rejects_partial(self):
        partial = generate(7, GenerationConfig(partial=True, max_digits=3))
        with pytest.raises(IncompleteFormulaError):
            fold_formula(partial)

    def test_zero_denominator_raises(self):
        with pytest.raises(FoldError):
            fold_formula(THROUGH_PI_HALF)

    @given(forged_formulas())
    @example(THROUGH_PI_HALF)
    @example(complete_formula(3, 5, [(-1, 43), (-1, 68)]))  # also lands on pi/2
    @example(complete_formula(5, 4, [(-1, 239)]))
    def test_matches_tangent_addition_fold(self, formula):
        assert fold_outcome(fold_formula, formula) == fold_outcome(tangent_addition_fold, formula)

    def test_detects_tampering(self):
        bad = MachinFormula(
            q0=5,
            terms=(FormulaTerm(1, 5, 4), FormulaTerm(-1, 240, 1)),
            complete=True,
        )
        ratio = fold_formula(bad)
        assert ratio.num != ratio.den


class TestCheckIdentity:
    @pytest.mark.parametrize("mode,q0", [("signed", q0) for q0 in range(2, 21)]
                             + [("positive", q0) for q0 in range(2, 19)])
    def test_generated_formulas_pass(self, mode, q0):
        check_identity(generate(q0, GenerationConfig(mode=mode, max_digits=200_000)))
        for digits in (3, 40, 400):
            check_identity(generate(q0, GenerationConfig(mode=mode, partial=True,
                                                         max_digits=digits)))

    def test_single_term_forgeries_fail(self):
        # no k*arctan(1/q0) is pi/4 for q0 >= 2; the check takes k - 1 of
        # the factors as one power and tests the last one on its own
        for q0 in range(2, 30):
            for k in range(1, 60):
                f = complete_formula(q0, k, [])
                assert fold_outcome(fold_formula, f) == fold_outcome(tangent_addition_fold, f)
                with pytest.raises(FoldError):
                    check_identity(f)

    def test_large_first_term_prefix(self):
        # m = 78540 factors of (100000 - i) in the fold's first power
        f = generate(100000, GenerationConfig(partial=True, max_digits=30))
        check_identity(f)
        first = f.terms[0]
        for m in (first.coefficient - 1, first.coefficient + 1):
            forged = f._replace(terms=(first._replace(coefficient=m),) + f.terms[1:])
            with pytest.raises(FoldError, match="recorded remainder"):
                check_identity(forged)

    def test_tampered_complete_formula_fails(self):
        with pytest.raises(FoldError):
            check_identity(complete_formula(5, 4, [(-1, 240)]))
        with pytest.raises(FoldError):
            check_identity(THROUGH_PI_HALF)

    @pytest.mark.parametrize("formula", FIVE_PI_QUARTERS)
    def test_fold_ending_on_negative_real_fails(self, formula):
        ratio = fold_formula(formula)
        assert ratio.num == ratio.den  # tangent 1, so only the sign tells
        with pytest.raises(FoldError, match="does not end on tangent 1"):
            check_identity(formula)

    def test_sum_of_nine_pi_quarters_fails(self):
        f = nine_pi_quarters()
        assert len(f.terms) == 19
        ratio = fold_formula(f)
        assert ratio.num == ratio.den  # tangent 1: only the branch check tells
        with pytest.raises(FoldError, match="2[*]pi"):
            check_identity(f)
        # the same sum as a partial formula: 36*arctan(1/5) + 4 terms + remainder
        with pytest.raises(FoldError, match="2[*]pi"):
            check_identity(with_fold_remainder(f.terms[:5]))

    def test_branch_enclosure_contains_the_sum(self):
        # c*arctan(1/10) + delta*arctan(A/B) lies above 27/4 (6.889, 7.227
        # and 6.770), so only bounds on the right side of the sum keep it
        # out. For the negative part they swap: x - x^3/3 <= arctan 1 <= 1
        # gives 7.7 - (1 - 1/3) >= 27/4, while 7.7 - 1 would not. For A/B
        # above 1 the upper bound is pi/2 - (x - x^3/3) with x = B/A, 0.904
        # for 101/100, where pi/2 - x = 0.581 would let the sum in.
        for c, rem in [(77, RemainderState(1, 1, -1)), (85, RemainderState(3, 1, -1)),
                       (60, RemainderState(101, 100, 1))]:
            f = MachinFormula(10, (FormulaTerm(1, 10, c),), False, rem)
            assert float_sanity(f) / 4 + rem.delta * math.atan(rem.A / rem.B) > 27 / 4
            with pytest.raises(FoldError, match="2[*]pi"):
                check_identity(f)

    @pytest.mark.parametrize("k", [6, 7, 8])
    def test_remainder_above_one_is_an_identity(self, k):
        # arctan(1/2) - arctan(1/3) - ... - arctan(1/k) + arctan(A/B) = pi/4
        # with A/B about 3.02, 5.56 and 18.7: x - x^3/3 <= arctan x <= x is
        # far too loose there, pi/2 - arctan(B/A) is not
        f = with_fold_remainder(REMAINDER_ABOVE_ONE[k])
        assert f.final_remainder.A > 3 * f.final_remainder.B
        check_identity(f)

    @given(forged_partial_formulas())
    @example(with_fold_remainder([FormulaTerm(1, 10, 58)]))  # 9*pi/4 with A/B about 3.44
    @example(with_fold_remainder(nine_pi_quarters().terms[:5]))
    def test_partial_check_matches_the_sum(self, formula):
        # the fold always lands on the recorded remainder, so the sum
        # decides: pi/4 passes, any other turn fails
        rem = formula.final_remainder
        total = float_sanity(formula) / 4 + rem.delta * math.atan(Fraction(rem.A, rem.B))
        try:
            check_identity(formula)
        except FoldError:
            assert abs(total - math.pi / 4) > 1
        else:
            assert abs(total - math.pi / 4) < 1e-9

    @pytest.mark.parametrize("change", ["q", "sign", "dropped", "extra"])
    def test_tampered_last_term_fails(self, change):
        f = generate(11)
        *head, last = f.terms
        terms = {
            "q": [*head, FormulaTerm(last.sign, last.q + 1)],
            "sign": [*head, FormulaTerm(-last.sign, last.q)],
            "dropped": head,
            "extra": [*head, last, FormulaTerm(1, 2 * last.q)],
        }[change]
        with pytest.raises(FoldError):
            check_identity(MachinFormula(f.q0, tuple(terms), True, None, f.mode))

    @given(forged_formulas())
    @example(complete_formula(5, 4, [(-1, 239)]))
    @example(complete_formula(2, 1, [(1, 3)]))
    @example(complete_formula(2, 2, [(-1, 7)]))
    @example(THROUGH_PI_HALF)
    @example(FIVE_PI_QUARTERS[0])
    @example(FIVE_PI_QUARTERS[1])
    def test_complete_check_matches_full_fold(self, formula):
        try:
            check_identity(formula)
        except FoldError:
            assert not ends_on_pi_quarter(formula)
        else:
            assert ends_on_pi_quarter(formula)

    @pytest.mark.parametrize("change", ["A", "B", "delta", "scaled", "negated"])
    def test_tampered_remainder_fails(self, change):
        f = generate(12, GenerationConfig(partial=True, max_digits=80))
        rem = f.final_remainder
        forged = {
            "A": RemainderState(rem.A + 1, rem.B, rem.delta),
            "B": RemainderState(rem.A, rem.B + 1, rem.delta),
            "delta": RemainderState(rem.A, rem.B, -rem.delta),
            "scaled": RemainderState(3 * rem.A, 3 * rem.B, rem.delta),
            "negated": None,
        }[change]
        if forged is None:  # (1+i)(2-i)^8 = -(863 + 191i): cross product 0, dot product < 0
            f = MachinFormula(2, (FormulaTerm(1, 2, 8),), False, RemainderState(191, 863, 1))
            with pytest.raises(FoldError):
                check_identity(f)
        elif change == "scaled":  # a positive multiple is the same remainder
            check_identity(MachinFormula(f.q0, f.terms, False, forged, f.mode))
        else:
            with pytest.raises(FoldError):
                check_identity(MachinFormula(f.q0, f.terms, False, forged, f.mode))

    def test_partial_without_remainder_raises(self):
        f = generate(12, GenerationConfig(partial=True, max_digits=80))
        with pytest.raises(IncompleteFormulaError):
            check_identity(MachinFormula(f.q0, f.terms, False, None, f.mode))


class TestFloatSanity:
    @pytest.mark.parametrize("q0", [5, 8, 10])
    def test_published_values(self, q0):
        expected = REFERENCE_RUNS[q0]["pi_sanity"]
        assert abs(float_sanity(generate(q0)) - expected) <= 2 * math.ulp(expected)

    @pytest.mark.parametrize("q0", range(2, 21))
    def test_close_to_pi(self, q0):
        assert abs(float_sanity(generate(q0, GenerationConfig(max_digits=200_000))) - math.pi) < 1e-12

    def test_matches_high_precision_evaluation(self):
        f = generate(7)
        reference = float(compute_pi(f, 20))
        assert abs(float_sanity(f) - reference) < 1e-12

    def test_huge_denominators_drop_out(self):
        # 1/q underflows to zero for q this wide, so the tail contributes nothing
        f = MachinFormula(
            q0=5,
            terms=(FormulaTerm(1, 5, 4), FormulaTerm(-1, 239, 1),
                   FormulaTerm(1, 10 ** 400, 1)),
            complete=False,
        )
        prefix = generate(5)
        assert float_sanity(f) == float_sanity(prefix)
