import math

import pytest
from hypothesis import example, given
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

    def test_tampered_complete_formula_fails(self):
        with pytest.raises(FoldError):
            check_identity(complete_formula(5, 4, [(-1, 240)]))
        with pytest.raises(FoldError):
            check_identity(THROUGH_PI_HALF)

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
