"""End-to-end acceptance checks.

One test per criterion; each prints a PASS line when it holds. The two
deep runs (q0=28 complete, q0=100000 partial) are marked ``long`` and
take a few seconds with gmpy2 installed.

Full-range sweeps are bounded by a digit budget: term denominators double
in digit count every step, so completing generation is physically possible
only while the final denominator stays in the multi-million-digit range
(q0=28 already ends at 11.5M digits). Within a budget every completed
formula must pass every check; truncated runs are checked on their prefix,
where every per-step property still applies.
"""
import math
import time

import pytest

from machin.errors import IncompleteFormulaError
from machin.evaluator import plan_budget
from machin.exactint import log10_approx
from machin.generator import GenerationConfig, find_first_term, generate, next_term_signed
from machin.measure import lehmer_measure
from machin.verify import float_sanity, fold_formula
from machin.cli import main as cli_main

from reference_runs import REFERENCE_RUNS

GOLDEN_Q0 = (5, 7, 8, 9, 10)


def assert_matches_reference(formula, ref, lg_rel=1e-6):
    assert formula.terms[0].coefficient == ref["m"]
    expected_exact = ref["terms"]
    produced = [(t.sign, t.q) for t in formula.terms[1:]]
    assert produced[: len(expected_exact)] == expected_exact
    lg_part = produced[len(expected_exact):]
    assert len(lg_part) == len(ref["lg_terms"])
    for (sign, q), (ref_sign, ref_lg) in zip(lg_part, ref["lg_terms"]):
        assert sign == ref_sign
        assert abs(log10_approx(q) - ref_lg) <= lg_rel * ref_lg
    assert formula.complete == ref["complete"]


def test_criterion_01_golden_identities():
    started = time.perf_counter()
    for q0 in GOLDEN_Q0:
        assert_matches_reference(generate(q0), REFERENCE_RUNS[q0])
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"[criterion 1] PASS golden identities q0={GOLDEN_Q0} exact ({elapsed:.3f}s)")


def test_criterion_02_lehmer_values():
    for q0 in GOLDEN_Q0:
        value = lehmer_measure(generate(q0)).value
        assert abs(value - REFERENCE_RUNS[q0]["lehmer"]) <= 1e-9
    print(f"[criterion 2] PASS Lehmer measures match published values within 1e-9")


@pytest.mark.long
def test_criterion_03_deep_complete_run_q28(deep_q28):
    formula, build_s = deep_q28
    started = time.perf_counter() - build_s
    ref = REFERENCE_RUNS[28]
    assert formula.complete
    assert len(formula.terms) == 1 + len(ref["terms"]) + len(ref["lg_terms"])  # 23 terms
    assert_matches_reference(formula, ref)
    value = lehmer_measure(formula).value
    assert abs(value - ref["lehmer"]) <= 1e-9
    sanity = float_sanity(formula)
    assert abs(sanity - ref["pi_sanity"]) <= 2 * math.ulp(ref["pi_sanity"])
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(f"[criterion 3] PASS q0=28 completes at 11.5M-digit terms, "
          f"Lehm {value:.15f} ({elapsed:.1f}s)")


@pytest.mark.long
def test_criterion_04_partial_run_q100000(partial_q100000):
    formula, build_s = partial_q100000
    started = time.perf_counter() - build_s
    ref = REFERENCE_RUNS[100000]
    assert not formula.complete
    assert formula.final_remainder is not None
    assert formula.final_remainder.A > 0
    assert_matches_reference(formula, ref)
    result = lehmer_measure(formula)
    assert result.is_upper_bound
    assert abs(result.value - ref["lehmer"]) <= 1e-9
    assert result.value < ref["lehmer"] + 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(f"[criterion 4] PASS q0=100000 partial: m=78540, bound "
          f"Lehm < {result.value:.16f} ({elapsed:.1f}s)")


def test_criterion_05_growth_and_bound_properties():
    guard = GenerationConfig(partial=True, max_digits=3000)
    for q0 in range(2, 201):
        m, state = find_first_term(q0)
        assert state.A > 0
        qs = []
        while state.A > 0 and len(qs) < 40:
            term, nxt = next_term_signed(state)
            assert 2 * nxt.A <= state.A  # numerator at least halves
            qs.append(term.q)
            state = nxt
            if term.q >= 10 ** 3000:  # more than 3000 digits
                break
        assert qs[0] >= 2 * q0  # second denominator doubles the first
        for earlier, later in zip(qs, qs[1:]):
            assert later > earlier * earlier  # squared growth
        result = lehmer_measure(generate(q0, guard))
        assert result.value < result.bound_3_over_lg_q0
    print("[criterion 5] PASS q0 in [2,200]: 2A'<=A, q1>=2q0, q_{n+1}>q_n^2, "
          "lambda(-bound) < 3/lg q0")


def test_criterion_06_exact_identity_oracle():
    # the budget bounds the sweep: within 200k digits exactly q0=2..20
    # complete (denominator widths double per step; q0=21 already needs a
    # 4.3M-digit final term, q0=26 and most of [31,60] far more)
    guard = GenerationConfig(partial=True, max_digits=200_000)
    completed = set()
    for q0 in range(2, 61):
        formula = generate(q0, guard)
        if formula.complete:
            ratio = fold_formula(formula)
            assert ratio.num == ratio.den
            completed.add(q0)
        else:
            with pytest.raises(IncompleteFormulaError):
                fold_formula(formula)
    assert completed >= set(range(2, 21))
    print(f"[criterion 6] PASS exact folds land on tangent 1 for every run "
          f"completing within 200k digits: q0 in {sorted(completed)}")


def test_criterion_07_thousand_digits(capsys):
    started = time.perf_counter()
    assert cli_main(["pi", "--q0", "5", "--digits", "1000"]) == 0
    out_5 = capsys.readouterr().out
    assert cli_main(["pi", "--q0", "10", "--digits", "1000"]) == 0
    out_10 = capsys.readouterr().out
    assert out_5 == out_10
    assert len(out_5.strip()) == 1002
    head = float(out_5[:17])  # "3." plus 15 digits
    reference_sanity = 3.1415926535897936
    assert abs(head - reference_sanity) <= 2 * math.ulp(reference_sanity)
    for q0 in (5, 10):
        assert abs(head - float_sanity(generate(q0))) <= 2 * math.ulp(head)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    with capsys.disabled():
        print(f"[criterion 7] PASS pi to 1000 digits agrees across q0=5 and q0=10 "
              f"({elapsed:.2f}s)")


def test_criterion_08_budget_soundness():
    from fractions import Fraction

    for digits in (10, 50, 200):
        for q0 in (5, 9, 10):
            formula = generate(q0)
            budget = plan_budget(formula, digits)
            eps2 = Fraction(*budget.epsilon2)
            inv_eps2 = 1 / eps2
            for term, K in zip(formula.terms[: budget.accepted_terms],
                               budget.maclaurin_lengths):
                q = term.q
                assert (2 * K + 3) * q ** (2 * K + 3) > inv_eps2
                assert (2 * K + 1) * q ** (2 * K + 1) <= inv_eps2  # K-1 violates
                assert Fraction(1, (2 * K + 3) * q ** (2 * K + 3)) < eps2
    print("[criterion 8] PASS Maclaurin lengths are minimal for their exact "
          "integer inequalities")


def test_criterion_09_positive_mode():
    classic = generate(2, GenerationConfig(mode="positive"))
    assert classic.terms[0].coefficient == 1
    assert [(t.sign, t.q) for t in classic.terms[1:]] == [(1, 3)]
    assert fold_formula(classic).num == fold_formula(classic).den

    # same digit-budget reality as criterion 6: positive-mode numerators
    # decay slower, so q0=19 ends near 6.1M digits and q0=20 beyond 30M;
    # everything that completes in budget must fold exactly
    guard = GenerationConfig(mode="positive", partial=True, max_digits=1_000_000)
    completed = set()
    for q0 in range(2, 21):
        formula = generate(q0, guard)
        if formula.complete:
            ratio = fold_formula(formula)
            assert ratio.num == ratio.den
            completed.add(q0)
    assert completed >= set(range(2, 19))
    print(f"[criterion 9] PASS positive-mode identities fold exactly for "
          f"q0 in {sorted(completed)}")


def test_criterion_10_bound_form_only():
    # the published runs are not pointwise monotone in q0 (q0=10 scores
    # worse than q0=5); only the proven bound and the published values are
    # asserted, which criteria 2 and 5 already cover -- re-stated here
    lehm_5 = lehmer_measure(generate(5))
    lehm_10 = lehmer_measure(generate(10))
    assert lehm_10.value > lehm_5.value  # the trend is NOT monotone pointwise
    for q0 in GOLDEN_Q0:
        result = lehmer_measure(generate(q0))
        assert result.value < result.bound_3_over_lg_q0
    print("[criterion 10] PASS only the proven 3/lg(q0) bound is asserted; "
          "pointwise monotonicity is explicitly not claimed")
