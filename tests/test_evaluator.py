import functools
import json
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from machin import evaluator
from machin.errors import PrecisionUnachievableError
from machin.evaluator import _series_length, arctan_recip_fixed, compute_pi, plan_budget
from machin.generator import FormulaTerm, GenerationConfig, generate
from machin.verify import check_identity

from forged import with_fold_remainder


needs_int_str_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int/str digit limit"
)


def maclaurin_error_small_enough(q, K, eps2) -> bool:
    """Independent check of 1/((2K+3)*q^(2K+3)) < eps2, in exact rationals."""
    return Fraction(1, (2 * K + 3) * q ** (2 * K + 3)) < Fraction(*eps2)


def plain_series_length(q, bound):
    """Least K with (2K+3) * q^(2K+3) > bound, one K at a time."""
    K, power = 0, q ** 3
    while (2 * K + 3) * power <= bound:
        K += 1
        power *= q * q
    return K


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# 4*arctan(1/5) + arctan(1/10^30) with the remainder its fold leaves: the
# identity check passes, but the remainder, about -0.0042, is nowhere near
# smaller than the last term
FORGED_TAIL = with_fold_remainder([FormulaTerm(1, 5, 4), FormulaTerm(1, 10 ** 30)])


class TestPlanBudget:
    def test_epsilon_split_matches_closed_form(self):
        budget = plan_budget(generate(5), 10)
        eps, eps1 = Fraction(*budget.epsilon), Fraction(*budget.epsilon1)
        assert eps == Fraction(1, 10 ** 10)
        assert eps1 == eps / (2 + eps)
        assert eps1 == Fraction(1, 2 * 10 ** 10 + 1)

    def test_q5_digits50_keeps_both_terms(self):
        f = generate(5)
        budget = plan_budget(f, 50)
        assert budget.accepted_terms == 2  # 1/239 is far above eps1
        m = f.terms[0].coefficient
        eps1 = Fraction(*budget.epsilon1)
        assert Fraction(*budget.epsilon2) == eps1 / ((1 - eps1) * (m + 2 - 1))
        # each K is minimal for its exact inequality
        for term, K in zip(f.terms, budget.maclaurin_lengths):
            assert maclaurin_error_small_enough(term.q, K, budget.epsilon2)
            assert not maclaurin_error_small_enough(term.q, K - 1, budget.epsilon2)

    def test_q10_digits20_accepts_strict_prefix(self):
        f = generate(10)
        budget = plan_budget(f, 20)
        eps1 = Fraction(*budget.epsilon1)
        # oracle: keep while 1/q >= eps1, i.e. q <= 2*10^20 + 1
        expected = len(f.terms)
        for k, term in enumerate(f.terms[1:], start=1):
            if Fraction(1, term.q) < eps1:
                expected = k
                break
        assert budget.accepted_terms == expected == 5
        assert budget.accepted_terms < len(f.terms)

    def test_leading_term_never_dropped(self):
        # 1/30 is already below eps1 = 1/21 at a single digit; the first
        # term stays anyway and the others anchor the tail
        f = generate(30, GenerationConfig(partial=True, max_digits=120))
        budget = plan_budget(f, 1)
        assert budget.accepted_terms == 1

    def test_partial_formula_with_anchor_is_fine(self):
        f = generate(10, GenerationConfig(partial=True, max_digits=20))
        assert not f.complete
        budget = plan_budget(f, 5)
        assert budget.accepted_terms < len(f.terms)

    def test_partial_formula_too_short(self):
        f = generate(7, GenerationConfig(partial=True, max_digits=3))
        with pytest.raises(PrecisionUnachievableError):
            plan_budget(f, 10)

    def test_remainder_alone_can_bound_the_tail(self):
        # q0 = 12 cut at 50 digits keeps every term, and its A/B, about
        # 10^-147, is the whole tail: below eps1 up to D = 146
        f = generate(12, GenerationConfig(partial=True, max_digits=50))
        assert plan_budget(f, 80).accepted_terms == len(f.terms)
        for digits in (80, 140):
            assert compute_pi(f, digits) == compute_pi(generate(5), digits)
        with pytest.raises(PrecisionUnachievableError):
            compute_pi(f, 150)

    def test_rejects_zero_digits(self):
        with pytest.raises(ValueError):
            plan_budget(generate(5), 0)

    def test_rejects_float_digits(self):
        with pytest.raises(TypeError):
            plan_budget(generate(5), 10.0)
        with pytest.raises(TypeError):
            compute_pi(generate(5), 10.0)
        with pytest.raises(TypeError):  # not "digits must be at least 1"
            compute_pi(generate(5), 0.5)

    def test_partial_formula_without_remainder(self):
        f = generate(10, GenerationConfig(partial=True, max_digits=20))
        plan_budget(f, 5)
        with pytest.raises(PrecisionUnachievableError):
            plan_budget(f._replace(final_remainder=None), 5)

    @pytest.mark.parametrize("digits", [1, 5, 20, 40])
    def test_forged_tail_gets_no_digits(self, digits):
        check_identity(FORGED_TAIL)
        with pytest.raises(PrecisionUnachievableError, match=rf"10\^-{digits} "):
            compute_pi(FORGED_TAIL, digits)

    def test_forged_tail_bounded_at_low_precision(self):
        # eps1 = 1/21 at one digit is above 1/10^30 + 0.0042: the cut stands
        assert plan_budget(FORGED_TAIL, 1).accepted_terms == 1

    def test_keeps_the_next_term_when_the_tail_bound_fails(self):
        # Machin's pi/4 plus arctan(1/Q) - arctan(1/10^40), Q = 1.001 * E and
        # E = 2*10^30 + 1: the cut falls before Q, but with |A/B| about
        # 1/Q - 1/10^40 the dropped weight is about 2/Q, not below 1/E, and
        # after keeping Q it is about 1/Q, which is
        E = 2 * 10 ** 30 + 1
        machin = generate(5).terms
        f = with_fold_remainder([*machin, FormulaTerm(1, E + E // 1000), FormulaTerm(-1, 10 ** 40)])
        check_identity(f)
        assert plan_budget(f, 30).accepted_terms == 3
        assert compute_pi(f, 28) == compute_pi(generate(5), 28)


class TestSeriesLength:
    @given(q=st.one_of(st.integers(2, 100), st.integers(2, 10 ** 40)),
           digits=st.integers(1, 3000), n=st.integers(1, 10 ** 4))
    @example(q=2, digits=3000, n=1)
    @example(q=10 ** 40, digits=1, n=1)
    @settings(max_examples=60)
    def test_matches_plain_loop(self, q, digits, n):
        # the bound plan_budget passes: 1/eps2 = 2 * 10^digits * n
        bound = 2 * 10 ** digits * n
        assert _series_length(q, bound, digits + math.log10(2 * n)) == plain_series_length(q, bound)

    @pytest.mark.parametrize("q", [2, 3, 10, 239])
    @pytest.mark.parametrize("K", [0, 1, 5, 40])
    def test_ties_need_one_more_term(self, q, K):
        # (2K+3) * q^(2K+3) equal to the bound is not above it
        bound = (2 * K + 3) * q ** (2 * K + 3)
        lg_bound = math.log10(bound)
        assert _series_length(q, bound, lg_bound) == K + 1
        assert _series_length(q, bound - 1, lg_bound) == K

    @pytest.mark.parametrize("error", [-3.0, -0.5, 0.5, 3.0])
    def test_exact_steps_correct_a_wrong_estimate(self, error):
        # lg_bound only seeds the estimate; the exact comparisons decide
        for q, digits in ((2, 50), (239, 1000), (10 ** 12, 300)):
            bound = 2 * 10 ** digits * 7
            expected = plain_series_length(q, bound)
            assert _series_length(q, bound, digits + math.log10(14) + error) == expected


class TestArctanFixed:
    def test_one_term_239(self):
        assert arctan_recip_fixed(239, 0, 10) == 41841004  # floor(10^10 / 239)

    def test_tenth_is_exact(self):
        for scale in (1, 5, 30):
            assert Fraction(arctan_recip_fixed(10, 0, scale), 10 ** scale) == Fraction(1, 10)

    def test_q5_bracketed_by_cubic_corollary(self):
        value = Fraction(arctan_recip_fixed(5, 40, 30), 10 ** 30)
        assert Fraction(1, 5) - Fraction(1, 375) < value < Fraction(1, 5)

    @pytest.mark.parametrize("q", [2, 3, 7, 10, 50])
    def test_converged_value_within_cubic_corollary(self, q):
        value = Fraction(arctan_recip_fixed(q, 30, 60), 10 ** 60)
        assert Fraction(1, q) - Fraction(1, 3 * q ** 3) < value < Fraction(1, q)

    @given(q=st.integers(min_value=2, max_value=10 ** 6),
           K=st.integers(min_value=0, max_value=12),
           scale=st.integers(min_value=5, max_value=80))
    @settings(max_examples=60)
    def test_successive_lengths_bracket(self, q, K, scale):
        shorter = arctan_recip_fixed(q, K, scale)
        longer = arctan_recip_fixed(q, K + 1, scale)
        if K % 2 == 0:  # term K+1 is subtracted
            assert longer <= shorter
        else:
            assert longer >= shorter

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            arctan_recip_fixed(1, 3, 10)

    @pytest.mark.parametrize("args", [(5.5, 3, 10), (5.0, 3, 10), (5, 3.0, 10), (5, 3, 10.0)])
    def test_rejects_floats(self, args):
        # 5.5 would run as q = 5, and a float scale would give a float mantissa
        with pytest.raises(TypeError):
            arctan_recip_fixed(*args)


class TestComputePi:
    def test_single_digit(self):
        assert compute_pi(generate(7), 1) == "3.1"

    def test_known_prefix(self):
        out = compute_pi(generate(5), 50)
        assert out.startswith("3.14159265358979323846264338327950288419716939937510")

    def test_cross_formula_agreement(self):
        a = compute_pi(generate(5), 60)
        b = compute_pi(generate(10), 60)
        c = compute_pi(generate(9), 60)
        assert a == b == c

    def test_positive_mode_formula_agrees(self):
        a = compute_pi(generate(6, GenerationConfig(mode="positive")), 40)
        b = compute_pi(generate(5), 40)
        assert a == b

    def test_partial_formula_agrees(self):
        partial = generate(10, GenerationConfig(partial=True, max_digits=20))
        assert compute_pi(partial, 5) == compute_pi(generate(5), 5)

    def test_output_width_is_exact(self):
        out = compute_pi(generate(8), 123)
        assert out.startswith("3.")
        assert len(out) == 2 + 123

    def test_budget_soundness_across_requests(self):
        for digits in (10, 50, 200):
            for q0 in (5, 9, 10):
                f = generate(q0)
                budget = plan_budget(f, digits)
                for term, K in zip(f.terms[: budget.accepted_terms],
                                   budget.maclaurin_lengths):
                    assert maclaurin_error_small_enough(term.q, K, budget.epsilon2)
                    assert not maclaurin_error_small_enough(term.q, K - 1, budget.epsilon2)

    def test_rejects_zero_digits(self):
        with pytest.raises(ValueError):
            compute_pi(generate(5), 0)

    @needs_int_str_limit
    def test_past_int_str_limit_in_fresh_process(self):
        # a fresh process pins the default limit, whatever this one runs under
        code = (
            "import json, sys\n"
            "from machin import compute_pi, generate\n"
            "a = compute_pi(generate(5), 4400)\n"
            "b = compute_pi(generate(10), 4400)\n"
            "print(json.dumps([a, b, sys.get_int_max_str_digits()]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=4300", "-c", code],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        a, b, limit = json.loads(proc.stdout)
        assert a == b
        assert len(a) == 4402 and a.startswith("3.14159265358979")
        assert limit == 4300


FORK_WORK = evaluator._FORK_WORK


@functools.lru_cache(maxsize=None)
def pi_text(digits):
    return compute_pi(generate(5), digits)


@functools.lru_cache(maxsize=None)
def split_formula(q0):
    """Complete for q0 < 100, else partial with terms for 6000 digits."""
    if q0 < 100:
        return generate(q0)
    return generate(q0, GenerationConfig(partial=True, max_digits=6030))


class TestForkedSeries:
    """compute_pi's split of the kept series across forked children.

    _FORK_WORK = 0 forks whenever the other conditions hold, infinity
    never; _usable_cpus is pinned so the split does not depend on the host.
    """

    @pytest.fixture
    def forks(self, monkeypatch):
        """The os.fork calls made, with three usable CPUs and no threshold."""
        calls = []
        fork = os.fork

        def counted():
            calls.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(evaluator, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(evaluator, "_FORK_WORK", 0)
        return calls

    @staticmethod
    def run(monkeypatch, formula, digits, work):
        """compute_pi's text and every raw series sum it took, at threshold `work`."""
        monkeypatch.setattr(evaluator, "_FORK_WORK", work)
        sums = []
        arctan_sum = evaluator._arctan_sum

        def recorded(kept, scale):
            sums.append(arctan_sum(kept, scale))
            return sums[-1]

        monkeypatch.setattr(evaluator, "_arctan_sum", recorded)
        text = compute_pi(formula, digits)
        monkeypatch.setattr(evaluator, "_arctan_sum", arctan_sum)
        return text, sums

    @pytest.mark.parametrize("digits", [1700, 3000, 6000])
    @pytest.mark.parametrize("q0", [5, 10, 20, 100, 327, 880, 100000])
    def test_forked_equals_serial(self, forks, monkeypatch, q0, digits):
        formula = split_formula(q0)
        forked = self.run(monkeypatch, formula, digits, 0)
        assert forks
        calls = len(forks)
        assert self.run(monkeypatch, formula, digits, math.inf) == forked
        assert len(forks) == calls
        assert forked[0] == pi_text(digits)

    def test_failed_fork_sums_here(self, forks, monkeypatch):
        def fail():
            forks.append(None)
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", fail)
        assert compute_pi(generate(10), 1700) == pi_text(1700)
        assert forks

    def test_failed_child_is_recomputed(self, forks, monkeypatch):
        fork = os.fork

        def failing_child():
            forks.append(None)
            pid = fork()
            if pid == 0:
                os._exit(3)
            return pid

        monkeypatch.setattr(os, "fork", failing_child)
        assert compute_pi(generate(10), 1700) == pi_text(1700)
        assert forks

    def test_interrupt_kills_and_reaps_the_children(self, forks, monkeypatch):
        parent = os.getpid()
        series = evaluator.arctan_recip_fixed

        def interrupted(q, K, scale):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return series(q, K, scale)

        monkeypatch.setattr(evaluator, "arctan_recip_fixed", interrupted)
        with pytest.raises(KeyboardInterrupt):
            compute_pi(generate(10), 1700)
        assert forks  # no_child_left checks they were reaped

    def test_one_cpu_does_not_fork(self, forks, monkeypatch):
        monkeypatch.setattr(evaluator, "_usable_cpus", lambda: 1)
        assert compute_pi(generate(10), 1700) == pi_text(1700)
        assert not forks

    def test_live_thread_prevents_fork(self, forks):
        done = threading.Event()
        thread = threading.Thread(target=done.wait, args=(60,))
        thread.start()
        try:
            text = compute_pi(generate(10), 1700)
        finally:
            done.set()
            thread.join(60)
        assert not thread.is_alive()
        assert text == pi_text(1700)
        assert not forks

    def test_substrate_check_runs_forked(self, forks, monkeypatch):
        # tests/test_substrate.py's compute_pi(generate(20), 5000) is above
        # the threshold, so the gmpy2 stand-in runs the forked path
        monkeypatch.setattr(evaluator, "_FORK_WORK", FORK_WORK)
        compute_pi(generate(20), 5000)
        assert forks
