"""The library's records are named tuples: read-only, validated, picklable.

Also checks that importing the package leaves the heavy standard-library
modules (dataclasses and the inspect/ast it loads, argparse, fractions,
re) unloaded, since every CLI call and every pi worker pays for them, and
that computing pi never loads fractions.
"""
import os
import pickle
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import pytest

import machin
from machin.evaluator import PrecisionBudget, plan_budget
from machin.exactint import Ratio
from machin.generator import (
    FormulaTerm,
    GenerationConfig,
    MachinFormula,
    RemainderState,
    find_first_term,
    generate,
)
from machin.measure import LehmerResult, lehmer_measure
from machin.verify import fold_formula

from intstr import unlimited_int_str

MACHIN = generate(5)
PARTIAL = generate(12, GenerationConfig(partial=True, max_digits=80))

RECORDS = [
    fold_formula(MACHIN),
    PARTIAL.final_remainder,
    MACHIN.terms[1],
    MACHIN,
    PARTIAL,
    GenerationConfig(mode="positive", partial=True, max_digits=50),
    lehmer_measure(PARTIAL),
    plan_budget(MACHIN, 30),
]
RECORD_IDS = [type(r).__name__ for r in RECORDS]
RECORD_IDS[4] += "-partial"

FIELDS = {
    Ratio: ("num", "den"),
    RemainderState: ("A", "B", "delta"),
    FormulaTerm: ("sign", "q", "coefficient"),
    MachinFormula: ("q0", "terms", "complete", "final_remainder", "mode"),
    GenerationConfig: ("mode", "partial", "max_digits"),
    LehmerResult: ("value", "is_upper_bound", "bound_3_over_lg_q0"),
    PrecisionBudget: ("epsilon", "epsilon1", "epsilon2", "accepted_terms", "maclaurin_lengths"),
}


def named_tuple_repr(record):
    """The repr of a plain named tuple of the same name and fields."""
    return repr(namedtuple(type(record).__name__, record._fields)(*record))


T5 = FormulaTerm(1, 5, 4)
T239 = FormulaTerm(-1, 239)
MODES_MESSAGE = "mode must be one of ('signed', 'positive')"
INVALID = [
    (lambda: Ratio(1, 0), "Ratio denominator must be nonzero"),
    (lambda: RemainderState(-1, 5, 1), "remainder numerator A must be nonnegative"),
    (lambda: RemainderState(1, 0, 1), "remainder denominator B must be positive"),
    (lambda: RemainderState(1, 5, 0), "remainder sign delta must be -1 or +1"),
    (lambda: FormulaTerm(0, 5), "term sign must be -1 or +1"),
    (lambda: FormulaTerm(1, 0), "term denominator q must be positive"),
    (lambda: FormulaTerm(1, 5, 0), "term coefficient must be at least 1"),
    (lambda: MachinFormula(5, (), True), "a formula needs at least one term"),
    (lambda: MachinFormula(6, (T5, T239), True),
     "the first term must be arctan(1/q0) with q0 >= 2"),
    (lambda: MachinFormula(1, (FormulaTerm(1, 1, 1),), True),
     "the first term must be arctan(1/q0) with q0 >= 2"),
    (lambda: MachinFormula(5, (FormulaTerm(-1, 5, 4), T239), True),
     "the first term is always positive"),
    (lambda: MachinFormula(5, (T5, FormulaTerm(-1, 239, 2)), True),
     "only the first term may carry a coefficient"),
    (lambda: MachinFormula(5, (T5, FormulaTerm(-1, 5)), True),
     "term denominators must strictly increase"),
    (lambda: MachinFormula(5, (T5, T239), True, RemainderState(1, 2, 1)),
     "a complete formula has no remainder"),
    (lambda: MachinFormula(5, (T5, T239), True, None, "wide"), MODES_MESSAGE),
    (lambda: GenerationConfig(mode="wide"), MODES_MESSAGE),
    (lambda: GenerationConfig(max_digits=0), "max_digits must be at least 1"),
    # _replace goes through the same checks
    (lambda: T239._replace(sign=0), "term sign must be -1 or +1"),
    (lambda: MACHIN._replace(final_remainder=RemainderState(1, 2, 1)),
     "a complete formula has no remainder"),
]


@pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
class TestRecord:
    def test_fields_in_order(self, record):
        assert type(record)._fields == FIELDS[type(record)]
        assert tuple(getattr(record, name) for name in record._fields) == tuple(record)

    def test_read_only(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], record[0])
        with pytest.raises(AttributeError):
            record.extra = 1  # no instance __dict__ either
        assert not hasattr(record, "__dict__")

    def test_equal_values_give_equal_records(self, record):
        cls = type(record)
        for copy in (cls(*record), cls(**record._asdict()), record._replace()):
            assert type(copy) is cls
            assert copy == record
            assert repr(copy) == repr(record)
            assert hash(copy) == hash(record)

    def test_pickle_round_trip(self, record):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record)
        assert back == record

    def test_repr_names_the_fields(self, record):
        assert repr(record).startswith(f"{type(record).__name__}({record._fields[0]}=")

    def test_repr_is_the_named_tuple_repr(self, record):
        assert repr(record) == named_tuple_repr(record)


@pytest.mark.parametrize("make", [
    lambda: generate(20),  # terms of more than 4300 digits
    lambda: fold_formula(generate(14)),
    lambda: plan_budget(generate(5), 5000),  # Ratio(1, 10**5000)
])
def test_repr_of_big_records(make):
    # under the default int/str limit, where the named tuple's repr raises
    record = make()
    text = repr(record)
    with unlimited_int_str():
        assert text == named_tuple_repr(record)


@pytest.mark.parametrize("make, message", INVALID)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


NOT_INTEGERS = [
    lambda: generate(5.9),
    lambda: find_first_term(7.99),
    lambda: FormulaTerm(1, 5.5),
    lambda: FormulaTerm(1.0, 5),
    lambda: RemainderState(0.5, 2.5, 1),
    lambda: Ratio(3.0, 4),
    lambda: MachinFormula(5.0, (T5, T239), True),
    lambda: GenerationConfig(max_digits=50.0),
    lambda: generate(1000, GenerationConfig(partial=True, max_digits=400))
    .final_remainder._replace(delta=1.0),
]

NOT_BOOLS = [
    lambda: GenerationConfig(partial="no"),
    lambda: GenerationConfig(partial=0),
    lambda: MachinFormula(5, generate(5).terms, "no"),
    lambda: MachinFormula(5, generate(5).terms, 1),
    lambda: PARTIAL._replace(complete=None),
]


@pytest.mark.parametrize("make", NOT_INTEGERS, ids=[
    "generate", "find_first_term", "FormulaTerm-q", "FormulaTerm-sign", "RemainderState",
    "Ratio", "MachinFormula", "GenerationConfig", "rebuilt-remainder-delta"])
def test_integer_fields_reject_floats(make):
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize("make", NOT_BOOLS, ids=[
    "partial-str", "partial-int", "complete-str", "complete-int", "rebuilt-complete"])
def test_boolean_fields_reject_other_values(make):
    # "no" is truthy: taken as a bool it would flip the run or the formula
    with pytest.raises(TypeError):
        make()


def test_integer_fields_hold_plain_ints():
    class Wide(int):
        pass

    fields = [
        *Ratio(Wide(3), Wide(-4)),
        *RemainderState(Wide(1), Wide(5), Wide(-1)),
        *FormulaTerm(True, Wide(239), Wide(1)),
        MachinFormula(Wide(5), (T5, T239), True).q0,
        GenerationConfig(max_digits=Wide(50)).max_digits,
    ]
    assert all(type(value) is int for value in fields)


def test_keyword_construction_and_defaults():
    assert FormulaTerm(sign=-1, q=239) == FormulaTerm(-1, 239, 1)
    assert GenerationConfig() == GenerationConfig("signed", False, 1_000_000)
    f = MachinFormula(q0=5, terms=(T5, T239), complete=True)
    assert f.final_remainder is None and f.mode == "signed"
    assert f == MACHIN
    assert GenerationConfig(max_digits=7)._replace(partial=True) == ("signed", True, 7)


def test_ratio_sign_lives_in_num():
    assert Ratio(3, -4) == Ratio(-3, 4)
    assert (Ratio(3, -4).num, Ratio(3, -4).den) == (-3, 4)
    assert Ratio(-3, -4) == Ratio(3, 4)
    assert Ratio(3, 4)._replace(den=-4) == Ratio(-3, 4)
    assert pickle.loads(pickle.dumps(Ratio(3, -4))) == Ratio(-3, 4)


def test_records_are_tuples():
    num, den = Ratio(3, 4)
    assert (num, den) == (3, 4)
    assert Ratio(3, 4) == (3, 4)
    budget = plan_budget(MACHIN, 30)
    assert type(budget.epsilon) is Ratio
    assert Fraction(*budget.epsilon) == Fraction(1, 10 ** 30)
    assert isinstance(budget.maclaurin_lengths, tuple)


LEAN_CHECK = """
import sys
heavy = ("dataclasses", "inspect", "argparse", "fractions", "re")
import machin
print(*[name for name in heavy if name in sys.modules])
import machin.cli
print(*[name for name in heavy if name in sys.modules])
machin.compute_pi(machin.generate(5), 50)
repr(machin.plan_budget(machin.generate(5), 5000))
print("fractions" in sys.modules)
"""


def test_import_leaves_heavy_modules_unloaded():
    # a fresh interpreter without site, so nothing else has loaded them
    src = Path(machin.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LEAN_CHECK],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["", "", "False", ""]
