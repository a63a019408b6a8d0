"""Machin-like arctangent identities for pi: generation, measure, evaluation.

The library builds identities pi/4 = m*arctan(1/q0) + sum of +-arctan(1/q_k)
from a single starting denominator by exact integer recurrences, scores
them with the Lehmer measure, verifies them by exact arctangent folding,
and computes pi to a requested number of decimal digits with a rigorously
budgeted fixed-point evaluation.
"""

from .errors import (
    FoldError,
    GenerationCutoffError,
    IncompleteFormulaError,
    MachinError,
    PrecisionUnachievableError,
)
from .evaluator import PrecisionBudget, arctan_recip_fixed, compute_pi, plan_budget
from .exactint import Ratio, log10_approx
from .generator import (
    FormulaTerm,
    GenerationConfig,
    MachinFormula,
    RemainderState,
    find_first_term,
    generate,
    next_term_positive,
    next_term_signed,
)
from .measure import LehmerResult, lehmer_measure
from .verify import float_sanity, fold_formula

__version__ = "0.1.0"

__all__ = [
    "FoldError",
    "FormulaTerm",
    "GenerationConfig",
    "GenerationCutoffError",
    "IncompleteFormulaError",
    "LehmerResult",
    "MachinError",
    "MachinFormula",
    "PrecisionBudget",
    "PrecisionUnachievableError",
    "Ratio",
    "RemainderState",
    "arctan_recip_fixed",
    "compute_pi",
    "find_first_term",
    "float_sanity",
    "fold_formula",
    "generate",
    "lehmer_measure",
    "log10_approx",
    "next_term_positive",
    "next_term_signed",
    "plan_budget",
]
