"""Command-line front end: generate identities, compute pi, verify folds.

Text output mirrors the classic trace format: an ``M <m> Q <q0>`` header,
one ``(+|-) Q <q>`` line per term (``lg Q <log10>`` once the integer would
be too wide to print), a ``(brk)`` marker when a partial run was cut off,
then the Lehmer measure and a float sanity sum for pi. JSON output emits a
formula document (schema 2) with every integer as a ``0x``-prefixed
lowercase hex string, which converts in linear time and is not subject to
the interpreter's int/str digit limit; schema 1 documents, with decimal
strings, are still read.

Exit codes: 0 ok, 1 stdout closed before all output was written, 2 bad
input, 3 cutoff without --partial, 4 precision unachievable, 5 identity
check failed, 6 partial formula records no remainder. The parser checks
every argument (an invalid one exits 2 with argparse's usage line); the
verbs are straight lines of library calls that let failures propagate,
and ``main`` alone turns them into exit codes, through ``_FAILURES``.
``verify`` and ``pi --formula`` check a document before printing
anything: a complete one must fold to tangent 1, a partial one onto its
recorded remainder, and the sum must lie within 2*pi of pi/4.
"""
from __future__ import annotations

import os
import sys

from .errors import (
    FoldError,
    GenerationCutoffError,
    IncompleteFormulaError,
    MachinError,
    PrecisionUnachievableError,
)
from .evaluator import compute_pi
from .exactint import exceeds_digits, from_decimal_string, log10_approx, to_decimal_string
from .exactint import decimal_digits  # noqa: F401  not called; perfbench/tracing.py patches this name
from .generator import MODES, FormulaTerm, GenerationConfig, MachinFormula, RemainderState, generate
from .measure import LehmerResult, lehmer_measure
from .verify import check_identity, float_sanity

__all__ = [
    "EXIT_BAD_INPUT",
    "EXIT_BROKEN_PIPE",
    "EXIT_CUTOFF",
    "EXIT_IDENTITY_FAILED",
    "EXIT_OK",
    "EXIT_PARTIAL_NOT_VERIFIABLE",
    "EXIT_PRECISION",
    "SCHEMA_VERSION",
    "document_to_formula",
    "formula_to_document",
    "main",
    "render_text",
]

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_BAD_INPUT = 2
EXIT_CUTOFF = 3
EXIT_PRECISION = 4
EXIT_IDENTITY_FAILED = 5
EXIT_PARTIAL_NOT_VERIFIABLE = 6

# headroom over --digits when generating a formula just to evaluate pi;
# covers the evaluator's internal retries with room to spare
_PI_DIGIT_MARGIN = 30
# widest integer, in digits, that the text listing prints in full
_DISPLAY_DIGIT_LIMIT = 200


# deletes every lowercase hex digit, so nothing is left of a valid body
_DROP_HEX_DIGITS = str.maketrans("", "", "0123456789abcdef")


def _parse_hex(text) -> int:
    """The value of "0x" + one or more lowercase hex digits; nothing else."""
    body = text[2:]
    if text[:2] != "0x" or not body or body.translate(_DROP_HEX_DIGITS):
        raise ValueError(f"not a 0x-prefixed lowercase hex integer: {text!r:.40}")
    return int(body, 16)


def _parse_sign(text) -> int:
    sign = {"+": 1, "-": -1}.get(text)
    if sign is None:
        raise ValueError("sign must be '+' or '-'")
    return sign


def formula_to_document(formula: MachinFormula, lehmer: LehmerResult) -> dict:
    """JSON-ready schema 2 document; integers travel as "0x" + lowercase hex.

    A partial formula that carries its unconsumed remainder also writes
    ``final_remainder`` as {"A", "B", "delta"} (delta as a '+'/'-' sign).
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "q0": hex(formula.q0),
        "m": hex(formula.terms[0].coefficient),
        "mode": formula.mode,
        "complete": formula.complete,
        "terms": [
            {
                "sign": "+" if term.sign > 0 else "-",
                "q": hex(term.q),
                "lg_q": log10_approx(term.q),
            }
            for term in formula.terms[1:]
        ],
        "lehmer": {"value": lehmer.value, "is_upper_bound": lehmer.is_upper_bound},
    }
    rem = formula.final_remainder
    if rem is not None:
        doc["final_remainder"] = {
            "A": hex(rem.A),
            "B": hex(rem.B),
            "delta": "+" if rem.delta > 0 else "-",
        }
    return doc


def document_to_formula(doc) -> MachinFormula:
    """Rebuild a formula from a parsed document (inverse of formula_to_document).

    Reads schema 2 (strict "0x" + lowercase hex integers) and schema 1
    (decimal integer strings).
    """
    if not isinstance(doc, dict):
        raise ValueError("formula document must be a JSON object")
    version = doc.get("schema_version")
    if version not in (1, 2):
        raise ValueError("unsupported formula document (need schema_version 1 or 2)")
    parse = _parse_hex if version == 2 else from_decimal_string
    try:
        q0 = parse(doc["q0"])
        m = parse(doc["m"])
        terms = [FormulaTerm(sign=1, q=q0, coefficient=m)]
        for entry in doc["terms"]:
            terms.append(FormulaTerm(sign=_parse_sign(entry["sign"]), q=parse(entry["q"])))
        rem = None
        if "final_remainder" in doc:
            entry = doc["final_remainder"]
            rem = RemainderState(parse(entry["A"]), parse(entry["B"]), _parse_sign(entry["delta"]))
        return MachinFormula(q0=q0, terms=tuple(terms), complete=doc["complete"],
                             final_remainder=rem, mode=doc.get("mode", "signed"))
    except (KeyError, TypeError, AttributeError) as exc:  # missing keys, non-strings, non-bools
        raise ValueError(f"malformed formula document: {exc}") from exc


def _q_display(q, digit_limit: int) -> str:
    if digit_limit < 1 or exceeds_digits(q, digit_limit):
        return f"lg Q {log10_approx(q)}"
    return f"Q {to_decimal_string(q)}"


def render_text(formula: MachinFormula, lehmer: LehmerResult, sanity: float,
                digit_limit: int = _DISPLAY_DIGIT_LIMIT) -> str:
    lines = [f"M {formula.terms[0].coefficient} {_q_display(formula.q0, digit_limit)}"]
    for term in formula.terms[1:]:
        glyph = "(+)" if term.sign > 0 else "(-)"
        lines.append(f"{glyph} {_q_display(term.q, digit_limit)}")
    if not formula.complete:
        lines.append("(brk)")
    lines.append("---")
    if lehmer.is_upper_bound:
        lines.append(f"Lehm < {lehmer.value}")
    else:
        lines.append(f"Lehm {lehmer.value}")
    lines.append(f"Pi {sanity}")
    return "\n".join(lines)


class _LoadError(MachinError):
    """A formula document that cannot be read or parsed."""


# how main reports a library failure: exit code and message prefix, by type
_FAILURES = (
    (_LoadError, EXIT_BAD_INPUT, "cannot load formula: "),
    (GenerationCutoffError, EXIT_CUTOFF, ""),
    (PrecisionUnachievableError, EXIT_PRECISION, ""),
    (FoldError, EXIT_IDENTITY_FAILED, "identity check failed: "),
    (IncompleteFormulaError, EXIT_PARTIAL_NOT_VERIFIABLE, ""),
)


def _load_formula(path: str) -> MachinFormula:
    """Read a formula document and check that it is an identity."""
    import json  # json loads re; only the verbs that read or write JSON pay for it

    try:
        with open(path, "r", encoding="utf-8") as handle:
            formula = document_to_formula(json.load(handle))
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise _LoadError(exc) from exc
    check_identity(formula)
    return formula


def _cmd_generate(args) -> None:
    config = GenerationConfig(mode=args.mode, partial=args.partial, max_digits=args.max_digits)
    try:
        formula = generate(args.q0, config)
    except GenerationCutoffError as exc:
        raise GenerationCutoffError(f"{exc} (use --partial to keep the truncated series)") from exc
    lehmer = lehmer_measure(formula)
    if args.format == "json":
        import json

        print(json.dumps(formula_to_document(formula, lehmer), indent=2))
    else:
        print(render_text(formula, lehmer, float_sanity(formula), args.display_digit_limit))


def _cmd_pi(args) -> None:
    if args.formula is not None:
        formula = _load_formula(args.formula)
    else:
        # partial generation sized to the request: the budget only needs one
        # dropped term beyond ~10^digits to anchor the tail bound
        config = GenerationConfig(partial=True, max_digits=args.digits + _PI_DIGIT_MARGIN)
        formula = generate(args.q0, config)
    print(compute_pi(formula, args.digits))


def _cmd_verify(args) -> None:
    if args.formula is not None:
        _load_formula(args.formula)
    else:
        check_identity(generate(args.q0))
    print("IDENTITY OK")


def _at_least(low: int, parse):
    """Argument type: the value parse(text) gives, if it is at least low."""
    import argparse

    def check(text):
        try:
            value = parse(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")

    return check


def _build_parser():
    import argparse  # it and the gettext it loads are needed by main alone

    q0_int = _at_least(2, from_decimal_string)
    positive_int = _at_least(1, from_decimal_string)
    parser = argparse.ArgumentParser(
        prog="machin",
        description="Generate Machin-like arctangent identities for pi/4, "
                    "measure them, verify them, and compute pi digits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build the identity for a starting denominator")
    gen.add_argument("q0", type=q0_int, help="starting denominator (integer >= 2)")
    defaults = GenerationConfig()
    gen.add_argument("--mode", choices=MODES, default=defaults.mode)
    gen.add_argument("--partial", action="store_true",
                     help="keep a truncated series when terms outgrow --max-digits")
    gen.add_argument("--max-digits", type=positive_int, default=defaults.max_digits, metavar="N",
                     help="digit budget per term denominator (default %(default)s)")
    gen.add_argument("--display-digit-limit", type=positive_int, metavar="N",
                     default=_DISPLAY_DIGIT_LIMIT,
                     help="print lg Q instead of integers wider than N digits (default %(default)s)")
    gen.add_argument("--format", choices=["text", "json"], default="text")
    gen.set_defaults(func=_cmd_generate)

    pi = sub.add_parser("pi", help="compute pi digits from a formula")
    src = pi.add_mutually_exclusive_group(required=True)
    src.add_argument("--q0", type=q0_int,
                     help="generate the formula for this starting denominator")
    src.add_argument("--formula", metavar="PATH", help="load a formula document (JSON)")
    pi.add_argument("--digits", type=positive_int, required=True, metavar="D",
                    help="number of decimal digits after the leading 3")
    pi.set_defaults(func=_cmd_pi)

    ver = sub.add_parser("verify", help="fold a formula and check it lands on arctan(1)",
                         usage="%(prog)s [-h] (q0 | --formula PATH)")
    src = ver.add_mutually_exclusive_group(required=True)
    src.add_argument("q0", type=q0_int, nargs="?",
                     help="generate and verify the identity for this q0")
    src.add_argument("--formula", metavar="PATH", help="verify a formula document (JSON)")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or an argument the parser rejects
        return exc.code
    try:
        args.func(args)
        sys.stdout.flush()  # a closed reader (`machin pi ... | head`) shows up here
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; point it at devnull
        # so that flush cannot fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except MachinError as exc:
        for kind, code, prefix in _FAILURES:
            if isinstance(exc, kind):
                print(f"machin: error: {prefix}{exc}", file=sys.stderr)
                return code
        raise
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
