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
check failed, 6 partial formula not verifiable. ``pi --formula`` checks
its document before printing a digit: a complete one must fold to tangent
1, a partial one must fold onto its recorded remainder (exit 6 when it
records none).
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .errors import (
    FoldError,
    GenerationCutoffError,
    IncompleteFormulaError,
    PrecisionUnachievableError,
)
from .evaluator import compute_pi
from .exactint import decimal_digits, from_decimal_string, log10_approx, to_decimal_string
from .generator import FormulaTerm, GenerationConfig, MachinFormula, RemainderState, generate
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


def _fail(message: str, code: int) -> int:
    print(f"machin: error: {message}", file=sys.stderr)
    return code


def _hex(n) -> str:
    return "0x" + format(n, "x")


_HEX = re.compile(r"0x[0-9a-f]+")


def _parse_hex(text) -> int:
    if not _HEX.fullmatch(text):
        raise ValueError(f"not a 0x-prefixed lowercase hex integer: {text!r:.40}")
    return int(text[2:], 16)


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
        "q0": _hex(formula.q0),
        "m": _hex(formula.terms[0].coefficient),
        "mode": formula.mode,
        "complete": formula.complete,
        "terms": [
            {
                "sign": "+" if term.sign > 0 else "-",
                "q": _hex(term.q),
                "lg_q": log10_approx(term.q),
            }
            for term in formula.terms[1:]
        ],
        "lehmer": {"value": lehmer.value, "is_upper_bound": lehmer.is_upper_bound},
    }
    rem = formula.final_remainder
    if rem is not None:
        doc["final_remainder"] = {
            "A": _hex(rem.A),
            "B": _hex(rem.B),
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
        complete = doc["complete"]
        if not isinstance(complete, bool):
            raise ValueError("complete must be a JSON boolean")
        mode = doc.get("mode", "signed")
        terms = [FormulaTerm(sign=1, q=q0, coefficient=m)]
        for entry in doc["terms"]:
            terms.append(FormulaTerm(sign=_parse_sign(entry["sign"]), q=parse(entry["q"])))
        rem = None
        if "final_remainder" in doc:
            entry = doc["final_remainder"]
            rem = RemainderState(parse(entry["A"]), parse(entry["B"]), _parse_sign(entry["delta"]))
    except (KeyError, TypeError, AttributeError) as exc:  # missing keys, non-string values
        raise ValueError(f"malformed formula document: {exc}") from exc
    return MachinFormula(q0=q0, terms=tuple(terms), complete=complete,
                         final_remainder=rem, mode=mode)


def _q_display(q, digit_limit: int) -> str:
    if decimal_digits(q) > digit_limit:
        return f"lg Q {log10_approx(q)}"
    return f"Q {to_decimal_string(q)}"


def render_text(formula: MachinFormula, lehmer: LehmerResult, sanity: float,
                digit_limit: int = 200) -> str:
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


def _parse_q0(text: str):
    try:
        q0 = from_decimal_string(text)
    except ValueError:
        return None
    return q0 if q0 >= 2 else None


def _load_formula(path: str) -> MachinFormula:
    with open(path, "r", encoding="utf-8") as handle:
        return document_to_formula(json.load(handle))


def _check_identity(formula) -> int | None:
    """Exit code for a formula that fails check_identity, None if it passes."""
    try:
        check_identity(formula)
    except IncompleteFormulaError as exc:
        return _fail(str(exc), EXIT_PARTIAL_NOT_VERIFIABLE)
    except FoldError as exc:
        return _fail(f"identity check failed: {exc}", EXIT_IDENTITY_FAILED)
    return None


def _cmd_generate(args) -> int:
    q0 = _parse_q0(args.q0)
    if q0 is None:
        return _fail(f"q0 must be an integer >= 2, got {args.q0!r}", EXIT_BAD_INPUT)
    if args.max_digits < 1:
        return _fail("--max-digits must be at least 1", EXIT_BAD_INPUT)
    if args.display_digit_limit < 1:
        return _fail("--display-digit-limit must be at least 1", EXIT_BAD_INPUT)
    config = GenerationConfig(mode=args.mode, partial=args.partial, max_digits=args.max_digits)
    try:
        formula = generate(q0, config)
    except GenerationCutoffError as exc:
        return _fail(f"{exc} (use --partial to keep the truncated series)", EXIT_CUTOFF)
    lehmer = lehmer_measure(formula)
    sanity = float_sanity(formula)
    if args.format == "json":
        print(json.dumps(formula_to_document(formula, lehmer), indent=2))
    else:
        print(render_text(formula, lehmer, sanity, args.display_digit_limit))
    return EXIT_OK


def _cmd_pi(args) -> int:
    if args.digits < 1:
        return _fail("--digits must be at least 1", EXIT_BAD_INPUT)
    if args.formula is not None:
        try:
            formula = _load_formula(args.formula)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            return _fail(f"cannot load formula: {exc}", EXIT_BAD_INPUT)
        failed = _check_identity(formula)
        if failed is not None:
            return failed
    else:
        q0 = _parse_q0(args.q0)
        if q0 is None:
            return _fail(f"--q0 must be an integer >= 2, got {args.q0!r}", EXIT_BAD_INPUT)
        # partial generation sized to the request: the budget only needs one
        # dropped term beyond ~10^digits to anchor the tail bound
        config = GenerationConfig(partial=True, max_digits=args.digits + _PI_DIGIT_MARGIN)
        formula = generate(q0, config)
    try:
        print(compute_pi(formula, args.digits))
    except PrecisionUnachievableError as exc:
        return _fail(str(exc), EXIT_PRECISION)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if (args.q0 is None) == (args.formula is None):
        return _fail("pass exactly one of <q0> or --formula", EXIT_BAD_INPUT)
    if args.formula is not None:
        try:
            formula = _load_formula(args.formula)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            return _fail(f"cannot load formula: {exc}", EXIT_BAD_INPUT)
    else:
        q0 = _parse_q0(args.q0)
        if q0 is None:
            return _fail(f"q0 must be an integer >= 2, got {args.q0!r}", EXIT_BAD_INPUT)
        try:
            formula = generate(q0)
        except GenerationCutoffError as exc:
            return _fail(str(exc), EXIT_CUTOFF)
    if not formula.complete:
        return _fail("cannot verify partial formula as identity", EXIT_PARTIAL_NOT_VERIFIABLE)
    failed = _check_identity(formula)
    if failed is not None:
        return failed
    print("IDENTITY OK")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="machin",
        description="Generate Machin-like arctangent identities for pi/4, "
                    "measure them, verify them, and compute pi digits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build the identity for a starting denominator")
    gen.add_argument("q0", help="starting denominator (integer >= 2)")
    gen.add_argument("--mode", choices=["signed", "positive"], default="signed")
    gen.add_argument("--partial", action="store_true",
                     help="keep a truncated series when terms outgrow --max-digits")
    gen.add_argument("--max-digits", type=int, default=1_000_000, metavar="N",
                     help="digit budget per term denominator (default 1000000)")
    gen.add_argument("--display-digit-limit", type=int, default=200, metavar="N",
                     help="print lg Q instead of integers wider than N digits (default 200)")
    gen.add_argument("--format", choices=["text", "json"], default="text")
    gen.set_defaults(func=_cmd_generate)

    pi = sub.add_parser("pi", help="compute pi digits from a formula")
    src = pi.add_mutually_exclusive_group(required=True)
    src.add_argument("--q0", help="generate the formula for this starting denominator")
    src.add_argument("--formula", metavar="PATH", help="load a formula document (JSON)")
    pi.add_argument("--digits", type=int, required=True, metavar="D",
                    help="number of decimal digits after the leading 3")
    pi.set_defaults(func=_cmd_pi)

    ver = sub.add_parser("verify", help="fold a formula and check it lands on arctan(1)")
    ver.add_argument("q0", nargs="?", default=None,
                     help="generate and verify the identity for this q0")
    ver.add_argument("--formula", metavar="PATH", help="verify a formula document (JSON)")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader (`machin pi ... | head`) shows up here
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; point it at devnull
        # so that flush cannot fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
