"""One measured pass over a workload's inputs, in a fresh interpreter.

Reads a JSON job on stdin (the generated inputs, never the seed), runs the
ops back to back as a single closed-loop client, checks each output
outside the timed region and prints one JSON result on stdout. Each op is
the sequence of public library calls the matching CLI verb makes, minus
argv parsing and printing; ``machin.cli.main`` is not used because its
argument parsing changes the process-wide int/str digit limit.

This process never calls ``sys.set_int_max_str_digits``; the library's
own ``to_decimal_string``/``from_decimal_string`` may, as they do for a
CLI user.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from machin import (
    FormulaTerm,
    GenerationConfig,
    MachinFormula,
    compute_pi,
    find_first_term,
    float_sanity,
    fold_formula,
    generate,
    lehmer_measure,
    next_term_signed,
)
from machin._bigint import HAVE_GMPY2
from machin.cli import document_to_formula, formula_to_document, render_text
from machin.errors import GenerationCutoffError
from machin.exactint import exceeds_digits

from tracing import Tracer

# as `machin pi --q0` does: generate this many digits beyond --digits
PI_DIGIT_MARGIN = 30
# the CLI's default --display-digit-limit
DISPLAY_DIGIT_LIMIT = 200
# Gaussian products are checked modulo the Mersenne primes 2^61-1, 2^89-1, 2^127-1
PRIMES = (2**61 - 1, 2**89 - 1, 2**127 - 1)
LOG10_2 = math.log10(2)


# ---------------------------------------------------------------- checks

def _gmul(x, y, re, im, p):
    return (x * re - y * im) % p, (x * im + y * re) % p


def gaussian_identity_ok(formula) -> bool:
    """(q0+i)^m * prod(q_k + s_k i) * (B + delta A i) must have Re == Im.

    The argument of that Gaussian integer is the formula's right-hand side
    plus the unconsumed remainder, which must be exactly pi/4. The product
    is taken modulo three large primes, so the check costs one pass over
    the digits of each term.
    """
    rem = formula.final_remainder
    if not formula.complete and rem is None:
        return False
    first = formula.terms[0]
    for p in PRIMES:
        x, y = 1, 0
        base_re, base_im, k = first.q % p, 1, first.coefficient
        while k:  # (q0 + i)^m by squaring
            if k & 1:
                x, y = _gmul(x, y, base_re, base_im, p)
            base_re, base_im = _gmul(base_re, base_im, base_re, base_im, p)
            k >>= 1
        for term in formula.terms[1:]:
            x, y = _gmul(x, y, term.q % p, term.sign, p)
        if rem is not None:
            x, y = _gmul(x, y, rem.B % p, rem.delta * rem.A % p, p)
        if (x - y) % p:
            return False
    return True


def golden_mismatch(formula, ref):
    """Compare a formula with a golden run; a partial formula is a prefix."""
    if formula.terms[0].coefficient != ref["m"]:
        return f"m {formula.terms[0].coefficient} != golden {ref['m']}"
    exact, lg = ref["terms"], ref["lg_terms"]
    produced = formula.terms[1:]
    if len(produced) > len(exact) + len(lg):
        return "more terms than the golden run"
    if ref["complete"] and formula.complete != (len(produced) == len(exact) + len(lg)):
        return "completeness differs from the golden run"
    for i, term in enumerate(produced):
        if i < len(exact):
            if [term.sign, term.q] != list(exact[i]):
                return f"term {i + 1} differs from the golden run"
        else:
            sign, lg_q = lg[i - len(exact)]
            if term.sign != sign or abs(math.log10(term.q) - lg_q) > 1e-6 * lg_q:
                return f"term {i + 1} (lg) differs from the golden run"
    return None


def digest(formula) -> str:
    h = hashlib.sha256()
    rem = formula.final_remainder
    values = [formula.q0, formula.terms[0].coefficient, int(formula.complete)]
    values += [t.sign * t.q for t in formula.terms[1:]]
    values += [rem.delta * rem.A, rem.B] if rem else []
    for n in values:
        h.update(n.to_bytes(n.bit_length() // 8 + 1, "little", signed=True))
    return h.hexdigest()


def formula_digits(formula) -> int:
    """Decimal digits of all denominators, estimated from bit lengths."""
    return sum(int(t.q.bit_length() * LOG10_2) + 1 for t in formula.terms)


def document_digits(doc) -> int:
    return len(doc["q0"]) + len(doc["m"]) + sum(len(t["q"]) for t in doc["terms"])


# ----------------------------------------------------------------- library

def plain_library():
    return SimpleNamespace(
        generate=generate,
        lehmer=lehmer_measure,
        render=render_text,
        compute_pi=compute_pi,
        encode=formula_to_document,
        decode=document_to_formula,
        fold=fold_formula,
        io=lambda fn: fn(),
    )


def traced_library(tracer):
    """The same calls, each under a span; generation step by step."""
    tracer.install()
    first_term = tracer.wrap("generator.first_term", find_first_term)
    step = tracer.wrap("generator.step", next_term_signed)
    counters = tracer.counters

    def traced_generate(q0, config=None):
        # generate()'s own stop rule, driven through the public pieces
        cfg = config if config is not None else GenerationConfig()
        m, state = first_term(q0)
        counters["generator.first_term.steps"] += m
        terms = [FormulaTerm(sign=1, q=q0, coefficient=m)]
        while True:
            counters["generator.step.calls"] += 1
            counters["generator.step.max_bits"] = max(
                counters["generator.step.max_bits"], state.B.bit_length())
            term, state = step(state)
            terms.append(term)
            if state.A == 0:
                return MachinFormula(q0, tuple(terms), True, None, cfg.mode)
            if exceeds_digits(term.q, cfg.max_digits):
                if cfg.partial:
                    return MachinFormula(q0, tuple(terms), False, state, cfg.mode)
                raise GenerationCutoffError(f"term exceeded {cfg.max_digits} decimal digits")

    return SimpleNamespace(
        generate=traced_generate,
        lehmer=tracer.wrap("measure.lehmer", lehmer_measure),
        render=tracer.wrap("cli.render", render_text),
        compute_pi=tracer.wrap("evaluator.certify", compute_pi),
        encode=tracer.wrap("cli.encode", formula_to_document),
        decode=tracer.wrap("cli.decode", document_to_formula),
        fold=tracer.wrap("verify.fold", fold_formula),
        io=tracer.wrap("io.json", lambda fn: fn()),
    )


# --------------------------------------------------------------------- ops

def op_generate(lib, inp, rec):
    """`machin generate <q0> --partial --max-digits <cap>` (text output)."""
    config = GenerationConfig(partial=True, max_digits=inp["cap"])
    start = perf_counter()
    formula = lib.generate(inp["q0"], config)
    lehmer = lib.lehmer(formula)
    text = lib.render(formula, lehmer, float_sanity(formula), DISPLAY_DIGIT_LIMIT)
    rec["time_s"] = perf_counter() - start
    lines = text.split("\n")
    if len(lines) != len(formula.terms) + 3 + (not formula.complete) or not lines[0].startswith(
        f"M {formula.terms[0].coefficient} Q {inp['q0']}"
    ):
        return "rendered text does not match the formula"
    rec["out_digits"] = formula_digits(formula)
    return check_formula(formula, inp, rec)


def op_pi(lib, inp, rec):
    """`machin pi --q0 <q0> --digits <D>`."""
    start = perf_counter()
    formula = lib.generate(inp["q0"], GenerationConfig(
        partial=True, max_digits=inp["digits"] + PI_DIGIT_MARGIN))
    rec["formula"] = formula  # measured after the op, even if compute_pi fails
    text = lib.compute_pi(formula, inp["digits"])
    rec["time_s"] = perf_counter() - start
    rec["pi"] = text  # compared with mpmath by the parent process
    rec["out_digits"] = inp["digits"]
    return check_formula(formula, inp, rec)


def op_write(lib, inp, rec, path):
    """`machin generate <q0> --format json > path`."""
    start = perf_counter()
    formula = lib.generate(inp["q0"])
    lehmer = lib.lehmer(formula)
    float_sanity(formula)
    doc = lib.encode(formula, lehmer)

    def write():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc, indent=2) + "\n")

    lib.io(write)
    rec["time_s"] = perf_counter() - start
    rec["out_digits"] = document_digits(doc)
    return check_formula(formula, inp, rec), formula


def op_read(lib, inp, rec, path, written):
    """`machin verify --formula path`."""
    start = perf_counter()

    def read():
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    doc = lib.io(read)
    formula = lib.decode(doc)
    ratio = lib.fold(formula) if formula.complete else None
    rec["time_s"] = perf_counter() - start
    rec["out_digits"] = document_digits(doc)
    rec["fold_bits"] = max(ratio.num.bit_length(), ratio.den.bit_length()) if ratio else 0
    if ratio is None or ratio.num != ratio.den:
        return "folded tangent is not 1"
    if formula != written:
        return "decoded formula differs from the written one"
    return None


def check_formula(formula, inp, rec):
    rec["digest"] = digest(formula)
    if not gaussian_identity_ok(formula):
        return "Gaussian product has Re != Im"
    if inp.get("golden"):
        return golden_mismatch(formula, inp["golden"])
    return None


def attempt(rec, fn, *args):
    """Run one op; an exception is a failed op timed to the failure."""
    start = perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # any error fails the op; the run goes on
        rec["time_s"] = perf_counter() - start
        rec["error"] = f"{type(exc).__name__}: {str(exc)[:160]}"
        return None
    wrong = result[0] if isinstance(result, tuple) else result
    if wrong:
        rec["wrong"] = wrong
    return result


def run(job):
    tracer = Tracer() if job["traced"] else None
    lib = traced_library(tracer) if tracer else plain_library()
    out_dir = Path(job["out_dir"])
    records = []
    busy = 0.0
    for inp in job["inputs"]:
        if records and busy >= job["seconds"]:
            break
        kinds = ("write", "read") if inp["op"] == "roundtrip" else (inp["op"],)
        path = out_dir / f"formula-{os.getpid()}-{inp['q0']}.json"
        written = None
        for kind in kinds:
            rec = {"id": len(records), "kind": kind, **{k: v for k, v in inp.items() if k != "golden"},
                   "time_s": 0.0, "out_digits": 0, "error": None, "wrong": None}
            records.append(rec)
            if tracer:
                terms_before = tracer.counters["evaluator.series.terms"]
                tracer.op = rec["id"]
                root = tracer.open("op")
            if kind == "generate":
                attempt(rec, op_generate, lib, inp, rec)
            elif kind == "pi":
                attempt(rec, op_pi, lib, inp, rec)
            elif kind == "write":
                result = attempt(rec, op_write, lib, inp, rec, path)
                written = result[1] if result else None
            else:
                if written is None:
                    rec["error"] = "nothing was written"
                else:
                    attempt(rec, op_read, lib, inp, rec, path, written)
                path.unlink(missing_ok=True)
            if tracer:
                tracer.close(root)
                rec["series_terms"] = tracer.counters["evaluator.series.terms"] - terms_before
            if "formula" in rec:
                rec["lehmer"] = lehmer_measure(rec.pop("formula")).value
            busy += rec["time_s"]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "env": {
            "python": sys.version,
            "have_gmpy2": HAVE_GMPY2,
            "cpu_count": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "int_max_str_digits_at_end": sys.get_int_max_str_digits(),
        },
        "ops": records,
        "peak_rss_kb": rss_kb,
    }
    if tracer:
        busy_s, calls = tracer.self_times()
        out["busy_s"] = busy_s
        out["span_calls"] = calls
        out["counters"] = tracer.counters
        out["spans"] = len(tracer.spans)
        tracer.dump(job["spans_path"])
    return out


def main():
    job = json.load(sys.stdin)
    json.dump(run(job), sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
