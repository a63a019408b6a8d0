"""The library's gmpy2 branches, run on the stand-in in ``tests/gmpy2_stub``.

gmpy2 is optional and absent on the reference machine, so without the
stand-in no test runs with ``HAVE_GMPY2`` true. A fresh interpreter with
the stand-in first on ``sys.path`` must print what one on plain ints
prints, reprs included, and every integer field of every record must
still be an ``int``.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import machin

TESTS = Path(__file__).resolve().parent
SRC = Path(machin.__file__).resolve().parent.parent

RUN = r"""
import hashlib, json
from machin import GenerationConfig, compute_pi, fold_formula, generate, lehmer_measure
from machin._bigint import HAVE_GMPY2
from machin.cli import document_to_formula, formula_to_document
from machin.exactint import from_decimal_string, to_decimal_string
from machin.verify import check_identity


def int_fields(record):
    for value in record:
        if isinstance(value, tuple):  # the terms, a remainder
            yield from int_fields(value)
        elif isinstance(value, int) and not isinstance(value, bool):
            yield value


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


complete = generate(20)
partial = generate(1000, GenerationConfig(partial=True, max_digits=400))
ratio = fold_formula(complete)
records = [complete, partial, ratio]
out = {"have_gmpy2": HAVE_GMPY2, "fold": digest(repr(ratio))}
for name, formula in (("complete", complete), ("partial", partial)):
    text = json.dumps(formula_to_document(formula, lehmer_measure(formula)))
    back = document_to_formula(json.loads(text))
    check_identity(back)
    records.append(back)
    out[name] = [digest(repr(formula)), digest(text), back == formula]
out["pi"] = digest(compute_pi(complete, 5000))
n = 3 ** 209_590  # 100000 digits
text = to_decimal_string(n)
back = from_decimal_string("-" + text)
out["codec"] = [len(text), digest(text), back == -n, type(back) is int]
out["plain_ints"] = all(type(v) is int for record in records for v in int_fields(record))
print(json.dumps(out))
"""


def run(*path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (*path, SRC)))}
    proc = subprocess.run([sys.executable, "-c", RUN], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_gmpy2_branches_match_plain_ints():
    plain = run()
    stub = run(TESTS / "gmpy2_stub")
    assert (plain.pop("have_gmpy2"), stub.pop("have_gmpy2")) == (False, True)
    assert stub == plain
    assert plain["plain_ints"]
    assert plain["complete"][2] and plain["partial"][2]
    assert plain["codec"] == [100_000, plain["codec"][1], True, True]
