import json
import math
import subprocess
import sys

import pytest

from machin.cli import (
    EXIT_BAD_INPUT,
    EXIT_BROKEN_PIPE,
    EXIT_CUTOFF,
    EXIT_IDENTITY_FAILED,
    EXIT_OK,
    EXIT_PARTIAL_NOT_VERIFIABLE,
    EXIT_PRECISION,
    document_to_formula,
    formula_to_document,
    main,
    render_text,
)
from machin.exactint import log10_approx, to_decimal_string
from machin.generator import FormulaTerm, GenerationConfig, MachinFormula, generate
from machin.measure import lehmer_measure

from forged import nine_pi_quarters, with_fold_remainder
from reference_runs import REFERENCE_RUNS

needs_int_str_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int/str digit limit"
)


Q7_V1_DOCUMENT = {  # as written by schema 1: integers as decimal strings
    "schema_version": 1,
    "q0": "7",
    "m": "6",
    "mode": "signed",
    "complete": True,
    "terms": [
        {"sign": "-", "q": "15", "lg_q": 1.1760912590556813},
        {"sign": "+", "q": "1712", "lg_q": 3.2335037603411343},
        {"sign": "-", "q": "8886139", "lg_q": 6.948713102339563},
        {"sign": "+", "q": "2526830931360443", "lg_q": 15.402576184526326},
    ],
    "lehmer": {"value": 2.551666609279758, "is_upper_bound": False},
}


def v1_document(formula):
    """The schema 1 writer: decimal strings and no remainder."""
    return {
        "schema_version": 1,
        "q0": to_decimal_string(formula.q0),
        "m": str(formula.terms[0].coefficient),
        "mode": formula.mode,
        "complete": formula.complete,
        "terms": [{"sign": "+" if t.sign > 0 else "-", "q": to_decimal_string(t.q),
                   "lg_q": log10_approx(t.q)} for t in formula.terms[1:]],
        "lehmer": {"value": 0.0, "is_upper_bound": not formula.complete},
    }


def v2_document(formula):
    return json.loads(json.dumps(formula_to_document(formula, lehmer_measure(formula))))


def _hex(n):
    return "0x" + format(n, "x")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_listing(text, q0, ref, lg_rel=1e-9):
    """Structural golden comparison; float-bearing lines compare numerically."""
    lines = text.strip("\n").split("\n")
    assert lines[0] == f"M {ref['m']} Q {q0}"
    idx = 1
    for sign, q in ref["terms"]:
        glyph = "(+)" if sign > 0 else "(-)"
        assert lines[idx] == f"{glyph} Q {q}"
        idx += 1
    for sign, lg in ref["lg_terms"]:
        glyph = "(+)" if sign > 0 else "(-)"
        head, value = lines[idx].rsplit(" ", 1)
        assert head == f"{glyph} lg Q"
        assert abs(float(value) - lg) <= lg_rel * lg
        idx += 1
    if not ref["complete"]:
        assert lines[idx] == "(brk)"
        idx += 1
    assert lines[idx] == "---"
    idx += 1
    lehm_prefix = "Lehm < " if ref["lehmer_is_bound"] else "Lehm "
    assert lines[idx].startswith(lehm_prefix)
    assert abs(float(lines[idx][len(lehm_prefix):]) - ref["lehmer"]) <= 1e-9
    idx += 1
    assert lines[idx].startswith("Pi ")
    sanity = float(lines[idx][3:])
    assert abs(sanity - ref["pi_sanity"]) <= 2 * math.ulp(ref["pi_sanity"])
    assert idx + 1 == len(lines)


class TestGenerateCommand:
    @pytest.mark.parametrize("q0", [5, 7, 8, 9, 10])
    def test_text_matches_reference_listing(self, capsys, q0):
        code, out, err = run_cli(capsys, "generate", str(q0))
        assert code == EXIT_OK and err == ""
        check_listing(out, q0, REFERENCE_RUNS[q0])

    def test_json_q7(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "7", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["schema_version"] == 2
        assert (doc["q0"], doc["m"], doc["mode"], doc["complete"]) == ("0x7", "0x6", "signed", True)
        # 15, 1712, 8886139, 2526830931360443
        assert [t["q"] for t in doc["terms"]] == ["0xf", "0x6b0", "0x87977b", "0x8fa23ac123abb"]
        assert [t["sign"] for t in doc["terms"]] == ["-", "+", "-", "+"]
        assert "final_remainder" not in doc
        for t in doc["terms"]:
            assert abs(t["lg_q"] - log10_approx(int(t["q"], 16))) < 1e-12

    def test_reads_v1_document_q7(self):
        assert document_to_formula(Q7_V1_DOCUMENT) == generate(7)

    @pytest.mark.parametrize("mode,q0", [("signed", q0) for q0 in range(2, 15)]
                             + [("positive", q0) for q0 in range(2, 10)])
    def test_reads_v1_documents(self, mode, q0):
        formula = generate(q0, GenerationConfig(mode=mode))
        assert document_to_formula(json.loads(json.dumps(v1_document(formula)))) == formula

    def test_reads_v1_partial_document_without_remainder(self):
        formula = generate(10, GenerationConfig(partial=True, max_digits=20))
        loaded = document_to_formula(v1_document(formula))
        assert not loaded.complete and loaded.final_remainder is None
        assert loaded.terms == formula.terms

    @pytest.mark.parametrize("bad", ["0XF", "0x", "f", "0x_f", "+0xf", " 0xf", "0xF", "0xf ",
                                     "0xf\n", "-0x1", "15", 15, None, ["0xf"]])
    @pytest.mark.parametrize("field", ["q0", "m", "q", "A", "B"])
    def test_v2_rejects_non_canonical_hex(self, bad, field):
        doc = v2_document(generate(10, GenerationConfig(partial=True, max_digits=20)))
        if field == "q":
            doc["terms"][-1]["q"] = bad
        elif field in ("A", "B"):
            doc["final_remainder"][field] = bad
        else:
            doc[field] = bad
        with pytest.raises(ValueError):
            document_to_formula(doc)

    @pytest.mark.parametrize("version", [1, 2])
    def test_rejects_underscore_in_m(self, version):
        doc = Q7_V1_DOCUMENT if version == 1 else v2_document(generate(7))
        with pytest.raises(ValueError):
            document_to_formula({**doc, "m": "0_4"})
        with pytest.raises(ValueError):
            document_to_formula({**doc, "m": 6})

    @pytest.mark.parametrize("complete", ["false", "true", 0, 1, None])
    @pytest.mark.parametrize("version", [1, 2])
    def test_rejects_non_boolean_complete(self, capsys, tmp_path, version, complete):
        formula = generate(10, GenerationConfig(partial=True, max_digits=20))
        doc = v1_document(formula) if version == 1 else v2_document(formula)
        doc["complete"] = complete
        with pytest.raises(ValueError):
            document_to_formula(doc)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--formula", str(path))
        assert code == EXIT_BAD_INPUT
        assert out == "" and "complete" in err

    @pytest.mark.parametrize("delta", ["", "+1", 1, None])
    def test_rejects_bad_remainder_sign(self, delta):
        doc = v2_document(generate(10, GenerationConfig(partial=True, max_digits=20)))
        doc["final_remainder"]["delta"] = delta
        with pytest.raises(ValueError):
            document_to_formula(doc)

    @pytest.mark.parametrize("version", [0, 3, "2", None])
    def test_rejects_unknown_schema(self, version):
        with pytest.raises(ValueError):
            document_to_formula({**v2_document(generate(7)), "schema_version": version})

    @needs_int_str_limit
    def test_documents_at_lowest_int_str_limit_in_fresh_process(self):
        # a fresh process at 640 digits, the lowest int/str limit there is
        code = (
            "import json, sys\n"
            "from machin import fold_formula, generate, lehmer_measure\n"
            "from machin.cli import document_to_formula, formula_to_document\n"
            "f = generate(18)\n"
            "text = json.dumps(formula_to_document(f, lehmer_measure(f)))\n"
            "g = document_to_formula(json.loads(text))\n"
            "ratio = fold_formula(g)\n"
            "v1 = {'schema_version': 1, 'q0': '5', 'm': '1' * 5000, 'complete': False,\n"
            "      'terms': []}\n"
            "m = document_to_formula(v1).terms[0].coefficient\n"
            "print(json.dumps([g == f, ratio.num == ratio.den, m == (10 ** 5000 - 1) // 9,\n"
            "                  len(text), sys.get_int_max_str_digits()]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=640", "-c", code],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        same, identity, long_m, size, limit = json.loads(proc.stdout)
        assert same and identity and long_m
        assert size > 10_000  # the q0 = 18 document holds integers far past 640 digits
        assert limit == 640

    def test_json_round_trip_is_fixed_point(self, capsys):
        _, out, _ = run_cli(capsys, "generate", "9", "--format", "json")
        doc = json.loads(out)
        formula = document_to_formula(doc)
        assert formula == generate(9)
        again = formula_to_document(formula, lehmer_measure(formula))
        assert json.dumps(again) == json.dumps(doc)

    def test_invalid_q0(self, capsys):
        for bad in ("1", "0", "-4", "seven", "2.5"):
            code, out, err = run_cli(capsys, "generate", bad)
            assert code == EXIT_BAD_INPUT
            assert out == "" and "q0" in err

    def test_cutoff_without_partial(self, capsys):
        code, out, err = run_cli(capsys, "generate", "7", "--max-digits", "3")
        assert code == EXIT_CUTOFF
        assert out == "" and "--partial" in err

    def test_partial_prints_brk_and_bound(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "7", "--partial", "--max-digits", "3")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "M 6 Q 7"
        assert "(brk)" in lines
        assert any(line.startswith("Lehm < ") for line in lines)

    def test_display_digit_limit_switches_to_lg(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "7", "--display-digit-limit", "10")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[3] == "(-) Q 8886139"  # 7 digits, still printed in full
        assert lines[4] == f"(+) lg Q {log10_approx(2526830931360443)}"

    @pytest.mark.parametrize("limit", [0, 19, 20, 21])
    def test_display_digit_limit_boundary(self, limit):
        qs = (10 ** 19, 10 ** 20 - 1, 10 ** 20)  # 20, 20 and 21 digits
        f = MachinFormula(2, (FormulaTerm(1, 2),) + tuple(FormulaTerm(1, q) for q in qs), True)
        lines = render_text(f, lehmer_measure(f), 0.0, limit).split("\n")
        for line, q in zip(lines[1:], qs):
            shown = f"lg Q {log10_approx(q)}" if len(str(q)) > limit else f"Q {q}"
            assert line == "(+) " + shown

    def test_positive_mode(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "2", "--mode", "positive")
        assert code == EXIT_OK
        assert out.startswith("M 1 Q 2\n(+) Q 3\n---\n")

    def test_partial_document_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "generate", "10", "--partial", "--max-digits", "20",
                            "--format", "json")
        doc = json.loads(out)
        assert doc["complete"] is False
        assert doc["lehmer"]["is_upper_bound"] is True
        formula = document_to_formula(doc)
        assert not formula.complete
        assert formula == generate(10, GenerationConfig(partial=True, max_digits=20))
        assert formula.final_remainder is not None
        again = formula_to_document(formula, lehmer_measure(formula))
        assert json.dumps(again) == json.dumps(doc)

    @pytest.mark.long
    def test_deep_complete_listing_q28(self, capsys):
        ref = REFERENCE_RUNS[28]
        code, out, err = run_cli(capsys, "generate", "28", "--max-digits", "12000000")
        assert code == EXIT_OK and err == ""
        check_listing(out, 28, ref, lg_rel=1e-6)

    @pytest.mark.long
    def test_partial_listing_q100000(self, capsys, monkeypatch, partial_q100000):
        # the acceptance test checks this formula against the golden run;
        # here the CLI must ask for exactly it and print it
        formula, _ = partial_q100000

        def built_once(q0, config):
            assert (q0, config) == (100000, GenerationConfig(partial=True, max_digits=1_000_000))
            return formula

        monkeypatch.setattr("machin.cli.generate", built_once)
        ref = REFERENCE_RUNS[100000]
        code, out, err = run_cli(capsys, "generate", "100000", "--partial")
        assert code == EXIT_OK and err == ""
        check_listing(out, 100000, ref, lg_rel=1e-6)


class TestPiCommand:
    def test_digits_from_q0(self, capsys):
        code, out, _ = run_cli(capsys, "pi", "--q0", "10", "--digits", "1")
        assert code == EXIT_OK
        assert out == "3.1\n"

    def test_cross_formula_agreement(self, capsys):
        _, a, _ = run_cli(capsys, "pi", "--q0", "5", "--digits", "50")
        _, b, _ = run_cli(capsys, "pi", "--q0", "10", "--digits", "50")
        assert a == b

    def test_formula_file_source(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "generate", "9", "--format", "json")
        path = tmp_path / "f.json"
        path.write_text(out, encoding="utf-8")
        _, from_file, _ = run_cli(capsys, "pi", "--formula", str(path), "--digits", "100")
        _, from_q0, _ = run_cli(capsys, "pi", "--q0", "5", "--digits", "100")
        assert from_file == from_q0

    def test_precision_unachievable(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "generate", "7", "--partial", "--max-digits", "3",
                            "--format", "json")
        path = tmp_path / "partial.json"
        path.write_text(out, encoding="utf-8")
        code, out, err = run_cli(capsys, "pi", "--formula", str(path), "--digits", "50")
        assert code == EXIT_PRECISION
        assert out == "" and err != ""

    def test_tampered_complete_document_prints_nothing(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "generate", "5", "--format", "json")
        doc = json.loads(out)
        doc["terms"][0]["q"] = "0xf0"  # 240, was 239
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "pi", "--formula", str(path), "--digits", "20")
        assert code == EXIT_IDENTITY_FAILED
        assert out == "" and "identity" in err

    def test_partial_document_with_remainder(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "generate", "12", "--partial", "--max-digits", "80",
                            "--format", "json")
        assert not json.loads(out)["complete"]
        path = tmp_path / "partial.json"
        path.write_text(out, encoding="utf-8")
        code, from_file, _ = run_cli(capsys, "pi", "--formula", str(path), "--digits", "50")
        _, from_q0, _ = run_cli(capsys, "pi", "--q0", "5", "--digits", "50")
        assert code == EXIT_OK and from_file == from_q0

    @pytest.mark.parametrize("field", ["q", "A", "B", "delta"])
    def test_tampered_partial_document_prints_nothing(self, capsys, tmp_path, field):
        _, out, _ = run_cli(capsys, "generate", "12", "--partial", "--max-digits", "80",
                            "--format", "json")
        doc = json.loads(out)
        if field == "q":
            doc["terms"][-1]["q"] = _hex(int(doc["terms"][-1]["q"], 16) + 1)
        elif field == "delta":
            rem = doc["final_remainder"]
            rem["delta"] = "+" if rem["delta"] == "-" else "-"
        else:
            doc["final_remainder"][field] = _hex(int(doc["final_remainder"][field], 16) + 1)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "pi", "--formula", str(path), "--digits", "50")
        assert code == EXIT_IDENTITY_FAILED
        assert out == "" and "identity" in err

    def test_partial_document_without_remainder(self, capsys, tmp_path):
        formula = generate(12, GenerationConfig(partial=True, max_digits=80))
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(v1_document(formula)), encoding="utf-8")
        code, out, err = run_cli(capsys, "pi", "--formula", str(path), "--digits", "50")
        assert code == EXIT_PARTIAL_NOT_VERIFIABLE
        assert out == "" and "remainder" in err

    def test_forged_tail_gets_no_digits(self, capsys, tmp_path):
        # passes the identity check; its remainder (about -0.0042) is not
        # below its last term, 1/10^30, as a generated one would be
        forged = with_fold_remainder([FormulaTerm(1, 5, 4), FormulaTerm(1, 10 ** 30)])
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(v2_document(forged)), encoding="utf-8")
        code, out, err = run_cli(capsys, "pi", "--formula", str(path), "--digits", "20")
        assert code == EXIT_PRECISION
        assert out == "" and "tail" in err
        assert "10^-20 " in err  # the digits asked for, not the finer internal target

    def test_bad_inputs(self, capsys):
        assert run_cli(capsys, "pi", "--q0", "5", "--digits", "0")[0] == EXIT_BAD_INPUT
        assert run_cli(capsys, "pi", "--q0", "1", "--digits", "5")[0] == EXIT_BAD_INPUT
        assert run_cli(capsys, "pi", "--formula", "/no/such/file.json",
                       "--digits", "5")[0] == EXIT_BAD_INPUT


class TestVerifyCommand:
    @pytest.mark.parametrize("q0", ["5", "9"])
    def test_identity_ok(self, capsys, q0):
        code, out, _ = run_cli(capsys, "verify", q0)
        assert code == EXIT_OK
        assert out == "IDENTITY OK\n"

    def test_formula_file(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "generate", "8", "--format", "json")
        path = tmp_path / "f.json"
        path.write_text(out, encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", "--formula", str(path))
        assert code == EXIT_OK

    def test_tampered_document_fails(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "generate", "5", "--format", "json")
        doc = json.loads(out)
        doc["terms"][0]["q"] = "0xf0"  # 240, was 239
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--formula", str(path))
        assert code == EXIT_IDENTITY_FAILED
        assert out == "" and "identity" in err

    def test_partial_not_verifiable(self, capsys, tmp_path):
        # only a partial formula that records no remainder (schema 1) is
        formula = generate(7, GenerationConfig(partial=True, max_digits=3))
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(v1_document(formula)), encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--formula", str(path))
        assert code == EXIT_PARTIAL_NOT_VERIFIABLE
        assert out == "" and "partial" in err and "remainder" in err

    @pytest.mark.parametrize("q0, digits", [("7", "3"), ("12", "80"), ("100", "400")])
    def test_partial_document_verifies(self, capsys, tmp_path, q0, digits):
        _, out, _ = run_cli(capsys, "generate", q0, "--partial", "--max-digits", digits,
                            "--format", "json")
        assert not json.loads(out)["complete"]
        path = tmp_path / "partial.json"
        path.write_text(out, encoding="utf-8")
        assert run_cli(capsys, "verify", "--formula", str(path)) == (EXIT_OK, "IDENTITY OK\n", "")

    @pytest.mark.parametrize("k", [6, 7, 8])
    def test_remainder_above_one_verifies(self, capsys, tmp_path, k):
        # arctan(1/2) - arctan(1/3) - ... - arctan(1/k) + arctan(A/B) = pi/4, A/B > 3
        terms = [FormulaTerm(1, 2)] + [FormulaTerm(-1, q) for q in range(3, k + 1)]
        path = tmp_path / "remainder.json"
        path.write_text(json.dumps(v2_document(with_fold_remainder(terms))), encoding="utf-8")
        assert run_cli(capsys, "verify", "--formula", str(path)) == (EXIT_OK, "IDENTITY OK\n", "")

    @pytest.mark.parametrize("verb", [["verify"], ["pi", "--digits", "20"]])
    @pytest.mark.parametrize("complete", [True, False])
    def test_nine_pi_quarters_fails(self, capsys, tmp_path, verb, complete):
        # tangent 1 and a fold that lands on the right ray, one turn too far
        formula = nine_pi_quarters()
        if not complete:
            formula = with_fold_remainder(formula.terms[:5])
        path = tmp_path / "nine.json"
        path.write_text(json.dumps(v2_document(formula)), encoding="utf-8")
        code, out, err = run_cli(capsys, verb[0], "--formula", str(path), *verb[1:])
        assert code == EXIT_IDENTITY_FAILED
        assert out == "" and "2*pi" in err

    def test_requires_exactly_one_source(self, capsys, tmp_path):
        assert run_cli(capsys, "verify")[0] == EXIT_BAD_INPUT
        path = tmp_path / "f.json"
        _, out, _ = run_cli(capsys, "generate", "5", "--format", "json")
        path.write_text(out, encoding="utf-8")
        assert run_cli(capsys, "verify", "5", "--formula", str(path))[0] == EXIT_BAD_INPUT

    def test_bad_q0(self, capsys):
        assert run_cli(capsys, "verify", "1")[0] == EXIT_BAD_INPUT


def test_closed_stdout_exits_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "machin", "pi", "--q0", "5", "--digits", "2000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader is gone before any digit is written
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == EXIT_BROKEN_PIPE


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "machin", "generate", "5"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("M 4 Q 5\n(-) Q 239\n---\n")
