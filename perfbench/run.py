"""machin benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {deep,wide,pi,roundtrip} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (``src/machin`` and
``tests/reference_runs.py`` must be there). The seed makes the inputs of
each pass; a fresh interpreter (``worker.py``) receives only those inputs
and runs them back to back as one closed-loop client. Passes repeat while
the next one still fits in S seconds of op time. Every output is checked
outside the timed region: pi digits against mpmath here, identities by a
Gaussian product in the worker, golden runs wherever a seeded q0 has one.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the first
pass's inputs untraced and then traced (each in a fresh interpreter) and
prints the per-layer metrics. The last line of stdout is one JSON object; the
lines before it name every metric with its unit, the environment and the
inputs. Full records go to ``.bench_run/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import runpy
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "reference_runs.py"
OUT = ROOT / ".bench_run"

WORKLOADS = ("deep", "wide", "pi", "roundtrip")
SETUP_REPEATS = 11

END_TO_END = {  # name: unit
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "digits_per_s": "digits/s",
}

# name: unit; busy_s is self time summed over every span of that name
PER_LAYER = {
    "generator.first_term.busy_s": "s",
    "generator.first_term.steps": "count",
    "generator.step.busy_s": "s",
    "generator.step.calls": "count",
    "generator.step.max_bits": "bits",
    "evaluator.plan_budget.busy_s": "s",
    "evaluator.plan_budget.calls": "count",
    "evaluator.series.busy_s": "s",
    "evaluator.series.calls": "count",
    "evaluator.series.terms": "count",
    "evaluator.certify.busy_s": "s",
    "verify.fold.busy_s": "s",
    "verify.fold.bits": "bits",
    "measure.lehmer.busy_s": "s",
    "cli.render.busy_s": "s",
    "cli.encode.busy_s": "s",
    "cli.encode.digits": "digits",
    "cli.decode.busy_s": "s",
    "exactint.to_decimal.busy_s": "s",
    "exactint.from_decimal.busy_s": "s",
    "exactint.decimal_digits.busy_s": "s",
    "io.json.busy_s": "s",
    "op.self.busy_s": "s",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
}


# ------------------------------------------------------------------ inputs

def ladder(lo, hi, n):
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def make_inputs(workload, seed, pass_index):
    """The inputs of one pass; the seed picks them, the sizes are fixed here.

    Each pass runs in a fresh interpreter and uses every input once, so
    exactint's power-of-ten cache never serves a repeat that a
    fresh-process CLI user would not get. Passes are short (one to two
    seconds) and ops cheap (at most about a second), so that a run spreads
    over tens of interpreters and many ops of each size: on a shared host
    the speed of the same big-integer work differs by up to a factor of
    two between interpreters and between stretches of a few seconds.
    Every pass covers the same sizes (on `deep`, every five passes), so runs
    with different seeds do the same amount of work. On `wide` and `pi` a
    pass has one op per level of an odd-length ladder, so the median and
    the 90th percentile are medians of like-sized ops rather than values
    between two levels.
    """
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "deep":
        # two q0 from each decade of [21, 60] (none completes early), in an
        # order the seed picks, so any five passes use each q0 once; each
        # q0 keeps its place on a 1e5..2e5-digit cap ladder
        inputs = []
        for lo in (21, 31, 41, 51):
            decade = list(range(lo, lo + 10))
            random.Random(f"{workload}:{seed}:{lo}").shuffle(decade)
            start = 2 * (pass_index % 5)
            for q0 in decade[start:start + 2]:
                cap = 1e5 * 2 ** ((q0 - 21) / 39)
                inputs.append({"op": "generate", "q0": q0,
                               "cap": round(cap * rng.uniform(0.98, 1.02))})
    elif workload == "wide":
        # one q0 within 1% of each level of a 1e4..2e4 ladder (the
        # first-term walk costs ~q0^2), caps on a 2e3..1e4-digit ladder
        q0s = [rng.randrange(round(level * 0.99), round(level * 1.01))
               for level in ladder(1e4, 2e4, 5)]
        caps = [round(c * rng.uniform(0.98, 1.02)) for c in ladder(2e3, 1e4, len(q0s))]
        rng.shuffle(caps)
        inputs = [{"op": "generate", "q0": q, "cap": c} for q, c in zip(q0s, caps)]
    elif workload == "pi":
        # one D per level of a 1e3..8e3 ladder (the top two levels, 4757
        # and 8000 digits, are above 4300); each level draws q0 from one of
        # three narrow bands in [100, 1000] with different Lehmer measures,
        # so the cost of a level hardly depends on the seed
        bands = [(100, 110), (300, 330), (800, 880)]
        inputs = []
        for i, level in enumerate(ladder(1e3, 8e3, 5)):
            lo, hi = bands[i % len(bands)]
            q0 = rng.choice([q for q in range(lo, hi + 1)
                             if q not in {inp["q0"] for inp in inputs}])
            digits = round(level * rng.uniform(0.98, 1.02))
            inputs.append({"op": "pi", "q0": q0, "digits": digits})
    elif workload == "roundtrip":
        # the thirteen q0 in [8, 20], all complete under the default digit
        # budget; 2..7 take well under a millisecond. With 26 ops a pass,
        # the 90th percentile falls inside the q0=20 writes rather than at
        # the edge of the q0=20 reads, whose decode and fold speed differ
        # by up to 2x between interpreters
        inputs = [{"op": "roundtrip", "q0": q} for q in range(8, 21)]
    else:
        raise ValueError(workload)
    rng.shuffle(inputs)
    return inputs


# ---------------------------------------------------------------- processes

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup():
    """Median wall time of a fresh interpreter running `import machin`."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import machin"], env=child_env(), check=True,
                       timeout=60)
        times.append(perf_counter() - start)
    return statistics.median(times), len(times)


def run_worker(inputs, seconds, traced, tag):
    """One pass in a fresh interpreter; returns its parsed result."""
    job = {
        "traced": traced,
        "seconds": seconds,
        "inputs": inputs,
        "out_dir": str(OUT),
        "spans_path": str(OUT / f"spans-{tag}.json"),
    }
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, env=child_env(),
        timeout=2 * seconds + 30,  # a pass stops taking inputs after `seconds` of op time
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, seed, seconds, golden, tag):
    """Untraced passes until the next one would end past `seconds` of op time."""
    passes, busy = [], 0.0
    while True:
        inputs = with_golden(make_inputs(workload, seed, len(passes)), golden)
        result = run_worker(inputs, seconds, False, f"{tag}-pass{len(passes)}")
        result["inputs"] = inputs
        passes.append(result)
        pass_s = sum(op["time_s"] for op in result["ops"])
        busy += pass_s
        if busy + pass_s > seconds:
            return passes


def with_golden(inputs, golden):
    for inp in inputs:
        if inp["q0"] in golden:
            inp["golden"] = golden[inp["q0"]]
    return inputs


# ------------------------------------------------------------------ checks

def check_pi_digits(ops):
    """Compare every returned pi string with mpmath's digits."""
    texts = [op for op in ops if op.get("pi") is not None]
    if not texts:
        return
    import mpmath

    extra = 40
    longest = max(len(op["pi"]) for op in texts)
    mpmath.mp.dps = longest + extra + 10
    ref = mpmath.nstr(mpmath.pi, longest + extra, strip_zeros=False)
    if ref[longest:] == "9" * (len(ref) - longest):
        raise SystemExit("perfbench: reference pi rounding is ambiguous")
    for op in texts:
        if op["pi"] != ref[: len(op["pi"])] or len(op["pi"]) != op["digits"] + 2:
            op["wrong"] = "pi digits differ from mpmath"


def op_ok(op):
    return not op["error"] and not op["wrong"]


# ----------------------------------------------------------------- metrics

def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def end_to_end(passes, setup_s):
    ops = [op for result in passes for op in result["ops"]]
    times = [op["time_s"] for op in ops]
    # rates are taken per pass and their median reported, so a burst of
    # host load that slows a few passes moves them little
    busy = [sum(op["time_s"] for op in result["ops"]) for result in passes]
    return {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(
            len(result["ops"]) / b for result, b in zip(passes, busy)),
        "op_s_p50": statistics.median(times),
        "op_s_p90": quantile(times, 90),
        "ok_ratio": sum(map(op_ok, ops)) / len(ops),
        "peak_rss_mb": max(result["peak_rss_kb"] for result in passes) / 1024,
        "digits_per_s": statistics.median(
            sum(op["out_digits"] for op in result["ops"] if op_ok(op)) / b
            for result, b in zip(passes, busy)),
    }


def per_layer(plain, traced):
    ops = traced["ops"]
    common = min(len(plain["ops"]), len(ops))
    traced_s = sum(op["time_s"] for op in ops[:common])
    plain_s = sum(op["time_s"] for op in plain["ops"][:common])
    values = {f"{name}.busy_s": busy for name, busy in traced["busy_s"].items()}
    values.update(traced["counters"])
    values.update({
        "op.self.busy_s": traced["busy_s"].get("op", 0.0),
        "evaluator.plan_budget.calls": traced["span_calls"].get("evaluator.plan_budget", 0),
        "verify.fold.bits": max(op.get("fold_bits", 0) for op in ops),
        "cli.encode.digits": sum(op["out_digits"] for op in ops if op["kind"] == "write"),
        "trace.op_s": traced_s,
        "trace.overhead_s": traced_s - plain_s,
    })
    return {name: values.get(name, 0) for name in PER_LAYER}


# ------------------------------------------------------------------- report

def report(args, results, metrics, units, samples):
    env = results[-1]["env"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"env python={env['python'].split()[0]} have_gmpy2={env['have_gmpy2']} "
          f"cpu_count={env['cpu_count']} usable_cpus={env['usable_cpus']} interpreters={len(results)}")
    for index, result in enumerate(results):
        shown = [{k: v for k, v in i.items() if k != "golden"} for i in result["inputs"]]
        print(f"inputs[{index}] " + json.dumps(shown))
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]} (n={samples.get(name, 1)})")
    for result in results:
        for op in result["ops"]:
            if op["error"] or op["wrong"]:
                print(f"failed op {op['id']} {op['kind']} q0={op['q0']}: {op['error'] or op['wrong']}")


def pi_cost_table(plain, traced):
    """Per pi op: Lehmer measure beside series terms and op time."""
    for base, op in zip(plain["ops"], traced["ops"]):
        if op["kind"] == "pi":
            print(f"pi-op q0={op['q0']} digits={op['digits']} lehmer={base.get('lehmer')} "
                  f"series_terms={op['series_terms']} op_s={base['time_s']:.6f} "
                  f"ok={op_ok(base)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "machin" / "__init__.py").is_file() or not GOLDEN.is_file():
        sys.exit(f"perfbench: no machin source checkout at {ROOT}")
    golden = runpy.run_path(str(GOLDEN))["REFERENCE_RUNS"]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        # the first pass's inputs, untraced and then traced
        inputs = with_golden(make_inputs(args.workload, args.seed, 0), golden)
        results = [run_worker(inputs, args.seconds, traced, tag)
                   for traced in (False, True)]
        plain, traced = results
        for result in results:
            result["inputs"] = inputs
        if any(a.get("digest") != b.get("digest") for a, b in zip(plain["ops"], traced["ops"])):
            raise SystemExit("perfbench: traced generation differs from generate()")
        metrics = per_layer(plain, traced)
        units = PER_LAYER
        samples = {}
        measured = traced["ops"]
    else:
        setup_s, setup_n = measure_setup()
        results = run_passes(args.workload, args.seed, args.seconds, golden, tag)
        metrics = end_to_end(results, setup_s)
        units = END_TO_END
        measured = [op for result in results for op in result["ops"]]
        samples = dict.fromkeys(END_TO_END, len(measured)) | {
            "setup_s": setup_n, "peak_rss_mb": len(results),
            "ops_per_s": len(results), "digits_per_s": len(results)}
    for result in results:
        check_pi_digits(result["ops"])
    correct = all(not op["wrong"] for result in results for op in result["ops"])

    report(args, results, metrics, units, samples)
    if args.trace:
        pi_cost_table(plain, traced)
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump({"args": vars(args), "metrics": metrics, "workers": results}, handle)
    print(json.dumps({
        "correct": correct,
        "attempted": len(measured),
        "failed": sum(not op_ok(op) for op in measured),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
