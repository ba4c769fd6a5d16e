"""corrscan benchmark: drive the CLI in-process on generated inputs.

One workload per process:

    python3 perfbench/run.py --workload scan_m200 --seed 1 --seconds 25 --trace 0

runs fresh operations (one ``corrscan.cli.main(argv)`` call each, on text files
written beforehand) for ``--seconds`` seconds, checks every output against the
oracle in ``oracle.py`` and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` wraps corrscan's public
functions (see ``spans.py``) and gives its per-layer metrics instead.  The full
record (environment, seeds, every operation) goes to
``.perfbench_out/<workload>-seed<n>-trace<t>.json`` and spans to ``.jsonl``.

    python3 perfbench/run.py --all [--seed N] [--seconds S]

runs every workload untraced and then traced, one process at a time, prints
every metric with its unit and sample count, and exits 1 if any output was
wrong or any operation failed.
"""

import os

# Pin BLAS to one thread before numpy loads: on 2 CPUs the default
# oversubscribes and makes RhoGridFactors about 4x slower.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy

import inputs
import oracle
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
OUT_NAME = "out.json"
SETUP_SAMPLES = 5
MIN_OPS = 3  # so that every run reports a median of at least three
IMPORT_PROBE = ("import time; t = time.perf_counter(); import corrscan.cli; "
                "print(time.perf_counter() - t)")

# sizes; see BASELINE.md for why each differs from the paper's m = 400, M = 999
SCAN_M, SCAN_MC = 200, 199
STUDY_M, STUDY_MC, STUDY_REPLICATES = 32, 199, 5
SURVEIL_M, SURVEIL_MC, SURVEIL_TEST_PERIODS = 128, 99, 30
SURVEIL_CHAIN = ("mcmc.n_iter=6000", "mcmc.burn_in=1000", "mcmc.thin=5")


def region_args(reg, work):
    geo, pop, cas = reg.write(work, "op")
    return ["--geo", geo, "--pop", pop, "--cas", cas, "--out", os.path.join(work, OUT_NAME)]


# Each operation builds fresh inputs from ``rng`` and returns
# (corrscan seed, argv, units attempted, check); check(output) returns
# (failed units, problems, extra values).

def scan_op(rng, work):
    reg = inputs.region(rng, SCAN_M)
    seed = int(rng.integers(2**31))
    argv = ["--seed", str(seed), "scan", *region_args(reg, work), "--mc-size", str(SCAN_MC)]

    def check(res):
        prefixes = oracle.PrefixOracle(reg.ids, reg.coords, reg.pops[None])
        members = (res["primary"] or {}).get("members", [])
        problems = prefixes.check_scan(reg.cases[0], res["llr_star"], members)
        if not oracle.on_grid(res["p_value"], SCAN_MC):
            problems.append(f"p-value {res['p_value']} is off the 1/(M+1) grid")
        return 0, problems, {}

    return seed, argv, 1, check


def study_op(rng, work):
    reg = inputs.region(rng, STUDY_M)
    seed = int(rng.integers(2**31))
    argv = ["--seed", str(seed), "--set", "mode=adjusted_fitted", "adjusted-study",
            *region_args(reg, work), "--beta", repr(inputs.intercept(reg.pops)),
            "--sigma", str(inputs.SIGMA), "--rho", str(inputs.RHO),
            "--replicates", str(STUDY_REPLICATES), "--mc-size", str(STUDY_MC),
            "--rho-upper", "70"]

    def check(res):
        problems = []
        dropped = {row["dropped"] for row in res["rows"]}
        for row in res["rows"]:
            if row["replicates"] + row["dropped"] != STUDY_REPLICATES:
                problems.append(f"replicates {row['replicates']} + dropped {row['dropped']}"
                                f" != {STUDY_REPLICATES} requested")
            if not 0 <= row["proportion"] <= 1:
                problems.append(f"proportion {row['proportion']} outside [0, 1]")
        if len(res["rows"]) != 3 or len(dropped) != 1:
            problems.append(f"expected 3 alpha rows with one dropped count, got {res['rows']}")
        return max(dropped, default=STUDY_REPLICATES), problems, {}

    return seed, argv, STUDY_REPLICATES, check


def surveil_op(rng, work):
    reg = inputs.region(rng, SURVEIL_M, 1 + SURVEIL_TEST_PERIODS)
    seed = int(rng.integers(2**31))
    argv = ["--seed", str(seed)]
    for item in SURVEIL_CHAIN:
        argv += ["--set", item]
    argv += ["surveil", *region_args(reg, work), "--train-period", "0",
             "--mc-size", str(SURVEIL_MC), "--rho-upper", "70"]

    def check(res):
        prefixes = oracle.PrefixOracle(reg.ids, reg.coords, np.tile(reg.pops, (len(reg.cases), 1)))
        problems = []
        rows = res["periods"]
        if [row["period"] for row in rows] != list(reg.periods[1:]):
            problems.append(f"test periods {[row['period'] for row in rows]}")
        for row in rows:
            t = reg.periods.index(row["period"])
            problems += [f"period {t}: {p}" for p in prefixes.check_scan(
                reg.cases[t], row["llr_star"], row["primary_members"], period=t)]
            for key in ("classical_p", "adjusted_p"):
                if not oracle.on_grid(row[key], SURVEIL_MC):
                    problems.append(f"period {t}: {key} {row[key]} is off the 1/(M+1) grid")
            if not 0 <= row["fdr"] <= 1:
                problems.append(f"period {t}: fdr {row['fdr']} outside [0, 1]")
        if "delta0" not in (res["fdr_fit"] or {}):
            problems.append(f"FDR layer not fitted: {res['fdr_fit']}")
        ess = {f"ess_{k}": float(res["fit"]["ess"][k]) for k in ("beta", "sigma")}
        if not all(v > 0 for v in ess.values()):
            problems.append(f"non-positive ESS {ess}")
        return 0, problems, ess

    return seed, argv, 1, check


# name -> (operation, aliases printed for op_s / units_per_s: name -> (key, unit))
WORKLOADS = {
    "scan_m200": (scan_op, {"scan_s": ("op_s", "s")}),
    "study_fitted_m32": (study_op, {"replicates_per_s": ("units_per_s", "1/s")}),
    "surveil_m128": (surveil_op, {"surveil_s": ("op_s", "s")}),
}


def git_commit():
    """HEAD of the checkout read from .git, or 'unknown' for a plain source copy."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def setup_sample():
    """Import time of corrscan.cli in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          text=True, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_ops(make_op, seed, seconds, work, tracer, setup):
    """Operations for ``seconds`` (at least MIN_OPS of them).  Unless ``setup`` is
    None, SETUP_SAMPLES import probes are spread over the run, between
    operations and off its clock, so that a slow spell of the host does not
    land on all of them."""
    import corrscan.cli as cli

    out = os.path.join(work, OUT_NAME)
    ops = []
    start = time.perf_counter()
    probing = 0.0

    def elapsed():
        return time.perf_counter() - start - probing

    while len(ops) < MIN_OPS or elapsed() < seconds:
        if setup is not None and len(setup) < min(SETUP_SAMPLES,
                                                   1 + SETUP_SAMPLES * elapsed() // seconds):
            t0 = time.perf_counter()
            setup.append(setup_sample())
            probing += time.perf_counter() - t0
            continue
        k = len(ops)
        op_seed, argv, units, check = make_op(np.random.default_rng([seed, k]), work)
        if os.path.exists(out):
            os.remove(out)
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # keep measuring; the failure is counted and shown
            rc = "exception"
            traceback.print_exc()
        dt = time.perf_counter() - t0
        op = {"seed": op_seed, "seconds": dt, "rc": rc, "units": units,
              "failed_units": units, "problems": [], "extra": {}}
        if rc == 0:
            try:
                with open(out) as fh:
                    failed, op["problems"], op["extra"] = check(json.load(fh))
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                failed, op["problems"] = units, [f"unreadable output: {exc!r}"]
            op["failed_units"] = units if op["problems"] else failed
        ops.append(op)
    while setup is not None and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    return ops


def median_metric(values, unit):
    return {"value": statistics.median(values), "unit": unit, "n": len(values)}


def run_workload(args):
    if not os.path.isdir(os.path.join(SRC, "corrscan")):
        sys.exit(f"corrscan sources not found under {SRC}")
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    make_op, named = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    work = stem + ".work"
    os.makedirs(work, exist_ok=True)

    setup = None if args.trace else []
    tracer = spans.Tracer() if args.trace else None
    traced = tracer.install() if tracer else []
    try:
        ops = run_ops(make_op, args.seed, args.seconds, work, tracer, setup)
    finally:
        for name in os.listdir(work):
            os.remove(os.path.join(work, name))
        os.rmdir(work)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = sum(op["units"] for op in ops)
    failed = sum(op["failed_units"] for op in ops)
    correct = not any(op["problems"] for op in ops)
    ok = [op for op in ops if op["rc"] == 0 and not op["problems"]]
    detail = {
        "op_s": median_metric([op["seconds"] for op in ops], "s"),
        "units_per_s": median_metric(
            [(op["units"] - op["failed_units"]) / op["seconds"] for op in ops], "1/s"),
        "peak_rss_mb": {"value": rss_mb, "unit": "MB", "n": 1},
        "failed_frac": {"value": failed / attempted, "unit": "fraction", "n": attempted},
    }
    if setup:
        detail["setup_s"] = median_metric(setup, "s")
    for key in ("ess_beta", "ess_sigma"):
        if ok and key in ok[0]["extra"]:
            detail[f"{key}_per_s"] = median_metric(
                [op["extra"][key] / op["seconds"] for op in ok], "1/s")
    if tracer is not None:
        tracer.dump(stem + ".jsonl")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = spans.layer_metrics(tracer.per_op(), units)
    else:
        metrics = {m["name"]: {"value": detail[m["name"]]["value"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    named_metrics = {name: dict(detail[key], unit=unit)
                     for name, (key, unit) in named.items() if key in detail}
    named_metrics.update({k: detail[k] for k in ("setup_s", "peak_rss_mb", "failed_frac")
                          if k in detail})
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "traced": traced, "environment": environment(),
        "setup_samples": setup, "ops": ops, "detail": detail, "named": named_metrics,
        "metrics": metrics,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    for op in ops:
        for problem in op["problems"]:
            print(f"WRONG op seed {op['seed']}: {problem}")
        if op["rc"] != 0:
            print(f"FAILED op seed {op['seed']}: exit {op['rc']}")
    shown = metrics if tracer is not None else {**detail, **named_metrics}
    for name, m in shown.items():
        n = f"  n={m['n']}" if "n" in m else ""
        print(f"{args.workload:18s} {name:44s} {m['value']:14.6g} {m['unit']}{n}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Every workload in its own process, untraced then traced, one at a time."""
    status = 0
    for trace_flag in (0, 1):
        for workload in WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace_flag)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            print(proc.stdout, end="")
            sys.stderr.write(proc.stderr)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = None
            if proc.returncode != 0 or not result or not result["correct"] or result["failed"]:
                print(f"{workload} trace={trace_flag}: exit {proc.returncode}, result {result}")
                status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
