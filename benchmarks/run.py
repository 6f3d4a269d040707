"""stentflow benchmark: three CLI workloads, timed from outside the program.

One run::

    python3 benchmarks/run.py --workload cell-strip --seed 7 --seconds 40 --trace 0

builds nothing (the package runs from ``src/``), writes a config drawn from
the seed, then runs the command in a fresh interpreter again and again, one
at a time (a closed loop with one client), until ``--seconds`` is spent, and
at least twice.  Every run's outputs are checked against
``reference.json`` and against the first run's bytes.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count the output checks, and ``metrics`` holds the end-to-end
metrics (``--trace 0``) or the per-layer metrics of the traced run
(``--trace 1``).

Other modes::

    python3 benchmarks/run.py --steady 10 [--workload W] [--trace 0|1]
    python3 benchmarks/run.py --write-reference

``--steady N`` runs each workload N times with seeds ``--seed`` ..
``--seed + N - 1``, exactly as above, and prints the median and quartiles of
every metric with its unit and sample count, flagging each end-to-end metric
whose spread (interquartile range over median) exceeds its bound in
``BENCHMARK.json``.  ``--write-reference`` records the reference outputs at
scale 1 and offset 0.  Scratch files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

SETUP_PROBES = 2          # import-and-parse-only interpreters per command run
MIN_RUNS = 2              # two runs of one seed make the determinism check
RUN_LIMIT_S = 170.0       # a benchmark run must end within 180 s
RTOL = 1e-6               # outputs vs reference (solver tolerances are 1e-10)
SLOPE_ATOL = 1e-6

# Pressures are scale*(2, 0, -1) + offset.  The problem is linear and the
# offset only shifts the pressure, so cell constants do not move, fluxes,
# flow rates and error norms scale by `scale`, slopes do not move and
# intercepts shift by ln(scale).  cell-strip reads no pressures.
WORKLOADS = {
    "cell-strip": {"command": ["cell"], "config": {}},
    "direct-fine": {"command": ["solve"], "config": {"eps": 1.0 / 64.0}},
    "study-default": {"command": ["converge"], "config": {}},
}
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def draw_inputs(seed: int):
    rng = random.Random(seed)
    return rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)


def config_text(workload: str, scale: float, offset: float) -> str:
    values = {"output.dir": "out", **WORKLOADS[workload]["config"]}
    if workload != "cell-strip":
        values.update({"p_in": 2.0 * scale + offset, "p_out1": offset,
                       "p_out2": -scale + offset})
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    return "bytes" if metric.endswith(".bytes") else "count"


# ----------------------------------------------------------------------------
# output parsing and checks
# ----------------------------------------------------------------------------


def _data_lines(path: Path):
    return [ln for ln in path.read_text().splitlines()
            if ln.strip() and not ln.startswith("#")]


def _key_values(path: Path) -> dict:
    return {k: float(v) for k, v in (ln.split("=", 1) for ln in _data_lines(path))}


def _csv_rows(path: Path) -> list[dict]:
    lines = _data_lines(path)
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def read_outputs(workload: str, out: Path) -> dict:
    """The checked values of one run; raises OSError/ValueError if unreadable."""
    if workload == "cell-strip":
        identity = {ln.split("=", 1)[0]: ln.split()[-1]
                    for ln in _data_lines(out / "identity_report.txt")}
        return {"constants": _key_values(out / "constants.txt"),
                "identity": identity}
    if workload == "direct-fine":
        rows = _csv_rows(out / "fluxes_eps0.015625.csv")
        return {"fluxes": {r["name"]: float(r["value"]) for r in rows}}
    rows = _csv_rows(out / "errors.csv")
    errors = {f"{k}@{r['eps']}": float(v) for r in rows for k, v in r.items()
              if k != "eps"}
    return {"errors": errors, "slopes": _key_values(out / "slopes.txt")}


def _close(got, want, atol=0.0):
    return got is not None and abs(got - want) <= RTOL * abs(want) + atol


def value_checks(workload: str, ref: dict, got: dict, scale: float):
    """(name, passed) for every value the workload's outputs must reproduce."""
    checks = []
    if workload == "cell-strip":
        for k, v in ref["constants"].items():
            checks.append((f"constant {k}", _close(got.get("constants", {}).get(k), v)))
        for k in ref["identity"]:
            checks.append((f"identity {k}", got.get("identity", {}).get(k) == "ok"))
        return checks
    # fluxes through walls are exactly zero: compare against the largest
    key = "fluxes" if workload == "direct-fine" else "errors"
    atol = 1e-9 * scale * max(abs(v) for v in ref[key].values())
    for k, v in ref[key].items():
        checks.append((f"{key} {k}", _close(got.get(key, {}).get(k), scale * v, atol)))
    if workload == "study-default":
        from stentflow.analysis import SLOPE_BANDS

        slopes = got.get("slopes", {})
        for name, (lo, hi) in SLOPE_BANDS.items():
            s = slopes.get(f"{name}.slope")
            want = ref["slopes"][f"{name}.slope"]
            checks.append((f"slope {name}", _close(s, want, SLOPE_ATOL)))
            checks.append((f"slope {name} in band", s is not None
                           and (lo is None or s >= lo) and (hi is None or s <= hi)))
            want = ref["slopes"][f"{name}.intercept"] + math.log(scale)
            checks.append((f"intercept {name}",
                           _close(slopes.get(f"{name}.intercept"), want, SLOPE_ATOL)))
    return checks


def output_digest(out: Path) -> dict:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


# ----------------------------------------------------------------------------
# one benchmark run
# ----------------------------------------------------------------------------


def _child_env():
    env = dict(os.environ)
    # One BLAS thread: whether a second one helps depends on what else runs
    # on the other core, which made wall time swing by a quarter from run
    # to run.  With one thread wall time follows CPU time.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(run_dir: Path, cli_args, setup_only=False, trace_path=None, run_id="",
          timeout=RUN_LIMIT_S):
    """Run child.py in a fresh interpreter; returns (proc, result or None, t_spawn)."""
    result_path = run_dir / "result.json"
    for stale in (result_path, trace_path):
        if stale is not None:
            stale.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC),
           "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_path is not None:
        cmd += ["--trace", str(trace_path), "--run-id", run_id]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--"] + cli_args, cwd=run_dir, env=_child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:       # run() has killed and reaped it
        print(f"child timed out after {exc.timeout:.0f} s", file=sys.stderr)
        return None, None, t_spawn
    result = json.loads(result_path.read_text()) if result_path.exists() else None
    return proc, result, t_spawn


def _solves_converged(proc, record):
    """Convergence flag of every Stokes solve, in call order."""
    if record is not None:
        return [s["converged"] for s in record["spans"]
                if s["name"].endswith(".solve_stokes")]
    return [m == "True" for m in re.findall(r"converged=(True|False)",
                                            proc.stderr if proc else "")]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 ref: dict | None):
    """Closed-loop command runs of one workload; returns a summary dict.

    Runs until ``seconds`` would be exceeded, and at least ``MIN_RUNS`` times.
    With ``ref=None`` it makes a single run at scale 1 and offset 0, the
    inputs ``reference.json`` is recorded from.
    """
    t_start = time.monotonic()
    scale, offset = draw_inputs(seed) if ref is not None else (1.0, 0.0)
    run_dir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "run.cfg").write_text(config_text(workload, scale, offset))
    cli_args = WORKLOADS[workload]["command"] + ["--config", "run.cfg"]
    out = run_dir / "out"
    trace_path = run_dir / "spans.json" if trace else None

    samples = {m: [] for m in END_TO_END}
    checks, layer_runs, traces, outputs, converged = [], [], [], [], []
    first_digest = None
    longest = 0.0
    while True:
        elapsed = time.monotonic() - t_start
        if ((len(outputs) >= MIN_RUNS and elapsed + longest > seconds)
                or elapsed + longest > RUN_LIMIT_S
                or (ref is None and outputs)):
            break
        t0 = time.monotonic()
        # set-up probes between command runs sample the same stretch of time
        for _ in range(0 if trace else SETUP_PROBES):
            _, res, t_spawn = spawn(run_dir, cli_args, setup_only=True)
            if res is not None:
                samples["setup_s"].append(res["t_setup"] - t_spawn)
        shutil.rmtree(out, ignore_errors=True)
        proc, res, t_spawn = spawn(run_dir, cli_args, trace_path=trace_path,
                                   run_id=f"{workload}:{seed}:{len(outputs)}",
                                   timeout=RUN_LIMIT_S - elapsed)
        longest = max(longest, time.monotonic() - t0)

        record = None
        if trace and res is not None and trace_path.exists():
            record = json.loads(trace_path.read_text())
            traces.append(record)
            layer_runs.append(layers.layer_metrics(record))
        if res is not None and "wall_s" in res:
            samples["setup_s"].append(res["t_setup"] - t_spawn)
            for m in ("wall_s", "cpu_s", "peak_rss_mb"):
                samples[m].append(res[m])

        checks.append(("exit code 0", proc is not None and proc.returncode == 0))
        converged = _solves_converged(proc, record)
        n_solves = ref[workload]["solves"] if ref is not None else len(converged)
        for i in range(max(n_solves, len(converged))):
            checks.append((f"solve {i} converged",
                           i < n_solves and i < len(converged) and converged[i]))
        try:
            got, digest = read_outputs(workload, out), output_digest(out)
        except (OSError, ValueError, KeyError, IndexError):
            got, digest = {}, None
        outputs.append(got)
        if ref is not None:
            checks += value_checks(workload, ref[workload], got, scale)
        if first_digest is None:
            first_digest = digest
        else:
            checks.append(("outputs byte-identical to the first run",
                           digest is not None and digest == first_digest))
    if trace:
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        (WORK / "traces" / f"{workload}-seed{seed}.json").write_text(json.dumps(traces))
    shutil.rmtree(run_dir, ignore_errors=True)
    return {"scale": scale, "offset": offset, "samples": samples,
            "layer_runs": layer_runs, "checks": checks, "outputs": outputs,
            "converged": converged}


def machine_record() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (TypeError, KeyError, AttributeError):
            return "unknown"

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy),
            "scipy_blas": blas(scipy)}


def one_run(args) -> int:
    ref = json.loads(REFERENCE.read_text())
    summary = run_workload(args.workload, args.seed, args.seconds, args.trace, ref)
    checks = summary["checks"]
    failed = sum(not ok for _, ok in checks)
    print(f"workload {args.workload} seed {args.seed}: scale "
          f"{summary['scale']!r} offset {summary['offset']!r}")
    print(f"machine: {json.dumps(machine_record())}")
    for name, ok in checks:
        if not ok:
            print(f"FAILED check: {name}")
    if args.trace:
        runs = summary["layer_runs"]
        samples = {m: [r[m] for r in runs] for m in (runs[0] if runs else {})}
    else:
        samples = summary["samples"]
    if not samples or not all(samples.values()):
        sys.exit("no run of the command completed")
    metrics = {m: statistics.median(v) for m, v in samples.items()}
    for m, v in metrics.items():
        print(f"{m} = {v:.6g} {unit_of(m)} (median of n={len(samples[m])})")
        if not args.trace:
            print(f"  samples: {' '.join(f'{x:.4g}' for x in samples[m])}")
    print(f"fail_frac = {failed / len(checks):.6g} ratio "
          f"(failed {failed} of n={len(checks)} checks)")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(checks), "failed": failed,
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()},
    }))
    return 0


# ----------------------------------------------------------------------------
# steadiness report and reference recording
# ----------------------------------------------------------------------------


def steady(args) -> int:
    sys.stdout.reconfigure(line_buffering=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    report = {"machine": machine_record(), "seconds": args.seconds,
              "trace": int(args.trace), "workloads": {}}
    flagged = []
    for w in workloads:
        values, attempted, failed = {}, 0, 0
        seeds = list(range(args.seed, args.seed + args.steady))
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(int(args.trace))],
                capture_output=True, text=True, timeout=200)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            res = json.loads(lines[-1])
            attempted += res["attempted"]
            failed += res["failed"]
            for m, v in res["metrics"].items():
                values.setdefault(m, []).append(v["value"])
        print(f"== {w}: {len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}")
        stats = {}
        for m, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(m)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  SPREAD ABOVE BOUND"
                flagged.append(f"{w} {m}")
            elif bound is not None and spread > bound / 3:
                flag = "  spread above a third of the bound"
            stats[m] = {"unit": unit_of(m), "n": len(vals), "median": med,
                        "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"{m:32s} {unit_of(m):6s} n={len(vals):<3d} median {med:<12.6g}"
                  f" q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}"
                  + (f" bound {bound}" if bound is not None else "") + flag)
        print(f"{'fail_frac':32s} {'ratio':6s} n={attempted:<3d} "
              f"value {failed / attempted:.6g} (failed {failed} checks)")
        report["workloads"][w] = {"seeds": seeds, "attempted": attempted,
                                  "failed": failed, "metrics": stats}
    if flagged:
        print("spread above bound: " + ", ".join(flagged))
    print(json.dumps(report))
    return 0


def write_reference(args) -> int:
    ref = {}
    for w in WORKLOADS:
        summary = run_workload(w, 0, 0.0, False, None)
        if not all(ok for _, ok in summary["checks"]) or not summary["outputs"][0]:
            sys.exit(f"{w}: the reference run failed: {summary['checks']}")
        ref[w] = {"solves": len(summary["converged"]), **summary["outputs"][0]}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time of one run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="N",
                    help="steadiness report over N seeds per workload")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    if not (SRC / "stentflow" / "cli.py").is_file():
        sys.exit(f"no stentflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    # on SIGTERM, unwind so that subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.write_reference:
        return write_reference(args)
    if args.steady:
        return steady(args)
    if args.workload is None:
        ap.error("--workload is required for a single run")
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
