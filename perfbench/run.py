"""Benchmark of ``eigenlab verify``: time, memory and accuracy to a verdict.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload's passes untraced in a fresh child
(``worker.py``) and measures set-up, ``import eigenlab.cli``, as the median
over twelve fresh children, six before the worker and six after it.  Every
time is divided by the host factor of a speed probe run next to it
(``hostspeed.py``), so that it reads as on the host in its fast phase.
``--trace 1`` runs the workload with the per-layer tracer (``tracer.py``)
instead.  The last line of standard output is one JSON object with
``correct``, ``attempted`` (claims verified, over all passes), ``failed``
(claims failed) and ``metrics``; the line before it holds provenance:
machine, versions, BLAS build, thread variables as found, git commit,
seed and the report's sha256.

The benchmark exits with status 2, printing no result, when the checkout
has no ``src/eigenlab``.

Metric names and units come from ``BENCHMARK.json``.

Steadiness check, two sets of untraced runs of the same code:

    python3 perfbench/run.py --steadiness

Each set runs every workload of ``BENCHMARK.json`` with seeds 1..10 for
``run_seconds``.  For each workload and end-to-end metric it prints both
sets' medians and quartile spreads; it exits with status 1 unless both
spreads and the shift of the second median stay within the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_CHILDREN = 12
STEADINESS_RUNS = 10
RUN_TIMEOUT_S = 175
# Times ``import eigenlab.cli``, then probes the host's speed.
SETUP_SNIPPET = ("import sys, time; t = time.perf_counter(); "
                 "import eigenlab.cli; t = time.perf_counter() - t; "
                 f"sys.path.insert(0, {str(HERE)!r}); import hostspeed; "
                 "print(t, hostspeed.probe())")


class BenchError(RuntimeError):
    """The program could not be run at all; no result is printed."""


def child_env():
    """The caller's environment with ``src`` on the path and no
    ``EIGENLAB_*`` settings; BLAS thread variables are left as found."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("EIGENLAB_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def remaining(deadline):
    return max(deadline - time.monotonic(), 1.0)


def measure_setup(env, deadline, children):
    """(seconds of ``import eigenlab.cli``, seconds of the host speed probe
    after it) in each of ``children`` fresh interpreters."""
    times = []
    for _ in range(children):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining(deadline))
        if proc.returncode != 0:
            raise BenchError("import eigenlab.cli failed:\n" + proc.stderr)
        times.append(tuple(map(float, proc.stdout.split()[-2:])))
    return times


def run_worker(env, args, out, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out]
    return last_json_line(subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=remaining(deadline)))


def last_json_line(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{proc.args[1]} exited with status "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def git_commit():
    """HEAD's commit, or None when the checkout is not a git repository
    (a repository above the checkout is not looked for)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def bench(args, spec):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if not (ROOT / "src" / "eigenlab" / "cli.py").is_file():
        raise BenchError(f"no src/eigenlab under {ROOT}")
    env = child_env()
    # Half the set-up children run before the worker and half after it, so
    # that the median spans the run's window, not just its first seconds.
    setup_children = 0 if args.trace else SETUP_CHILDREN // 2
    setup = measure_setup(env, deadline, setup_children)
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        result = run_worker(env, args, os.path.join(scratch, "report.jsonl"),
                            deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setup += measure_setup(env, deadline, setup_children)
    info = result.pop("info")
    info["git_commit"] = git_commit()
    values = result["metrics"]
    if setup:
        values["setup_s"] = statistics.median(
            t / hostspeed.host_factor(probe) for t, probe in setup)
        info["setup_runs_s"] = [t for t, _ in setup]
        info["setup_probes_s"] = [probe for _, probe in setup]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result["metrics"] = {m["name"]: {"value": values[m["name"]],
                                     "unit": m["unit"]} for m in wanted}
    print(json.dumps({"info": info}))
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# steadiness

def quartile_spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def steadiness(spec):
    """Two sets of runs; returns True if every row agrees within bounds."""
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    values = {}
    for set_no in (1, 2):
        for workload in workloads:
            for seed in range(1, STEADINESS_RUNS + 1):
                cmd = [sys.executable, str(HERE / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"]
                result = last_json_line(subprocess.run(
                    cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                    timeout=RUN_TIMEOUT_S + 5))
                if not result["correct"] or result["failed"]:
                    raise BenchError(f"{workload} seed {seed}: incorrect")
                got = {k: v["value"] for k, v in result["metrics"].items()}
                print(f"set {set_no} {workload} seed {seed}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in got.items()),
                      file=sys.stderr, flush=True)
                for k, v in got.items():
                    values.setdefault((workload, k, set_no), []).append(v)
    rows = []
    for workload in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = values[(workload, name, 1)]
            b = values[(workload, name, 2)]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if m["better"] == "higher":
                worse = -worse
            spreads = (quartile_spread(a), quartile_spread(b))
            ok = abs(worse) <= bound and max(spreads) <= bound
            rows.append({"workload": workload, "metric": name,
                         "median_1": med_a, "median_2": med_b,
                         "spread_1": spreads[0], "spread_2": spreads[1],
                         "worse_2_vs_1": worse, "bound": bound,
                         "agree": ok})
            print(f"{workload:12} {name:20} median {med_a:.6g} / {med_b:.6g}"
                  f"  spread {spreads[0]:.3f} / {spreads[1]:.3f}"
                  f"  worse {worse:+.3f}  bound {bound}"
                  f"  {'ok' if ok else 'NOT STEADY'}", file=sys.stderr)
    steady = all(r["agree"] for r in rows)
    print(json.dumps({"steady": steady, "runs_per_set": STEADINESS_RUNS,
                      "seconds": seconds, "rows": rows}))
    return steady


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description="Benchmark of eigenlab verify (see module docstring).")
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="run two sets of runs and compare their medians")
    args = parser.parse_args(argv)
    if not args.steadiness and (args.workload is None
                                or args.seconds is None):
        parser.error("give --workload and --seconds, or --steadiness")
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # the running child and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.steadiness:
            return 0 if steadiness(spec) else 1
        bench(args, spec)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
