"""One workload's passes in a fresh process; prints one JSON line.

Usage (``src/`` on ``PYTHONPATH``; ``run.py`` starts it this way):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out FILE

Each pass calls ``eigenlab.cli.main(["verify", ..., "--seed", N,
"--format", "json-lines", "--out", FILE])`` in-process and checks its
report: exit code 0, the report parses with ``eigenlab.report.parse``, its
claim ids equal those of ``jobs_for(config)``, and its bytes equal those of
the first pass.  The first pass warms the process (allocator, BLAS threads)
and is checked but not timed.

``--trace 0`` times passes for ``S`` seconds (at least three).  ``--trace
1`` alternates untraced and traced passes for ``S`` seconds (at least two
of each, and the traced passes' work counts must repeat exactly), so that
the tracing cost compares passes run under the same host conditions.

Untraced passes alternate with host speed probes (``hostspeed.py``).  Each
pass's wall and CPU time is divided by the host factor of the probes
before and after it, and the run reports the median pass, so that its
times read as on the host in its fast phase whatever the neighbours do.
The raw pass times, probe times and host factors are listed in the
``info`` object.  The traced run's timings are those of its fastest pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time

import hostspeed
from tracer import JOB_KINDS, Tracer

# ``verify`` arguments of each workload in BENCHMARK.json.
VERIFY_ARGS = {
    "default": [],
    "quat-scale": ["--space", "sp-grassmannian", "--m", "3", "--n", "3",
                   "--samples", "300"],
}

# Layer work counts; they must repeat exactly between traced passes.
EXACT_COUNTS = ("sampling.calls", "pairs.calls", "catalog.calls",
                "cartan.calls", "cartan.jets", "cartan.gflop_computed",
                "cartan.useful_ratio", "jets.curve_calls", "jets.jet2_ops",
                "ambient.calls")


class Passes:
    """Runs verify passes and checks each report against the first."""

    def __init__(self, cli, report, argv, out, expected_ids):
        self.cli, self.report = cli, report
        self.argv, self.out = argv, out
        self.expected_ids = expected_ids
        self.reference = None
        self.results = None
        self.attempted = self.failed = 0
        self.problems = []

    def run(self, main=None):
        """One pass of ``main`` (default ``cli.main``); returns (wall
        seconds, process CPU seconds)."""
        main = main or self.cli.main
        if os.path.exists(self.out):
            os.remove(self.out)
        start, cpu = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(self.argv)
        except Exception as exc:  # a crashing pass fails all its claims
            code = f"exception {exc!r}"
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        self._check(code)
        return wall, cpu

    def _check(self, code):
        n = len(self.expected_ids)
        self.attempted += n
        try:
            with open(self.out, "rb") as fh:
                data = fh.read()
        except OSError:
            data = b""
        problem, parsed = None, None
        if code not in (0, 1):
            problem = f"exit code {code}"
        else:
            try:
                parsed = self.report.parse(data.decode(), "json-lines")
            except (ValueError, KeyError, TypeError,
                    UnicodeDecodeError) as exc:
                problem = f"report does not parse: {exc!r}"
        if parsed is not None:
            ids = [r.claim_id for r in parsed.results]
            if ids != self.expected_ids:
                problem = "claim ids differ from jobs_for(config)"
                parsed = None
        if parsed is None:
            self.failed += n
        else:
            failed = sum(not r.passed for r in parsed.results)
            self.failed += failed
            if code != 0 or failed:
                problem = f"exit code {code}, {failed} claims failed"
        if self.reference is None:
            self.reference, self.results = data, parsed
        elif data != self.reference:
            problem = problem or "report bytes differ from the first pass"
        if problem:
            self.problems.append(problem)

def closed_loop(budget, min_rounds, one_round):
    """Calls ``one_round()`` until, once ``min_rounds`` have run, another
    round would end after ``budget`` seconds at the median round time so
    far."""
    rounds = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        one_round()
        now = time.perf_counter()
        rounds.append(now - t)
        if (len(rounds) >= min_rounds
                and now - start + statistics.median(rounds) > budget):
            return


def untraced(passes, budget):
    """End-to-end metrics (all but ``setup_s``) and the pass times."""
    walls, cpus, probes = [], [], [hostspeed.probe()]

    def one_pass():
        wall, cpu = passes.run()
        walls.append(wall)
        cpus.append(cpu)
        probes.append(hostspeed.probe())

    closed_loop(budget, 3, one_pass)
    factors = [hostspeed.host_factor(before, after)
               for before, after in zip(probes, probes[1:])]
    verify_s = statistics.median(w / f for w, f in zip(walls, factors))
    results = passes.results.results if passes.results else ()
    samples = sum(r.samples for r in results)
    margins = [math.log10(r.tol / max(r.max_residual, sys.float_info.min))
               for r in results]
    metrics = {
        "verify_s": verify_s,
        "verify_cpu_s": statistics.median(c / f
                                          for c, f in zip(cpus, factors)),
        "claim_samples_per_s": samples / verify_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "min_margin_decades": min(margins) if margins else float("nan"),
    }
    return metrics, {"timed_passes": len(walls), "passes_s": walls,
                     "cpu_s": cpus, "probes_s": probes,
                     "host_factors": factors}


def layer_metrics(tracer, pass_s):
    """Per-layer metrics of the traced pass just run."""
    groups, names = tracer.group_totals(), tracer.name_totals()
    counts = tracer.counts

    def group(g, i):
        return groups.get(g, [0, 0.0])[i]

    def name(n, i):
        return names.get(n, [0, 0.0, 0.0])[i]

    jets = counts["cartan.jets"]
    gflop = counts["cartan.flop"] / 1e9
    cartan_s = name("cartan.cartan_map_jet", 1)
    covered = sum(rec[1] for (parent, _), rec in tracer.edges.items()
                  if parent == "cli.main")
    out = {
        "sampling.busy_s": group("sampling", 1),
        "sampling.calls": group("sampling", 0),
        "sampling.mat_exp_s": name("sampling.mat_exp", 2),
        "pairs.busy_s": group("pairs", 1),
        "pairs.calls": group("pairs", 0),
        "catalog.busy_s": group("catalog", 1),
        "catalog.calls": group("catalog", 0),
        "families.busy_s": group("families", 1),
        "cartan.busy_s": group("cartan", 1),
        "cartan.calls": group("cartan", 0),
        "cartan.jets": jets,
        "cartan.gflop_computed": gflop,
        "cartan.gflops": gflop / cartan_s if cartan_s else 0.0,
        "cartan.useful_ratio":
            counts["cartan.distinct"] / jets if jets else 0.0,
        "jets.curve_s": name("jets.curve", 2),
        "jets.curve_calls": name("jets.curve", 0),
        "jets.jet2_ops": counts["jets.jet2_ops"],
        "ambient.busy_s": group("ambient", 1),
        "ambient.calls": group("ambient", 0),
        "claims.self_s": sum(rec[2] for n, rec in names.items()
                             if n.startswith("claims.job.")),
        "report.build_s": name("report.build_report", 1),
        "report.emit_s": name("report.emit", 1),
        "report.parse_s": name("report.parse", 1),
        "trace.pass_s": pass_s,
        "trace.coverage": covered / pass_s,
        "trace.hash_s": name("trace.hash", 1),
    }
    for kind in JOB_KINDS.values():
        out[f"claims.{kind}_s"] = name(f"claims.job.{kind}", 1)
    return out


def traced(passes, tracer, cli, budget):
    """Per-layer metrics of the fastest traced pass, from rounds of one
    untraced and one traced pass, and the pass times."""
    untraced_walls, snapshots = [], []
    root = tracer.span("cli.main", cli.main)

    def one_round():
        untraced_walls.append(passes.run()[0])
        tracer.install()
        try:
            wall, _ = passes.run(root)
        finally:
            tracer.uninstall()
        # the report check ran after the pass; its parse span is included
        snapshots.append((layer_metrics(tracer, wall), tracer.tree()))
        tracer.reset()

    closed_loop(budget, 2, one_round)
    layers = [s[0] for s in snapshots]
    for key in EXACT_COUNTS:
        if len({m[key] for m in layers}) != 1:
            passes.problems.append(f"{key} differs between traced passes")
    metrics = dict(min(layers, key=lambda m: m["trace.pass_s"]))
    metrics["report.bytes"] = len(passes.reference)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - min(untraced_walls)
    return metrics, {"untraced_passes_s": untraced_walls,
                     "traced_passes_s": [m["trace.pass_s"] for m in layers],
                     "span_tree": snapshots[-1][1]}


def provenance():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(VERIFY_ARGS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True,
                        help="report file written by each pass")
    args = parser.parse_args(argv)
    try:
        import eigenlab.cli as cli
        from eigenlab import claims, report
    except ImportError as exc:
        print(f"worker: cannot import eigenlab: {exc}", file=sys.stderr)
        return 3

    verify = ["verify", *VERIFY_ARGS[args.workload],
              "--seed", str(args.seed), "--format", "json-lines",
              "--out", args.out]
    config = cli.config_from_args(cli.build_parser().parse_args(verify))
    expected = [cid for job in claims.jobs_for(config)
                for cid in job.claim_ids]
    passes = Passes(cli, report, verify, args.out, expected)
    passes.run()                                # warm-up, checked

    info = {"workload": args.workload, "seed": args.seed,
            "claims": len(expected), **provenance()}
    if args.trace:
        metrics, times = traced(passes, Tracer(), cli, args.seconds)
    else:
        metrics, times = untraced(passes, args.seconds)
    info.update(times)
    info["report_sha256"] = hashlib.sha256(passes.reference).hexdigest()
    info["claims_failed_ratio"] = passes.failed / passes.attempted
    info["problems"] = sorted(set(passes.problems))
    print(json.dumps({
        "correct": not passes.problems,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": metrics,
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
