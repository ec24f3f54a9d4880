"""Checks of the benchmark itself (not of eigenlab).

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import eigenlab.cli as cli  # noqa: E402
from eigenlab import claims, report  # noqa: E402
from eigenlab.ambient import AmbientField  # noqa: E402
from eigenlab.jets import Jet2, JetMatrix  # noqa: E402
from eigenlab.pairs import make_pair  # noqa: E402

import hostspeed  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _namespaces():
    """Attribute dicts of every eigenlab module and the patched classes."""
    spaces = {name: dict(vars(mod)) for name, mod in list(sys.modules.items())
              if name == "eigenlab" or name.startswith("eigenlab.")}
    for cls in (Jet2, JetMatrix, AmbientField):
        spaces[cls.__qualname__] = dict(cls.__dict__)
    return spaces


def _changed(before, after):
    return [(space, attr) for space, attrs in before.items()
            for attr, val in attrs.items() if after[space].get(attr) is not val]


def test_uninstall_restores_every_original():
    before = _namespaces()
    tracer = Tracer()
    tracer.install()
    try:
        patched = _changed(before, _namespaces())
    finally:
        tracer.uninstall()
    assert ("eigenlab.claims", "cartan_map_jet") in patched
    assert ("eigenlab.cartan", "cartan_map_jet") in patched
    assert ("eigenlab.sampling", "mat_exp") in patched
    assert ("eigenlab.cli", "emit") in patched
    assert ("Jet2", "__mul__") in patched
    assert ("JetMatrix", "curve") in patched
    assert _changed(before, _namespaces()) == []


def _passes(tmp_path, space, samples):
    out = str(tmp_path / "report.jsonl")
    argv = ["verify", "--space", space, "--samples", str(samples),
            "--format", "json-lines", "--out", out]
    config = cli.config_from_args(cli.build_parser().parse_args(argv))
    expected = [cid for job in claims.jobs_for(config)
                for cid in job.claim_ids]
    return worker.Passes(cli, report, argv, out, expected)


def test_traced_passes_repeat_counts_and_report_bytes(tmp_path):
    passes = _passes(tmp_path, "sp-grassmannian,polynomial,sphere,cpn", 4)
    passes.run()
    metrics, times = worker.traced(passes, Tracer(), cli, budget=0)
    # byte identity across all passes, and exact repeat of EXACT_COUNTS
    assert passes.problems == []
    assert len(times["untraced_passes_s"]) == len(times["traced_passes_s"])
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for key in ("cartan.jets", "jets.jet2_ops", "ambient.calls",
                "sampling.calls", "catalog.calls"):
        assert metrics[key] > 0, key
    assert 0.9 < metrics["trace.coverage"] <= 1.0
    assert metrics["claims.table1_s"] > 0 and metrics["claims.basis_s"] == 0


def test_host_factor_is_the_mean_probe_over_nominal():
    assert hostspeed.host_factor(hostspeed.NOMINAL_S) == 1.0
    assert hostspeed.host_factor(0.5 * hostspeed.NOMINAL_S,
                                 2.5 * hostspeed.NOMINAL_S) == 1.5
    assert hostspeed.probe() > 0


def test_cartan_counters_from_shapes_and_hashes():
    tracer = Tracer()
    pair = make_pair("sp-grassmannian", m=1, n=1)
    els = pair.ambient.elements
    pts = np.stack([np.eye(4), np.diag([1, 1j, -1, -1j])]).astype(complex)
    jm = JetMatrix.curve(pts[:, None], els)
    tracer._record_jets(pair, jm)
    tracer._record_jets(pair, jm)
    jets = 2 * 2 * els.shape[0]
    assert tracer.counts["cartan.jets"] == jets
    assert tracer.counts["cartan.flop"] == jets * 6 * 8 * 4 ** 3
    assert tracer.counts["cartan.distinct"] == jets // 2


def test_a_failing_claim_makes_the_pass_incorrect(tmp_path):
    passes = _passes(tmp_path, "sphere", 3)
    passes.argv += ["--tol", "1e-30"]
    passes.run()
    assert passes.failed > 0 and passes.problems


def test_untraced_metrics_and_workloads_match_benchmark_json(tmp_path):
    passes = _passes(tmp_path, "sphere", 3)
    passes.run()
    metrics, times = worker.untraced(passes, budget=0)
    assert passes.problems == [] and times["timed_passes"] == 3
    # each pass sits between two probes and is divided by their factor
    assert len(times["probes_s"]) == 4
    assert metrics["verify_s"] == statistics.median(
        w / f for w, f in zip(times["passes_s"], times["host_factors"]))
    assert {*metrics, "setup_s"} == {m["name"] for m in SPEC["end_to_end"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(worker.VERIFY_ARGS)


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
