"""The json-lines reports of two configurations against golden copies.

``data/default_seed0.jsonl`` is ``eigenlab verify --format json-lines``
at the default configuration (seed 0); ``data/quat_seed0.jsonl`` is
``eigenlab verify --space sp-grassmannian --m 3 --n 3 --samples 40 --seed 0
--format json-lines``, the 12 x 12 matrices of the largest size the CLI
accepts.  Refactors must reproduce them: every field exactly, except the
toolchain versions and the residual statistics, which move with the
rounding of BLAS sums, and the measured eigenvalues, which may move by the
same rounding, up to 1e-12 relative to max(1, |golden|).  The residuals
may move, but each max_residual stays within max(4 x golden, 1e-15), so a
change that loses accuracy on any claim shows here long before its
tolerance does.
"""

import json
import os
from pathlib import Path

from eigenlab.cli import main

DATA = Path(__file__).resolve().parent / "data"
UNCOMPARED = {"versions", "max_residual", "mean_residual"}
MEASURED = {"measured_re", "measured_im"}
QUAT = ["--space", "sp-grassmannian", "--m", "3", "--n", "3",
        "--samples", "40", "--seed", "0"]


def lines(text):
    return [json.loads(line) for line in text.splitlines()]


def assert_report_matches(golden, args, tmp_path, monkeypatch):
    for key in list(os.environ):
        if key.startswith("EIGENLAB_"):
            monkeypatch.delenv(key)
    out = tmp_path / "report.jsonl"
    assert main(["verify", *args, "--format", "json-lines",
                 "--out", str(out)]) == 0
    got, golden = lines(out.read_text()), lines((DATA / golden).read_text())
    assert len(got) == len(golden)
    for g, w in zip(got, golden):
        assert g.keys() == w.keys()
        if "max_residual" in w:
            bound = max(4.0 * w["max_residual"], 1e-15)
            assert g["max_residual"] <= bound, (w["claim_id"], "max_residual")
        for key in w.keys() - UNCOMPARED:
            where = (w.get("claim_id", "meta"), key)
            if key in MEASURED and w[key] is not None:
                bound = 1e-12 * max(1.0, abs(w[key]))
                assert abs(g[key] - w[key]) <= bound, where
            else:
                assert g[key] == w[key], where


def test_default_report_matches_the_golden_copy(tmp_path, monkeypatch):
    assert_report_matches("default_seed0.jsonl", [], tmp_path, monkeypatch)


def test_quat_report_matches_the_golden_copy(tmp_path, monkeypatch):
    assert_report_matches("quat_seed0.jsonl", QUAT, tmp_path, monkeypatch)
