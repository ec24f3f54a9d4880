"""The default-config json-lines report against a golden copy.

``data/default_seed0.jsonl`` is ``eigenlab verify --format json-lines``
at the default configuration (seed 0).  Refactors must reproduce it: every
field exactly, except the toolchain versions and the residual statistics,
which move with the rounding of BLAS sums, and the measured eigenvalues,
which may move by the same rounding, up to 1e-12 relative to
max(1, |golden|).  The residuals may move, but each max_residual stays
within max(4 x golden, 1e-15), so a change that loses accuracy on any
claim shows here long before its tolerance does.
"""

import json
import os
from pathlib import Path

from eigenlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "default_seed0.jsonl"
UNCOMPARED = {"versions", "max_residual", "mean_residual"}
MEASURED = {"measured_re", "measured_im"}


def lines(text):
    return [json.loads(line) for line in text.splitlines()]


def test_default_report_matches_the_golden_copy(tmp_path, monkeypatch):
    for key in list(os.environ):
        if key.startswith("EIGENLAB_"):
            monkeypatch.delenv(key)
    out = tmp_path / "report.jsonl"
    assert main(["verify", "--format", "json-lines", "--out", str(out)]) == 0
    got, golden = lines(out.read_text()), lines(GOLDEN.read_text())
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
