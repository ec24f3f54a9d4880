"""Digests of the reports that a refactor of eigenlab keeps byte for byte.

Runs ``eigenlab.cli.main`` in this process for six reports:
json-lines at the default config, seeds 0 and 1; json-lines at
sp-grassmannian(3,3) with 300 samples, seeds 0 and 1; the default config
in tsv; and ``eigenlab table``.  Each report is written through ``--out``
to a temporary directory, with every EIGENLAB_* variable unset, and
printed as one line: its md5, then the argv without ``--out``.  Exits 1
unless every run exits 0.

It digests whichever eigenlab is on ``sys.path``, so

    PYTHONPATH=<checkout>/src python tools/report_digests.py

digests any checkout; two checkouts that print the same lines write the
same report bytes.
"""

import hashlib
import os
import sys
import tempfile

from eigenlab.cli import main

QUAT = ["--space", "sp-grassmannian", "--m", "3", "--n", "3",
        "--samples", "300"]
RUNS = (
    ["verify", "--format", "json-lines", "--seed", "0"],
    ["verify", "--format", "json-lines", "--seed", "1"],
    ["verify", *QUAT, "--format", "json-lines", "--seed", "0"],
    ["verify", *QUAT, "--format", "json-lines", "--seed", "1"],
    ["verify", "--format", "tsv"],
    ["table"],
)


def digests() -> int:
    for name in [k for k in os.environ if k.startswith("EIGENLAB_")]:
        del os.environ[name]
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for k, argv in enumerate(RUNS):
            out = os.path.join(tmp, f"report-{k}")
            if main(argv + ["--out", out]) != 0:
                status = 1
            try:
                with open(out, "rb") as fh:
                    digest = hashlib.md5(fh.read()).hexdigest()
            except FileNotFoundError:
                digest = "no-report"
            print(digest, " ".join(argv), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(digests())
