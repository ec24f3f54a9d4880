"""Peak RSS and minor page faults of repeated ``eigenlab verify`` passes.

Runs ``eigenlab.cli.main`` on one ``verify`` argv N times in this
process, with perfbench's host speed probe (``perfbench/hostspeed.py``)
before the first pass and after each, as perfbench's worker runs its
untraced passes, and prints one line per pass: its index, its wall
seconds, ``ru_maxrss`` after it in MB and the minor page faults the pass
took (the probes' excluded).  Pass 0 is the worker's untimed warm-up.
Each pass writes its report through ``--out`` to a temporary directory,
with its standard error discarded.  Exits 1 unless every pass exits 0.

    PYTHONPATH=src python tools/rss_passes.py --passes 20 -- verify \\
        --space sp-grassmannian --m 3 --n 3 --samples 300 --seed 1

It measures whichever eigenlab is on ``sys.path`` and changes nothing in
perfbench.  The peak RSS of a run like this does not predict perfbench's
``peak_rss_mb`` for the same code: that peak rests on the heap layout of
the worker's whole process (its imports, its report checks, how many
passes fit its budget), and at quat-scale it has moved by several MB
with no change to what the program holds.  Use this tool to see how the
peak and the faults grow pass by pass, and full perfbench runs to compare
two versions.
"""

import argparse
import contextlib
import io
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import hostspeed  # noqa: E402
from eigenlab.cli import main  # noqa: E402


def passes(argv, count):
    """Runs ``count`` passes of ``argv``; returns their exit codes."""
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report")
        hostspeed.probe()
        for k in range(count):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            with contextlib.redirect_stderr(io.StringIO()):
                codes.append(main(argv + ["--out", out]))
            wall = time.perf_counter() - start
            usage = resource.getrusage(resource.RUSAGE_SELF)
            print(f"pass {k} wall_s {wall:.4f} maxrss_mb "
                  f"{usage.ru_maxrss / 1024.0:.1f} minflt "
                  f"{usage.ru_minflt - faults}", flush=True)
            hostspeed.probe()
    return codes


def cli(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--passes", type=int, default=10,
                        help="passes to run, the warm-up included")
    parser.add_argument("argv", nargs="+",
                        help="the eigenlab argv, after --, from 'verify'")
    args = parser.parse_args(args)
    if args.argv[0] != "verify" or args.passes < 1:
        parser.error("needs a 'verify' argv and at least one pass")
    return int(any(code != 0 for code in passes(args.argv, args.passes)))


if __name__ == "__main__":
    sys.exit(cli())
