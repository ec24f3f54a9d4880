"""Command-line interface: verify / list / table.

Configuration precedence is flags > EIGENLAB_* environment variables >
built-in defaults.  Exit codes: 0 all selected claims pass, 1 at least one
claim failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .claims import (DEFAULT_SIZES, FORMATS, PAIR_SPACE_ORDER, SELECTORS,
                     ConfigError, ROW_BY_SPACE, RunConfig, jobs_for,
                     run_claims, validate_config)
from .pairs import space_label
from .report import build_report, emit

__all__ = ["build_parser", "config_from_args", "main"]

_ENV_PREFIX = "EIGENLAB_"


def _env(name: str):
    return os.environ.get(_ENV_PREFIX + name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenlab",
        description="Numerical verification of eigenfunction identities on "
                    "compact symmetric spaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("verify", "run the selected verification suites"),
            ("list", "enumerate selectable spaces and claim ids"),
            ("table", "print the reproduced eigenvalue table (rows 4-10)")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--space", action="append", default=None,
                       help="suite selector (repeatable or comma-separated); "
                            "default all")
        p.add_argument("--m", type=int, default=None,
                       help="size m override (Grassmannian spaces)")
        p.add_argument("--n", type=int, default=None, help="size n override")
        p.add_argument("--samples", type=int, default=None,
                       help="random samples per claim (default 100)")
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance override for every selected claim")
        p.add_argument("--seed", type=int, default=None,
                       help="base seed of the sample streams (default 0)")
        p.add_argument("--out", default=None,
                       help="write the report to this path instead of stdout")
        p.add_argument("--format", dest="fmt", choices=FORMATS, default=None,
                       help="report format (default human-table)")
    return parser


def _pick(flag, env_name, default, convert):
    if flag is not None:
        return flag
    raw = _env(env_name)
    if raw is None:
        return default
    try:
        return convert(raw)
    except ValueError as exc:
        raise ConfigError(
            f"bad value for {_ENV_PREFIX}{env_name}: {raw!r}") from exc


def config_from_args(args) -> RunConfig:
    spaces = args.space
    if spaces is None:
        raw = _env("SPACE")
        spaces = raw.split(",") if raw else ["all"]
    flat = []
    for s in spaces:
        flat.extend(t for t in s.split(",") if t)
    config = RunConfig(
        spaces=tuple(flat) if flat else ("all",),
        m=_pick(args.m, "M", None, int),
        n=_pick(args.n, "N", None, int),
        samples=_pick(args.samples, "SAMPLES", 100, int),
        tol=_pick(args.tol, "TOL", None, float),
        seed=_pick(args.seed, "SEED", 0, int),
        out=_pick(args.out, "OUT", None, str),
        fmt=_pick(args.fmt, "FORMAT", "human-table", str),
    )
    return validate_config(config)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def _cmd_verify(config: RunConfig) -> int:
    start = time.perf_counter()
    results = run_claims(config)
    wall = time.perf_counter() - start
    report = build_report(config, results)
    _write_output(emit(report, config.fmt), config.out)
    passed, total = report.counts
    print(f"{passed}/{total} claims passed in {wall:.2f}s (wall time not "
          "part of the report bytes)", file=sys.stderr)
    return 0 if report.all_passed else 1


def _cmd_list(config: RunConfig) -> int:
    lines = ["spaces:"]
    for key in SELECTORS:
        if key in PAIR_SPACE_ORDER:
            sizes = ", ".join(space_label(key, m, n)
                              for m, n in DEFAULT_SIZES[key])
            extra = f"eigenvalue table row {ROW_BY_SPACE[key]}; default {sizes}"
        elif key == "basis":
            extra = "square-sum identities, n in 2..8"
        elif key == "polynomial":
            extra = "degree-d families, d in 2..3"
        elif key == "product":
            extra = "product of two sp-grassmannian(m=1,n=1) families"
        elif key == "sphere":
            extra = "odd spheres, n in 2..3"
        else:
            extra = "complex projective spaces, n in 1..2"
        lines.append(f"  {key}: {extra}")
    lines.append("claims:")
    for job in jobs_for(config):
        for cid in job.claim_ids:
            lines.append(f"  {cid}")
    _write_output("\n".join(lines) + "\n", config.out)
    return 0


def _cmd_table(config: RunConfig) -> int:
    if config.spaces == ("all",):
        config = RunConfig(spaces=PAIR_SPACE_ORDER, m=config.m, n=config.n,
                           samples=config.samples, tol=config.tol,
                           seed=config.seed, out=config.out, fmt=config.fmt)
        validate_config(config)
    elif not set(config.spaces) & set(PAIR_SPACE_ORDER):
        raise ConfigError("the selection has no eigenvalue table row; "
                          f"choose from {PAIR_SPACE_ORDER}")
    start = time.perf_counter()
    results = [r for r in run_claims(config, prefix="table1.")
               if r.claim_id.startswith("table1.")]
    wall = time.perf_counter() - start
    by_key = {}
    for r in results:
        key = (ROW_BY_SPACE[r.space], r.space,
               r.params.get("m"), r.params["n"])
        by_key.setdefault(key, {})[r.claim_id.split(".")[2].split("[")[0]] = r
    rows = [("ROW", "SPACE", "SIZE", "LAMBDA", "MEASURED",
             "MU", "MEASURED", "STATUS")]
    ok = True
    for key in sorted(by_key):
        row, space, m, n = key
        pair_claims = by_key[key]
        lam, mu = pair_claims.get("lambda"), pair_claims.get("mu")
        passed = all(r.passed for r in pair_claims.values())
        ok = ok and passed
        fmt_e = lambda r: "-" if r is None or r.expected is None \
            else format(r.expected, ".10g")
        fmt_m = lambda r: "-" if r is None or r.measured is None \
            else format(r.measured.real, ".10g")
        rows.append((str(row), space, space_label(space, m, n),
                     fmt_e(lam), fmt_m(lam), fmt_e(mu), fmt_m(mu),
                     "ok" if passed else "FAIL"))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["eigenvalues on the classical compact symmetric spaces "
             "(expected vs measured)"]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    _write_output("\n".join(lines) + "\n", config.out)
    print(f"table computed in {wall:.2f}s", file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        if args.command == "verify":
            return _cmd_verify(config)
        if args.command == "list":
            return _cmd_list(config)
        return _cmd_table(config)
    except ConfigError as exc:
        print(f"eigenlab: configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
