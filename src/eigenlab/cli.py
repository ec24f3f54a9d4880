"""Command-line interface: verify / list / table.

Configuration precedence is flags > EIGENLAB_* environment variables >
built-in defaults.  Exit codes: 0 all selected claims pass, 1 at least one
claim failed, 2 configuration error or a report that cannot be written.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

from .claims import (BASIS_NS, DEFAULT_SIZES, FORMATS, PAIR_SPACE_ORDER,
                     POLY_DEGREES, PRODUCT_SPACE, SELECTORS, ConfigError,
                     ROW_BY_SPACE, RunConfig, jobs_for, run_claims,
                     validate_config)
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
    """The flag if given, else the EIGENLAB_* variable, else ``default``;
    an empty variable counts as unset."""
    if flag is not None:
        return flag
    raw = _env(env_name)
    if not raw:
        return default
    try:
        return convert(raw)
    except ValueError as exc:
        raise ConfigError(
            f"bad value for {_ENV_PREFIX}{env_name}: {raw!r}") from exc


def config_from_args(args) -> RunConfig:
    spaces = _pick(args.space, "SPACE", ["all"], lambda raw: raw.split(","))
    flat = []
    for s in spaces:
        flat.extend(t for t in s.split(",") if t)
    config = RunConfig(
        spaces=tuple(flat),
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


def _span(values) -> str:
    return f"{values[0]}..{values[-1]}"


def _ns(key: str):
    return [n for _, n in DEFAULT_SIZES[key]]


def _cmd_list(config: RunConfig) -> int:
    lines = ["spaces:"]
    for key in SELECTORS:
        if key in PAIR_SPACE_ORDER:
            sizes = ", ".join(space_label(key, m, n)
                              for m, n in DEFAULT_SIZES[key])
            extra = f"eigenvalue table row {ROW_BY_SPACE[key]}; default {sizes}"
        elif key == "basis":
            extra = f"square-sum identities, n in {_span(BASIS_NS)}"
        elif key == "polynomial":
            extra = f"degree-d families, d in {_span(POLY_DEGREES)}"
        elif key == "product":
            extra = f"product of two {space_label(*PRODUCT_SPACE)} families"
        elif key == "sphere":
            extra = f"odd spheres, n in {_span(_ns(key))}"
        else:
            extra = f"complex projective spaces, n in {_span(_ns(key))}"
        lines.append(f"  {key}: {extra}")
    lines.append("claims:")
    for job in jobs_for(config):
        for cid in job.claim_ids:
            lines.append(f"  {cid}")
    _write_output("\n".join(lines) + "\n", config.out)
    return 0


def _cmd_table(config: RunConfig) -> int:
    if "all" in config.spaces:
        config = replace(config, spaces=PAIR_SPACE_ORDER)
    elif not set(config.spaces) & set(PAIR_SPACE_ORDER):
        raise ConfigError("the selection has no eigenvalue table row; "
                          f"choose from {PAIR_SPACE_ORDER}")
    start = time.perf_counter()
    results = iter(run_claims(config, prefix="table1."))
    wall = time.perf_counter() - start
    rows = [("ROW", "SPACE", "SIZE", "LAMBDA", "MEASURED",
             "MU", "MEASURED", "STATUS")]
    fmt_m = lambda r: "-" if r.measured is None \
        else format(r.measured.real, ".10g")
    ok = True
    # the table1 jobs run in row order, each giving its (lambda, mu) pair
    # first; a row fails with any claim of its job
    for job in (j for j in jobs_for(config) if j.kind == "table1"):
        got = [next(results) for _ in job.claim_ids]
        lam, mu = got[:2]
        passed = all(r.passed for r in got)
        ok = ok and passed
        space = lam.space
        rows.append((str(ROW_BY_SPACE[space]), space,
                     space_label(space, lam.params.get("m"), lam.params["n"]),
                     format(lam.expected, ".10g"), fmt_m(lam),
                     format(mu.expected, ".10g"), fmt_m(mu),
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
    except OSError as exc:
        # only writing the report touches the file system
        print(f"eigenlab: cannot write the report to "
              f"{config.out or '<stdout>'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
