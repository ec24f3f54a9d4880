"""Verification reports and their serializations.

Machine formats (json-lines, tsv) are byte-deterministic for a given
configuration: claims are emitted in registry order and every float is
printed with 17 significant digits, which round-trips float64 exactly.
Wall time is intentionally not part of the emitted bytes; the CLI reports
it on stderr.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass

import numpy as np

from .claims import ClaimResult, RunConfig
from .sampling import GENERATOR_NAME

__all__ = [
    "VerificationReport",
    "package_versions",
    "build_report",
    "emit",
    "parse",
]


def package_versions() -> dict:
    from . import __version__
    return {
        "eigenlab": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


@dataclass(frozen=True)
class VerificationReport:
    """All claim results of one run plus the run's provenance."""

    results: tuple
    seed: int
    samples: int
    tol: float | None
    spaces: tuple
    generator: str
    versions: dict

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def counts(self):
        passed = sum(1 for r in self.results if r.passed)
        return passed, len(self.results)


def build_report(config: RunConfig, results) -> VerificationReport:
    return VerificationReport(
        results=tuple(results), seed=config.seed, samples=config.samples,
        tol=config.tol, spaces=tuple(config.spaces),
        generator=GENERATOR_NAME, versions=package_versions())


# ---------------------------------------------------------------------------
# scalar formatting (shared by the machine formats)

def _f17(x) -> str:
    return format(float(x), ".17g")


def _jval(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        # NaN and +-Infinity as json.dumps spells them; json.loads reads them
        return _f17(v) if np.isfinite(v) else json.dumps(v)
    if isinstance(v, str):
        return json.dumps(v, ensure_ascii=True)
    if isinstance(v, dict):
        inner = ",".join(f"{json.dumps(k)}:{_jval(x)}" for k, x in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_jval(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _jobj(pairs) -> str:
    return "{" + ",".join(f"{json.dumps(k)}:{_jval(v)}" for k, v in pairs) + "}"


def _claim_pairs(r: ClaimResult):
    return [
        ("claim_id", r.claim_id),
        ("space", r.space),
        ("params", r.params),
        ("samples", r.samples),
        ("max_residual", r.max_residual),
        ("mean_residual", r.mean_residual),
        ("expected", r.expected),
        ("measured_re", None if r.measured is None else r.measured.real),
        ("measured_im", None if r.measured is None else r.measured.imag),
        ("tol", r.tol),
        ("passed", r.passed),
        ("detail", r.detail),
    ]


def _meta_pairs(report: VerificationReport):
    return [
        ("kind", "meta"),
        ("seed", report.seed),
        ("samples", report.samples),
        ("tol", report.tol),
        ("spaces", list(report.spaces)),
        ("generator", report.generator),
        ("versions", report.versions),
        ("claims", len(report.results)),
    ]


# ---------------------------------------------------------------------------
# json-lines

def emit_json_lines(report: VerificationReport) -> str:
    lines = [_jobj(_meta_pairs(report))]
    for r in report.results:
        lines.append(_jobj([("kind", "claim")] + _claim_pairs(r)))
    return "\n".join(lines) + "\n"


def parse_json_lines(text: str) -> VerificationReport:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty report")
    meta = json.loads(lines[0])
    if meta.get("kind") != "meta":
        raise ValueError("missing meta line")
    results = []
    for ln in lines[1:]:
        d = json.loads(ln)
        if d.get("kind") != "claim":
            raise ValueError(f"unexpected line kind {d.get('kind')!r}")
        measured = (None if d["measured_re"] is None
                    else complex(d["measured_re"], d["measured_im"]))
        results.append(ClaimResult(
            claim_id=d["claim_id"], space=d["space"], params=d["params"],
            samples=d["samples"], max_residual=d["max_residual"],
            mean_residual=d["mean_residual"], expected=d["expected"],
            measured=measured, tol=d["tol"], passed=d["passed"],
            detail=d["detail"]))
    return VerificationReport(
        results=tuple(results), seed=meta["seed"], samples=meta["samples"],
        tol=meta["tol"], spaces=tuple(meta["spaces"]),
        generator=meta["generator"], versions=meta["versions"])


# ---------------------------------------------------------------------------
# tsv

_TSV_COLUMNS = ("claim_id", "space", "params", "samples", "max_residual",
                "mean_residual", "expected", "measured_re", "measured_im",
                "tol", "passed", "detail")


def _tsv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _f17(v)
    if isinstance(v, str):
        # keep free text from breaking the row structure
        return (v.replace("\\", "\\\\").replace("\t", "\\t")
                .replace("\n", "\\n"))
    return str(v)


def _tsv_text(cell: str) -> str:
    out, i = [], 0
    while i < len(cell):
        ch = cell[i]
        if ch == "\\" and i + 1 < len(cell):
            nxt = cell[i + 1]
            out.append({"t": "\t", "n": "\n", "\\": "\\"}.get(nxt, ch + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def emit_tsv(report: VerificationReport) -> str:
    meta = [
        f"seed={report.seed}",
        f"samples={report.samples}",
        "tol=" + ("" if report.tol is None else _f17(report.tol)),
        "spaces=" + "|".join(report.spaces),
        f"generator={report.generator}",
        "versions=" + ";".join(f"{k}:{v}" for k, v in report.versions.items()),
    ]
    lines = ["#meta\t" + "\t".join(meta), "\t".join(_TSV_COLUMNS)]
    for r in report.results:
        cells = dict(_claim_pairs(r))
        cells["params"] = ";".join(f"{k}={v}" for k, v in r.params.items())
        lines.append("\t".join(_tsv_cell(cells[c]) for c in _TSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _parse_params(cell: str) -> dict:
    out = {}
    if cell:
        for item in cell.split(";"):
            k, v = item.split("=", 1)
            try:
                out[k] = int(v)
            except ValueError:
                out[k] = v
    return out


def parse_tsv(text: str) -> VerificationReport:
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("#meta\t"):
        raise ValueError("missing tsv meta/header")
    meta = {}
    for item in lines[0].split("\t")[1:]:
        k, v = item.split("=", 1)
        meta[k] = v
    if lines[1].split("\t") != list(_TSV_COLUMNS):
        raise ValueError("unexpected tsv header")
    results = []
    for ln in lines[2:]:
        if not ln:
            continue
        cells = ln.split("\t")
        if len(cells) != len(_TSV_COLUMNS):
            raise ValueError("malformed tsv row")
        d = dict(zip(_TSV_COLUMNS, cells))
        measured = (None if d["measured_re"] == ""
                    else complex(float(d["measured_re"]), float(d["measured_im"])))
        results.append(ClaimResult(
            claim_id=_tsv_text(d["claim_id"]), space=d["space"],
            params=_parse_params(d["params"]), samples=int(d["samples"]),
            max_residual=float(d["max_residual"]),
            mean_residual=float(d["mean_residual"]),
            expected=None if d["expected"] == "" else float(d["expected"]),
            measured=measured, tol=float(d["tol"]),
            passed=d["passed"] == "true", detail=_tsv_text(d["detail"])))
    versions = dict(item.split(":", 1)
                    for item in meta["versions"].split(";") if item)
    return VerificationReport(
        results=tuple(results), seed=int(meta["seed"]),
        samples=int(meta["samples"]),
        tol=None if meta["tol"] == "" else float(meta["tol"]),
        spaces=tuple(meta["spaces"].split("|")) if meta["spaces"] else (),
        generator=meta["generator"], versions=versions)


# ---------------------------------------------------------------------------
# human table

def _human_num(x) -> str:
    if x is None:
        return "-"
    return format(x, ".10g")


def _human_measured(z) -> str:
    if z is None:
        return "-"
    if abs(z.imag) < 1e-9:
        return format(z.real, ".10g")
    return f"{z.real:.10g}{z.imag:+.3g}i"


def emit_human(report: VerificationReport) -> str:
    lines = [
        "eigenlab verification report",
        f"seed={report.seed} samples={report.samples} "
        + ("tol=per-claim" if report.tol is None else f"tol={_f17(report.tol)}")
        + " spaces=" + ",".join(report.spaces),
        f"generator={report.generator} "
        + " ".join(f"{k}={v}" for k, v in report.versions.items()),
        "",
    ]
    rows = [("CLAIM", "EXPECTED", "MEASURED", "MAX RESID", "TOL", "STATUS")]
    for r in report.results:
        rows.append((
            r.claim_id,
            _human_num(r.expected),
            _human_measured(r.measured),
            format(r.max_residual, ".3e"),
            format(r.tol, ".0e"),
            "ok" if r.passed else "FAIL",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    passed, total = report.counts
    lines.append("")
    lines.append(f"{passed}/{total} claims passed")
    failed = [r.claim_id for r in report.results if not r.passed]
    if failed:
        lines.append("failed: " + ", ".join(failed))
    notes = [(r.claim_id, r.detail) for r in report.results if r.detail]
    if notes:
        lines.append("notes:")
        lines.extend(f"  {cid}: {d}" for cid, d in notes)
    return "\n".join(lines) + "\n"


def emit(report: VerificationReport, fmt: str) -> str:
    if fmt == "json-lines":
        return emit_json_lines(report)
    if fmt == "tsv":
        return emit_tsv(report)
    if fmt == "human-table":
        return emit_human(report)
    raise ValueError(f"unknown format {fmt!r}")


def parse(text: str, fmt: str) -> VerificationReport:
    if fmt == "json-lines":
        return parse_json_lines(text)
    if fmt == "tsv":
        return parse_tsv(text)
    raise ValueError(f"format {fmt!r} does not round-trip")
