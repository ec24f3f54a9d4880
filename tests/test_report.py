"""Report serialization: byte determinism and lossless round-trips."""

import pytest

from eigenlab.claims import ClaimResult, RunConfig, run_claims
from eigenlab.report import (build_report, emit, emit_human, emit_json_lines,
                             package_versions, parse, parse_json_lines,
                             parse_tsv)


def small_report():
    config = RunConfig(spaces=("sphere",), samples=5)
    results = run_claims(config)
    return build_report(config, results)


def synthetic_report():
    # exercise awkward values: negative zero-ish floats, empty detail,
    # complex measured, params with mixed types
    results = (
        ClaimResult(claim_id="x.alpha[n=2]", space="x", params={"n": 2},
                    samples=3, max_residual=1.25e-16, mean_residual=0.0,
                    expected=-4.0, measured=complex(-4.0, 1e-17), tol=1e-8,
                    passed=True, detail=""),
        ClaimResult(claim_id="x.beta[m=1,n=2]", space="x",
                    params={"m": 1, "n": 2}, samples=3,
                    max_residual=0.5, mean_residual=0.25, expected=None,
                    measured=None, tol=1e-8, passed=False,
                    detail="tab\tand newline are escaped upstream"),
    )
    config = RunConfig(spaces=("x",), samples=3, seed=7)
    return build_report(config, results)


class TestStructure:
    def test_build_report_metadata(self):
        rep = small_report()
        assert rep.seed == 0
        assert rep.samples == 5
        assert rep.spaces == ("sphere",)
        assert rep.generator == "philox-4x64"
        assert rep.all_passed
        vers = package_versions()
        assert set(vers) == {"eigenlab", "numpy", "python"}
        assert rep.versions == vers

    def test_counts(self):
        rep = synthetic_report()
        assert not rep.all_passed
        passed, total = rep.counts
        assert (passed, total) == (1, 2)


class TestByteDeterminism:
    @pytest.mark.parametrize("fmt", ["json-lines", "tsv", "human-table"])
    def test_same_config_same_bytes(self, fmt):
        a = emit(small_report(), fmt)
        b = emit(small_report(), fmt)
        assert a == b

    def test_float_formatting_recovers_exact_double(self):
        rep = synthetic_report()
        text = emit_json_lines(rep)
        # 17 significant digits recover the exact double on parse
        assert format(1.25e-16, ".17g") in text
        back = parse_json_lines(text)
        assert back.results[0].max_residual == 1.25e-16


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["json-lines", "tsv"])
    def test_machine_formats_lossless(self, fmt):
        for rep in (small_report(), synthetic_report()):
            text = emit(rep, fmt)
            back = parse(text, fmt)
            assert emit(back, fmt) == text
            assert back.seed == rep.seed
            assert back.samples == rep.samples
            assert len(back.results) == len(rep.results)
            for r1, r2 in zip(rep.results, back.results):
                assert r1.claim_id == r2.claim_id
                assert r1.params == r2.params
                assert r1.max_residual == r2.max_residual  # exact
                assert r1.passed == r2.passed

    def test_human_table_does_not_round_trip(self):
        text = emit(small_report(), "human-table")
        with pytest.raises(ValueError):
            parse(text, "human-table")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit(small_report(), "yaml")


class TestEmptySelection:
    def test_header_only(self):
        config = RunConfig(spaces=("sphere",), samples=5)
        rep = build_report(config, ())
        for fmt, parser in (("json-lines", parse_json_lines),
                            ("tsv", parse_tsv)):
            text = emit(rep, fmt)
            assert text  # header stays
            back = parser(text)
            assert back.results == ()
        assert "0/0" in emit_human(rep)


class TestHumanTable:
    def test_columns_present(self):
        text = emit_human(small_report())
        assert "CLAIM" in text and "EXPECTED" in text
        assert "MAX RESID" in text and "STATUS" in text
        assert "sphere.lambda[n=2]" in text
        assert "4/4 claims passed" in text

    def test_failures_listed(self):
        text = emit_human(synthetic_report())
        assert "1/2 claims passed" in text
        assert "x.beta[m=1,n=2]" in text
        assert "fail" in text.lower()

    def test_details_listed_as_notes(self):
        text = emit_human(synthetic_report())
        assert "notes:" in text
        assert "x.beta[m=1,n=2]: tab\tand newline" in text
        # reports without details carry no notes section
        assert "notes:" not in emit_human(small_report())
