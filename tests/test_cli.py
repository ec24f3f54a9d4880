"""Command-line interface: exit codes, precedence, formats, subcommands."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from eigenlab.cli import main
from eigenlab.report import parse


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("EIGENLAB_"):
            monkeypatch.delenv(key)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_passing_run_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--space", "sphere",
                               "--samples", "3")
        assert code == 0
        assert "4/4 claims passed" in out

    def test_impossible_tolerance_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--space", "sphere",
                               "--samples", "3", "--tol", "1e-20")
        assert code == 1
        assert "FAIL" in out

    def test_unknown_space_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--space", "lens-space")
        assert code == 2
        assert "configuration error" in err

    def test_bad_samples_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--space", "sphere",
                               "--samples", "0")
        assert code == 2

    def test_size_override_needs_single_space(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "2")
        assert code == 2
        code, _, err = run_cli(capsys, "verify", "--space", "sphere,cpn",
                               "--n", "2")
        assert code == 2

    def test_grassmannian_needs_both_sizes(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--space",
                               "sp-grassmannian", "--n", "1")
        assert code == 2

    @pytest.mark.parametrize("argv,env", [
        (["--space", ""], None),
        (["--space", ","], None),
        (["--space", "", "--space", ","], None),
        ([], ","),
    ])
    def test_empty_space_selection_exits_two(self, capsys, monkeypatch,
                                             argv, env):
        # a selection that names no selector is an error, not "all"
        if env is not None:
            monkeypatch.setenv("EIGENLAB_SPACE", env)
        code, out, err = run_cli(capsys, "verify", "--samples", "3", *argv)
        assert code == 2
        assert out == ""
        assert "empty space selection" in err

    def test_unset_or_empty_env_space_means_all(self, capsys, monkeypatch):
        code, unset, _ = run_cli(capsys, "list")
        assert code == 0
        monkeypatch.setenv("EIGENLAB_SPACE", "")
        code, empty, _ = run_cli(capsys, "list")
        assert code == 0
        assert empty == unset
        assert "table1.row4.lambda[n=2]" in unset and "cpn.mu[n=2]" in unset


class TestSelection:
    def test_single_space_single_size(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--space", "su-so",
                               "--n", "3", "--samples", "3",
                               "--format", "json-lines")
        assert code == 0
        rep = parse(out, "json-lines")
        assert all(r.params.get("n") == 3 for r in rep.results)

    def test_comma_separated_spaces(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--space", "sphere,cpn",
                               "--samples", "3", "--format", "json-lines")
        assert code == 0
        rep = parse(out, "json-lines")
        spaces = {r.space for r in rep.results}
        assert spaces == {"sphere", "cpn"}

    def test_repeatable_space_flag(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--space", "sphere",
                               "--space", "basis", "--samples", "3",
                               "--format", "json-lines")
        assert code == 0
        rep = parse(out, "json-lines")
        assert {r.space for r in rep.results} == {"sphere", "basis"}


class TestEnvPrecedence:
    def test_env_used_when_flag_absent(self, capsys, monkeypatch):
        monkeypatch.setenv("EIGENLAB_SPACE", "sphere")
        monkeypatch.setenv("EIGENLAB_SAMPLES", "3")
        monkeypatch.setenv("EIGENLAB_FORMAT", "json-lines")
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        rep = parse(out, "json-lines")
        assert rep.samples == 3
        assert rep.spaces == ("sphere",)

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("EIGENLAB_SAMPLES", "7")
        code, out, _ = run_cli(capsys, "verify", "--space", "sphere",
                               "--samples", "3", "--format", "json-lines")
        assert code == 0
        assert parse(out, "json-lines").samples == 3

    def test_bad_env_value_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("EIGENLAB_SAMPLES", "many")
        code, _, err = run_cli(capsys, "verify", "--space", "sphere")
        assert code == 2
        assert "EIGENLAB_SAMPLES" in err

    def test_empty_env_value_means_unset(self, capsys, monkeypatch):
        # an empty EIGENLAB_OUT writes to stdout, as if it were unset
        for name in ("OUT", "SAMPLES", "FORMAT", "SEED"):
            monkeypatch.setenv(f"EIGENLAB_{name}", "")
        code, out, err = run_cli(capsys, "verify", "--space", "sphere",
                                 "--samples", "2")
        assert code == 0
        assert "claims passed in" in err
        assert "sphere.lambda" in out

    def test_infinite_env_tolerance_exits_two(self, capsys, monkeypatch):
        # tol = inf would pass every fitted claim and write "tol":inf,
        # which is not JSON
        monkeypatch.setenv("EIGENLAB_TOL", "inf")
        code, out, err = run_cli(capsys, "verify", "--space", "sphere",
                                 "--samples", "3")
        assert code == 2
        assert out == ""
        assert "tolerance must be positive and finite" in err

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("EIGENLAB_SEED", "9")
        code, out, _ = run_cli(capsys, "verify", "--space", "sphere",
                               "--samples", "3", "--format", "json-lines")
        assert code == 0
        assert parse(out, "json-lines").seed == 9


class TestOutputs:
    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.tsv"
        code, out, _ = run_cli(capsys, "verify", "--space", "sphere",
                               "--samples", "3", "--format", "tsv",
                               "--out", str(path))
        assert code == 0
        assert out == ""  # report went to the file
        rep = parse(path.read_text(), "tsv")
        assert rep.all_passed

    @pytest.mark.parametrize("command", [("verify", "--space", "basis"),
                                         ("list",)])
    def test_unwritable_out_exits_two(self, capsys, tmp_path, command):
        # a report that cannot be written is not a failed claim (exit 1):
        # one line on stderr naming the path, no traceback
        path = tmp_path / "no-such-dir" / "report.jsonl"
        code, out, err = run_cli(capsys, *command, "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"eigenlab: cannot write the report to {path}: ")
        assert err.count("\n") == 1

    def test_empty_out_is_a_configuration_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--space", "basis",
                                 "--out", "")
        assert code == 2
        assert out == ""
        assert err == ("eigenlab: configuration error: empty output path "
                       "''; omit --out to write the report to stdout\n")

    def test_wall_time_on_stderr_only(self, capsys, tmp_path):
        path = tmp_path / "report.jsonl"
        _, _, err = run_cli(capsys, "verify", "--space", "sphere",
                            "--samples", "3", "--format", "json-lines",
                            "--out", str(path))
        assert "claims passed in" in err
        assert "claims passed in" not in path.read_text()

    def test_byte_determinism_across_runs(self, capsys, tmp_path):
        args = ("verify", "--space", "sphere", "--samples", "3",
                "--format", "json-lines")
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        run_cli(capsys, *args, "--out", str(a))
        run_cli(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestListAndTable:
    def test_list_enumerates(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        assert "spaces:" in out and "claims:" in out
        for space in ("su-so", "sp-grassmannian", "sphere", "cpn"):
            assert space in out
        assert "table1.row10.lambda[m=1,n=1]" in out

    def test_table_prints_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--samples", "3")
        assert code == 0
        for row in range(4, 11):
            assert f"\n{row} " in out
        assert "LAMBDA" in out and "MU" in out

    def test_table_single_space(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--space", "sp-u",
                               "--samples", "3")
        assert code == 0
        assert "sp-u" in out
        assert "su-so" not in out

    @pytest.mark.parametrize("space", ["sphere", "polynomial", "product",
                                       "basis", "cpn", "sphere,cpn"])
    def test_table_without_rows_exits_two(self, capsys, space):
        code, out, err = run_cli(capsys, "table", "--space", space,
                                 "--samples", "3")
        assert code == 2
        assert out == ""
        assert "configuration error" in err
        for table_space in ("su-so", "sp-u", "so-u", "su-sp",
                            "so-grassmannian", "u-grassmannian",
                            "sp-grassmannian"):
            assert table_space in err

    @pytest.mark.parametrize("argv", [("--space", "all,sphere"),
                                      ("--space", "all", "--space", "basis")])
    def test_table_all_in_a_mixed_selection_prints_every_row(self, capsys,
                                                             argv):
        # as in verify and list, "all" anywhere in the selection selects
        # everything: the seven table spaces
        code, out, _ = run_cli(capsys, "table", *argv, "--samples", "3")
        assert code == 0
        for row in range(4, 11):
            assert f"\n{row} " in out

    def test_table_mixed_selection_prints_its_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--space", "sphere,sp-u",
                               "--samples", "3")
        assert code == 0
        assert "sp-u" in out

    def test_table_row_fails_with_its_completeness_claim(self, capsys,
                                                         monkeypatch):
        # negative control: a P_p scaled by 1.5 fails scheme.completeness
        # of u-grassmannian(1,2), while its lambda and mu pass; the row,
        # scored by every claim of its table1 job, reads FAIL as verify
        # does, and the table exits 1
        from eigenlab import claims
        p_projection = claims.p_projection
        monkeypatch.setattr(claims, "p_projection",
                            lambda pair, U: 1.5 * p_projection(pair, U))
        argv = ("--space", "u-grassmannian", "--m", "1", "--n", "2",
                "--samples", "3")
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 1
        code, out, _ = run_cli(capsys, "table", *argv)
        assert code == 1
        row = out.splitlines()[-1].split()
        assert row[:2] == ["9", "u-grassmannian"] and row[-1] == "FAIL"


# Checks that importing the CLI loads no scipy module, then makes every
# later ``import scipy`` fail and runs the command line.
SCIPY_FREE_MAIN = """
import sys
import eigenlab.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
if loaded:
    sys.exit(f"import eigenlab.cli loaded {loaded}")
sys.modules["scipy"] = None
sys.exit(eigenlab.cli.main(sys.argv[1:]))
"""


def test_verify_runs_without_scipy(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("EIGENLAB_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    out = tmp_path / "report.jsonl"
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_MAIN, "verify", "--samples", "4",
         "--format", "json-lines", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rep = parse(out.read_text(), "json-lines")
    assert len(rep.results) == 202 and rep.all_passed
    assert "scipy" not in rep.versions


# One warm and one timed quat-scale verify in this process; prints the
# timed run's process CPU time and wall time.  At 64 samples a threaded
# gemm per chunk in the harmonic projection read CPU = wall; at 300 it
# read 1.7 x wall.
CPU_OVER_WALL = """
import sys, time
import eigenlab.cli
argv = ["verify", "--space", "sp-grassmannian", "--m", "3", "--n", "3",
        "--samples", "300", "--format", "json-lines", "--out", sys.argv[1]]
assert eigenlab.cli.main(argv) == 0
wall, cpu = time.perf_counter(), time.process_time()
assert eigenlab.cli.main(argv) == 0
print(time.process_time() - cpu, time.perf_counter() - wall)
"""


def test_quat_sized_verify_keeps_to_one_thread(tmp_path):
    # a BLAS call large enough for OpenBLAS to thread wakes helper threads
    # that spin after it, costing CPU time and no wall time; single-threaded
    # CPU time cannot exceed wall time, so host noise cannot fail this
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("EIGENLAB_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CPU_OVER_WALL, str(tmp_path / "r.jsonl")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    cpu, wall = map(float, proc.stdout.split())
    assert cpu <= 1.15 * wall, (cpu, wall)


def test_report_digests_prints_one_md5_per_oracle_report():
    # tools/report_digests.py digests the eigenlab on its path: six
    # reports, one line each, the md5 first
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "tools" / "report_digests.py")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6
    assert all(re.fullmatch(r"[0-9a-f]{32} \S.*", ln) for ln in lines), lines


def test_rss_passes_prints_one_line_per_pass():
    # tools/rss_passes.py runs one verify argv in its own process, with
    # perfbench's host probe between passes: one line per pass, with its
    # wall time, ru_maxrss and minor faults
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "tools" / "rss_passes.py"), "--passes",
         "2", "--", "verify", "--space", "sphere", "--n", "2", "--samples",
         "4"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [ln.split()[:2] for ln in lines] == [["pass", "0"], ["pass", "1"]]
    assert all(re.fullmatch(r"pass \d+ wall_s [\d.]+ maxrss_mb [\d.]+ "
                            r"minflt \d+", ln) for ln in lines), lines
