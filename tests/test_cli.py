"""Command-line interface: exit codes, precedence, formats, subcommands."""

import os
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

    def test_table_mixed_selection_prints_its_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--space", "sphere,sp-u",
                               "--samples", "3")
        assert code == 0
        assert "sp-u" in out


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
    assert len(rep.results) == 186 and rep.all_passed
    assert "scipy" not in rep.versions
