import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from sosdim.cli import EXIT_INPUT, EXIT_OK, SEED_ENV_VAR, main
from sosdim.dimtest import REPORT_SCHEMA, TEST_SCHEMA


@pytest.fixture
def noise_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "noise.csv"
    np.savetxt(path, rng.standard_normal((2000, 3)), delimiter=",")
    return str(path)


@pytest.fixture
def signal_csv(tmp_path):
    from sosdim.simulate import make_setting, simulate_setting

    x, _, _ = simulate_setting(make_setting("H1"), 3000, 42)
    path = tmp_path / "h1.csv"
    np.savetxt(path, x.values, delimiter=",")
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_pure_noise_gives_zero(self, noise_csv, capsys):
        code, out, _ = run(["estimate", "--input", noise_csv], capsys)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["d_hat"] == 0
        assert report["method"] == "sobi"
        assert report["lags"] == [1, 2, 3, 4, 5, 6]

    def test_h1_signal_gives_three(self, signal_csv, capsys):
        code, out, _ = run(["estimate", "--input", signal_csv,
                            "--strategy", "forward"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["d_hat"] == 3

    def test_json_validates_against_schema(self, noise_csv, capsys):
        import jsonschema

        _, out, _ = run(["estimate", "--input", noise_csv], capsys)
        jsonschema.validate(json.loads(out), REPORT_SCHEMA)

    def test_amuse_preset_selects_amuse(self, noise_csv, capsys):
        _, out, _ = run(["estimate", "--input", noise_csv,
                         "--lag-preset", "amuse"], capsys)
        report = json.loads(out)
        assert report["method"] == "amuse"
        assert report["lags"] == [1]

    def test_explicit_lags(self, noise_csv, capsys):
        _, out, _ = run(["estimate", "--input", noise_csv,
                         "--lags", "2,4"], capsys)
        assert json.loads(out)["lags"] == [2, 4]

    def test_lags_and_preset_conflict(self, noise_csv, capsys):
        code, _, err = run(["estimate", "--input", noise_csv,
                            "--lags", "1,2", "--lag-preset", "sobi6"], capsys)
        assert code == EXIT_INPUT
        assert "mutually exclusive" in err

    def test_csv_format(self, noise_csv, capsys):
        code, out, _ = run(["estimate", "--input", noise_csv,
                            "--format", "csv"], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "q,stat,df,p_value,converged"

    def test_text_format(self, noise_csv, capsys):
        code, out, _ = run(["estimate", "--input", noise_csv,
                            "--format", "text"], capsys)
        assert code == EXIT_OK
        assert "estimated signal dimension: 0" in out

    def test_output_file(self, noise_csv, tmp_path, capsys):
        dest = tmp_path / "report.json"
        code, out, _ = run(["estimate", "--input", noise_csv,
                            "--output", str(dest)], capsys)
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(dest.read_text())["d_hat"] == 0

    def test_bootstrap_deterministic_given_seed(self, noise_csv, capsys):
        argv = ["estimate", "--input", noise_csv, "--test-kind", "bootstrap",
                "-B", "40", "--seed", "7", "--lags", "1"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2

    def test_env_var_seed(self, noise_csv, capsys, monkeypatch):
        argv = ["estimate", "--input", noise_csv, "--test-kind", "bootstrap",
                "-B", "40", "--lags", "1"]
        monkeypatch.setenv(SEED_ENV_VAR, "7")
        _, out_env, _ = run(argv, capsys)
        monkeypatch.delenv(SEED_ENV_VAR)
        _, out_seed, _ = run(argv + ["--seed", "7"], capsys)
        assert out_env == out_seed

    def test_env_var_seed_must_be_an_integer(self, noise_csv, capsys,
                                             monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "seven")
        code, out, err = run(["estimate", "--input", noise_csv], capsys)
        assert code == EXIT_INPUT
        assert out == ""
        assert SEED_ENV_VAR in err and "'seven'" in err

    @pytest.mark.parametrize("where", ["flag", "env"])
    def test_negative_seed_is_an_input_error(self, noise_csv, capsys,
                                             monkeypatch, where):
        argv = ["estimate", "--input", noise_csv, "--test-kind", "bootstrap",
                "-B", "5"]
        if where == "flag":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv(SEED_ENV_VAR, "-1")
        code, out, err = run(argv, capsys)
        assert code == EXIT_INPUT
        assert out == ""
        assert ("--seed" if where == "flag" else SEED_ENV_VAR) in err

    def test_missing_file(self, capsys):
        code, _, err = run(["estimate", "--input", "/no/such/file.csv"], capsys)
        assert code == EXIT_INPUT
        assert "error:" in err

    def test_malformed_csv_reports_location(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        code, _, err = run(["estimate", "--input", str(path)], capsys)
        assert code == EXIT_INPUT
        assert "row 2" in err and "column 2" in err

    def test_undecodable_byte_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "bytes.csv"
        path.write_bytes(b"1.0,2.0\n\xff,3.0\n4.0,5.0\n")
        with open(path) as fh:
            encoding = fh.encoding
        try:
            b"\xff".decode(encoding)
        except UnicodeDecodeError:
            pass
        else:
            pytest.skip(f"{encoding} decodes every byte")
        code, _, err = run(["estimate", "--input", str(path)], capsys)
        assert code == EXIT_INPUT
        assert "does not decode" in err

    def test_oversized_field_reports_its_row(self, tmp_path, capsys):
        # The NA cell sends the file to the row parser, which meets the
        # oversized field first.
        big = "0." + "0" * (csv.field_size_limit() + 10) + "1"
        path = tmp_path / "big.csv"
        path.write_text(f"1.0,2.0\n{big},1.0\n3.0,NA\n")
        code, _, err = run(["estimate", "--input", str(path)], capsys)
        assert code == EXIT_INPUT
        assert "row 2:" in err and "field limit" in err

    @pytest.mark.parametrize("command", ["estimate", "test"])
    def test_arguments_checked_before_the_file_is_read(self, tmp_path, capsys,
                                                       command):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        q = ["--q", "0"] if command == "test" else []
        code, out, err = run([command, "--input", str(path), "--alpha", "2", *q],
                             capsys)
        assert code == EXIT_INPUT
        assert out == ""
        assert "alpha must be in (0, 1)" in err

    def test_unknown_flag(self, noise_csv, capsys):
        code, _, _ = run(["estimate", "--input", noise_csv, "--bogus"], capsys)
        assert code == EXIT_INPUT


class TestTest:
    def test_single_hypothesis(self, noise_csv, capsys):
        code, out, _ = run(["test", "--input", noise_csv, "--q", "0"], capsys)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["q"] == 0
        assert 0.0 <= report["p_value"] <= 1.0
        import jsonschema

        jsonschema.validate(report, TEST_SCHEMA)

    def test_q_out_of_range(self, noise_csv, capsys):
        code, _, err = run(["test", "--input", noise_csv, "--q", "3"], capsys)
        assert code == EXIT_INPUT
        assert "q must be" in err

    @pytest.mark.parametrize("alpha", ["7", "0"])
    def test_alpha_outside_the_unit_interval(self, noise_csv, capsys, alpha):
        code, out, err = run(["test", "--input", noise_csv, "--q", "0",
                              "--alpha", alpha], capsys)
        assert code == EXIT_INPUT
        assert out == ""
        assert "alpha must be in (0, 1)" in err

    def test_rejects_signal(self, signal_csv, capsys):
        _, out, _ = run(["test", "--input", signal_csv, "--q", "1"], capsys)
        assert json.loads(out)["p_value"] < 0.001

    def test_bootstrap_kind(self, noise_csv, capsys):
        code, out, _ = run(["test", "--input", noise_csv, "--q", "1",
                            "--test-kind", "bootstrap", "-B", "30",
                            "--seed", "3"], capsys)
        assert code == EXIT_OK
        report = json.loads(out)
        assert 0.0 < report["p_value"] <= 1.0
        import jsonschema

        jsonschema.validate(report, TEST_SCHEMA)


class TestSimulate:
    def test_rejection_table_smoke(self, capsys):
        code, out, err = run([
            "simulate", "--setting", "H1", "--table", "rejection",
            "--q", "3", "--n", "200", "--reps", "4", "--method", "amuse",
            "--seed", "1", "--format", "csv", "--threads", "1",
        ], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "n,amuse"
        assert "wall-clock amuse" in err

    def test_dimension_table_json(self, capsys):
        code, out, _ = run([
            "simulate", "--setting", "H1", "--table", "dimension",
            "--n", "300", "--reps", "3", "--method", "amuse",
            "--seed", "2", "--threads", "1",
        ], capsys)
        assert code == EXIT_OK
        table = json.loads(out)
        assert table["p"] == 5
        assert len(table["freq"][0][0]) == 6

    def test_unknown_setting(self, capsys):
        code, _, err = run([
            "simulate", "--setting", "Z9", "--n", "200", "--reps", "2",
        ], capsys)
        assert code == EXIT_INPUT
        assert "unknown setting" in err

    def test_zero_reps(self, capsys):
        code, _, err = run([
            "simulate", "--setting", "H1", "--n", "200", "--reps", "0",
            "--q", "3",
        ], capsys)
        assert code == EXIT_INPUT

    def test_bootstrap_needs_a_replicate(self, capsys):
        code, out, err = run([
            "simulate", "--setting", "H1", "--table", "dimension",
            "--n", "200", "--reps", "2", "--method", "amuse",
            "--test-kind", "bootstrap", "-B", "0", "--threads", "1",
        ], capsys)
        assert code == EXIT_INPUT
        assert out == ""
        assert "replicate count" in err

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one(self, capsys, monkeypatch, threads):
        import sosdim.simulate

        def refuse(*args, **kwargs):
            raise AssertionError("process pool started")

        monkeypatch.setattr(sosdim.simulate, "ProcessPoolExecutor", refuse)
        code, out, err = run([
            "simulate", "--setting", "H1", "--table", "dimension",
            "--n", "200", "--reps", "2", "--method", "amuse",
            "--threads", threads,
        ], capsys)
        assert code == EXIT_INPUT
        assert out == ""
        assert f"--threads must be >= 1, got {threads}" in err

    def test_rejection_needs_q(self, capsys):
        code, _, err = run([
            "simulate", "--setting", "H1", "--n", "200", "--reps", "2",
        ], capsys)
        assert code == EXIT_INPUT
        assert "--q" in err

    def test_bad_n_list(self, capsys):
        code, _, _ = run([
            "simulate", "--setting", "H1", "--n", "abc", "--reps", "2",
            "--q", "3",
        ], capsys)
        assert code == EXIT_INPUT


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "x.csv"
        np.savetxt(path, rng.standard_normal((2000, 2)), delimiter=",")
        proc = subprocess.run(
            [sys.executable, "-m", "sosdim.cli", "estimate",
             "--input", str(path), "--lags", "1,2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["d_hat"] == 0

    def test_import_leaves_out_scipy_signal(self):
        # Only `sosdim simulate` needs scipy.signal; the package resolves the
        # simulation names on first use.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, sosdim, sosdim.cli\n"
             "assert 'scipy.signal' not in sys.modules\n"
             "assert callable(sosdim.dimension_table)\n"
             "assert callable(sosdim.simulate_setting)\n"
             "assert 'scipy.signal' in sys.modules\n"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_estimate_and_test_load_no_scipy(self, tmp_path):
        # The chi-square tail is a finite sum in dimtest; only `sosdim
        # simulate` needs scipy, for lfilter.
        rng = np.random.default_rng(8)
        path = tmp_path / "x.csv"
        np.savetxt(path, rng.standard_normal((300, 3)), delimiter=",")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import contextlib, io, sys\n"
             "from sosdim.cli import main\n"
             "path = sys.argv[1]\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes = [main(['estimate', '--input', path]),\n"
             "             main(['test', '--input', path, '--q', '1']),\n"
             "             main(['test', '--input', path, '--q', '1',\n"
             "                   '--test-kind', 'bootstrap', '-B', '5'])]\n"
             "assert codes == [0, 0, 0], codes\n"
             "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
             "assert not loaded, loaded\n",
             str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
