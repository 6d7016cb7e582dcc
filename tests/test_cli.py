import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sosdim import series
from sosdim.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, SEED_ENV_VAR, main
from sosdim.dimtest import REPORT_SCHEMA, TEST_SCHEMA, _ENTRY_FIELDS


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
        # The method follows the lags: amuse at one lag, sobi otherwise.
        for lags, method in [("2,4", "sobi"), ("1", "amuse")]:
            _, out, _ = run(["estimate", "--input", noise_csv,
                             "--lags", lags], capsys)
            report = json.loads(out)
            assert report["lags"] == [int(t) for t in lags.split(",")]
            assert report["method"] == method

    def test_lags_and_preset_conflict(self, noise_csv, capsys):
        code, _, err = run(["estimate", "--input", noise_csv,
                            "--lags", "1,2", "--lag-preset", "sobi6"], capsys)
        assert code == EXIT_INPUT
        assert "mutually exclusive" in err

    def test_csv_format(self, noise_csv, capsys):
        code, out, _ = run(["estimate", "--input", noise_csv,
                            "--format", "csv"], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "q,stat,df,p_value"

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

    @pytest.mark.parametrize("command, argv, env, message", [
        pytest.param("estimate", ["--alpha", "2"], None, "alpha must be in (0, 1)",
                     id="estimate"),
        pytest.param("test", ["--alpha", "2"], None, "alpha must be in (0, 1)",
                     id="test"),
        pytest.param("estimate", ["--test-kind", "bootstrap", "-B", "0"], None,
                     "bootstrap replicate count must be >= 1", id="estimate-b"),
        pytest.param("estimate", ["--lags", "1", "--lag-preset", "amuse"], None,
                     "mutually exclusive", id="estimate-lags-and-preset"),
        pytest.param("test", ["--lags", "1,x"], None, "bad lag list",
                     id="test-bad-lags"),
        pytest.param("estimate", ["--lags", "3,2"], None, "strictly increasing",
                     id="estimate-decreasing-lags"),
        pytest.param("test", [], "x", f"{SEED_ENV_VAR} must be an integer",
                     id="test-env-seed"),
        pytest.param("estimate", [], "1.5", f"{SEED_ENV_VAR} must be an integer",
                     id="estimate-env-seed"),
    ])
    def test_arguments_checked_before_the_file_is_read(self, tmp_path, capsys,
                                                       monkeypatch, command,
                                                       argv, env, message):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        if env is not None:
            monkeypatch.setenv(SEED_ENV_VAR, env)
        q = ["--q", "0"] if command == "test" else []
        code, out, err = run([command, "--input", str(path), *argv, *q], capsys)
        assert code == EXIT_INPUT
        assert out == ""
        assert message in err and "row" not in err

    def test_singular_covariance_exits_3(self, tmp_path, capsys):
        # A third column that repeats the first makes S0 singular.
        v = np.random.default_rng(1).standard_normal((500, 2))
        path = tmp_path / "collinear.csv"
        np.savetxt(path, np.column_stack([v, v[:, 0]]), delimiter=",")
        code, out, err = run(["estimate", "--input", str(path)], capsys)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.startswith("error: eigenvalue ") and " at or below floor " in err

    def test_linear_algebra_failure_exits_3(self, noise_csv, capsys,
                                            monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        code, out, err = run(["estimate", "--input", noise_csv], capsys)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.startswith("error: numerical failure: ")

    def test_unknown_flag(self, noise_csv, capsys):
        # --method is gone: the lags decide it, even where it would agree.
        for flag in (["--bogus"], ["--lags", "1", "--method", "amuse"]):
            code, _, _ = run(["estimate", "--input", noise_csv, *flag], capsys)
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

    @pytest.mark.parametrize("kind", ["asymptotic", "bootstrap"])
    def test_reports_carry_exactly_their_schema_keys(self, noise_csv, capsys,
                                                     kind):
        # jsonschema.validate accepts extra keys, so pin the key sets.
        fit = ["--input", noise_csv, "--test-kind", kind, "-B", "9",
               "--seed", "5"]
        _, out, _ = run(["test", *fit, "--q", "1"], capsys)
        assert set(json.loads(out)) == set(TEST_SCHEMA["properties"])
        _, out, _ = run(["estimate", *fit], capsys)
        report = json.loads(out)
        assert set(report) == set(REPORT_SCHEMA["properties"])
        trace = report["trace"]
        assert trace and all(set(t) == set(_ENTRY_FIELDS) for t in trace)
        for command in (["test", *fit, "--q", "1"], ["estimate", *fit]):
            _, out, _ = run([*command, "--format", "csv"], capsys)
            assert out.splitlines()[0] == ",".join(_ENTRY_FIELDS)


class TestSimulate:
    def test_rejection_table_smoke(self, capsys):
        code, out, err = run([
            "simulate", "--setting", "H1", "--table", "rejection",
            "--q", "3", "--n", "200", "--reps", "4", "--method", "amuse",
            "--seed", "1", "--format", "csv", "--threads", "1",
        ], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "n,amuse"
        assert "# wall-clock total:" in err
        assert "wall-clock amuse" not in err

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

    def test_a_numerical_failure_names_its_replicate(self, capsys):
        # 20 samples of S5's 20 channels, centred, span at most 19
        # dimensions, so the first replicate's S0 falls below the floor.
        code, out, err = run([
            "simulate", "--setting", "S5", "--table", "dimension",
            "--n", "20", "--reps", "3", "--seed", "5", "--threads", "1",
        ], capsys)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.startswith(
            "error: setting S5, n = 20, replicate 0: eigenvalue ")
        assert " at or below floor " in err

    def test_unknown_setting(self, capsys):
        code, _, err = run([
            "simulate", "--setting", "Z9", "--n", "200", "--reps", "2",
        ], capsys)
        assert code == EXIT_INPUT
        assert err == ("error: unknown setting: 'Z9'; expected one of "
                       "('H1', 'H2', 'H3', 'D1', 'D2', 'D3', 'S5')\n")

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
        def refuse():
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(series, "_context", refuse)
        code, out, err = run([
            "simulate", "--setting", "H1", "--table", "dimension",
            "--n", "200", "--reps", "2", "--method", "amuse",
            "--threads", threads,
        ], capsys)
        assert code == EXIT_INPUT
        assert out == ""
        assert f"--threads must be >= 1, got {threads}" in err

    def test_threads_default_is_the_available_cpu_count(self, monkeypatch):
        import sosdim.cli

        monkeypatch.setattr(sosdim.cli, "_available_cpus", lambda: 3)
        args = sosdim.cli.build_parser().parse_args(
            ["simulate", "--setting", "H1", "--n", "200", "--reps", "2"])
        assert args.threads == 3

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


# The argv of every table in tests/golden/, as CI's worker-count steps run
# it at --threads 1. A change that moves any entry of these tables fails
# here, with no CI run needed.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_ARGV = {
    "h1-dimension.csv": "--setting H1 --table dimension --n 500,1000,2000 --reps 60 "
                        "--methods amuse,sobi6,sobi12 --seed 1",
    "h1-dimension-two-tasks.csv": "--setting H1 --table dimension --n 500 --reps 2 "
                                  "--methods amuse,sobi6 --seed 4",
    "s5-rejection.csv": "--setting S5 --table rejection --q 3 --n 500,2000 --reps 20 "
                        "--methods amuse,sobi6,sobi12 --seed 2",
    "d1-dimension.csv": "--setting D1 --table dimension --n 500,2000 --reps 30 "
                        "--methods amuse,sobi6,sobi12 --seed 3",
    "h1-bootstrap-dimension.csv": "--setting H1 --table dimension --n 300,600 --reps 8 "
                                  "--methods sobi12,amuse --test-kind bootstrap -B 20 "
                                  "--seed 9",
    "h2-bootstrap-rejection.csv": "--setting H2 --table rejection --q 2 --n 300,600 "
                                  "--reps 6 --methods sobi12,amuse --test-kind bootstrap "
                                  "-B 9 --alpha 0.2 --seed 9",
}


def test_golden_names_are_the_directory():
    assert sorted(GOLDEN_ARGV) == sorted(f.name for f in GOLDEN.iterdir())


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_golden_table_is_regenerated(name, tmp_path, capsys):
    out = tmp_path / name
    code, _, _ = run(["simulate", *GOLDEN_ARGV[name].split(), "--format", "csv",
                      "--threads", "1", "--output", str(out)], capsys)
    assert code == EXIT_OK
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("b_reps, noted", [("19", True), ("20", False)])
@pytest.mark.parametrize("command", ["estimate", "test", "simulate"])
def test_note_when_a_bootstrap_cannot_reject(noise_csv, capsys, command,
                                             b_reps, noted):
    # The smallest bootstrap p-value is 1/(B + 1): 1/20 = 0.05 at B = 19,
    # which is not below alpha = 0.05, and 1/21 at B = 20, which is.
    argv = {
        "estimate": ["estimate", "--input", noise_csv],
        "test": ["test", "--input", noise_csv, "--q", "1"],
        "simulate": ["simulate", "--setting", "H1", "--q", "3", "--n", "200",
                     "--reps", "2", "--methods", "amuse", "--threads", "1"],
    }[command]
    code, out, err = run([*argv, "--test-kind", "bootstrap", "-B", b_reps,
                          "--alpha", "0.05", "--seed", "1"], capsys)
    assert code == EXIT_OK and out
    notes = [line for line in err.splitlines() if line.startswith("note:")]
    assert notes == ["note: the smallest p-value of a bootstrap with -B 19 is "
                     "1/20, not below --alpha 0.05, so no test can reject"
                     ] * noted


class TestEntryPoint:
    def test_one_parser_per_process(self, noise_csv, capsys):
        import sosdim.cli

        sosdim.cli._parser.cache_clear()
        for argv in (["estimate", "--input", noise_csv],
                     ["test", "--input", noise_csv, "--q", "1"]):
            assert run(argv, capsys)[0] == EXIT_OK
        assert sosdim.cli._parser.cache_info().misses == 1

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
             "assert 'concurrent.futures' not in sys.modules\n"
             "assert 'multiprocessing' not in sys.modules\n"
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
