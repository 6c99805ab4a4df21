import csv
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hazrates
from hazrates.cli import ExperimentConfig, load_config_file, main
from hazrates.model import read_counting_rows

# coarse grid keeps the builder fast; everything else is default
FAST = ["--step", "0.05"]


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(autouse=True)
def in_tmp_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HAZRATES_OUT_DIR", raising=False)
    return tmp_path


class TestConstruct:
    def test_writes_model_and_trace(self, tmp_path, capsys):
        assert run_cli("construct", *FAST) == 0
        header, data = read_csv(tmp_path / "lambda02.csv")
        assert header == ["t", "lambda02"]
        assert len(data) == 61
        assert float(data[0][1]) == pytest.approx(0.6, abs=1e-4)
        header, trace = read_csv(tmp_path / "iterations.csv")
        assert header == ["iteration", "sup_deviation"]
        devs = [float(r[1]) for r in trace]
        assert devs == sorted(devs, reverse=True)
        out = capsys.readouterr().out
        assert "iteration 0: sup deviation" in out
        assert "converged" in out

    def test_rerun_is_byte_identical(self, tmp_path):
        assert run_cli("construct", *FAST) == 0
        first = (tmp_path / "lambda02.csv").read_bytes()
        assert run_cli("construct", *FAST) == 0
        assert (tmp_path / "lambda02.csv").read_bytes() == first

    def test_non_convergence_exits_2(self, capsys):
        assert run_cli("construct", *FAST, "--tol", "1e-13", "--max-iter", "2") == 2
        assert "solver failed" in capsys.readouterr().err


class TestRates:
    def test_rates_csv(self, tmp_path, capsys):
        assert run_cli("rates", *FAST) == 0
        header, data = read_csv(tmp_path / "rates.csv")
        assert header == ["t", "r12", "r02", "rate_ratio"]
        ratios = np.array([float(r[3]) for r in data[1:]])
        np.testing.assert_allclose(ratios, 2.0 / 3.0, atol=1e-5)
        assert "sup |rate ratio - 0.666667|" in capsys.readouterr().out


class TestContrast:
    def test_contrast_csv_and_summary(self, tmp_path, capsys):
        assert run_cli("contrast", *FAST) == 0
        header, data = read_csv(tmp_path / "contrast.csv")
        assert header == [
            "t",
            "S_always_true",
            "S_never_true",
            "S_treated_ratebased",
            "S_untreated_ratebased",
            "causal_hr",
            "rate_ratio",
        ]
        last = data[-1]
        assert float(last[0]) == 3.0
        assert float(last[1]) == pytest.approx(np.exp(-0.8), abs=1e-6)
        out = capsys.readouterr().out
        assert "true contrast at t=3: 0.22 (unrounded " in out
        assert "rate-based contrast at t=3: 0.15 (unrounded " in out


class TestSimulateAndEstimate:
    def test_simulate_writes_readable_rows(self, tmp_path, capsys):
        assert run_cli("simulate", *FAST, "--n", "300", "--seed", "5") == 0
        rows = read_counting_rows(tmp_path / "rows.csv")
        assert len(rows) >= 300
        out = capsys.readouterr().out
        assert "subjects 300, treated" in out

    def test_simulate_from_saved_model(self, tmp_path):
        assert run_cli("construct", *FAST) == 0
        assert (
            run_cli(
                "simulate", *FAST, "--n", "200", "--seed", "5",
                "--model", str(tmp_path / "lambda02.csv"),
                "--out", str(tmp_path / "rows2.csv"),
            )
            == 0
        )
        assert (tmp_path / "rows2.csv").exists()

    def test_simulate_with_bad_model_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,wrong\n0,1\n")
        assert run_cli("simulate", "--model", str(bad)) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.fixture
    def rows_file(self, tmp_path):
        run_cli("simulate", *FAST, "--n", "400", "--seed", "5")
        return str(tmp_path / "rows.csv")

    def test_estimate_curves(self, tmp_path, rows_file):
        for method in ("na", "ekm"):
            assert run_cli("estimate", "--rows", rows_file, "--method", method) == 0
            header, data = read_csv(tmp_path / f"estimate_{method}.csv")
            assert header == ["level", "t", "value"]
            levels = {r[0] for r in data}
            assert levels == {"0", "1"}

    def test_estimate_cox(self, rows_file, capsys):
        assert run_cli("estimate", "--rows", rows_file, "--method", "cox") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "beta_hat,model_se,robust_se,loglik,iters"
        fields = out[1].split(",")
        assert len(fields) == 5
        float(fields[0])  # parses

    def test_estimate_cox_duration(self, rows_file, capsys):
        assert run_cli("estimate", "--rows", rows_file, "--method", "cox-duration") == 0
        out = capsys.readouterr().out.strip().splitlines()
        fields = out[1].split(",")
        assert len(fields) == 5
        beta_hat = fields[0].split(";")
        assert len(beta_hat) == 2
        [float(v) for v in beta_hat]

    def test_estimate_aalen(self, tmp_path, rows_file, capsys):
        assert run_cli("estimate", "--rows", rows_file, "--method", "aalen") == 0
        header, _ = read_csv(tmp_path / "estimate_aalen.csv")
        assert header == ["t", "b0", "b1"]
        assert "aalen_na_identity: PASS" in capsys.readouterr().out

    def test_estimate_missing_rows_file(self, capsys):
        assert run_cli("estimate", "--rows", "nope.csv", "--method", "na") == 1
        assert "error:" in capsys.readouterr().err

    def test_estimate_rejects_rows_that_break_a_subject_history(self, tmp_path, capsys):
        # subject 1 is untreated again after its treated interval
        bad = tmp_path / "bad_rows.csv"
        bad.write_text(
            "id,start,stop,treat,event\n0,0.0,2.0,0,1\n"
            "1,0.0,0.5,0,0\n1,0.5,1.0,1,0\n1,1.0,3.0,0,1\n"
        )
        assert run_cli("estimate", "--rows", str(bad), "--method", "na") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 5" in err
        assert "Traceback" not in err


class TestFrailtyDemo:
    def test_demo_outputs(self, tmp_path, capsys):
        assert run_cli("frailty-demo") == 0
        header, data = read_csv(tmp_path / "frailty_demo.csv")
        assert header == ["t", "mhaz_never", "mhaz_always", "mhaz_initiate_1.5", "gap"]
        out = capsys.readouterr().out
        # gap is largest right at the late initiation time:
        # 0.5 * (1/1.45 - 1/1.75)
        assert "max violation gap on [1.5, 3]: 0.0591133" in out
        t = np.array([float(r[0]) for r in data])
        gap = np.array([float(r[4]) for r in data])
        k = np.argmin(np.abs(t - 2.0))
        assert gap[k] == pytest.approx(3.0 / 68.0, abs=1e-6)

    def test_demo_validates_u(self, capsys):
        assert run_cli("frailty-demo", "--u", "9") == 1
        assert "--u must lie in" in capsys.readouterr().err


class TestCollider:
    def test_table_output(self, tmp_path, capsys):
        assert run_cli("collider") == 0
        header, data = read_csv(tmp_path / "collider.csv")
        assert header == ["a1", "a2", "p_death_given_alive"]
        got = {(r[0], r[1]): float(r[2]) for r in data}
        assert got[("0", "0")] == pytest.approx(3 / 16, abs=1e-6)
        assert got[("1", "0")] == pytest.approx(7 / 36, abs=1e-6)
        out = capsys.readouterr().out
        assert "P(second-period death | alive, a1=0, a2=0) = 0.1875" in out

    def test_rejects_bad_probs(self, capsys):
        assert run_cli("collider", "--z-probs", "0.7,0.5") == 1
        assert "error:" in capsys.readouterr().err


class TestConfigResolution:
    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nstep = 0.05\nbeta = -0.405465\n\nn = 50\n")
        values = load_config_file(str(cfg))
        assert values == {"step": 0.05, "beta": -0.405465, "n": 50}
        # flag wins over file: step 0.025 gives 121 grid rows
        assert run_cli("construct", "--config", str(cfg), "--step", "0.025") == 0
        _, data = read_csv(tmp_path / "lambda02.csv")
        assert len(data) == 121

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stepp = 0.05\n")
        assert run_cli("construct", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "run.cfg:1" in err and "stepp" in err

    def test_bad_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = lots\n")
        assert run_cli("construct", "--config", str(cfg)) == 1
        assert "bad value" in capsys.readouterr().err

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        target = tmp_path / "elsewhere"
        monkeypatch.setenv("HAZRATES_OUT_DIR", str(target))
        assert run_cli("construct", *FAST) == 0
        assert (target / "lambda02.csv").exists()

    def test_out_dir_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HAZRATES_OUT_DIR", str(tmp_path / "ignored"))
        assert run_cli("construct", *FAST, "--out-dir", str(tmp_path / "used")) == 0
        assert (tmp_path / "used" / "lambda02.csv").exists()
        assert not (tmp_path / "ignored" / "lambda02.csv").exists()

    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.t_max == 3.0
        assert cfg.step == 0.005
        assert cfg.beta == pytest.approx(np.log(2 / 3))


class TestErrors:
    def test_unknown_command(self, capsys):
        assert run_cli("frobnicate") == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run_cli("construct", "--paper", "x") == 1
        assert "error:" in capsys.readouterr().err


class TestReproduce:
    def test_summary_contents_and_determinism(self, tmp_path, capsys):
        args = ("reproduce", "--n", "3000", "--seed", "9")
        assert run_cli(*args) == 0
        summary = (tmp_path / "summary.txt").read_text()
        for key in (
            "sup_rate_ratio_deviation:",
            "builder_iterations: 4",  # update sweeps after the initial evaluation
            "lambda02_max_abs_err_on_unit_interval:",
            "true_contrast: 0.22",
            "rate_based_contrast: 0.15",
            "na_sup_deviation_untreated:",
            "na_sup_deviation_treated:",
            "ekm_log_surv_ratio_t2:",
            "cox_beta_hat:",
            "cox_robust_se:",
            "cox_model_se:",
            "target_rate_ratio: 0.666667",
        ):
            assert key in summary, key
        assert (tmp_path / "rows.csv").exists()
        first = summary
        capsys.readouterr()
        assert run_cli(*args) == 0
        assert (tmp_path / "summary.txt").read_text() == first

    def test_default_run_matches_golden_outputs(self, tmp_path):
        # Goldens of the default run (n=1e5, seed 9, step 0.005).  A
        # refactor must reproduce these bytes; a change that moves them
        # on purpose regenerates them and explains the difference.
        assert run_cli("reproduce") == 0
        assert (tmp_path / "summary.txt").read_text() == GOLDEN_SUMMARY
        assert _sha256(tmp_path / "rows.csv") == GOLDEN_ROWS_SHA256
        assert run_cli("construct") == 0
        assert _sha256(tmp_path / "lambda02.csv") == GOLDEN_LAMBDA02_SHA256


GOLDEN_SUMMARY = """\
sup_rate_ratio_deviation: 2.79269e-07
builder_iterations: 4
lambda02_max_abs_err_on_unit_interval: 8.88178e-16
true_contrast: 0.22 (unrounded 0.216871)
rate_based_contrast: 0.15 (unrounded 0.145604)
na_sup_deviation_untreated: 0.00948785
na_sup_deviation_treated: 0.00799818
ekm_log_surv_ratio_t2: 0.660848
cox_beta_hat: -0.403284
cox_robust_se: 0.0104655
cox_model_se: 0.0100885
target_rate_ratio: 0.666667
"""
GOLDEN_LAMBDA02_SHA256 = "e487a5d9fcf0cfb54e69ba9c59ea9e56a4faebba17f6d6b9c3effadcb8bba6df"
# times written as repr(float), which reads back to the same float
GOLDEN_ROWS_SHA256 = "025af1487314eb4538be7aacb85149d139fe05d5a42ef86cfecb70f86ae6cbca"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_python_dash_m_runs_the_cli():
    # absolute path: the autouse in_tmp_dir fixture has changed directory
    src = str(Path(hazrates.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "hazrates"], capture_output=True, text=True, env=env
    )
    # bare invocation lacks the required subcommand: exit 1, not a traceback
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


needs_console_script = pytest.mark.skipif(
    shutil.which("hazrates") is None,
    reason="the hazrates console script is not installed; "
    "install it with: pip install -e . --no-build-isolation",
)


@needs_console_script
def test_console_script_no_subcommand():
    proc = subprocess.run(["hazrates"], capture_output=True, text=True)
    # bare invocation lacks the required subcommand: exit 1, not a traceback
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@needs_console_script
def test_console_script_collider(tmp_path):
    proc = subprocess.run(
        ["hazrates", "collider", "--effect", "1.0", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "a1=0, a2=0" in proc.stdout
