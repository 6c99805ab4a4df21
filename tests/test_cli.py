import argparse
import csv
import hashlib
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import separated_rows, traced_peak

import hazrates
from hazrates.cli import (
    CliError,
    ExperimentConfig,
    _build_parser,
    _write_csv,
    load_config_file,
    main,
)
from hazrates.grid import MAX_NODES
from hazrates.model import _CHUNK, read_counting_rows, write_counting_rows
from hazrates.numerics import SolverConfig

README = Path(__file__).resolve().parent.parent / "README.md"

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

    def test_a_lag_within_node_tol_of_a_node_is_that_node(self, capsys):
        # the lag 1 - 5e-10 is within NODE_TOL of node 200 at the default
        # step 0.005; the rate engine used to call that node late while
        # the pointwise kernel called it early
        printed = []
        for lag in ("0.9999999995", "1.0"):
            assert run_cli("contrast", "--lag", lag) == 0
            out = capsys.readouterr().out.splitlines()
            printed.append([line for line in out if "contrast at t=" in line])
        assert len(printed[0]) == 2
        assert printed[0] == printed[1]


class TestSimulateAndEstimate:
    def test_simulate_writes_readable_rows(self, tmp_path, capsys):
        assert run_cli("simulate", *FAST, "--n", "300", "--seed", "5") == 0
        rows = read_counting_rows(tmp_path / "rows.csv")
        assert len(rows) >= 300
        out = capsys.readouterr().out
        assert "subjects 300, treated" in out

    def test_simulate_writes_the_rows_reproduce_writes(self, tmp_path):
        # both commands simulate the model the builder makes from the flags
        flags = ["--n", "2000", "--seed", "5"]
        assert run_cli("simulate", *flags, "--out", "simulated.csv") == 0
        assert run_cli("reproduce", *flags) == 0
        assert (tmp_path / "simulated.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

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

    def test_estimate_on_a_monotone_likelihood_exits_2(self, tmp_path, capsys):
        write_counting_rows(separated_rows("a"), tmp_path / "separated.csv")
        assert run_cli("estimate", "--rows", "separated.csv", "--method", "cox-duration") == 2
        assert capsys.readouterr().err == (
            "solver failed: divergent coefficient: monotone partial likelihood\n"
        )

    def test_estimate_aalen(self, tmp_path, rows_file, capsys):
        assert run_cli("estimate", "--rows", rows_file, "--method", "aalen") == 0
        header, _ = read_csv(tmp_path / "estimate_aalen.csv")
        assert header == ["t", "b0", "b1"]
        assert "aalen_na_identity: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["rows.csv.gz", "rows.csv.xz"])
    def test_estimate_reads_plain_rows_under_a_compressed_name(self, tmp_path, rows_file, name):
        # numpy's opener would decompress a file so named, so it is read as it is
        shutil.copy(rows_file, tmp_path / name)
        assert read_counting_rows(tmp_path / name) == read_counting_rows(rows_file)
        assert run_cli("estimate", "--rows", name, "--method", "na") == 0

    @pytest.mark.parametrize("method", ["na", "ekm", "aalen"])
    def test_estimate_tables_of_1e5_subjects_run_in_bounded_memory(self, rows_100k, method):
        # about 11.5, 11.5 and 13.2 MB traced: the rows, the estimator and
        # one block of the table's text; a whole column's text exceeds it
        write_counting_rows(rows_100k, "rows.csv")
        rc, peak = traced_peak(lambda: run_cli("estimate", "--rows", "rows.csv", "--method", method))
        assert rc == 0 and peak < 13.5e6, f"peaked at {peak / 1e6:.1f} MB"

    def test_estimate_of_an_unknown_method_is_one_error_line(self, capsys):
        # argparse's choices reject it before the command runs
        assert run_cli("estimate", "--rows", "rows.csv", "--method", "bogus") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --method: invalid choice") and err.count("\n") == 1

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

    @pytest.mark.parametrize("flag, value", [("--z-levels", "nan,1.5"), ("--z-probs", "nan,0.5")])
    def test_rejects_nan(self, tmp_path, capsys, flag, value):
        assert run_cli("collider", flag, value) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "collider.csv").exists()

    def test_rejects_a_list_that_is_not_numbers(self, capsys):
        assert run_cli("collider", "--z-levels", "a,1.5") == 1
        assert capsys.readouterr().err == (
            "error: argument --z-levels: expects comma-separated numbers, got 'a,1.5'\n"
        )

    def test_clamp_error_prints_the_plain_value(self, capsys):
        assert run_cli("collider", "--z-levels", "3,1.5", "--p1", "0.5") == 1
        assert capsys.readouterr().err == (
            "error: death probability 1.5 exceeds 1; refusing to clamp\n"
        )


def _reference_write_csv(path, header, rows):
    # the row-at-a-time writer the columnar one replaced: the oracle
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.6g}" if isinstance(v, float) else v for v in row])


class TestWriteCsv:
    def assert_matches_reference(self, tmp_path, columns):
        header = [f"c{j}" for j in range(len(columns))]
        _write_csv(tmp_path / "new.csv", header, columns)
        rows = zip(*(np.asarray(c).tolist() for c in columns))
        _reference_write_csv(tmp_path / "old.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("n", [0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
    def test_row_counts_around_the_block_size(self, tmp_path, n):
        rng = np.random.default_rng(n)
        levels = rng.integers(0, 2, n)
        t = rng.exponential(size=n)
        value = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        self.assert_matches_reference(tmp_path, [levels, t, value])

    def test_int_columns(self, tmp_path):
        ints = np.array([0, 1, -1, 7, 2**40, -(2**62), np.iinfo(np.int64).max])
        self.assert_matches_reference(tmp_path, [ints, ints[::-1].copy()])
        self.assert_matches_reference(tmp_path, [np.arange(5, dtype=np.uint8)])

    def test_special_floats(self, tmp_path):
        special = np.array(
            [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, 1e-300, -1e300,
             0.1, 1 / 3, 123456.5, 1234567.0, 1e16, 2.5e-5, 0.0001, 1e-5]
        )
        # values whose six digits round across a power of ten, on a tie of
        # the sixth digit (123456.5 exactly: half to even) or clear of one
        boundary = np.array(
            [99999.95, 999999.5, 99999.5, 9.999995, 1.0000005, 9.999995e-5, 0.0009999995,
             123456.5, 0.5, 2.5, 999999.7, 9.9999996]
        )
        special = np.concatenate((special, boundary, -boundary))
        self.assert_matches_reference(tmp_path, [np.arange(special.size), special])
        float32 = np.array([0.1, 1 / 3, -0.0, np.nan, np.inf, 1e-40], dtype=np.float32)
        self.assert_matches_reference(tmp_path, [float32])

    def test_random_magnitudes(self, tmp_path):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(20_000) * 10.0 ** rng.uniform(-320, 307, 20_000)
        self.assert_matches_reference(tmp_path, [x, rng.uniform(size=x.size)])

    @pytest.mark.parametrize("digits", [6, 7])
    def test_values_of_fixed_notation_rounded_to_six_and_seven_digits(self, tmp_path, digits):
        # 1e-4 <= |x| < 1e6 is where %.6g writes no exponent; seven digits
        # put many values on or next to a tie of the sixth
        rng = np.random.default_rng(29 + digits)
        x = 10.0 ** rng.uniform(-4, 6, 20_000)
        x = np.array([float(f"{v:.{digits - 1}e}") for v in x.tolist()])
        self.assert_matches_reference(tmp_path, [x * rng.choice([-1.0, 1.0], x.size)])

    @pytest.mark.parametrize(
        "column", [np.array([True, False]), np.array(["a", "b"]), np.array([1, None], dtype=object)]
    )
    def test_rejects_columns_that_are_not_numbers(self, tmp_path, column):
        with pytest.raises(TypeError):
            _write_csv(tmp_path / "x.csv", ["a", "b"], [np.arange(2), column])

    def test_rejects_columns_of_unequal_length(self, tmp_path):
        with pytest.raises(ValueError, match="equal length"):
            _write_csv(tmp_path / "x.csv", ["a", "b"], [np.arange(2), np.arange(3.0)])


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

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "absent.cfg"
        assert run_cli("construct", "--config", str(missing)) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {missing}: ")

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("step = 0.05\noops\n")
        assert run_cli("construct", "--config", str(cfg)) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: expected key=value, got 'oops'\n"

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


_BUILT = {
    "--config", "--out-dir", "--tmax", "--step", "--lam01", "--early", "--late", "--lag",
    "--beta", "--tol", "--max-iter", "-h", "--help",
}
OPTIONS = {
    "construct": _BUILT,
    "rates": _BUILT,
    "contrast": _BUILT,
    "simulate": _BUILT | {"--n", "--seed", "--out"},
    "estimate": {"--config", "--out-dir", "--rows", "--method", "--out", "-h", "--help"},
    "frailty-demo": {
        "--config", "--out-dir", "--tmax", "--step", "--variance", "--h0", "--h1", "--u",
        "-h", "--help",
    },
    "collider": {
        "--config", "--out-dir", "--z-levels", "--z-probs", "--p1", "--effect", "-h", "--help",
    },
    "reproduce": _BUILT | {"--n", "--seed"},
}


class TestParser:
    def test_each_subcommand_has_its_option_set(self):
        parser = _build_parser()
        (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: {opt for action in sub._actions for opt in action.option_strings}
            for name, sub in subs.choices.items()
        }
        assert got == OPTIONS

    def test_config_fields(self):
        assert [f.name for f in fields(ExperimentConfig)] == [
            "t_max", "step", "lam01", "early", "late", "lag", "beta", "tol", "max_iter",
            "n", "seed", "out_dir",
        ]
        assert [f.name for f in fields(SolverConfig)] == ["tol", "max_iter"]

    def test_damping_is_not_an_option(self, capsys):
        assert run_cli("reproduce", "--damping", "1") == 1
        assert "unrecognized arguments: --damping 1" in capsys.readouterr().err


class TestErrors:
    def test_unknown_command(self, capsys):
        assert run_cli("frobnicate") == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run_cli("construct", "--paper", "x") == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--tmax", "1e308"],
            ["frailty-demo", "--step", "1e-320"],
            ["construct", "--step", "0"],
        ],
    )
    def test_grid_of_non_finite_size_is_one_error_line(self, argv, capsys):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: t_max / step must be finite") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["construct", "rates", "contrast", "reproduce"])
    @pytest.mark.parametrize("grid", [["--tmax", "0"], ["--step", "5"]])
    def test_one_node_grid_is_rejected(self, command, grid, capsys):
        assert run_cli(command, *grid) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the grid needs at least two nodes; t_max=")
        assert "step=" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command", ["construct", "rates", "contrast", "simulate", "frailty-demo", "reproduce"]
    )
    def test_grid_past_the_node_limit_is_refused_before_it_is_made(self, command, capsys):
        # 3,000,001 nodes: refused from t_max / step alone, while one
        # array of that grid would take 24 MB
        rc, peak = traced_peak(lambda: run_cli(command, "--step", "1e-6"))
        assert rc == 1 and peak < 2e6, f"peaked at {peak / 1e6:.1f} MB"
        err = capsys.readouterr().err
        assert err == (
            f"error: t_max=3.0 at step=1e-06 needs 3000001 grid nodes, "
            f"more than the limit of {MAX_NODES}\n"
        )

    @pytest.mark.parametrize(
        "argv, code, names",
        [
            *[
                pytest.param(
                    [command, "--n", "1000", "--lag", "1e308"], 0, "", id=f"{command}-lag"
                )
                for command in ("reproduce", "simulate")
            ],
            *[
                pytest.param([command, f"--beta={beta}"], 1, "beta", id=f"{command}-beta={beta}")
                for command in ("construct", "rates", "contrast", "reproduce")
                for beta in ("nan", "inf", "710", "-710")
            ],
            # a cohort whose extended KM curve of one arm is 1 or 0 at
            # t=2 has no log-survival ratio; the error names that arm
            *[
                pytest.param(
                    ["reproduce", *flags], 1,
                    f"the {arm} arm's extended-KM survival at t=2 is {s}: this cohort ({cohort})",
                    id=f"reproduce-{arm}-{s}",
                )
                for flags, arm, s, cohort in [
                    (["--n", "2000", "--beta", "-50"], "treated", 1, "n=2000, beta=-50"),
                    (["--n", "2000", "--beta", "20"], "untreated", 1, "n=2000, beta=20"),
                    (["--n", "5"], "treated", 0, "n=5, beta=-0.405465"),
                ]
            ],
            pytest.param(
                ["simulate", "--model", "x.csv"], 1, "unrecognized arguments: --model",
                id="simulate-model",
            ),
        ],
    )
    def test_stderr_is_empty_or_one_error_line(self, argv, code, names, capsys):
        assert run_cli(*argv) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("error:") and err.count("\n") == 1
            assert names in err

    @pytest.mark.parametrize(
        "message",
        ["Unable to allocate 22.4 GiB for an array with shape (3000000001,)", ""],
    )
    def test_memory_error_is_one_error_line(self, monkeypatch, capsys, message):
        # a patched builder raises what numpy raises for a grid too large
        # to allocate; nothing is allocated for real
        def build(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(hazrates.construct, "build", build)
        assert run_cli("construct") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert message in err

    def test_reproduce_accepts_every_flag_the_readme_lists(self):
        paragraph = README.read_text().split("Common flags:", 1)[1].split("\n\n", 1)[0]
        listed = re.findall(r"`(--[a-z0-9-]+)`", paragraph)
        assert listed
        parser, rejected = _build_parser(), []
        for flag in listed:
            try:
                parser.parse_args(["reproduce", flag, "1"])
            except CliError:
                rejected.append(flag)
        assert not rejected, f"README lists flags reproduce rejects: {rejected}"


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

    def test_step_that_does_not_divide_the_unit_interval(self, tmp_path):
        # 1.0 is no grid node at step 0.007; the error is taken over the
        # nodes up to 1.0, where lambda02 is flat at 0.6 (before the lag)
        assert run_cli("reproduce", "--step", "0.007", "--n", "2000") == 0
        summary = (tmp_path / "summary.txt").read_text()
        key = "lambda02_max_abs_err_on_unit_interval: "
        line = next(line for line in summary.splitlines() if line.startswith(key))
        assert float(line[len(key):]) < 1e-12

    def test_default_run_matches_golden_outputs(self, tmp_path):
        # Goldens of the default run (n=1e5, seed 9, step 0.005).  A
        # refactor must reproduce these bytes; a change that moves them
        # on purpose regenerates them and explains the difference.
        assert run_cli("reproduce") == 0
        assert (tmp_path / "summary.txt").read_text() == GOLDEN_SUMMARY
        assert _sha256(tmp_path / "rows.csv") == GOLDEN_ROWS_SHA256
        assert run_cli("construct") == 0
        assert _sha256(tmp_path / "lambda02.csv") == GOLDEN_LAMBDA02_SHA256

    def test_default_run_runs_in_bounded_memory(self):
        # about 13.3 MB traced; NA and EKM curves kept through the Cox fit,
        # or its row bounds searched for the whole table at once, exceed it
        rc, peak = traced_peak(lambda: run_cli("reproduce", "--n", "100000"))
        assert rc == 0 and peak < 17.5e6, f"peaked at {peak / 1e6:.1f} MB"

    def test_default_curves_match_golden_outputs(self, tmp_path, capsys):
        # The along-path integrals (potential survival, frailty loads)
        # and the rate ratio behind these files must keep their bits.
        for command, name in [
            ("rates", "rates.csv"),
            ("contrast", "contrast.csv"),
            ("frailty-demo", "frailty_demo.csv"),
        ]:
            assert run_cli(command) == 0
            assert _sha256(tmp_path / name) == GOLDEN_CURVES_SHA256[name], name
            assert capsys.readouterr().out == GOLDEN_STDOUT[command], command

    def test_estimate_and_trace_outputs_match_golden(self, tmp_path, capsys):
        # The curve CSVs of `estimate` on a cohort with both treatment
        # levels, the builder trace and the collider table, as the CLI's
        # CSV writer prints them, and each command's stdout.
        def run(*argv, rc=0):
            assert run_cli(*argv) == rc
            command = " ".join(argv)
            captured = capsys.readouterr()
            assert captured.out == GOLDEN_STDOUT[command], command
            return captured.err

        run("simulate", "--n", "20000", "--seed", "5")
        for method in ("na", "ekm", "aalen"):
            run("estimate", "--rows", "rows.csv", "--method", method)
        # a builder that stops short announces its trace and both files,
        # then fails; the converged run below overwrites the files
        assert run("construct", "--max-iter", "1", rc=2) == (
            "solver failed: builder stopped at sup deviation 6.369e-02 after 1 iterations\n"
        )
        run("construct")
        run("collider")
        for name, digest in GOLDEN_TABLES_SHA256.items():
            assert _sha256(tmp_path / name) == digest, name


GOLDEN_SUMMARY = """\
sup_rate_ratio_deviation: 2.78775e-07
builder_iterations: 4
lambda02_max_abs_err_on_unit_interval: 4.44089e-16
true_contrast: 0.22 (unrounded 0.216908)
rate_based_contrast: 0.15 (unrounded 0.145601)
na_sup_deviation_untreated: 0.00945558
na_sup_deviation_treated: 0.00799818
ekm_log_surv_ratio_t2: 0.660844
cox_beta_hat: -0.4037
cox_robust_se: 0.0104659
cox_model_se: 0.0100891
target_rate_ratio: 0.666667
"""
GOLDEN_LAMBDA02_SHA256 = "cd5392a0306a3ba90631b5a52bf7a0ad554ff4d9b32f9b60765e4255a0a06125"
# times written as repr(float), which reads back to the same float
GOLDEN_ROWS_SHA256 = "88fe6e749b9d3dfb68bd47a1044dd46c842c81af0ac20006416076481e85409b"
GOLDEN_CURVES_SHA256 = {
    "rates.csv": "531e40cfd42d9f8dcd967103721ed8c2fe36605865b071cdbe62dbebca323206",
    "contrast.csv": "8b6936da377db85999e8c2082848ce48d1c6beb2509f687426b594dec7b8bd23",
    "frailty_demo.csv": "4af03dea20eff84a545452b6322da75edf554174dd65417646378f01eb1f4f05",
}

# simulate --n 20000 --seed 5, then estimate on its rows; construct and
# collider at their defaults
GOLDEN_TABLES_SHA256 = {
    "rows.csv": "2ea2eeff6eb0ad61a9109c1ca621321a5d597eb2e4d5bac7c6b15f26fbaee4a5",
    "estimate_na.csv": "6dcc4275ecdc797f6ca31e4103b4a1acc3208dc3df1f8241d9efc37ecf376f68",
    "estimate_ekm.csv": "fe699ab509e96c62a3446fb5c243fb10f42f56841caa9fc69b3e362772434627",
    "estimate_aalen.csv": "0413f727237f7b59b734f8bf93b10348c4eaeb98bcb10d543f90b716723246d9",
    "iterations.csv": "f79b92c6e9bc19f4bcef70f473abe910b4e062edaa0d26906912dd759cc0aa78",
    "collider.csv": "61856a557e11b1638b11998da1946f2a5f479ae156fc6d48aa8852100e553f5a",
}

# stdout of the commands above; their out-dir is the working directory,
# so each file is announced by its bare name
GOLDEN_STDOUT = {
    "rates": "wrote rates.csv\nsup |rate ratio - 0.666667| = 2.78775e-07\n",
    "contrast": (
        "wrote contrast.csv\n"
        "true contrast at t=3: 0.22 (unrounded 0.216908)\n"
        "rate-based contrast at t=3: 0.15 (unrounded 0.145601)\n"
    ),
    "frailty-demo": "wrote frailty_demo.csv\nmax violation gap on [1.5, 3]: 0.0591133\n",
    "simulate --n 20000 --seed 5": "wrote rows.csv\nsubjects 20000, treated 6467, deaths 14542\n",
    "estimate --rows rows.csv --method na": "wrote estimate_na.csv\n",
    "estimate --rows rows.csv --method ekm": "wrote estimate_ekm.csv\n",
    "estimate --rows rows.csv --method aalen": (
        "wrote estimate_aalen.csv\naalen_na_identity: PASS\n"
    ),
    "construct --max-iter 1": (
        "iteration 0: sup deviation 0.450026\n"
        "iteration 1: sup deviation 0.0636918\n"
        "wrote lambda02.csv\n"
        "wrote iterations.csv\n"
    ),
    "construct": (
        "iteration 0: sup deviation 0.450026\n"
        "iteration 1: sup deviation 0.0636918\n"
        "iteration 2: sup deviation 0.00269008\n"
        "iteration 3: sup deviation 4.38069e-05\n"
        "iteration 4: sup deviation 2.78775e-07\n"
        "wrote lambda02.csv\n"
        "wrote iterations.csv\n"
        "converged: sup|rate ratio - 0.666667| < 1e-06\n"
    ),
    "collider": (
        "wrote collider.csv\n"
        "P(second-period death | alive, a1=0, a2=0) = 0.1875\n"
        "P(second-period death | alive, a1=0, a2=1) = 0.09375\n"
        "P(second-period death | alive, a1=1, a2=0) = 0.194444\n"
        "P(second-period death | alive, a1=1, a2=1) = 0.0972222\n"
    ),
}


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
