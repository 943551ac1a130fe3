"""Command-line interface: output format, flag handling, exit codes."""
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import yaml

import gnmodel
from gnmodel import (GnRequest, KernelConvergenceError, KernelModel,
                     TrialConfig, discrete_powers, estimate_nli_psd,
                     expected_request, kernel_closed_form, kernel_quadrature,
                     load_config, nli_psd_x)
from gnmodel.cli import _build_parser, main, run
from gnmodel.config import read_flags

CONFIG = """
link:
  spans:
    - length_km: 80.0
      alpha_db_per_km: 0.2
      beta2_ps2_per_km: -21.7
      gamma_per_w_km: 1.3
signal:
  p0_w: 1.0e-3
  x:
    kind: rectangular
    bandwidth_hz: 9.0e9
    height: 1.0
  y:
    kind: rectangular
    center_hz: 1.0e9
    bandwidth_hz: 6.0e9
    height: 0.5
psd:
  inner_grid_step_hz: 2.5e8
  output_min_hz: -4.0e9
  output_max_hz: 4.0e9
  output_points: 5
montecarlo:
  num_lines: 16
  spacing_hz: 1.0e9
  num_trials: 60
  seed: 31
moments:
  trials: 2000
  seed: 11
"""


# acceptance criterion 1's 3-span link
THREE_SPAN = """
link:
  xi_pre_ps2: 3.0
  spans:
    - {length_km: 80.0, alpha_db_per_km: 0.2, beta2_ps2_per_km: -21.7,
       gamma_per_w_km: 1.3, lumped_gain_db: 16.0}
    - {length_km: 60.0, alpha_db_per_km: 0.25, beta2_ps2_per_km: 5.1,
       gamma_per_w_km: 1.8, lumped_gain_db: 15.0}
    - {length_km: 100.0, alpha_db_per_km: 0.18, beta2_ps2_per_km: -16.0,
       gamma_per_w_km: 1.1, lumped_gain_db: 18.0}
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(textwrap.dedent(CONFIG))
    return str(path)


def read_table(path):
    """(header comment lines, column names, rows of string cells)."""
    comments, columns, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, columns, rows


def column(rows, columns, name):
    i = columns.index(name)
    return np.array([float(r[i]) for r in rows])


def assert_plain_numbers(columns, rows, first=0):
    """Every row is complete and each field from column ``first`` on is a
    number float() reads (a NumPy scalar's repr, np.float64(...), is not)."""
    for row in rows:
        assert len(row) == len(columns)
        for value in row[first:]:
            float(value)


class TestKernelCommand:
    def test_closed_form_output(self, config_path, tmp_path):
        out = tmp_path / "kernel.csv"
        code = run(["--config", config_path, "--output", str(out), "kernel",
                    "--f-min-hz2", "1e16", "--f-max-hz2", "1e22",
                    "--points", "5"])
        assert code == 0
        comments, columns, rows = read_table(out)
        assert comments[0] == "# gnmodel 0.1.0"
        assert comments[1] == "# command = kernel"
        assert "# cli.points = 5" in comments
        assert "# link.spans[0].length_km = 80.0" in comments
        assert columns == ["F_Hz2", "re_K", "im_K", "re_eta", "im_eta",
                           "abs_eta"]
        assert len(rows) == 5
        assert_plain_numbers(columns, rows)
        f_grid = column(rows, columns, "F_Hz2")
        np.testing.assert_allclose(f_grid, np.logspace(16, 22, 5), rtol=1e-15)
        # repr round-trip: parsed values equal the library's doubles exactly
        cfg = load_config(config_path)
        model = KernelModel(cfg.require_link())
        k = kernel_closed_form(model, f_grid)
        np.testing.assert_array_equal(column(rows, columns, "re_K"), k.real)
        np.testing.assert_array_equal(column(rows, columns, "im_K"), k.imag)
        assert np.all(column(rows, columns, "abs_eta") <= 1.0 + 1e-12)

    def test_quadrature_method_agrees(self, config_path, tmp_path):
        closed, quad = tmp_path / "c.csv", tmp_path / "q.csv"
        base = ["--config", config_path, "kernel", "--f-min-hz2", "1e18",
                "--f-max-hz2", "1e21", "--points", "3"]
        assert run(base[:2] + ["--output", str(closed)] + base[2:]) == 0
        assert run(base[:2] + ["--output", str(quad)] + base[2:]
                   + ["--method", "quadrature"]) == 0
        _, cols_c, rows_c = read_table(closed)
        _, cols_q, rows_q = read_table(quad)
        np.testing.assert_allclose(column(rows_q, cols_q, "re_K"),
                                   column(rows_c, cols_c, "re_K"), rtol=1e-8)

    def test_flag_validation(self, config_path, tmp_path, capsys):
        out = tmp_path / "never.csv"
        base = ["--config", config_path, "--output", str(out), "kernel"]
        bad = [
            base + ["--f-min-hz2", "1e16", "--f-max-hz2", "1e22",
                    "--points", "0"],
            base + ["--f-min-hz2", "1e16", "--f-max-hz2", "1e22",
                    "--points", "-3"],   # a value, not a flag
            base + ["--f-min-hz2", "0", "--f-max-hz2", "1e22",
                    "--points", "3"],
            base + ["--f-min-hz2", "5", "--f-max-hz2", "4", "--points", "3",
                    "--spacing", "linear"],
            base + ["--f-max-hz2", "1e22", "--points", "3"],
            base + ["--f-min-hz2", "1e16", "--f-max-hz2", "1e22",
                    "--points", "3", "--spacing", "[log"],
        ]
        for argv in bad:
            assert run(argv) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "error: cli.points must be at least 1, got 0\n" in err
        assert "error: cli.points must be at least 1, got -3\n" in err
        assert "error: missing required key cli.f_min_hz2\n" in err
        assert "error: cannot parse --spacing '[log': " in err

    @pytest.mark.parametrize("f_min", ["-2e22", "-2.5E+21", "-1e-3"])
    def test_negative_exponent_is_a_value(self, config_path, tmp_path, f_min):
        # argparse alone reads -2e22 as an unknown flag ("expected one
        # argument"); the separate and the "=" forms must both parse
        out = tmp_path / "kernel.csv"
        for flag in (["--f-min-hz2", f_min], [f"--f-min-hz2={f_min}"]):
            assert run(["--config", config_path, "--output", str(out),
                        "kernel", *flag, "--f-max-hz2", "3e22", "--points",
                        "3", "--spacing", "linear"]) == 0
            _, columns, rows = read_table(out)
            assert column(rows, columns, "F_Hz2")[0] == float(f_min)

    def test_convergence_failure_exits_2(self, tmp_path, capsys):
        text = textwrap.dedent(CONFIG) + textwrap.dedent("""
        kernel:
          max_cells_per_span: 64
        """)
        path = tmp_path / "tight.yaml"
        path.write_text(text)
        # every point fails.  Dearest first, the largest F fails first (phase
        # criterion); the error reported is still the smallest F's, the
        # first failure of a serial loop over the grid
        model = KernelModel(load_config(str(path)).require_link(),
                            max_cells_per_span=64)
        with pytest.raises(KernelConvergenceError) as serial:
            for f in np.logspace(16, math.log10(3e22), 3):
                kernel_quadrature(model, f)
        expected = f"gnmodel: convergence failure: {serial.value}\n"
        assert "tolerance" in expected
        out = tmp_path / "never.csv"
        for threads in ("1", "4"):
            code = run(["--config", str(path), "--output", str(out),
                        "--threads", threads, "kernel",
                        "--f-min-hz2", "1e16", "--f-max-hz2", "3e22",
                        "--points", "3", "--method", "quadrature"])
            assert code == 2
            assert not out.exists()
            assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("grid", [
        ("--f-min-hz2", "1e16", "--f-max-hz2", "3e22", "--points", "9"),
        # both signs: largest |F| first is not grid order
        ("--f-min-hz2=-8e21", "--f-max-hz2", "1.2e22", "--points", "6",
         "--spacing", "linear"),
    ])
    def test_quadrature_thread_count_is_byte_invisible(self, tmp_path, grid):
        path = tmp_path / "three_span.yaml"
        path.write_text(textwrap.dedent(THREE_SPAN))
        outputs = []
        for threads in ("1", "2", "4"):
            out = tmp_path / f"q{threads}.csv"
            assert run(["--config", str(path), "--output", str(out),
                        "--threads", threads, "kernel", *grid,
                        "--method", "quadrature"]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        # and each row holds its own F's value, as a serial loop gives it
        _, columns, rows = read_table(out)
        model = KernelModel(load_config(str(path)).require_link())
        serial = np.array([kernel_quadrature(model, f)
                           for f in column(rows, columns, "F_Hz2")])
        assert np.array_equal(column(rows, columns, "re_K"), serial.real)
        assert np.array_equal(column(rows, columns, "im_K"), serial.imag)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_kernel_exits_2_and_writes_nothing(self, tmp_path,
                                                          capsys):
        # theta = (2 pi)^2 F overflows at |F| near 1e308: the engine returns
        # NaN, which must not be written as data.  The CLI's message is the
        # only line on stderr: NumPy warns of nothing (a warning would raise)
        path = tmp_path / "three_span.yaml"
        path.write_text(textwrap.dedent(THREE_SPAN))
        out = tmp_path / "never.csv"
        assert run(["--config", str(path), "--output", str(out), "kernel",
                    "--spacing", "linear", "--f-min-hz2", "-1e300",
                    "--f-max-hz2", "1e308", "--points", "3"]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("gnmodel: non-finite result: K is not finite")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_phase_criterion_beyond_int64_exits_2(self, tmp_path, capsys):
        # cell counts past int64 fail at once, not after refining to budget
        path = tmp_path / "three_span.yaml"
        path.write_text(textwrap.dedent(THREE_SPAN))
        out = tmp_path / "never.csv"
        assert run(["--config", str(path), "--output", str(out), "kernel",
                    "--method", "quadrature", "--f-min-hz2", "1e39",
                    "--f-max-hz2", "1e40", "--points", "2"]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith(
            "gnmodel: convergence failure: phase criterion needs ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_on_quadrature_workers_warns_of_nothing(self, tmp_path,
                                                             capsys):
        # the same F on two worker threads: NumPy's error state follows the
        # tasks, so the convergence failure is again the one stderr line
        path = tmp_path / "three_span.yaml"
        path.write_text(textwrap.dedent(THREE_SPAN)
                        + "kernel:\n  max_cells_per_span: 64\n")
        assert run(["--config", str(path), "--output",
                    str(tmp_path / "never.csv"), "--threads", "2", "kernel",
                    "--spacing", "linear", "--f-min-hz2", "-1e300",
                    "--f-max-hz2", "1e308", "--points", "3",
                    "--method", "quadrature"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gnmodel: convergence failure: ")
        assert err.count("\n") == 1


class TestPsdCommand:
    def test_matches_library(self, config_path, tmp_path):
        out = tmp_path / "psd.csv"
        assert run(["--config", config_path, "--output", str(out),
                    "psd"]) == 0
        comments, columns, rows = read_table(out)
        assert columns == ["f_Hz", "spm", "xpolm", "phase",
                           "total_normalized", "total_absolute_W_per_Hz"]
        assert len(rows) == 5
        assert_plain_numbers(columns, rows)
        cfg = load_config(config_path)
        model = KernelModel(cfg.require_link())
        request = GnRequest(psd=cfg.require_signal(), kernel=model,
                            output_grid_hz=cfg.require_output_grid(),
                            inner_grid_step_hz=cfg.inner_grid_step_hz,
                            include_phase_term=True)
        result = nli_psd_x(request)
        np.testing.assert_array_equal(column(rows, columns, "spm"),
                                      result.spm)
        np.testing.assert_array_equal(
            column(rows, columns, "total_absolute_W_per_Hz"),
            result.total_absolute_w_per_hz)
        total = column(rows, columns, "total_normalized")
        parts = (column(rows, columns, "spm") + column(rows, columns, "xpolm")
                 + column(rows, columns, "phase"))
        np.testing.assert_allclose(total, parts, rtol=1e-12)


class TestNonFiniteInput:
    """NaN or infinite numbers fail closed: exit 1 and no output file."""

    @pytest.mark.parametrize("old,new", [
        ("alpha_db_per_km: 0.2", "alpha_db_per_km: .nan"),
        ("gamma_per_w_km: 1.3", "gamma_per_w_km: .inf"),
        ("p0_w: 1.0e-3", "p0_w: .inf"),
        ("height: 0.5", "height: .nan"),
    ])
    def test_config_value_exits_1(self, tmp_path, capsys, old, new):
        text = textwrap.dedent(CONFIG)
        assert old in text
        path = tmp_path / "run.yaml"
        path.write_text(text.replace(old, new))
        out = tmp_path / "never.csv"
        assert run(["--config", str(path), "--output", str(out), "psd"]) == 1
        assert not out.exists()
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["kernel", "--f-min-hz2", "nan", "--f-max-hz2", "1e20", "--points", "3",
         "--spacing", "linear"],
        ["kernel", "--f-min-hz2", "1e16", "--f-max-hz2", "inf", "--points", "3"],
        ["montecarlo", "--spacing-hz", "-inf", "--trials", "4"],
        ["montecarlo", "--spacing-hz", "one", "--trials", "4"],
    ])
    def test_float_flag_exits_1(self, config_path, tmp_path, argv):
        out = tmp_path / "never.csv"
        assert run(["--config", config_path, "--output", str(out)] + argv) == 1
        assert not out.exists()

    @pytest.mark.parametrize("key,argv", [
        ("montecarlo.spacing_hz", ["montecarlo", "--spacing-hz", "nan"]),
        ("cli.f_min_hz2", ["kernel", "--f-min-hz2", "inf", "--f-max-hz2",
                           "1e20", "--points", "3"]),
    ], ids=["spacing-hz", "f-min-hz2"])
    def test_float_flag_is_read_by_its_row(self, config_path, tmp_path,
                                           capsys, key, argv):
        # the flag's text reaches the key's row, which names the key
        assert run(["--config", config_path, "--output",
                    str(tmp_path / "never.csv")] + argv) == 1
        assert capsys.readouterr().err == (
            f"gnmodel: configuration error: {key} must be finite, "
            f"got {argv[2]!r}\n")


class TestMontecarloCommand:
    def test_flags_override_config(self, config_path, tmp_path):
        out = tmp_path / "mc.csv"
        code = run(["--config", config_path, "--output", str(out),
                    "montecarlo", "--trials", "40", "--seed", "9"])
        assert code == 0
        comments, columns, rows = read_table(out)
        assert "# montecarlo.num_trials = 40" in comments
        assert "# montecarlo.seed = 9" in comments
        assert "# montecarlo.num_lines = 16" in comments  # from config
        assert columns == ["f_Hz", "mc_mean", "mc_stderr", "analytic",
                           "abs_z_score"]
        assert len(rows) == 17
        assert_plain_numbers(columns, rows)
        cfg = load_config(config_path)
        model = KernelModel(cfg.require_link())
        trial_cfg = TrialConfig(spacing_hz=1e9, num_lines=16, num_trials=40,
                                seed=9)
        est = estimate_nli_psd(trial_cfg, cfg.require_signal(), model)
        np.testing.assert_array_equal(column(rows, columns, "mc_mean"),
                                      est.mean)

    def test_mode_switches_analytic_reference(self, config_path, tmp_path):
        # each mode's analytic column is exactly the library's exact mean:
        # rp1 with the phase term, erp1 without; so the columns differ by
        # exactly P_T^2 Ghat_x(k f0), P_T from the line powers
        cfg = load_config(config_path)
        psd, model = cfg.require_signal(), KernelModel(cfg.require_link())
        analytic = {}
        for mode in ("rp1", "erp1"):
            out = tmp_path / f"{mode}.csv"
            assert run(["--config", config_path, "--output", str(out),
                        "montecarlo", "--mode", mode, "--trials", "20"]) == 0
            _, cols, rows = read_table(out)
            analytic[mode] = column(rows, cols, "analytic")
            trial_cfg = TrialConfig(spacing_hz=1e9, num_lines=16,
                                    num_trials=20, seed=31, mode=mode)
            result = nli_psd_x(expected_request(trial_cfg, psd, model))
            np.testing.assert_array_equal(analytic[mode], result.total)
        px, py = discrete_powers(trial_cfg, psd)
        phase = (2.0 * px + py)**2 * psd.gx.evaluate(trial_cfg.frequencies_hz)
        np.testing.assert_allclose(analytic["rp1"] - analytic["erp1"], phase,
                                   rtol=1e-12,
                                   atol=1e-15 * float(np.max(phase)))

    def test_uncovered_grid_exits_1_before_any_trial(self, config_path,
                                                     tmp_path, capsys):
        # a ruinous trial count proves the grid is checked up front: 16
        # lines 0.5 GHz apart reach 4 GHz, below 1.5x the 4.5 GHz X extent
        out = tmp_path / "never.csv"
        assert run(["--config", config_path, "--output", str(out),
                    "montecarlo", "--spacing-hz", "0.5e9",
                    "--trials", str(10**9)]) == 1
        assert not out.exists()
        assert "below 1.5x the x-PSD support extent" in capsys.readouterr().err

    def test_thread_count_is_byte_invisible(self, config_path, tmp_path):
        one, four = tmp_path / "t1.csv", tmp_path / "t4.csv"
        for out, threads in ((one, "1"), (four, "4")):
            assert run(["--config", config_path, "--output", str(out),
                        "--threads", threads, "montecarlo"]) == 0
        assert one.read_bytes() == four.read_bytes()


class TestMomentsCommand:
    def test_passing_report(self, config_path, tmp_path):
        out = tmp_path / "mom.csv"
        code = run(["--config", config_path, "--output", str(out), "moments",
                    "--theorem", "2", "--trials", "20000"])
        assert code == 0
        comments, columns, rows = read_table(out)
        assert columns[0:3] == ["check", "passed", "z_score"]
        assert all(r[1] == "pass" for r in rows)
        assert len(rows) == 22  # 20 ensembles + two classics
        assert comments[-1].startswith("# RESULT: PASS (checks = 22")
        # every field is plain data: a verdict, or a number float() reads
        assert all(r[1] in ("pass", "FAIL") for r in rows)
        assert_plain_numbers(columns, rows, first=2)

    def test_statistical_failure_exits_3_but_writes_report(self, tmp_path):
        # two trials give an honestly unstable estimate; this frozen seed
        # produces a z-score above threshold on the first check
        text = textwrap.dedent(CONFIG).replace("trials: 2000", "trials: 2") \
            .replace("seed: 11", "seed: 0")
        path = tmp_path / "tiny.yaml"
        path.write_text(text)
        out = tmp_path / "mom.csv"
        code = run(["--config", str(path), "--output", str(out), "moments",
                    "--theorem", "1"])
        assert code == 3
        comments, columns, rows = read_table(out)
        assert any(r[1] == "FAIL" for r in rows)
        assert comments[-1].startswith("# RESULT: FAIL")

    def test_theorem3_thread_count_is_byte_invisible(self, config_path,
                                                     tmp_path):
        one, four = tmp_path / "t1.csv", tmp_path / "t4.csv"
        for out, threads in ((one, "1"), (four, "4")):
            assert run(["--config", config_path, "--output", str(out),
                        "--threads", threads, "moments", "--theorem", "3",
                        "--trials", "2000"]) == 0
        assert one.read_bytes() == four.read_bytes()

    @pytest.mark.parametrize("grid_size", [6, 13])
    def test_theorem1_aliased_bins_exit_1(self, tmp_path, capsys, grid_size):
        # an off-diagonal check whose two bins share a line tests nothing
        path = tmp_path / "alias.yaml"
        path.write_text(textwrap.dedent(CONFIG).replace(
            "moments:\n", f"moments:\n  grid_size: {grid_size}\n"))
        out = tmp_path / "never.csv"
        assert run(["--config", str(path), "--output", str(out), "moments",
                    "--theorem", "1"]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"gnmodel: configuration error: grid size "
                              f"{grid_size} puts bins ")

    def test_invalid_parameters_exit_1(self, config_path, tmp_path):
        out = tmp_path / "never.csv"
        base = ["--config", config_path, "--output", str(out), "moments"]
        assert run(base + ["--theorem", "4"]) == 1
        assert run(base + ["--theorem", "2", "--k", "9"]) == 1
        assert run(base + ["--trials", "1"]) == 1
        assert run(base + ["--theorem", "2", "--seed", "-7"]) == 1
        assert run(base + ["--seed", str(2**64)]) == 1
        for key, value, theorem in (("num_ensembles", 0, "2"),
                                    ("num_ensembles", -3, "2"),
                                    ("num_processes", -1, "3"),
                                    ("num_sources", -1, "3"),
                                    ("grid_size", -1, "1")):
            path = tmp_path / "sizes.yaml"
            path.write_text(textwrap.dedent(CONFIG).replace(
                "moments:\n", f"moments:\n  {key}: {value}\n"))
            assert run(["--config", str(path), "--output", str(out),
                        "moments", "--theorem", theorem]) == 1, key
        assert not out.exists()


# the kernel subcommand's grid flags, less the one a RANGES row sets
KERNEL_GRID = {"--f-min-hz2": "1e16", "--f-max-hz2": "1e22", "--points": "3"}


def kernel_flag(name):
    rest = [item for flag, value in KERNEL_GRID.items() if flag != name
            for item in (flag, value)]
    return ("kernel", name, *rest)


# texts a flag and the file read alike, by YAML 1.1: a float, a string
# (no dot before the exponent) and a boolean
TEXTS = ["2.5", "1e5", "true"]

# every declared range: (key, its flag as (subcommand, flag, other flags the
# subcommand needs) or None, out-of-range values, values at the edge of the
# range).  A value's text, str(value), is given to the flag and written into
# the file.  The cli keys (the kernel grid) have flags only, no YAML path
RANGES = [
    # YAML 1.1 reads -1e-09, str(-1.0e-9), as a string
    ("kernel.quadrature_tolerance", None, [0.0, "-1.0e-9"], [5e-324]),
    ("kernel.max_cells_per_span", None, [15, 0, -8], [16]),
    ("psd.inner_grid_step_hz", None, [0.0, -1.0], [5e-324]),
    ("psd.output_points", None, [1], [2]),
    ("montecarlo.mode", ("montecarlo", "--mode"), ["rp2", "foo", *TEXTS],
     ["rp1", "erp1"]),
    ("montecarlo.num_lines", ("montecarlo", "--lines"), [15, 6, 7], [8]),
    # an integer beyond the float range is not finite
    ("montecarlo.spacing_hz", ("montecarlo", "--spacing-hz"),
     [0.0, -1.0e9, "true", "9" * 400], [5e-324, "2.5", "1e5"]),
    ("montecarlo.num_trials", ("montecarlo", "--trials"), [0, 1], [2]),
    ("montecarlo.seed", ("montecarlo", "--seed"), [-1, 2**64],
     [0, 2**64 - 1]),
    ("montecarlo.edge_margin", None, [0.5, -0.1], [0.0, 0.4999]),
    ("moments.theorem", ("moments", "--theorem"), [4, 0, 9], [1, 2, 3]),
    # YAML 1.1 reads 010 as octal
    ("moments.k", ("moments", "--k"), [0, 9, -1], [1, 8, "010"]),
    ("moments.trials", ("moments", "--trials"), [1, *TEXTS], [2]),
    ("moments.seed", ("moments", "--seed"), [-7, 2**64], [0, 2**64 - 1]),
    ("moments.num_ensembles", None, [0, -3], [1]),
    ("moments.grid_size", None, [0, -1], [1]),
    ("moments.num_processes", None, [0, -1], [1]),
    ("moments.num_sources", None, [0, -1], [1]),
    ("cli.points", kernel_flag("--points"), [0, -3, *TEXTS], [1]),
    ("cli.spacing", kernel_flag("--spacing"), ["lin", "Log"],
     ["log", "linear"]),
    ("cli.method", kernel_flag("--method"), ["closed_form", "simpson"],
     ["closed-form", "quadrature"]),
]


def config_with(tmp_path, key, text):
    """CONFIG with ``key`` (section.name) set to the YAML text ``text``."""
    root = yaml.safe_load(CONFIG)
    section, name = key.split(".")
    root.setdefault(section, {})[name] = "__text__"
    path = tmp_path / "set.yaml"
    path.write_text(yaml.safe_dump(root).replace(": __text__\n",
                                                 f": {text}\n"))
    return str(path)


class TestRanges:
    """Each key's range is checked on load, in every section whichever
    subcommand runs, and a flag's text gets the same value, check and
    message as the same text in the file."""

    @pytest.mark.parametrize("key,flag,bad,edge", RANGES,
                             ids=[r[0] for r in RANGES])
    def test_out_of_range_exits_1(self, config_path, tmp_path, capsys, key,
                                  flag, bad, edge):
        out = tmp_path / "never.csv"
        for text in map(str, bad):
            errors = []
            if not key.startswith("cli."):
                # a psd run reads no montecarlo or moments parameter, yet
                # its header records them: it must reject a bad one too
                assert run(["--config", config_with(tmp_path, key, text),
                            "--output", str(out), "psd"]) == 1
                errors.append(capsys.readouterr().err)
            if flag:
                command, name, *rest = flag
                assert run(["--config", config_path, "--output", str(out),
                            command, *rest, name, text]) == 1
                errors.append(capsys.readouterr().err)
            err = errors[0]
            assert err.startswith(f"gnmodel: configuration error: {key} "
                                  f"must be ")
            assert err.endswith(f", got {yaml.safe_load(text)!r}\n")
            assert err.count("\n") == 1
            assert errors == [err] * len(errors)
        assert not out.exists()

    @pytest.mark.parametrize("key,flag,bad,edge", RANGES,
                             ids=[r[0] for r in RANGES])
    def test_edge_of_range_is_accepted(self, config_path, tmp_path, key, flag,
                                       bad, edge):
        section, name = key.split(".")
        for text in map(str, edge):
            values = []
            if section != "cli":
                cfg = load_config(config_with(tmp_path, key, text))
                values.append(cfg.resolved[key])
            if flag:
                command, flag_name, *rest = flag
                args = _build_parser().parse_args(
                    ["--config", config_path, "--output", "unused.csv",
                     command, *rest, flag_name, text])
                params, resolved = read_flags(
                    command, vars(args), load_config(config_path).resolved)
                assert resolved[key] == params[name]
                values.append(params[name])
            # the value YAML reads from the text, as the row types it
            expected = yaml.safe_load(text)
            if isinstance(values[0], float):
                expected = float(expected)
            assert values == [expected] * len(values)


HEADER_CONFIG = """
link:
  xi_pre_ps2: 1.5
  spans:
    - length_km: 50
      alpha_db_per_km: 0.2
      beta2_ps2_per_km: -21.7
      gamma_per_w_km: 1.3
      lumped_gain_db: 10.0
signal:
  p0_w: 2.0e-3
  x: {kind: raised_cosine, bandwidth_hz: 8.0e9, rolloff: 0.2}
  y: {kind: tabulated, csv_path: shape.csv}
kernel:
  quadrature_tolerance: 1.0e-9
psd:
  include_phase_term: false
  inner_grid_step_hz: 2.5e8
  output_min_hz: -4.0e9
  output_max_hz: 4.0e9
  output_points: 3
montecarlo:
  mode: erp1
  num_lines: 16
  spacing_hz: "1e9"
  num_trials: 8
  seed: 3
moments:
  theorem: 1
  trials: 500
"""

# every line of the comment header, in order; defaulted keys included
HEADER = """\
# gnmodel 0.1.0
# command = {command}
# kernel.max_cells_per_span = 2097152
# kernel.quadrature_tolerance = 1e-09
# link.manakov_factor = true
# link.spans[0].alpha_db_per_km = 0.2
# link.spans[0].beta2_ps2_per_km = -21.7
# link.spans[0].gamma_per_w_km = 1.3
# link.spans[0].length_km = 50.0
# link.spans[0].lumped_gain_db = 10.0
# link.xi_pre_ps2 = 1.5
# moments.grid_size = 32
# moments.k = 2
# moments.num_ensembles = 20
# moments.num_processes = 6
# moments.num_sources = 4
# moments.seed = 54321
# moments.theorem = 1
# moments.trials = 500
# montecarlo.edge_margin = 0.1
# montecarlo.mode = {mode}
# montecarlo.num_lines = {num_lines}
# montecarlo.num_trials = {num_trials}
# montecarlo.seed = {seed}
# montecarlo.spacing_hz = {spacing_hz}
# psd.include_phase_term = false
# psd.inner_grid_step_hz = 250000000.0
# psd.output_max_hz = 4000000000.0
# psd.output_min_hz = -4000000000.0
# psd.output_points = 3
# signal.p0_w = 0.002
# signal.x.bandwidth_hz = 8000000000.0
# signal.x.center_hz = 0.0
# signal.x.height = 1.0
# signal.x.kind = raised_cosine
# signal.x.rolloff = 0.2
# signal.y.csv_path = shape.csv
# signal.y.kind = tabulated
"""


class TestHeader:
    def test_full_header_is_pinned(self, tmp_path):
        (tmp_path / "shape.csv").write_text("-3.0e9,0.0\n0.0,0.8\n3.0e9,0.0\n")
        config = tmp_path / "run.yaml"
        config.write_text(HEADER_CONFIG)
        runs = {
            "psd": (["psd"], dict(mode="erp1", num_lines=16, num_trials=8,
                                  seed=3, spacing_hz="1000000000.0")),
            "montecarlo": (["montecarlo", "--mode", "rp1", "--lines", "18",
                            "--spacing-hz", "9.0e8", "--trials", "6",
                            "--seed", "4"],
                           dict(mode="rp1", num_lines=18, num_trials=6,
                                seed=4, spacing_hz="900000000.0")),
        }
        for command, (argv, mc) in runs.items():
            out = tmp_path / f"{command}.csv"
            assert run(["--config", str(config), "--output", str(out)]
                       + argv) == 0
            comments, _, _ = read_table(out)
            assert comments == HEADER.format(command=command,
                                             **mc).splitlines()


class TestDriver:
    def test_bad_invocations_exit_1(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "never.csv")
        assert run(["--output", out, "kernel", "--f-min-hz2", "1",
                    "--f-max-hz2", "2", "--points", "2"]) == 1
        assert run(["--config", config_path, "--output", out,
                    "unknown-command"]) == 1
        assert run(["--config", str(tmp_path / "absent.yaml"), "--output",
                    out, "psd"]) == 1
        assert run(["--config", config_path, "--output", out, "--threads",
                    "0", "psd"]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err

    @pytest.mark.parametrize("argv", [
        ["--thr", "2", "psd"],
        ["kernel", "--f-min", "1e18", "--f-max-hz2", "1e20", "--points", "2"],
        ["montecarlo", "--tri", "3", "--li", "16"],
        ["moments", "--theo", "1", "--trials", "100"],
    ], ids=["psd", "kernel", "montecarlo", "moments"])
    def test_flag_prefix_exits_1(self, config_path, tmp_path, capsys, argv):
        # a flag is its declared spelling only, not any prefix of it
        out = tmp_path / "never.csv"
        assert run(["--config", config_path, "--output", str(out),
                    *argv]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("output", ["absent/run.csv", "."])
    def test_bad_output_exits_1_before_any_trial(self, config_path, tmp_path,
                                                 capsys, output):
        # a ruinous trial count proves the path is checked up front: a
        # missing directory, or a directory where the file should go
        out = tmp_path / output
        assert run(["--config", config_path, "--output", str(out),
                    "montecarlo", "--trials", str(10**9)]) == 1
        assert f"configuration error: --output {out}" in \
            capsys.readouterr().err
        assert not (tmp_path / "absent").exists()
        assert [p.name for p in tmp_path.iterdir()] == ["run.yaml"]

    def test_output_overwrite_and_no_temp_leftovers(self, config_path,
                                                    tmp_path):
        out = tmp_path / "kernel.csv"
        argv = ["--config", config_path, "--output", str(out), "kernel",
                "--f-min-hz2", "1e18", "--f-max-hz2", "1e20", "--points", "2"]
        assert run(argv) == 0
        first = out.read_bytes()
        assert run(argv) == 0
        assert out.read_bytes() == first
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name.startswith(".gnmodel-")]
        assert leftovers == []

    def test_module_runs_main(self, config_path, tmp_path):
        # python -m gnmodel.cli: a psd run writes its CSV, and a run without
        # --config exits 1 and writes nothing
        src = os.path.dirname(os.path.dirname(gnmodel.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = tmp_path / "psd.csv"
        argv = [sys.executable, "-m", "gnmodel.cli", "--output", str(out)]
        done = subprocess.run(argv + ["--config", config_path, "psd"],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert out.read_text().startswith("# gnmodel 0.1.0\n"
                                          "# command = psd\n")
        out.unlink()
        done = subprocess.run(argv + ["psd"], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 1
        assert "configuration error" in done.stderr
        assert not out.exists()

    def test_package_runs_main(self, tmp_path):
        # python -m gnmodel: --help exits 0, and a psd run on the demo
        # writes the bytes cli.run writes
        src = os.path.dirname(os.path.dirname(gnmodel.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        module = [sys.executable, "-m", "gnmodel"]
        done = subprocess.run(module + ["--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0
        assert done.stdout.startswith("usage: gnmodel ")
        demo = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "demos", "single_span.yaml")
        argv = ["--config", demo, "--output"]
        subprocess.run(module + argv + [str(tmp_path / "module.csv"), "psd"],
                       env=env, check=True, timeout=120)
        assert run(argv + [str(tmp_path / "run.csv"), "psd"]) == 0
        assert (tmp_path / "module.csv").read_bytes() == \
            (tmp_path / "run.csv").read_bytes()

    def test_main_raises_system_exit(self, monkeypatch):
        monkeypatch.setattr("sys.argv", ["gnmodel"])
        with pytest.raises(SystemExit) as info:
            main()
        assert info.value.code == 1
