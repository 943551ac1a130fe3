"""YAML configuration loading: units, validation, defaults, resolved map."""
import math
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

from gnmodel import (ConfigError, RaisedCosinePsd, RectangularPsd,
                     TabulatedPsd, config, load_config)
from test_cli import KERNEL_GRID, RANGES, TEXTS

FULL = """
link:
  xi_pre_ps2: 3.0
  spans:
    - length_km: 80.0
      alpha_db_per_km: 0.2
      beta2_ps2_per_km: -21.7
      gamma_per_w_km: 1.3
      lumped_gain_db: 16.0
    - length_km: 60.0
      alpha_db_per_km: 0.25
      beta2_ps2_per_km: 5.1
      gamma_per_w_km: 1.8
signal:
  p0_w: 1.0e-3
  x:
    kind: rectangular
    center_hz: 0.0
    bandwidth_hz: 31.0e9
    height: 1.0
  y:
    kind: raised_cosine
    bandwidth_hz: 21.0e9
    rolloff: 0.25
    height: 0.6
kernel:
  quadrature_tolerance: 1.0e-9
  max_cells_per_span: 4096
psd:
  include_phase_term: false
  inner_grid_step_hz: 2.5e8
  output_min_hz: -2.0e10
  output_max_hz: 2.0e10
  output_points: 5
montecarlo:
  mode: erp1
  num_lines: 32
  spacing_hz: "1e9"
  num_trials: 50
  seed: 77
moments:
  theorem: 2
  k: 3
  trials: 1000
"""


def write(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


class TestFullConfig:
    def test_si_conversion(self, tmp_path):
        cfg = load_config(write(tmp_path, FULL))
        link = cfg.require_link()
        assert len(link.spans) == 2
        s0, s1 = link.spans
        assert s0.length_m == 80e3
        assert s0.alpha_per_m == pytest.approx(0.2 * math.log(10.0) / 1.0e4,
                                               rel=1e-15)
        assert s0.beta2_s2_per_m == pytest.approx(-21.7e-27, rel=1e-15)
        assert s0.gamma_per_w_m == pytest.approx(1.3e-3, rel=1e-15)
        assert s0.lumped_gain_db == 16.0
        assert s1.lumped_gain_db == 0.0  # default: no amplifier
        assert link.xi_pre_s2 == pytest.approx(3.0e-24, rel=1e-15)
        assert link.manakov_factor is True

    def test_signal_shapes(self, tmp_path):
        cfg = load_config(write(tmp_path, FULL))
        psd = cfg.require_signal()
        assert psd.p0_w == 1.0e-3
        assert isinstance(psd.gx, RectangularPsd)
        assert psd.gx.bandwidth_hz == 31.0e9
        assert isinstance(psd.gy, RaisedCosinePsd)
        assert psd.gy.center_hz == 0.0  # default center
        assert psd.gy.rolloff == 0.25

    def test_numeric_strings_parse(self, tmp_path):
        # YAML reads "1e9" (and unquoted 1e9 without a dot) as a string
        cfg = load_config(write(tmp_path, FULL))
        assert cfg.resolved["montecarlo.spacing_hz"] == 1.0e9

    def test_psd_section(self, tmp_path):
        cfg = load_config(write(tmp_path, FULL))
        assert cfg.include_phase_term is False
        assert cfg.inner_grid_step_hz == 2.5e8
        grid = cfg.require_output_grid()
        np.testing.assert_allclose(grid, np.linspace(-2e10, 2e10, 5))

    def test_kernel_and_overridden_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, FULL))
        assert cfg.kernel_tolerance == 1.0e-9
        assert cfg.kernel_max_cells == 4096
        assert cfg.resolved["montecarlo.mode"] == "erp1"
        assert cfg.resolved["montecarlo.edge_margin"] == 0.1  # default kept
        assert cfg.resolved["moments.theorem"] == 2
        assert cfg.resolved["moments.k"] == 3
        assert cfg.resolved["moments.grid_size"] == 32

    def test_resolved_map_spot_checks(self, tmp_path):
        cfg = load_config(write(tmp_path, FULL))
        assert cfg.resolved["link.spans[0].length_km"] == 80.0
        assert cfg.resolved["link.spans[1].lumped_gain_db"] == 0.0
        assert cfg.resolved["signal.x.kind"] == "rectangular"
        assert cfg.resolved["signal.y.rolloff"] == 0.25
        assert cfg.resolved["montecarlo.seed"] == 77
        assert cfg.resolved["moments.trials"] == 1000
        assert cfg.resolved["psd.output_points"] == 5


class TestDefaultsAndOmissions:
    def test_minimal_config(self, tmp_path):
        cfg = load_config(write(tmp_path, "montecarlo:\n  seed: 5\n"))
        assert cfg.link is None and cfg.signal is None
        assert cfg.kernel_tolerance == 1.0e-10
        assert cfg.kernel_max_cells == 1 << 21
        # what a montecarlo run without flags reads
        assert config.read_flags("montecarlo", {}, cfg.resolved)[0] == {
            "mode": "rp1", "num_lines": 64, "spacing_hz": 1.0e9,
            "num_trials": 2000, "seed": 5, "edge_margin": 0.1}
        assert cfg.resolved["moments.theorem"] == 3
        assert cfg.resolved["moments.num_ensembles"] == 20

    def test_require_helpers_raise_when_sections_missing(self, tmp_path):
        cfg = load_config(write(tmp_path, "montecarlo:\n  seed: 5\n"))
        with pytest.raises(ConfigError, match="link section"):
            cfg.require_link()
        with pytest.raises(ConfigError, match="signal section"):
            cfg.require_signal()
        with pytest.raises(ConfigError, match="psd section"):
            cfg.require_output_grid()

    def test_none_shape_is_zero_power(self, tmp_path):
        text = """
        signal:
          p0_w: 1.0e-3
          x:
            kind: rectangular
            bandwidth_hz: 1.0e9
          y:
            kind: none
        """
        cfg = load_config(write(tmp_path, text))
        assert cfg.require_signal().gy.power_integral() == 0.0


class TestTabulated:
    def test_relative_csv_path(self, tmp_path):
        (tmp_path / "shape.csv").write_text(
            "-2.0e9, 0.0\n0.0, 1.5\n2.0e9, 0.0\n")
        text = """
        signal:
          p0_w: 1.0e-3
          x:
            kind: tabulated
            csv_path: shape.csv
          y:
            kind: none
        """
        cfg = load_config(write(tmp_path, text))
        gx = cfg.require_signal().gx
        assert isinstance(gx, TabulatedPsd)
        assert gx.evaluate(0.0) == 1.5
        assert gx.evaluate(1.0e9) == pytest.approx(0.75)

    def test_non_finite_value_is_a_config_error(self, tmp_path):
        (tmp_path / "shape.csv").write_text("-2.0e9, 0.0\n0.0, nan\n2.0e9, 0.0\n")
        text = """
        signal:
          p0_w: 1.0e-3
          x: {kind: tabulated, csv_path: shape.csv}
          y: {kind: none}
        """
        with pytest.raises(ConfigError, match="signal.x: .* must be finite"):
            load_config(write(tmp_path, text))


class TestRejections:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.yaml"))

    def test_malformed_yaml(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(write(tmp_path, "link: [unclosed\n"))

    def test_non_mapping_root(self, tmp_path):
        with pytest.raises(ConfigError, match="key-value mapping"):
            load_config(write(tmp_path, "- 1\n- 2\n"))

    def test_unknown_keys_rejected_everywhere(self, tmp_path):
        with pytest.raises(ConfigError, match="configuration root: typo"):
            load_config(write(tmp_path, "typo: 1\n"))
        span = """
        link:
          spans:
            - length_km: 10
              alpha_db_per_km: 0.2
              beta2_ps2_per_km: -21.0
              gamma_per_w_km: 1.3
              loss_db: 5
        """
        with pytest.raises(ConfigError, match=r"spans\[0\]: loss_db"):
            load_config(write(tmp_path, span))
        with pytest.raises(ConfigError, match="montecarlo: chunk"):
            load_config(write(tmp_path, "montecarlo:\n  chunk: 7\n"))

    def test_missing_required_span_key(self, tmp_path):
        text = """
        link:
          spans:
            - length_km: 10
              beta2_ps2_per_km: -21.0
              gamma_per_w_km: 1.3
        """
        with pytest.raises(ConfigError,
                           match=r"spans\[0\]\.alpha_db_per_km"):
            load_config(write(tmp_path, text))

    def test_kernel_tolerance_must_be_positive(self, tmp_path):
        for value in ("0.0", "-1.0e-9"):
            with pytest.raises(ConfigError,
                               match="quadrature_tolerance must be > 0"):
                load_config(write(tmp_path, "kernel:\n  quadrature_tolerance: "
                                  f"{value}\n"))

    def test_kernel_cell_budget_must_allow_one_doubling(self, tmp_path):
        # the quadrature starts at 8 cells per span and must double once
        for value in ("15", "0", "-8"):
            with pytest.raises(ConfigError,
                               match="max_cells_per_span must be at least 16"):
                load_config(write(tmp_path, "kernel:\n  max_cells_per_span: "
                                  f"{value}\n"))
        cfg = load_config(write(tmp_path, "kernel:\n  max_cells_per_span: 16\n"))
        assert cfg.kernel_max_cells == 16

    def test_spans_must_be_nonempty_list(self, tmp_path):
        with pytest.raises(ConfigError, match="nonempty list"):
            load_config(write(tmp_path, "link:\n  spans: []\n"))
        with pytest.raises(ConfigError, match="nonempty list"):
            load_config(write(tmp_path, "link:\n  spans: 3\n"))

    def test_bool_rejected_in_numeric_fields(self, tmp_path):
        text = """
        signal:
          p0_w: true
          x: {kind: none}
          y: {kind: none}
        """
        with pytest.raises(ConfigError, match="p0_w must be a number, got True"):
            load_config(write(tmp_path, text))
        with pytest.raises(ConfigError, match="integer"):
            load_config(write(tmp_path, "montecarlo:\n  num_trials: 2.5\n"))
        with pytest.raises(ConfigError, match="integer"):
            load_config(write(tmp_path, "montecarlo:\n  num_trials: true\n"))

    @pytest.mark.parametrize("key,value", [
        ("alpha_db_per_km", ".nan"), ("gamma_per_w_km", ".inf"),
        ("length_km", "-.inf"), ("beta2_ps2_per_km", '"nan"')])
    def test_non_finite_span_number_rejected(self, tmp_path, key, value):
        span = {"length_km": "80.0", "alpha_db_per_km": "0.2",
                "beta2_ps2_per_km": "-21.7", "gamma_per_w_km": "1.3",
                key: value}
        text = "link:\n  spans:\n    - {" + ", ".join(
            f"{k}: {v}" for k, v in span.items()) + "}\n"
        with pytest.raises(ConfigError, match=rf"spans\[0\]\.{key} must be finite"):
            load_config(write(tmp_path, text))

    def test_non_finite_signal_and_psd_numbers_rejected(self, tmp_path):
        signal = """
        signal:
          p0_w: {p0}
          x: {{kind: rectangular, bandwidth_hz: 9.0e9, height: {height}}}
          y: {{kind: none}}
        """
        for p0, height, key in ((".inf", "1.0", "signal.p0_w"),
                                ("1.0e-3", ".nan", "signal.x.height")):
            with pytest.raises(ConfigError, match=rf"{key} must be finite"):
                load_config(write(tmp_path, signal.format(p0=p0, height=height)))
        with pytest.raises(ConfigError, match="inner_grid_step_hz must be finite"):
            load_config(write(tmp_path, """
            psd:
              inner_grid_step_hz: .inf
              output_min_hz: -1.0e9
              output_max_hz: 1.0e9
              output_points: 3
            """))

    def test_signal_needs_both_polarizations(self, tmp_path):
        text = """
        signal:
          p0_w: 1.0e-3
          x: {kind: none}
        """
        with pytest.raises(ConfigError, match="both x and y"):
            load_config(write(tmp_path, text))

    def test_bad_shape_kind(self, tmp_path):
        text = """
        signal:
          p0_w: 1.0e-3
          x: {kind: triangular}
          y: {kind: none}
        """
        with pytest.raises(ConfigError, match="kind must be one of"):
            load_config(write(tmp_path, text))

    def test_physical_validation_wrapped_with_location(self, tmp_path):
        text = """
        link:
          spans:
            - length_km: -5
              alpha_db_per_km: 0.2
              beta2_ps2_per_km: -21.0
              gamma_per_w_km: 1.3
        """
        with pytest.raises(ConfigError, match=r"spans\[0\]"):
            load_config(write(tmp_path, text))

    def test_psd_grid_validation(self, tmp_path):
        bad_range = """
        psd:
          inner_grid_step_hz: 1e8
          output_min_hz: 1.0e9
          output_max_hz: 1.0e9
          output_points: 4
        """
        with pytest.raises(ConfigError, match="must exceed"):
            load_config(write(tmp_path, bad_range))
        bad_points = """
        psd:
          inner_grid_step_hz: 1e8
          output_min_hz: -1.0e9
          output_max_hz: 1.0e9
          output_points: 1
        """
        with pytest.raises(ConfigError, match="at least 2"):
            load_config(write(tmp_path, bad_points))


class TestSchema:
    def test_every_default_passes_its_own_row(self):
        tables = [config._LINK, config._SPAN, config._SIGNAL, config._KIND,
                  *(rows for _, rows in config._SHAPES.values()),
                  *config._SECTIONS.values()]
        for rows in tables:
            for key, kind, *rest in rows:
                if rest and rest[0] is not config._REQUIRED:
                    # read back as if the file gave it: type and range hold
                    assert config._value({key: rest[0]}, "default", key,
                                         kind, *rest) == rest[0], key

    def test_cli_rows_are_no_section_of_the_file(self, tmp_path):
        path = tmp_path / "cli.yaml"
        path.write_text("cli:\n  points: 3\n")
        with pytest.raises(ConfigError,
                           match="unknown key.*configuration root: cli"):
            load_config(str(path))

    def test_moment_order_row_matches_the_engine(self):
        # config does not import moments (it would load numpy.random at
        # start-up), so its copy of the bound is checked here
        from gnmodel.moments import MAX_MOMENT_ORDER
        params, _ = config.read_flags("moments", {"k": str(MAX_MOMENT_ORDER)},
                                      {})
        assert params["k"] == MAX_MOMENT_ORDER
        with pytest.raises(ConfigError, match="moments.k must be in"):
            config.read_flags("moments", {"k": str(MAX_MOMENT_ORDER + 1)}, {})


class TestLoader:
    """The file and every flag's text go through config's loader, libyaml's
    where PyYAML has it, and read as PyYAML's pure-Python SafeLoader reads
    them: the same type and value."""

    DEMO = Path(__file__).resolve().parent.parent / "demos" / "single_span.yaml"
    # YAML 1.1 forms the two parsers could tell apart
    FORMS = ["1e5", "010", "0x10", "yes", ".inf", "1_000", "-2e22", "1:20",
             "0b101", "2026-10-20", "~", "'quoted'", "[1, 2.5]"]

    @staticmethod
    def both(text):
        return [(type(value), repr(value)) for value in
                (yaml.load(text, Loader=config._LOADER),
                 yaml.load(text, Loader=yaml.SafeLoader))]

    def test_demo_configuration_reads_alike(self):
        first, second = self.both(self.DEMO.read_text(encoding="utf-8"))
        assert first == second

    def test_flag_texts_read_alike(self):
        texts = [*TEXTS, *KERNEL_GRID.values(), *self.FORMS,
                 *(str(value) for _, _, bad, edge in RANGES
                   for value in (*bad, *edge))]
        for text in texts:
            first, second = self.both(text)
            assert first == second, text
