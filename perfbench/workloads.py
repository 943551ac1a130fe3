"""The four workloads: generated configuration files and request lists.

Each workload is a closed loop with one client: a *pass* sends its request
list through ``gnmodel.cli.run`` one request after the other, and a run
repeats passes for its measuring time.  The workload seed sets the Monte
Carlo and moment seeds; ``kernel_quadrature`` and ``psd_sweep`` are
deterministic.  Sizes are the demo and acceptance-criteria sizes, scaled so
one pass takes one to three seconds on a 2-core machine; ``toy`` shrinks
them for the smoke test.
"""
from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("kernel_quadrature", "psd_sweep", "mc_paired", "moment_lab")


@dataclass(frozen=True)
class Request:
    """One CLI invocation: ``gnmodel --config <config> ... <argv>``.

    ``gate`` names the correctness check applied to its output (see
    ``gates.py``); ``params`` carries what that check needs.
    """

    name: str
    config: str
    argv: tuple
    gate: str
    params: tuple = ()


def _span(length_km, alpha, beta2, gamma, gain_db=0.0):
    return (f"    - {{length_km: {length_km}, alpha_db_per_km: {alpha}, "
            f"beta2_ps2_per_km: {beta2}, gamma_per_w_km: {gamma}, "
            f"lumped_gain_db: {gain_db}}}\n")


# the demo single span (demos/single_span.yaml)
SINGLE_SPAN = "link:\n  spans:\n" + _span(80.0, 0.2, -21.7, 1.3)

# the 3-span link of acceptance criterion 1, 3 ps^2 pre-dispersion
THREE_SPAN = ("link:\n  xi_pre_ps2: 3.0\n  spans:\n"
              + _span(80.0, 0.2, -21.7, 1.3, 16.0)
              + _span(60.0, 0.25, 5.1, 1.8, 15.0)
              + _span(100.0, 0.18, -16.0, 1.1, 18.0))

# criterion 2: one lossy span without dispersion, X only
ZERO_DISPERSION = "link:\n  spans:\n" + _span(80.0, 0.2, 0.0, 1.3)
ZD_BANDWIDTH_HZ, ZD_HEIGHT = 32.0e9, 1.3

RECT_SIGNAL = """signal:
  p0_w: 1.0e-3
  x: {kind: rectangular, bandwidth_hz: 31.0e9, height: 1.0}
  y: {kind: rectangular, bandwidth_hz: 21.0e9, height: 0.6}
"""

RAISED_COSINE_SIGNAL = """signal:
  p0_w: 1.0e-3
  x: {kind: raised_cosine, bandwidth_hz: 28.0e9, rolloff: 0.1, height: 1.0}
  y: {kind: raised_cosine, bandwidth_hz: 20.0e9, rolloff: 0.2, height: 0.6}
"""

ZD_SIGNAL = f"""signal:
  p0_w: 1.0e-3
  x: {{kind: rectangular, bandwidth_hz: {ZD_BANDWIDTH_HZ!r}, height: {ZD_HEIGHT!r}}}
  y: {{kind: none}}
"""

DEMO_PSD = """psd:
  include_phase_term: true
  inner_grid_step_hz: 2.5e8
  output_min_hz: -20.0e9
  output_max_hz: 20.0e9
  output_points: 81
"""

# criterion 2's step B/1024; the grid [0, 1 GHz] holds f = 0
ZD_PSD = f"""psd:
  include_phase_term: false
  inner_grid_step_hz: {ZD_BANDWIDTH_HZ / 1024.0!r}
  output_min_hz: 0.0
  output_max_hz: 1.0e9
  output_points: 2
"""

DEMO_MONTECARLO = """montecarlo:
  mode: erp1
  num_lines: 64
  spacing_hz: 1.0e9
  num_trials: 2000
  seed: 20260823
  edge_margin: 0.1
"""
MC_SIGNAL_X = (0.0, 31.0e9)     # center, bandwidth of the X shape above
MC_EDGE_MARGIN = 0.1

DEMO_MOMENTS = """moments:
  theorem: 3
  k: 2
  num_ensembles: 20
  trials: 200000
  seed: 424242
  grid_size: 32
  num_processes: 6
  num_sources: 4
"""

CONFIGS = {
    "three_span.yaml": THREE_SPAN,
    "demo_psd.yaml": SINGLE_SPAN + RECT_SIGNAL + DEMO_PSD,
    "three_span_rect.yaml": THREE_SPAN + RECT_SIGNAL + DEMO_PSD,
    "three_span_rc.yaml": THREE_SPAN + RAISED_COSINE_SIGNAL + DEMO_PSD,
    "zero_dispersion.yaml": ZERO_DISPERSION + ZD_SIGNAL + ZD_PSD,
    "demo_mc.yaml": SINGLE_SPAN + RECT_SIGNAL + DEMO_MONTECARLO,
    "moments.yaml": DEMO_MOMENTS,
}

# psd requests whose output is compared with a stored seed-commit reference
REFERENCE_REQUESTS = {"psd.demo": "demo_psd.yaml",
                      "psd.three_span_rect": "three_span_rect.yaml",
                      "psd.three_span_rc": "three_span_rc.yaml"}


def requests(workload: str, seed: int, toy: bool = False) -> list:
    """The request list of one pass."""
    if workload == "kernel_quadrature":
        # log-spaced F over criterion 1's range: the same mix of cheap and
        # expensive F as its 200 points, a quarter of the count
        points = 4 if toy else 50
        return [Request("kernel.quadrature", "three_span.yaml",
                        ("kernel", "--f-min-hz2", "1e16", "--f-max-hz2", "3e22",
                         "--points", str(points), "--method", "quadrature"),
                        "kernel_vs_closed_form")]
    if workload == "psd_sweep":
        return [Request(name, config, ("psd",), "reference")
                for name, config in REFERENCE_REQUESTS.items()] + [
            Request("psd.zero_dispersion", "zero_dispersion.yaml", ("psd",),
                    "zero_dispersion", (ZD_HEIGHT, ZD_BANDWIDTH_HZ))]
    if workload == "mc_paired":
        # 1024 trials: four 256-trial chunks, so two threads split evenly
        trials = 256 if toy else 1024
        return [Request("montecarlo.erp1", "demo_mc.yaml",
                        ("montecarlo", "--mode", "erp1", "--trials", str(trials),
                         "--seed", str(seed)),
                        "z_scores", MC_SIGNAL_X + (MC_EDGE_MARGIN,))]
    if workload == "moment_lab":
        trials = str(4000 if toy else 40000)
        return [Request("moments.theorem3", "moments.yaml",
                        ("moments", "--theorem", "3", "--trials", trials,
                         "--seed", str(seed)), "moments_pass"),
                Request("moments.theorem2_k3", "moments.yaml",
                        ("moments", "--theorem", "2", "--k", "3",
                         "--trials", trials, "--seed", str(seed)),
                        "moments_pass")]
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(directory) -> None:
    """Write every generated configuration file into ``directory``."""
    for name, text in CONFIGS.items():
        with open(f"{directory}/{name}", "w", encoding="utf-8") as handle:
            handle.write(text)
