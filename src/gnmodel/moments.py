"""Brute-force verification of the Gaussian moment machinery.

Three layers, each checked two independent ways (formula vs sampling):

* Theorem 1 surrogate — on an N-point circular frequency grid, processes
  built as filtered versions of shared circular-white sources have exactly
  uncorrelated spectral lines: E[Xp(nu) Xq*(mu)] = G_pq(nu) * kron(nu - mu),
  with G_pq known from the construction.
* Theorem 2 / CGMT — the 2k-th moment of jointly circular complex Gaussians
  is the k!-term permutation sum of pairwise covariances.
* Theorem 3 — the six-field spectral moment
  E[A(f+f1) B*(f+f1+f2) C(f+f2) D*(u+f3) E(u+f3+f4) F*(u+f4)] collapses, on
  the u = f diagonal, to six products of three cross-spectra gated by two
  Kronecker deltas each (conjugated slots B, D, F stay in place; A, C, E
  permute).  Off the diagonal everything vanishes.

All statistical comparisons use a fixed 4-standard-error threshold with
pre-registered trial counts.

Sampling rule: one engine for all three theorems.  Every sampled moment is
``mc_moment`` on a ``GaussianEnsemble`` and every exact value is ``cgmt_sum``
on the same ensemble.  Theorems 1 and 3 take as their ensemble the spectral
lines a check reads (``StationaryProcessSet.lines``): one row per distinct
(process, bin) line, read by every slot that holds it, over the white sources
at each distinct bin the check touches.  Each check draws those sources from
its own Philox stream whichever processes read them.  Every check and every
theorem-2 ensemble has its own seed, so the ``threads`` argument only decides
where the checks run, never what they return.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .parallel import ordered_map
from .rng import complex_normals, moment_stream
from .stats import abs_z_score, mean_stderr

__all__ = [
    "GaussianEnsemble",
    "MomentSpec",
    "CheckResult",
    "CheckReport",
    "StationaryProcessSet",
    "cgmt_sum",
    "mc_moment",
    "theorem1_discrete_check",
    "theorem2_check",
    "theorem3_discrete_check",
]

MAX_MOMENT_ORDER = 8  # 8! = 40320 permutation terms

_Z_THRESHOLD = 4.0

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _normals(seed: int, *shape) -> np.ndarray:
    """i.i.d. standard circular complex normals (E|z|^2 = 1) of ``shape``,
    drawn from the seed's moment stream and scaled in place.

    The scale multiplies the real and imaginary parts by 1/sqrt(2) in real
    arithmetic.  NumPy's complex division by sqrt(2) + 0j computes
    (a + b*0) * (1/sqrt(2)) per part, so the two agree bit for bit unless a
    part is exactly -0.0."""
    n = complex_normals(moment_stream(seed, 0), math.prod(shape))
    parts = n.view(float)
    parts *= _INV_SQRT2
    return n.reshape(shape)


@dataclass(frozen=True)
class GaussianEnsemble:
    """Zero-mean jointly circular complex Gaussian vector in factor form.

    U = factor @ z with z a vector of i.i.d. standard circular complex
    Gaussians, so the covariance E[U_i U_j*] = factor @ factor^H is Hermitian
    positive semidefinite by construction and the pseudo-covariance
    E[U_i U_j] vanishes identically.
    """

    factor: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.factor, dtype=complex)
        if f.ndim != 2 or f.size == 0:
            raise ValueError("factor must be a nonempty 2-D array")
        if not np.all(np.isfinite(f)):
            raise ValueError("factor entries must be finite")
        object.__setattr__(self, "factor", f)

    @property
    def dimension(self) -> int:
        return self.factor.shape[0]

    @property
    def covariance(self) -> np.ndarray:
        return self.factor @ self.factor.conj().T

    @classmethod
    def random(cls, dimension: int, rank: int, seed: int) -> "GaussianEnsemble":
        """Random factor with i.i.d. standard circular complex entries."""
        return cls(factor=_normals(seed, dimension, rank))

    def sample(self, trials: int, seed: int) -> np.ndarray:
        """(dimension, trials) draws of U."""
        return self.factor @ _normals(seed, self.factor.shape[1], trials)


@dataclass(frozen=True)
class MomentSpec:
    """Which ensemble component sits in each slot of E[U*...U* U...U].

    ``conjugated`` lists the ensemble indices of the k conjugated slots,
    ``unconjugated`` those of the k plain slots; repetitions are allowed, so
    E[|U|^6] is the spec ((i, i, i), (i, i, i)).
    """

    conjugated: tuple[int, ...]
    unconjugated: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(i) for i in self.conjugated)
        u = tuple(int(i) for i in self.unconjugated)
        if len(c) != len(u) or not c:
            raise ValueError("need the same nonzero number of conjugated and "
                             "unconjugated slots")
        object.__setattr__(self, "conjugated", c)
        object.__setattr__(self, "unconjugated", u)

    @property
    def order(self) -> int:
        return len(self.conjugated)


def cgmt_sum(ensemble: GaussianEnsemble, spec: MomentSpec) -> complex:
    """Exact 2k-th moment via the k!-term permutation sum.

    Refuses k > 8 (40320-term budget).
    """
    if spec.order > MAX_MOMENT_ORDER:
        raise ValueError(f"moment order {spec.order} exceeds the permutation "
                         f"budget (k <= {MAX_MOMENT_ORDER})")
    if max(max(spec.conjugated), max(spec.unconjugated)) >= ensemble.dimension:
        raise ValueError("spec references components outside the ensemble")
    cov = ensemble.covariance
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(spec.order)):
        term = 1.0 + 0.0j
        for slot, c_idx in enumerate(spec.conjugated):
            # E[U_c^* U_u] = cov[u, c] for cov[i, j] = E[U_i U_j^*]
            term *= cov[spec.unconjugated[perm[slot]], c_idx]
        total += term
    return total


def mc_moment(ensemble: GaussianEnsemble, spec: MomentSpec,
              trials: int, seed: int) -> tuple[complex, complex]:
    """Sample-mean estimate of the same moment, with componentwise stderr.

    Returns (estimate, stderr) where stderr packs the real/imaginary
    standard errors as a complex number.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    u = ensemble.sample(trials, seed)
    prod = _slot_product(itertools.chain(
        (np.conj(u[c_idx]) for c_idx in spec.conjugated),
        (u[u_idx] for u_idx in spec.unconjugated)))
    (re, re_err), (im, im_err) = mean_stderr(prod.real), mean_stderr(prod.imag)
    return complex(re, im), complex(re_err, im_err)


def _slot_product(factors) -> np.ndarray:
    """The product of the slot ``factors`` (conjugated where the slot is):
    the first times the second, then each further one in place, as the
    literal chain a*conj(b)*c... runs once NumPy elides its temporaries (256
    KiB and up); a rebinding loop (prod = prod * x) would not give its bits."""
    factors = iter(factors)
    prod = next(factors) * next(factors)
    for factor in factors:
        prod *= factor
    return prod


# ---------------------------------------------------------------------------
# check reporting


@dataclass
class CheckResult:
    """One statistical comparison: estimate vs expected with z-scores."""

    name: str
    estimate: complex
    stderr: complex
    expected: complex
    z_score: float
    passed: bool
    formula_gap: float = 0.0


@dataclass
class CheckReport:
    checks: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_z(self) -> float:
        return max((c.z_score for c in self.checks), default=0.0)


def _score(name, estimate, stderr, expected, formula_gap=0.0, gap_scale=1.0):
    z = max(abs_z_score(estimate.real - expected.real, stderr.real),
            abs_z_score(estimate.imag - expected.imag, stderr.imag))
    passed = z <= _Z_THRESHOLD and formula_gap <= 1e-10 * max(gap_scale, 1.0)
    return CheckResult(name=name, estimate=estimate, stderr=stderr,
                       expected=expected, z_score=z, passed=passed,
                       formula_gap=formula_gap)


# ---------------------------------------------------------------------------
# discrete stationary processes (Theorems 1 and 3)


@dataclass(frozen=True)
class StationaryProcessSet:
    """Jointly circularly-stationary processes on an N-point frequency grid.

    Process p is X_p(nu) = sum_s filters[p, s, nu] * w_s(nu) with w_s(nu)
    i.i.d. standard circular complex white sources shared across processes,
    so all cross-spectra G_pq(nu) = sum_s filters[p,s,nu] conj(filters[q,s,nu])
    are known by construction and spectral lines at different bins are
    exactly uncorrelated (the discrete Theorem 1).
    """

    filters: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.filters, dtype=complex)
        if f.ndim != 3 or f.size == 0:
            raise ValueError("filters must have shape (processes, sources, bins)")
        if not np.all(np.isfinite(f)):
            raise ValueError("filter responses must be finite")
        object.__setattr__(self, "filters", f)

    @property
    def num_processes(self) -> int:
        return self.filters.shape[0]

    @property
    def grid_size(self) -> int:
        return self.filters.shape[2]

    def spectrum(self, p: int, q: int) -> np.ndarray:
        """Cross-spectral density G_pq over all bins."""
        return np.einsum("sn,sn->n", self.filters[p], np.conj(self.filters[q]))

    def lines(self, pattern, bins) -> tuple[GaussianEnsemble, list[int]]:
        """The spectral lines X_pattern[i](bins[i]) as a ``GaussianEnsemble``,
        and the ensemble row each slot i reads.

        Bins are taken mod N.  There is one row per distinct (process, bin)
        line, so a repeated line is one row read by several slots (the same
        spectral line cannot be redrawn).  The columns are the white sources
        at each distinct bin, source-major: column s*U + u is w_s at the u-th
        distinct bin, so a sample draws the same normals, shaped (sources, U,
        trials), whichever processes read them.
        """
        bins = np.mod(np.asarray(bins, dtype=int), self.grid_size)
        uniq, at = np.unique(bins, return_inverse=True)
        slots = list(zip(map(int, pattern), at.tolist()))
        distinct = list(dict.fromkeys(slots))
        factor = np.zeros((len(distinct), self.filters.shape[1], uniq.size),
                          dtype=complex)
        for row, (p, u) in enumerate(distinct):
            factor[row, :, u] = self.filters[p, :, uniq[u]]
        return (GaussianEnsemble(factor=factor.reshape(len(distinct), -1)),
                [distinct.index(slot) for slot in slots])

    @classmethod
    def random(cls, num_processes: int, num_sources: int, grid_size: int,
               seed: int) -> "StationaryProcessSet":
        return cls(filters=_normals(seed, num_processes, num_sources, grid_size))

    @classmethod
    def independent_pair(cls, grid_size: int, seed: int) -> "StationaryProcessSet":
        """Two processes on disjoint sources: G_xy identically zero."""
        h = _normals(seed, 2, grid_size)
        filters = np.zeros((2, 2, grid_size), dtype=complex)
        filters[0, 0] = 1.0 + 0.3 * np.abs(h[0])   # nontrivial real spectra
        filters[1, 1] = 0.8 + 0.4 * np.abs(h[1])
        return cls(filters=filters)

    @classmethod
    def independent_white(cls, num_processes: int, grid_size: int) -> "StationaryProcessSet":
        """Mutually independent unit-spectrum white processes."""
        filters = np.zeros((num_processes, num_processes, grid_size), dtype=complex)
        for p in range(num_processes):
            filters[p, p] = 1.0
        return cls(filters=filters)


def _kron(value: int, n_grid: int) -> float:
    return 1.0 if value % n_grid == 0 else 0.0


def _six_term_formula(spectrum, n: int, pattern, f: int, u: int,
                      offsets) -> complex:
    """Literal six-term Theorem 3 value with Kronecker deltas (mod N), from
    ``spectrum(p, q)``, the G_pq table over all N bins."""
    pa, pb, pc, pd, pe, pf = pattern
    f1, f2, f3, f4 = offsets
    if (u - f) % n != 0:
        return 0.0 + 0.0j

    def g(p, q, nu):
        return complex(spectrum(p, q)[nu % n])

    total = 0.0 + 0.0j
    total += g(pa, pb, f + f1) * g(pc, pd, f) * g(pe, pf, f + f4) \
        * _kron(f2, n) * _kron(f3, n)
    total += g(pa, pb, f + f1) * g(pe, pd, f + f3) * g(pc, pf, f) \
        * _kron(f2, n) * _kron(f4, n)
    total += g(pc, pb, f + f2) * g(pa, pd, f) * g(pe, pf, f + f4) \
        * _kron(f1, n) * _kron(f3, n)
    total += g(pc, pb, f + f2) * g(pe, pd, f + f3) * g(pa, pf, f) \
        * _kron(f1, n) * _kron(f4, n)
    total += g(pe, pb, f + f1 + f2) * g(pa, pd, f + f1) * g(pc, pf, f + f2) \
        * _kron(f3 - f1, n) * _kron(f4 - f2, n)
    total += g(pe, pb, f + f1 + f2) * g(pc, pd, f + f2) * g(pa, pf, f + f1) \
        * _kron(f4 - f1, n) * _kron(f3 - f2, n)
    return total


def _slot_bins(f: int, u: int, offsets):
    f1, f2, f3, f4 = offsets
    return (f + f1, f + f1 + f2, f + f2, u + f3, u + f3 + f4, u + f4)


def _line_check(name, procs, pattern, bins, expected, trials, seed):
    """Score E[S0 S1* S2 S3* ...], slot i holding process pattern[i] at
    bins[i] (two slots for Theorem 1, six for 3), sampled by ``mc_moment``
    on the check's line ensemble, against the theorem's ``expected``; CGMT
    on the same ensemble gives the formula gap."""
    ensemble, rows = procs.lines(pattern, bins)
    spec = MomentSpec(conjugated=tuple(rows[1::2]),
                      unconjugated=tuple(rows[0::2]))
    est, stderr = mc_moment(ensemble, spec, trials, seed)
    gap = abs(expected - cgmt_sum(ensemble, spec))
    return _score(name, est, stderr, expected, formula_gap=gap,
                  gap_scale=abs(expected))


def theorem1_discrete_check(processes: StationaryProcessSet, trials: int,
                            seed: int, threads: int = 1) -> CheckReport:
    """Spectral uncorrelatedness: E[Xp(nu) Xq*(mu)] = G_pq(nu) kron(nu-mu).

    Each check samples its two lines through ``mc_moment`` on
    ``StationaryProcessSet.lines`` and scores them against that literal
    formula, with CGMT on the same line ensemble as its formula gap.  A grid
    on which an off-diagonal check's two bins alias (N = 1, 2, 3, 6 or 13)
    would test nothing off the diagonal, so it raises ``ConfigError``.  The
    checks run on ``threads`` workers, each from its own seed.
    """
    p_max = processes.num_processes - 1
    n = processes.grid_size
    configs = [
        ("t1-auto-diagonal", 0, 0, 3, 3),
        ("t1-cross-diagonal", 0, min(1, p_max), 5, 5),
        ("t1-auto-offdiagonal", 0, 0, 3, 9),
        ("t1-cross-offdiagonal", min(2, p_max), min(1, p_max), 7, 20),
    ]
    for name, _, _, nu, mu in configs:
        if nu != mu and (nu - mu) % n == 0:
            raise ConfigError(f"grid size {n} puts bins {nu} and {mu} of "
                              f"{name} on one line")

    def run(idx):
        name, p, q, nu, mu = configs[idx]
        # a conditional, not G * kron: G * 0.0 can print -0.0
        expected = complex(processes.spectrum(p, q)[nu % n]) \
            if (nu - mu) % n == 0 else 0j
        return _line_check(name, processes, (p, q), (nu, mu), expected,
                           trials, seed + idx)

    return CheckReport(checks=ordered_map(run, range(len(configs)), threads))


def theorem2_check(k: int, num_ensembles: int, trials: int, seed: int,
                   threads: int = 1) -> CheckReport:
    """CGMT permutation sum vs direct sampling on random ensembles.

    Also reproduces the single-variable classics E|U|^4 = 2 sigma^4 and
    E|U|^6 = 6 sigma^6, after the ensembles.  The ensembles run on
    ``threads`` worker threads; each has its own seeds, so ``threads`` never
    changes a result or the order of the checks.
    """
    dim = 2 * k
    spec = MomentSpec(conjugated=tuple(range(k)),
                      unconjugated=tuple(range(k, 2 * k)))

    def ensemble_check(e):
        ens = GaussianEnsemble.random(dim, dim, seed + 1_000_003 * e + 1)
        exact = cgmt_sum(ens, spec)
        est, stderr = mc_moment(ens, spec, trials, seed + 1_000_003 * e + 2)
        return _score(f"t2-k{k}-ensemble{e}", est, stderr, exact)

    report = CheckReport(checks=ordered_map(ensemble_check,
                                            range(num_ensembles), threads))

    single = GaussianEnsemble(factor=np.array([[1.1 + 0.4j, 0.3 - 0.2j]]))
    sigma2 = single.covariance[0, 0].real
    for order, coeff in ((2, 2.0), (3, 6.0)):
        spec = MomentSpec(conjugated=(0,) * order, unconjugated=(0,) * order)
        expected = complex(coeff * sigma2**order)
        exact = cgmt_sum(single, spec)
        est, stderr = mc_moment(single, spec, trials, seed + 17 * order)
        gap = abs(exact - expected)
        report.checks.append(_score(f"t2-abs-moment-2k{order}", est, stderr,
                                    expected, formula_gap=gap,
                                    gap_scale=abs(expected)))
    return report


def theorem3_discrete_check(processes: StationaryProcessSet, trials: int,
                            seed: int, threads: int = 1) -> CheckReport:
    """Six-term delta structure of the six-field spectral moment.

    Runs, against the supplied process set (at least six processes, grid of
    at least 32 bins): the off-diagonal null, each of the six delta-selected
    diagonal terms, a diagonal no-delta null, and the all-processes-equal
    collapse; then, on canonical internal constructions, the uncorrelated-X/Y
    two-term survival and the fully independent white null.  Each check
    samples its six lines through ``mc_moment`` on
    ``StationaryProcessSet.lines``; its expected value is the literal
    six-term formula, and CGMT on the same line ensemble is its
    ``formula_gap``, which also catches a wrongly built line ensemble.
    """
    if processes.grid_size < 32:
        raise ConfigError(f"grid size must be >= 32, got {processes.grid_size}")
    if processes.num_processes < 6:
        raise ConfigError(f"need at least 6 processes, got {processes.num_processes}")

    generic = tuple(range(6))
    collapsed = (0,) * 6
    xy_set = StationaryProcessSet.independent_pair(processes.grid_size, seed + 881)
    xy = (0, 1, 1, 0, 1, 1)   # X, Y*, Y, X*, Y, Y* second-expectation pattern
    white = StationaryProcessSet.independent_white(6, processes.grid_size)

    f = 7
    configs = [
        ("t3-offdiagonal", processes, generic, f, f + 5, (1, 2, 3, 4)),
        ("t3-diag-term1", processes, generic, f, f, (3, 0, 0, 5)),
        ("t3-diag-term2", processes, generic, f, f, (3, 0, 5, 0)),
        ("t3-diag-term3", processes, generic, f, f, (0, 3, 0, 5)),
        ("t3-diag-term4", processes, generic, f, f, (0, 3, 5, 0)),
        ("t3-diag-term5", processes, generic, f, f, (2, 5, 2, 5)),
        ("t3-diag-term6", processes, generic, f, f, (2, 5, 5, 2)),
        ("t3-diag-no-delta", processes, generic, f, f, (1, 2, 3, 5)),
        ("t3-all-equal-6G3", processes, collapsed, f, f, (0, 0, 0, 0)),
        ("t3-all-equal-partial", processes, collapsed, f, f, (2, 0, 2, 0)),
        ("t3-xy-term3", xy_set, xy, f, f, (0, 3, 0, 5)),
        ("t3-xy-term5", xy_set, xy, f, f, (2, 4, 2, 4)),
        ("t3-xy-dead-delta", xy_set, xy, f, f, (3, 0, 0, 5)),
        ("t3-white-independent", white, generic, f, f, (0, 0, 0, 0)),
    ]

    def run(idx):
        name, procs, pattern, ff, uu, offsets = configs[idx]
        # one G_pq table per pair for the check's formula
        expected = _six_term_formula(functools.cache(procs.spectrum),
                                     procs.grid_size, pattern, ff, uu, offsets)
        return _line_check(name, procs, pattern, _slot_bins(ff, uu, offsets),
                           expected, trials, seed + 7919 * idx)

    return CheckReport(checks=ordered_map(run, range(len(configs)), threads))
