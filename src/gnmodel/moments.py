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

Sampling rule: draw everything, contract only the rows that are read.  Each
check draws its white sources for every distinct bin it touches, from its own
Philox stream, whether or not a process reads them, so the draws never depend
on which rows a check asks for.  Only the (process, slot) rows the check's
product reads are then filtered, each by the same einsum on its one-process,
one-bin slice.  Every check and every theorem-2 ensemble has its own seed, so
the ``threads`` argument only decides where the checks run, never what they
return.
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

__all__ = [
    "GaussianEnsemble",
    "MomentSpec",
    "CheckResult",
    "CheckReport",
    "StationaryProcessSet",
    "abs_z_score",
    "cgmt_sum",
    "mc_moment",
    "theorem1_discrete_check",
    "theorem2_check",
    "theorem3_discrete_check",
]

MAX_MOMENT_ORDER = 8  # 8! = 40320 permutation terms

_Z_THRESHOLD = 4.0


def _normals(seed: int, *shape) -> np.ndarray:
    """i.i.d. standard circular complex normals (E|z|^2 = 1) of ``shape``,
    drawn from the seed's moment stream and scaled in place."""
    n = complex_normals(moment_stream(seed, 0), math.prod(shape)).reshape(shape)
    n /= math.sqrt(2.0)
    return n


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


def _pairing_sum(cov: np.ndarray, spec: MomentSpec) -> complex:
    """Permutation sum over pairings given a raw covariance matrix."""
    k = spec.order
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(k)):
        term = 1.0 + 0.0j
        for slot, c_idx in enumerate(spec.conjugated):
            # E[U_c^* U_u] = cov[u, c] for cov[i, j] = E[U_i U_j^*]
            term *= cov[spec.unconjugated[perm[slot]], c_idx]
        total += term
    return total


def cgmt_sum(ensemble: GaussianEnsemble, spec: MomentSpec) -> complex:
    """Exact 2k-th moment via the k!-term permutation sum.

    Refuses k > 8 (40320-term budget).
    """
    if spec.order > MAX_MOMENT_ORDER:
        raise ValueError(f"moment order {spec.order} exceeds the permutation "
                         f"budget (k <= {MAX_MOMENT_ORDER})")
    dim = ensemble.dimension
    if max(max(spec.conjugated), max(spec.unconjugated)) >= dim:
        raise ValueError("spec references components outside the ensemble")
    return _pairing_sum(ensemble.covariance, spec)


def mc_moment(ensemble: GaussianEnsemble, spec: MomentSpec,
              trials: int, seed: int) -> tuple[complex, complex]:
    """Sample-mean estimate of the same moment, with componentwise stderr.

    Returns (estimate, stderr) where stderr packs the real/imaginary
    standard errors as a complex number.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    u = ensemble.sample(trials, seed)
    prod = np.ones(trials, dtype=complex)
    for c_idx in spec.conjugated:
        prod *= np.conj(u[c_idx])
    for u_idx in spec.unconjugated:
        prod *= u[u_idx]
    return _mean_stderr(prod)


def _mean_stderr(prod: np.ndarray) -> tuple[complex, complex]:
    """Sample mean of ``prod`` and its real/imaginary standard errors packed
    as one complex number."""
    scale = 1.0 / math.sqrt(prod.size)
    return complex(prod.mean()), complex(np.std(prod.real, ddof=1) * scale,
                                         np.std(prod.imag, ddof=1) * scale)


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


def abs_z_score(delta: float, stderr: float) -> float:
    """|delta| in standard errors; 0 for an exact zero-variance match."""
    if stderr > 0:
        return abs(delta) / stderr
    return 0.0 if delta == 0 else math.inf


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
            raise ConfigError("filters must have shape (processes, sources, bins)")
        if not np.all(np.isfinite(f)):
            raise ConfigError("filter responses must be finite")
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

    def sample_at(self, bins, rows, trials: int, seed: int) -> np.ndarray:
        """(len(rows), trials) spectral-line draws, one row per (process,
        slot) pair of ``rows``: X_process at ``bins[slot]``.

        Bins are taken mod N.  The white sources are drawn at every distinct
        bin, whichever rows are asked for, and repeated bins reuse the same
        draws, as they must (the same spectral line cannot be redrawn).  Only
        the requested rows are contracted.
        """
        bins = np.mod(np.asarray(bins, dtype=int), self.grid_size)
        uniq, inverse = np.unique(bins, return_inverse=True)
        w = _normals(seed, self.filters.shape[1], uniq.size, trials)

        def row(p, slot):
            u = inverse[slot]
            b = uniq[u]
            return np.einsum("psu,sut->put", self.filters[p:p + 1, :, b:b + 1],
                             w[:, u:u + 1, :])[0, 0]

        return np.stack([row(p, slot) for p, slot in rows])

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


def _slot_bins(f: int, u: int, offsets, n_grid: int):
    f1, f2, f3, f4 = offsets
    return np.mod(np.array([f + f1, f + f1 + f2, f + f2,
                            u + f3, u + f3 + f4, u + f4]), n_grid)


def _pairing_reference(spectrum, pattern, bins) -> complex:
    """Independent exact value: CGMT pairing sum on the six slot variables."""
    cov = np.zeros((6, 6), dtype=complex)
    for i in range(6):
        for j in range(6):
            if bins[i] == bins[j]:
                cov[i, j] = spectrum(pattern[i], pattern[j])[bins[i]]
    spec = MomentSpec(conjugated=(1, 3, 5), unconjugated=(0, 2, 4))
    return _pairing_sum(cov, spec)


def _line_moment(procs, pattern, bins, trials, seed):
    """MC estimate of E[S0 S1* S2 S3* ...]: slot i holds process pattern[i]
    at bins[i], odd slots conjugated (two slots for Theorem 1, six for 3).

    The product is built in place: the literal chain a*conj(b)*c... runs
    in place too once NumPy elides its temporaries (256 KiB and up), and a
    rebinding loop (prod = prod * x) would not give the chain's bits."""
    s = procs.sample_at(bins, [(p, i) for i, p in enumerate(pattern)],
                        trials, seed)
    prod = s[0] * np.conj(s[1])
    for i in range(2, len(pattern), 2):
        prod *= s[i]
        prod *= np.conj(s[i + 1])
    return _mean_stderr(prod)


def theorem1_discrete_check(processes: StationaryProcessSet, trials: int,
                            seed: int, threads: int = 1) -> CheckReport:
    """Spectral uncorrelatedness: E[Xp(nu) Xq*(mu)] = G_pq(nu) kron(nu-mu);
    the checks run on ``threads`` workers, each from its own seed."""
    p_max = processes.num_processes - 1
    configs = [
        ("t1-auto-diagonal", 0, 0, 3, 3),
        ("t1-cross-diagonal", 0, min(1, p_max), 5, 5),
        ("t1-auto-offdiagonal", 0, 0, 3, 9),
        ("t1-cross-offdiagonal", min(2, p_max), min(1, p_max), 7, 20),
    ]

    def run(idx):
        name, p, q, nu, mu = configs[idx]
        bins = np.mod(np.array([nu, mu]), processes.grid_size)
        est, stderr = _line_moment(processes, (p, q), bins, trials, seed + idx)
        expected = complex(processes.spectrum(p, q)[bins[0]]) \
            if bins[0] == bins[1] else 0.0 + 0.0j
        return _score(name, est, stderr, expected)

    return CheckReport(checks=ordered_map(run, range(len(configs)), threads))


def theorem2_check(k: int, num_ensembles: int, trials: int, seed: int,
                   threads: int = 1) -> CheckReport:
    """CGMT permutation sum vs direct sampling on random ensembles.

    Also reproduces the single-variable classics E|U|^4 = 2 sigma^4 and
    E|U|^6 = 6 sigma^6, after the ensembles.  The ensembles run on
    ``threads`` worker threads; each has its own seeds, so ``threads`` never
    changes a result or the order of the checks.
    """
    if not 1 <= k <= MAX_MOMENT_ORDER:
        raise ConfigError(f"k must be in [1, {MAX_MOMENT_ORDER}], got {k}")
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
    two-term survival and the fully independent white null.  Every expected
    value is the literal six-term formula, cross-checked exactly against an
    independent pairing-sum evaluation (the ``formula_gap`` of each result).
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
        bins = _slot_bins(ff, uu, offsets, procs.grid_size)
        # one G_pq table per pair for the check, shared by both exact values
        spectrum = functools.cache(procs.spectrum)
        expected = _six_term_formula(spectrum, procs.grid_size, pattern, ff,
                                     uu, offsets)
        reference = _pairing_reference(spectrum, pattern, bins)
        gap = abs(expected - reference)
        est, stderr = _line_moment(procs, pattern, bins, trials,
                                   seed + 7919 * idx)
        return _score(name, est, stderr, expected, formula_gap=gap,
                      gap_scale=abs(expected))

    return CheckReport(checks=ordered_map(run, range(len(configs)), threads))
