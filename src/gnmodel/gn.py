"""Analytic NLI PSD of the GN model on an output frequency grid.

For the X polarization the normalized NLI PSD (in units of Phi_NL^2) is

    Ghat_xp(f)/Phi^2 = 2 * II |eta(f1 f2)|^2 Ghat_x(f+f1) Ghat_x(f+f2)
                            Ghat_x(f+f1+f2) df1 df2                (SPM)
                     +     II |eta(f1 f2)|^2 Ghat_x(f+f1) Ghat_y(f+f2)
                            Ghat_y(f+f1+f2) df1 df2                (XPolM)
                     +     Ghat_x(f) * (2 Phat_x + Phat_y)^2       (phase term)

The phase term is present in RP1 mode and absent after the DP-ERP1 change
of variables.  Only the X formula is implemented: the Y result is the X
result of the swapped input (``DualPolPsd.swapped()``), which exchanges the
polarization roles everywhere, including the phase coefficient
(2 Phat_y + Phat_x)^2.

The double integrals are evaluated by a uniform midpoint rule whose cells
start at the compact supports: f1 covers support(main) - f and f2 covers
support(partner) - f, so the domain truncation is exact.  The cell width
follows the shape (``_cell_axis``):
* a shape that jumps at its support ends (a rectangle, a ``TabulatedPsd``)
  divides its support into a whole number of equal cells of at most the
  step, so its own jumps fall on cell edges, never inside a cell.  The
  third factor's jump still crosses cells, so on rectangles the rule is
  first order;
* a shape that meets 0 continuously, with a continuous slope, at its ends
  (``PsdShape.continuous_at_ends``: a raised cosine with roll-off > 0)
  takes ceil(width/step) cells of exactly the step, the last of which may
  reach past the support end, where the shape is 0.  The integrand is then
  continuous with a continuous slope across every cell, so the midpoint
  rule is second order without aligning to the support, and output points
  a whole number of steps apart share one lattice (below);
* on spectral lines (``GnRequest.on_lines``; the step is the line spacing
  f0) each shape gets one cell of width f0 centred on each line k*f0 of
  its support.  At an output line the rule is then the lattice sum
      f0^2 sum_{m,n} |eta(m n f0^2)|^2 g_{k+m} g'_{k+n} g''_{k+m+n}
  of the line values g_k = Ghat(k f0), which is exactly the mean of the
  Monte Carlo's DP-ERP1 estimator (``montecarlo``).  It is exact at any
  spacing, so the step is not held to 1/16 of a support.  The shapes are
  read through ``_Lines``, at the nearest line computed as k * f0 like the
  Monte Carlo's grid, so a line on a support end gets the value the trials
  give it; the phase term takes the line powers f0 * sum_k Ghat(k f0), so
  the RP1 mean is the DP-ERP1 mean plus (2 Px + Py)^2 Ghat_x(k f0) exactly.
|eta|^2 is taken at the cell-midpoint product f1*f2 through the closed-form
kernel.

The cell axes are built once per request, and |eta|^2 is evaluated once per
*run* of output points rather than once per point.  When both axes have one
cell width, moving the output point by a whole number of cells only slides
the (f1, f2) midpoints along one lattice, so consecutive grid points whose
shifts from the run's first point are whole numbers of cells (within 1e-9
of a cell width) share one |eta|^2 table on that lattice, and each point
sums over its n1 x n2 window of it.  A run stops growing before its table
would exceed twice one point's n1*n2 grid.  A point at a fractional shift
from the current run's first point starts a new run; on axes of unequal
widths every point is a run of one, whose table is its own grid.  Runs are
the unit of work of the thread pool, so results do not depend on the thread
count.

SPM and XPolM integrate the same kernel; only their PSD factors differ.
When XPolM's partner axis lies on the main axis's lattice (the same cell
width, and a whole number of cells between the support starts, within 1e-9
of a cell), the two terms share their tables (``_tables``): the runs are
formed once, on the hull of the two axes, and each run fills one square
table on that hull, from which a task sums both terms at all of the run's
points, XPolM's windows offset by the cells between the supports.  The
lattice coordinates are counted from the X support start, so SPM's are
those of a table of its own; XPolM's can differ from its own axis's only by
the rounding of that count, none where the coordinates are exact in binary.
Otherwise (the widths differ, or the supports start a fractional number of
cells apart) each term has tables of its own.

The PSD factors are sampled once per term or run, not once per point:
* f + f1 = lo1 + (i + 1/2) h1 does not depend on f, so main and partner are
  evaluated once per term on their axes' midpoints;
* when both axes have the same cell width h (every SPM run, and XPolM when
  both shapes get the same width), cell (i, j) of the point shifted by s
  cells from the run's first point f0 sits at f + f1 + f2 = lo1 + lo2 - f0
  + (i + j + 1 - s) h.  The third factor is evaluated once per run and
  term on those n1 + n2 - 1 + (max s - min s) anti-diagonal values, and
  each point reads its n1 x n2 third factor as a zero-copy Hankel view of
  that vector (``sliding_window_view``);
* when the widths differ, the run is one point, and the third factor is
  evaluated at its own f + f1 + f2.
Each point's sum a @ ((c * w) @ b), with a and b the main and partner
vectors, c the third factor and w the |eta|^2 window, is one n1 x n2
multiply and a matrix-vector product.

A run's table is filled only where some point reads a nonzero third factor.
Each term's third factor is evaluated for the whole run before the table is
filled, and the sums read the same arrays.  The window that starts r cells
into the run reads rows r .. r + n1 - 1 of the term's third factor (of the
anti-diagonals' Hankel view, or of a one-point run's own n1 x n2 array) at
the table cells (d1 + r, d2 + r) onwards, where (d1, d2) is the term's first
table cell.  A table cell is filled if and only if some window of some
term reads it (or, on equal axes, its transpose) against a nonzero third
factor; for rectangular spectra this is the GN model's lozenge-shaped
domain.  Every other cell stays 0.  The bits cannot change:
* a cell that is not evaluated is read only against a third factor c of
  exactly +0 or -0, so each of its products c*w is 0 with the sign of c,
  whatever finite w >= 0 holds, and every sum keeps its bits; a cell that
  no point reads is never multiplied;
* eta of an array is elementwise to the bit at any array length
  (``normalized_kernel_grid``), so the cells that are evaluated keep
  theirs.  When the axes are equal (every SPM table, and every shared
  one), f1 f2 == f2 f1 exactly, so only the upper triangle of the cells is
  evaluated and the values are mirrored.  The cells are first closed under
  transposition: an XPolM window is not symmetric, and the mirror fills
  its cells below the diagonal only from their transposes;
* the cells are marked once per table, one byte each, and evaluated one
  row block of at most one point's grid at a time, so memory stays within
  a small multiple of the per-point integrand;
* on a dispersion-free link (``KernelModel.flat``) eta is one constant: it
  is evaluated at one product and broadcast, and no table is evaluated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kernel import KernelModel, normalized_kernel_grid
from .parallel import ordered_map
from .spectra import DualPolPsd, PsdShape, phase_rotation_weight

__all__ = [
    "GnRequest",
    "NliPsdResult",
    "nli_psd_x",
    "phase_term_coefficient",
]


def phase_term_coefficient(px_hat: float, py_hat: float) -> float:
    """(2*Px_hat + Py_hat)^2, the deterministic phase-rotation weight.

    Algebraically identical to 4*Px^2 + 4*Px*Py + Py^2.
    """
    if px_hat < 0 or py_hat < 0:
        raise ValueError(f"power integrals must be >= 0, got {px_hat}, {py_hat}")
    return phase_rotation_weight(px_hat, py_hat) ** 2


@dataclass
class GnRequest:
    """One engine evaluation: input PSDs, kernel, grid and quadrature step.

    ``inner_grid_step_hz`` is the (f1, f2) cell size: a support that jumps
    at its ends is divided into ceil(width/step) equal cells, one continuous
    at its ends is covered by as many cells of exactly this size (see the
    module docstring).  The step must not exceed 1/16 of any nonzero
    support width.

    ``on_lines`` asks for the lattice sum over the spectral lines k * step
    instead (see the module docstring): the step is then the line spacing,
    at any ratio to the supports, and every output point must be a line.
    """

    psd: DualPolPsd
    kernel: KernelModel
    output_grid_hz: np.ndarray
    inner_grid_step_hz: float
    include_phase_term: bool = True
    on_lines: bool = False

    def __post_init__(self):
        grid = np.atleast_1d(np.asarray(self.output_grid_hz, dtype=float))
        if grid.size == 0 or not np.all(np.isfinite(grid)):
            raise ValueError("output grid must be non-empty and finite")
        self.output_grid_hz = grid
        if not self.inner_grid_step_hz > 0:
            raise ValueError(f"inner grid step must be > 0, got {self.inner_grid_step_hz}")
        if self.on_lines:
            lines = grid / self.inner_grid_step_hz
            if np.any(np.abs(lines - np.round(lines)) > _WHOLE_CELL_TOL):
                raise ValueError(f"output grid is not on the lines k * "
                                 f"{self.inner_grid_step_hz:g} Hz")
            return
        for name, shape in (("gx", self.psd.gx), ("gy", self.psd.gy)):
            if shape.power_integral() <= 0:
                continue
            lo, hi = shape.support
            if self.inner_grid_step_hz > (hi - lo) / 16.0:
                raise ValueError(
                    f"inner grid step {self.inner_grid_step_hz:g} Hz exceeds "
                    f"1/16 of the {name} support width {hi - lo:g} Hz"
                )


@dataclass
class NliPsdResult:
    """Per-frequency NLI PSD terms, normalized to Phi_NL^2.

    ``phase`` always holds the phase-term values; it enters ``total`` only
    when the request asked for it.  ``total_absolute_w_per_hz`` restores
    absolute units via G_xp = P0 * phi_nl^2 * (normalized total).
    """

    frequencies_hz: np.ndarray
    spm: np.ndarray
    xpolm: np.ndarray
    phase: np.ndarray
    include_phase_term: bool
    p0_w: float
    phi_nl: float

    @property
    def total(self) -> np.ndarray:
        if self.include_phase_term:
            return self.spm + self.xpolm + self.phase
        return self.spm + self.xpolm

    @property
    def total_absolute_w_per_hz(self) -> np.ndarray:
        return self.p0_w * self.phi_nl**2 * self.total


# a run's |eta|^2 table holds at most this many times one point's n1*n2 grid
_TABLE_GROWTH = 2
# a shift is a whole number of cells when within this fraction of a cell
_WHOLE_CELL_TOL = 1e-9


def _whole_cells(shift: float, h: float):
    cells = round(shift / h)
    return cells if abs(shift / h - cells) <= _WHOLE_CELL_TOL else None


@dataclass(frozen=True)
class _Lines(PsdShape):
    """``shape`` as the spectral lines k * spacing sample it.

    A frequency is read at its nearest line, computed as k * spacing like
    the Monte Carlo's grid, so lattice arithmetic cannot round a line across
    a support end; the power is the line power spacing * sum_k Ghat(k
    spacing).
    """

    shape: PsdShape
    spacing: float

    @property
    def indices(self) -> np.ndarray:
        """k of the lines in the support, at least one: ceil(lo / spacing)
        to floor(hi / spacing), within _WHOLE_CELL_TOL of a line, so a line
        on a support end is never lost to rounding."""
        lo, hi = self.shape.support
        first = math.ceil(lo / self.spacing - _WHOLE_CELL_TOL)
        last = math.floor(hi / self.spacing + _WHOLE_CELL_TOL)
        return np.arange(first, max(first, last) + 1)

    def evaluate(self, f):
        lines = np.round(np.asarray(f, dtype=float) / self.spacing)
        return self.shape.evaluate(lines * self.spacing)

    def power_integral(self) -> float:
        return self.spacing * float(np.sum(self.shape.evaluate(
            self.indices * self.spacing)))

    @property
    def support(self) -> tuple[float, float]:
        return self.shape.support


def _cell_axis(shape: PsdShape, step: float):
    """Midpoint axis from the support start: (support start, cell width h,
    midpoint offsets (i + 1/2) h).

    A shape that jumps at its support ends gets ceil(width/step) cells that
    divide the support exactly.  A shape continuous at its ends gets as many
    cells of exactly ``step``, the last of which may reach past the support
    end.  Spectral lines (``_Lines``) get one cell of width ``step``
    centred on each line of the support; the axis then starts half a cell
    before the first line.
    """
    if isinstance(shape, _Lines):
        lines = shape.indices
        return (lines[0] - 0.5) * step, step, (np.arange(lines.size) + 0.5) * step
    lo, hi = shape.support
    cells = max(1, int(np.ceil((hi - lo) / step)))
    h = step if shape.continuous_at_ends else (hi - lo) / cells
    return lo, h, (np.arange(cells) + 0.5) * h


def _runs(grid: np.ndarray, axes) -> list:
    """Split the grid into runs of consecutive points on one cell lattice.

    On axes of one cell width, a point joins the current run when its shift
    from the run's first point is a whole number of cells and the run's
    table, n1 plus the spread of the shifts by n2 plus that spread, stays
    within _TABLE_GROWTH * n1 * n2; on axes of unequal widths each point is
    a run of its own.  Returns (indices, shifts) per run, shifts in cells
    from the run's first point.
    """
    (_, h1, off1), (_, h2, off2) = axes
    n1, n2 = off1.size, off2.size
    runs = []
    for k in range(grid.size):
        if runs and h1 == h2:
            idx, shifts = runs[-1]
            c = _whole_cells(grid[k] - grid[idx[0]], h1)
            if c is not None:
                spread = max(max(shifts), c) - min(min(shifts), c)
                if (n1 + spread) * (n2 + spread) <= _TABLE_GROWTH * n1 * n2:
                    idx.append(k)
                    shifts.append(c)
                    continue
        runs.append(([k], [0]))
    return runs


def _tables(terms) -> list:
    """(table axes, terms) of each |eta|^2 table of a request.

    When XPolM's partner axis lies on the main axis's lattice (the same cell
    width, and a whole number of cells between the support starts), both
    terms read one square table on the hull of the two axes; otherwise each
    term has a table on its own two axes.  Each term records the table
    cells of its first main and partner cell.
    """
    if len(terms) == 2:
        (lo, h, off), (lo_y, h_y, off_y) = terms[1].axes
        gap = _whole_cells(lo_y - lo, h) if h_y == h else None
        if gap is not None:
            first = min(0, gap)
            cells = max(off.size, gap + off_y.size) - first
            hull = (lo + first * h, h, (np.arange(cells) + 0.5) * h)
            return [((hull, hull), [terms[0]._replace(cells=(-first, -first)),
                                    terms[1]._replace(cells=(-first,
                                                             gap - first))])]
    return [(term.axes, [term]) for term in terms]


def _eta2_table(kernel, lat1, lat2, starts, patterns, block_size):
    """|eta(f1 f2)|^2 on the lattice lat1 x lat2 where some window reads a
    nonzero third factor, 0 elsewhere.  Each entry ((d1, d2), n1, nonzero) of
    ``patterns`` holds one term's first table cell, its window height and
    where its third factor is nonzero; the window that starts at r in
    ``starts`` reads nonzero[r:r + n1] at table cells (d1 + r, d2 + r)
    onwards.  The table is filled as the module docstring describes:
    broadcast constant, or in row blocks of at most ``block_size`` cells;
    when the axes are equal, the cells are closed under transposition and
    their upper triangle evaluated and mirrored."""
    shape = (lat1.size, lat2.size)
    if kernel.flat:
        eta = normalized_kernel_grid(kernel, lat1[:1] * lat2[:1])
        return np.broadcast_to(eta.real**2 + eta.imag**2, shape)
    cells = np.zeros(shape, dtype=bool)
    for (d1, d2), n1, nonzero in patterns:
        n2 = nonzero.shape[1]
        for r in starts:
            cells[d1 + r:d1 + r + n1, d2 + r:d2 + r + n2] |= nonzero[r:r + n1]
    symmetric = np.array_equal(lat1, lat2)
    if symmetric:
        cells |= cells.T
        cells = np.triu(cells)
    table = np.zeros(shape)
    block = max(1, block_size // lat2.size)
    for r in range(0, lat1.size, block):
        band = cells[r:r + block]
        eta = normalized_kernel_grid(kernel, (lat1[r:r + block, None] * lat2)[band])
        values = eta.real**2 + eta.imag**2
        table[r:r + block][band] = values
        if symmetric:
            table[:, r:r + block].T[band] = values
    return table


class _Term(NamedTuple):
    """One GN term: II |eta(f1 f2)|^2 main(f+f1) partner(f+f2)
    third(f+f1+f2) df1 df2, times ``scale``, into ``out``."""

    out: np.ndarray
    scale: float
    third: PsdShape
    axes: tuple         # main and partner cell axes
    factors: tuple      # main and partner on their axes' midpoints
    cells: tuple = (0, 0)   # table cells of the first main and partner cell


def _integrate_run(kernel, axes, terms, grid, run) -> list:
    """Each term's integral at every point f of one run, from one |eta|^2
    table on the run's lattice; ``axes`` are the table's cell axes."""
    rows, cols = (off.size for _, _, off in axes)
    idx, shifts = run
    f0 = float(grid[idx[0]])
    top, spread = max(shifts), max(shifts) - min(shifts)
    # the window of the point shifted by c cells starts top - c cells after
    # the run's first cell on both of a term's axes
    starts = top - np.array(shifts)
    # lattice coordinates relative to the first point, from the first term's
    # axis starts
    (lo1, h1, _), (lo2, h2, _) = terms[0].axes
    d1, d2 = terms[0].cells
    lat1 = (lo1 - f0) + (np.arange(rows + spread) - d1 + 0.5 - top) * h1
    lat2 = (lo2 - f0) + (np.arange(cols + spread) - d2 + 0.5 - top) * h2
    thirds, patterns = [], []
    for term in terms:
        (lo1, h1, off1), (lo2, h2, off2) = term.axes
        if h1 == h2:
            # cell (i, j) of the point shifted by c cells sits at f + f1 + f2 =
            # lo1 + lo2 - f0 + (i + j + 1 - c) h: the run's anti-diagonals,
            # read through their Hankel view
            diagonals = term.third.evaluate((lo1 + lo2 - f0) + (
                np.arange(off1.size + off2.size - 1 + spread) + 1 - top) * h1)
            third, nonzero = (sliding_window_view(v, off2.size)
                              for v in (diagonals, diagonals != 0))
        else:
            # a run of one point: the third factor at its own f + f1 + f2
            third = term.third.evaluate(
                f0 + ((lo1 - f0) + off1)[:, None] + ((lo2 - f0) + off2))
            nonzero = third != 0
        thirds.append(third)
        patterns.append((term.cells, off1.size, nonzero))
    table = _eta2_table(kernel, lat1, lat2, starts, patterns, rows * cols)
    results = []
    for term, third in zip(terms, thirds):
        (_, h1, off1), (_, h2, off2) = term.axes
        (a, b), (d1, d2) = term.factors, term.cells
        n1, n2 = off1.size, off2.size
        results.append(np.array([
            h1 * h2 * (a @ ((third[r:r + n1] * table[d1 + r:d1 + r + n1,
                                                     d2 + r:d2 + r + n2]) @ b))
            for r in starts]))
    return results


def nli_psd_x(req: GnRequest, threads: int = 1) -> NliPsdResult:
    """NLI PSD received by the X polarization."""
    psd = req.psd
    if req.on_lines:
        psd = DualPolPsd(_Lines(psd.gx, req.inner_grid_step_hz),
                         _Lines(psd.gy, req.inner_grid_step_hz), psd.p0_w)
    gx, gy = psd.gx, psd.gy
    grid = req.output_grid_hz
    spm = np.zeros(grid.size)
    xpolm = np.zeros(grid.size)
    terms = []
    for out, scale, shapes in ((spm, 2.0, (gx, gx, gx)),
                               (xpolm, 1.0, (gx, gy, gy))):
        if min(shape.power_integral() for shape in shapes) <= 0:
            continue
        axes = tuple(_cell_axis(shape, req.inner_grid_step_hz)
                     for shape in shapes[:2])
        factors = tuple(shape.evaluate(lo + off)
                        for shape, (lo, _, off) in zip(shapes, axes))
        terms.append(_Term(out, scale, shapes[2], axes, factors))
    tasks = [(axes, group, run) for axes, group in _tables(terms)
             for run in _runs(grid, axes)]

    def compute(task):
        axes, group, run = task
        for term, values in zip(group, _integrate_run(req.kernel, axes, group,
                                                      grid, run)):
            term.out[run[0]] = term.scale * values

    ordered_map(compute, tasks, threads)

    coeff = phase_term_coefficient(psd.px_hat, psd.py_hat)
    phase = coeff * np.asarray(gx.evaluate(grid), dtype=float)
    return NliPsdResult(
        frequencies_hz=grid,
        spm=spm,
        xpolm=xpolm,
        phase=phase,
        include_phase_term=req.include_phase_term,
        p0_w=psd.p0_w,
        phi_nl=psd.p0_w * req.kernel.k0.real,
    )

