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
  takes cells of exactly the step, the last of which may reach past the
  support end, where the shape is 0.  The integrand is then continuous
  with a continuous slope across every cell, so the midpoint rule is
  second order without aligning to the support, and output points a whole
  number of steps apart share one lattice (below).
|eta|^2 is taken at the cell-midpoint product f1*f2 through the closed-form
kernel.

The cell axes are built once per request, and |eta|^2 is evaluated once per
*run* of output points rather than once per point.  Moving the output point
by a whole number of cells on both axes only slides the (f1, f2) midpoints
along one lattice, so consecutive grid points whose shifts from the run's
first point are whole numbers of cells (within 1e-9 of a cell width) share
one |eta|^2 table on that lattice, and each point sums over its n1 x n2
window of it.  A run stops growing before its table would exceed twice one
point's n1*n2 grid.  A point at a fractional shift from the current run's
first point starts a new run; a point that shares no lattice with a
neighbour is a run of one, whose table is its own grid.  Runs are the unit
of work of the thread pool, so results do not depend on the thread count.

The PSD factors are sampled once per term or run, not once per point:
* f + f1 = lo1 + (i + 1/2) h1 does not depend on f, so main and partner are
  evaluated once per term on their axes' midpoints;
* when both axes have the same cell width h (every SPM run, and XPolM when
  both shapes get the same width), cell (i, j) of the point shifted by s
  cells from the run's first point f0 sits at f + f1 + f2 = lo1 + lo2 - f0
  + (i + j + 1 - s) h.  The third factor is evaluated once per run on those
  n1 + n2 - 1 + (max s - min s) anti-diagonal values, and each point reads
  its n1 x n2 third factor as a zero-copy Hankel view of that vector
  (``sliding_window_view``);
* when the widths differ, the third factor is evaluated at each point's own
  f + f1 + f2.
Each point's sum a @ ((c * w) @ b), with a and b the main and partner
vectors, c the third factor and w the |eta|^2 window, is one n1 x n2
multiply and a matrix-vector product.

A run's table is filled only where the integrand can be nonzero and some
point reads it.  The third factor Ghat(f + f1 + f2) is exactly 0 outside its
support (lo3, hi3), so a cell whose f1 + f2 lies outside [lo3 - max f,
hi3 - min f] over the run's points contributes nothing at any of them: for
rectangular spectra this band is the GN model's lozenge-shaped domain.
Each row of the table keeps the one interval of columns (lat2 is
increasing) whose lat1 + lat2 lies in that range widened by one cell, which
absorbs the rounding between the lattice coordinates and the third factor's
own, cut to the hull of the columns that the points' windows read in that
row; every other cell stays 0.  The bits cannot change:
* a skipped cell that some point reads has third factor c == 0 there, so
  its product c*w is +0 whatever w holds, and every sum keeps its bits; a
  cell that no point reads is never multiplied;
* eta of an array is elementwise to the bit at any array length
  (``normalized_kernel_grid``), so the cells that are evaluated keep
  theirs.  When the axes are equal (every SPM run), f1 f2 == f2 f1
  exactly, so each row's interval starts no earlier than the diagonal and
  the values are mirrored;
* the band is selected one row block of at most one point's grid at a
  time, so memory stays within a small multiple of the per-point
  integrand;
* on a dispersion-free link (``KernelModel.flat``) eta is one constant: it
  is evaluated at one product and broadcast, and no table is evaluated.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    at its ends is divided into a whole number of cells of at most this
    size, one continuous at its ends is covered by cells of exactly this
    size (see the module docstring).  The step must not exceed 1/16 of any
    nonzero support width.
    """

    psd: DualPolPsd
    kernel: KernelModel
    output_grid_hz: np.ndarray
    inner_grid_step_hz: float
    include_phase_term: bool = True

    def __post_init__(self):
        grid = np.atleast_1d(np.asarray(self.output_grid_hz, dtype=float))
        if grid.size == 0 or not np.all(np.isfinite(grid)):
            raise ValueError("output grid must be non-empty and finite")
        self.output_grid_hz = grid
        if not self.inner_grid_step_hz > 0:
            raise ValueError(f"inner grid step must be > 0, got {self.inner_grid_step_hz}")
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


def _cell_axis(shape: PsdShape, step: float):
    """Midpoint axis from the support start: (support start, cell width h,
    midpoint offsets (i + 1/2) h).

    A shape that jumps at its support ends gets ceil(width/step) cells that
    divide the support exactly.  A shape continuous at its ends gets cells
    of exactly ``step``, the last of which may reach past the support end;
    when the width is a whole number of steps (within _WHOLE_CELL_TOL) that
    is the support-aligned axis of that many cells.
    """
    lo, hi = shape.support
    cells = max(1, int(np.ceil((hi - lo) / step)))
    if shape.continuous_at_ends:
        whole = _whole_cells(hi - lo, step)
        if whole is None:
            return lo, step, (np.arange(cells) + 0.5) * step
        cells = max(1, whole)
    h = (hi - lo) / cells
    return lo, h, (np.arange(cells) + 0.5) * h


def _runs(grid: np.ndarray, axes) -> list:
    """Split the grid into runs of consecutive points on one cell lattice.

    A point joins the current run when its shift from the run's first point
    is a whole number of cells on both axes and the run's table, n1 plus the
    spread of the axis-1 shifts by n2 plus the spread of the axis-2 shifts,
    stays within _TABLE_GROWTH * n1 * n2.  Returns (indices, shifts1,
    shifts2) per run, shifts in cells from the run's first point.
    """
    (_, h1, off1), (_, h2, off2) = axes
    n1, n2 = off1.size, off2.size
    runs = []
    for k in range(grid.size):
        if runs:
            idx, s1, s2 = runs[-1]
            shift = grid[k] - grid[idx[0]]
            c1, c2 = _whole_cells(shift, h1), _whole_cells(shift, h2)
            if c1 is not None and c2 is not None:
                rows = n1 + max(max(s1), c1) - min(min(s1), c1)
                cols = n2 + max(max(s2), c2) - min(min(s2), c2)
                if rows * cols <= _TABLE_GROWTH * n1 * n2:
                    idx.append(k)
                    s1.append(c1)
                    s2.append(c2)
                    continue
        runs.append(([k], [0], [0]))
    return runs


def _eta2_table(kernel, lat1, lat2, start, stop, block_size):
    """|eta(f1 f2)|^2 on the lattice lat1 x lat2 in the columns [start[r],
    stop[r]) of each row r, 0 elsewhere, filled as the module docstring
    describes: broadcast constant, or per-row column intervals in row blocks
    of at most ``block_size`` cells, mirrored when the axes are equal."""
    shape = (lat1.size, lat2.size)
    if kernel.flat:
        eta = normalized_kernel_grid(kernel, lat1[:1] * lat2[:1])
        return np.broadcast_to(eta.real**2 + eta.imag**2, shape)
    symmetric = np.array_equal(lat1, lat2)
    if symmetric:
        start = np.maximum(start, np.arange(lat1.size))
    table = np.zeros(shape)
    columns = np.arange(lat2.size)
    block = max(1, block_size // lat2.size)
    for r in range(0, lat1.size, block):
        band = (start[r:r + block, None] <= columns) \
            & (columns < stop[r:r + block, None])
        eta = normalized_kernel_grid(kernel, (lat1[r:r + block, None] * lat2)[band])
        values = eta.real**2 + eta.imag**2
        table[r:r + block][band] = values
        if symmetric:
            table[:, r:r + block].T[band] = values
    return table


def _read_columns(first1, first2, n1, n2, rows):
    """Per table row, the hull [start, stop) of the columns that the n1 x n2
    windows at (first1, first2) read in it; an empty interval for a row that
    no window reads."""
    row = np.arange(rows)[:, None]
    inside = (first1 <= row) & (row < first1 + n1)
    return (np.where(inside, first2, first2.max()).min(axis=1),
            np.where(inside, first2 + n2, 0).max(axis=1))


def _integrate_run(kernel, third, axes, factors, grid, run) -> np.ndarray:
    """II |eta(f1 f2)|^2 main(f+f1) partner(f+f2) third(f+f1+f2) df1 df2 at
    every point f of one run, from one |eta|^2 table on the run's lattice;
    ``factors`` holds main and partner on their axes' midpoints."""
    (lo1, h1, off1), (lo2, h2, off2) = axes
    a, b = factors
    idx, s1, s2 = run
    n1, n2 = off1.size, off2.size
    f0 = float(grid[idx[0]])
    top1, top2 = max(s1), max(s2)
    # lattice coordinates relative to the first point: the window of the
    # point shifted by (c1, c2) cells starts at row top1 - c1, column top2 - c2
    first1, first2 = top1 - np.array(s1), top2 - np.array(s2)
    lat1 = (lo1 - f0) + (np.arange(n1 + top1 - min(s1)) + 0.5 - top1) * h1
    lat2 = (lo2 - f0) + (np.arange(n2 + top2 - min(s2)) + 0.5 - top2) * h2
    # f + f1 + f2 of any point lies within [lo3, hi3] only on this band, and
    # of its columns a row needs only those that some point's window reads
    lo3, hi3 = third.support
    points = grid[idx]
    margin = max(h1, h2)
    start, stop = _read_columns(first1, first2, n1, n2, lat1.size)
    start = np.maximum(start, np.searchsorted(
        lat2, lo3 - points.max() - margin - lat1, side="left"))
    stop = np.minimum(stop, np.searchsorted(
        lat2, hi3 - points.min() + margin - lat1, side="right"))
    table = _eta2_table(kernel, lat1, lat2, start, stop, n1 * n2)
    if h1 == h2:
        # cell (i, j) of the point shifted by c cells sits at f + f1 + f2 =
        # lo1 + lo2 - f0 + (i + j + 1 - c) h: the run's anti-diagonals, read
        # by each point through a Hankel view
        diagonals = np.arange(n1 + n2 - 1 + top1 - min(s1)) + 1 - top1
        hankel = sliding_window_view(
            third.evaluate((lo1 + lo2 - f0) + diagonals * h1), n2)
    values = np.empty(len(idx))
    for j, (k, r, c) in enumerate(zip(idx, first1, first2)):
        if h1 == h2:
            third_factor = hankel[r:r + n1]
        else:
            f = float(grid[k])
            third_factor = third.evaluate(
                f + ((lo1 - f) + off1)[:, None] + ((lo2 - f) + off2))
        weight = table[r:r + n1, c:c + n2]
        values[j] = h1 * h2 * (a @ ((third_factor * weight) @ b))
    return values


def nli_psd_x(req: GnRequest, threads: int = 1) -> NliPsdResult:
    """NLI PSD received by the X polarization."""
    psd = req.psd
    gx, gy = psd.gx, psd.gy
    grid = req.output_grid_hz
    spm = np.zeros(grid.size)
    xpolm = np.zeros(grid.size)
    tasks = []
    for out, scale, shapes in ((spm, 2.0, (gx, gx, gx)),
                               (xpolm, 1.0, (gx, gy, gy))):
        if min(shape.power_integral() for shape in shapes) <= 0:
            continue
        axes = tuple(_cell_axis(shape, req.inner_grid_step_hz)
                     for shape in shapes[:2])
        factors = tuple(shape.evaluate(lo + off)
                        for shape, (lo, _, off) in zip(shapes, axes))
        tasks += [(out, scale, shapes[2], axes, factors, run)
                  for run in _runs(grid, axes)]

    def compute(task):
        out, scale, *term, run = task
        out[run[0]] = scale * _integrate_run(req.kernel, *term, grid, run)

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

