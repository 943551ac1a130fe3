"""Kernel evaluators: closed form, quadrature, normalization, failure modes."""
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gnmodel import (KernelConvergenceError, KernelModel, LinkProfile, Span,
                     kernel_closed_form, kernel_quadrature, normalized_kernel,
                     normalized_kernel_grid)
from gnmodel import kernel
from gnmodel.kernel import PHASE_RATE, _exp_ratio

ALPHA = 0.2 * math.log(10.0) / 1.0e4


def single_span_model(**kwargs):
    span = Span(length_m=80e3, alpha_per_m=ALPHA, beta2_s2_per_m=-21.7e-27,
                gamma_per_w_m=1.3e-3)
    return KernelModel(link=LinkProfile(spans=(span,)), **kwargs)


def multi_span_model(**kwargs):
    spans = (
        Span(length_m=80e3, alpha_per_m=ALPHA, beta2_s2_per_m=-21.7e-27,
             gamma_per_w_m=1.3e-3, lumped_gain_db=16.0),
        Span(length_m=60e3, alpha_per_m=1.25 * ALPHA, beta2_s2_per_m=5.1e-27,
             gamma_per_w_m=1.8e-3, lumped_gain_db=15.0),
        Span(length_m=100e3, alpha_per_m=0.9 * ALPHA, beta2_s2_per_m=-16.0e-27,
             gamma_per_w_m=1.1e-3, lumped_gain_db=18.0),
    )
    return KernelModel(link=LinkProfile(spans=spans, xi_pre_s2=3.0e-24),
                       **kwargs)


# property tests of the bit contract, bounded; conftest.py's profile makes
# them reproducible
BIT_CONTRACT = settings(max_examples=30)

# F of both signs over the full range, with the edge values drawn explicitly
F_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1e30, -1e30]),
                     st.floats(-1e30, 1e30, allow_nan=False))
F_ARRAYS = hnp.arrays(float, st.integers(1, 300), elements=F_VALUES)

# links without dispersion: 1-4 spans, lossless spans included, no
# pre-dispersion
FLAT_SPANS = st.builds(
    Span,
    length_m=st.floats(1e3, 1.5e5),
    alpha_per_m=st.sampled_from([0.0, ALPHA]) | st.floats(0.0, 3 * ALPHA),
    beta2_s2_per_m=st.just(0.0),
    gamma_per_w_m=st.floats(1e-4, 3e-3),
    lumped_gain_db=st.floats(0.0, 20.0),
)
FLAT_LINKS = st.builds(LinkProfile, spans=st.lists(FLAT_SPANS, min_size=1,
                                                   max_size=4).map(tuple))


def links(max_spans):
    """Links of 1 to ``max_spans`` spans: lossy and lossless, dispersion of
    either sign or none, lumped gains, with and without pre-dispersion."""
    return st.builds(
        LinkProfile,
        spans=st.lists(st.builds(
            Span,
            length_m=st.floats(1e3, 1.5e5),
            alpha_per_m=st.sampled_from([0.0, ALPHA])
            | st.floats(0.0, 3 * ALPHA),
            beta2_s2_per_m=st.just(0.0) | st.floats(-30e-27, 30e-27),
            gamma_per_w_m=st.floats(1e-4, 3e-3),
            lumped_gain_db=st.floats(0.0, 20.0),
        ), min_size=1, max_size=max_spans).map(tuple),
        xi_pre_s2=st.just(0.0) | st.floats(-5e-24, 5e-24),
    )


LINKS = links(4)

# criterion 1's range: at |F| = 3e22 these links need at most 1.4e4 initial
# cells per span (|beta2 theta| L / (pi/8)), so seven doublings still fit
# the default budget of 2**21 cells
QUADRATURE_F = st.floats(-3e22, 3e22)


def lossless_span_model():
    span = Span(length_m=80e3, alpha_per_m=0.0, beta2_s2_per_m=-21.7e-27,
                gamma_per_w_m=1.3e-3)
    return KernelModel(link=LinkProfile(spans=(span,)))


def _bits(values):
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


def _reference_series(z):
    # degree-12 Horner series for (e^z - 1)/z; truncation < 1e-30 at |z| ~ 1e-2
    ref = np.zeros_like(np.asarray(z, dtype=complex))
    for fac in [math.factorial(n) for n in range(13, 1, -1)]:
        ref = 1.0 / fac + z * ref
    return 1.0 + z * ref


class TestExpRatio:
    def test_series_matches_higher_order_reference(self):
        rng = np.random.default_rng(3)
        radius = rng.uniform(1e-8, 0.99e-2, 200)
        z = radius * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
        np.testing.assert_allclose(_exp_ratio(z), _reference_series(z),
                                   rtol=5e-15, atol=0)

    def test_branches_agree_near_threshold(self):
        # just outside: direct formula, cancellation noise ~ eps / |z|
        phases = np.exp(2j * np.pi * np.linspace(0, 1, 11, endpoint=False))
        outside = 1.0001e-2 * phases
        np.testing.assert_allclose(_exp_ratio(outside),
                                   _reference_series(outside),
                                   rtol=5e-14, atol=0)
        # just inside: series branch vs direct evaluation done here
        inside = 0.9999e-2 * phases
        np.testing.assert_allclose(_exp_ratio(inside),
                                   (np.exp(inside) - 1.0) / inside,
                                   rtol=5e-14, atol=0)

    def test_large_argument_exact_formula(self):
        z = 3.0 - 2.0j
        assert _exp_ratio(z) == pytest.approx((np.exp(z) - 1.0) / z, rel=1e-15)

    def test_at_zero(self):
        assert complex(_exp_ratio(0.0)) == 1.0 + 0.0j


class TestClosedForm:
    def test_k0_matches_effective_length_formula(self):
        model = single_span_model()
        expected = (8.0 / 9.0) * 1.3e-3 * (1.0 - math.exp(-ALPHA * 80e3)) / ALPHA
        assert model.k0.real == pytest.approx(expected, rel=1e-14)
        assert model.k0.imag == 0.0

    def test_single_span_hand_transcription(self):
        # independent transcription: K(F) = g' e^{-j xi th} (e^{wL}-1)/w
        xi = 2.0e-24
        span = Span(length_m=80e3, alpha_per_m=ALPHA, beta2_s2_per_m=-21.7e-27,
                    gamma_per_w_m=1.3e-3)
        model = KernelModel(link=LinkProfile(spans=(span,), xi_pre_s2=xi))
        for F in (1e17, -3.3e20, 7.7e21):
            theta = PHASE_RATE * F
            w = complex(-ALPHA, -21.7e-27 * theta)
            hand = (8.0 / 9.0) * 1.3e-3 * np.exp(-1j * xi * theta) \
                * (np.exp(w * 80e3) - 1.0) / w
            assert kernel_closed_form(model, F) == pytest.approx(hand, rel=1e-12)

    def test_hermitian_symmetry_is_exact(self):
        model = multi_span_model()
        F = np.logspace(16, 22, 40)
        np.testing.assert_array_equal(kernel_closed_form(model, -F),
                                      np.conj(kernel_closed_form(model, F)))

    def test_scalar_and_array_agree(self):
        model = multi_span_model()
        F = np.array([0.0, 1e18, -5e20])
        arr = kernel_closed_form(model, F)
        for i, f in enumerate(F):
            assert kernel_closed_form(model, float(f)) == arr[i]

    def test_manakov_factor_scales_kernel(self):
        span = Span(length_m=80e3, alpha_per_m=ALPHA, beta2_s2_per_m=-21.7e-27,
                    gamma_per_w_m=1.3e-3)
        manakov = KernelModel(link=LinkProfile(spans=(span,)))
        bare = KernelModel(link=LinkProfile(spans=(span,), manakov_factor=False))
        assert bare.k0.real == pytest.approx(9.0 / 8.0 * manakov.k0.real,
                                             rel=1e-14)


class TestQuadrature:
    def test_agrees_with_closed_form_single_span(self):
        model = single_span_model()
        for F in (0.0, 1e17, 3.2e21, -1e22):
            cf = complex(kernel_closed_form(model, F))
            assert kernel_quadrature(model, F) == pytest.approx(cf, rel=1e-9)

    def test_agrees_with_closed_form_across_lumped_gains(self):
        # regression: span-boundary samples must take the within-span limit,
        # not the post-amplifier value of the next span
        model = multi_span_model()
        for F in (0.0, 1e18, 8.9e20, 3e22):
            cf = complex(kernel_closed_form(model, F))
            assert kernel_quadrature(model, F) == pytest.approx(cf, rel=1e-9)

    def test_budget_exceeded_by_phase_criterion(self):
        model = single_span_model(max_cells_per_span=64)
        with pytest.raises(KernelConvergenceError, match="phase criterion"):
            kernel_quadrature(model, 3e22)

    @pytest.mark.parametrize("F", [1e38, 1e40, -1e300, 5e307, math.nan])
    def test_phase_criterion_beyond_int64_fails_at_once(self, F):
        # the count is compared with the budget before its int conversion,
        # which wraps past int64 (and maps NaN anywhere): the quadrature
        # would start at 8 cells and refine a meaningless integral instead
        with pytest.raises(KernelConvergenceError,
                           match="phase criterion needs"):
            kernel_quadrature(multi_span_model(), F)

    def test_budget_exceeded_during_refinement_carries_estimate(self):
        model = single_span_model(quadrature_tolerance=0.0,
                                  max_cells_per_span=32)
        with pytest.raises(KernelConvergenceError) as info:
            kernel_quadrature(model, 1e15)
        err = info.value
        # the extrapolated value of the last two levels: 7.7e-11 relative
        assert err.estimate == pytest.approx(
            complex(kernel_closed_form(model, 1e15)), rel=1e-10)
        assert 0 <= err.achieved_rel < math.inf

    def test_smallest_budget_stops_after_one_doubling(self):
        # 8 cells, then 16: the first extrapolated value is compared with
        # the initial Simpson value, which is exact on a lossless span at F=0
        span = Span(length_m=80e3, alpha_per_m=0.0, beta2_s2_per_m=-21.7e-27,
                    gamma_per_w_m=1.3e-3)
        model = KernelModel(link=LinkProfile(spans=(span,)),
                            max_cells_per_span=16)
        assert kernel_quadrature(model, 0.0) == pytest.approx(model.k0,
                                                              rel=1e-14)

    def test_criterion_1_grid_worst_error(self):
        # 1.47e-12 measured with the extrapolated stop, 6.5e-12 with the
        # plain Simpson stop
        model = multi_span_model()
        grid = np.logspace(16.0, math.log10(3.0e22), 200)
        closed = kernel_closed_form(model, grid)
        quad = np.array([kernel_quadrature(model, float(f)) for f in grid])
        assert np.max(np.abs(quad - closed) / np.abs(closed)) <= 2e-12


class TestNormalizedKernel:
    def test_eta_zero_is_exactly_one(self):
        model = multi_span_model()
        assert normalized_kernel(model, 0.0) == 1.0 + 0.0j

    def test_memoized_value_is_stable(self):
        model = single_span_model()
        first = normalized_kernel(model, 1.1e20)
        assert normalized_kernel(model, 1.1e20) == first
        assert first == kernel_closed_form(model, 1.1e20) / model.k0

    def test_grid_matches_per_point_with_duplicates(self):
        model = multi_span_model()
        F = np.array([[1e18, -1e18], [1e18, 0.0]])
        grid = normalized_kernel_grid(model, F)
        assert grid.shape == F.shape
        for idx in np.ndindex(F.shape):
            # scalar and vectorized ufunc paths may differ in the last ulp
            assert grid[idx] == pytest.approx(
                normalized_kernel(model, float(F[idx])), rel=1e-14)
        assert grid[0, 0] == grid[1, 0]

    def test_eta_magnitude_bounded_by_one_plus_eps(self):
        # |K(F)| <= integral |gamma' G| = K(0) for this all-real-gain link
        model = multi_span_model()
        eta = normalized_kernel_grid(model, np.logspace(15, 23, 200))
        assert np.all(np.abs(eta) <= 1.0 + 1e-12)


class TestGridBitContract:
    """normalized_kernel_grid is elementwise to the bit, and a constant on a
    dispersion-free link; the GN tables rely on both."""

    @BIT_CONTRACT
    @given(link=FLAT_LINKS, F=F_ARRAYS)
    def test_flat_link_kernel_is_k0_and_eta_one_constant(self, link, F):
        model = KernelModel(link=link)
        assert model.flat
        K = kernel_closed_form(model, F)
        assert np.array_equal(_bits(K), _bits(np.full(F.shape, model.k0)))
        eta = normalized_kernel_grid(model, F)
        assert eta.shape == F.shape
        # one constant, which the GN engine evaluates at a single product
        one = normalized_kernel_grid(model, F[:1])
        assert np.array_equal(_bits(eta), _bits(np.full(F.shape, one[0])))
        # 1+0j up to the last bit of the division; +0 imaginary
        assert np.all(eta.real >= np.nextafter(1.0, 0.0)) \
            and np.all(eta.real <= 1.0)
        assert np.all(eta.imag == 0.0) and not np.any(np.signbit(eta.imag))

    def test_flat_eta_is_the_evaluated_ratio(self):
        # criterion 2's span.  The array division K(0)/K(0) is not assumed
        # to give 1+0j: NumPy divides by multiplying with a reciprocal, and
        # on this span the constant has been seen to round to 1 - 2**-53,
        # so writing exact ones would move output bits of such links
        span = Span(length_m=80e3, alpha_per_m=ALPHA, beta2_s2_per_m=0.0,
                    gamma_per_w_m=1.3e-3)
        model = KernelModel(link=LinkProfile(spans=(span,)))
        F = np.array([0.0, -3e20, 1e30])
        assert np.array_equal(_bits(normalized_kernel_grid(model, F)),
                              _bits(kernel_closed_form(model, F) / model.k0))
        assert normalized_kernel(model, 0.0) == 1.0 + 0.0j

    def test_flat_needs_zero_beta2_and_zero_pre_dispersion(self):
        flat = Span(length_m=80e3, alpha_per_m=ALPHA, beta2_s2_per_m=0.0,
                    gamma_per_w_m=1.3e-3)
        assert KernelModel(link=LinkProfile(spans=(flat,))).flat
        assert not KernelModel(link=LinkProfile(
            spans=(flat,), xi_pre_s2=1e-27)).flat
        assert not single_span_model().flat
        assert not multi_span_model().flat

    @BIT_CONTRACT
    @given(F=F_ARRAYS, lossless=st.booleans())
    def test_grid_values_do_not_depend_on_position(self, F, lossless):
        # the lossless span mixes series and direct branches within a call
        model = lossless_span_model() if lossless else multi_span_model()
        whole = normalized_kernel_grid(model, F)
        chunks = np.concatenate([normalized_kernel_grid(model, F[i:i + 7])
                                 for i in range(0, F.size, 7)])
        reverse = normalized_kernel_grid(model, F[::-1])[::-1]
        assert np.array_equal(_bits(chunks), _bits(whole))
        assert np.array_equal(_bits(reverse), _bits(whole))

    def test_large_array_equals_its_pieces(self):
        # from 16,384 complex values on, NumPy evaluates `a * <temporary>`
        # in place as `<temporary> *= a`, and the swapped complex product
        # rounds differently; criterion 1's link keeps a complex amplitude
        # on every span, so each product must name its operand order
        model = multi_span_model()
        F = np.random.default_rng(20000).uniform(-3e20, 3e20, 20_000)
        whole = normalized_kernel_grid(model, F)
        pieces = np.concatenate([normalized_kernel_grid(model, F[i:i + 1000])
                                 for i in range(0, F.size, 1000)])
        assert np.array_equal(_bits(pieces), _bits(whole))

    @BIT_CONTRACT
    @given(lat=hnp.arrays(float, st.integers(1, 40),
                          elements=st.floats(-4e10, 4e10)),
           lossless=st.booleans())
    def test_triangle_equals_whole_table(self, lat, lossless):
        model = lossless_span_model() if lossless else multi_span_model()
        whole = normalized_kernel_grid(model, lat[:, None] * lat[None, :])
        rows, cols = np.triu_indices(lat.size)
        tri = normalized_kernel_grid(model, lat[rows] * lat[cols])
        assert np.array_equal(_bits(whole[rows, cols]), _bits(tri))
        assert np.array_equal(_bits(whole[cols, rows]), _bits(tri))


def two_exp_closed_form(model, F):
    """The closed form with the phase factor exp(-j C_i theta) taken on every
    span, kept as the bit reference of ``kernel_closed_form``, which skips
    that factor where C_i == 0: it is exactly 1 with a +-0 imaginary part
    there."""
    theta = PHASE_RATE * np.asarray(F, dtype=float)
    out = np.zeros(theta.shape, dtype=complex)
    for i in range(len(model._length)):
        w = -model._alpha[i] + 1j * model._beta2[i] * theta
        amp = model._gamma_eff[i] * model._g0[i] * model._length[i]
        out += amp * np.exp(-1j * model._c0[i] * theta) \
            * _exp_ratio(w * model._length[i])
    return out


def flat_span_model():
    span = Span(length_m=80e3, alpha_per_m=ALPHA, beta2_s2_per_m=0.0,
                gamma_per_w_m=1.3e-3)
    return KernelModel(link=LinkProfile(spans=(span,)))


# the demo span, a lossless span (series branch near F = 0), a flat link,
# all starting at zero cumulated dispersion, and the 3-span link with
# pre-dispersion, whose every span keeps its phase factor
PHASE_MODELS = [single_span_model, lossless_span_model, flat_span_model,
                multi_span_model]


class TestPhaseFactorBitContract:
    @pytest.mark.parametrize("make_model", PHASE_MODELS,
                             ids=lambda make: make.__name__)
    def test_edge_values(self, make_model):
        model = make_model()
        F = np.array([0.0, -0.0, 1e30, -1e30, -3.3e20, -1e15, 1e17, 7.7e21])
        assert np.array_equal(_bits(kernel_closed_form(model, F)),
                              _bits(two_exp_closed_form(model, F)))
        for value in F:
            assert np.array_equal(_bits(kernel_closed_form(model, value)),
                                  _bits(two_exp_closed_form(model, value)))

    @pytest.mark.parametrize("make_model", PHASE_MODELS,
                             ids=lambda make: make.__name__)
    def test_phase_overflow_is_not_finite_on_both_sides(self, make_model):
        # theta = (2 pi)^2 F overflows to +-inf
        model = make_model()
        F = np.array([1e307, -1e307, 1.7e308])
        with np.errstate(all="ignore"):
            got = kernel_closed_form(model, F)
            reference = two_exp_closed_form(model, F)
        assert not np.any(np.isfinite(got))
        assert not np.any(np.isfinite(reference))

    @BIT_CONTRACT
    @given(F=F_ARRAYS, make_model=st.sampled_from(PHASE_MODELS))
    def test_equals_two_exp_formula(self, F, make_model):
        model = make_model()
        assert np.array_equal(_bits(kernel_closed_form(model, F)),
                              _bits(two_exp_closed_form(model, F)))


class TestKernelInvariants:
    @BIT_CONTRACT
    @given(link=LINKS, F=QUADRATURE_F)
    def test_quadrature_agrees_with_closed_form(self, link, F):
        model = KernelModel(link=link)
        closed = kernel_closed_form(model, F)
        # worst 1.6e-12 over 400 derandomized examples, 2.0e-12 over 3,000
        assert abs(kernel_quadrature(model, F) - closed) <= 1e-11 * abs(closed)

    @BIT_CONTRACT
    @given(link=LINKS, F=F_ARRAYS)
    def test_hermitian_symmetry_is_bit_exact(self, link, F):
        model = KernelModel(link=link)
        negative = kernel_closed_form(model, -F)
        conjugate = np.conj(kernel_closed_form(model, F))
        assert np.array_equal(negative, conjugate)
        # bit for bit, except the sign of an imaginary part that rounds to
        # zero (F = 0 or tiny |F|): +0 at -F, -0 in the conjugate
        nonzero = conjugate.imag != 0.0
        assert np.array_equal(_bits(negative[nonzero]),
                              _bits(conjugate[nonzero]))
        assert np.array_equal(_bits(negative.real), _bits(conjugate.real))
        assert normalized_kernel(model, 0.0) == 1.0 + 0.0j


def expression_integrand(model, i, theta, s):
    """The quadrature integrand as one grouped expression with temporaries,
    kept as the bit reference of the in-place ``_span_integrand``."""
    g = model._g0[i] * np.exp(-model._alpha[i] * s)
    c = model._c0[i] - model._beta2[i] * s
    return model._gamma_eff[i] * g * np.exp(-1j * theta * c)


def expression_midpoint_sums(model, theta, cells):
    return np.array([
        np.sum(expression_integrand(
            model, i, theta, (np.arange(n) + 0.5) * (model._length[i] / n)))
        for i, n in enumerate(cells)])


def expression_quadrature(model, F):
    with mock.patch.object(kernel, "_span_integrand", expression_integrand), \
            mock.patch.object(kernel, "_midpoint_sums",
                              expression_midpoint_sums):
        return kernel_quadrature(model, F)


# +-0, small |F| that converges within a few levels, and criterion 1's range
QUADRATURE_BIT_F = st.one_of(st.sampled_from([0.0, -0.0]),
                             st.floats(-1e17, 1e17), QUADRATURE_F)


class TestQuadratureBitContract:
    @pytest.mark.parametrize("F", [0.0, -0.0, 1e16, -2.5e19, 7e21, 3e22,
                                   -3e22])
    def test_criterion_1_link(self, F):
        model = multi_span_model()
        assert np.array_equal(_bits(kernel_quadrature(model, F)),
                              _bits(expression_quadrature(model, F)))

    @settings(max_examples=60)
    @given(link=links(3), F=QUADRATURE_BIT_F)
    def test_equals_expression_integrand(self, link, F):
        model = KernelModel(link=link)
        assert np.array_equal(_bits(kernel_quadrature(model, F)),
                              _bits(expression_quadrature(model, F)))

    def test_integrand_alone(self):
        # the value keeps its bits, and the positions it overwrites are not
        # the array it returns
        model = multi_span_model()
        s = np.linspace(0.0, model._length[1], 33)
        want = expression_integrand(model, 1, PHASE_RATE * 3e21, s.copy())
        got = kernel._span_integrand(model, 1, PHASE_RATE * 3e21, s)
        assert np.array_equal(_bits(got), _bits(want))
        assert not np.shares_memory(got, s)


class TestQuadratureMemory:
    # traced peak of one F = 3e22 call on criterion 1's link: 1,474,368
    # bytes with the extrapolated stop, 10,858,816 with the plain Simpson
    # stop (two more doublings), 21,450,424 with that stop and a temporary
    # per elementwise step
    PEAK_BYTES = 1_474_368

    def test_traced_peak_of_one_call(self):
        model = multi_span_model()
        tracemalloc.start()
        try:
            kernel_quadrature(model, 3e22)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * self.PEAK_BYTES


class TestQuadratureWorkCount:
    """Integrand midpoints that ``kernel_quadrature`` evaluates on the
    ``kernel_quadrature`` benchmark grid: 643,170 with the extrapolated stop,
    5,401,346 with the plain Simpson stop.  A wrong extrapolation
    coefficient still converges, at h^4, and fails here."""

    GRID_MIDPOINTS = 643_170

    def test_benchmark_grid(self):
        counted = []
        midpoint_sums = kernel._midpoint_sums

        def counting(model, theta, cells):
            counted.append(int(np.sum(cells)))
            return midpoint_sums(model, theta, cells)

        model = multi_span_model()
        grid = [*np.logspace(16.0, math.log10(3.0e22), 50), 0.0]
        with mock.patch.object(kernel, "_midpoint_sums", counting):
            for F in grid:
                kernel_quadrature(model, float(F))
        assert 0 < sum(counted) <= self.GRID_MIDPOINTS
