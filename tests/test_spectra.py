"""PSD shapes: evaluation, supports, exact power integrals, CSV loading."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gnmodel import (ConfigError, DualPolPsd, RaisedCosinePsd, RectangularPsd,
                     TabulatedPsd, phase_rotation_weight)


class TestRectangular:
    def test_values_inside_outside_and_at_edge(self):
        shape = RectangularPsd(center_hz=2e9, bandwidth_hz=10e9, height=1.5)
        assert shape.evaluate(2e9) == 1.5
        assert shape.evaluate(-2.9e9) == 1.5
        assert shape.evaluate(7e9) == 0.0   # edge excluded (open support)
        assert shape.evaluate(-3e9) == 0.0
        assert shape.evaluate(20e9) == 0.0

    def test_power_integral_and_support(self):
        shape = RectangularPsd(center_hz=2e9, bandwidth_hz=10e9, height=1.5)
        assert shape.power_integral() == 1.5 * 10e9
        assert shape.support == (-3e9, 7e9)

    def test_validation(self):
        for bandwidth in (0.0, math.inf):
            with pytest.raises(ValueError, match="bandwidth"):
                RectangularPsd(center_hz=0.0, bandwidth_hz=bandwidth, height=1.0)
        for height in (-1.0, math.inf):
            with pytest.raises(ValueError, match="height"):
                RectangularPsd(center_hz=0.0, bandwidth_hz=1.0, height=height)
        with pytest.raises(ValueError, match="center"):
            RectangularPsd(center_hz=math.nan, bandwidth_hz=1.0, height=1.0)

    def test_zero_height_is_a_valid_empty_shape(self):
        shape = RectangularPsd(center_hz=0.0, bandwidth_hz=1.0, height=0.0)
        assert shape.power_integral() == 0.0
        assert shape.evaluate(0.0) == 0.0


class TestRaisedCosine:
    def test_characteristic_points(self):
        b, r, h = 10e9, 0.4, 2.0
        shape = RaisedCosinePsd(center_hz=0.0, bandwidth_hz=b, rolloff=r,
                                height=h)
        assert shape.evaluate(0.0) == h
        assert shape.evaluate(0.5 * (1 - r) * b) == h          # flat edge
        assert shape.evaluate(0.5 * b) == pytest.approx(h / 2, rel=1e-14)
        assert shape.evaluate(0.5 * (1 + r) * b) == 0.0        # outer edge
        assert shape.evaluate(b) == 0.0

    def test_power_integral_exact_and_matches_numeric(self):
        b, r, h = 10e9, 0.35, 1.7
        shape = RaisedCosinePsd(center_hz=1e9, bandwidth_hz=b, rolloff=r,
                                height=h)
        assert shape.power_integral() == h * b
        f = np.linspace(*shape.support, 200001)
        numeric = np.trapezoid(shape.evaluate(f), f)
        assert numeric == pytest.approx(h * b, rel=1e-8)

    @settings(max_examples=60)
    @given(center=st.sampled_from([0.0, 1e9]) | st.floats(-5e9, 5e9),
           bandwidth=st.floats(1e9, 5e10),
           height=st.floats(0.0, 10.0),
           u=hnp.arrays(float, st.tuples(st.integers(0, 20), st.just(3)),
                        elements=st.floats(-1.5, 1.5)))
    def test_zero_rolloff_degenerates_to_rectangle(self, center, bandwidth,
                                                   height, u):
        rect = RectangularPsd(center, bandwidth, height)
        rc = RaisedCosinePsd(center, bandwidth, 0.0, height)
        assert isinstance(rect, RaisedCosinePsd) and rect.rolloff == 0.0
        assert rect.support == rc.support
        assert rect.power_integral() == rc.power_integral()
        # a 2-D grid: the center and both edges (exactly +-B/2 when the
        # center is 0), then rows spread over and beyond the support
        half = 0.5 * bandwidth
        f = np.vstack([[center, center - half, center + half],
                       center + u * bandwidth])
        got = rect.evaluate(f)
        assert got.shape == f.shape
        assert got.tobytes() == rc.evaluate(f).tobytes()
        for value in f.ravel()[:6]:
            scalar = rect.evaluate(float(value))
            assert type(scalar) is float
            assert scalar == rc.evaluate(float(value))
        with pytest.raises(TypeError):    # rolloff is no constructor argument
            RectangularPsd(center, bandwidth, 0.0, height)

    def test_validation(self):
        with pytest.raises(ValueError, match="rolloff"):
            RaisedCosinePsd(center_hz=0.0, bandwidth_hz=1.0, rolloff=1.5,
                            height=1.0)
        for name, bad in (("bandwidth", {"bandwidth_hz": math.inf}),
                          ("center", {"center_hz": math.nan}),
                          ("height", {"height": math.inf})):
            with pytest.raises(ValueError, match=name):
                RaisedCosinePsd(**{"center_hz": 0.0, "bandwidth_hz": 1.0,
                                   "rolloff": 0.2, "height": 1.0, **bad})


def clip_where_raised_cosine(shape, f):
    """The raised-cosine formula that took the cosine of every element,
    kept as the bit reference of ``RaisedCosinePsd.evaluate``."""
    x = np.abs(np.asarray(f, dtype=float) - shape.center_hz)
    flat_edge = 0.5 * (1.0 - shape.rolloff) * shape.bandwidth_hz
    outer_edge = 0.5 * (1.0 + shape.rolloff) * shape.bandwidth_hz
    if shape.rolloff == 0.0:
        return np.where(x < outer_edge, shape.height, 0.0)
    ramp = np.clip(x - flat_edge, 0.0, None)
    cos_arg = np.pi * ramp / (shape.rolloff * shape.bandwidth_hz)
    roll = 0.5 * shape.height * (1.0 + np.cos(cos_arg))
    return np.where(x <= flat_edge, shape.height,
                    np.where(x < outer_edge, roll, 0.0))


class TestRaisedCosineBandOnly:
    @settings(max_examples=60)
    @given(center=st.sampled_from([0.0, 1e9]) | st.floats(-5e9, 5e9),
           bandwidth=st.floats(1e9, 5e10),
           rolloff=st.sampled_from([0.0, 1e-3, 1.0]) | st.floats(0.0, 1.0),
           height=st.floats(0.0, 10.0),
           u=hnp.arrays(float, st.integers(0, 300),
                        elements=st.floats(-1.5, 1.5)))
    def test_equals_clip_where_formula(self, center, bandwidth, rolloff,
                                       height, u):
        shape = RaisedCosinePsd(center, bandwidth, rolloff, height)
        lo, hi = shape.support
        edges = np.array([0.0, 0.5 * (1.0 - rolloff) * bandwidth,
                          0.5 * (1.0 + rolloff) * bandwidth])
        # the center and both edges (exactly so when the center is 0), then
        # points spread over and beyond the support
        f = np.concatenate([center + edges, center - edges,
                            center + u * (hi - lo)])
        got = shape.evaluate(f)
        assert np.array_equal(got, clip_where_raised_cosine(shape, f))
        for value in f[:6]:
            scalar = shape.evaluate(float(value))
            assert type(scalar) is float
            assert scalar == clip_where_raised_cosine(shape, value)


class TestTabulated:
    def test_interpolation_and_zero_outside(self):
        shape = TabulatedPsd(frequencies_hz=np.array([-1e9, 0.0, 1e9]),
                             values=np.array([0.0, 2.0, 0.0]))
        assert shape.evaluate(0.0) == 2.0
        assert shape.evaluate(0.5e9) == 1.0
        assert shape.evaluate(2e9) == 0.0
        assert shape.evaluate(-2e9) == 0.0

    def test_power_integral_is_trapezoid(self):
        shape = TabulatedPsd(frequencies_hz=np.array([-1e9, 0.0, 1e9]),
                             values=np.array([0.0, 2.0, 0.0]))
        assert shape.power_integral() == pytest.approx(2e9, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            TabulatedPsd(frequencies_hz=np.array([0.0, 0.0, 1.0]),
                         values=np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match=">= 0"):
            TabulatedPsd(frequencies_hz=np.array([0.0, 1.0]),
                         values=np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="finite"):
            TabulatedPsd(frequencies_hz=np.array([0.0, 1.0]),
                         values=np.array([1.0, np.inf]))

    def test_from_csv_roundtrip(self, tmp_path):
        path = tmp_path / "shape.csv"
        path.write_text("# f_Hz, value_per_Hz\n-1e9,0.0\n0.0,2.0\n1e9,0.0\n")
        shape = TabulatedPsd.from_csv(path)
        assert shape.evaluate(0.5e9) == 1.0
        assert shape.support == (-1e9, 1e9)

    def test_from_csv_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            TabulatedPsd.from_csv(tmp_path / "missing.csv")
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\nnot,numbers\n")
        with pytest.raises(ConfigError, match="malformed"):
            TabulatedPsd.from_csv(bad)
        wide = tmp_path / "wide.csv"
        wide.write_text("1.0,2.0,3.0\n2.0,3.0,4.0\n")
        with pytest.raises(ConfigError, match="2 columns"):
            TabulatedPsd.from_csv(wide)


@st.composite
def tabulated_shapes(draw):
    """Tables of 2-12 nodes whose values, the end values included, are not
    zero: the shape jumps to 0 at both ends of its support."""
    start = draw(st.floats(-5e9, 5e9))
    gaps = draw(st.lists(st.floats(1e8, 1e10), min_size=1, max_size=11))
    values = draw(st.lists(st.floats(0.1, 2.0), min_size=len(gaps) + 1,
                           max_size=len(gaps) + 1))
    return TabulatedPsd(start + np.concatenate([[0.0], np.cumsum(gaps)]),
                        np.array(values))


# the shapes the GN engine's |eta|^2 band relies on
BAND_SHAPES = st.one_of(
    st.builds(RectangularPsd, center_hz=st.floats(-5e9, 5e9),
              bandwidth_hz=st.floats(1e9, 5e10), height=st.floats(0.1, 10.0)),
    st.builds(RaisedCosinePsd, center_hz=st.floats(-5e9, 5e9),
              bandwidth_hz=st.floats(1e9, 5e10),
              rolloff=st.sampled_from([0.0, 1e-3, 1.0]),
              height=st.floats(0.1, 10.0)),
    tabulated_shapes())


class TestZeroOutsideSupport:
    """The GN engine leaves |eta|^2 unevaluated where f + f1 + f2 lies a cell
    or more beyond the third PSD's support, which is exact only because the
    shape is exactly 0 there.  Rounding is monotone, so it is 0 from one
    ulp outside on; at the support's own ends it may be nonzero."""

    @settings(max_examples=200)
    @given(shape=BAND_SHAPES, cells=st.integers(16, 4096),
           beyond=st.floats(1.0, 1e3))
    def test_exactly_zero_from_one_ulp_outside(self, shape, cells, beyond):
        lo, hi = shape.support
        h = (hi - lo) / cells
        above = [np.nextafter(hi, np.inf), hi + h,
                 np.nextafter(hi + h, np.inf), hi + beyond * h]
        below = [np.nextafter(lo, -np.inf), lo - h,
                 np.nextafter(lo - h, -np.inf), lo - beyond * h]
        f = np.array(above + below)
        assert np.array_equal(shape.evaluate(f), np.zeros(f.size))
        for value in f:
            assert shape.evaluate(float(value)) == 0.0


class TestDualPol:
    def test_power_properties(self):
        psd = DualPolPsd(gx=RectangularPsd(0.0, 10e9, 1.0),
                         gy=RectangularPsd(0.0, 5e9, 0.8),
                         p0_w=1e-3)
        assert psd.px_hat == 10e9
        assert psd.py_hat == 4e9
        assert phase_rotation_weight(psd.px_hat, psd.py_hat) == 2 * 10e9 + 4e9
        assert phase_rotation_weight(psd.py_hat, psd.px_hat) == 2 * 4e9 + 10e9

    def test_swapped_exchanges_roles(self):
        psd = DualPolPsd(gx=RectangularPsd(0.0, 10e9, 1.0),
                         gy=RectangularPsd(1e9, 5e9, 0.8),
                         p0_w=1e-3)
        sw = psd.swapped()
        assert sw.gx is psd.gy and sw.gy is psd.gx
        assert phase_rotation_weight(sw.px_hat, sw.py_hat) \
            == phase_rotation_weight(psd.py_hat, psd.px_hat)

    def test_rejects_nonpositive_power(self):
        for p0 in (0.0, math.inf):
            with pytest.raises(ValueError, match="p0"):
                DualPolPsd(gx=RectangularPsd(0.0, 1.0, 1.0),
                           gy=RectangularPsd(0.0, 1.0, 1.0), p0_w=p0)
