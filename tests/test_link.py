"""Link profile: span validation, gain/dispersion profiles, boundaries."""
import math

import numpy as np
import pytest

from gnmodel import LinkProfile, Span, cumulated_dispersion, power_gain

ALPHA = 0.2 * math.log(10.0) / 1.0e4  # 0.2 dB/km in 1/m


def two_span_link():
    return LinkProfile(
        spans=(
            Span(length_m=80e3, alpha_per_m=ALPHA, beta2_s2_per_m=-21.7e-27,
                 gamma_per_w_m=1.3e-3, lumped_gain_db=16.0),
            Span(length_m=60e3, alpha_per_m=1.25 * ALPHA, beta2_s2_per_m=5.1e-27,
                 gamma_per_w_m=1.8e-3, lumped_gain_db=15.0),
        ),
        xi_pre_s2=3.0e-24,
    )


class TestSpan:
    def test_rejects_nonpositive_length(self):
        for length in (0.0, math.inf):
            with pytest.raises(ValueError, match="length"):
                Span(length_m=length, alpha_per_m=ALPHA, beta2_s2_per_m=0.0,
                     gamma_per_w_m=1e-3)

    def test_rejects_negative_alpha(self):
        for alpha in (-1e-5, math.inf):
            with pytest.raises(ValueError, match="alpha"):
                Span(length_m=1e3, alpha_per_m=alpha, beta2_s2_per_m=0.0,
                     gamma_per_w_m=1e-3)

    def test_rejects_non_finite_beta2(self):
        with pytest.raises(ValueError, match="beta2"):
            Span(length_m=1e3, alpha_per_m=ALPHA, beta2_s2_per_m=math.nan,
                 gamma_per_w_m=1e-3)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            Span(length_m=1e3, alpha_per_m=ALPHA, beta2_s2_per_m=0.0,
                 gamma_per_w_m=-1e-3)

    def test_lumped_gain_linear(self):
        span = Span(length_m=1e3, alpha_per_m=ALPHA, beta2_s2_per_m=0.0,
                    gamma_per_w_m=1e-3, lumped_gain_db=16.0)
        assert span.lumped_gain_linear == pytest.approx(10.0**1.6, rel=1e-15)

    def test_negative_lumped_gain_is_attenuation(self):
        span = Span(length_m=1e3, alpha_per_m=ALPHA, beta2_s2_per_m=0.0,
                    gamma_per_w_m=1e-3, lumped_gain_db=-3.0)
        assert span.lumped_gain_linear == pytest.approx(10.0**-0.3, rel=1e-15)


class TestLinkProfile:
    def test_needs_at_least_one_span(self):
        with pytest.raises(ValueError, match="at least one span"):
            LinkProfile(spans=())

    def test_total_length_and_span_starts(self):
        link = two_span_link()
        assert link.total_length_m == 140e3
        np.testing.assert_allclose(link.span_start_m, [0.0, 80e3])

    def test_start_gain_includes_span_loss_and_lumped_gain(self):
        link = two_span_link()
        assert link.start_gain[0] == 1.0
        expected = math.exp(-ALPHA * 80e3) * 10.0**1.6
        assert link.start_gain[1] == pytest.approx(expected, rel=1e-14)

    def test_start_dispersion_tracks_xi_pre_and_beta2(self):
        link = two_span_link()
        assert link.start_dispersion_s2[0] == 3.0e-24
        assert link.start_dispersion_s2[1] == pytest.approx(
            3.0e-24 + 21.7e-27 * 80e3, rel=1e-14)
        assert link.end_dispersion_s2 == pytest.approx(
            3.0e-24 + 21.7e-27 * 80e3 - 5.1e-27 * 60e3, rel=1e-14)

    def test_gamma_scale_follows_manakov_flag(self):
        link = two_span_link()
        assert link.gamma_scale == 8.0 / 9.0
        bare = LinkProfile(spans=link.spans, manakov_factor=False)
        assert bare.gamma_scale == 1.0

    def test_span_index_boundaries_belong_downstream(self):
        link = two_span_link()
        assert link.span_index(0.0) == 0
        assert link.span_index(80e3 - 1.0) == 0
        assert link.span_index(80e3) == 1
        assert link.span_index(140e3) == 1  # link end clamps to last span

    def test_span_index_rejects_out_of_range(self):
        link = two_span_link()
        with pytest.raises(ValueError):
            link.span_index(-1.0)
        with pytest.raises(ValueError):
            link.span_index(140e3 + 1.0)


class TestProfiles:
    def test_power_gain_single_span_decay(self):
        link = LinkProfile(spans=(Span(length_m=80e3, alpha_per_m=ALPHA,
                                       beta2_s2_per_m=-21.7e-27,
                                       gamma_per_w_m=1.3e-3),))
        z = np.array([0.0, 10e3, 40e3, 80e3])
        np.testing.assert_allclose(power_gain(link, z), np.exp(-ALPHA * z),
                                   rtol=1e-14)

    def test_power_gain_jump_at_boundary(self):
        link = two_span_link()
        pre = power_gain(link, 80e3 - 1e-3)
        post = power_gain(link, 80e3)
        assert pre == pytest.approx(math.exp(-ALPHA * (80e3 - 1e-3)), rel=1e-12)
        assert post == pytest.approx(math.exp(-ALPHA * 80e3) * 10.0**1.6,
                                     rel=1e-14)

    def test_cumulated_dispersion_piecewise_linear_continuous(self):
        link = two_span_link()
        assert cumulated_dispersion(link, 0.0) == 3.0e-24
        mid = cumulated_dispersion(link, 40e3)
        assert mid == pytest.approx(3.0e-24 + 21.7e-27 * 40e3, rel=1e-14)
        # continuity across the boundary (no dispersion jump at amplifiers);
        # the 1 um offset itself moves C by ~1e-11 relative, so bound above that
        left = cumulated_dispersion(link, 80e3 - 1e-6)
        right = cumulated_dispersion(link, 80e3)
        assert abs(left - right) < 1e-10 * abs(right)
        end = cumulated_dispersion(link, 140e3)
        assert end == pytest.approx(link.end_dispersion_s2, rel=1e-14)

    def test_scalar_and_array_forms_agree(self):
        link = two_span_link()
        zs = [0.0, 15e3, 80e3, 101e3, 140e3]
        array_g = power_gain(link, np.array(zs))
        array_c = cumulated_dispersion(link, np.array(zs))
        for i, z in enumerate(zs):
            assert power_gain(link, z) == array_g[i]
            assert cumulated_dispersion(link, z) == array_c[i]
