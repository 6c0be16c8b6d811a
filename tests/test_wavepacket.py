"""Tests for the emission wavepacket overlap model."""

import numpy as np
import pytest

from qdpair import wavepacket as wp
from qdpair.errors import ContractError, ModelDomainError


def test_intensity_profile_normalised():
    for params in (wp.WavepacketParams(),
                   wp.WavepacketParams(t1_ps=200.0, pulse_width_ps=12.0)):
        t = np.linspace(-20.0 * params.pulse_width_ps,
                        30.0 * params.t1_ps, 400001)
        y = wp.intensity_profile(t, params)
        assert np.all(y >= 0.0)
        assert abs(np.trapezoid(y, t) - 1.0) <= 1e-6


def test_overlap_is_one_at_zero_delay_and_symmetric():
    params = wp.WavepacketParams()
    assert abs(wp.temporal_overlap(0.0, params) - 1.0) <= 1e-6
    for tau in (5.0, 25.0, 80.0):
        a = wp.indistinguishability_vs_offset(tau, params)
        b = wp.indistinguishability_vs_offset(-tau, params)
        assert abs(a - b) <= 1e-12
        assert 0.0 < a < 1.0


def test_narrow_pulse_limit_is_exponential():
    # with a vanishing excitation pulse the squared overlap decays as
    # exp(-tau / t1); the finite-width correction is second order
    params = wp.WavepacketParams(t1_ps=60.0, pulse_width_ps=0.01)
    for tau in (10.0, 30.0, 60.0, 120.0):
        got = wp.indistinguishability_vs_offset(tau, params)
        assert abs(got - np.exp(-tau / 60.0)) <= 1e-3


def test_overlap_checks_each_delay_once(monkeypatch):
    # The quadrature's integrand evaluates the profile without checking K again.
    params, checked = wp.WavepacketParams(), []
    check = wp.check_ranges
    monkeypatch.setattr(wp, "check_ranges",
                        lambda *args, **values: checked.append(values) or check(*args, **values))
    delays = (0.0, 30.0, 60.0)
    wp.offset_curve(delays, params)
    assert len(checked) <= len(delays)


def test_calibration_from_zero_delay_fidelity():
    i0 = wp.calibrate_i0(0.958)
    assert abs(i0 - 0.916) <= 1e-12
    assert abs(wp.fidelity_from_indistinguishability(i0) - 0.958) <= 1e-12


def test_fidelity_at_one_lifetime_delay():
    i0 = wp.calibrate_i0(0.958)
    params = wp.WavepacketParams(t1_ps=60.0, pulse_width_ps=5.0, i0=i0)
    taus, ind, fid = wp.offset_curve([0.0, 60.0], params)
    assert abs(fid[0] - 0.958) <= 1e-9
    assert abs(fid[1] - 0.690219) <= 1e-6


def test_offset_curve_monotone_decay():
    params = wp.WavepacketParams(i0=wp.calibrate_i0(0.958))
    taus = np.linspace(0.0, 180.0, 61)
    _, ind, fid = wp.offset_curve(taus, params)
    assert np.all(np.diff(ind) < 0.0)
    assert np.all(np.diff(fid) < 0.0)
    assert np.all(fid >= 0.5 - 1e-12)


def test_postselected_weights_normalised():
    rng = np.random.default_rng(13)
    for _ in range(40):
        g2 = float(rng.uniform(0.0, 0.2))
        eta = float(rng.uniform(0.01, 0.5))
        w = wp.postselected_weights(g2, eta)
        assert len(w) == 3
        assert abs(sum(w) - 1.0) <= 1e-12
        assert all(x >= 0.0 for x in w)
    assert abs(wp.postselected_weights(0.0, 0.05)[0] - 1.0) <= 1e-12


def test_fidelity_vs_g2_reference_points():
    assert abs(wp.fidelity_vs_g2(0.968, 0.013) - 0.9660902) <= 1e-6
    assert abs(wp.fidelity_vs_g2(0.968, 0.077) - 0.8839432) <= 1e-6


def test_fidelity_vs_g2_monotone():
    g2s = np.linspace(0.0, 0.08, 33)
    _, fid = wp.g2_curve(g2s, 0.968)
    assert np.all(np.diff(fid) < 0.0)
    # higher indistinguishability always helps
    _, lower = wp.g2_curve(g2s, 0.90)
    assert np.all(np.asarray(fid) > np.asarray(lower))


def test_wavepacket_validation():
    with pytest.raises(ContractError):
        wp.WavepacketParams(t1_ps=-5.0)
    with pytest.raises(ContractError):
        wp.WavepacketParams(pulse_width_ps=0.0)
    with pytest.raises(ContractError):
        wp.WavepacketParams(i0=1.5)
    with pytest.raises(ModelDomainError):
        wp.calibrate_i0(0.4)
    with pytest.raises(ModelDomainError):
        wp.fidelity_vs_g2(0.968, -0.01)
