"""Tests for the two-source entanglement-swapping model."""

import dataclasses

import numpy as np
import pytest

from qdpair import photostat, swap
from qdpair import twoqubit as tq
from qdpair.errors import ConfigError, ModelDomainError

QD = swap.SwapScenario.qd_headline()
SPDC = swap.SwapScenario.spdc_reference()


def ideal_qd(**kwargs):
    base = dataclasses.replace(QD, qd_g2=0.0, qd_I=1.0, eta_s=1.0, eta_det=1.0)
    return dataclasses.replace(base, **kwargs)


def test_ideal_sources_swap_perfectly():
    for pnr in (True, False):
        for loss in (0.0, 7.5, 20.0):
            s = ideal_qd(pnr=pnr, channel_loss_db=loss)
            res = swap.swap_once(s, s)
            assert abs(res.fidelity - 1.0) <= 1e-9
    lossless = ideal_qd()
    res = swap.swap_once(lossless, lossless)
    assert abs(res.rate_hz - lossless.rep_rate_hz / 8.0) <= 1e-6
    rate, fid = res
    assert res == (rate, fid) == (res.rate_hz, res.fidelity)
    assert type(rate) is float and type(fid) is float


def test_channel_loss_degrades_fidelity_only_mildly():
    # loss rebalances good heralds against multi-photon accidentals, so the
    # measured-source fidelity drifts down slowly; the ideal source stays
    # pinned at one (covered above)
    fids = []
    for loss in (0.0, 5.0, 15.0):
        s = dataclasses.replace(QD, channel_loss_db=loss)
        fids.append(swap.swap_once(s, s).fidelity)
    assert all(a >= b - 1e-12 for a, b in zip(fids, fids[1:]))
    assert fids[0] - fids[-1] <= 0.02


def test_rate_monotone_nonincreasing_in_loss():
    spdc_fixed = dataclasses.replace(SPDC, spdc_p1=0.02, fidelity_floor=None)
    for base in (QD, spdc_fixed):
        rates = []
        for loss in (0.0, 2.5, 5.0, 10.0):
            s = dataclasses.replace(base, channel_loss_db=loss)
            rates.append(swap.swap_once(s, s).rate_hz)
        assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))


def test_number_resolution_never_hurts_fidelity():
    rng = np.random.default_rng(23)
    for _ in range(10):
        base = dataclasses.replace(
            QD,
            qd_g2=float(rng.uniform(0.0, 0.08)),
            qd_I=float(rng.uniform(0.85, 1.0)),
            eta_s=float(rng.uniform(0.4, 0.9)),
            eta_det=float(rng.uniform(0.6, 0.95)),
            channel_loss_db=float(rng.uniform(0.0, 6.0)))
        pnr = dataclasses.replace(base, pnr=True)
        thr = dataclasses.replace(base, pnr=False)
        f_pnr = swap.swap_once(pnr, pnr).fidelity
        f_thr = swap.swap_once(thr, thr).fidelity
        assert f_pnr >= f_thr - 1e-12


def test_measured_source_swap_values():
    res = swap.swap_once(QD, QD)
    assert abs(res.fidelity - 0.9562222789) <= 1e-6
    assert abs(res.rate_hz - 1.927812e6) <= 1e2
    thr = dataclasses.replace(QD, pnr=False)
    assert abs(swap.swap_once(thr, thr).fidelity - 0.940963) <= 1e-5


def test_distinguishability_only_penalty_is_exact():
    # with a perfectly pure source the swapped fidelity is (1 + I^2) / 2
    for i in (0.90, 0.968, 1.0):
        s = dataclasses.replace(QD, qd_g2=0.0, qd_I=i)
        res = swap.swap_once(s, s)
        assert abs(res.fidelity - (1.0 + i * i) / 2.0) <= 1e-9


def test_purity_only_penalty_value():
    s = dataclasses.replace(QD, qd_I=1.0)
    assert abs(swap.swap_once(s, s).fidelity - 0.987173) <= 1e-5


def test_heralded_state_consistent_with_swap_once():
    res = swap.swap_once(QD, QD)
    rho, herald = swap.heralded_state(QD, QD)
    assert abs(herald - res.rate_hz / QD.rep_rate_hz) <= 1e-15
    assert abs(np.trace(rho).real - herald) <= 1e-12
    dens = tq.TwoQubitDensity(rho / herald)
    assert abs(tq.overlap_with(dens, tq.bell_state("psi_minus"))
               - res.fidelity) <= 1e-9


def test_herald_probability_closed_form_pure_source():
    # with g2 = 0 the herald probability is exactly
    # (1/8) eta_collect^2 eta_inner^2
    rng = np.random.default_rng(17)
    for _ in range(10):
        s = dataclasses.replace(
            QD, qd_g2=0.0,
            qd_I=float(rng.uniform(0.8, 1.0)),
            eta_s=float(rng.uniform(0.3, 0.9)),
            eta_det=float(rng.uniform(0.5, 0.95)),
            channel_loss_db=float(rng.uniform(0.0, 10.0)))
        herald = swap.swap_once(s, s).rate_hz / s.rep_rate_hz
        closed = 0.125 * s.eta_collect ** 2 * s.eta_inner ** 2
        assert abs(herald - closed) <= 1e-9 * closed


def test_herald_probability_leading_order_with_multiphoton():
    # deviations from the single-pair closed form are bounded by the
    # multi-photon admixture of the sources
    rng = np.random.default_rng(17)
    for g2 in (0.005, 0.013, 0.05):
        ratio = (g2 / 2.0) / (1.0 - g2)
        for _ in range(4):
            s = dataclasses.replace(
                QD, qd_g2=g2,
                qd_I=float(rng.uniform(0.8, 1.0)),
                eta_s=float(rng.uniform(0.3, 0.9)),
                eta_det=float(rng.uniform(0.5, 0.95)),
                channel_loss_db=float(rng.uniform(0.0, 8.0)))
            herald = swap.swap_once(s, s).rate_hz / s.rep_rate_hz
            closed = 0.125 * (1.0 - g2) ** 2 * s.eta_collect ** 2 \
                * s.eta_inner ** 2
            assert abs(herald - closed) <= 8.0 * ratio * closed
    for p1 in (0.005, 0.02, 0.05):
        dist = photostat.spdc_pair_distribution(p1, statistics="thermal")
        ratio = dist.probs[2] / dist.probs[1]
        for _ in range(4):
            s = dataclasses.replace(
                SPDC, spdc_p1=p1, fidelity_floor=None,
                eta_s=float(rng.uniform(0.3, 0.9)),
                eta_det=float(rng.uniform(0.5, 0.95)),
                channel_loss_db=float(rng.uniform(0.0, 8.0)))
            herald = swap.swap_once(s, s).rate_hz / s.rep_rate_hz
            closed = 0.5 * p1 ** 2 * s.eta_collect ** 2 * s.eta_inner ** 2
            assert abs(herald - closed) <= 8.0 * ratio * closed


def test_pump_optimisation_bands():
    for stat, with_pnr, without_pnr in (("thermal", 0.12217, 0.01411),
                                        ("poissonian", 0.21430, 0.02783)):
        base = dataclasses.replace(SPDC, spdc_statistics=stat)
        p_pnr = swap.optimise_pump(base)
        p_thr = swap.optimise_pump(dataclasses.replace(base, pnr=False))
        assert abs(p_pnr - with_pnr) <= 5e-4
        assert abs(p_thr - without_pnr) <= 5e-4
        assert p_pnr >= 0.10
        assert 0.01 <= p_thr <= 0.05
        # the optimum respects the fidelity floor
        check = dataclasses.replace(base, spdc_p1=p_pnr, fidelity_floor=None)
        assert swap.swap_once(check, check).fidelity >= 0.97 - 1e-3


def test_unattainable_fidelity_floor():
    with pytest.raises(ModelDomainError):
        swap.optimise_pump(dataclasses.replace(SPDC, fidelity_floor=1.0))


def test_pair_rate_formulas():
    qd = swap.SwapScenario(source_kind="qd_postselected", rep_rate_hz=1e9,
                           eta_s=0.4)
    assert abs(swap.pair_rate(qd) - 0.5 * 1e9 * 0.16) <= 1e-6
    sp = dataclasses.replace(SPDC, spdc_p1=0.02, fidelity_floor=None)
    expected = sp.rep_rate_hz * 0.02 * sp.eta_collect ** 2
    assert abs(swap.pair_rate(sp) - expected) <= 1e-6
    # multiplexing boosts the effective single-pair probability
    mux = dataclasses.replace(sp, source_kind="spdc_multiplexed", mux_n=30)
    assert swap.pair_rate(mux) > 10.0 * swap.pair_rate(sp)


def test_projected_gigahertz_pair_rates():
    # attempt rate 1 GHz (laser doubled to 2 GHz, two pulses per pair);
    # internal transmission folds the switch, both arms, and the combiner
    ch = photostat.EfficiencyChain.measured()
    switch = np.prod([e.value for e in ch.switch])
    internal = switch * ch.output_coupler.value \
        * np.sqrt(ch.long_arm.value * ch.short_arm.value)
    for eta, target in ((0.49, 55e6), (0.57, 74.6e6), (0.712, 116.4e6)):
        s = swap.SwapScenario(source_kind="qd_postselected", rep_rate_hz=1e9,
                              eta_s=eta * internal)
        assert abs(swap.pair_rate(s) - target) <= 0.01 * target


def test_loss_sweep_table():
    table = swap.sweep_loss(QD, SPDC, loss_grid_db=(0.0, 5.0), mux_sizes=(10,))
    assert table["columns"] == ["loss_db", "rate_qd", "rate_spdc",
                                "rate_spdc_mux10"]
    rows = table["rows"]
    assert [r[0] for r in rows] == [0.0, 5.0]
    # zero-loss entry agrees with a direct evaluation
    direct = swap.swap_once(QD, QD).rate_hz
    assert abs(rows[0][1] - direct) <= 1e-6 * direct
    # every rate column decreases with loss
    for col in (1, 2, 3):
        assert rows[0][col] > rows[1][col] > 0.0
    # multiplexing outrates the bare probabilistic source
    assert rows[0][3] > rows[0][2]
    assert rows[1][3] > rows[1][2]


def test_scenario_validation():
    with pytest.raises(ConfigError):
        swap.SwapScenario(source_kind="laser")
    with pytest.raises(ConfigError):
        # no pump probability and no fidelity floor to derive one from
        swap.pair_rate(swap.SwapScenario(source_kind="spdc"))
    with pytest.raises(ConfigError):
        swap.SwapScenario(source_kind="qd_postselected", eta_s=1.5)
    with pytest.raises(ConfigError):
        swap.SwapScenario(source_kind="qd_postselected", qd_g2=0.9)
    with pytest.raises(ConfigError):
        swap.SwapScenario(source_kind="qd_postselected", mux_n=0)
    with pytest.raises(ConfigError):
        swap.SwapScenario(source_kind="qd_postselected", channel_loss_db=-1.0)
    with pytest.raises(ConfigError):
        swap.sweep_loss(QD, QD)
    with pytest.raises(ConfigError):
        swap.sweep_loss(SPDC, SPDC)
