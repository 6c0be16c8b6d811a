"""Tests for photon-number statistics and the efficiency budget."""

import numpy as np
import pytest

from qdpair import photostat as ps
from qdpair.errors import ContractError, ModelDomainError


def test_qd_distribution_inverts_g2():
    rng = np.random.default_rng(10)
    for _ in range(60):
        g2 = float(rng.uniform(0.0, 0.2))
        probs = np.asarray(ps.qd_distribution_from_g2(g2))
        assert probs.shape[0] == 3
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert abs(probs[0] - g2 / 2.0) <= 1e-12
        assert abs(probs[1] - (1.0 - g2)) <= 1e-12
        assert abs(probs[2] - g2 / 2.0) <= 1e-12
        # realised second-order correlation reproduces the request exactly
        mean = probs[1] + 2.0 * probs[2]
        pairs = 2.0 * probs[2]
        if g2 > 0:
            assert abs(pairs / mean ** 2 - g2) <= 1e-10


def test_qd_distribution_domain():
    with pytest.raises(ModelDomainError):
        ps.qd_distribution_from_g2(-0.01)
    with pytest.raises(ModelDomainError):
        ps.qd_distribution_from_g2(0.6)


def test_spdc_thermal_inversion_via_ratio():
    # truncation rescales all probabilities equally, so the P2/P1 ratio pins
    # the untruncated mean; check the requested single-pair probability
    for p in (0.01, 0.05, 0.1, 0.2, 0.24):
        probs = np.asarray(ps.spdc_pair_distribution(p, statistics="thermal"))
        assert abs(probs.sum() - 1.0) <= 1e-12
        lam = probs[2] / probs[1]
        mu = lam / (1.0 - lam)
        assert abs(mu / (1.0 + mu) ** 2 - p) <= 1e-9
        # thermal signature preserved by truncation
        assert abs(probs[2] * probs[0] - probs[1] ** 2) <= 1e-12


def test_spdc_poissonian_inversion_via_ratio():
    for p in (0.01, 0.05, 0.1, 0.2, 0.3, 0.35):
        probs = np.asarray(ps.spdc_pair_distribution(p, statistics="poissonian"))
        assert abs(probs.sum() - 1.0) <= 1e-12
        mu = 2.0 * probs[2] / probs[1]
        assert abs(mu * np.exp(-mu) - p) <= 1e-7


def test_spdc_poissonian_inversion_is_exact():
    # the Lambert W root solves nu e^{-nu} = p to rounding, up to the 1/e
    # ceiling where W0 has its branch point
    for p in list(np.geomspace(1e-6, np.exp(-1.0), 40)) + [np.exp(-1.0)]:
        d = ps.spdc_pair_distribution(p, statistics="poissonian")
        nu = 2.0 * d[2] / d[1]
        assert abs(nu * np.exp(-nu) - p) <= 1e-14 * p


def test_spdc_pair_probability_ceilings():
    with pytest.raises(ModelDomainError):
        ps.spdc_pair_distribution(0.26, statistics="thermal")
    with pytest.raises(ModelDomainError):
        ps.spdc_pair_distribution(0.37, statistics="poissonian")
    with pytest.raises(ContractError):
        ps.spdc_pair_distribution(0.1, statistics="squeezed")
    with pytest.raises(ModelDomainError):
        ps.spdc_pair_distribution(-0.1)


def test_detection_outcomes_normalised_and_structured():
    rng = np.random.default_rng(11)
    for _ in range(60):
        g2 = float(rng.uniform(0.0, 0.3))
        eta = float(rng.uniform(0.02, 0.98))
        d = ps.qd_distribution_from_g2(g2)
        x_two, x_signal, x_background, x_none = ps.detection_outcomes(d, eta)
        total = x_two + x_signal + x_background + x_none
        assert abs(total - 1.0) <= 1e-12
        p0, p1, p2 = d
        assert abs(x_two - p2 * eta ** 2) <= 1e-14
        assert abs(x_background - p2 * eta * (1.0 - eta)) <= 1e-14
        assert abs(x_signal - (p1 * eta + p2 * eta * (1.0 - eta))) <= 1e-14


def test_detection_outcomes_against_monte_carlo():
    d = ps.qd_distribution_from_g2(0.1)
    eta = 0.35
    x_two, x_signal, x_background, x_none = ps.detection_outcomes(d, eta)
    rng = np.random.default_rng(12)
    n = 400000
    emitted = rng.choice(3, size=n, p=d)
    detected = rng.binomial(emitted, eta)
    est_two = np.mean(detected == 2)
    est_one = np.mean(detected == 1)
    est_none = np.mean(detected == 0)
    for est, prob in ((est_two, x_two),
                      (est_one, x_signal + x_background),
                      (est_none, x_none)):
        sigma = np.sqrt(prob * (1.0 - prob) / n)
        assert abs(est - prob) <= 5.0 * sigma + 1e-9


def test_detection_outcomes_validation():
    d = ps.qd_distribution_from_g2(0.05)
    with pytest.raises(ContractError):
        ps.detection_outcomes(d, 1.2)
    wide = (0.4, 0.3, 0.2, 0.1)
    with pytest.raises(ContractError):
        ps.detection_outcomes(wide, 0.5)


def test_measured_chain_components():
    ch = ps.EfficiencyChain.measured()
    assert abs(ch.source.value - 0.49) <= 1e-12
    assert abs(ch.source.sigma - 0.03) <= 1e-12
    assert abs(ch.long_arm.value - 0.913) <= 1e-12
    assert abs(ch.short_arm.value - 0.987) <= 1e-12
    assert abs(ch.output_coupler.value - 0.90) <= 1e-12
    assert tuple(e.value for e in ch.fiber) == (0.50, 0.536)
    assert tuple(e.value for e in ch.detector) == (0.90, 0.78)


def test_forward_rate_value_and_structure():
    ch = ps.EfficiencyChain.measured()
    rate, sigma = ps.forward_rate(ch, 76.3e6)
    assert abs(rate - 2.102488e6) <= 1e3
    assert abs(sigma - 2.8141e5) <= 5e2
    # pairs traverse the source and switch twice, the two arms once each,
    # and both photons pass the output coupler
    switch = np.prod([e.value for e in ch.switch])
    manual = (76.3e6 / 4.0) * ch.source.value ** 2 * switch ** 2
    manual *= ch.long_arm.value * ch.short_arm.value * ch.output_coupler.value ** 2
    assert abs(rate - manual) <= 1e-6 * manual


def test_back_propagation_matches_measured_rate():
    ch = ps.EfficiencyChain.measured()
    generated = ps.back_propagate_rate(3.2e5, ch)
    assert abs(generated - 2.099873e6) <= 1e3
    # round trip: applying the two arm transmissions recovers the input
    arm_a = ch.tomography[0].value * ch.fiber[0].value * ch.detector[0].value
    arm_b = ch.tomography[1].value * ch.fiber[1].value * ch.detector[1].value
    for x in (1e5, 7.7e5, 3.1e6):
        measured = x * arm_a * arm_b
        assert abs(ps.back_propagate_rate(measured, ch) - x) <= 1e-6 * x


def test_efficiency_validation():
    with pytest.raises(ContractError):
        ps.Efficiency(0.0)
    with pytest.raises(ContractError):
        ps.Efficiency(1.3)
    with pytest.raises(ContractError):
        ps.Efficiency(0.5, sigma=-0.1)
