"""Tests for polarisation tomography and maximum-likelihood reconstruction."""

import re

import numpy as np
import pytest
from scipy.special import gammaln

from qdpair import tomography as tomo
from qdpair import twoqubit as tq
from qdpair import wavepacket
from qdpair.errors import ConfigError, ContractError, NumericalError, ReconstructionError
from helpers import (frank_wolfe_gap, mle_multistart, random_density_matrix,
                     rowwise_singlet_fractions, scalar_barrier_newton,
                     scalar_simulate_counts, uhlmann_fidelity)

# A log of zero or a division by zero inside the solver fails the test.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def projector(ket):
    k = np.asarray(ket, dtype=complex)
    return np.outer(k, k.conj())


def test_waveplates_are_unitary():
    rng = np.random.default_rng(14)
    for _ in range(30):
        ang = float(rng.uniform(-90.0, 90.0))
        for j in (tomo.hwp_jones(ang), tomo.qwp_jones(ang)):
            assert np.allclose(j @ j.conj().T, np.eye(2), atol=1e-12)


def test_waveplate_angle_table():
    # plate angles for the six canonical analyser states
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    expected = {
        ("H", 0.0, 0.0): (1.0, 0.0),
        ("V", 45.0, 0.0): (0.0, 1.0),
        ("D", 22.5, 45.0): (inv_sqrt2, inv_sqrt2),
        ("A", -22.5, 45.0): (inv_sqrt2, -inv_sqrt2),
        ("R", 22.5, 0.0): (inv_sqrt2, -1j * inv_sqrt2),
        ("L", -22.5, 0.0): (inv_sqrt2, 1j * inv_sqrt2),
    }
    for (label, hwp, qwp), ket in expected.items():
        got = projector(tomo.waveplate_ket(hwp, qwp))
        assert np.allclose(got, projector(ket), atol=1e-12), label


# Plate pairs (hwp, qwp) in degrees and the name from_angles gives each:
# the six canonical pairs, the circular states a half-wave plate alone
# reaches, and a pair that realises no canonical state.
PLATE_NAMES = (((0.0, 0.0), "H"), ((45.0, 0.0), "V"), ((22.5, 45.0), "D"),
               ((-22.5, 45.0), "A"), ((0.0, -45.0), "R"), ((0.0, 45.0), "L"),
               ((22.5, 0.0), "R"), ((-22.5, 0.0), "L"), ((10.0, 0.0), "custom"))


def test_from_angles_names_each_plate_pair():
    assert {name: plates for plates, name in PLATE_NAMES[:6]} == tomo.CANONICAL_ANGLES
    for plates, name in PLATE_NAMES:
        s = tomo.MeasurementSetting.from_angles(*plates, *plates)
        assert (s.label1, s.label2) == (name, name), plates
    for (plates1, name1), (plates2, name2) in zip(PLATE_NAMES, PLATE_NAMES[::-1]):
        s = tomo.MeasurementSetting.from_angles(*plates1, *plates2)
        assert (s.label1, s.label2) == (name1, name2)
    assert (tomo.MeasurementSetting.from_angles(22.5, 45.0, -22.5, 45.0)
            == tomo.MeasurementSetting.from_names("D", "A"))


def test_standard_settings_cover_six_by_six():
    ss = tomo.standard_settings()
    assert len(ss) == 36
    labels = {(s.label1, s.label2) for s in ss}
    assert len(labels) == 36
    for name in ("H", "V", "D", "A", "R", "L"):
        assert sum(1 for a, b in labels if a == name) == 6


def test_standard_settings_build_six_kets(monkeypatch):
    # each canonical ket is made once per call, and the 36 projectors
    # built from them are those each setting builds from its own kets
    calls = []
    ket = tomo.waveplate_ket
    monkeypatch.setattr(tomo, "waveplate_ket", lambda *a: calls.append(a) or ket(*a))
    settings = tomo.standard_settings()
    projectors = [s.joint_projector() for s in settings]
    assert sorted(calls) == sorted(tomo.CANONICAL_ANGLES.values())
    monkeypatch.undo()
    for s, proj in zip(settings, projectors):
        joint = np.kron(tomo.waveplate_ket(s.hwp1_deg, s.qwp1_deg),
                        tomo.waveplate_ket(s.hwp2_deg, s.qwp2_deg))
        assert np.array_equal(proj, np.outer(joint, joint.conj()))
        assert not proj.flags.writeable and s.joint_projector() is proj
    tomo.standard_settings()
    assert len(calls) == 6


@pytest.mark.parametrize("rho, pairs", (
    (tq.bell_state("psi_minus"), 50000), (tq.werner(0.3), 7),
    (tq.rho_b_zero(), 10 ** 6)), ids=("psi minus", "few pairs", "rho_b_zero"))
def test_simulate_counts_matches_a_per_setting_loop(rho, pairs):
    # one stacked trace and one Poisson draw give each setting's count,
    # and leave the generator where the per-setting loop leaves it
    settings = tomo.standard_settings()
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    records = tomo.simulate_counts(rho, settings, pairs, seed=rng)
    assert [r.counts for r in records] == scalar_simulate_counts(rho, settings, pairs,
                                                                 ref_rng)
    assert all(type(r.counts) is int for r in records)
    assert rng.random() == ref_rng.random()


def test_setting_probabilities_normalised_over_basis():
    ss = tomo.standard_settings()
    by_label = {(s.label1, s.label2): s for s in ss}
    rho = tq.werner(0.9)
    for basis in (("H", "V"), ("D", "A"), ("R", "L")):
        total = 0.0
        for a in basis:
            for b in basis:
                total += tomo.setting_probability(rho, by_label[(a, b)])
        assert abs(total - 1.0) <= 1e-12


def test_exact_counts_reconstruct_exactly():
    ss = tomo.standard_settings()
    rho = tq.werner(0.9)
    n = 10 ** 7
    records = [
        tomo.CountRecord(s, int(round(tomo.setting_probability(rho, s) * n)))
        for s in ss
    ]
    rec, loglike = tomo.mle_reconstruct(records)
    assert uhlmann_fidelity(rho.matrix, rec.matrix) >= 0.9999999
    assert np.isfinite(loglike)


def test_sampled_counts_reconstruct_closely():
    ss = tomo.standard_settings()
    rho = tq.werner(0.9)
    records = tomo.simulate_counts(rho, ss, 200000, seed=3)
    rec, _ = tomo.mle_reconstruct(records)
    assert uhlmann_fidelity(rho.matrix, rec.matrix) >= 0.995
    sf = tq.singlet_fraction(rec).value
    assert abs(sf - 0.925) <= 0.005


def test_simulate_counts_deterministic():
    ss = tomo.standard_settings()
    rho = tq.bell_state("psi_minus")
    a = tomo.simulate_counts(rho, ss, 50000, seed=21)
    b = tomo.simulate_counts(rho, ss, 50000, seed=21)
    c = tomo.simulate_counts(rho, ss, 50000, seed=22)
    assert [r.counts for r in a] == [r.counts for r in b]
    assert [r.counts for r in a] != [r.counts for r in c]
    # singlet coincidences vanish in the co-polarised settings
    for rec in a:
        if rec.setting.label1 == rec.setting.label2 and rec.setting.label1 in "HVDA":
            assert rec.counts <= 5


def test_csv_roundtrip(tmp_path):
    ss = tomo.standard_settings()
    records = tomo.simulate_counts(tq.werner(0.8), ss, 100000, seed=9)
    path = tmp_path / "counts.csv"
    tomo.records_to_csv(records, path)
    back = tomo.records_from_csv(path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.counts == b.counts
        assert a.setting == b.setting
        assert abs(a.integration_time - b.integration_time) <= 1e-12


@pytest.mark.parametrize("column, value, message", (
    (7, "nan", "integration_time"), (7, "inf", "integration_time"),
    (2, "nan", "hwp1_deg must be finite"), (5, "-inf", "qwp2_deg must be finite")))
def test_csv_rejects_non_finite_values(tmp_path, column, value, message):
    path = tmp_path / "counts.csv"
    tomo.records_to_csv(tomo.simulate_counts(tq.werner(0.8), tomo.standard_settings(),
                                             1000, seed=9), path)
    lines = path.read_text().splitlines()
    row = lines[3].split(",")
    row[column] = value
    lines[3] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=f"line 4: {message}"):
        tomo.records_from_csv(path)


@pytest.mark.parametrize("edit, message", (
    (lambda lines: ["angle" + lines[0]] + lines[1:], "unexpected CSV header"),
    (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:],
     f"line 4: expected {len(tomo.CSV_HEADER)} fields")), ids=("header", "short row"))
def test_csv_rejects_a_malformed_layout(tmp_path, edit, message):
    path = tmp_path / "counts.csv"
    tomo.records_to_csv(tomo.simulate_counts(tq.werner(0.8), tomo.standard_settings(),
                                             1000, seed=9), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ConfigError, match=f"^{message}"):
        tomo.records_from_csv(path)


def test_bootstrap_deterministic_and_calibrated():
    ss = tomo.standard_settings()
    records = tomo.simulate_counts(tq.werner(0.9), ss, 200000, seed=3)
    a = tomo.bootstrap_singlet_fraction(records, 60, seed=4)
    b = tomo.bootstrap_singlet_fraction(records, 60, seed=4)
    assert np.array_equal(a, b)
    assert len(a) == 60
    assert abs(np.mean(a) - 0.925) <= 0.01
    sigma = tomo.reconstruct(records, 60, seed=4).singlet_fraction_sigma
    assert sigma == np.std(a, ddof=1)
    assert 0.0 < sigma < 0.01
    with pytest.raises(ContractError):
        tomo.bootstrap_singlet_fraction(records, 20, seed=4)


def test_bootstrap_matches_a_reconstruction_loop():
    # one design for all resamples gives bit for bit what a fresh
    # reconstruction of every Poisson draw gives
    ss = tomo.standard_settings()
    records = tomo.simulate_counts(tq.werner(0.8), ss, 50000, seed=8,
                                   integration_time=0.5)
    values = tomo.bootstrap_singlet_fraction(records, 50, seed=9)
    rng = np.random.default_rng(9)
    observed = np.array([r.counts for r in records], dtype=float)
    loop = []
    for _ in range(50):
        draw = rng.poisson(observed)
        rho, _ = tomo.mle_reconstruct(
            [tomo.CountRecord(r.setting, int(c), r.integration_time)
             for r, c in zip(records, draw)])
        loop.append(tq.singlet_fraction(rho).value)
    assert np.array_equal(values, loop)


def test_reconstruct_takes_no_or_enough_resamples():
    records = tomo.simulate_counts(tq.werner(0.9), tomo.standard_settings(), 20000, seed=3)
    fit = tomo.reconstruct(records)
    assert fit.resampled.shape == (0,)
    state, loglik = tomo.mle_reconstruct(records)
    assert np.array_equal(fit.state.matrix, state.matrix)
    assert fit.log_likelihood == loglik
    assert fit.singlet_fraction == tq.singlet_fraction(fit.state).value
    for resamples in (-1, 1, tomo.MIN_RESAMPLES - 1, 50.0):
        with pytest.raises(ContractError, match="resamples"):
            tomo.reconstruct(records, resamples, seed=4)
    with pytest.raises(ContractError, match="resamples"):
        tomo.bootstrap_singlet_fraction(records, 0, seed=4)


def test_log_likelihood_prefers_the_generating_state():
    ss = tomo.standard_settings()
    rho = tq.werner(0.9)
    records = tomo.simulate_counts(rho, ss, 200000, seed=30)
    ll_true = tomo.log_likelihood(records, rho)
    ll_mixed = tomo.log_likelihood(records, tq.werner(0.0))
    assert ll_true > ll_mixed


def test_poisson_normaliser_matches_gammaln():
    n = np.unique(np.concatenate([np.arange(2001.0),
                                  np.rint(np.geomspace(2e3, 1e6, 4000))]))
    ours = np.array([tomo._log_factorials(np.array([x])) for x in n])
    ref = gammaln(n + 1.0)
    assert np.all(np.abs(ours - ref) <= 1e-15 * np.abs(ref))


def test_likelihoods_keep_their_gammaln_values():
    # the entangle command's tomography records at its default seed
    weights = wavepacket.postselected_weights(0.015, 0.05)
    mix = tq.TwoQubitDensity.from_matrix(
        weights[0] * tq.rho_q(0.981).matrix + weights[1] * tq.rho_b_half().matrix
        + weights[2] * tq.rho_b_zero().matrix)
    records = tomo.simulate_counts(mix, tomo.standard_settings(), 100000,
                                   seed=20240801)
    ops, counts, design = tomo._complete_design(records)
    const = gammaln(counts + 1.0).sum()
    rho, loglik = tomo.mle_reconstruct(records)
    lam = np.einsum("sij,ji->s", ops, tomo._solve(ops, design, counts[None])[0]).real
    assert loglik == pytest.approx(counts @ np.log(lam) - lam.sum() - const,
                                   rel=1e-10)
    probs = np.einsum("sij,ji->s", ops, rho.matrix).real
    lam = counts.sum() / probs.sum() * probs
    assert tomo.log_likelihood(records, rho) == pytest.approx(
        counts @ np.log(lam) - lam.sum() - const, rel=1e-10)


def test_reconstruction_errors():
    ss = tomo.standard_settings()
    records = tomo.simulate_counts(tq.werner(0.5), ss, 10000, seed=1)
    with pytest.raises(ReconstructionError):
        tomo.mle_reconstruct(records[:10])
    with pytest.raises(ContractError):
        tomo.mle_reconstruct([])
    with pytest.raises(ContractError):
        tomo.simulate_counts(tq.werner(0.5), ss, 0, seed=1)
    with pytest.raises(ReconstructionError):
        tomo.mle_reconstruct([tomo.CountRecord(r.setting, 0) for r in records])


def oracle_cases():
    """(name, records) covering mixed, pure, rank-deficient and sparse data."""
    ss = tomo.standard_settings()
    rng = np.random.default_rng(44)
    weights = wavepacket.postselected_weights(0.015, 0.05)   # entangle defaults
    mix = tq.TwoQubitDensity.from_matrix(
        weights[0] * tq.rho_q(0.981).matrix + weights[1] * tq.rho_b_half().matrix
        + weights[2] * tq.rho_b_zero().matrix)
    ket = rng.normal(size=4) + 1j * rng.normal(size=4)
    pure = tq.TwoQubitDensity.from_matrix(np.outer(ket, ket.conj()),
                                          renormalize=True)
    wishart = tq.TwoQubitDensity(random_density_matrix(rng))
    cases = [
        ("entangle mixture", tomo.simulate_counts(mix, ss, 100000, seed=1)),
        ("psi minus", tomo.simulate_counts(tq.bell_state("psi_minus"), ss,
                                           100000, seed=2)),
        ("rho_b_half", tomo.simulate_counts(tq.rho_b_half(), ss, 100000, seed=3)),
        ("werner(0)", tomo.simulate_counts(tq.werner(0.0), ss, 100000, seed=4)),
        ("wishart", tomo.simulate_counts(wishart, ss, 10 ** 6, seed=5)),
        ("pure", tomo.simulate_counts(pure, ss, 100000, seed=6)),
        ("low count", tomo.simulate_counts(tq.werner(0.9), ss, 333, seed=7)),
    ]
    rho = tq.werner(0.8)
    times = rng.uniform(0.3, 3.0, size=len(ss))
    means = [1e4 * t * tomo.setting_probability(rho, s) for s, t in zip(ss, times)]
    cases.append(("unequal times", [
        tomo.CountRecord(s, int(rng.poisson(m)), t)
        for s, t, m in zip(ss, times, means)]))
    one_zero = tomo.simulate_counts(tq.werner(0.95), ss, 100000, seed=8)
    one_zero[5] = tomo.CountRecord(one_zero[5].setting, 0)
    cases.append(("one zero setting", one_zero))
    return cases


@pytest.mark.parametrize("records", [pytest.param(records, id=name)
                                     for name, records in oracle_cases()])
def test_reconstruction_beats_multistart_oracle(records):
    ops, counts = tomo._measurement_ops(records)
    rec, loglik = tomo.mle_reconstruct(records)
    gap = frank_wolfe_gap(ops, counts, rec.matrix)
    assert -1e-9 * counts.sum() <= gap <= tomo.GAP_BOUND * counts.sum()
    # Both sides sum terms of size ~ N log N that cancel to ~ -200.
    assert loglik == pytest.approx(tomo.log_likelihood(records, rec),
                                   abs=1e-13 * counts.sum())
    oracle = mle_multistart(ops, counts)
    oracle_rho = tq.TwoQubitDensity.from_matrix(
        oracle / np.trace(oracle).real, renormalize=True)
    assert loglik >= tomo.log_likelihood(records, oracle_rho) - gap


def test_batched_solve_follows_each_scalar_path():
    # Each row of one lockstep solve takes the path, bit for bit and step
    # for step, that the one-problem solver takes on it alone.
    cases = oracle_cases()
    standard = [records for name, records in cases if name != "unequal times"]
    unequal = [records for name, records in cases if name == "unequal times"]
    ops, _, design = tomo._complete_design(standard[0])
    counts = np.array([tomo._measurement_ops(r)[1] for r in standard])
    batches = [(design, counts), (tomo._complete_design(unequal[0])[2],
                                  tomo._measurement_ops(unequal[0])[1][None])]
    for d, n in batches:
        sigma, steps = tomo._barrier_newton(d, n)
        for row, sigma_row, steps_row in zip(n, sigma, steps):
            ref_sigma, ref_steps = scalar_barrier_newton(d, row)
            assert np.array_equal(sigma_row, ref_sigma)
            assert steps_row == ref_steps


def test_singlet_fractions_match_a_per_row_loop():
    # one stack of states scored at once gives each row's own bits
    cases = oracle_cases()
    standard = [records for name, records in cases if name != "unequal times"]
    unequal = [records for name, records in cases if name == "unequal times"]
    ops, observed = tomo._measurement_ops(standard[0])
    draws = np.random.default_rng(9).poisson(observed, size=(50, len(ops))).astype(float)
    stacks = [(ops, np.array([tomo._measurement_ops(r)[1] for r in standard])),
              (ops, draws), tomo._measurement_ops(unequal[0])]
    for stack_ops, counts in stacks:
        counts = counts.reshape(-1, len(stack_ops))
        fractions = tomo.singlet_fractions(stack_ops, counts)
        assert fractions.shape == (len(counts),)
        assert np.array_equal(fractions, rowwise_singlet_fractions(stack_ops, counts))


def test_batched_solve_keeps_the_cap_and_search_rules(monkeypatch):
    # With a line search that sees a decrease only for steps that move
    # every term by at most 1 % and shrink none by less than 1e-4, each of
    # these rows ends some mu levels at the 50-step cap and others on a
    # search that finds no decrease; the rows still follow their paths.
    log1p = np.log1p
    monkeypatch.setattr(np, "log1p", lambda z: log1p(z) - 10.0 * (
        (np.abs(z) > 1e-2) | ((z < 0.0) & (np.abs(z) < 1e-4))))
    records = [tomo.simulate_counts(tq.werner(p), tomo.standard_settings(),
                                    3000, seed=k)
               for k, p in enumerate((0.0, 0.7, 1.0))]
    design = tomo._complete_design(records[0])[2]
    counts = np.array([tomo._measurement_ops(r)[1] for r in records])
    sigma, steps = tomo._barrier_newton(design, counts)
    for row, sigma_row, steps_row in zip(counts, sigma, steps):
        ref_sigma, ref_steps = scalar_barrier_newton(design, row)
        assert np.array_equal(sigma_row, ref_sigma)
        assert steps_row == ref_steps > 100


def test_bootstrap_certifies_every_resample(monkeypatch):
    ss = tomo.standard_settings()
    records = tomo.simulate_counts(tq.werner(0.9), ss, 100000, seed=12)
    solve = tomo._barrier_newton

    def corrupt_one(d, n):
        sigma, steps = solve(d, n)
        sigma[len(sigma) // 2] = np.eye(4) * np.trace(sigma[0]).real / 4.0
        return sigma, steps

    monkeypatch.setattr(tomo, "_barrier_newton", corrupt_one)
    with pytest.raises(NumericalError, match="duality gap"):
        tomo.bootstrap_singlet_fraction(records, 50, seed=13)


def test_setting_projector_is_built_once():
    s = tomo.MeasurementSetting.from_names("D", "R")
    proj = s.joint_projector()
    joint = np.kron(tomo.waveplate_ket(22.5, 45.0), tomo.waveplate_ket(0.0, -45.0))
    assert np.array_equal(proj, np.outer(joint, joint.conj()))
    assert s.joint_projector() is proj and not proj.flags.writeable
    # the kept projector takes no part in comparing or hashing settings
    fresh = tomo.MeasurementSetting.from_names("D", "R")
    assert fresh == s and hash(fresh) == hash(s) and repr(fresh) == repr(s)


def test_certificate_rejects_a_non_optimal_state(monkeypatch):
    ss = tomo.standard_settings()
    records = tomo.simulate_counts(tq.bell_state("psi_minus"), ss, 100000, seed=2)
    ops, counts = tomo._measurement_ops(records)
    mixed = np.eye(4, dtype=complex) / 4.0
    assert frank_wolfe_gap(ops, counts, mixed) > tomo.GAP_BOUND * counts.sum()
    with pytest.raises(NumericalError, match="duality gap"):
        tomo._certified(ops, counts[None], mixed[None])
    rec, _ = tomo.mle_reconstruct(records)
    sigma, = tomo._certified(ops, counts[None], rec.matrix[None])
    assert np.trace(sigma @ ops.sum(0)).real == pytest.approx(counts.sum())
    # the first failing row is named, and a NaN gap fails
    stack = np.stack([counts, counts])
    gap = frank_wolfe_gap(ops, counts, mixed)
    with pytest.raises(NumericalError, match=re.escape(f"duality gap {gap:.3g} ")):
        tomo._certified(ops, stack, np.stack([rec.matrix, mixed]))
    eigvals = tomo._relative_eigvals

    def nan_in_row_1(*args):
        out = eigvals(*args)
        out[1] = np.nan
        return out
    monkeypatch.setattr(tomo, "_relative_eigvals", nan_in_row_1)
    with pytest.raises(NumericalError, match="duality gap nan"):
        tomo._certified(ops, stack, np.stack([rec.matrix, rec.matrix]))


def test_empty_count_stack_has_no_singlet_fractions():
    ops = np.array([s.joint_projector() for s in tomo.standard_settings()])
    assert tomo._certified(ops, np.zeros((0, 36)),
                           np.zeros((0, 4, 4), dtype=complex)).shape == (0, 4, 4)
    fractions = tomo.singlet_fractions(ops, np.zeros((0, 36)))
    assert fractions.shape == (0,) and fractions.dtype == float
