"""Acceptance gate: one test per release criterion.

Each test prints a single summary line on success; a failing criterion
fails its test. Tolerances are fixed here and must not be loosened.
"""

import dataclasses

import numpy as np
from scipy.linalg import expm

from qdpair import fock, photostat, swap, timetag, tomography, wavepacket
from qdpair import twoqubit as tq
from helpers import max_singlet_overlap_grid, random_density_matrix, \
    uhlmann_fidelity


def test_criterion_01_interference_and_post_selection():
    state = fock.FockState({(1, 0, 0, 1): 1.0})
    out = fock.apply_beamsplitter(state)
    expected = {
        (1, 0, 0, 1): 0.5 + 0.0j,
        (1, 1, 0, 0): 0.5j,
        (0, 0, 1, 1): 0.5j,
        (0, 1, 1, 0): -0.5 + 0.0j,
    }
    assert set(out.terms) == set(expected)
    for occ, amp in expected.items():
        assert abs(out.terms[occ] - amp) <= 1e-12
    rho, prob = fock.post_select_coincidence(out)
    sf = tq.singlet_fraction(rho).value
    assert abs(sf - 1.0) <= 1e-9
    assert abs(prob - 0.5) <= 1e-12
    print(f"criterion 01 PASS: amplitudes exact, singlet fraction {sf:.9f}, "
          f"success probability {prob:.3f}")


def test_criterion_02_visibility_correction():
    v3 = timetag.hom_corrected_visibility(timetag.HomAnalysis(
        v_raw=0.915, epsilon=0.015, bs_r=0.467, bs_t=0.533, g2=0.015))
    assert abs(v3 - 0.981) <= 0.002
    v4 = timetag.hom_corrected_visibility(timetag.HomAnalysis(
        v_raw=0.912, epsilon=0.017, bs_r=0.467, bs_t=0.533, g2=0.012))
    assert abs(v4 - 0.976) <= 0.002
    print(f"criterion 02 PASS: corrected visibilities {v3:.4f} and {v4:.4f}")


def test_criterion_03_rate_budget():
    chain = photostat.EfficiencyChain.measured()
    rate, sigma = photostat.forward_rate(chain, 76.3e6)
    assert abs(rate - 2.10e6) <= 0.05e6
    assert abs(sigma - 0.26e6) <= 0.05e6
    back = photostat.back_propagate_rate(3.2e5, chain)
    assert abs(back - 2.1e6) <= 0.2e6
    print(f"criterion 03 PASS: forward {rate/1e6:.3f} Mpairs/s "
          f"(sigma {sigma/1e6:.3f}), back-propagated {back/1e6:.3f}")


def test_criterion_04_fidelity_vs_purity():
    f_low = wavepacket.fidelity_vs_g2(0.968, 0.013)
    f_high = wavepacket.fidelity_vs_g2(0.968, 0.077)
    assert abs(f_low - 0.964) <= 0.015
    assert abs(f_high - 0.888) <= 0.025
    g2s = np.linspace(0.0, 0.08, 81)
    _, curve = wavepacket.g2_curve(g2s, 0.968)
    assert np.all(np.diff(curve) < 0.0)
    print(f"criterion 04 PASS: F(g2=0.013) {f_low:.4f}, "
          f"F(g2=0.077) {f_high:.4f}, curve monotone")


def test_criterion_05_fidelity_vs_delay():
    i0 = wavepacket.calibrate_i0(0.958)
    params = wavepacket.WavepacketParams(t1_ps=60.0, pulse_width_ps=5.0,
                                         i0=i0)
    _, _, fid = wavepacket.offset_curve([0.0, 60.0], params)
    assert abs(fid[0] - 0.958) <= 1e-9
    assert abs(fid[1] - 0.69) <= 0.04
    print(f"criterion 05 PASS: F(0) {fid[0]:.4f}, F(60 ps) {fid[1]:.4f}")


def test_criterion_06_projected_pair_rates():
    chain = photostat.EfficiencyChain.measured()
    switch = np.prod([e.value for e in chain.switch])
    internal = switch * chain.output_coupler.value \
        * np.sqrt(chain.long_arm.value * chain.short_arm.value)
    got = []
    for eta, target in ((0.49, 55e6), (0.57, 74.6e6), (0.712, 116.4e6)):
        s = swap.SwapScenario(source_kind="qd_postselected",
                              rep_rate_hz=1e9, eta_s=eta * internal)
        rate = swap.pair_rate(s)
        assert abs(rate - target) <= 0.01 * target
        got.append(rate / 1e6)
    print("criterion 06 PASS: projected rates "
          + " / ".join(f"{r:.1f}" for r in got) + " Mpairs/s")


def test_criterion_07_swap_comparison():
    qd = swap.SwapScenario.qd_headline()
    spdc = swap.SwapScenario.spdc_reference()
    # (a) swapped fidelity with measured source parameters
    f_qd = swap.swap_once(qd, qd).fidelity
    assert abs(f_qd - 0.97) <= 0.015
    # (b) + (c) rate comparison on the default loss grid
    table = swap.sweep_loss(qd, spdc)
    cols = table["columns"]
    i_qd = cols.index("rate_qd")
    i_sp = cols.index("rate_spdc")
    mux_cols = [i for i, c in enumerate(cols) if c.startswith("rate_spdc_mux")]
    ratios = [row[i_qd] / row[i_sp] for row in table["rows"]
              if row[i_sp] > 0.0]
    assert max(ratios) >= 10.0
    mux_beats = any(row[i] >= row[i_qd]
                    for row in table["rows"] for i in mux_cols)
    assert mux_beats
    # (d) optimal pump with and without number resolution
    p_pnr = swap.optimise_pump(spdc, 0.97)
    p_thr = swap.optimise_pump(dataclasses.replace(spdc, pnr=False), 0.97)
    assert p_pnr >= 0.10
    assert 0.01 <= p_thr <= 0.05
    print(f"criterion 07 PASS: F_QD {f_qd:.4f}, max rate ratio "
          f"{max(ratios):.1f}, multiplexed crossover found, "
          f"pump {p_thr:.4f} (threshold) / {p_pnr:.4f} (PNR)")


def test_criterion_08_tomography_loop():
    settings = tomography.standard_settings()
    state_rng = np.random.default_rng(20240815)
    worst_fid = 1.0
    worst_dsf = 0.0
    for i in range(10):
        rho = tq.TwoQubitDensity(random_density_matrix(state_rng))
        records = tomography.simulate_counts(rho, settings, 10 ** 6,
                                             seed=1000 + i)
        rec, _ = tomography.mle_reconstruct(records)
        fid = uhlmann_fidelity(rho.matrix, rec.matrix)
        dsf = abs(tq.singlet_fraction(rec).value
                  - tq.singlet_fraction(rho).value)
        worst_fid = min(worst_fid, fid)
        worst_dsf = max(worst_dsf, dsf)
    assert worst_fid >= 0.995
    assert worst_dsf <= 0.005
    worst_werner = 0.0
    for p in (0.2, 0.6, 0.9):
        expected = p + (1.0 - p) / 4.0
        grid = max_singlet_overlap_grid(tq.werner(p).matrix)
        analytic = tq.singlet_fraction(tq.werner(p)).value
        worst_werner = max(worst_werner, abs(grid - expected),
                           abs(analytic - expected))
    assert worst_werner <= 1e-4
    print(f"criterion 08 PASS: worst reconstruction fidelity {worst_fid:.6f},"
          f" worst singlet-fraction error {worst_dsf:.5f}, "
          f"Werner closed form within {worst_werner:.2e}")


def test_criterion_09_temporal_filter_pipeline():
    points = timetag.filter_fidelity_sweep()
    assert [p.t_on_ps for p in points] == [-45.0, -20.0, 0.0, 20.0, 35.0]
    sf = [p.singlet_fraction for p in points]
    assert all(b >= a - 1e-12 for a, b in zip(sf, sf[1:]))
    gain = sf[-1] - sf[0]
    assert gain >= 0.015
    cut = 1.0 - points[-1].retained_fraction
    assert 0.10 <= cut <= 0.40
    print(f"criterion 09 PASS: singlet fraction {sf[0]:.4f} -> {sf[-1]:.4f} "
          f"(gain {gain:.4f}), rate cut {100 * cut:.1f}%")


def test_criterion_10_engine_invariants():
    rng = np.random.default_rng(20240820)

    def random_state(nmodes, nmax, nterms=5):
        terms = {}
        while len(terms) < nterms:
            occ = tuple(int(x) for x in rng.integers(0, nmax + 1,
                                                     size=nmodes))
            if sum(occ) > nmax:
                continue
            terms[occ] = complex(rng.normal(), rng.normal())
        norm = np.sqrt(sum(abs(v) ** 2 for v in terms.values()))
        return fock.FockState({k: v / norm for k, v in terms.items()},
                              nmax=nmax, nmodes=nmodes)

    # unitarity and photon-number conservation, 50 cases each
    for _ in range(50):
        st = random_state(4, 4)
        out = fock.apply_beamsplitter(st)
        assert abs(out.norm_squared() - 1.0) <= 1e-12
        totals_in = {sum(occ) for occ in st.terms}
        assert {sum(occ) for occ in out.terms} <= totals_in
    for _ in range(50):
        st = random_state(2, 4)
        T = float(rng.uniform(0.02, 0.98))
        out = fock.two_mode_mix(st, 0, 1, transmissivity=T)
        assert abs(out.norm_squared() - 1.0) <= 1e-12
        assert {sum(occ) for occ in out.terms} <= {sum(occ)
                                                   for occ in st.terms}

    # complete bunching of identical photons, 50 random phases
    for _ in range(50):
        phase = np.exp(2j * np.pi * rng.uniform())
        pol = rng.integers(0, 2)
        occ = (1, 0, 1, 0) if pol == 0 else (0, 1, 0, 1)
        st = fock.FockState({occ: phase})
        out = fock.apply_beamsplitter(st)
        for out_occ, amp in out.terms.items():
            if out_occ[0] + out_occ[1] == 1 and out_occ[2] + out_occ[3] == 1:
                assert abs(amp) <= 1e-12

    # detection-outcome normalisation, 50 cases
    for _ in range(50):
        dist = photostat.qd_distribution_from_g2(float(rng.uniform(0.0, 0.3)))
        x_two, x_signal, x_background, x_none = photostat.detection_outcomes(
            dist, float(rng.uniform(0.02, 0.98)))
        assert abs(x_two + x_signal + x_background + x_none
                   - 1.0) <= 1e-12

    # loss channel versus Monte Carlo binomial thinning, 50 cases
    n_samples = 40000
    for _ in range(50):
        occ = tuple(int(x) for x in rng.integers(0, 3, size=3))
        if sum(occ) == 0:
            occ = (1, 0, 1)
        st = fock.FockState({occ: 1.0}, nmax=6, nmodes=3)
        etas = rng.uniform(0.1, 0.9, size=3)
        branches = fock.loss_channel(st, etas)
        assert abs(sum(p for p, _ in branches) - 1.0) <= 1e-10
        kept = np.stack([rng.binomial(occ[m], etas[m], size=n_samples)
                         for m in range(3)], axis=1)
        for p, br in branches:
            out_occ = max(br.terms, key=lambda k: abs(br.terms[k]))
            est = np.mean(np.all(kept == np.asarray(out_occ), axis=1))
            sigma = np.sqrt(max(p * (1.0 - p), 1e-12) / n_samples)
            assert abs(est - p) <= 6.0 * sigma + 2e-3
    print("criterion 10 PASS: unitarity, photon-number conservation, "
          "bunching, outcome normalisation, and loss-oracle agreement "
          "hold on 50-case random suites")
