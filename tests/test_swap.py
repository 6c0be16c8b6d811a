"""Tests for the two-source entanglement-swapping model."""

import dataclasses
import itertools

import numpy as np
import pytest

from qdpair import photostat, swap
from qdpair import twoqubit as tq
from qdpair.errors import ConfigError, ModelDomainError, NumericalError
from helpers import (eigh_pump_search, joint_profile_heralded_state,
                     mixing_kernel, pooled_heralded_state)

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
    spdc_fixed = dataclasses.replace(SPDC, spdc_p1=0.02)
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


@pytest.mark.parametrize("pnr", (True, False))
def test_heralded_state_matches_branch_kernel(pnr):
    # pairings no other test swaps: unequal losses, two unlike SPDC sources,
    # and a quantum dot against SPDC, against the dict routing path on the
    # per-branch Kraus kernel
    qd_a = dataclasses.replace(QD, channel_loss_db=2.0)
    qd_b = dataclasses.replace(QD, qd_g2=0.04, qd_I=0.9, eta_s=0.6,
                               channel_loss_db=13.0)
    spdc_a = dataclasses.replace(SPDC, spdc_p1=0.03, eta_s=0.7, channel_loss_db=4.0)
    spdc_b = dataclasses.replace(SPDC, mux_n=12, spdc_p1=0.11, eta_s=0.85,
                                 channel_loss_db=9.0)
    pairs = [(dataclasses.replace(left, pnr=pnr),
              dataclasses.replace(right, pnr=pnr))
             for left, right in ((qd_a, qd_b), (spdc_a, spdc_b),
                                 (qd_b, spdc_a))]
    for left, right in pairs:
        rho, herald = swap.heralded_state(left, right)
        rho_ref, herald_ref = pooled_heralded_state(left, right)
        assert herald_ref > 0.0
        assert abs(herald - herald_ref) <= 1e-12 * herald_ref
        assert np.max(np.abs(rho - rho_ref)) <= 1e-12 * np.max(np.abs(rho_ref))


@pytest.mark.parametrize("pnr", (True, False))
def test_heralded_state_matches_joint_profile_pooling(pnr):
    # unlike quantum dots on the two sides, each with line and broadband
    # classical photons, and each against SPDC from either side, against
    # every left branch paired with every right branch
    qd_a = dataclasses.replace(QD, qd_g2=0.03, qd_I=0.93, eta_s=0.75,
                               channel_loss_db=3.0)
    qd_b = dataclasses.replace(QD, qd_g2=0.08, qd_I=0.85, eta_s=0.55,
                               channel_loss_db=11.0)
    spdc = dataclasses.replace(SPDC, spdc_p1=0.06,
                               eta_s=0.7, channel_loss_db=6.0)
    for left, right in ((qd_a, qd_b), (qd_a, spdc), (spdc, qd_b)):
        left = dataclasses.replace(left, pnr=pnr)
        right = dataclasses.replace(right, pnr=pnr)
        rho, herald = swap.heralded_state(left, right)
        rho_ref, herald_ref = joint_profile_heralded_state(left, right)
        assert herald_ref > 0.0
        assert abs(herald - herald_ref) <= 1e-12 * herald_ref
        assert np.max(np.abs(rho - rho_ref)) <= 1e-12 * np.max(np.abs(rho_ref))


PAIR = ("pair",)
QD_CORES = ((), (("s", 0),), (("s", 1),), (("s", 0), ("s", 1)))
SPDC_CORES = ((), (PAIR,), (PAIR, PAIR))


@pytest.fixture
def fresh_kernels():
    # kernels built under a patched setting must not outlive the test
    swap._kernel_cache.clear()
    yield
    swap._kernel_cache.clear()


def kernel_terms(k, extent):
    """A kernel's arrays as {(outer occupation, environment, hits):
    (amplitude, (kept, lost) of the arms oL, iL, oR, iR, qubit index)},
    with hits read from the sector arrays, which are checked on the way."""
    occ = [tuple(row) for row in k.occ.tolist()]
    idx = k.idx.tolist()
    labels = [(p_idx, tuple(counts)) for p_idx, counts
              in zip(k.pattern.tolist(), k.counts.tolist())]
    assert len(set(labels)) == len(labels)
    hits = {}
    for t, slot in zip(k.hit_term.tolist(), k.hit_slot.tolist()):
        sector, outer = divmod(slot, extent ** 4)
        assert np.unravel_index(outer, (extent,) * 4) == occ[t][:4]
        hits.setdefault(t, []).append(labels[sector])
    assert sorted(hits) == list(range(len(occ)))
    # each (sector, environment) group gathers exactly the hits of the
    # terms with a qubit index
    assert np.array_equal(k.vec_slot % 4, k.idx[k.vec_term])
    groups, vec_hits = {}, []
    for t, g in zip(k.vec_term.tolist(), (k.vec_slot // 4).tolist()):
        key = labels[k.vec_sector[g]] + (occ[t][8:],)
        assert groups.setdefault(g, key) == key
        vec_hits.append((t, key[:2]))
    assert len(set(groups.values())) == len(groups)
    assert sorted(vec_hits) == sorted((t, h) for t, hs in hits.items()
                                      for h in hs if idx[t] >= 0)
    arms = [tuple(zip(row[:4], row[4:])) for row in
            k.expo[:, [0, 2, 1, 3, 4, 6, 5, 7]].tolist()]
    amp = k.amp.tolist()
    return {(occ[t][:4], occ[t][8:], tuple(h)): (amp[t], arms[t], idx[t])
            for t, h in hits.items()}


def assert_kernel_matches_oracle(core_l, core_r):
    ref = mixing_kernel(core_l, core_r)
    extent = swap._extent()
    got = kernel_terms(swap._kernel([(core_l, core_r)], extent), extent)
    assert len(got) == len(ref)
    for amp, arms, occ4, idx, env, hits in ref:
        g_amp, g_arms, g_idx = got[(occ4, env, hits)]
        assert abs(g_amp - amp) <= 1e-14
        assert (g_arms, g_idx) == (arms, idx)


def test_kernel_matches_mixing_oracle(fresh_kernels):
    # every core structure at the default cutoff: the 24 pairs fig5 swaps
    # and every quantum dot against SPDC, either way round
    cores = QD_CORES + SPDC_CORES[1:]
    for core_l in cores:
        for core_r in cores:
            assert_kernel_matches_oracle(core_l, core_r)


def test_kernel_matches_mixing_oracle_at_cutoff_3(monkeypatch, fresh_kernels):
    monkeypatch.setattr(swap, "_MAX_PAIRS", 3)
    spdc = dataclasses.replace(SPDC, spdc_p1=0.05)
    three = [core for _, core, _ in swap._side_branches(spdc)][-1]
    assert three == (PAIR,) * 3
    for other in SPDC_CORES + (QD_CORES[-1],):
        assert_kernel_matches_oracle(three, other)
        assert_kernel_matches_oracle(other, three)
    assert_kernel_matches_oracle(three, three)


def counted_expand(monkeypatch):
    calls, expand = [], swap.expand

    def counted(*args, **kwargs):
        calls.append(1)
        return expand(*args, **kwargs)
    monkeypatch.setattr(swap, "expand", counted)
    return calls


@pytest.mark.parametrize("cutoff", (2, 3))
def test_kernels_build_in_one_expansion(monkeypatch, fresh_kernels, cutoff):
    # one fock.expand pass and one cached stack per cold call, however many
    # core-structure pairs it covers (16 quantum-dot pairs; 9 or 16 SPDC
    # pair numbers), and none once it is cached
    monkeypatch.setattr(swap, "_MAX_PAIRS", cutoff)
    calls = counted_expand(monkeypatch)
    swap.heralded_state(QD, QD)
    assert len(calls) == len(swap._kernel_cache) == 1
    swap._kernel_cache.clear()
    configs = swap._pair_configs(SPDC)
    assert len(calls) == 2
    assert len(configs) == (cutoff + 1) ** 2
    assert len(swap._kernel_cache) == 1
    swap.heralded_state(QD, QD)
    assert len(calls) == 3
    swap.heralded_state(QD, QD)
    swap._pair_configs(SPDC)
    assert len(calls) == 3


def test_kernels_do_not_depend_on_their_stack(fresh_kernels):
    # each pair's sector arrays are the same, bit for bit, whether its
    # stack holds every other structure, a few, or that pair alone
    cores = QD_CORES + SPDC_CORES[1:]
    pairs = [(l, r) for l in cores for r in cores]
    etas = (0.7, 0.3, 0.6, 0.2)

    def rows(sectors, index):
        mine = sectors.pair == index
        assert mine.any()
        return sectors.counts[mine], sectors.coh[mine], sectors.dist[mine]

    whole = swap._sector_blocks(pairs, *etas)
    for subset in [pairs[::-5]] + [[pair] for pair in pairs]:
        sectors = swap._sector_blocks(subset, *etas)
        for index, pair in enumerate(subset):
            for got, want in zip(rows(sectors, index), rows(whole, pairs.index(pair))):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)


def test_loss_sweep_caches_one_stack_per_source_kind(fresh_kernels):
    # the quantum-dot and SPDC pair lists are one cached stack each; the
    # keys carry structure, not losses, so another grid adds none
    swap.sweep_loss(QD, SPDC)
    assert len(swap._kernel_cache) == 2
    swap.sweep_loss(QD, SPDC, loss_grid_db=(1.0, 7.5), mux_sizes=(3,))
    assert len(swap._kernel_cache) == 2


def test_kernel_certifies_its_norm(monkeypatch, fresh_kernels):
    # loss that drops the environment modes is not unitary: the expanded
    # state then falls short of the core-state norm and the kernel says so
    lossy = swap._NETWORK.copy()
    lossy[:, 8:] = 0.0
    monkeypatch.setattr(swap, "_NETWORK", lossy)
    with pytest.raises(NumericalError):
        swap._kernel([((PAIR,), (PAIR,))], swap._extent())


@pytest.mark.parametrize("pnr", (True, False))
def test_heralded_state_matches_dict_path_at_cutoff_3(monkeypatch,
                                                      fresh_kernels, pnr):
    # a fourth extent value per coordinate: three SPDC pairs put up to three
    # photons in an outer mode of the right arm, and the quantum dot's
    # classical photons reach the detectors and the left arm
    monkeypatch.setattr(swap, "_MAX_PAIRS", 3)
    assert swap._extent() == 4
    left = dataclasses.replace(QD, qd_g2=0.05, qd_I=0.9, channel_loss_db=4.0,
                               pnr=pnr)
    right = dataclasses.replace(SPDC, spdc_p1=0.08,
                                channel_loss_db=2.0, pnr=pnr)
    rho, herald = swap.heralded_state(left, right)
    rho_ref, herald_ref = pooled_heralded_state(left, right)
    assert herald_ref > 0.0
    assert abs(herald - herald_ref) <= 1e-12 * herald_ref
    assert np.max(np.abs(rho - rho_ref)) <= 1e-12 * np.max(np.abs(rho_ref))


def test_routing_certifies_its_extent(monkeypatch, fresh_kernels):
    # at extent 2 each source's in-line photons still fit (one per detector
    # and outer mode), but two sources' H photons can both reach detector 1
    monkeypatch.setattr(swap, "_extent", lambda: 2)
    qd = dataclasses.replace(QD, qd_g2=0.0, qd_I=0.9)
    assert all(t.shape == (2,) * 4 for t in swap._side_tables(qd).values())
    with pytest.raises(NumericalError, match="detector count"):
        swap.heralded_state(qd, qd)
    # and one source's two H photons cannot share its outer H mode
    noisy = dataclasses.replace(qd, qd_g2=0.05)
    with pytest.raises(NumericalError, match="routing extent"):
        swap._side_tables(noisy)


# fig5's headline scenarios at 0, 10 and 20 dB with one multiplexed column,
# recorded before the kernel was rebuilt as one expansion (rows: loss, QD,
# SPDC and mux-10 rates, each SPDC pump set by bisection on the floor).
PINNED_FIG5 = {
    True: ((0.0, 1927811.6876347396, 206441.4615045943, 4918539.524442379),
           (10.0, 19565.742160003967, 232.76601978301338, 11771.884552693495),
           (20.0, 195.94563981599535, 2.0457478959877458, 106.01637210563908)),
    False: ((0.0, 1970384.9761018266, 2649.562224165686, 198044.1339761474),
            (10.0, 19850.977258796112, 8.720827700712567, 717.2712713162641),
            (20.0, 198.65705345664543, 0.080215185120064, 6.632702472274865)),
}


@pytest.mark.parametrize("pnr", (True, False))
def test_loss_sweep_matches_pinned_table(pnr):
    qd = dataclasses.replace(QD, pnr=pnr)
    spdc = dataclasses.replace(SPDC, pnr=pnr)
    rows = swap.sweep_loss(qd, spdc, loss_grid_db=(0.0, 10.0, 20.0),
                           mux_sizes=(10,))["rows"]
    assert np.array(rows).shape == (3, 4)
    for row, pinned in zip(rows, PINNED_FIG5[pnr]):
        for got, want in zip(row, pinned):
            assert abs(got - want) <= 1e-12 * abs(want)


# The default fig5 table (sweep_loss at its defaults: 0 to 30 dB in 2.5 dB
# steps, the plain SPDC column and mux 10, 30 and 100), recorded while the
# pump search still decided every step on the full singlet fraction.
PINNED_FIG5_DEFAULT = (
    (0.0, 1927811.6876347365, 206441.4615045941, 4918539.524442374, 9272332.496246446, 9738198.426164456),
    (2.5, 614046.3571888133, 17018.275339103257, 703425.791376849, 2400201.423864314, 3418447.69352581),
    (5.0, 194965.40911775202, 3300.7002919998604, 154982.4507743199, 632319.5082101327, 1092531.5303819876),
    (7.5, 61793.52081202297, 828.9508129718275, 40932.23302018084, 180021.5132265046, 344305.90516757517),
    (10.0, 19565.742160003938, 232.7660197830131, 11771.884552693484, 53691.298526224484, 108397.34687377836),
    (12.5, 6191.6626579725435, 69.05101182767538, 3535.6071459681534, 16433.531473691066, 34168.321108049866),
    (15.0, 1958.7638466483, 21.085538979252046, 1086.6300982446598, 5102.4896125372, 10783.052532754706),
    (17.5, 619.5556899197586, 6.539815714596159, 338.2334909248066, 1597.1410822958048, 3405.8069154010977),
    (20.0, 195.9456398159951, 2.045747895987743, 106.0163721056389, 502.1668371278602, 1076.259642210422),
    (22.5, 61.96788495903974, 0.6429585308693102, 33.35793883396094, 158.28269048562, 340.20561554606667),
    (25.0, 19.59675415127678, 0.20263618928333782, 10.51934424678926, 49.96257568426386, 107.55808290957509),
    (27.5, 6.1971779739294135, 0.06395165912838037, 3.3212477538988368, 15.783255437202206, 34.00842365612746),
    (30.0, 1.9597446756691368, 0.02020324141801663, 1.0493929381431333, 4.988386341650274, 10.753690440265675),
)


def test_default_loss_sweep_matches_pinned_table():
    table = swap.sweep_loss(QD, SPDC)
    assert table["columns"] == ["loss_db", "rate_qd", "rate_spdc", "rate_spdc_mux10",
                                "rate_spdc_mux30", "rate_spdc_mux100"]
    assert len(table["rows"]) == len(PINNED_FIG5_DEFAULT)
    for row, pinned in zip(table["rows"], PINNED_FIG5_DEFAULT):
        assert len(row) == len(pinned)
        for got, want in zip(row, pinned):
            assert abs(got - want) <= 1e-12 * abs(want)


# Largest relative shift of each SPDC column of the default fig5 table
# (plain, mux 10, 30 and 100) when the cutoff rises from two pairs per
# source to three, as measured; from three to four the largest is 2.55e-3.
FIG5_SHIFTS_2_TO_3 = (5.46e-2, 4.69e-2, 3.20e-2, 1.79e-2)


def test_default_loss_sweep_truncation_is_stated(monkeypatch, fresh_kernels):
    # the default table, pumps included, at three and at four pairs per source
    tables = [np.array(PINNED_FIG5_DEFAULT)]
    for cutoff in (3, 4):
        monkeypatch.setattr(swap, "_MAX_PAIRS", cutoff)
        tables.append(np.array(swap.sweep_loss(QD, SPDC)["rows"]))
    shifts = [np.max(np.abs(b[:, 1:] - a[:, 1:]) / a[:, 1:], axis=0)
              for a, b in zip(tables, tables[1:])]
    assert shifts[0][0] == shifts[1][0] == 0.0     # rate_qd has no pair cutoff
    assert shifts[0][1:] == pytest.approx(FIG5_SHIFTS_2_TO_3, abs=5e-5)
    assert np.all(shifts[1][1:] <= 3e-3)


def test_photon_number_cutoff_converges(monkeypatch, fresh_kernels):
    # at the default fig5 pumps, the fidelity shift from a fourth pair per
    # source is at most a tenth of the shift from a third
    pumped = []
    for pnr in (True, False):
        base = dataclasses.replace(SPDC, pnr=pnr)
        pumped.append(dataclasses.replace(base, spdc_p1=swap.optimise_pump(base, 0.97)))
    for s in pumped:
        fids = []
        for cutoff in (2, 3, 4):
            monkeypatch.setattr(swap, "_MAX_PAIRS", cutoff)
            fids.append(swap.swap_once(s, s).fidelity)
        assert abs(fids[2] - fids[1]) <= 0.1 * abs(fids[1] - fids[0])


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
        ratio = dist[2] / dist[1]
        for _ in range(4):
            s = dataclasses.replace(
                SPDC, spdc_p1=p1,
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
        p_pnr = swap.optimise_pump(base, 0.97)
        p_thr = swap.optimise_pump(dataclasses.replace(base, pnr=False), 0.97)
        assert abs(p_pnr - with_pnr) <= 5e-4
        assert abs(p_thr - without_pnr) <= 5e-4
        assert p_pnr >= 0.10
        assert 0.01 <= p_thr <= 0.05
        # the optimum respects the fidelity floor
        check = dataclasses.replace(base, spdc_p1=p_pnr)
        assert swap.swap_once(check, check).fidelity >= 0.97 - 1e-12


def test_unattainable_fidelity_floor():
    # the text quotes the full singlet fraction at the bottom of the bracket
    for pnr in (True, False):
        s = dataclasses.replace(SPDC, pnr=pnr)
        with pytest.raises(ModelDomainError, match="unattainable") as err:
            swap.optimise_pump(s, 1.0)
        at_lo = dataclasses.replace(s, spdc_p1=1e-6)
        quoted = str(err.value).rsplit(" ", 1)[1]
        assert quoted == f"{swap.swap_once(at_lo, at_lo).fidelity:.6g}"


@pytest.mark.parametrize("pnr", (True, False))
@pytest.mark.parametrize("statistics", ("thermal", "poissonian"))
def test_pump_search_matches_eigh_oracle(pnr, statistics):
    # deciding on the Psi- overlap picks the same pump and herald bits as
    # deciding every step on the full singlet fraction; threshold nodes at
    # 30 dB take the r <= 1/2 route near the top of the bracket
    for floor, mux_n, loss in itertools.product((0.9, 0.97, 0.99), (1, 3, 10, 100),
                                                (0.0, 10.0, 30.0)):
        s = dataclasses.replace(SPDC, pnr=pnr, spdc_statistics=statistics,
                                mux_n=mux_n, channel_loss_db=loss)
        assert swap._pump_search(s, floor) == eigh_pump_search(s, floor)


def test_pump_search_takes_the_singlet_fraction_where_r_cannot_decide(monkeypatch):
    calls = [0]
    heralded = swap._heralded

    def counted(rho):
        calls[0] += 1
        return heralded(rho)

    monkeypatch.setattr(swap, "_heralded", counted)
    # r <= 1/2 at the top of the bracket
    swap._pump_search(dataclasses.replace(SPDC, pnr=False, channel_loss_db=30.0), 0.97)
    assert calls[0] > 1
    # the floor exactly at an interior grid pump's fidelity
    grid = np.geomspace(1e-6, photostat.SPDC_P1_CEILING["thermal"] * (1.0 - 1e-9), 9)
    at = dataclasses.replace(SPDC, spdc_p1=float(grid[4]))
    floor = swap.swap_once(at, at).fidelity
    calls[0] = 0
    got = swap._pump_search(SPDC, floor)
    assert calls[0] > 1
    assert got == eigh_pump_search(SPDC, floor)
    # elsewhere, only the returned pump's herald takes it
    calls[0] = 0
    swap._pump_search(SPDC, 0.97)
    assert calls[0] == 1


def test_pump_search_certifies_the_psi_minus_overlap():
    # a 30 degree polarisation rotation on arm c mixes Psi- with Phi+; the
    # singlet fraction does not change, but r no longer equals it
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    u = np.kron([[c, -s], [s, c]], np.eye(2))
    configs = {key: u @ block @ u.conj().T
               for key, block in swap._pair_configs(SPDC).items()}
    assert eigh_pump_search(SPDC, 0.97, configs) == pytest.approx(
        swap._pump_search(SPDC, 0.97), rel=1e-12)
    with pytest.raises(NumericalError, match="couples Psi-"):
        swap._pump_search(SPDC, 0.97, configs)


def test_pair_rate_formulas():
    qd = swap.SwapScenario(source_kind="qd_postselected", rep_rate_hz=1e9,
                           eta_s=0.4)
    assert abs(swap.pair_rate(qd) - 0.5 * 1e9 * 0.16) <= 1e-6
    sp = dataclasses.replace(SPDC, spdc_p1=0.02)
    expected = sp.rep_rate_hz * 0.02 * sp.eta_collect ** 2
    assert abs(swap.pair_rate(sp) - expected) <= 1e-6
    # multiplexing boosts the effective single-pair probability
    mux = dataclasses.replace(sp, mux_n=30)
    assert swap.pair_rate(mux) > 10.0 * swap.pair_rate(sp)


def test_mux_n_alone_multiplexes_an_spdc_source():
    # every SPDC quantity with mux_n > 1 is the multiplexed one: the switch
    # in the collection efficiency, the boosted single-pair probability in
    # the pair rate and the boosted pair numbers in the swap
    s = swap.SwapScenario(source_kind="spdc", mux_n=10, spdc_p1=0.02,
                          eta_s=0.8, eta_det=0.9, pnr=True)
    assert s.eta_collect == pytest.approx(0.8 * 0.97, rel=1e-15)
    assert swap.pair_rate(s) == pytest.approx(8389683.769067355, rel=1e-12)
    res = swap.swap_once(s, s)
    assert res.rate_hz == pytest.approx(379124.8038771894, rel=1e-12)
    assert res.fidelity == pytest.approx(0.9945428988809785, rel=1e-12)


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
    table = swap.sweep_loss(QD, SPDC, loss_grid_db=(0.0, 5.0),
                            mux_sizes=(10, 30))
    assert table["columns"] == ["loss_db", "rate_qd", "rate_spdc",
                                "rate_spdc_mux10", "rate_spdc_mux30"]
    rows = table["rows"]
    assert [r[0] for r in rows] == [0.0, 5.0]
    # zero-loss entry agrees with a direct evaluation
    direct = swap.swap_once(QD, QD).rate_hz
    assert abs(rows[0][1] - direct) <= 1e-6 * direct
    # every rate column decreases with loss
    for col in (1, 2, 3, 4):
        assert rows[0][col] > rows[1][col] > 0.0
    # multiplexing outrates the bare probabilistic source
    assert rows[0][3] > rows[0][2]
    assert rows[1][3] > rows[1][2]
    # the SPDC columns are the swap at the pump optimise_pump picks
    for row in rows:
        for col, mux_n in ((2, 1), (3, 10), (4, 30)):
            s = dataclasses.replace(SPDC, mux_n=mux_n, channel_loss_db=row[0])
            s = dataclasses.replace(s, spdc_p1=swap.optimise_pump(s, 0.97))
            ref = swap.swap_once(s, s).rate_hz
            assert abs(row[col] - ref) <= 1e-12 * ref
    # the sweep chooses every pump, so a configured one is refused, not ignored
    fixed = dataclasses.replace(SPDC, spdc_p1=0.02)
    with pytest.raises(ConfigError, match="spdc_p1"):
        swap.sweep_loss(QD, fixed, loss_grid_db=(5.0,), mux_sizes=(10,))


def test_loss_grid():
    # the default grid: 0 to 30 dB per arm in 2.5 dB steps
    assert swap.DEFAULT_LOSS_GRID_DB == \
        tuple(float(x) for x in np.arange(0.0, 31.0, 2.5))
    assert swap.loss_grid(10.0, 10.0) == (0.0, 10.0)
    assert swap.loss_grid(0.0, 2.5) == (0.0,)
    for bad in ((10.0, 0.0), (-1.0, 2.5)):
        with pytest.raises(ConfigError):
            swap.loss_grid(*bad)


def test_scenario_validation():
    with pytest.raises(ConfigError):
        swap.SwapScenario(source_kind="laser")
    with pytest.raises(ConfigError):
        # no pump probability
        swap.pair_rate(swap.SwapScenario(source_kind="spdc"))
    with pytest.raises(ConfigError):
        swap.SwapScenario(source_kind="qd_postselected", eta_s=1.5)
    with pytest.raises(ConfigError):
        swap.SwapScenario(source_kind="qd_postselected", qd_g2=0.9)
    with pytest.raises(ConfigError):
        swap.SwapScenario(source_kind="qd_postselected", mux_n=0)
    with pytest.raises(ConfigError, match="mux_n = 1"):
        swap.SwapScenario(source_kind="qd_postselected", mux_n=2)
    with pytest.raises(ConfigError):
        swap.SwapScenario(source_kind="qd_postselected", channel_loss_db=-1.0)
    with pytest.raises(ConfigError):
        swap.sweep_loss(QD, QD)
    with pytest.raises(ConfigError):
        swap.sweep_loss(SPDC, SPDC)
    # the command line checks mux sizes with the same text
    for bad, index in (((10, 1), 1), ((0,), 0)):
        with pytest.raises(ConfigError,
                           match=rf"^mux_sizes\[{index}\] must be in \[2, inf\)$"):
            swap.sweep_loss(QD, SPDC, loss_grid_db=(0.0,), mux_sizes=bad)
    # a pump its statistics cannot produce; the ceiling itself is allowed
    for statistics, p1 in (("thermal", 0.3), ("poissonian", 0.4)):
        with pytest.raises(ConfigError, match="^spdc_p1 must be in "):
            swap.SwapScenario.spdc_reference(spdc_p1=p1, spdc_statistics=statistics)
    assert swap.SwapScenario.spdc_reference(spdc_p1=0.25).spdc_p1 == 0.25
