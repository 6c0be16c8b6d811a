"""Tests for the truncated Fock-space engine."""

import numpy as np
import pytest
from scipy.linalg import expm

from qdpair import fock
from qdpair.errors import ContractError
from qdpair.twoqubit import bell_state, overlap_with, singlet_fraction
import helpers
from helpers import kraus_loss_channel


def random_state(rng, nmodes=4, nmax=4, nterms=5):
    terms = {}
    while len(terms) < nterms:
        occ = tuple(int(x) for x in rng.integers(0, nmax + 1, size=nmodes))
        if sum(occ) > nmax:
            continue
        terms[occ] = complex(rng.normal(), rng.normal())
    norm = np.sqrt(sum(abs(v) ** 2 for v in terms.values()))
    terms = {k: v / norm for k, v in terms.items()}
    return fock.FockState(terms, nmax=nmax, nmodes=nmodes)


def test_crossed_pair_interference_amplitudes():
    # |H>_a |V>_b meeting at a balanced splitter: the four output amplitudes
    # are 1/2, -1/2 on the coincidence terms and i/2 on each bunched term.
    state = fock.FockState({(1, 0, 0, 1): 1.0})
    out = fock.apply_beamsplitter(state)
    expected = {
        (1, 0, 0, 1): 0.5 + 0.0j,
        (0, 1, 1, 0): -0.5 + 0.0j,
        (1, 1, 0, 0): 0.5j,
        (0, 0, 1, 1): 0.5j,
    }
    assert set(out.terms) == set(expected)
    for occ, amp in expected.items():
        assert abs(out.terms[occ] - amp) <= 1e-12


def test_post_selection_gives_singlet_at_half_probability():
    state = fock.FockState({(1, 0, 0, 1): 1.0})
    out = fock.apply_beamsplitter(state)
    rho, prob = fock.post_select_coincidence(out)
    assert abs(prob - 0.5) <= 1e-12
    sf = singlet_fraction(rho)
    assert abs(sf.value - 1.0) <= 1e-9
    assert abs(overlap_with(rho, bell_state("psi_minus")) - 1.0) <= 1e-12


def test_mode_index_layout():
    assert [fock.mode_index(s, p) for s in ("c", "d") for p in ("H", "V")] == [0, 1, 2, 3]
    with pytest.raises(ContractError):
        fock.mode_index("x", "H")
    with pytest.raises(ContractError):
        fock.mode_index("c", "Q")


def test_beamsplitter_unitarity_random_states():
    rng = np.random.default_rng(42)
    for _ in range(60):
        st = random_state(rng)
        out = fock.apply_beamsplitter(st)
        assert abs(out.norm_squared() - 1.0) <= 1e-12


def test_two_mode_mix_unitarity_and_photon_conservation():
    rng = np.random.default_rng(43)
    for _ in range(60):
        st = random_state(rng, nmodes=2, nmax=4)
        T = float(rng.uniform(0.02, 0.98))
        out = fock.two_mode_mix(st, 0, 1, transmissivity=T)
        assert abs(out.norm_squared() - 1.0) <= 1e-12
        # photon number is conserved within each total-number sector
        totals_in = {sum(occ) for occ in st.terms}
        totals_out = {sum(occ) for occ in out.terms}
        assert totals_out <= totals_in


def test_two_mode_mix_matches_matrix_exponential():
    # independent oracle: exponentiate i*theta*(a'b + ab') on the truncated
    # two-mode basis and compare amplitudes
    nmax = 4
    dim = nmax + 1
    a = np.zeros((dim, dim))
    for k in range(1, dim):
        a[k - 1, k] = np.sqrt(k)
    A = np.kron(a, np.eye(dim))
    B = np.kron(np.eye(dim), a)
    H = A.conj().T @ B + A @ B.conj().T

    rng = np.random.default_rng(7)
    for _ in range(25):
        T = float(rng.uniform(0.05, 0.95))
        theta = np.arccos(np.sqrt(T))
        U = expm(1j * theta * H)
        terms = {}
        while len(terms) < 4:
            ni, nj = (int(x) for x in rng.integers(0, nmax + 1, size=2))
            if ni + nj <= nmax:
                terms[(ni, nj)] = complex(rng.normal(), rng.normal())
        norm = np.sqrt(sum(abs(v) ** 2 for v in terms.values()))
        terms = {k: v / norm for k, v in terms.items()}
        st = fock.FockState(terms, nmax=nmax, nmodes=2)
        out = fock.two_mode_mix(st, 0, 1, transmissivity=T)
        vec = np.zeros(dim * dim, dtype=complex)
        for (ni, nj), amp in terms.items():
            vec[ni * dim + nj] = amp
        ref = U @ vec
        got = np.zeros_like(ref)
        for (ni, nj), amp in out.terms.items():
            got[ni * dim + nj] = amp
        assert np.max(np.abs(got - ref)) <= 1e-12


def test_two_mode_mix_matches_pass_by_pass_mixer():
    # independent oracle: the dict engine that expands each term's pair
    # occupation binomially, at the end points, the balanced splitter and
    # a uniform draw of T
    rng = np.random.default_rng(48)
    for nmodes in range(2, 7):
        for T in (0.0, 0.5, 1.0, None):
            for _ in range(10):
                nmax = int(rng.integers(1, 6))
                st = random_state(rng, nmodes=nmodes, nmax=nmax,
                                  nterms=min(5, nmax + 1))
                i, j = (int(m) for m in rng.choice(nmodes, 2, replace=False))
                t = float(rng.uniform()) if T is None else T
                got = fock.two_mode_mix(st, i, j, transmissivity=t)
                ref = helpers.two_mode_mix(st, i, j, transmissivity=t)
                assert set(got.terms) == set(ref.terms)
                for occ, amp in ref.terms.items():
                    assert abs(got.terms[occ] - amp) <= 1e-14


def test_stacked_expansion_matches_each_row_alone():
    # rows of unequal length, sharing factors at different steps, and with
    # gaps: each row's block equals its own expansion, term order and
    # amplitudes to the bit
    rng = np.random.default_rng(50)
    nmodes, base = 6, 6
    factors = []
    for ndim in (1, 2, 1, 2, 1):
        form = rng.normal(size=(nmodes,) * ndim) + 1j * rng.normal(size=(nmodes,) * ndim)
        factors.append(form * (rng.uniform(size=form.shape) < 0.5))
    plan = np.array([[0, 1, 2, -1, -1], [3, 3, -1, -1, -1], [-1, -1, -1, -1, -1],
                     [4, 0, 2, 1, -1], [2, -1, 4, -1, 0]])
    keys, occ, coeffs = fock.expand(factors, nmodes, base, plan)
    top = base ** nmodes
    assert np.all(np.diff(keys) > 0)
    for r, row in enumerate(plan):
        own = fock.expand([factors[f] for f in row if f >= 0], nmodes, base)
        mine = keys // top == r
        assert np.array_equal(keys[mine] % top, own[0])
        assert np.array_equal(occ[mine], own[1])
        assert np.array_equal(coeffs[mine], own[2])
    # the row digit counts against the int64 key bound
    fock.expand([], 16, 9, np.zeros((4000, 0), dtype=int))
    with pytest.raises(ContractError):
        fock.expand([], 16, 9, np.zeros((5000, 0), dtype=int))


def test_expansion_keys_are_bounded():
    # keys are digits in base (largest total photon number + 1): sixteen
    # dilated modes hold 15 photons only past int64, and 128 photons do
    # not fit an int8 occupation
    st = fock.FockState({(15,) + (0,) * 7: 1.0}, nmax=15, nmodes=8)
    with pytest.raises(ContractError):
        fock.loss_channel(st, [0.5] * 8)
    st = fock.FockState({(128, 0): 1.0}, nmax=128, nmodes=2)
    with pytest.raises(ContractError):
        fock.two_mode_mix(st, 0, 1)


def test_loss_on_eight_modes_with_four_photons():
    # the base follows the photons, not nmax: 21 ** 16 would overflow int64
    rng = np.random.default_rng(49)
    st = fock.FockState({(1, 0, 0, 2, 0, 0, 1, 0): 0.6,
                         (0, 1, 1, 0, 0, 1, 0, 1): 0.8}, nmax=20, nmodes=8)
    etas = rng.uniform(0.05, 0.95, size=8)
    got = fock.loss_channel(st, etas)
    ref = kraus_loss_channel(st, etas)
    assert len(got) == len(ref)
    for (p, br), (p_ref, br_ref) in zip(got, ref):
        assert abs(p - p_ref) <= 1e-12
        assert list(br.terms) == list(br_ref.terms)
        for occ, amp in br_ref.terms.items():
            assert abs(br.terms[occ] - amp) <= 1e-12


def test_identical_photons_bunch_completely():
    # two indistinguishable photons in the same polarisation never exit on
    # opposite sides of a balanced splitter
    for occ in ((1, 0, 1, 0), (0, 1, 0, 1)):
        st = fock.FockState({occ: 1.0})
        out = fock.apply_beamsplitter(st)
        for out_occ, amp in out.terms.items():
            left = out_occ[0] + out_occ[1]
            right = out_occ[2] + out_occ[3]
            if left == 1 and right == 1:
                assert abs(amp) <= 1e-12


def test_loss_channel_probabilities_normalised():
    rng = np.random.default_rng(44)
    for _ in range(60):
        st = random_state(rng, nmodes=3, nmax=3)
        etas = rng.uniform(0.05, 0.95, size=3)
        branches = fock.loss_channel(st, etas)
        total = sum(p for p, _ in branches)
        assert abs(total - 1.0) <= 1e-10
        for p, br in branches:
            assert p >= 0.0
            assert abs(br.norm_squared() - 1.0) <= 1e-10


def test_loss_channel_against_binomial_sampling():
    # Monte-Carlo oracle: a single |2,1> component under per-mode loss should
    # reproduce independent binomial thinning statistics
    st = fock.FockState({(2, 1): 1.0}, nmax=4, nmodes=2)
    etas = (0.7, 0.4)
    branches = fock.loss_channel(st, etas)
    analytic = {}
    for p, br in branches:
        occ = max(br.terms, key=lambda k: abs(br.terms[k]))
        analytic[occ] = analytic.get(occ, 0.0) + p

    rng = np.random.default_rng(99)
    n = 200000
    kept0 = rng.binomial(2, etas[0], size=n)
    kept1 = rng.binomial(1, etas[1], size=n)
    for occ, p in analytic.items():
        est = np.mean((kept0 == occ[0]) & (kept1 == occ[1]))
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(est - p) <= 5 * sigma + 1e-12


def test_loss_channel_matches_kraus_recursion():
    # the beamsplitter dilation gives the explicit Kraus branches: same
    # order, probabilities and amplitudes, with complete and no loss mixed in
    rng = np.random.default_rng(46)
    for nmodes in (2, 3, 4):
        for _ in range(20):
            st = random_state(rng, nmodes=nmodes, nmax=4)
            etas = rng.uniform(0.02, 0.98, size=nmodes)
            etas[rng.random(nmodes) < 0.25] = 0.0
            etas[rng.random(nmodes) < 0.25] = 1.0
            got = fock.loss_channel(st, etas)
            ref = kraus_loss_channel(st, etas)
            assert len(got) == len(ref)
            for (p, br), (p_ref, br_ref) in zip(got, ref):
                assert abs(p - p_ref) <= 1e-12
                assert list(br.terms) == list(br_ref.terms)
                for occ, amp in br_ref.terms.items():
                    assert abs(br.terms[occ] - amp) <= 1e-12


def test_tensor_combines_disjoint_modes():
    left = fock.FockState({(1, 0, 0): 0.6, (0, 1, 0): 0.8}, nmax=2, nmodes=3)
    right = fock.FockState({(0, 0, 1): 1.0}, nmax=2, nmodes=3)
    combined = fock.tensor(left, right)
    assert combined.nmodes == 3
    assert abs(combined.norm_squared() - 1.0) <= 1e-12
    assert abs(combined.terms[(1, 0, 1)] - 0.6) <= 1e-12
    assert abs(combined.terms[(0, 1, 1)] - 0.8) <= 1e-12
    with pytest.raises(ContractError):
        fock.tensor(left, left)


def test_state_validation_errors():
    with pytest.raises(ContractError):
        fock.FockState({(1, 0, 0): 1.0}, nmodes=4)
    with pytest.raises(ContractError):
        fock.FockState({(5, 0): 1.0}, nmax=4, nmodes=2)
    with pytest.raises(ContractError):
        fock.FockState({(-1, 0): 1.0}, nmodes=2)
    st = fock.FockState({(1, 0): 1.0}, nmodes=2)
    with pytest.raises(ContractError):
        fock.two_mode_mix(st, 0, 1, transmissivity=1.5)
    with pytest.raises(ContractError):
        fock.loss_channel(st, (0.5,))
    for eta in (1.5, -0.1):
        with pytest.raises(ContractError):
            fock.loss_channel(st, (eta, 0.5))
