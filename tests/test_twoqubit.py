"""Tests for two-qubit density matrices and the singlet fraction."""

import numpy as np
import pytest

from qdpair import twoqubit as tq
from qdpair.errors import ContractError
from helpers import max_singlet_overlap_grid, random_density_matrix


def haar_unitary(rng, dim=2):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_bell_states_orthonormal_and_pure():
    kinds = ("psi_minus", "psi_plus", "phi_plus", "phi_minus")
    kets = []
    for kind in kinds:
        rho = tq.bell_state(kind)
        assert abs(rho.purity() - 1.0) <= 1e-12
        w, v = np.linalg.eigh(rho.matrix)
        kets.append(v[:, -1])
    for i in range(4):
        for j in range(4):
            ip = abs(np.vdot(kets[i], kets[j]))
            assert abs(ip - (1.0 if i == j else 0.0)) <= 1e-10


def test_werner_closed_form_matches_analytic():
    for p in (0.0, 0.25, 0.5, 0.8, 1.0):
        sf = tq.singlet_fraction(tq.werner(p)).value
        assert abs(sf - (p + (1.0 - p) / 4.0)) <= 1e-9


def test_werner_closed_form_matches_grid_search():
    # independent oracle: Euler-angle grid search over (U x 1)|psi->
    for p in (0.3, 0.8):
        rho = tq.werner(p)
        grid = max_singlet_overlap_grid(rho.matrix)
        assert abs(grid - (p + (1.0 - p) / 4.0)) <= 1e-4
        assert abs(tq.singlet_fraction(rho).value - grid) <= 1e-4


def test_rotated_werner_keeps_closed_form():
    rng = np.random.default_rng(5)
    p = 0.8
    base = tq.werner(p).matrix
    u = np.kron(haar_unitary(rng), haar_unitary(rng))
    rho = tq.TwoQubitDensity(u @ base @ u.conj().T)
    expected = p + (1.0 - p) / 4.0
    assert abs(tq.singlet_fraction(rho).value - expected) <= 1e-9
    assert abs(max_singlet_overlap_grid(rho.matrix) - expected) <= 1e-4


def test_singlet_fraction_invariant_under_local_unitaries():
    rng = np.random.default_rng(6)
    for _ in range(50):
        rho = random_density_matrix(rng)
        sf0 = tq.singlet_fraction(tq.TwoQubitDensity(rho)).value
        u = np.kron(haar_unitary(rng), haar_unitary(rng))
        sf1 = tq.singlet_fraction(tq.TwoQubitDensity(u @ rho @ u.conj().T)).value
        assert abs(sf0 - sf1) <= 1e-8


def test_random_states_match_grid_search():
    # independent oracle beyond the Werner family
    rng = np.random.default_rng(9)
    for _ in range(3):
        rho = random_density_matrix(rng)
        grid = max_singlet_overlap_grid(rho)
        assert abs(tq.singlet_fraction(tq.TwoQubitDensity(rho)).value - grid) <= 1e-4


def test_singlet_fraction_reports_maximising_rotation():
    # random states, plus states whose optimum is degenerate
    states = [tq.TwoQubitDensity(random_density_matrix(np.random.default_rng(seed)))
              for seed in (7, 17, 27)]
    states += [tq.werner(0.0), tq.rho_b_half()]
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    for rho in states:
        sf = tq.singlet_fraction(rho)
        u = np.asarray(sf.rotation)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-10)
        ket = np.kron(u, np.eye(2)) @ phi
        direct = float(np.real(ket.conj() @ rho.matrix @ ket))
        assert abs(direct - sf.value) <= 1e-9


def test_postselected_mixture_components():
    # signal component: overlap with the singlet is (1 + I)/2
    for i in (0.0, 0.5, 0.968, 1.0):
        rho = tq.rho_q(i)
        got = tq.overlap_with(rho, tq.bell_state("psi_minus"))
        assert abs(got - (1.0 + i) / 2.0) <= 1e-12
    # both background species are separable half-half mixtures
    half = np.real_if_close(tq.rho_b_half().matrix)
    assert np.allclose(half, np.diag([0.0, 0.5, 0.5, 0.0]), atol=1e-12)
    zero = np.real_if_close(tq.rho_b_zero().matrix)
    assert np.allclose(zero, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-12)
    assert abs(tq.singlet_fraction(tq.rho_b_half()).value - 0.5) <= 1e-9
    assert abs(tq.singlet_fraction(tq.rho_b_zero()).value - 0.5) <= 1e-9


def test_overlap_with_properties():
    # target must be pure; for pure pairs the overlap is symmetric
    rng = np.random.default_rng(8)
    for _ in range(20):
        ka = rng.normal(size=4) + 1j * rng.normal(size=4)
        ka /= np.linalg.norm(ka)
        kb = rng.normal(size=4) + 1j * rng.normal(size=4)
        kb /= np.linalg.norm(kb)
        a = tq.TwoQubitDensity(np.outer(ka, ka.conj()))
        b = tq.TwoQubitDensity(np.outer(kb, kb.conj()))
        ab = tq.overlap_with(a, b)
        assert abs(ab - tq.overlap_with(b, a)) <= 1e-10
        assert abs(ab - abs(np.vdot(ka, kb)) ** 2) <= 1e-10
        mixed = tq.TwoQubitDensity(random_density_matrix(rng))
        val = tq.overlap_with(mixed, b)
        assert -1e-12 <= val <= 1.0 + 1e-12
    with pytest.raises(ContractError):
        tq.overlap_with(b, tq.werner(0.5))


def test_density_json_roundtrip():
    rho = tq.werner(0.7)
    again = tq.TwoQubitDensity.from_json(rho.to_json())
    assert np.allclose(rho.matrix, again.matrix, atol=1e-14)


def test_density_validation():
    with pytest.raises(ContractError):
        tq.TwoQubitDensity(np.eye(4) * 0.3)
    with pytest.raises(ContractError):
        tq.TwoQubitDensity(np.diag([1.1, -0.1, 0.0, 0.0]))
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 0] = 1.0
    bad[0, 1] = 0.5
    with pytest.raises(ContractError):
        tq.TwoQubitDensity(bad)
    with pytest.raises(ContractError):
        tq.werner(1.2)
    with pytest.raises(ContractError):
        tq.bell_state("sigma")
    with pytest.raises(ContractError):
        tq.rho_q(-0.1)
