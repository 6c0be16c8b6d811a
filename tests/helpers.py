"""Shared numeric helpers for the test suite."""

import numpy as np
from scipy.linalg import eigh, sqrtm
from scipy.optimize import minimize


def uhlmann_fidelity(rho, sigma):
    """Fidelity F(rho, sigma) = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    a = np.asarray(rho, dtype=complex)
    b = np.asarray(sigma, dtype=complex)
    root = sqrtm(a)
    inner = sqrtm(root @ b @ root)
    val = np.real(np.trace(inner)) ** 2
    return float(min(1.0, max(0.0, val)))


def max_singlet_overlap_grid(rho, coarse=24, refine_rounds=3, refine=9):
    """Maximal overlap with (U x 1)|psi-> found by Euler-angle grid search.

    Independent of the analytic eigenvalue route: scans U = Rz(a) Ry(b) Rz(c)
    on a coarse grid, then shrinks the grid around the best point.
    """
    rho = np.asarray(rho, dtype=complex)
    psi_minus = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)

    def overlap(a, b, c):
        rz1 = np.array([[np.exp(-0.5j * a), 0.0], [0.0, np.exp(0.5j * a)]])
        ry = np.array([[np.cos(b / 2.0), -np.sin(b / 2.0)],
                       [np.sin(b / 2.0), np.cos(b / 2.0)]])
        rz2 = np.array([[np.exp(-0.5j * c), 0.0], [0.0, np.exp(0.5j * c)]])
        u = rz1 @ ry @ rz2
        ket = np.kron(u, np.eye(2)) @ psi_minus
        return float(np.real(ket.conj() @ rho @ ket))

    spans = [2.0 * np.pi, np.pi, 2.0 * np.pi]
    centers = [np.pi, np.pi / 2.0, np.pi]
    best = (-1.0, centers)
    grids = [np.linspace(c - s / 2.0, c + s / 2.0, coarse) for c, s in zip(centers, spans)]
    for a in grids[0]:
        for b in grids[1]:
            for c in grids[2]:
                v = overlap(a, b, c)
                if v > best[0]:
                    best = (v, [a, b, c])
    for _ in range(refine_rounds):
        centers = best[1]
        spans = [s / 4.0 for s in spans]
        grids = [np.linspace(c - s / 2.0, c + s / 2.0, refine) for c, s in zip(centers, spans)]
        for a in grids[0]:
            for b in grids[1]:
                for c in grids[2]:
                    v = overlap(a, b, c)
                    if v > best[0]:
                        best = (v, [a, b, c])
    return best[0]


def random_density_matrix(rng, dim=4):
    """Wishart-distributed random density matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def mle_multistart(ops, counts):
    """Reference ML state: the best of five L-BFGS-B runs over a lower-
    triangular factor T, sigma = T T^dag (James et al., PRA 64, 052312).

    Independent of the barrier route in ``tomography``.  Starts from the
    scaled identity, a clipped linear inversion and three seeded random
    factors.  ``ops`` are the per-setting operators with integration time
    folded in; returns the unnormalised sigma of the best run.
    """
    ops = np.asarray(ops, dtype=complex)
    counts = np.asarray(counts, dtype=float)
    a_total = ops.sum(0)
    n_total = counts.sum()
    floor = 1e-12 * (n_total + 1.0)
    rows, cols = np.tril_indices(4)
    off = rows != cols

    def unpack(x):
        t = np.zeros((4, 4), dtype=complex)
        t[rows, cols] = x[:10]
        t[rows[off], cols[off]] += 1j * x[10:]
        return t

    def pack(t):
        return np.concatenate([t[rows, cols].real, t[rows[off], cols[off]].imag])

    def objective(x):
        t = unpack(x)
        sigma = t @ t.conj().T
        lam = np.maximum(np.einsum("sij,ji->s", ops, sigma).real, floor)
        f = np.trace(sigma @ a_total).real - counts @ np.log(lam)
        # Wirtinger gradient wrt conj(T): (A - sum_s (n_s/lam_s) Pi_s) T
        g = (a_total - np.einsum("s,sij->ij", counts / lam, ops)) @ t
        return f, 2.0 * pack(g)

    scale = n_total / (np.trace(a_total).real / 4.0)
    starts = [np.sqrt(scale / 4.0) * np.eye(4, dtype=complex)]
    flat = ops.transpose(0, 2, 1).reshape(len(ops), 16)
    lin = np.linalg.lstsq(flat, counts.astype(complex), rcond=None)[0].reshape(4, 4)
    vals, vecs = np.linalg.eigh(0.5 * (lin + lin.conj().T))
    vals = np.clip(vals, 1e-8 * max(vals.max(), 1.0), None)
    starts.append(np.linalg.cholesky((vecs * vals) @ vecs.conj().T))
    rng = np.random.default_rng(20240917)
    for _ in range(3):
        t = np.tril(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        t *= np.sqrt(n_total / np.trace(t @ t.conj().T @ a_total).real)
        starts.append(t)
    best = min((minimize(objective, pack(t0), method="L-BFGS-B", jac=True,
                         options={"ftol": 1e-13, "gtol": 1e-8, "maxiter": 5000})
                for t0 in starts), key=lambda res: res.fun)
    t = unpack(best.x)
    return t @ t.conj().T


def frank_wolfe_gap(ops, counts, rho):
    """Upper bound on the likelihood shortfall of rho (Frank-Wolfe gap).

    Scales rho to Tr[sigma A] = N, forms G = A - sum (n_s/lam_s) Pi_s and
    returns Tr[G sigma] - N lambda_min(G, A), the smallest generalised
    eigenvalue taken from scipy's pencil solver.
    """
    a_total = ops.sum(0)
    n_total = counts.sum()
    sigma = rho * (n_total / np.trace(rho @ a_total).real)
    lam = np.einsum("sij,ji->s", ops, sigma).real
    weights = np.divide(counts, lam, out=np.zeros_like(lam), where=counts > 0)
    g = a_total - np.einsum("s,sij->ij", weights, ops)
    return (np.trace(g @ sigma).real
            - n_total * eigh(g, a_total, eigvals_only=True)[0])
