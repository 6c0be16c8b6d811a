"""Polarisation tomography: measurement model, synthetic counts, and
maximum-likelihood reconstruction of the two-qubit density matrix.

Each analysis arm is a half-wave plate followed by a quarter-wave plate
and a polariser transmitting H, so the detected projector is
|psi(h, q)> = QWP(q)^dag HWP(h)^dag |H>.  The default measurement set is
the 36 combinations of the six canonical states {H, V, D, A, R, L} per
arm, which over-determines the 15 free parameters of the state.

Reconstruction maximises the Poisson likelihood of the recorded counts
over unnormalised positive matrices sigma, which profiles out the count
scale, by barrier Newton with a duality-gap certificate: a log-barrier
keeps sigma positive definite, and a Frank-Wolfe gap computed apart from
the solver bounds how far the likelihood can lie below its maximum.
Every reconstruction is a row of one stack of count vectors on one set
of settings: the solver steps the rows in lockstep, each on its own path,
and the certificate checks them all at once.  ``reconstruct`` solves the
observed counts as row 0 of one stack with their bootstrap resamples, a
single reconstruction being a stack of one; ``singlet_fractions`` solves
and certifies a filter sweep's windows in one call.  Each setting builds
its joint projector once and keeps it; the standard settings build theirs
from the six canonical kets.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import numpy.random  # numpy loads it lazily; load it here, not at the first draw

from .errors import (ConfigError, ContractError, NumericalError,
                     ReconstructionError, check_ranges)
from .twoqubit import TwoQubitDensity, singlet_fraction

# Waveplate angle pairs (hwp, qwp) in degrees realising each canonical state.
CANONICAL_ANGLES = {
    "H": (0.0, 0.0),
    "V": (45.0, 0.0),
    "D": (22.5, 45.0),
    "A": (-22.5, 45.0),
    "R": (0.0, -45.0),
    "L": (0.0, 45.0),
}

MIN_PAIRS = 1         # fewest pairs simulate_counts draws
MIN_RESAMPLES = 50    # fewest resamples bootstrap_singlet_fraction takes


def _rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def hwp_jones(angle_deg: float) -> np.ndarray:
    """Jones matrix of a half-wave plate with fast axis at angle_deg."""
    r = _rot(math.radians(angle_deg))
    return r @ np.diag([1.0, -1.0]).astype(complex) @ r.T


def qwp_jones(angle_deg: float) -> np.ndarray:
    """Jones matrix of a quarter-wave plate with fast axis at angle_deg."""
    r = _rot(math.radians(angle_deg))
    return r @ np.diag([1.0, 1.0j]) @ r.T


def waveplate_ket(hwp_deg: float, qwp_deg: float) -> np.ndarray:
    """Input-space state projected onto by the HWP -> QWP -> polariser chain."""
    ket = qwp_jones(qwp_deg).conj().T @ hwp_jones(hwp_deg).conj().T @ np.array([1.0, 0.0], dtype=complex)
    return ket / np.linalg.norm(ket)


def _match_name(ket: np.ndarray) -> str:
    """The canonical state whose projector equals the ket's, else "custom"."""
    proj = np.outer(ket, ket.conj())
    for name, angles in CANONICAL_ANGLES.items():
        ref = waveplate_ket(*angles)
        if np.max(np.abs(proj - np.outer(ref, ref.conj()))) < 1e-9:
            return name
    return "custom"


@dataclass(frozen=True)
class MeasurementSetting:
    """One joint projective setting, stored as waveplate angles per arm."""

    hwp1_deg: float
    qwp1_deg: float
    hwp2_deg: float
    qwp2_deg: float
    label1: str = "custom"
    label2: str = "custom"

    INTERVALS = {"hwp1_deg": "(-inf, inf)", "qwp1_deg": "(-inf, inf)",
                 "hwp2_deg": "(-inf, inf)", "qwp2_deg": "(-inf, inf)"}

    def __post_init__(self):
        check_ranges(ContractError, self.INTERVALS, **vars(self))

    @classmethod
    def from_names(cls, name1: str, name2: str) -> "MeasurementSetting":
        for n in (name1, name2):
            if n not in CANONICAL_ANGLES:
                raise ContractError(f"unknown setting name {n!r}")
        h1, q1 = CANONICAL_ANGLES[name1]
        h2, q2 = CANONICAL_ANGLES[name2]
        return cls(h1, q1, h2, q2, name1, name2)

    @classmethod
    def from_angles(cls, hwp1_deg, qwp1_deg, hwp2_deg, qwp2_deg) -> "MeasurementSetting":
        check_ranges(ContractError, cls.INTERVALS, hwp1_deg=hwp1_deg, qwp1_deg=qwp1_deg,
                     hwp2_deg=hwp2_deg, qwp2_deg=qwp2_deg)
        k1 = waveplate_ket(hwp1_deg, qwp1_deg)
        k2 = waveplate_ket(hwp2_deg, qwp2_deg)
        return cls(float(hwp1_deg), float(qwp1_deg), float(hwp2_deg), float(qwp2_deg),
                   _match_name(k1), _match_name(k2))

    def arm_ket(self, arm: int) -> np.ndarray:
        if arm == 0:
            return waveplate_ket(self.hwp1_deg, self.qwp1_deg)
        if arm == 1:
            return waveplate_ket(self.hwp2_deg, self.qwp2_deg)
        raise ContractError("arm must be 0 or 1")

    @functools.cached_property
    def _projector(self) -> np.ndarray:
        joint = np.kron(self.arm_ket(0), self.arm_ket(1))
        projector = np.outer(joint, joint.conj())
        projector.flags.writeable = False
        return projector

    def joint_projector(self) -> np.ndarray:
        """P1 x P2, computed on first use and kept (read-only) with the
        setting; it takes no part in comparing or hashing settings."""
        return self._projector


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts acquired at one setting."""

    setting: MeasurementSetting
    counts: int
    integration_time: float = 1.0

    INTERVALS = {"counts": "int [0, inf)", "integration_time": "(0, inf)"}

    def __post_init__(self):
        check_ranges(ContractError, self.INTERVALS, **vars(self))


def standard_settings() -> list:
    """The 36 joint settings over {H, V, D, A, R, L} per arm, row-major.

    The six canonical kets are made once per call, and every setting's
    projector is filled in from them: the products that ``np.kron`` and
    ``np.outer`` form on first use, for all 36 pairs at once.
    """
    kets = np.array([waveplate_ket(*angles) for angles in CANONICAL_ANGLES.values()])
    joint = (kets[:, None, :, None] * kets[None, :, None, :]).reshape(36, 4)
    projectors = joint[:, :, None] * joint.conj()[:, None, :]
    projectors.flags.writeable = False
    settings = [MeasurementSetting.from_names(a, b)
                for a in CANONICAL_ANGLES for b in CANONICAL_ANGLES]
    for setting, projector in zip(settings, projectors):
        vars(setting)["_projector"] = projector   # the cached property's slot
    return settings


def setting_probability(rho: TwoQubitDensity, setting: MeasurementSetting) -> float:
    """Coincidence probability Tr[rho (P1 x P2)] at one setting."""
    return float(np.trace(rho.matrix @ setting.joint_projector()).real)


def simulate_counts(rho: TwoQubitDensity, settings, total_pairs: int,
                    seed: int, integration_time: float = 1.0) -> list:
    """Poisson-distributed synthetic counts, mean total_pairs * Tr[rho Pi_s]."""
    if not settings:
        raise ContractError("settings must be nonempty")
    check_ranges(ContractError, {"total_pairs": f"int [{MIN_PAIRS}, inf)"},
                 total_pairs=total_pairs)
    ops = np.array([s.joint_projector() for s in settings])
    means = total_pairs * _trace(rho.matrix @ ops)
    counts = np.random.default_rng(seed).poisson(np.maximum(means, 0.0))
    return [CountRecord(s, n, integration_time) for s, n in zip(settings, counts.tolist())]


def _measurement_ops(records):
    """Per-record operators with integration time folded in, plus counts."""
    records = list(records)
    if not records:
        raise ContractError("no count records supplied")
    ops = np.array([r.integration_time * r.setting.joint_projector() for r in records])
    counts = np.array([r.counts for r in records], dtype=float)
    return ops, counts


_UPPER = np.triu_indices(4, 1)


def _hermitian_basis() -> np.ndarray:
    """Rows vec(E_k) of the Hermitian basis with sigma = sum_k x_k E_k for
    x = (sigma_ii, then Re sigma_ij, Im sigma_ij for each i < j)."""
    basis = np.zeros((16, 4, 4), dtype=complex)
    basis[np.arange(4), np.arange(4), np.arange(4)] = 1.0
    re = 4 + 2 * np.arange(6)
    basis[re, _UPPER[0], _UPPER[1]] = basis[re, _UPPER[1], _UPPER[0]] = 1.0
    basis[re + 1, _UPPER[0], _UPPER[1]] = 1j
    basis[re + 1, _UPPER[1], _UPPER[0]] = -1j
    return basis.reshape(16, 16)


_BASIS = _hermitian_basis()


def _hermitian(x: np.ndarray) -> np.ndarray:
    """sigma(x) of each packed row x."""
    return np.matmul(x[..., None, :], _BASIS).reshape(x.shape[:-1] + (4, 4))


def _design_matrix(ops) -> np.ndarray:
    """Rows d_s with d_s . x = Tr[sigma(x) Pi_s]."""
    return (ops.reshape(len(ops), 16) @ _BASIS.conj().T).real


GAP_BOUND = 1e-8
_BASIS_H = _BASIS.conj().T


def _mv(m, v) -> np.ndarray:
    """m @ v for each vector v of the stack."""
    return np.matmul(m, v[..., None])[..., 0]


def _dot(u, v) -> np.ndarray:
    """u . v for each pair of vectors of the stacks."""
    return np.matmul(u[..., None, :], v[..., None])[..., 0, 0]


def _trace(m) -> np.ndarray:
    """Real part of the trace of each matrix of the stack."""
    return np.trace(m, axis1=-2, axis2=-1).real


def _relative_eigvals(m, w, v) -> np.ndarray:
    """Eigenvalues of each m relative to the positive matrix v diag(w) v^dag."""
    half = v / np.sqrt(w)[..., None, :]
    return np.linalg.eigvalsh(half.conj().swapaxes(-1, -2) @ m @ half)


def _local_model(d, a, n, x) -> list:
    """What the Newton step needs of each point x of the stack apart from
    mu: the eigenpairs (w, v) of sigma(x), lam = d.x, and the gradient
    g0 - mu gb and Hessian h0 + mu hb of f as [w, v, lam, g0, gb, h0, hb]."""
    w, v = np.linalg.eigh(_hermitian(x))
    s_inv = (v / w[:, None, :]) @ v.conj().swapaxes(1, 2)
    s_inv_t = s_inv.swapaxes(1, 2)
    lam = _mv(d, x)
    # Tr[S E_k S E_l] = vec(E_k) (S^T kron S) vec(E_l)^dag
    kron = s_inv_t[:, :, None, :, None] * s_inv[:, None, :, None, :]
    return [w, v, lam, a - _mv(d.T, n / lam), _mv(_BASIS, s_inv_t.reshape(-1, 16)).real,
            np.matmul(d.T * (n / lam ** 2)[:, None, :], d),
            (_BASIS @ kron.reshape(-1, 16, 16) @ _BASIS_H).real]


def _barrier_newton(d, n) -> tuple:
    """Unnormalised ML states by log-barrier Newton over the packed x, for
    a (B, S) stack of counts n sharing the design d.

    For each row minimises f = a.x - sum_s n_s log(d_s.x) - mu log det
    sigma(x), with design rows d_s and a = sum_s d_s, from sigma = I N / Tr A
    and 4 mu = N (4: barrier parameter of the 4x4 cone); centres each mu to
    a Newton decrement below 1e-6 mu in at most 50 steps, then cuts mu a
    hundredfold until 4 mu <= 1e-10 N.  The eigenvalues e of sigma(dx)
    relative to sigma keep each step inside the cone (so every d_s.x stays
    positive), and with r_s = d_s.dx / d_s.x give the change in f without
    cancelling large terms; a backtracking search that finds no decrease
    in 50 halvings ends the mu level.

    The rows still running step in lockstep, each with its own mu.  Only
    the rows that search compute a search, and only those that step
    recompute their local model (``_local_model``); a row whose level ends
    keeps its point, and its next Newton system reuses that model.  Every
    stacked matmul, eigh, eigvalsh and solve calls, row by row, the BLAS
    or LAPACK routine that the same expression calls on one unstacked
    problem, so each row follows bit for bit the path it follows alone.
    Returns the (B, 4, 4) sigmas and the Newton steps (linear solves) of
    each row.
    """
    a = d.sum(0)
    n_total = n.sum(-1)
    x = np.zeros((len(n), 16))
    x[:, :4] = (n_total / a[:4].sum())[:, None]
    mu = n_total / 4.0
    level = np.zeros(len(n), dtype=int)   # steps taken at the current mu
    live = np.arange(len(n))
    sigma = np.empty((len(n), 4, 4), dtype=complex)
    steps = np.empty(len(n), dtype=int)
    model = _local_model(d, a, n, x)
    iteration = 0
    while live.size:
        iteration += 1
        w, v, lam, g0, gb, h0, hb = model
        grad = g0 - mu[:, None] * gb
        step = -np.linalg.solve(h0 + mu[:, None, None] * hb, grad[..., None])[..., 0]
        decrement = _dot(-grad, step)
        # the rows that search, then those that step; a NaN decrement ends
        # the level here, where it would fail the search
        moved = decrement > 1e-6 * mu
        rows = np.flatnonzero(moved)
        if len(rows):
            every = len(rows) == len(x)
            k = slice(None) if every else rows
            step, n_k, mu_k, decrement = step[k], n[k], mu[k], decrement[k]
            r = _mv(d, step) / lam[k]
            e = _relative_eigvals(_hermitian(step), w[k], v[k])   # ascending
            # a full step, or 0.99 of the way to the cone's edge where that
            # lies within one; the maximum keeps the unused quotients finite
            t = np.where(e[:, 0] > -1.0, 1.0, 0.99 / np.maximum(-e[:, 0], 1.0))
            slope = _dot(a, step)
            pending = True
            for _ in range(50):
                change = (t * slope - _dot(n_k, np.log1p(t[:, None] * r))
                          - mu_k * np.log1p(t[:, None] * e).sum(-1))
                pending = pending & ~(change <= -0.25 * t * decrement)
                if not np.count_nonzero(pending):
                    break
                t = np.where(pending, t * 0.5, t)
            x_k = x[k] + t[:, None] * step
            if np.count_nonzero(pending):   # no decrease left at working precision
                moved[rows[pending]] = False
                x_k = np.where(pending[:, None], x[k], x_k)
            new = _local_model(d, a, n_k, x_k)
            if every:
                x, model = x_k, new
            else:
                x[rows] = x_k
                for arr, part in zip(model, new):
                    arr[rows] = part
        level += moved
        ended = ~moved | (level == 50)
        if not np.count_nonzero(ended):
            continue
        level[ended] = 0
        done = ended & (4.0 * mu <= 1e-10 * n_total)
        mu = np.where(ended, mu / 100.0, mu)
        if np.count_nonzero(done):
            sigma[live[done]] = _hermitian(x[done])
            steps[live[done]] = iteration
            keep = ~done
            live, x, n, n_total, mu, level = (
                arr[keep] for arr in (live, x, n, n_total, mu, level))
            model = [arr[keep] for arr in model]
    return sigma, steps


def _certified(ops, counts, sigma) -> np.ndarray:
    """Rescale each sigma of a (B, 4, 4) stack to Tr[sigma A] = N and
    certify its likelihood against its row of the (B, S) counts.

    f(sigma) = Tr[sigma A] - sum n_s log Tr[sigma Pi_s] is convex with
    gradient G = A - sum (n_s / lam_s) Pi_s, and its minimiser lies in
    {tau >= 0, Tr[tau A] = N}.  Over that set the Frank-Wolfe gap
    Tr[G sigma] - N lambda_min(G, A) bounds f(sigma) - min f from above;
    a gap above GAP_BOUND * N on any row raises NumericalError.  A =
    ops.sum(0) and its ``eigh`` serve every row, and each row's
    arithmetic is that of the same expressions on it alone.
    """
    a_total = ops.sum(0)
    n_total = counts.sum(-1)
    sigma = sigma * (n_total / _trace(sigma @ a_total))[:, None, None]
    lam = np.einsum("sij,bji->bs", ops, sigma).real
    g = a_total - np.einsum("bs,sij->bij", counts / lam, ops)
    gap = (_trace(g @ sigma)
           - n_total * _relative_eigvals(g, *np.linalg.eigh(a_total))[:, 0])
    bound = GAP_BOUND * n_total
    over = np.flatnonzero(~(gap <= bound))   # NaN gaps fail too
    if len(over):
        k = over[0]
        raise NumericalError(f"likelihood duality gap {gap[k]:.3g} exceeds "
                             f"the bound {bound[k]:.3g}")
    return sigma


def _checked_design(ops) -> np.ndarray:
    """Design matrix of the operators, checked to be informationally
    complete."""
    design = _design_matrix(ops)
    rank = int(np.linalg.matrix_rank(design, tol=1e-9))
    if rank < 16:
        raise ReconstructionError(
            "measurement settings are not informationally complete "
            f"(rank {rank} < 16)")
    return design


def _complete_design(records) -> tuple:
    """Operators, counts and checked design matrix of the records."""
    ops, counts = _measurement_ops(records)
    return ops, counts, _checked_design(ops)


def _solve(ops, design, counts) -> np.ndarray:
    """Certified unnormalised ML states, (B, 4, 4), for a (B, S) stack of
    counts, solved together."""
    if (counts.sum(-1) <= 0.0).any():
        raise ReconstructionError("no counts recorded")
    return _certified(ops, counts, _barrier_newton(design, counts)[0])


def _state(sigma) -> TwoQubitDensity:
    """The density matrix of an unnormalised ML state, or the stack of
    those of a stack."""
    return TwoQubitDensity.from_matrix(sigma / _trace(sigma)[..., None, None],
                                       renormalize=True)


def _log_factorials(counts) -> float:
    """Poisson normalisation sum_s log(n_s!) of the recorded counts."""
    return math.fsum(math.lgamma(n + 1.0) for n in counts.tolist())


class Reconstruction(NamedTuple):
    """The ML estimate of a set of count records, with the singlet
    fractions of its parametric-bootstrap resamples (none without them)."""

    state: TwoQubitDensity
    log_likelihood: float
    singlet_fraction: float
    resampled: np.ndarray

    @property
    def singlet_fraction_sigma(self) -> float:
        """Standard deviation of the resampled singlet fractions."""
        return float(np.std(self.resampled, ddof=1))


def reconstruct(records, resamples: int = 0, seed=None) -> Reconstruction:
    """Maximum-likelihood state from Poisson count records, with a
    parametric bootstrap of its singlet fraction.

    The estimate maximises the product of per-setting Poisson terms; its
    log-likelihood includes the full Poisson normalisation.  ``resamples``
    (0, or at least MIN_RESAMPLES) draws of every setting's counts from
    Poisson(observed), seeded by ``seed`` and in the order of a
    resample-by-resample loop, follow the observed counts as rows of one
    stack: one rank check, one solve, one duality-gap certificate (a gap
    above GAP_BOUND = 1e-8 times a row's counts raises NumericalError) and
    one stacked singlet fraction, each row bit for bit as if alone.
    """
    check_ranges(ContractError, {"resamples": f"int [{MIN_RESAMPLES}, inf) or None"},
                 resamples=resamples or None)
    ops, observed, design = _complete_design(records)
    counts = observed[None]
    if resamples:
        draws = np.random.default_rng(seed).poisson(
            observed, size=(resamples, len(observed))).astype(float)
        counts = np.concatenate([counts, draws])
    sigma = _solve(ops, design, counts)
    states = _state(sigma)
    fractions = singlet_fraction(states).value
    lam = np.einsum("sij,ji->s", ops, sigma[0]).real
    loglik = float(observed @ np.log(lam) - lam.sum() - _log_factorials(observed))
    return Reconstruction(TwoQubitDensity(states.matrix[0]), loglik,
                          float(fractions[0]), fractions[1:])


def mle_reconstruct(records) -> tuple:
    """(TwoQubitDensity, log_likelihood) of ``reconstruct`` without resamples."""
    fit = reconstruct(records)
    return fit.state, fit.log_likelihood


def log_likelihood(records, rho: TwoQubitDensity) -> float:
    """Poisson log-likelihood of the records under a given state, with the
    scale (expected pairs per unit integration time) profiled
    analytically: scale* = sum(n) / sum(Tr[rho Pi_s]).
    """
    ops, counts = _measurement_ops(records)
    probs = np.einsum("sij,ji->s", ops, rho.matrix).real
    probs = np.maximum(probs, 1e-300)
    lam = counts.sum() / probs.sum() * probs
    return float(counts @ np.log(lam) - lam.sum() - _log_factorials(counts))


def singlet_fractions(ops, counts) -> np.ndarray:
    """Singlet fraction of the certified ML state of each row of a (B, S)
    stack of counts on one set of settings.

    ``ops`` are the (S, 4, 4) measurement operators: each setting's joint
    projector times its integration time.  The rows are reconstructed in
    one lockstep solve and certified as one stack, then validated and
    scored as one stack of states; each value is bit for bit that of
    ``mle_reconstruct`` on its row alone, and every row passes the same
    checks.
    """
    sigma = _solve(ops, _checked_design(ops), counts)
    return singlet_fraction(_state(sigma)).value


def bootstrap_singlet_fraction(records, resamples: int, seed: int):
    """Parametric-bootstrap sample of the singlet fraction: the resampled
    values of ``reconstruct``, each bit for bit that of ``mle_reconstruct``
    on its resample."""
    check_ranges(ContractError, {"resamples": f"int [{MIN_RESAMPLES}, inf)"},
                 resamples=resamples)
    return reconstruct(records, resamples, seed).resampled


CSV_HEADER = ["setting_arm1", "setting_arm2", "hwp1_deg", "qwp1_deg",
              "hwp2_deg", "qwp2_deg", "counts", "integration_s"]


def records_to_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in records:
            s = r.setting
            writer.writerow([s.label1, s.label2,
                             repr(s.hwp1_deg), repr(s.qwp1_deg),
                             repr(s.hwp2_deg), repr(s.qwp2_deg),
                             r.counts, repr(r.integration_time)])


def records_from_csv(path) -> list:
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ConfigError(f"unexpected CSV header {header!r}")
        for line, row in enumerate(reader, start=2):
            if len(row) != len(CSV_HEADER):
                raise ConfigError(f"line {line}: expected {len(CSV_HEADER)} fields")
            try:
                setting = MeasurementSetting(
                    float(row[2]), float(row[3]), float(row[4]), float(row[5]),
                    row[0], row[1])
                out.append(CountRecord(setting, int(row[6]), float(row[7])))
            except (ValueError, ContractError) as exc:
                raise ConfigError(f"line {line}: {exc}") from exc
    return out
