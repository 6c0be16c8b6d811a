"""Polarisation tomography: measurement model, synthetic counts, and
maximum-likelihood reconstruction of the two-qubit density matrix.

Each analysis arm is a half-wave plate followed by a quarter-wave plate
and a polariser transmitting H, so the detected projector is
|psi(h, q)> = QWP(q)^dag HWP(h)^dag |H>.  The default measurement set is
the 36 combinations of the six canonical states {H, V, D, A, R, L} per
arm, which over-determines the 15 free parameters of the state.

Reconstruction maximises the Poisson likelihood of the recorded counts
over physical states, parameterised through a lower-triangular factor
(rho proportional to T T^dag) so positivity and unit trace hold by
construction.  The overall count scale is profiled out analytically by
optimising over the unnormalised factor.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln

from .errors import (ConfigError, ContractError, NumericalError,
                     ReconstructionError)
from .twoqubit import TwoQubitDensity, singlet_fraction

_SQ = 1.0 / math.sqrt(2.0)

# Canonical analysis states in the (H, V) Jones basis.
NAMED_KETS = {
    "H": (1.0 + 0.0j, 0.0 + 0.0j),
    "V": (0.0 + 0.0j, 1.0 + 0.0j),
    "D": (_SQ + 0.0j, _SQ + 0.0j),
    "A": (_SQ + 0.0j, -_SQ + 0.0j),
    "R": (_SQ + 0.0j, -1j * _SQ),
    "L": (_SQ + 0.0j, 1j * _SQ),
}

# Waveplate angle pairs (hwp, qwp) in degrees realising each canonical state.
CANONICAL_ANGLES = {
    "H": (0.0, 0.0),
    "V": (45.0, 0.0),
    "D": (22.5, 45.0),
    "A": (-22.5, 45.0),
    "R": (0.0, -45.0),
    "L": (0.0, 45.0),
}

SETTING_NAMES = ("H", "V", "D", "A", "R", "L")


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
    proj = np.outer(ket, ket.conj())
    for name, ref in NAMED_KETS.items():
        refv = np.array(ref)
        if np.max(np.abs(proj - np.outer(refv, refv.conj()))) < 1e-9:
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

    def joint_projector(self) -> np.ndarray:
        k1, k2 = self.arm_ket(0), self.arm_ket(1)
        joint = np.kron(k1, k2)
        return np.outer(joint, joint.conj())


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts acquired at one setting."""

    setting: MeasurementSetting
    counts: int
    integration_time: float = 1.0

    def __post_init__(self):
        if self.counts < 0:
            raise ContractError(f"counts must be non-negative, got {self.counts}")
        if self.integration_time <= 0.0:
            raise ContractError("integration_time must be positive")


def standard_settings() -> list:
    """The 36 joint settings over {H, V, D, A, R, L} per arm, row-major."""
    return [MeasurementSetting.from_names(a, b)
            for a in SETTING_NAMES for b in SETTING_NAMES]


def setting_probability(rho: TwoQubitDensity, setting: MeasurementSetting) -> float:
    """Coincidence probability Tr[rho (P1 x P2)] at one setting."""
    return float(np.trace(rho.matrix @ setting.joint_projector()).real)


def simulate_counts(rho: TwoQubitDensity, settings, total_pairs: int,
                    seed: int, integration_time: float = 1.0) -> list:
    """Poisson-distributed synthetic counts, mean total_pairs * Tr[rho Pi_s]."""
    if not settings:
        raise ContractError("settings must be nonempty")
    if total_pairs <= 0:
        raise ContractError("total_pairs must be positive")
    rng = np.random.default_rng(seed)
    out = []
    for s in settings:
        mean = total_pairs * setting_probability(rho, s)
        out.append(CountRecord(s, int(rng.poisson(max(mean, 0.0))), integration_time))
    return out


def _measurement_ops(records):
    """Per-record operators with integration time folded in, plus counts."""
    ops = np.array([r.integration_time * r.setting.joint_projector() for r in records])
    counts = np.array([r.counts for r in records], dtype=float)
    return ops, counts


_UPPER = np.triu_indices(4, 1)


def _design_matrix(ops) -> np.ndarray:
    """Rows a_s with a_s . x = Tr[sigma Pi_s] for a Hermitian sigma packed
    as x = (sigma_ii, then Re sigma_ij, Im sigma_ij for each i < j)."""
    # Tr[sigma Pi] = sum_i sigma_ii Pi_ii + 2 sum_{i<j}
    # (Re sigma_ij Re Pi_ij + Im sigma_ij Im Pi_ij)
    off = ops[:, _UPPER[0], _UPPER[1]]
    pairs = np.stack([2.0 * off.real, 2.0 * off.imag], axis=-1)
    return np.hstack([np.diagonal(ops, axis1=1, axis2=2).real,
                      pairs.reshape(len(ops), -1)])


_TRIL = [(i, j) for i in range(4) for j in range(i + 1)]


def _unpack(x: np.ndarray) -> np.ndarray:
    t = np.zeros((4, 4), dtype=complex)
    idx = 0
    for i, j in _TRIL:
        if i == j:
            t[i, j] = x[idx]
            idx += 1
        else:
            t[i, j] = x[idx] + 1j * x[idx + 1]
            idx += 2
    return t


def _pack(t: np.ndarray) -> np.ndarray:
    x = []
    for i, j in _TRIL:
        if i == j:
            x.append(t[i, j].real)
        else:
            x.extend([t[i, j].real, t[i, j].imag])
    return np.array(x)


def _objective(x, ops, counts, a_total, floor):
    t = _unpack(x)
    sigma = t @ t.conj().T
    lam = np.einsum("sij,ji->s", ops, sigma).real
    lam_c = np.maximum(lam, floor)
    f = np.trace(sigma @ a_total).real - float(counts @ np.log(lam_c))
    # Wirtinger gradient of f wrt conj(T) is (A - sum_s (n_s/lam_s) Pi_s) T.
    weight = a_total - np.einsum("s,sij->ij", counts / lam_c, ops)
    g = weight @ t
    grad = []
    for i, j in _TRIL:
        if i == j:
            grad.append(2.0 * g[i, j].real)
        else:
            grad.extend([2.0 * g[i, j].real, 2.0 * g[i, j].imag])
    return f, np.array(grad)


def _linear_inversion_start(design, counts):
    sol, *_ = np.linalg.lstsq(design, counts, rcond=None)
    sigma = np.zeros((4, 4), dtype=complex)
    idx = 4
    for i in range(4):
        sigma[i, i] = sol[i]
    for i in range(4):
        for j in range(i + 1, 4):
            sigma[i, j] = sol[idx] + 1j * sol[idx + 1]
            sigma[j, i] = sigma[i, j].conjugate()
            idx += 2
    vals, vecs = np.linalg.eigh(sigma)
    scale = max(vals.max(), 1.0)
    vals = np.clip(vals, 1e-8 * scale, None)
    sigma = (vecs * vals) @ vecs.conj().T
    return np.linalg.cholesky(sigma)


def mle_reconstruct(records) -> tuple:
    """Maximum-likelihood state from Poisson count records.

    Returns (TwoQubitDensity, log_likelihood).  The estimate is the
    physical state maximising the product of per-setting Poisson terms;
    the reported log-likelihood includes the full Poisson normalisation.
    Deterministic: fixed starting points (scaled identity, a linear
    inversion of the counts, and three seeded random factors).
    """
    records = list(records)
    if not records:
        raise ContractError("no count records supplied")
    ops, counts = _measurement_ops(records)
    design = _design_matrix(ops)
    rank = int(np.linalg.matrix_rank(design, tol=1e-9))
    if rank < 16:
        raise ReconstructionError(
            "measurement settings are not informationally complete "
            f"(rank {rank} < 16)")
    a_total = np.einsum("sij->ij", ops)
    n_total = counts.sum()
    floor = 1e-12 * (n_total + 1.0)

    scale = n_total / max(np.trace(a_total).real / 4.0, 1e-300)
    starts = [math.sqrt(scale / 4.0) * np.eye(4, dtype=complex)]
    try:
        t_lin = _linear_inversion_start(design, counts)
        starts.append(t_lin)
    except np.linalg.LinAlgError:
        pass
    rng = np.random.default_rng(20240917)
    for _ in range(3):
        t = np.tril(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        sig = t @ t.conj().T
        t *= math.sqrt(n_total / max(np.trace(sig @ a_total).real, 1e-300))
        starts.append(t)

    best = None
    any_success = False
    for t0 in starts:
        res = minimize(_objective, _pack(t0), args=(ops, counts, a_total, floor),
                       method="L-BFGS-B", jac=True,
                       options={"ftol": 1e-13, "gtol": 1e-8, "maxiter": 5000})
        any_success = any_success or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
    if not any_success:
        raise NumericalError(
            f"likelihood optimisation failed from all starts: {best.message}")

    t = _unpack(best.x)
    sigma = t @ t.conj().T
    tr = np.trace(sigma).real
    if tr <= 0.0:
        raise NumericalError("optimiser collapsed to the zero state")
    rho = TwoQubitDensity.from_matrix(sigma / tr, renormalize=True)
    lam = np.einsum("sij,ji->s", ops, sigma).real
    lam = np.maximum(lam, floor)
    loglik = float(counts @ np.log(lam) - lam.sum() - gammaln(counts + 1.0).sum())
    return rho, loglik


def log_likelihood(records, rho: TwoQubitDensity, scale: float = None) -> float:
    """Poisson log-likelihood of the records under a given state.

    When ``scale`` (expected pairs per unit integration time) is omitted
    it is profiled analytically: scale* = sum(n) / sum(Tr[rho Pi_s]).
    """
    ops, counts = _measurement_ops(list(records))
    probs = np.einsum("sij,ji->s", ops, rho.matrix).real
    probs = np.maximum(probs, 1e-300)
    if scale is None:
        scale = counts.sum() / probs.sum()
    lam = scale * probs
    return float(counts @ np.log(lam) - lam.sum() - gammaln(counts + 1.0).sum())


def bootstrap_singlet_fraction(records, resamples: int, seed: int):
    """Parametric-bootstrap sample of the singlet fraction.

    Resamples each setting's counts from Poisson(observed), re-runs the
    reconstruction, and returns the array of singlet fractions.
    """
    records = list(records)
    if resamples < 50:
        raise ContractError(f"need at least 50 resamples, got {resamples}")
    rng = np.random.default_rng(seed)
    observed = np.array([r.counts for r in records], dtype=float)
    values = np.empty(resamples)
    for k in range(resamples):
        fake = rng.poisson(observed)
        resampled = [CountRecord(r.setting, int(c), r.integration_time)
                     for r, c in zip(records, fake)]
        rho, _ = mle_reconstruct(resampled)
        values[k] = singlet_fraction(rho).value
    return values


def bootstrap_uncertainty(records, resamples: int, seed: int) -> float:
    """Standard deviation of the singlet fraction under Poisson resampling."""
    values = bootstrap_singlet_fraction(records, resamples, seed)
    return float(np.std(values, ddof=1))


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
