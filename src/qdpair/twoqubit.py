"""Polarisation two-qubit states and entanglement figures of merit.

Basis ordering is (HH, HV, VH, VV), where the first letter is the
polarisation of the photon in output arm c and the second the photon in
arm d.  The module supplies the small family of states the source model
needs (Bell states, the interference-limited post-selected state, and
the two background states) plus the singlet fraction, i.e. the overlap
with the closest maximally entangled state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError

BASIS_LABELS = ("HH", "HV", "VH", "VV")

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
# Small negative eigenvalues from round-off are tolerated and clipped on request.
PSD_TOL = 1e-9


@dataclass(frozen=True)
class TwoQubitDensity:
    """A validated 4x4 density matrix in the (HH, HV, VH, VV) basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ContractError(f"density matrix must be 4x4, got {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ContractError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL:
            raise ContractError(f"density matrix trace {np.trace(m).real!r} != 1")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -PSD_TOL:
            raise ContractError(f"density matrix has negative eigenvalue {eigs.min():.3e}")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_matrix(cls, m, renormalize: bool = False) -> "TwoQubitDensity":
        m = np.asarray(m, dtype=complex)
        m = 0.5 * (m + m.conj().T)
        if renormalize:
            tr = np.trace(m).real
            if tr <= 0:
                raise ContractError("cannot renormalize matrix with non-positive trace")
            m = m / tr
        return cls(m)

    @classmethod
    def pure(cls, ket) -> "TwoQubitDensity":
        v = np.asarray(ket, dtype=complex).reshape(4)
        n = np.linalg.norm(v)
        if n == 0:
            raise ContractError("cannot build a state from the zero vector")
        v = v / n
        return cls(np.outer(v, v.conj()))

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def to_json(self) -> list:
        """Serialise as a 4x4 array of [re, im] pairs."""
        return [[[float(z.real), float(z.imag)] for z in row] for row in self.matrix]

    @classmethod
    def from_json(cls, data) -> "TwoQubitDensity":
        m = np.array([[complex(re, im) for re, im in row] for row in data])
        return cls(m)


def bell_state(kind: str) -> TwoQubitDensity:
    """One of the four Bell states."""
    kets = {
        "phi_plus": np.array([1, 0, 0, 1]) / np.sqrt(2),
        "phi_minus": np.array([1, 0, 0, -1]) / np.sqrt(2),
        "psi_plus": np.array([0, 1, 1, 0]) / np.sqrt(2),
        "psi_minus": np.array([0, 1, -1, 0]) / np.sqrt(2),
    }
    if kind not in kets:
        raise ContractError(f"unknown Bell state {kind!r}; expected one of {sorted(kets)}")
    return TwoQubitDensity.pure(kets[kind])


def rho_q(interference: float) -> TwoQubitDensity:
    """Post-selected two-photon state for partial wavepacket overlap.

    With overlap ``interference`` = i the coincidence state is

        1/2 [ (|HV><HV| + |VH><VH|) - i (|HV><VH| + |VH><HV|) ]

    which equals i |psi-><psi-| + (1 - i) rho_b_half.
    """
    if not 0.0 <= interference <= 1.0:
        raise ContractError(f"interference must lie in [0, 1], got {interference}")
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = 0.5
    m[1, 2] = m[2, 1] = -0.5 * interference
    return TwoQubitDensity(m)


def rho_b_zero() -> TwoQubitDensity:
    """Equal mixture of |HH> and |VV>: both photons from the same emission
    window share a polarisation."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    return TwoQubitDensity(m)


def rho_b_half() -> TwoQubitDensity:
    """Equal mixture of |HV> and |VH>: opposite polarisations but no coherence
    (fully distinguishable photons)."""
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = 0.5
    return TwoQubitDensity(m)


def werner(p: float) -> TwoQubitDensity:
    """Werner state: p |psi-><psi-| + (1 - p) I/4."""
    if not 0.0 <= p <= 1.0:
        raise ContractError(f"Werner weight must lie in [0, 1], got {p}")
    m = p * bell_state("psi_minus").matrix + (1.0 - p) * np.eye(4) / 4.0
    return TwoQubitDensity(m)


def overlap_with(rho: TwoQubitDensity, target: TwoQubitDensity) -> float:
    """Fidelity <psi|rho|psi> against a fixed pure target state.

    This is deliberately distinct from singlet_fraction: no optimisation
    over local rotations is performed.
    """
    tm = target.matrix
    eigs = np.linalg.eigvalsh(tm)
    if eigs[-1] < 1.0 - 1e-8:
        raise ContractError("overlap_with target must be a pure state")
    return float(np.trace(rho.matrix @ tm).real)


class SingletFraction(NamedTuple):
    value: float
    rotation: np.ndarray


# Magic basis (Hill & Wootters, PRL 78, 5022 (1997)) as columns:
# |phi+>, i|phi->, i|psi+>, |psi->.  A state is maximally entangled exactly
# when its coefficients in this basis are real up to one global phase.
_MAGIC = np.array([
    [1.0, 1.0j, 0.0, 0.0],
    [0.0, 0.0, 1.0j, 1.0],
    [0.0, 0.0, 1.0j, -1.0],
    [1.0, -1.0j, 0.0, 0.0],
]) / np.sqrt(2.0)


def singlet_fraction(rho: TwoQubitDensity) -> SingletFraction:
    """Largest overlap with any maximally entangled state.

    Every maximally entangled state is B v for the magic basis B and a
    real unit vector v, so the overlap v^T Re(B^dag rho B) v is maximised
    by the top eigenvector of that real symmetric matrix (Grondalski,
    Etlinger & James, Phys. Lett. A 300, 573 (2002)).  The maximiser is
    returned as the unitary U with B v = (U x I)|phi+>.
    """
    vals, vecs = np.linalg.eigh((_MAGIC.conj().T @ rho.matrix @ _MAGIC).real)
    val = float(vals[-1])
    if not -1e-9 <= val <= 1.0 + 1e-9:
        raise ContractError(f"singlet fraction {val} outside [0, 1]")
    rotation = np.sqrt(2.0) * (_MAGIC @ vecs[:, -1]).reshape(2, 2)
    return SingletFraction(min(max(val, 0.0), 1.0), rotation)
