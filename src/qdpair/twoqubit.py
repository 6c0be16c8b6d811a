"""Polarisation two-qubit states and entanglement figures of merit.

Basis ordering is (HH, HV, VH, VV), where the first letter is the
polarisation of the photon in output arm c and the second the photon in
arm d.  The module supplies the small family of states the source model
needs (Bell states, the interference-limited post-selected state, and
the two background states) plus the singlet fraction, i.e. the overlap
with the closest maximally entangled state.

A state is a 4x4 density matrix or a (B, 4, 4) stack of them, a 4x4
being the stack of one: validation and the singlet fraction each take a
whole stack in one stacked ``eigvalsh`` or ``eigh``, which calls the
LAPACK routine row by row, so every row gets the bits it gets alone.
The magic basis and its Psi- column are defined here only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError, check_ranges

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
# Round-off may leave eigenvalues this far below zero; nothing is clipped.
PSD_TOL = 1e-9

_NON_FINITE = "density matrix has non-finite entries"


@dataclass(frozen=True)
class TwoQubitDensity:
    """A validated 4x4 density matrix in the (HH, HV, VH, VV) basis, or a
    (B, 4, 4) stack of them.

    Each row must have finite entries and be Hermitian, of unit trace and
    positive semidefinite to the module tolerances.  A failing stack
    raises the ContractError of its first failing row, naming that row's
    first failing check.
    ``purity``, ``to_json`` and ``overlap_with`` take a single 4x4.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4):
            raise ContractError(f"density matrix must be 4x4, got {m.shape}")
        rows = m.reshape(-1, 4, 4)
        # Non-finite rows fail first, and are zeroed for the checks below:
        # NaN passes every comparison, and inf - inf warns.
        non_finite = ~np.isfinite(rows).all(axis=(1, 2))
        if non_finite.any():
            rows = np.where(non_finite[:, None, None], 0.0, rows)
        traces = np.trace(rows, axis1=1, axis2=2).real
        non_hermitian = np.abs(rows - rows.conj().swapaxes(1, 2)).max(axis=(1, 2)) \
            > HERMITICITY_TOL
        off_trace = abs(traces - 1.0) > TRACE_TOL
        # eigvalsh only on the rows that pass those checks, so that no
        # defect reaches LAPACK
        lowest = np.full(len(rows), np.inf)
        ok = ~(non_finite | non_hermitian | off_trace)
        lowest[ok] = np.linalg.eigvalsh(rows[ok]).min(axis=1)
        fails = np.array([non_finite, non_hermitian, off_trace, lowest < -PSD_TOL])
        bad = np.flatnonzero(fails.any(axis=0))
        if len(bad):
            k = bad[0]
            raise ContractError((
                _NON_FINITE,
                "density matrix is not Hermitian",
                f"density matrix trace {traces[k]!r} != 1",
                f"density matrix has negative eigenvalue {lowest[k]:.3e}",
            )[np.flatnonzero(fails[:, k])[0]])
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_matrix(cls, m, renormalize: bool = False) -> "TwoQubitDensity":
        """Validated state of the Hermitian part of a 4x4 or each matrix of
        a stack, each scaled to unit trace with ``renormalize``."""
        m = np.asarray(m, dtype=complex)
        if not np.isfinite(m).all():
            raise ContractError(_NON_FINITE)
        m = 0.5 * (m + m.conj().swapaxes(-1, -2))
        if renormalize:
            tr = np.trace(m, axis1=-2, axis2=-1).real
            if np.any(tr <= 0):
                raise ContractError("cannot renormalize matrix with non-positive trace")
            m = m / tr[..., None, None]
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
    check_ranges(ContractError, {"interference": "[0, 1]"}, interference=interference)
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
    check_ranges(ContractError, {"p": "[0, 1]"}, p=p)
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
    """Singlet fraction and its maximising rotation: a float and a 2x2 for
    a 4x4 state, a (B,) array and a (B, 2, 2) stack for a stack."""

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
PSI_MINUS = 3   # the magic-basis column of |psi->


def magic_form(m) -> np.ndarray:
    """Re(B^dag m B) of a 4x4 operator, or of each one of a stack, for the
    magic basis B (its columns |phi+>, i|phi->, i|psi+>, |psi->; |psi->
    is column ``PSI_MINUS``).  For a state rho, v^T Re(B^dag rho B) v is
    its overlap with the maximally entangled state B v, v real."""
    return (_MAGIC.conj().T @ m @ _MAGIC).real


def singlet_fraction(rho: TwoQubitDensity) -> SingletFraction:
    """Largest overlap with any maximally entangled state, of a state or of
    each state of a stack.

    Every maximally entangled state is B v for the magic basis B and a
    real unit vector v, so the overlap v^T Re(B^dag rho B) v is maximised
    by the top eigenvector of that real symmetric matrix (Grondalski,
    Etlinger & James, Phys. Lett. A 300, 573 (2002)).  The maximiser is
    returned as the unitary U with B v = (U x I)|phi+>.  One stacked
    ``eigh`` serves the whole stack; a value outside [0, 1] by more than
    1e-9 raises ContractError, naming the first such row's.
    """
    vals, vecs = np.linalg.eigh(magic_form(rho.matrix.reshape(-1, 4, 4)))
    top = vals[:, -1]
    outside = np.flatnonzero(~((-1e-9 <= top) & (top <= 1.0 + 1e-9)))
    if len(outside):
        raise ContractError(f"singlet fraction {float(top[outside[0]])} outside [0, 1]")
    value = np.clip(top, 0.0, 1.0)
    rotation = np.sqrt(2.0) * (_MAGIC @ vecs[:, :, -1:]).reshape(-1, 2, 2)
    if rho.matrix.ndim == 2:
        return SingletFraction(float(value[0]), rotation[0])
    return SingletFraction(value, rotation)
