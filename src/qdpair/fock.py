"""Sparse multimode Fock states and linear-optics transformations.

The pair source is modelled on four bosonic modes: two spatial inputs
(a, b), each carrying H and V polarisation, interfered on a
non-polarising beamsplitter with outputs (c, d).  Mode ordering is

    index 0: aH    1: aV    2: bH    3: bV     (inputs)
    index 0: cH    1: cV    2: dH    3: dV     (after the beamsplitter)

States are sparse maps from occupation vectors to complex amplitudes,
truncated at total photon number ``nmax``.  The beamsplitter convention
is fixed by the creation-operator map (per polarisation, amplitude
transmission t, reflection r, t^2 + r^2 = 1):

    a_P^dag -> t c_P^dag + i r d_P^dag
    b_P^dag -> i r c_P^dag + t d_P^dag

so a 50:50 splitter sends |H>_a |V>_b to
(|H>_c|V>_d + i|HV>_c + i|HV>_d - |H>_d|V>_c) / 2, and two identical
photons bunch completely (no coincidence term).

The same machinery runs on wider mode sets (the entanglement-swapping
layout has sixteen: eight modes and their loss environments; ``swap``
substitutes each creation operator by its image under this map instead
of mixing states pass by pass), so the mode count is a constructor
argument; the four-mode layout above is only the default.  Loss is the
same two-mode mix, onto an empty environment mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import ContractError
from .twoqubit import TwoQubitDensity

DEFAULT_NMAX = 4
# Amplitudes below this are dropped when pruning.
AMPLITUDE_PRUNE = 1e-15

SPATIAL_IN = ("a", "b")
SPATIAL_OUT = ("c", "d")
POLARISATIONS = ("H", "V")

Occupation = tuple


def mode_index(spatial: str, pol: str) -> int:
    """Bijective map from (spatial, polarisation) labels to mode index.

    Accepts input labels (a, b) and output labels (c, d) interchangeably:
    the beamsplitter writes its output back onto the same four slots.
    """
    if spatial in SPATIAL_IN:
        s = SPATIAL_IN.index(spatial)
    elif spatial in SPATIAL_OUT:
        s = SPATIAL_OUT.index(spatial)
    else:
        raise ContractError(f"unknown spatial mode {spatial!r}")
    if pol not in POLARISATIONS:
        raise ContractError(f"unknown polarisation {pol!r}")
    return 2 * s + POLARISATIONS.index(pol)


class FockState:
    """Sparse pure state: occupation vector -> complex amplitude."""

    __slots__ = ("terms", "nmax", "nmodes")

    def __init__(self, terms: dict, nmax: int = DEFAULT_NMAX, nmodes: int = 4,
                 prune: bool = True):
        if nmax < 0:
            raise ContractError("nmax must be non-negative")
        clean = {}
        for occ, amp in terms.items():
            occ = tuple(int(n) for n in occ)
            if len(occ) != nmodes:
                raise ContractError(f"occupation {occ} does not have {nmodes} modes")
            if any(n < 0 for n in occ):
                raise ContractError(f"negative occupation in {occ}")
            if sum(occ) > nmax:
                raise ContractError(f"occupation {occ} exceeds nmax={nmax}")
            amp = complex(amp)
            if prune and abs(amp) < AMPLITUDE_PRUNE:
                continue
            clean[occ] = clean.get(occ, 0.0 + 0.0j) + amp
        self.terms = clean
        self.nmax = nmax
        self.nmodes = nmodes

    @classmethod
    def vacuum(cls, nmax: int = DEFAULT_NMAX, nmodes: int = 4) -> "FockState":
        return cls({(0,) * nmodes: 1.0}, nmax=nmax, nmodes=nmodes)

    @classmethod
    def ket(cls, occ: Iterable, nmax: int = DEFAULT_NMAX) -> "FockState":
        occ = tuple(occ)
        return cls({occ: 1.0}, nmax=nmax, nmodes=len(occ))

    def norm_squared(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.terms.values()))

    def normalized(self) -> "FockState":
        n2 = self.norm_squared()
        if n2 <= 0.0:
            raise ContractError("cannot normalize a zero state")
        s = 1.0 / math.sqrt(n2)
        return FockState({occ: a * s for occ, a in self.terms.items()},
                         nmax=self.nmax, nmodes=self.nmodes)

    def amplitude(self, occ: Iterable) -> complex:
        return self.terms.get(tuple(occ), 0.0 + 0.0j)

    def to_json(self) -> dict:
        terms = [{"occ": list(occ), "re": float(a.real), "im": float(a.imag)}
                 for occ, a in sorted(self.terms.items())]
        return {"nmax": self.nmax, "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "FockState":
        terms = {tuple(t["occ"]): complex(t["re"], t["im"]) for t in data["terms"]}
        nmodes = len(next(iter(terms))) if terms else 4
        return cls(terms, nmax=int(data["nmax"]), nmodes=nmodes)

    def __repr__(self):
        parts = [f"{a:.4g}|{','.join(map(str, occ))}>"
                 for occ, a in sorted(self.terms.items())]
        return "FockState(" + " + ".join(parts) + f"; nmax={self.nmax})"


def tensor(left: FockState, right: FockState) -> FockState:
    """Combine two states defined on disjoint mode subsets of the same layout.

    Both factors must share nmax and mode count; a mode occupied (in any
    term) by both factors is a contract violation.
    """
    if left.nmax != right.nmax or left.nmodes != right.nmodes:
        raise ContractError("tensor factors must share nmax and mode count")
    used_l = {i for occ in left.terms for i in range(left.nmodes) if occ[i] > 0}
    used_r = {i for occ in right.terms for i in range(right.nmodes) if occ[i] > 0}
    overlap = used_l & used_r
    if overlap:
        raise ContractError(f"tensor factors both occupy modes {sorted(overlap)}")
    out = {}
    for occ_l, amp_l in left.terms.items():
        for occ_r, amp_r in right.terms.items():
            occ = tuple(nl + nr for nl, nr in zip(occ_l, occ_r))
            if sum(occ) > left.nmax:
                raise ContractError(
                    f"combined occupation {occ} exceeds nmax={left.nmax}")
            out[occ] = out.get(occ, 0.0 + 0.0j) + amp_l * amp_r
    return FockState(out, nmax=left.nmax, nmodes=left.nmodes)


def _bs_expansion(m: int, n: int, t: float):
    """Image of (i^dag)^m (j^dag)^n under the two-mode mix, as a list of
    (photons in i, photons in j, amplitude) for normalised kets."""
    r = math.sqrt(max(0.0, 1.0 - t * t))
    ir = 1j * r
    norm = math.sqrt(math.factorial(m) * math.factorial(n))
    out = []
    for p in range(m + 1):
        for q in range(n + 1):
            k1 = p + q
            k2 = m + n - k1
            amp = (math.comb(m, p) * math.comb(n, q)
                   * (t ** (p + n - q)) * (ir ** (m - p + q))
                   * math.sqrt(math.factorial(k1) * math.factorial(k2)) / norm)
            if amp != 0:
                out.append((k1, k2, amp))
    return tuple(out)


def two_mode_mix(state: FockState, mode_i: int, mode_j: int,
                 transmissivity: float = 0.5) -> FockState:
    """Apply the beamsplitter creation-operator map to one mode pair.

    ``transmissivity`` is the intensity transmission T; t = sqrt(T).
    Photon number is conserved term by term, so the map is unitary on
    the truncated space.
    """
    if not 0.0 <= transmissivity <= 1.0:
        raise ContractError(f"transmissivity {transmissivity} outside [0, 1]")
    if mode_i == mode_j:
        raise ContractError("mode pair must be distinct")
    t = math.sqrt(transmissivity)
    out = {}
    for occ, amp in state.terms.items():
        m, n = occ[mode_i], occ[mode_j]
        if m == 0 and n == 0:
            out[occ] = out.get(occ, 0.0 + 0.0j) + amp
            continue
        for k1, k2, coeff in _bs_expansion(m, n, t):
            new = list(occ)
            new[mode_i] = k1
            new[mode_j] = k2
            new = tuple(new)
            out[new] = out.get(new, 0.0 + 0.0j) + amp * coeff
    return FockState(out, nmax=state.nmax, nmodes=state.nmodes)


@dataclass(frozen=True)
class BeamsplitterSpec:
    """Polarisation-resolved intensity transmissivities of the output coupler."""

    transmissivity_h: float = 0.5
    transmissivity_v: float = 0.5

    def __post_init__(self):
        for name, val in (("transmissivity_h", self.transmissivity_h),
                          ("transmissivity_v", self.transmissivity_v)):
            if not 0.0 <= val <= 1.0:
                raise ContractError(f"{name}={val} outside [0, 1]")

    @classmethod
    def balanced(cls) -> "BeamsplitterSpec":
        return cls(0.5, 0.5)


def apply_beamsplitter(state: FockState, spec: BeamsplitterSpec = None) -> FockState:
    """Interfere spatial modes a and b on the output coupler.

    Couples (aH, bH) with transmissivity T_H and (aV, bV) with T_V; the
    result is read on the same slots as (cH, cV, dH, dV).
    """
    if state.nmodes != 4:
        raise ContractError("apply_beamsplitter expects the four-mode layout")
    if spec is None:
        spec = BeamsplitterSpec.balanced()
    out = two_mode_mix(state, 0, 2, spec.transmissivity_h)
    out = two_mode_mix(out, 1, 3, spec.transmissivity_v)
    return out


def post_select_coincidence(state: FockState):
    """Project onto exactly one photon in each output spatial mode.

    Returns ``(TwoQubitDensity | None, success_probability)`` where the
    probability is the summed squared amplitude on the coincidence
    subspace (the state is assumed normalised).  A zero-weight
    projection is flagged by returning ``None`` for the state.
    """
    if state.nmodes != 4:
        raise ContractError("post_select_coincidence expects the four-mode layout")
    v = np.zeros(4, dtype=complex)
    for occ, amp in state.terms.items():
        if occ[0] + occ[1] == 1 and occ[2] + occ[3] == 1:
            v[2 * occ[1] + occ[3]] += amp
    prob = float(np.sum(np.abs(v) ** 2))
    if prob < 1e-30:
        return None, 0.0
    return TwoQubitDensity.pure(v), prob


def loss_channel(state: FockState, etas) -> list:
    """Apply independent per-mode loss, branching over Kraus outcomes.

    ``etas`` is a per-mode survival probability sequence.  Mode m is mixed
    with transmissivity ``etas[m]`` onto its own empty environment mode;
    each branch is one environment occupation (photons lost per mode), in
    lexicographic order.  The factor i per reflected photon is undone, so
    a term |n> of the branch losing l carries the Kraus amplitude
    sqrt(C(n, l) eta^(n - l) (1 - eta)^l).  Returns a list of
    ``(probability, normalised FockState)`` pairs summing to the input
    norm; branches below 1e-18 weight are dropped.
    """
    etas = list(etas)
    n = state.nmodes
    if len(etas) != n:
        raise ContractError("need one survival probability per mode")
    dilated = FockState({occ + (0,) * n: amp for occ, amp in state.terms.items()},
                        nmax=state.nmax, nmodes=2 * n)
    for m, eta in enumerate(etas):
        dilated = two_mode_mix(dilated, m, n + m, eta)
    groups: dict = {}
    for occ, amp in dilated.terms.items():
        lost = occ[n:]
        groups.setdefault(lost, {})[occ[:n]] = amp * (-1j) ** sum(lost)
    out = []
    for lost in sorted(groups):
        branch = FockState(groups[lost], nmax=state.nmax, nmodes=n)
        w = branch.norm_squared()
        if w > 1e-18:
            out.append((w, branch.normalized()))
    return out
