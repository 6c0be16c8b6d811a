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

One engine, ``expand``, runs every linear network (Scheel,
quant-ph/0406127): each a_m^dag of a term is replaced by its image, row
m of a mode-transfer matrix, and the product expanded on the vacuum.  It
also runs the sixteen-mode entanglement-swapping layout (eight modes and
their loss environments), so the mode count is a constructor argument,
and with a plan it expands many products in one pass (every
core-structure pair of a swap).
Loss maps each mode onto itself and an empty environment mode.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, check_ranges
from .twoqubit import TwoQubitDensity

DEFAULT_NMAX = 4
# Amplitudes below this are dropped when a state is built.
AMPLITUDE_PRUNE = 1e-15

SPATIAL_IN = ("a", "b")
SPATIAL_OUT = ("c", "d")
POLARISATIONS = ("H", "V")


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

    def __init__(self, terms: dict, nmax: int = DEFAULT_NMAX, nmodes: int = 4):
        check_ranges(ContractError, {"nmax": "int [0, inf)"}, nmax=nmax)
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
            if abs(amp) < AMPLITUDE_PRUNE:
                continue
            clean[occ] = clean.get(occ, 0.0 + 0.0j) + amp
        self.terms = clean
        self.nmax = nmax
        self.nmodes = nmodes

    def norm_squared(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.terms.values()))

    def normalized(self) -> "FockState":
        n2 = self.norm_squared()
        if n2 <= 0.0:
            raise ContractError("cannot normalize a zero state")
        s = 1.0 / math.sqrt(n2)
        return FockState({occ: a * s for occ, a in self.terms.items()},
                         nmax=self.nmax, nmodes=self.nmodes)

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


def expand(factors, nmodes: int, base: int, plan=None):
    """Keys (digits in ``base``), int8 occupations (widen them before
    arithmetic) and amplitudes of the product of ``factors`` on the vacuum
    of ``nmodes`` modes: a 1-D factor is sum_k f_k a_k^dag, a 2-D one sum_kl
    f_kl a_k^dag a_l^dag.  ``base`` must exceed every occupation reached;
    past int8 occupations or int64 keys (row digit included) it raises
    ContractError.

    ``plan``, an (R, J) integer array, expands R products in one pass: row
    r is the product of ``factors[plan[r, j]]`` over j, an entry of -1
    standing for no factor.  Each key then carries its row as the digit
    above the modes (row = key // base ** nmodes), and each row's terms come
    out in the order and with the amplitudes, to the bit, of expanding that
    row alone."""
    plan = np.arange(len(factors))[None] if plan is None else np.asarray(plan)
    top = base ** nmodes
    if base > 128 or len(plan) * top >= 2 ** 63:
        raise ContractError(f"keys in base {base} overflow on {nmodes} modes")
    powers = base ** np.arange(nmodes, dtype=np.int64)
    # Each factor as key steps and values.  The last one stands for no
    # factor (-1): a step of 0 by 1, exact on every amplitude, none of
    # which is -0.0 (each is 1 or a sum).
    steps = [(powers if form.ndim == 1 else powers[:, None] + powers)[form != 0]
             for form in factors] + [np.zeros(1, dtype=np.int64)]
    values = [form[form != 0] for form in factors] + [np.ones(1)]
    keys = np.arange(len(plan), dtype=np.int64) * top
    coeffs = np.ones(len(plan), dtype=complex)
    for column in plan.T % len(steps):
        # The terms of the rows taking each factor at this step; only the
        # masks stay alive through the merge.
        use = column[keys // top]
        blocks = [(f, use == f) for f in sorted(set(column.tolist()))]
        del use
        keys, coeffs = _multiply(keys, coeffs, blocks, steps, values)
    occ = np.empty((len(keys), nmodes), dtype=np.int8)
    root_fact = np.sqrt([math.factorial(n) for n in range(base)])
    rest = keys
    for m in range(nmodes):
        high = rest // base      # numpy divides by a scalar fast; divmod does not
        occ[:, m] = rest - high * base
        rest = high
        coeffs = coeffs * root_fact[occ[:, m]]
    return keys, occ, coeffs


def _multiply(keys, coeffs, blocks, steps, values):
    """Keys and amplitudes after one step of ``expand``: each (factor,
    terms) block's candidates, term by term, one per nonzero entry of its
    factor, merged on their keys."""
    sizes = [np.count_nonzero(terms) * len(steps[f]) for f, terms in blocks]
    bounds = np.cumsum([0] + sizes)
    cand = np.empty(bounds[-1], dtype=np.int64)
    for (f, terms), start, end in zip(blocks, bounds, bounds[1:]):
        if end > start:
            np.add(keys[terms][:, None], steps[f],
                   out=cand[start:end].reshape(-1, len(steps[f])))
    keys, inv = np.unique(cand, return_inverse=True)
    prod = np.empty(len(cand), dtype=complex)
    for (f, terms), start, end in zip(blocks, bounds, bounds[1:]):
        if end > start:
            np.multiply(coeffs[terms][:, None], values[f],
                        out=prod[start:end].reshape(-1, len(values[f])))
    return keys, np.bincount(inv, prod.real) + 1j * np.bincount(inv, prod.imag)


def _image(state: FockState, transfer) -> dict:
    """Terms of ``state`` with each a_m^dag replaced by row m of the
    ``transfer`` matrix, in the order they first appear across the input
    terms; keys in base (largest total photon number + 1)."""
    base = max(map(sum, state.terms), default=0) + 1
    out: dict = {}
    for occ, amp in state.terms.items():
        factors = [transfer[m] for m, n in enumerate(occ) for _ in range(n)]
        _, new, coeffs = expand(factors, transfer.shape[1], base)
        amp /= math.sqrt(math.prod(map(math.factorial, occ)))
        for key, c in zip(map(tuple, new.tolist()), coeffs.tolist()):
            out[key] = out.get(key, 0.0 + 0.0j) + amp * c
    return out


def _mix(state: FockState, pairs) -> FockState:
    """One image of ``state`` under two-mode mixes of disjoint (i, j, T)."""
    u = np.eye(state.nmodes, dtype=complex)
    for i, j, transmissivity in pairs:
        t, r = math.sqrt(transmissivity), math.sqrt(1.0 - transmissivity)
        u[[i, i, j, j], [i, j, i, j]] = t, 1j * r, 1j * r, t
    return FockState(_image(state, u), nmax=state.nmax, nmodes=state.nmodes)


def two_mode_mix(state: FockState, mode_i: int, mode_j: int,
                 transmissivity: float = 0.5) -> FockState:
    """Apply the beamsplitter creation-operator map to one mode pair.

    ``transmissivity`` is the intensity transmission T; t = sqrt(T).
    Photon number is conserved term by term, so the map is unitary on
    the truncated space.
    """
    check_ranges(ContractError, {"transmissivity": "[0, 1]"}, transmissivity=transmissivity)
    if mode_i == mode_j:
        raise ContractError("mode pair must be distinct")
    return _mix(state, [(mode_i, mode_j, transmissivity)])


def apply_beamsplitter(state: FockState) -> FockState:
    """Interfere spatial modes a and b on the balanced output coupler.

    Couples (aH, bH) and (aV, bV), each with transmissivity 1/2; the
    result is read on the same slots as (cH, cV, dH, dV).
    """
    if state.nmodes != 4:
        raise ContractError("apply_beamsplitter expects the four-mode layout")
    return _mix(state, [(0, 2, 0.5), (1, 3, 0.5)])


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

    ``etas`` is a per-mode survival probability sequence, each in [0, 1].
    Mode m is dilated onto its own empty environment mode by the real map
    a_m^dag -> sqrt(eta_m) a_m^dag + sqrt(1 - eta_m) e_m^dag, so each
    branch is one environment occupation (photons lost per mode), in
    lexicographic order, and a term |n> of the branch losing l carries the
    Kraus amplitude sqrt(C(n, l) eta^(n - l) (1 - eta)^l) with no phase.
    Returns a list of ``(probability, normalised FockState)`` pairs
    summing to the input norm; branches below 1e-18 weight are dropped.
    """
    etas = np.fromiter(etas, dtype=float)
    n = state.nmodes
    if len(etas) != n:
        raise ContractError("need one survival probability per mode")
    if not np.all((etas >= 0.0) & (etas <= 1.0)):
        raise ContractError(f"survival probabilities {etas} outside [0, 1]")
    dilation = np.hstack([np.diag(np.sqrt(etas)), np.diag(np.sqrt(1.0 - etas))])
    groups: dict = {}
    for occ, amp in _image(state, dilation).items():
        groups.setdefault(occ[n:], {})[occ[:n]] = amp
    out = []
    for lost in sorted(groups):
        branch = FockState(groups[lost], nmax=state.nmax, nmodes=n)
        w = branch.norm_squared()
        if w > 1e-18:
            out.append((w, branch.normalized()))
    return out
