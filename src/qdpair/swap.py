"""Entanglement-swapping rate and fidelity model for photon-pair sources.

Two pair sources sit at the ends of a link.  Each keeps one photon of
its pair (the outer photon) and sends the other (the inner photon)
through a lossy channel to a midpoint station, where the two inner
photons interfere on a 50:50 beamsplitter and are detected in the H/V
basis.  A two-detector click pattern consistent with a Bell-state
measurement heralds the swap; the two outer photons then carry the
swapped entanglement.

The model enumerates every photon-number configuration exactly on a
truncated Fock space.  Distinguishability is tracked through species
tags: photons of the same species interfere as bosons, photons of
different species never interfere but still reach the same detectors.

Source models
    quantum dot   two emission windows per attempt (one H, one V),
                  combined on the source beamsplitter.  Each window
                  emits 0/1/2 photons with the purity-limited
                  single-photon statistics; each primary photon is in
                  the common interfering species with amplitude sqrt(I)
                  so every pairwise photon overlap equals I, and the
                  source-level post-selected state reduces to the
                  standard interference-weighted two-qubit model.  The
                  imperfectly overlapping component of a primary stays
                  within the emission line, so it still reaches the
                  midpoint detectors (classically).  The extra photon
                  of a double emission comes from re-excitation: it is
                  early and spectrally broad, far outside the line.
    spdc          0/1/2 polarisation-entangled pairs per pulse with the
                  pair-number distribution of photostat; all pairs share
                  the interfering species.  Multiplexed variants boost
                  the fire probability to 1 - (1 - p)^N and pay one
                  switch traversal in efficiency.

Detection and conditioning
    The midpoint station filters to the emission line, a prerequisite
    of the two-photon interference, so broadband re-excitation photons
    never click the Bell detectors (they can still occupy an outer
    node).  Herald patterns are exactly-two-click signatures: the two
    cross-polarised single-port patterns (|Psi+>, corrected by a sigma_z
    feed-forward on one outer qubit) and the two cross-polarised
    two-port patterns (|Psi->).  Any click outside the pattern vetoes
    it.  With number resolution, a pattern is additionally discarded
    when either of its detectors saw more than one photon.  A herald
    only counts when each outer arm holds at least one photon;
    number-resolving nodes also veto multi-photon arrivals, while
    threshold nodes accept them but the read-out then carries no usable
    correlation (a random polarisation).  Surviving single-photon arms
    are read as polarisation qubits, coherently within the interfering
    species and classically for distinguishable photons.

Rates are quoted per second at the shared attempt rate; the 50% ceiling
of the linear-optics Bell measurement emerges from the pattern
enumeration rather than being applied as a separate factor.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import photostat
from .errors import ConfigError, ContractError, ModelDomainError, NumericalError
from .fock import FockState, loss_channel, two_mode_mix
from .twoqubit import TwoQubitDensity, singlet_fraction

# Mode layout of the swap enumeration (one copy per photon species):
#   0: oLH  1: oLV  2: oRH  3: oRV   outer arms (kept at the nodes)
#   4: iLH  5: iLV  6: iRH  7: iRV   inner arms (sent to the midpoint)
# After the midpoint beamsplitter, slots 4/5 read as output port 1 and
# slots 6/7 as output port 2.
_NMODES = 8
_NMAX = 8
_CLICK_MODES = (4, 5, 6, 7)
_POL_OF_MODE = {4: 0, 5: 1, 6: 0, 7: 1}

# (detector mode 1, detector mode 2, needs sigma_z feed-forward).
# Cross-port patterns project onto the singlet directly; same-port
# patterns herald the |Psi+> branch and need the correction.
_PATTERNS = (
    (4, 7, False),   # port 1 H with port 2 V
    (5, 6, False),   # port 1 V with port 2 H
    (4, 5, True),    # both clicks on port 1
    (6, 7, True),    # both clicks on port 2
)

_SIGMA_Z_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])

SOURCE_KINDS = ("qd_postselected", "spdc", "spdc_multiplexed")

# Grid used by the comparison sweep when none is supplied (dB per arm).
DEFAULT_LOSS_GRID_DB = tuple(float(x) for x in np.arange(0.0, 31.0, 2.5))

_P1_CEILING = {"thermal": 0.25, "poissonian": math.exp(-1.0)}


@dataclass(frozen=True)
class SwapScenario:
    """Parameter bundle for one source feeding the swapping link.

    ``rep_rate_hz`` is the entanglement attempt rate shared by both
    sources.  ``eta_s`` is the per-photon collection efficiency of the
    source; ``eta_det`` applies to the midpoint detectors only;
    ``channel_loss_db`` is the one-way loss of this source's inner arm.
    ``spdc_p1`` is the single-pair probability per pulse; leave it unset
    to have it chosen by ``optimise_pump`` against ``fidelity_floor``.
    Multiplexed sources combine ``mux_n`` heralded units through one
    switch traversal (``switch_eta`` times ``insertion_eta``).
    """

    source_kind: str
    rep_rate_hz: float = 76.3e6
    eta_s: float = 1.0
    eta_det: float = 1.0
    pnr: bool = False
    switch_eta: float = 0.97
    insertion_eta: float = 1.0
    channel_loss_db: float = 0.0
    fidelity_floor: Optional[float] = None
    qd_g2: float = 0.0
    qd_I: float = 1.0
    spdc_p1: Optional[float] = None
    spdc_statistics: str = "thermal"
    mux_n: int = 1

    def __post_init__(self):
        if self.source_kind not in SOURCE_KINDS:
            raise ConfigError(f"unknown source_kind {self.source_kind!r}")
        if self.rep_rate_hz <= 0.0:
            raise ConfigError("rep_rate_hz must be positive")
        for name in ("eta_s", "eta_det", "switch_eta", "insertion_eta"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ConfigError(f"{name}={val} outside [0, 1]")
        if self.channel_loss_db < 0.0:
            raise ConfigError("channel_loss_db must be non-negative")
        if self.fidelity_floor is not None and not 0.0 <= self.fidelity_floor <= 1.0:
            raise ConfigError("fidelity_floor outside [0, 1]")
        if not 0.0 <= self.qd_g2 < 0.5:
            raise ConfigError("qd_g2 outside [0, 0.5)")
        if not 0.0 <= self.qd_I <= 1.0:
            raise ConfigError("qd_I outside [0, 1]")
        if self.spdc_p1 is not None and not 0.0 < self.spdc_p1 < 0.5:
            raise ConfigError("spdc_p1 outside (0, 0.5)")
        if self.spdc_statistics not in _P1_CEILING:
            raise ConfigError(f"unknown spdc_statistics {self.spdc_statistics!r}")
        if int(self.mux_n) != self.mux_n or self.mux_n < 1:
            raise ConfigError("mux_n must be a positive integer")
        if self.source_kind == "spdc_multiplexed" and self.mux_n < 2:
            raise ConfigError("multiplexed sources need mux_n >= 2")

    @classmethod
    def qd_headline(cls, **overrides) -> "SwapScenario":
        """Quantum-dot source at the headline comparison assumptions:
        extraction 0.71, midpoint detectors 0.9 with number resolution,
        measured purity and photon overlap."""
        base = dict(source_kind="qd_postselected", eta_s=0.71, eta_det=0.9,
                    pnr=True, qd_g2=0.013, qd_I=0.968)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def spdc_reference(cls, mux_n: int = 1, **overrides) -> "SwapScenario":
        """SPDC source at the comparison assumptions: extraction 0.8,
        midpoint detectors 0.9 with number resolution, pump optimised
        against a 0.97 fidelity floor; ``mux_n`` > 1 selects the
        multiplexed variant with a 0.97 switch."""
        kind = "spdc_multiplexed" if mux_n > 1 else "spdc"
        base = dict(source_kind=kind, eta_s=0.8, eta_det=0.9, pnr=True,
                    switch_eta=0.97, insertion_eta=1.0,
                    fidelity_floor=0.97, mux_n=mux_n)
        base.update(overrides)
        return cls(**base)

    @property
    def eta_collect(self) -> float:
        """Collection efficiency after any multiplexing switch."""
        if self.source_kind == "spdc_multiplexed":
            return self.eta_s * self.switch_eta * self.insertion_eta
        return self.eta_s

    @property
    def eta_inner(self) -> float:
        """End-to-end survival of an inner photon (collection, channel,
        midpoint detector)."""
        return (self.eta_collect * 10.0 ** (-self.channel_loss_db / 10.0)
                * self.eta_det)


class SwapResult(NamedTuple):
    """(rate_hz, fidelity) with named access."""

    rate_hz: float
    fidelity: float


# ---------------------------------------------------------------------------
# Number statistics.

def _spdc_numbers(p1: float, statistics: str, mux_n: int):
    """Pair-number probabilities (0, 1, 2 pairs) of one source unit,
    boosted by multiplexing: the combined source fires whenever any of
    the mux_n units does, and the selected unit keeps the single-unit
    conditional statistics."""
    dist = photostat.spdc_pair_distribution(p1, statistics=statistics,
                                            max_pairs=2)
    probs = list(dist.probs)
    if mux_n == 1:
        return probs
    p_fire = 1.0 - probs[0]
    if p_fire <= 0.0:
        return probs
    boosted = 1.0 - (1.0 - p_fire) ** mux_n
    scale = boosted / p_fire
    out = [1.0 - boosted] + [p * scale for p in probs[1:]]
    return out


def _qd_window_cases(g2: float, indist: float):
    """Per-window emission cases: (weight, interfering primaries,
    in-line classical photons, broadband noise photons).

    The interfering-species amplitude sqrt(I) per primary makes every
    pairwise primary overlap equal to I; the complementary component
    stays within the emission line but contributes classically.  The
    second photon of a double emission is broadband re-excitation
    noise."""
    q = math.sqrt(indist)
    p0 = g2 / 2.0
    p1 = 1.0 - g2
    p2 = g2 / 2.0
    return (
        (p0, 0, 0, 0),
        (p1 * q, 1, 0, 0),
        (p1 * (1.0 - q), 0, 1, 0),
        (p2 * q, 1, 0, 1),
        (p2 * (1.0 - q), 0, 1, 1),
    )


def _side_branches(scenario: SwapScenario):
    """Enumerate one source's emission branches as
    (weight, core photon descriptors, classical photon descriptors).

    Core descriptors feed the interfering-species Fock state; classical
    photons are routed probabilistically (no interference) and carry
    (polarisation, reaches the midpoint detectors).
    """
    if scenario.source_kind == "qd_postselected":
        cases = _qd_window_cases(scenario.qd_g2, scenario.qd_I)
        branches = []
        for w_h, core_h, line_h, broad_h in cases:
            for w_v, core_v, line_v, broad_v in cases:
                w = w_h * w_v
                if w <= 0.0:
                    continue
                core = [("s", 0)] * core_h + [("s", 1)] * core_v
                classical = ((0, True),) * line_h + ((0, False),) * broad_h \
                    + ((1, True),) * line_v + ((1, False),) * broad_v
                branches.append((w, tuple(core), classical))
        return branches
    p1 = _resolve_p1(scenario)
    probs = _spdc_numbers(p1, scenario.spdc_statistics, scenario.mux_n)
    return [(probs[n], (("pair",),) * n, ()) for n in range(len(probs))
            if probs[n] > 0.0]


def _resolve_p1(scenario: SwapScenario) -> float:
    if scenario.source_kind == "qd_postselected":
        raise ContractError("pair probability is an SPDC parameter")
    if scenario.spdc_p1 is not None:
        return scenario.spdc_p1
    if scenario.fidelity_floor is not None:
        return optimise_pump(scenario)
    raise ConfigError("SPDC scenario needs spdc_p1 or fidelity_floor")


# ---------------------------------------------------------------------------
# Interfering-species Fock kernel.

def _apply_creation(terms: dict, components) -> dict:
    """Apply sum_k amp_k prod(a_dag over modes_k) to a sparse state."""
    out = {}
    for occ, amp in terms.items():
        for modes, coeff in components:
            new = list(occ)
            a = amp * coeff
            for m in modes:
                a *= math.sqrt(new[m] + 1)
                new[m] += 1
            key = tuple(new)
            out[key] = out.get(key, 0.0 + 0.0j) + a
    return out


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _core_state(core_l, core_r) -> FockState:
    """Interfering-species state of both sources before any loss.

    Quantum-dot primaries split on the source beamsplitter (outer gets
    the transmitted H component and the reflected V component); SPDC
    pair operators create one outer and one inner photon in the
    polarisation-singlet combination.
    """
    terms = {(0,) * _NMODES: 1.0 + 0.0j}
    for side, core in ((0, core_l), (1, core_r)):
        o_h, o_v = 2 * side, 2 * side + 1
        i_h, i_v = 4 + 2 * side, 5 + 2 * side
        for op in core:
            if op[0] == "s":
                pol = op[1]
                if pol == 0:
                    comps = (((o_h,), _INV_SQRT2), ((i_h,), 1j * _INV_SQRT2))
                else:
                    comps = (((o_v,), 1j * _INV_SQRT2), ((i_v,), _INV_SQRT2))
            else:
                comps = (((o_h, i_v), _INV_SQRT2), ((o_v, i_h), -_INV_SQRT2))
            terms = _apply_creation(terms, comps)
    state = FockState(terms, nmax=_NMAX, nmodes=_NMODES)
    return state.normalized()


def _qubit_index(occ4) -> int:
    """Map exactly-one-photon-per-arm outer occupations to the two-qubit
    basis index (H, V ordering per arm); -1 when an arm is empty or holds
    more than one photon (vetoed by the nodes)."""
    if occ4[0] + occ4[1] != 1 or occ4[2] + occ4[3] != 1:
        return -1
    return 2 * occ4[1] + occ4[3]


_kernel_cache: dict = {}


def _sector_blocks(core_l, core_r, eta_out_l, eta_in_l, eta_out_r, eta_in_r):
    """Pattern-resolved sector data of the interfering-species state.

    For every herald pattern and every (detector 1, detector 2) photon
    count, returns the coherent one-photon-per-arm block (4x4) and the
    full outer occupation distribution for combination with classical
    photons.  Detector counts outside the pattern's two modes veto the
    sector.
    """
    key = (core_l, core_r, eta_out_l, eta_in_l, eta_out_r, eta_in_r)
    hit = _kernel_cache.get(key)
    if hit is not None:
        return hit
    state = _core_state(core_l, core_r)
    etas = (eta_out_l, eta_out_l, eta_out_r, eta_out_r,
            eta_in_l, eta_in_l, eta_in_r, eta_in_r)
    blocks = {i: {} for i in range(len(_PATTERNS))}
    for weight, branch in loss_channel(state, etas):
        mixed = two_mode_mix(branch, 4, 6, 0.5)
        mixed = two_mode_mix(mixed, 5, 7, 0.5)
        for p_idx, (m1, m2, _corr) in enumerate(_PATTERNS):
            groups: dict = {}
            for occ, amp in mixed.terms.items():
                ok = True
                for m in _CLICK_MODES:
                    if m not in (m1, m2) and occ[m] > 0:
                        ok = False
                        break
                if not ok:
                    continue
                sector = (occ[m1], occ[m2])
                groups.setdefault(sector, {})[occ[:4]] = \
                    groups.setdefault(sector, {}).get(occ[:4], 0.0 + 0.0j) + amp
            for sector, outer in groups.items():
                entry = blocks[p_idx].get(sector)
                if entry is None:
                    entry = [np.zeros((4, 4), dtype=complex), {}]
                    blocks[p_idx][sector] = entry
                coh, occ_dist = entry
                v4 = np.zeros(4, dtype=complex)
                for occ4, amp in outer.items():
                    prob = abs(amp) ** 2
                    occ_dist[occ4] = occ_dist.get(occ4, 0.0) + weight * prob
                    idx = _qubit_index(occ4)
                    if idx >= 0:
                        v4[idx] += amp
                coh += weight * np.outer(v4, v4.conj())
    _kernel_cache[key] = blocks
    return blocks


def _classical_combos(classical_l, classical_r, pattern, etas_l, etas_r):
    """Pooled routing outcomes of the distinguishable photons for one
    pattern: weight by (added count on detector 1, on detector 2, added
    outer occupations).  Routes that click outside the pattern kill the
    branch and are simply omitted.  Broadband photons are absorbed by
    the midpoint line filter, so their only surviving route is an outer
    node."""
    m1, m2, _ = pattern
    combos = {(0, 0, (0, 0, 0, 0)): 1.0}
    photons = [(0, ph, etas_l) for ph in classical_l] + \
              [(1, ph, etas_r) for ph in classical_r]
    for side, (pol, in_line), (eta_out, eta_in) in photons:
        eta_click = eta_in if in_line else 0.0
        options = [((0, 0, (0, 0, 0, 0)),
                    1.0 - 0.5 * eta_out - 0.5 * eta_click)]
        outer = [0, 0, 0, 0]
        outer[2 * side + pol] = 1
        options.append(((0, 0, tuple(outer)), 0.5 * eta_out))
        if _POL_OF_MODE[m1] == pol and in_line:
            options.append(((1, 0, (0, 0, 0, 0)), 0.25 * eta_in))
        if _POL_OF_MODE[m2] == pol and in_line:
            options.append(((0, 1, (0, 0, 0, 0)), 0.25 * eta_in))
        new = {}
        for (k1, k2, dout), w in combos.items():
            for (d1, d2, add), ow in options:
                key = (k1 + d1, k2 + d2,
                       tuple(a + b for a, b in zip(dout, add)))
                new[key] = new.get(key, 0.0) + w * ow
        combos = new
    return combos


def _accepted(k1: int, k2: int, pnr: bool) -> bool:
    if pnr:
        return k1 == 1 and k2 == 1
    return k1 >= 1 and k2 >= 1


def _arm_probs(h: int, v: int, pnr: bool):
    """Polarisation-read probabilities (pH, pV) for one outer arm, or
    None when the arm is rejected.  Number-resolving nodes veto
    anything but a single photon; threshold nodes accept multi-photon
    arrivals but the read-out carries no usable correlation, so the arm
    reads as a random polarisation."""
    n = h + v
    if n == 1:
        return (1.0, 0.0) if h == 1 else (0.0, 1.0)
    if pnr or n == 0:
        return None
    return (0.5, 0.5)


def _pattern_state(blocks, combos_by_pattern, pnr: bool):
    """Accumulate the corrected heralded two-qubit operator (unnormalised)
    and its trace for one joint emission branch."""
    rho = np.zeros((4, 4), dtype=complex)
    for p_idx, (m1, m2, corr) in enumerate(_PATTERNS):
        coh_acc = np.zeros((4, 4), dtype=complex)
        diag_acc = np.zeros(4)
        combos = combos_by_pattern[p_idx]
        for (k1, k2), (coh, occ_dist) in blocks[p_idx].items():
            for (d1, d2, dout), cw in combos.items():
                if not _accepted(k1 + d1, k2 + d2, pnr):
                    continue
                if dout == (0, 0, 0, 0):
                    coh_acc += cw * coh
                clean = dout == (0, 0, 0, 0)
                for occ4, prob in occ_dist.items():
                    tot = (occ4[0] + dout[0], occ4[1] + dout[1],
                           occ4[2] + dout[2], occ4[3] + dout[3])
                    if clean and _qubit_index(tot) >= 0:
                        continue  # single-photon arms, inside coh
                    # A distinguishable or supernumerary photon at a
                    # node decoheres that arm; the event contributes
                    # classically.
                    pl = _arm_probs(tot[0], tot[1], pnr)
                    pr = _arm_probs(tot[2], tot[3], pnr)
                    if pl is None or pr is None:
                        continue
                    for lv in (0, 1):
                        for rv in (0, 1):
                            diag_acc[2 * lv + rv] += \
                                cw * prob * pl[lv] * pr[rv]
        block = coh_acc + np.diag(diag_acc)
        if corr:
            block = block * np.outer(_SIGMA_Z_SIGNS, _SIGMA_Z_SIGNS)
        rho += block
    return rho


def _joint_pool(left: SwapScenario, right: SwapScenario):
    """Collapse the joint emission enumeration onto distinct
    (core structure, classical photon profile) entries."""
    pool: dict = {}
    for w_l, core_l, cl_l in _side_branches(left):
        for w_r, core_r, cl_r in _side_branches(right):
            key = (core_l, core_r, cl_l, cl_r)
            pool[key] = pool.get(key, 0.0) + w_l * w_r
    return pool


def heralded_state(left: SwapScenario, right: SwapScenario):
    """Unnormalised heralded outer-pair operator and herald probability.

    The operator pools all four patterns after feed-forward correction;
    its trace is the probability per attempt that a herald fires with
    exactly one photon in each outer arm.
    """
    if left.rep_rate_hz != right.rep_rate_hz:
        raise ContractError("both sources must share the attempt rate")
    if left.pnr != right.pnr:
        raise ContractError("the midpoint station has one detector type; "
                            "pnr flags must match")
    etas_l = (left.eta_collect, left.eta_inner)
    etas_r = (right.eta_collect, right.eta_inner)
    rho = np.zeros((4, 4), dtype=complex)
    combo_cache: dict = {}
    for (core_l, core_r, cl_l, cl_r), w in _joint_pool(left, right).items():
        blocks = _sector_blocks(core_l, core_r,
                                etas_l[0], etas_l[1], etas_r[0], etas_r[1])
        ckey = (cl_l, cl_r)
        combos = combo_cache.get(ckey)
        if combos is None:
            combos = [_classical_combos(cl_l, cl_r, pat, etas_l, etas_r)
                      for pat in _PATTERNS]
            combo_cache[ckey] = combos
        rho += w * _pattern_state(blocks, combos, left.pnr)
    herald = float(np.trace(rho).real)
    return rho, herald


def swap_once(left: SwapScenario, right: SwapScenario) -> SwapResult:
    """Swap rate (per second) and heralded fidelity for one source pair.

    The rate counts heralds with both outer photons present; the
    fidelity is the singlet fraction of the pooled heralded state after
    feed-forward correction, so ideal sources give exactly 1 at any
    loss.
    """
    rho, herald = heralded_state(left, right)
    if herald <= 1e-300:
        raise ModelDomainError("no usable heralds at these parameters")
    dense = TwoQubitDensity.from_matrix(rho / herald)
    fid = singlet_fraction(dense).value
    return SwapResult(left.rep_rate_hz * herald, fid)


# ---------------------------------------------------------------------------
# Source-level pair rates.

def pair_rate(scenario: SwapScenario) -> float:
    """Entangled-pair rate of a single source at its own output.

    Quantum dot: half the attempt rate times the squared collection
    efficiency (the post-selection on one photon per output port
    succeeds half the time).  SPDC: attempt rate times single-pair
    probability times squared collection efficiency, with the pump
    taken from ``optimise_pump`` when only a fidelity floor is given.
    For asymmetric per-photon efficiency chains, pass the geometric
    mean as ``eta_s``.
    """
    eta = scenario.eta_collect
    if scenario.source_kind == "qd_postselected":
        return 0.5 * scenario.rep_rate_hz * eta * eta
    p1 = _resolve_p1(scenario)
    if scenario.source_kind == "spdc_multiplexed":
        probs = _spdc_numbers(p1, scenario.spdc_statistics, scenario.mux_n)
        p1 = probs[1]
    return scenario.rep_rate_hz * p1 * eta * eta


# ---------------------------------------------------------------------------
# Pump optimisation.

def optimise_pump(scenario: SwapScenario) -> float:
    """Largest single-pair probability whose symmetric swap keeps the
    heralded fidelity at or above ``fidelity_floor``.

    The fidelity is checked to be nonincreasing in the pair probability
    over the bracket, then the boundary is found by bisection to 1e-4
    relative tolerance.  The upper end of the bracket is the largest
    pair probability the chosen statistics can produce.
    """
    if scenario.source_kind == "qd_postselected":
        raise ContractError("pump optimisation applies to SPDC sources")
    if scenario.fidelity_floor is None:
        raise ConfigError("optimise_pump needs fidelity_floor")
    floor = scenario.fidelity_floor

    eta_out = scenario.eta_collect
    eta_in = scenario.eta_inner
    configs = {}
    for n_l in range(3):
        for n_r in range(3):
            blocks = _sector_blocks((("pair",),) * n_l, (("pair",),) * n_r,
                                    eta_out, eta_in, eta_out, eta_in)
            empty = [{(0, 0, (0, 0, 0, 0)): 1.0} for _ in _PATTERNS]
            configs[(n_l, n_r)] = _pattern_state(blocks, empty, scenario.pnr)

    def evaluate(p1):
        probs = _spdc_numbers(p1, scenario.spdc_statistics, scenario.mux_n)
        rho = np.zeros((4, 4), dtype=complex)
        for (n_l, n_r), block in configs.items():
            rho += probs[n_l] * probs[n_r] * block
        herald = float(np.trace(rho).real)
        if herald <= 1e-300:
            raise ModelDomainError("no usable heralds at these parameters")
        return singlet_fraction(TwoQubitDensity.from_matrix(rho / herald)).value

    lo = 1e-6
    hi = _P1_CEILING[scenario.spdc_statistics] * (1.0 - 1e-9)
    f_lo = evaluate(lo)
    if f_lo < floor:
        raise ModelDomainError(
            f"fidelity floor {floor} unattainable: even at vanishing pump "
            f"the swap fidelity is {f_lo:.6g}")
    f_hi = evaluate(hi)
    grid = np.geomspace(lo, hi, 9)
    values = [f_lo] + [evaluate(p) for p in grid[1:-1]] + [f_hi]
    for a, b in zip(values, values[1:]):
        if b > a + 1e-6:
            raise NumericalError("swap fidelity is not monotone in the "
                                 "pair probability over the bracket")
    if f_hi >= floor:
        return hi
    while (hi - lo) / hi > 1e-4:
        mid = 0.5 * (lo + hi)
        if evaluate(mid) >= floor:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Loss sweep.

def sweep_loss(left: SwapScenario, right: SwapScenario, loss_grid_db=None,
               mux_sizes=(10, 30, 100)):
    """Swap-rate comparison across symmetric channel loss.

    ``left`` is the quantum-dot scenario, ``right`` the non-multiplexed
    SPDC scenario; multiplexed SPDC columns are derived from ``right``
    for each entry of ``mux_sizes``.  Every source is swapped against an
    identical copy of itself with the same per-arm loss; SPDC pumps are
    re-optimised at each loss point when a fidelity floor is set.
    Returns ``{"columns": [...], "rows": [...]}``.
    """
    if left.source_kind != "qd_postselected":
        raise ConfigError("left scenario must be the quantum-dot source")
    if right.source_kind not in ("spdc", "spdc_multiplexed"):
        raise ConfigError("right scenario must be an SPDC source")
    if loss_grid_db is None:
        loss_grid_db = DEFAULT_LOSS_GRID_DB
    loss_grid_db = [float(x) for x in loss_grid_db]
    if not loss_grid_db:
        raise ContractError("loss grid must be nonempty")
    mux_sizes = tuple(int(n) for n in mux_sizes)
    if any(n < 2 for n in mux_sizes):
        raise ConfigError("mux sizes must be at least 2")

    columns = ["loss_db", "rate_qd", "rate_spdc"] + \
              [f"rate_spdc_mux{n}" for n in mux_sizes]
    rows = []
    for loss in loss_grid_db:
        qd = dataclasses.replace(left, channel_loss_db=loss)
        row = [loss, swap_once(qd, qd).rate_hz]
        base = dataclasses.replace(right, source_kind="spdc", mux_n=1,
                                   channel_loss_db=loss)
        row.append(_optimised_rate(base))
        for n in mux_sizes:
            mux = dataclasses.replace(right, source_kind="spdc_multiplexed",
                                      mux_n=n, channel_loss_db=loss)
            row.append(_optimised_rate(mux))
        rows.append(row)
    return {"columns": columns, "rows": rows}


def _optimised_rate(scenario: SwapScenario) -> float:
    if scenario.spdc_p1 is None and scenario.fidelity_floor is not None:
        p1 = optimise_pump(scenario)
        scenario = dataclasses.replace(scenario, spdc_p1=p1)
    return swap_once(scenario, scenario).rate_hz
