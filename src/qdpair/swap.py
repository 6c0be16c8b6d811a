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
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import photostat
from .errors import ConfigError, ContractError, ModelDomainError, NumericalError
from .twoqubit import TwoQubitDensity, singlet_fraction

# Mode layout of the swap enumeration (one copy per photon species):
#   0: oLH  1: oLV  2: oRH  3: oRV   outer arms (kept at the nodes)
#   4: iLH  5: iLV  6: iRH  7: iRV   inner arms (sent to the midpoint)
#   8 + m                             environment of mode m (its lost photons)
# After the midpoint beamsplitter, slots 4/5 read as output port 1 and
# slots 6/7 as output port 2.
_NSYS = 8
_NMODES = 2 * _NSYS
_MAX_PAIRS = 2            # photon-number cutoff: SPDC pairs per source
_CLICK_MODES = (4, 5, 6, 7)
_POL_OF_MODE = {4: 0, 5: 1, 6: 0, 7: 1}
_NO_ROUTE = (0, 0, (0, 0, 0, 0))  # routing key: no click, no outer photon

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
    """Pair-number probabilities (0 to _MAX_PAIRS pairs) of one source unit,
    boosted by multiplexing: the combined source fires whenever any of
    the mux_n units does, and the selected unit keeps the single-unit
    conditional statistics."""
    dist = photostat.spdc_pair_distribution(p1, statistics=statistics,
                                            max_pairs=_MAX_PAIRS)
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

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# Image of each system creation operator (row) on all modes: loss at 1/2,
# a_m -> t a_m + i r e_m, then midpoint a_i -> t a_i + i r a_j, as in fock.
_NETWORK = _INV_SQRT2 * np.hstack([np.eye(_NSYS), 1j * np.eye(_NSYS)])
_NETWORK[:, 4:8] = _INV_SQRT2 * _NETWORK[:, 4:8] @ np.kron(
    [[1.0, 1j], [1j, 1.0]], np.eye(2))


def _expand(cores, image, base: int):
    """Keys (digits in ``base``), occupations and amplitudes of the product
    of creation operators on the vacuum, each mode replaced by its image (a
    row of ``image``).  A quantum-dot photon splits on the source
    beamsplitter; an SPDC pair is the singlet o_h i_v - o_v i_h."""
    powers = base ** np.arange(_NMODES, dtype=np.int64)
    keys, coeffs = np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex)
    for side, core in enumerate(cores):
        o_h, o_v, i_h, i_v = image[np.add([0, 1, 4, 5], 2 * side)]
        forms = {("s", 0): o_h + 1j * i_h, ("s", 1): 1j * o_v + i_v,
                 ("pair",): np.outer(o_h, i_v) - np.outer(o_v, i_h)}
        for op in core:
            form = forms[op]
            step = powers if form.ndim == 1 else powers[:, None] + powers
            keys, inv = np.unique((keys[:, None] + step[form != 0]).ravel(),
                                  return_inverse=True)
            prod = (coeffs[:, None] * (_INV_SQRT2 * form[form != 0])).ravel()
            coeffs = np.bincount(inv, prod.real) + 1j * np.bincount(inv, prod.imag)
    occ = keys[:, None] // powers % base
    root_fact = np.sqrt([math.factorial(n) for n in range(base)])[occ]
    return keys, occ, coeffs * root_fact.prod(axis=1)


def _qubit_index(occ4) -> int:
    """Map exactly-one-photon-per-arm outer occupations to the two-qubit
    basis index (H, V ordering per arm); -1 when an arm is empty or holds
    more than one photon (vetoed by the nodes)."""
    if occ4[0] + occ4[1] != 1 or occ4[2] + occ4[3] != 1:
        return -1
    return 2 * occ4[1] + occ4[3]


class _Kernel(NamedTuple):
    amp: np.ndarray         # (T,) amplitude of each term
    occ: np.ndarray         # (T, 16) its occupations
    expo: np.ndarray        # (T, 8) kept, then lost photons of oL, oR, iL, iR
    idx: np.ndarray         # (T,) qubit index of the outer occupation
    hit_term: np.ndarray    # (H,) term of each (term, pattern) hit
    dist_group: np.ndarray  # (H,) its (pattern, sector, outer occupation)
    vec_term: np.ndarray    # term of each hit with a qubit index, and its
    vec_slot: np.ndarray    # 4 x (pattern, sector, environment) + index
    vec_sector: np.ndarray  # sector of each (pattern, sector, environment)
    sectors: tuple          # (pattern, sector, outer occupations), in order


@functools.lru_cache(maxsize=None)
def _kernel(core_l, core_r) -> _Kernel:
    """Terms of the interfering-species state after loss at eta = 1/2 on
    every mode, then the midpoint beamsplitter, that some pattern does not
    veto, and their groups.  Expanded once, each core operator replaced by
    its image under the whole network; normalised by the core-state norm,
    the expanded norm must be 1.  Keyed on structure: at most 6 x 6 entries."""
    # Each operator puts at most one photon in any mode: keys are exact.
    base = len(core_l) + len(core_r) + 1
    assert base ** _NMODES < 2 ** 63, "occupation keys overflow int64"
    core = _expand((core_l, core_r), np.eye(_NSYS, _NMODES), base)[2]
    keys, occ, amp = _expand((core_l, core_r), _NETWORK, base)
    amp = amp / math.sqrt(np.vdot(core, core).real)
    if abs(np.vdot(amp, amp).real - 1.0) > 1e-12:
        raise NumericalError("swap kernel does not conserve the norm")
    m1, m2 = np.array([pattern[:2] for pattern in _PATTERNS]).T
    hits = occ[:, _CLICK_MODES].sum(axis=1) == occ[:, m1].T + occ[:, m2].T
    keep = hits.any(axis=0)   # the terms some pattern does not veto
    keys, occ, amp, hits = keys[keep], occ[keep], amp[keep], hits[:, keep]
    pairs = occ.reshape(-1, 8, 2).sum(axis=2)  # oL oR, mid, lost oL oR iL iR
    photons = [sum(1 + (op[0] == "pair") for op in c) for c in (core_l, core_r)]
    kept_in = photons - pairs[:, [0, 1]] - pairs[:, [4, 5]] - pairs[:, [6, 7]]
    expo = np.column_stack([pairs[:, :2], kept_in, pairs[:, 4:]])
    idx = np.where(pairs[:, 0] * pairs[:, 1] == 1, 2 * occ[:, 1] + occ[:, 3], -1)
    p_idx, hit_term = np.nonzero(hits)
    sector = (p_idx * base + occ[hit_term, m1[p_idx]]) * base \
        + occ[hit_term, m2[p_idx]]
    b4, b8 = base ** 4, base ** 8
    dist, dist_group = np.unique(sector * b4 + keys[hit_term] % b4,
                                 return_inverse=True)
    occ4s = (dist[:, None] // base ** np.arange(4) % base).tolist()
    sectors = {}   # dist is sorted, so each sector's groups are contiguous
    for code, occ4 in zip((dist // b4).tolist(), occ4s):
        sectors.setdefault(code, []).append(tuple(occ4))
    q = idx[hit_term] >= 0
    env, vec_group = np.unique(sector[q] * b8 + keys[hit_term[q]] // b8,
                               return_inverse=True)
    return _Kernel(amp, occ, expo, idx, hit_term, dist_group, hit_term[q],
                   4 * vec_group + idx[hit_term[q]],
                   np.searchsorted(list(sectors), env // b8),
                   tuple((c // base ** 2, (c // base % base, c % base), tuple(o))
                         for c, o in sectors.items()))


def _sector_blocks(core_l, core_r, eta_out_l, eta_in_l, eta_out_r, eta_in_r):
    """Pattern-resolved sector data of the interfering-species state.

    For every herald pattern and every (detector 1, detector 2) photon
    count, returns the coherent one-photon-per-arm block (4x4) and the
    full outer occupation distribution for combination with classical
    photons.  Detector counts outside the pattern's two modes veto the
    sector.  Each kernel term is rescaled from eta = 1/2 by
    (2 eta)^(kept/2) (2 (1 - eta))^(lost/2) per arm; terms with different
    environment occupations add incoherently.
    """
    k = _kernel(core_l, core_r)
    eta = np.array([eta_out_l, eta_out_r, eta_in_l, eta_in_r])
    roots = np.sqrt(np.concatenate([2.0 * eta, 2.0 * (1.0 - eta)]))
    amp = k.amp * np.prod(roots ** k.expo, axis=1)
    prob = (amp.real ** 2 + amp.imag ** 2)[k.hit_term]
    probs = iter(np.bincount(k.dist_group, prob).tolist())  # sector order
    a, n = amp[k.vec_term], 4 * len(k.vec_sector)
    v = (np.bincount(k.vec_slot, a.real, n)
         + 1j * np.bincount(k.vec_slot, a.imag, n)).reshape(-1, 4)
    coh = np.zeros((len(k.sectors), 4, 4), dtype=complex)
    np.add.at(coh, k.vec_sector, v[:, :, None] * v[:, None, :].conj())
    blocks = {i: {} for i in range(len(_PATTERNS))}
    for block, (p_idx, sector, occ4s) in zip(coh, k.sectors):
        blocks[p_idx][sector] = [block, dict(zip(occ4s, probs))]
    return blocks


def _convolve(a: dict, b: dict) -> dict:
    """Join the routing tables of two independent photon groups.  A routing
    table maps (added counts on detectors 1 and 2, added outer occupations)
    to a weight; weights multiply, counts and occupations add."""
    out: dict = {}
    for (k1, k2, occ), w in a.items():
        for (d1, d2, add), v in b.items():
            key = (k1 + d1, k2 + d2, (occ[0] + add[0], occ[1] + add[1],
                                      occ[2] + add[2], occ[3] + add[3]))
            out[key] = out.get(key, 0.0) + w * v
    return out


def _side_tables(scenario: SwapScenario, side: int) -> dict:
    """Routing tables of one source's classical photons, pooled over its
    emission branches by core structure: core -> one weighted table per
    pattern.  Clicks outside the pattern kill the branch and are omitted;
    an in-line photon can click only the pattern detector of its own
    polarisation.  Broadband photons are absorbed by the midpoint line
    filter, so their only surviving route is an outer node."""
    eta_out, eta_in = scenario.eta_collect, scenario.eta_inner
    tables: dict = {}
    for w, core, classical in _side_branches(scenario):
        pooled = tables.setdefault(core, [{} for _ in _PATTERNS])
        for (m1, _m2, _corr), acc in zip(_PATTERNS, pooled):
            routes = {_NO_ROUTE: w}
            for pol, in_line in classical:
                outer = tuple(int(m == 2 * side + pol) for m in range(4))
                photon = {(0, 0, outer): 0.5 * eta_out,
                          _NO_ROUTE: 1.0 - 0.5 * eta_out
                          - (0.5 * eta_in if in_line else 0.0)}
                if in_line:  # the pattern's detectors are cross-polarised
                    hit = int(_POL_OF_MODE[m1] == pol)
                    photon[(hit, 1 - hit, (0, 0, 0, 0))] = 0.25 * eta_in
                routes = _convolve(routes, photon)
            for key, v in routes.items():
                acc[key] = acc.get(key, 0.0) + v
    return tables


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
    of one core-structure pair, its routing tables already weighted."""
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
    rho = np.zeros((4, 4), dtype=complex)
    tables_r = _side_tables(right, 1)
    for core_l, routes_l in _side_tables(left, 0).items():
        for core_r, routes_r in tables_r.items():
            blocks = _sector_blocks(core_l, core_r,
                                    left.eta_collect, left.eta_inner,
                                    right.eta_collect, right.eta_inner)
            combos = [_convolve(a, b) for a, b in zip(routes_l, routes_r)]
            rho += _pattern_state(blocks, combos, left.pnr)
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
    return _pump_search(scenario)[0]


def _pair_configs(scenario: SwapScenario) -> dict:
    """Herald operator of each (left, right) pair number before the number
    weights, at the scenario's efficiencies and ``pnr``."""
    etas = (scenario.eta_collect, scenario.eta_inner) * 2
    cores = [(("pair",),) * n for n in range(_MAX_PAIRS + 1)]
    empty = [{_NO_ROUTE: 1.0}] * len(_PATTERNS)
    configs = {}
    for n_l, core_l in enumerate(cores):
        for n_r, core_r in enumerate(cores):
            blocks = _sector_blocks(core_l, core_r, *etas)
            configs[(n_l, n_r)] = _pattern_state(blocks, empty, scenario.pnr)
    return configs


def _pump_search(scenario: SwapScenario, configs: dict = None):
    """``optimise_pump``, also returning the herald probability there;
    ``configs`` are the scenario's ``_pair_configs`` if already built."""
    if scenario.source_kind == "qd_postselected":
        raise ContractError("pump optimisation applies to SPDC sources")
    if scenario.fidelity_floor is None:
        raise ConfigError("optimise_pump needs fidelity_floor")
    floor = scenario.fidelity_floor
    if configs is None:
        configs = _pair_configs(scenario)

    def evaluate(p1):
        probs = _spdc_numbers(p1, scenario.spdc_statistics, scenario.mux_n)
        rho = sum(probs[n_l] * probs[n_r] * block
                  for (n_l, n_r), block in configs.items())
        herald = float(np.trace(rho).real)
        if herald <= 1e-300:
            raise ModelDomainError("no usable heralds at these parameters")
        dense = TwoQubitDensity.from_matrix(rho / herald)
        return singlet_fraction(dense).value, herald

    lo = 1e-6
    hi = _P1_CEILING[scenario.spdc_statistics] * (1.0 - 1e-9)
    f_lo, herald_lo = evaluate(lo)
    if f_lo < floor:
        raise ModelDomainError(
            f"fidelity floor {floor} unattainable: even at vanishing pump "
            f"the swap fidelity is {f_lo:.6g}")
    f_hi, herald_hi = evaluate(hi)
    grid = np.geomspace(lo, hi, 9)
    values = [f_lo] + [evaluate(p)[0] for p in grid[1:-1]] + [f_hi]
    for a, b in zip(values, values[1:]):
        if b > a + 1e-6:
            raise NumericalError("swap fidelity is not monotone in the "
                                 "pair probability over the bracket")
    if f_hi >= floor:
        return hi, herald_hi
    while (hi - lo) / hi > 1e-4:
        mid = 0.5 * (lo + hi)
        f_mid, herald_mid = evaluate(mid)
        if f_mid >= floor:
            lo, herald_lo = mid, herald_mid
        else:
            hi = mid
    return lo, herald_lo


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
    pumped = right.spdc_p1 is None and right.fidelity_floor is not None
    rows = []
    for loss in loss_grid_db:
        qd = dataclasses.replace(left, channel_loss_db=loss)
        row = [loss, swap_once(qd, qd).rate_hz]
        base = dataclasses.replace(right, source_kind="spdc", mux_n=1,
                                   channel_loss_db=loss)
        row.append(_optimised_rate(base, _pair_configs(base) if pumped else None))
        muxed = [dataclasses.replace(right, source_kind="spdc_multiplexed",
                                     mux_n=n, channel_loss_db=loss)
                 for n in mux_sizes]
        # The pair-number operators depend on eta_collect and eta_inner, not mux_n.
        configs = _pair_configs(muxed[0]) if pumped and muxed else None
        row += [_optimised_rate(mux, configs) for mux in muxed]
        rows.append(row)
    return {"columns": columns, "rows": rows}


def _optimised_rate(scenario: SwapScenario, configs) -> float:
    """Swap rate at the pump ``_pump_search`` picks from ``configs``, or at
    the configured pump when ``configs`` is None."""
    if configs is None:
        return swap_once(scenario, scenario).rate_hz
    return scenario.rep_rate_hz * _pump_search(scenario, configs)[1]
