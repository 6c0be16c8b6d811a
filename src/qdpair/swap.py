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
                  the interfering species.  With mux_n = N > 1 the
                  source is multiplexed: the fire probability is boosted
                  to 1 - (1 - p)^N and every photon pays one switch
                  traversal in efficiency.

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
from .errors import (ConfigError, ContractError, ModelDomainError, NumericalError,
                     check_ranges)
from .fock import expand
from .twoqubit import PSI_MINUS, TwoQubitDensity, magic_form, singlet_fraction

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

# (detector mode 1, detector mode 2, needs sigma_z feed-forward).  The two
# detectors of a pattern are cross-polarised; detector 1 is the H one.
# Cross-port patterns project onto the singlet directly; same-port
# patterns herald the |Psi+> branch and need the correction.
_PATTERNS = (
    (4, 7, False),   # port 1 H with port 2 V
    (6, 5, False),   # port 2 H with port 1 V
    (4, 5, True),    # both clicks on port 1
    (6, 7, True),    # both clicks on port 2
)

_SIGMA_Z = np.array([1.0, -1.0, 1.0, -1.0])   # on the right outer qubit
# Feed-forward sign of each pattern's coherent block.
_SIGNS = np.array([np.outer(_SIGMA_Z, _SIGMA_Z) if corr else np.ones((4, 4))
                   for _m1, _m2, corr in _PATTERNS])


def _extent() -> int:
    """Extent E of every routing-table coordinate (photons on a detector or
    in an outer mode): an SPDC core puts at most _MAX_PAIRS photons in an
    outer mode, quantum dots at most two classical photons in one."""
    return max(_MAX_PAIRS, 2) + 1

SOURCE_KINDS = ("qd_postselected", "spdc")


def loss_grid(loss_db_max: float = 30.0, loss_db_step: float = 2.5) -> tuple:
    """Per-arm channel losses 0, loss_db_step, ... up to loss_db_max (dB)."""
    check_ranges(ConfigError, {"loss_db_max": "[0, inf)", "loss_db_step": "(0, inf)"},
                 loss_db_max=loss_db_max, loss_db_step=loss_db_step)
    return tuple(float(x) for x in
                 np.arange(0.0, loss_db_max + 0.5 * loss_db_step, loss_db_step))


DEFAULT_LOSS_GRID_DB = loss_grid()


@dataclass(frozen=True)
class SwapScenario:
    """Parameter bundle for one source feeding the swapping link.

    ``rep_rate_hz`` is the entanglement attempt rate shared by both
    sources.  ``eta_s`` is the per-photon collection efficiency of the
    source; ``eta_det`` applies to the midpoint detectors only;
    ``channel_loss_db`` is the one-way loss of this source's inner arm.
    ``spdc_p1`` is the single-pair probability per pulse, at most
    ``photostat.SPDC_P1_CEILING`` of its ``spdc_statistics``, which every SPDC
    swap and pair rate needs; ``optimise_pump`` chooses one against a floor.
    An SPDC source with ``mux_n`` > 1 is multiplexed: it combines
    ``mux_n`` heralded units through one switch traversal (``switch_eta``
    times ``insertion_eta``).  A quantum-dot source takes ``mux_n`` = 1.
    """

    source_kind: str
    rep_rate_hz: float = 76.3e6
    eta_s: float = 1.0
    eta_det: float = 1.0
    pnr: bool = False
    switch_eta: float = 0.97
    insertion_eta: float = 1.0
    channel_loss_db: float = 0.0
    qd_g2: float = 0.0
    qd_I: float = 1.0
    spdc_p1: Optional[float] = None
    spdc_statistics: str = "thermal"
    mux_n: int = 1

    INTERVALS = {
        "rep_rate_hz": "(0, inf)", "eta_s": "[0, 1]", "eta_det": "[0, 1]",
        "switch_eta": "[0, 1]", "insertion_eta": "[0, 1]",
        "channel_loss_db": "[0, inf)",
        "qd_g2": "[0, 0.5)", "qd_I": "[0, 1]",
        "spdc_p1": "(0, inf) or None",   # up to the ceiling of spdc_statistics
        "mux_n": "int (0, inf)"}

    def __post_init__(self):
        if self.source_kind not in SOURCE_KINDS:
            raise ConfigError(f"unknown source_kind {self.source_kind!r}")
        if self.spdc_statistics not in photostat.SPDC_P1_CEILING:
            raise ConfigError(f"unknown spdc_statistics {self.spdc_statistics!r}")
        ceiling = photostat.SPDC_P1_CEILING[self.spdc_statistics]
        check_ranges(ConfigError,
                     {**self.INTERVALS, "spdc_p1": f"(0, {ceiling!r}] or None"},
                     **vars(self))
        if self.source_kind == "qd_postselected" and self.mux_n != 1:
            raise ConfigError("quantum-dot sources take mux_n = 1")

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
        midpoint detectors 0.9 with number resolution; ``mux_n`` > 1
        multiplexes it through a 0.97 switch.  It has no pump until
        ``spdc_p1`` is given, for instance from ``optimise_pump``."""
        base = dict(source_kind="spdc", eta_s=0.8, eta_det=0.9, pnr=True,
                    mux_n=mux_n)
        base.update(overrides)
        return cls(**base)

    @property
    def eta_collect(self) -> float:
        """Collection efficiency after any multiplexing switch."""
        if self.mux_n > 1:
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
    """Pair-number probabilities (a tuple, 0 to _MAX_PAIRS pairs) of one
    source unit, boosted by multiplexing: the combined source fires whenever
    any of the mux_n units does, and the selected unit keeps the single-unit
    conditional statistics."""
    probs = photostat.spdc_pair_distribution(p1, statistics=statistics,
                                             max_pairs=_MAX_PAIRS)
    if mux_n == 1:
        return probs
    p_fire = 1.0 - probs[0]
    if p_fire <= 0.0:
        return probs
    boosted = 1.0 - (1.0 - p_fire) ** mux_n
    scale = boosted / p_fire
    return (1.0 - boosted,) + tuple(p * scale for p in probs[1:])


def _qd_window_cases(g2: float, indist: float):
    """Per-window emission cases: (weight, interfering primaries,
    in-line classical photons, broadband noise photons).

    The interfering-species amplitude sqrt(I) per primary makes every
    pairwise primary overlap equal to I; the complementary component
    stays within the emission line but contributes classically.  The
    second photon of a double emission is broadband re-excitation
    noise."""
    q = math.sqrt(indist)
    p0, p1, p2 = photostat.qd_distribution_from_g2(g2)
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
    if scenario.spdc_p1 is None:
        raise ConfigError("SPDC scenario needs spdc_p1; optimise_pump chooses one "
                          "against a fidelity floor")
    return scenario.spdc_p1


# ---------------------------------------------------------------------------
# Interfering-species Fock kernel.

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# Mode-transfer matrix of the whole network (row m: image of system mode m,
# fock convention): loss at 1/2 onto mode 8 + m, then the midpoint pairs.
_NETWORK = _INV_SQRT2 * np.hstack([np.eye(_NSYS), 1j * np.eye(_NSYS)])
_NETWORK[:, 4:8] = _INV_SQRT2 * _NETWORK[:, 4:8] @ np.kron(
    [[1.0, 1j], [1j, 1.0]], np.eye(2))


_OPS = (("s", 0), ("s", 1), ("pair",))   # the core operators of one side


def _forms(image) -> list:
    """Factors for ``fock.expand``: each core operator of each side (side
    major, in ``_OPS`` order), scaled by 1/sqrt(2), with each system mode
    replaced by its row of ``image``.  A quantum-dot photon splits on the
    source beamsplitter; an SPDC pair is the singlet o_h i_v - o_v i_h."""
    out = []
    for side in (0, 1):
        o_h, o_v, i_h, i_v = image[np.add([0, 1, 4, 5], 2 * side)]
        out += [_INV_SQRT2 * form for form in (
            o_h + 1j * i_h, 1j * o_v + i_v,
            np.outer(o_h, i_v) - np.outer(o_v, i_h))]
    return out


class _Kernel(NamedTuple):
    """The stacked kernel of a pair list; indices count over the whole stack."""

    amp: np.ndarray         # (T,) amplitude of each term
    occ: np.ndarray         # (T, 16) its occupations (int8)
    expo: np.ndarray        # (T, 8) kept, then lost photons of oL, oR, iL, iR
    idx: np.ndarray         # (T,) qubit index of the outer occupation
    hit_term: np.ndarray    # (H,) term of each (term, pattern) hit
    hit_slot: np.ndarray    # (H,) E^4 x its sector + its outer occupation
    vec_term: np.ndarray    # term of each hit with a qubit index, and its
    vec_slot: np.ndarray    # 4 x (sector, environment) + index
    vec_sector: np.ndarray  # sector of each (sector, environment)
    pattern: np.ndarray     # (S,) pattern of each sector
    counts: np.ndarray      # (S, 2) its photons on detectors 1 and 2
    pair: np.ndarray        # (S,) its core-structure pair


_kernel_cache: dict = {}   # (pairs, extent) -> _Kernel


def _kernel(pairs, extent: int) -> _Kernel:
    """The stacked kernel of the (core_l, core_r) ``pairs``, cached by that
    structure and extent."""
    key = (tuple(pairs), extent)
    if key not in _kernel_cache:
        _kernel_cache[key] = _build(pairs, extent)
    return _kernel_cache[key]


def _build(pairs, extent: int) -> _Kernel:
    """One stacked kernel per call's pair list, cached by that structure in
    ``_kernel``: the terms of each pair's interfering-species state after
    loss at eta = 1/2 on every mode, then the midpoint beamsplitter, that
    some pattern does not veto, and their groups as arrays; a sector is a
    (pair, pattern, detector 1 count, detector 2 count).  One
    ``fock.expand`` pass expands every pair, each core operator replaced
    by its image under the whole network, and every core state besides
    for its norm; the pair index rides in the keys and sector codes, so
    each step below runs once over all pairs.  Certified: each pair's
    expanded norm, divided by its core-state norm, must be 1, and every
    outer occupation must lie below ``extent``, else NumericalError."""
    n = len(pairs)
    # Each operator puts at most one photon in any mode: keys are exact.
    base = max(len(core_l) + len(core_r) for core_l, core_r in pairs) + 1
    plan = np.full((n, base - 1), -1)
    for row, (core_l, core_r) in enumerate(pairs):
        ops = [_OPS.index(op) for op in core_l] + [3 + _OPS.index(op) for op in core_r]
        plan[row, :len(ops)] = ops
    # Rows 0..n-1: each pair through the network; rows n..2n-1: its core.
    forms = _forms(_NETWORK) + _forms(np.eye(_NSYS, _NMODES))
    keys, occ, amp = expand(forms, _NMODES, base, np.vstack([plan, plan + 6 * (plan >= 0)]))
    # Every row has terms; reduceat sums each row's pairwise, as accurately
    # as one row's own sum.
    starts = np.searchsorted(keys // base ** _NMODES, np.arange(2 * n))
    norms = np.add.reduceat(amp.real ** 2 + amp.imag ** 2, starts)
    cut = starts[n]
    keys, occ, amp = keys[:cut], occ[:cut], amp[:cut]
    pair = keys // base ** _NMODES
    amp = amp / np.sqrt(norms[n:])[pair]
    if np.any(abs(np.add.reduceat(amp.real ** 2 + amp.imag ** 2, starts[:n]) - 1.0)
              > 1e-12):
        raise NumericalError("swap kernel does not conserve the norm")
    m1, m2 = np.array([pattern[:2] for pattern in _PATTERNS]).T
    hits = occ[:, _CLICK_MODES].sum(axis=1) == occ[:, m1].T + occ[:, m2].T
    keep = hits.any(axis=0)   # the terms some pattern does not veto
    keys, occ, amp, pair, hits = keys[keep], occ[keep], amp[keep], pair[keep], hits[:, keep]
    if occ[:, :4].max(initial=0) >= extent:
        raise NumericalError("an outer occupation falls past the routing extent")
    photons = np.array([[sum(1 + (op[0] == "pair") for op in core) for core in cores]
                        for cores in pairs])
    arms = occ[:, ::2] + occ[:, 1::2]   # oL oR, mid, lost oL oR iL iR
    kept_in = photons[pair] - arms[:, [0, 1]] - arms[:, [4, 5]] - arms[:, [6, 7]]
    expo = np.column_stack([arms[:, :2], kept_in, arms[:, 4:]]).astype(np.int8)
    idx = np.where((arms[:, 0] == 1) & (arms[:, 1] == 1), 2 * occ[:, 1] + occ[:, 3], -1)
    # Term-major hits keep each pair's hits together.
    hit_term, p_idx = np.nonzero(hits.T)
    sector = ((pair[hit_term] * 4 + p_idx) * base + occ[hit_term, m1[p_idx]]) * base \
        + occ[hit_term, m2[p_idx]]
    codes, hit_sector = np.unique(sector, return_inverse=True)
    outer = np.ravel_multi_index(occ[hit_term, :4].T, (extent,) * 4)
    q = idx[hit_term] >= 0
    b8 = base ** 8
    env, vec_group = np.unique(sector[q] * b8 + keys[hit_term[q]] // b8 % b8,
                               return_inverse=True)
    vec_term = hit_term[q]
    vec_sector = np.searchsorted(codes, env // b8)
    return _Kernel(amp, occ, expo, idx, hit_term,
                   hit_sector * extent ** 4 + outer, vec_term,
                   4 * vec_group + idx[vec_term], vec_sector,
                   codes // base ** 2 % 4,
                   np.column_stack([codes // base % base, codes % base]),
                   codes // (4 * base ** 2))


class _Sectors(NamedTuple):
    counts: np.ndarray  # (S, 2) photons on detectors 1 (H) and 2 (V)
    coh: np.ndarray     # (S, 4, 4) one-photon-per-arm block, sign corrected
    dist: np.ndarray    # (S, E^4) outer occupation distribution
    pair: np.ndarray    # (S,) core-structure pair of each sector


def _sector_blocks(pairs, eta_out_l, eta_in_l, eta_out_r, eta_in_r):
    """Arrays over the sectors of every (core_l, core_r) in ``pairs``, one
    stack in pair order: detector counts, the coherent one-photon-per-arm
    block with its feed-forward sign, the dense outer occupation
    distribution (E^4, C order over oLH oLV oRH oRV) for combination with
    classical photons, and the pair.  The pairs' stacked kernel serves
    them all, so each step runs once.  Each kernel term is rescaled from
    eta = 1/2 by (2 eta)^(kept/2) (2 (1 - eta))^(lost/2) per arm; terms
    with different environment occupations add incoherently."""
    extent = _extent()
    k = _kernel(pairs, extent)
    eta = np.array([eta_out_l, eta_out_r, eta_in_l, eta_in_r])
    roots = np.sqrt(np.concatenate([2.0 * eta, 2.0 * (1.0 - eta)]))
    amp = k.amp * np.prod(roots ** k.expo, axis=1)
    prob = (amp.real ** 2 + amp.imag ** 2)[k.hit_term]
    n_sectors = len(k.pattern)
    dist = np.bincount(k.hit_slot, prob, n_sectors * extent ** 4)
    a = amp[k.vec_term]
    n = 4 * len(k.vec_sector)
    v = (np.bincount(k.vec_slot, a.real, n) + 1j * np.bincount(k.vec_slot, a.imag, n)).reshape(-1, 4)
    outer = (v[:, :, None] * v[:, None, :].conj()).reshape(-1)
    slot = (16 * k.vec_sector[:, None] + np.arange(16)).reshape(-1)
    coh = (np.bincount(slot, outer.real, 16 * n_sectors)
           + 1j * np.bincount(slot, outer.imag, 16 * n_sectors)).reshape(-1, 4, 4)
    return _Sectors(k.counts, coh * _SIGNS[k.pattern], dist.reshape(n_sectors, -1), k.pair)


def _side_tables(scenario: SwapScenario) -> dict:
    """Routing tables of one source's classical photons, pooled over its
    emission branches by core structure: core -> (E,) * 4 weights over
    (photons on detector 1, on detector 2, in its outer H, outer V mode).
    Detector 1 is every pattern's H detector, so one table serves all
    four; clicks outside the pattern kill the branch and are omitted.  An
    in-line photon can click only the detector of its own polarisation;
    broadband photons are absorbed by the midpoint line filter, so their
    only surviving route is an outer node.  Each photon adds one along an
    axis with some weight; past the extent it raises NumericalError."""
    extent = _extent()
    eta_out, eta_in = scenario.eta_collect, scenario.eta_inner
    tables: dict = {}
    for w, core, classical in _side_branches(scenario):
        routes = np.zeros((extent,) * 4)
        routes[0, 0, 0, 0] = w
        for pol, in_line in classical:
            moves = [(2 + pol, 0.5 * eta_out)] + [(pol, 0.25 * eta_in)] * in_line
            out = (1.0 - 0.5 * eta_out - (0.5 * eta_in if in_line else 0.0)) * routes
            for axis, weight in moves:
                head = (slice(None),) * axis
                if routes[head + (-1,)].any():
                    raise NumericalError("a photon falls past the routing extent")
                out[head + (slice(1, None),)] += weight * routes[head + (slice(-1),)]
            routes = out
        tables[core] = tables.get(core, 0.0) + routes
    return tables


def _join(left, right):
    """Routing tables of both sources' classical photons for every pair of
    their cores: (L, R) + (E,) * 6 weights over (detector 1, detector 2,
    oLH, oLV, oRH, oRV) from the (L,) and (R,) stacks of each source's
    tables.  Detector counts convolve, each source keeps its own outer
    modes (an outer product) and weights multiply.  A count past the extent
    raises NumericalError, as the kernel certifies its norm."""
    e = left.shape[1]
    out = np.zeros((len(left), len(right), 2 * e - 1, 2 * e - 1) + (e,) * 4)
    for d1, d2 in np.argwhere(left.any(axis=(0, 3, 4))):
        out[:, :, d1:d1 + e, d2:d2 + e] += (
            left[:, None, d1, d2, None, None, :, :, None, None]
            * right[None, :, :, :, None, None])
    if out[:, :, e:].any() or out[:, :, :, e:].any():
        raise NumericalError("a detector count falls past the routing extent")
    return out[:, :, :e, :e]


@functools.lru_cache(maxsize=None)
def _readout(extent: int, pnr: bool) -> np.ndarray:
    """Read-out weights of the outer arms, (E^4, E^4, 4) over (classical
    photons' outer occupation, interfering, two-qubit index).  Number-resolving
    nodes veto anything but one photon per arm; threshold nodes accept more,
    read as a random polarisation.  The clean entries (no classical photon,
    one interfering photon per arm) are zero: the coherent block has them."""
    n = 2 * extent - 1
    arm = np.zeros((n, n, 2))   # (H, V photons in an arm) -> weight read H, V
    arm[1, 0, 0] = arm[0, 1, 1] = 1.0
    if not pnr:
        arm[np.add.outer(range(n), range(n)) >= 2] = 0.5
    occ = np.indices((extent,) * 4).reshape(4, -1)
    tot = occ[:, :, None] + occ[:, None, :]
    table = (arm[tot[0], tot[1], :, None]
             * arm[tot[2], tot[3], None, :]).reshape(occ.shape[1], -1, 4)
    table[0, (occ[0] + occ[1] == 1) & (occ[2] + occ[3] == 1)] = 0.0
    table.flags.writeable = False
    return table


def _pattern_state(sectors: _Sectors, routes, pnr: bool, by_pair=False):
    """Corrected heralded two-qubit operator (unnormalised), summed over the
    sectors' core-structure pairs, or their (P, 4, 4) stack with
    ``by_pair``.  ``routes`` is the (P,) + (E,) * 6 stack of each pair's
    joined routing table of classical photons, weights included; each
    sector reads its own pair's.  One set of contractions for all pairs."""
    n_pairs, extent = routes.shape[:2]
    routes = routes.reshape(n_pairs, extent, extent, -1)
    # Only the outer occupations some pair's classical photons reach, and
    # some sector's interfering ones; the clean column carries the
    # coherent blocks.
    routed = routes.any(axis=(0, 1, 2))
    routed[0] = True
    routed, held = np.flatnonzero(routed), np.flatnonzero(sectors.dist.any(axis=0))
    routes = np.take(routes, routed, axis=3)
    # Number-resolving detectors need exactly one photon each, threshold
    # ones at least one: ok[c, d] for c photons in the sector and d routed.
    total = np.add.outer(np.arange(sectors.counts.max(initial=0) + 1),
                         np.arange(extent))
    ok = (total == 1 if pnr else total >= 1).astype(float)
    # accepted[p, c1, c2, column]: pair p's routed weight that a sector with
    # c1 and c2 photons keeps, detector 1's counts summed out, then 2's.
    one = (ok @ routes.reshape(n_pairs, extent, -1)).reshape(-1, extent, len(routed))
    accepted = (ok @ one).reshape(n_pairs, len(ok), len(ok), -1)
    w = accepted[sectors.pair, sectors.counts[:, 0], sectors.counts[:, 1]]
    # Each sector's weights in the block of the operator it adds to.
    n_ops = n_pairs if by_pair else 1
    spread = np.zeros((len(w), n_ops, len(routed)))
    spread[np.arange(len(w)), sectors.pair % n_ops] = w
    joint = spread.reshape(len(w), -1).T @ sectors.dist[:, held]
    diag = joint.reshape(n_ops, -1) @ _readout(extent, pnr)[np.ix_(routed, held)].reshape(-1, 4)
    ops = np.einsum("sg,sij->gij", spread[:, :, 0], sectors.coh) \
        + diag[:, :, None] * np.eye(4)
    return ops if by_pair else ops[0]


def heralded_state(left: SwapScenario, right: SwapScenario):
    """Unnormalised heralded outer-pair operator and herald probability.

    The operator pools all four patterns after feed-forward correction;
    its trace is the probability per attempt that a herald fires with
    exactly one photon in each outer arm.  Every core-structure pair of
    the two sources goes through one stacked ``_sector_blocks`` and one
    ``_pattern_state``, on one stacked kernel per call's pair list, cached
    by that structure.
    """
    if left.rep_rate_hz != right.rep_rate_hz:
        raise ContractError("both sources must share the attempt rate")
    if left.pnr != right.pnr:
        raise ContractError("the midpoint station has one detector type; "
                            "pnr flags must match")
    if left.eta_det != right.eta_det:
        raise ContractError("both inner photons reach the same midpoint detectors; "
                            "eta_det must match")
    tables_l = _side_tables(left)
    tables_r = tables_l if right == left else _side_tables(right)
    pairs = [(core_l, core_r) for core_l in tables_l for core_r in tables_r]
    routes = _join(np.array(list(tables_l.values())),
                   np.array(list(tables_r.values())))
    sectors = _sector_blocks(pairs, left.eta_collect, left.eta_inner,
                             right.eta_collect, right.eta_inner)
    rho = _pattern_state(sectors, routes.reshape((len(pairs),) + routes.shape[2:]),
                         left.pnr)
    return rho, float(np.trace(rho).real)


def swap_once(left: SwapScenario, right: SwapScenario) -> SwapResult:
    """Swap rate (per second) and heralded fidelity for one source pair.

    The rate counts heralds with both outer photons present; the
    fidelity is the singlet fraction of the pooled heralded state after
    feed-forward correction, so ideal sources give exactly 1 at any
    loss.
    """
    fid, herald = _heralded(heralded_state(left, right)[0])
    return SwapResult(left.rep_rate_hz * herald, fid)


def _heralded(rho: np.ndarray) -> tuple:
    """(singlet fraction, herald probability) of an unnormalised heralded
    state, whose trace is the herald probability."""
    herald = float(np.trace(rho).real)
    if herald <= 1e-300:
        raise ModelDomainError("no usable heralds at these parameters")
    return singlet_fraction(TwoQubitDensity.from_matrix(rho / herald)).value, herald


# ---------------------------------------------------------------------------
# Source-level pair rates.

def pair_rate(scenario: SwapScenario) -> float:
    """Entangled-pair rate of a single source at its own output.

    Quantum dot: half the attempt rate times the squared collection
    efficiency (the post-selection on one photon per output port
    succeeds half the time).  SPDC: attempt rate times single-pair
    probability ``spdc_p1`` (boosted when multiplexed) times squared
    collection efficiency; without ``spdc_p1``, ConfigError.
    For asymmetric per-photon efficiency chains, pass the geometric
    mean as ``eta_s``.
    """
    eta = scenario.eta_collect
    if scenario.source_kind == "qd_postselected":
        return 0.5 * scenario.rep_rate_hz * eta * eta
    p1 = _resolve_p1(scenario)
    if scenario.mux_n > 1:
        p1 = _spdc_numbers(p1, scenario.spdc_statistics, scenario.mux_n)[1]
    return scenario.rep_rate_hz * p1 * eta * eta


# ---------------------------------------------------------------------------
# Pump optimisation.

def optimise_pump(scenario: SwapScenario, fidelity_floor: float) -> float:
    """Largest single-pair probability whose symmetric swap keeps the
    heralded fidelity at or above ``fidelity_floor``, in [0, 1] (else
    ConfigError); the scenario's own ``spdc_p1`` is not read.

    The fidelity is checked to be nonincreasing in the pair probability
    over the bracket, then the boundary is found by bisection to 1e-4
    relative tolerance.  The upper end of the bracket is the largest
    pair probability the chosen statistics can produce.  Each step decides
    on the Psi- overlap from pair-number scalars computed once per search,
    certified to equal the singlet fraction (see ``_pump_search``); one
    density matrix is built at the returned pump.
    """
    check_ranges(ConfigError, {"fidelity_floor": "[0, 1]"}, fidelity_floor=fidelity_floor)
    return _pump_search(scenario, fidelity_floor)[0]


def _pair_configs(scenario: SwapScenario) -> dict:
    """Herald operator of each (left, right) pair number before the number
    weights, at the scenario's efficiencies and ``pnr``: one stacked
    ``_sector_blocks`` and ``_pattern_state`` over the pair numbers, on one
    stacked kernel per call's pair list, cached by that structure."""
    numbers = [(n_l, n_r) for n_l in range(_MAX_PAIRS + 1)
               for n_r in range(_MAX_PAIRS + 1)]
    pairs = [((("pair",),) * n_l, (("pair",),) * n_r) for n_l, n_r in numbers]
    unrouted = np.zeros((len(pairs),) + (_extent(),) * 6)   # SPDC has no
    unrouted[(slice(None),) + (0,) * 6] = 1.0               # classical photons
    sectors = _sector_blocks(pairs, *(scenario.eta_collect, scenario.eta_inner) * 2)
    return dict(zip(numbers, _pattern_state(sectors, unrouted, scenario.pnr,
                                            by_pair=True)))


def _pump_search(scenario: SwapScenario, floor: float, configs: dict = None):
    """``optimise_pump`` against ``floor``, also returning the herald
    probability; ``configs`` are the scenario's ``_pair_configs`` if built.

    The grid and the bisection decide on the Psi- overlap
    r(p) = w^T N w / w^T T w.  Here w holds the pair-number weights at p,
    and N and T the <Psi-|C|Psi-> and tr C of each ``configs`` operator C,
    computed once per call.

    Certificate, once per call: in the magic basis B, each operator's Psi-
    row must vanish off the diagonal to 1e-12 of its trace, else
    NumericalError.  Psi- is then an eigenvector of Re(B^dag rho B) at
    every pump, the other eigenvalues sum to 1 - r, and so r > 1/2 is the
    singlet fraction.  The full singlet fraction is taken where r <= 1/2
    or r lies within 1e-12 of the floor, for the unattainable-floor text,
    and once at the returned pump for its herald probability.  There it
    must equal r to 1e-12 when r > 1/2, else NumericalError.
    """
    if scenario.source_kind == "qd_postselected":
        raise ContractError("pump optimisation applies to SPDC sources")
    if configs is None:
        configs = _pair_configs(scenario)
    blocks = np.array(list(configs.values()))
    magic = magic_form(blocks)
    traces = np.trace(blocks, axis1=1, axis2=2).real
    if np.any(abs(np.delete(magic[:, PSI_MINUS], PSI_MINUS, axis=1))
              > 1e-12 * traces[:, None]):
        raise NumericalError("a pair-number operator couples Psi- to another "
                             "magic-basis state; its overlap cannot decide the pump")
    left, right = np.array(list(configs)).T
    forms = np.zeros((2, _MAX_PAIRS + 1, _MAX_PAIRS + 1))   # N and T
    forms[:, left, right] = magic[:, PSI_MINUS, PSI_MINUS], traces

    def numbers(p1):
        return _spdc_numbers(p1, scenario.spdc_statistics, scenario.mux_n)

    def evaluate(p1):
        probs = numbers(p1)
        return _heralded(sum(probs[n_l] * probs[n_r] * block
                             for (n_l, n_r), block in configs.items()))

    def overlap(p1):
        w = np.array(numbers(p1))
        psi, herald = forms @ w @ w
        return float(psi / herald) if herald > 1e-300 else 0.0

    def fidelity(p1):
        # r, where it decides like the singlet fraction; else the latter,
        # which raises ModelDomainError when nothing heralds.
        r = overlap(p1)
        if r <= 0.5 or abs(r - floor) < 1e-12:
            return evaluate(p1)[0]
        return r

    lo = 1e-6
    hi = photostat.SPDC_P1_CEILING[scenario.spdc_statistics] * (1.0 - 1e-9)
    f_lo = fidelity(lo)
    if f_lo < floor:
        raise ModelDomainError(
            f"fidelity floor {floor} unattainable: even at vanishing pump "
            f"the swap fidelity is {evaluate(lo)[0]:.6g}")
    grid = np.geomspace(lo, hi, 9)
    values = [f_lo] + [fidelity(p) for p in grid[1:-1]] + [fidelity(hi)]
    for a, b in zip(values, values[1:]):
        if b > a + 1e-6:
            raise NumericalError("swap fidelity is not monotone in the "
                                 "pair probability over the bracket")
    if values[-1] >= floor:
        lo = hi
    else:
        while (hi - lo) / hi > 1e-4:
            mid = 0.5 * (lo + hi)
            if fidelity(mid) >= floor:
                lo = mid
            else:
                hi = mid
    fid, herald = evaluate(lo)
    r = overlap(lo)
    if r > 0.5 and abs(fid - r) > 1e-12:
        raise NumericalError(f"singlet fraction {fid!r} departs from the "
                             f"certified Psi- overlap {r!r}")
    return lo, herald


# ---------------------------------------------------------------------------
# Loss sweep.

def check_mux_sizes(mux_sizes) -> tuple:
    """The multiplexed columns' ``mux_n`` values as a tuple; each must be an
    integer of at least 2 (a one-unit source is the plain column), else
    ConfigError."""
    named = {f"mux_sizes[{i}]": n for i, n in enumerate(mux_sizes)}
    check_ranges(ConfigError, dict.fromkeys(named, "int [2, inf)"), **named)
    return tuple(named.values())


def sweep_loss(left: SwapScenario, right: SwapScenario,
               loss_grid_db=DEFAULT_LOSS_GRID_DB, mux_sizes=(10, 30, 100),
               fidelity_floor: float = 0.97):
    """Swap-rate comparison across symmetric channel loss.

    ``left`` is the quantum-dot scenario, ``right`` the SPDC scenario
    without ``spdc_p1`` (else ConfigError); its plain column is swapped at
    ``mux_n`` = 1 and one multiplexed column at each entry of ``mux_sizes``.
    Every source is swapped against an identical copy of itself with the
    same per-arm loss, each SPDC one at the pump ``optimise_pump`` picks
    against ``fidelity_floor`` at that loss.
    Returns ``{"columns": [...], "rows": [...]}``.

    Each source holds at most ``_MAX_PAIRS`` = 2 pairs.  On the default
    table a third pair moves the SPDC columns (plain, mux 10, 30, 100) by
    at most 5.46e-2, 4.69e-2, 3.20e-2 and 1.79e-2 relative, pumps
    included, and a fourth by at most 2.55e-3; ``rate_qd`` does not move.
    """
    if left.source_kind != "qd_postselected":
        raise ConfigError("left scenario must be the quantum-dot source")
    if right.source_kind != "spdc":
        raise ConfigError("right scenario must be an SPDC source")
    if right.spdc_p1 is not None:
        raise ConfigError("sweep_loss chooses each SPDC pump against fidelity_floor; "
                          "leave spdc_p1 unset")
    check_ranges(ConfigError, {"fidelity_floor": "[0, 1]"}, fidelity_floor=fidelity_floor)
    loss_grid_db = [float(x) for x in loss_grid_db]
    if not loss_grid_db:
        raise ContractError("loss grid must be nonempty")
    mux_sizes = check_mux_sizes(mux_sizes)

    columns = ["loss_db", "rate_qd", "rate_spdc"] + \
              [f"rate_spdc_mux{n}" for n in mux_sizes]
    rows = []
    for loss in loss_grid_db:
        qd = dataclasses.replace(left, channel_loss_db=loss)
        spdc = [dataclasses.replace(right, mux_n=n, channel_loss_db=loss)
                for n in (1,) + mux_sizes]
        # The pair-number operators depend on eta_collect and eta_inner, not
        # mux_n: the multiplexed columns share one set.
        shared = _pair_configs(spdc[1]) if mux_sizes else None
        heralds = [_pump_search(s, fidelity_floor, shared if s.mux_n > 1 else None)[1]
                   for s in spdc]
        rows.append([loss, swap_once(qd, qd).rate_hz]
                    + [right.rep_rate_hz * h for h in heralds])
    return {"columns": columns, "rows": rows}
