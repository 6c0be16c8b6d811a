"""Time-tag stream synthesis and time-domain analysis.

Streams are ordered (channel, timestamp) records with integer-picosecond
timestamps and a repetition clock.  The generator models a pulsed
emitter: per excitation period it draws a photon number from the
emitter's per-pulse distribution, gives the primary photon a delay from
the exponentially modified Gaussian wavepacket and any extra
(reexcitation) photon an early uniform delay, then applies an etalon
rejection knob, Bernoulli detection loss, beamsplitter routing,
polarisation analysis, Gaussian detector jitter, and quantisation.

Three generator modes share this machinery:

- ``pairs``: two emission windows per period (H-routed and V-routed)
  recombined on the beamsplitter; coincidences between the two output
  arms carry two-qubit polarisation statistics (the interfering
  primary-primary events sample the coherent post-selected state, all
  other photons carry their classical polarisation).  Channels 0/1 are
  the pass/reflect detectors of arm c, channels 2/3 of arm d.
- ``hbt``: polarisation switching off; all photons of one window hit a
  50:50 splitter with detectors on channels 0 and 1 (autocorrelation
  geometry for g2).
- ``laser``: one reference click per period on channel 0 (jitter and
  clock characterisation).

Analyses: coincidence and period-folded histograms, peak-integrated g2,
cross-polarisation normalisation, the corrected two-photon-interference
visibility, Gaussian jitter fits, rectangular temporal filtering, and
the filter -> tomography fidelity pipeline.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily; load it here, not at the first draw

from . import photostat, tomography, twoqubit
from .errors import (ConfigError, ContractError, ModelDomainError, NumericalError,
                     check_ranges)

RECORD_DTYPE = np.dtype([("channel", "<u2"), ("t", "<i8")])

_T_ZERO_UNSET = -(2 ** 63)

STREAM_MAGIC = b"QTTS"
STREAM_VERSION = 1
_HEADER = struct.Struct("<4sHHQq8x")  # 32 bytes: magic, version, pad, rep_rate_mHz, t_zero


# Records per pass of every whole-stream walk, which bounds each
# temporary by one block whatever the stream length.
_RECORD_BLOCK = 1 << 18


def _check_ordered(rec: np.ndarray) -> None:
    """ContractError unless the records' times are nondecreasing.

    One walk over the records a block at a time, each block's times
    checked from the previous block's last time, so the comparison stays
    one block whatever the stream length."""
    t = rec["t"]
    for start in range(0, len(rec), _RECORD_BLOCK):
        block = t[max(start - 1, 0):start + _RECORD_BLOCK]
        if np.any(block[1:] < block[:-1]):
            raise ContractError("timestamps must be nondecreasing")


def _as_records(rec: np.ndarray) -> np.ndarray:
    """Records of another dtype copied to RECORD_DTYPE: a 1-d array with
    integer ``channel`` and ``t`` fields and channels in 0..65535, else
    ContractError."""
    fields = rec.dtype.fields or {}
    if rec.ndim != 1 or not all(
            name in fields and np.issubdtype(fields[name][0], np.integer)
            for name in ("channel", "t")):
        raise ContractError("records need integer 'channel' and 't' fields")
    if len(rec) and (rec["channel"].min() < 0 or rec["channel"].max() > 65535):
        raise ContractError("record channels must lie in 0..65535")
    out = np.empty(len(rec), dtype=RECORD_DTYPE)
    out["channel"], out["t"] = rec["channel"], rec["t"]
    return out


@dataclass(frozen=True)
class TimeTagStream:
    """Time-ordered (channel, time) records, their repetition clock and
    the pulse-peak reference t_zero_ps, if set.  Channels are whatever
    the records hold: analyses pick theirs by number.  The reference
    lies strictly inside the signed 64 bits of the stream-file header,
    whose lowest value marks it unset."""

    records: np.ndarray
    rep_rate_hz: float
    t_zero_ps: int = None

    INTERVALS = {"rep_rate_hz": "(0, inf)",
                 "t_zero_ps": f"int ({_T_ZERO_UNSET}, {-_T_ZERO_UNSET}) or None"}

    def __post_init__(self):
        rec = np.asarray(self.records)
        if rec.dtype != RECORD_DTYPE:
            rec = _as_records(rec)
        check_ranges(ContractError, self.INTERVALS, **vars(self))
        _check_ordered(rec)
        object.__setattr__(self, "records", rec)
        if self.t_zero_ps is not None:
            object.__setattr__(self, "t_zero_ps", int(self.t_zero_ps))

    @property
    def period_ps(self) -> float:
        return 1e12 / self.rep_rate_hz

    def __len__(self) -> int:
        return len(self.records)

    def channel_times(self, channel: int) -> np.ndarray:
        return _picked(self.records, (channel,))[0]


@dataclass(frozen=True)
class StreamParams:
    """Generator parameters for synthesize_stream."""

    g2: float = 0.02
    t1_ps: float = 60.0
    pulse_width_ps: float = 5.0
    rep_rate_hz: float = 76.3e6
    pulses: int = 10 ** 5
    eta: float = 0.4
    jitter_fwhm_ps: float = 35.0
    noise_rejection_prob: float = 0.0
    seed: int = 0
    mode: str = "pairs"
    emission: str = "qd"              # qd | poissonian (hbt mode only)
    mean_photons: float = 1.0         # poissonian emission mean
    indistinguishability: float = 0.968
    offset_ps: float = 0.0            # extra delay on the H-window photons
    noise_window_ps: float = None     # defaults to pulse_width_ps
    analysis: tuple = ("H", "H")      # pairs mode: names or 4 waveplate angles
    center_ps: float = 0.0            # laser mode pulse centre

    INTERVALS = {
        "g2": "[0, 0.5)", "t1_ps": "(0, inf)", "pulse_width_ps": "(0, inf)",
        "rep_rate_hz": "(0, inf)", "pulses": "int (0, inf)", "eta": "(0, 1]",
        "jitter_fwhm_ps": "[0, inf)", "noise_rejection_prob": "[0, 1]",
        "seed": "int [0, inf)", "mean_photons": "(0, inf)",
        "indistinguishability": "[0, 1]", "offset_ps": "(-inf, inf)",
        "noise_window_ps": "(0, inf) or None", "center_ps": "(-inf, inf)"}

    def __post_init__(self):
        check_ranges(ContractError, self.INTERVALS, **vars(self))
        if self.mode not in ("pairs", "hbt", "laser"):
            raise ContractError(f"unknown mode {self.mode!r}")
        if self.emission not in ("qd", "poissonian"):
            raise ContractError(f"unknown emission {self.emission!r}")
        if self.emission == "poissonian" and self.mode != "hbt":
            raise ContractError("poissonian emission needs the hbt mode")
        nw = self.pulse_width_ps if self.noise_window_ps is None else self.noise_window_ps
        object.__setattr__(self, "noise_window_ps", float(nw))
        self.setting()  # the analysis must name a setting

    def setting(self) -> tomography.MeasurementSetting:
        a = self.analysis
        if len(a) == 2:
            return tomography.MeasurementSetting.from_names(a[0], a[1])
        if len(a) == 4:
            return tomography.MeasurementSetting.from_angles(*a)
        raise ContractError("analysis must be two names or four waveplate angles")


# The filter sweep's stream: an emitter slower than the headline source, so the window
# edge resolves against the jitter, at an efficiency where noise photons carry weight.
SWEEP_STREAM = StreamParams(t1_ps=200.0, pulses=10 ** 6, eta=0.3, seed=20240801)


def _jitter_sigma(fwhm: float) -> float:
    return fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))


# Pulses per generator call when a draw covers every pulse, which bounds
# each temporary by one block.  Block by block, random, normal,
# exponential, uniform and integers(0, 2) give the values of one whole
# draw and leave the generator where it would: the 32-bit half of an
# output that integers(0, 2) leaves over stays in the bit generator.
_PULSE_BLOCK = 1 << 14


def _pulse_blocks(n: int):
    return [slice(s, min(s + _PULSE_BLOCK, n)) for s in range(0, n, _PULSE_BLOCK)]


def _thin(rng, keep: np.ndarray, test) -> None:
    """keep &= test(rng.random(len(keep))), drawn a block at a time."""
    for b in _pulse_blocks(len(keep)):
        keep[b] &= test(rng.random(b.stop - b.start))


def _kept(draw, idx: np.ndarray, n: int, *args) -> np.ndarray:
    """draw(*args, n)[idx] for sorted pulse indices idx, drawn a block at a
    time: the same values, and the same generator state after it."""
    out = []
    for b in _pulse_blocks(n):
        lo, hi = np.searchsorted(idx, [b.start, b.stop])
        out.append(draw(*args, b.stop - b.start)[idx[lo:hi] - b.start])
    return np.concatenate(out)


def _emg_delays(rng, size: int, t1: float, width: float) -> np.ndarray:
    d = rng.normal(0.0, width, size)
    d += rng.exponential(t1, size)
    return d


def _qd_photon_numbers(rng, n: int, g2: float):
    """Per-pulse photon number as masks (>= 1, == 2), from the uniform
    draw and the cdf with which ``rng.choice`` samples the emitter's
    distribution, so the masks and the generator state match that call."""
    cdf = np.cumsum(photostat.qd_distribution_from_g2(g2))
    cdf /= cdf[-1]
    one, two = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    for b in _pulse_blocks(n):
        u = rng.random(b.stop - b.start)
        np.greater_equal(u, cdf[0], out=one[b])
        np.greater_equal(u, cdf[1], out=two[b])
    return one, two


def _assemble(parts, rep_rate_hz, t_zero) -> TimeTagStream:
    if parts:
        ch = np.concatenate([p[0] for p in parts])
        key = np.concatenate([p[1] for p in parts])
    else:
        ch = np.empty(0, dtype=np.uint16)
        key = np.empty(0, dtype=np.int64)
    # One int64 key t * 8 + channel orders by time, then channel; it
    # decodes exactly for channels 0-7 and |t| < 2**60 ps, negative t too.
    key *= 8
    key += ch
    key.sort()
    rec = np.empty(len(key), dtype=RECORD_DTYPE)
    rec["channel"] = key & 7
    key >>= 3
    rec["t"] = key
    return TimeTagStream(rec, rep_rate_hz, t_zero)


def synthesize_stream(params: StreamParams) -> TimeTagStream:
    """Generate a synthetic detection stream; deterministic given the seed.

    Pulse k starts at k * period.  Pairs and hbt modes keep only the
    detected photons of each per-pulse draw, a block at a time, so their
    memory follows the detections, not the pulses."""
    rng = np.random.default_rng(params.seed)
    n = params.pulses
    period = 1e12 / params.rep_rate_hz
    if params.mode == "laser":
        t = np.arange(n, dtype=np.float64) * period + params.center_ps
        if params.eta < 1.0:
            t = t[rng.random(n) < params.eta]
        parts = [(np.zeros(len(t), dtype=np.uint16), t)]
    elif params.mode == "hbt":
        parts = _hbt_parts(params, rng, period)
    else:
        parts = _pair_parts(params, rng, period)
    # Each part's times are a fresh array, jittered and rounded in place,
    # then replaced by their integer copy.
    sig_j = _jitter_sigma(params.jitter_fwhm_ps)
    for i, (ch, t) in enumerate(parts):
        if sig_j > 0.0 and len(t):
            t += rng.normal(0.0, sig_j, len(t))
        parts[i] = (np.asarray(ch, dtype=np.uint16),
                    np.rint(t, out=t).astype(np.int64))
    return _assemble(parts, params.rep_rate_hz, None if params.mode == "laser" else 0)


def _hbt_parts(params, rng, period) -> list:
    n = params.pulses
    parts = []
    if params.emission == "poissonian":
        counts = rng.poisson(params.mean_photons, n)
        periods = np.repeat(np.arange(n), counts)
        delays = _emg_delays(rng, len(periods), params.t1_ps, params.pulse_width_ps)
        det = rng.random(len(periods)) < params.eta
        periods, delays = periods[det], delays[det]
        arm = rng.integers(0, 2, len(periods))
        parts.append((arm, periods * period + delays))
    else:
        prim, noise = _qd_photon_numbers(rng, n, params.g2)
        _thin(rng, noise, lambda u: u >= params.noise_rejection_prob)
        for mask, early in ((prim, False), (noise, True)):
            _thin(rng, mask, lambda u: u < params.eta)
            idx = np.flatnonzero(mask)
            if early:
                d = rng.uniform(0.0, params.noise_window_ps, len(idx))
            else:
                d = _emg_delays(rng, len(idx), params.t1_ps, params.pulse_width_ps)
            arm = rng.integers(0, 2, len(idx))
            parts.append((arm, idx * period + d))
    return parts


def _pair_parts(params, rng, period) -> list:
    n = params.pulses
    setting = params.setting()
    k1, k2 = setting.arm_ket(0), setting.arm_ket(1)
    # Pass probability per (arm, polarisation) for classically polarised photons.
    q_pass = np.array([[abs(k1[0]) ** 2, abs(k1[1]) ** 2],
                       [abs(k2[0]) ** 2, abs(k2[1]) ** 2]])
    # Joint outcome distribution of the interfering primary pair.
    rho = twoqubit.rho_q(params.indistinguishability).matrix
    proj1 = [np.outer(k1, k1.conj())]
    proj1.append(np.eye(2) - proj1[0])
    proj2 = [np.outer(k2, k2.conj())]
    proj2.append(np.eye(2) - proj2[0])
    joint = np.array([(np.trace(rho @ np.kron(proj1[o1], proj2[o2]))).real
                      for o1 in range(2) for o2 in range(2)])
    joint = np.clip(joint, 0.0, None)
    joint /= joint.sum()
    cum = np.cumsum(joint)

    # Each species keeps the sorted indices of its detected pulses (the
    # primaries their mask too) with their delays and arms only; the draws
    # still run over every pulse, in the order and sizes that fix the stream.
    species = {}
    for name, pol in (("pH", 0), ("pV", 1)):
        det, det_noise = _qd_photon_numbers(rng, n, params.g2)
        _thin(rng, det_noise, lambda u: u >= params.noise_rejection_prob)
        _thin(rng, det, lambda u: u < params.eta)
        _thin(rng, det_noise, lambda u: u < params.eta)
        idx, nidx = np.flatnonzero(det), np.flatnonzero(det_noise)
        d = _kept(rng.normal, idx, n, 0.0, params.pulse_width_ps)
        d += _kept(rng.exponential, idx, n, params.t1_ps)
        dn = _kept(rng.uniform, nidx, n, 0.0, params.noise_window_ps)
        if pol == 0:
            d += params.offset_ps
            dn += params.offset_ps
        species[name] = dict(det=det, idx=idx, delay=d,
                             arm=_kept(rng.integers, idx, n, 0, 2), pol=pol)
        species["n" + name[1]] = dict(idx=nidx, delay=dn,
                                      arm=_kept(rng.integers, nidx, n, 0, 2),
                                      pol=pol)

    # Both primaries split across the arms interfere regardless of any
    # detected noise photon: the broadband noise photon occupies a
    # distinguishable temporal mode and does not spoil their coherence
    # (it may later be removed by the temporal filter).  The pulses
    # where both are detected appear in the same order in both species.
    ph, pv = species["pH"], species["pV"]
    both = ph.pop("det") & pv.pop("det")
    ih, iv = np.flatnonzero(both[ph["idx"]]), np.flatnonzero(both[pv["idx"]])
    split = ph["arm"][ih] != pv["arm"][iv]
    ih, iv = ih[split], iv[split]

    parts = []
    # Interfering coincidences: joint polarisation outcome from the coherent state.
    if len(ih):
        t0 = ph["idx"][ih] * period
        out = np.searchsorted(cum, rng.random(len(ih)), side="right")
        o1, o2 = out // 2, out % 2
        swap = rng.random(len(ih)) < 0.5
        d_c = np.where(swap, pv["delay"][iv], ph["delay"][ih])
        d_d = np.where(swap, ph["delay"][ih], pv["delay"][iv])
        parts.append((o1.astype(np.uint16), t0 + d_c))
        parts.append((2 + o2.astype(np.uint16), t0 + d_d))

    # Everything else carries its classical polarisation through the analyser.
    interfering = {"pH": ih, "pV": iv}
    for name, sp in species.items():
        keep = np.ones(len(sp["idx"]), dtype=bool)
        keep[interfering.get(name, [])] = False
        pidx = sp["idx"][keep]
        if not len(pidx):
            continue
        arm = sp["arm"][keep]
        passed = rng.random(len(pidx)) < q_pass[arm, sp["pol"]]
        ch = (2 * arm + (~passed).astype(np.uint16)).astype(np.uint16)
        parts.append((ch, pidx * period + sp["delay"][keep]))
    return parts


@dataclass(frozen=True)
class Histogram:
    """Counts over integer-ps bins [start, start + bin_ps)."""

    bin_start_ps: np.ndarray
    counts: np.ndarray
    bin_ps: int

    @property
    def empty(self) -> bool:
        return not self.counts.any()

    @property
    def centers(self) -> np.ndarray:
        return self.bin_start_ps + 0.5 * self.bin_ps

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("bin_start_ps,count\n")
            for s, c in zip(self.bin_start_ps, self.counts):
                fh.write(f"{int(s)},{int(c)}\n")


# Starts of channel a binned per pass, which bounds the pair arrays.
_HISTOGRAM_BLOCK = 1 << 14

# Records whose channels and times coincidence_histogram copies out of
# the packed records at a time: numpy compresses an aligned, contiguous
# copy several times faster than the records' unaligned times, and a
# copy this size (80 KiB) stays in cache.
_COPY_BLOCK = 1 << 13

# The cell table of _add_pairs may hold at most this many cells per
# record of a pass.
_CELLS_PER_RECORD = 16


def _add_pairs(counts: np.ndarray, ta: np.ndarray, tb: np.ndarray,
               first_ps: int, bin_ps: int) -> None:
    """Add to counts every pair with t_b - t_a in
    [first_ps, first_ps + width), width = len(counts) * bin_ps, in bins of
    bin_ps; ta and tb sorted.

    Each pass takes ``_HISTOGRAM_BLOCK`` a-times, x = t_a + first_ps, and
    the b-times in [min x, max x + width).  A table of the first b index
    of every cell gives each a-time's candidates, the b-times in the cells
    from x's to (x + width - 1)'s, as a range lo, lo + m of b, found
    without a search.  A cell is about the pass's span over its record
    count, so the table holds about one cell per record, but never less
    than width / 16 nor more than width / 2, rounded down to whole bins
    and at least one bin.  A pass whose table would hold more than
    ``_CELLS_PER_RECORD`` cells per record (a sparse stream, or a gap)
    takes each a-time's exact range by binary search instead.

    The candidates are then enumerated lag by lag, without expanding
    per-pair indices.  With the a-times ordered by descending m, those
    with a j-th candidate are a prefix, so lag j is one slice of
    ``take`` and ``subtract`` into one buffer.  Once fewer a-times remain
    than lags, each of the rest adds its remaining range as one slice
    instead: the lag j is chosen to minimise j + (a-times with m > j),
    which bounds a pass's slices by the square root of twice its
    candidates however unevenly they fall.  Bins are taken against
    x - cell, so one floor-divide and one bincount per pass place them; a
    candidate outside the window falls into one of the cell / bin_ps pad
    bins at either end, which are cut off.
    """
    nbins = len(counts)
    width = nbins * bin_ps
    for i in range(0, len(ta), _HISTOGRAM_BLOCK):
        x = ta[i:i + _HISTOGRAM_BLOCK] + first_ps
        x0, x1 = int(x[0]), int(x[-1])
        b = tb[np.searchsorted(tb, x0):np.searchsorted(tb, x1 + width)]
        if not len(b):
            continue
        span = x1 + width - x0
        cell = min(max(span // (len(x) + len(b)), width // 16), width // 2)
        cell = max(cell // bin_ps, 1) * bin_ps
        pad = cell // bin_ps
        ncells = (span - 1) // cell + 1
        if ncells <= _CELLS_PER_RECORD * (len(x) + len(b)):
            # start[k]: index of the first b-time in cell k or later.
            start = np.bincount((b - (x0 - cell)) // cell, minlength=ncells + 1)
            start = start.cumsum(out=start)
            rel = x - x0
            lo = start[rel // cell]
            m = start[(rel + (width - 1)) // cell + 1] - lo
        else:
            lo = np.searchsorted(b, x)
            m = np.searchsorted(b, x + width) - lo
        more = len(m) - np.bincount(m).cumsum()     # more[j]: a-times with m > j
        top = len(more) - 1                         # the largest m
        # keyed on 8 or 16 bits where m allows, numpy's stable argsort is
        # a radix sort
        order = np.argsort((-m).astype(np.min_scalar_type(-top)), kind="stable")
        lags = int(np.argmin(more + np.arange(top + 1)))
        rest = int(more[lags])
        diffs = np.empty(int(more.sum()), dtype=np.int64)
        lo, x, tail = lo[order], x[order], m[order[:rest]]
        x -= cell
        k = 0
        for j, n in enumerate(more[:lags].tolist()):
            lag = diffs[k:k + n]
            # b[j:][lo] is b[lo + j], the j-th candidates, all in range
            np.take(b[j:], lo[:n], out=lag, mode="clip")
            np.subtract(lag, x[:n], out=lag)
            k += n
        for first, stop, xr in zip((lo[:rest] + lags).tolist(),
                                   (lo[:rest] + tail).tolist(), x[:rest].tolist()):
            np.subtract(b[first:stop], xr, out=diffs[k:k + stop - first])
            k += stop - first
        diffs //= bin_ps
        counts += np.bincount(diffs, minlength=nbins + 2 * pad)[pad:pad + nbins]


def _picked(rec: np.ndarray, channels, heads=None) -> list:
    """For each of ``channels``, its head in ``heads`` (if given) followed
    by the channel's times in ``rec``, picked from aligned copies of
    ``_COPY_BLOCK`` records at a time: one concatenate per channel, the
    pieces dropped on return."""
    empty = np.empty(0, dtype=np.int64)
    parts = [[head] for head in heads or [empty] * len(channels)]
    for s in range(0, len(rec), _COPY_BLOCK):
        part = rec[s:s + _COPY_BLOCK]
        ch, t = part["channel"].copy(), part["t"].copy()
        for out, channel in zip(parts, channels):
            out.append(np.compress(ch == channel, t))
    return [np.concatenate(p) for p in parts]


def histogram_bins(bin_ps: int, span_ps: int) -> int:
    """Number of bin_ps bins of a histogram over +/- span_ps, checked."""
    check_ranges(ContractError, {"bin_ps": "int (0, inf)", "span_ps": "int (0, inf)"},
                 bin_ps=bin_ps, span_ps=span_ps)
    if span_ps < bin_ps:
        raise ContractError(
            f"span_ps {span_ps} is shorter than one bin of {bin_ps} ps")
    return 2 * (span_ps // bin_ps)


def coincidence_histogram(stream: TimeTagStream, ch_a: int, ch_b: int,
                          bin_ps: int, span_ps: int) -> Histogram:
    """Histogram of timestamp differences t_b - t_a over +/- span_ps.

    The records are walked in blocks of ``_RECORD_BLOCK``, each block's
    channel-a and channel-b times picked from aligned copies of
    ``_COPY_BLOCK`` records at a time.  Between blocks only two tails are
    carried: the channel-a times whose window can still reach records not
    yet seen, and the channel-b times those (or later) a-times can reach.
    Memory is therefore bounded by one block of records, the records
    within one histogram width (2 span_ps) before the last record seen,
    and one pass of ``_add_pairs`` over ``_HISTOGRAM_BLOCK`` a-times: a
    cell table of at most a fixed multiple of the pass's records,
    per-a-time ranges and their order, and one buffer of candidate pairs,
    at most those of a histogram two cells (at most 2 span_ps) wider.
    None of it grows with the length of the stream.
    """
    nbins = histogram_bins(bin_ps, span_ps)
    starts = (np.arange(nbins) - nbins // 2) * bin_ps
    first = int(starts[0])
    counts = np.zeros(nbins, dtype=np.int64)
    waiting = np.empty(0, dtype=np.int64)   # a-times whose window is open
    tb = np.empty(0, dtype=np.int64)        # b-times still in reach
    rec = stream.records
    for start in range(0, len(rec), _RECORD_BLOCK):
        block = rec[start:start + _RECORD_BLOCK]
        waiting, tb = _picked(block, (ch_a, ch_b), (waiting, tb))
        # Later records are no earlier than the last one seen, so an
        # a-time whose window ends by then has every pair in hand.
        last = int(block["t"][-1])
        done = np.searchsorted(waiting, last - first - nbins * bin_ps,
                               side="right")
        _add_pairs(counts, waiting[:done], tb, first, bin_ps)
        waiting = waiting[done:]
        earliest = int(waiting[0]) if len(waiting) else last
        tb = tb[np.searchsorted(tb, earliest + first, side="left"):]
    _add_pairs(counts, waiting, tb, first, bin_ps)
    return Histogram(starts, counts, bin_ps)


def period_histogram(stream: TimeTagStream, channel: int = None,
                     bin_ps: int = 1) -> Histogram:
    """Histogram of arrival times folded modulo the repetition period,
    summed over blocks of ``_RECORD_BLOCK`` records so every temporary is
    bounded by one block whatever the stream length."""
    check_ranges(ContractError, {"bin_ps": "int (0, inf)"}, bin_ps=bin_ps)
    period = stream.period_ps
    nbins = int(math.ceil(period / bin_ps))
    starts = np.arange(nbins, dtype=np.int64) * bin_ps
    edges = np.append(starts, nbins * bin_ps)
    counts = np.zeros(nbins, dtype=np.int64)
    rec = stream.records
    for start in range(0, len(rec), _RECORD_BLOCK):
        block = rec[start:start + _RECORD_BLOCK]
        t = block["t"] if channel is None else _picked(block, (channel,))[0]
        counts += np.histogram(np.mod(t.astype(np.float64), period), bins=edges)[0]
    return Histogram(starts, counts, bin_ps)


def g2_from_histogram(hist: Histogram, rep_period_ps: float):
    """Pulsed g2: central peak area over the mean side-peak area.

    Each peak is integrated over one full repetition period centred on
    the peak; bins are attributed to peaks by bin centre.  Returns
    (g2, statistical error) with Poisson counting errors propagated.
    """
    check_ranges(ContractError, {"rep_period_ps": "(0, inf)"}, rep_period_ps=rep_period_ps)
    centers = hist.centers
    span = min(-centers[0], centers[-1] + 0.5 * hist.bin_ps)
    n_side = int(math.floor((span - 0.5 * rep_period_ps) / rep_period_ps))
    if n_side < 5:
        raise ContractError(
            f"histogram spans only {n_side} full side peaks per side; need >= 5")
    peak = np.rint(centers / rep_period_ps).astype(np.int64) + n_side
    inside = (peak >= 0) & (peak <= 2 * n_side)
    areas = np.bincount(peak[inside], weights=hist.counts[inside],
                        minlength=2 * n_side + 1)
    central = float(areas[n_side])
    sides = np.delete(areas, n_side)
    mean_side = sides.mean()
    if mean_side <= 0.0:
        raise ModelDomainError("side peaks are empty; cannot normalise g2")
    g2 = central / mean_side
    var = max(central, 1.0) / mean_side ** 2 \
        + (central ** 2) * sides.sum() / (len(sides) ** 2 * mean_side ** 4)
    return g2, math.sqrt(var)


def cross_pol_normalisation(area_copol_sidepeak: float,
                            area_crosspol_sidepeak: float) -> float:
    """Normalisation factor: cross-polarised over co-polarised side-peak area."""
    check_ranges(ContractError, {"area_copol_sidepeak": "(0, inf)",
                                 "area_crosspol_sidepeak": "(0, inf)"},
                 area_copol_sidepeak=area_copol_sidepeak,
                 area_crosspol_sidepeak=area_crosspol_sidepeak)
    return area_crosspol_sidepeak / area_copol_sidepeak


@dataclass(frozen=True)
class HomAnalysis:
    """Inputs of the corrected two-photon-interference visibility."""

    v_raw: float
    epsilon: float            # 1 - classical (first-order) visibility
    bs_r: float
    bs_t: float
    g2: float

    INTERVALS = {"v_raw": "[0, 1]", "epsilon": "[0, 1]", "bs_r": "[0, 1]",
                 "bs_t": "[0, 1]", "g2": "[0, 1]"}

    def __post_init__(self):
        check_ranges(ContractError, self.INTERVALS, **vars(self))
        if abs(self.bs_r + self.bs_t - 1.0) > 0.02:
            raise ContractError(
                f"bs_r + bs_t = {self.bs_r + self.bs_t} deviates from 1 by > 0.02")


def hom_corrected_visibility(a: HomAnalysis) -> float:
    """Corrected visibility
    V = V_raw [1 + 2 g2] (R^2 + T^2) / (2 R T (1 - epsilon)^2)."""
    if a.bs_r <= 0.0 or a.bs_t <= 0.0:
        raise ModelDomainError("beamsplitter R and T must both be nonzero")
    if a.epsilon >= 1.0:
        raise ModelDomainError("epsilon must be below 1: a first-order visibility "
                               "of 0 leaves nothing to correct by")
    balance = (a.bs_r ** 2 + a.bs_t ** 2) / (2.0 * a.bs_r * a.bs_t)
    return a.v_raw * (1.0 + 2.0 * a.g2) * balance / (1.0 - a.epsilon) ** 2


def fit_jitter(hist: Histogram):
    """Gaussian fit of a unimodal histogram peak; returns (FWHM ps, fit error)."""
    from scipy.optimize import curve_fit

    x = hist.centers.astype(float)
    y = hist.counts.astype(float)
    if y.sum() <= 0:
        raise ContractError("histogram is empty")
    nonzero = np.nonzero(y > 0.5 * y.max())[0]
    if len(nonzero) <= 1:
        # All weight inside one bin: the width is unresolved at this binning.
        return float(hist.bin_ps), 0.0
    mu0 = x[int(np.argmax(y))]
    sigma0 = max((x[nonzero[-1]] - x[nonzero[0]]) / 2.355, 0.5 * hist.bin_ps)

    def gauss(t, amp, mu, sigma, off):
        return amp * np.exp(-0.5 * ((t - mu) / sigma) ** 2) + off

    try:
        popt, pcov = curve_fit(gauss, x, y,
                               p0=[y.max() - y.min(), mu0, sigma0, y.min()],
                               maxfev=20000)
    except RuntimeError as exc:
        raise NumericalError(f"jitter fit did not converge: {exc}") from exc
    fwhm = 2.0 * math.sqrt(2.0 * math.log(2.0)) * abs(popt[2])
    err = 2.0 * math.sqrt(2.0 * math.log(2.0)) * math.sqrt(max(pcov[2, 2], 0.0))
    return float(fwhm), float(err)


@dataclass(frozen=True)
class FilterWindow:
    """Rectangular acceptance window relative to the pulse-peak reference."""

    t_on_ps: float
    t_off_ps: float

    INTERVALS = {"t_on_ps": "(-inf, inf)", "t_off_ps": "(-inf, inf)"}

    def __post_init__(self):
        check_ranges(ContractError, self.INTERVALS, **vars(self))
        if self.t_on_ps > self.t_off_ps:
            raise ContractError("t_on must not exceed t_off")

    @property
    def length_ps(self) -> float:
        return self.t_off_ps - self.t_on_ps

    def fitted(self, period_ps: float) -> "FilterWindow":
        """The window, checked to be no longer than one repetition period."""
        if self.length_ps > period_ps + 1e-9:
            raise ContractError("filter window exceeds one repetition period")
        return self

    def mask(self, rel_ps: np.ndarray, period_ps: float) -> np.ndarray:
        """Which times relative to the pulse-peak reference fall in the window."""
        self.fitted(period_ps)
        return np.mod(rel_ps - self.t_on_ps, period_ps) < self.length_ps


def apply_temporal_filter(stream: TimeTagStream, window: FilterWindow) -> TimeTagStream:
    """Keep records whose time modulo the period falls in [t_on, t_off)."""
    if stream.t_zero_ps is None:
        raise ContractError("stream has no pulse-peak reference; set t_zero first")
    keep = window.mask(_fold(stream)[0], stream.period_ps)
    return dataclasses.replace(stream, records=stream.records[keep])


def reference_from_pulse_histogram(laser_stream: TimeTagStream) -> int:
    """Pulse-peak reference: mode of the period-folded 1 ps histogram.

    Ties break toward the earlier bin.
    """
    if len(laser_stream) == 0:
        raise ContractError("cannot derive a reference from an empty stream")
    hist = period_histogram(laser_stream, bin_ps=1)
    return int(hist.bin_start_ps[int(np.argmax(hist.counts))])


def write_stream(stream: TimeTagStream, path) -> None:
    """Binary format: 32-byte header then little-endian (u16, i64) records,
    written from the array itself rather than from a copy of its bytes.
    The header carries the rep rate as a whole number of mHz, so 1/3 GHz
    reads back as 333333333.333 Hz; a rate that rounds outside
    [1, 2**64) mHz is a ContractError and no file is written.  The file
    is written beside ``path`` and renamed onto it, so a stream read
    from ``path``, whose records map the old file, stays whole; the
    sibling is removed if the write fails."""
    rep_mhz = int(round(stream.rep_rate_hz * 1000.0))
    if not 1 <= rep_mhz < 2 ** 64:
        raise ContractError(f"rep_rate_hz must round to 1 .. 2**64 - 1 mHz "
                            f"for a stream file, got {stream.rep_rate_hz!r}")
    t0 = _T_ZERO_UNSET if stream.t_zero_ps is None else int(stream.t_zero_ps)
    header = _HEADER.pack(STREAM_MAGIC, STREAM_VERSION, 0, rep_mhz, t0)
    sibling = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    fh = open(sibling, "xb")
    try:
        with fh:
            fh.write(header)
            stream.records.tofile(fh)
        os.replace(sibling, path)
    except BaseException:
        os.unlink(sibling)
        raise


def read_stream(path) -> TimeTagStream:
    """The stream written by write_stream: its records, rep rate and
    reference, the header's unset marker read as None.  The rep rate is
    the header's whole number of mHz, so it reads back to the mHz of the
    rate written.  The records are a read-only view of the mapped file,
    walked once for their order; every defect of the file is a
    ConfigError that names it.  The file must not be truncated in place
    while a stream read from it is alive (write_stream replaces it by
    rename, which is safe)."""
    def defect(what) -> ConfigError:
        return ConfigError(f"stream file {path}: {what}")

    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise defect("too short for header")
        magic, version, _, rep_mhz, t0 = _HEADER.unpack(header)
        if magic != STREAM_MAGIC:
            raise defect(f"bad stream magic {magic!r}")
        if version != STREAM_VERSION:
            raise defect(f"unsupported stream version {version}")
        body = os.fstat(fh.fileno()).st_size - _HEADER.size
        if body % RECORD_DTYPE.itemsize != 0:
            raise defect(f"body of {body} bytes is not a whole number of records")
        # the map of the file checked above; it outlives the file object
        count = body // RECORD_DTYPE.itemsize
        rec = (np.memmap(fh, dtype=RECORD_DTYPE, mode="r", offset=_HEADER.size,
                         shape=(count,)) if count else np.empty(0, RECORD_DTYPE))
    try:
        return TimeTagStream(rec, rep_mhz / 1000.0,
                             None if t0 == _T_ZERO_UNSET else t0)
    except ContractError as exc:   # a defect of the file, not of the caller
        raise defect(exc) from exc


def _fold(stream: TimeTagStream):
    """Each record's time relative to the reference (float64) and its period slot."""
    rel = stream.records["t"].astype(np.float64) - (stream.t_zero_ps or 0)
    return rel, np.rint(rel / stream.period_ps).astype(np.int64)


def _levels(rel: np.ndarray, period: float, windows) -> np.ndarray:
    """1 + the number of ``windows`` whose own mask holds each time.

    The windows must share their end and be sorted by t_on, so each holds
    every later one and a time's windows are a prefix of the list: window
    w holds it exactly when its level exceeds w + 1.  Each mask is checked
    to lie inside the one before, which makes that exact for every time,
    on an edge too; a mask that does not is a NumericalError."""
    if any(w.t_off_ps != windows[0].t_off_ps for w in windows):
        raise ContractError("the windows must share their end")
    if any(a.t_on_ps > b.t_on_ps for a, b in zip(windows, windows[1:])):
        raise ContractError("the windows must be sorted by t_on")
    level = np.ones(len(rel), dtype=np.intp)
    held = None
    for w in windows:
        mask = w.mask(rel, period)
        if held is not None and (mask > held).any():
            raise NumericalError(f"the window at t_on {w.t_on_ps} ps holds a time "
                                 "that an earlier-starting window drops")
        level += mask
        held = mask
    return level


def _arm_pair_counts(stream: TimeTagStream, windows=()) -> np.ndarray:
    """(1 + W, 2, 2) arm-pair counts: row 0 unfiltered, row 1 + w inside
    windows[w], which share their end and are sorted by t_on.

    A coincidence is a period slot with exactly two records on channels
    0-3, one in each arm.  The stream is folded once, and only the arm
    records of slots holding two or more are kept: a slot holding one
    forms no coincidence in any window, nor does one holding two records
    in one arm, which is dropped too.  Each kept record gets its level
    (``_levels``).  With a slot's levels sorted in descending order, L1 >=
    L2 >= L3 (L3 = 0 for a two-record slot), rows L3 .. L2 - 1 hold exactly
    its two top records, so it counts there with their outcome.  One
    bincount of +1 at (L3, outcome) and -1 at (L2, outcome), summed over
    the levels, gives every row; only slots of three or more are sorted."""
    if windows and stream.t_zero_ps is None:
        raise ContractError("stream has no pulse-peak reference; set t_zero first")
    rel, slot = _fold(stream)
    ch = stream.records["channel"]
    if len(ch) and ch.max() >= 4:
        arms = ch < 4
        rel, slot, ch = rel[arms], slot[arms], ch[arms]
    same = slot[1:] == slot[:-1]
    shared = np.zeros(len(slot), dtype=bool)
    shared[1:] = same
    shared[:-1] |= same
    shared = np.flatnonzero(shared)
    rel, slot, ch = rel.take(shared), slot.take(shared), ch.take(shared).astype(np.intp)

    start = np.flatnonzero(np.concatenate(([True], slot[1:] != slot[:-1])))
    run = np.diff(np.append(start, len(slot)))
    a = start[run == 2]
    a = a[(ch[a] < 2) != (ch[a + 1] < 2)]
    many = np.flatnonzero(np.repeat(run > 2, run))
    level = _levels(rel.take(np.concatenate((a, a + 1, many))), stream.period_ps, windows)
    top2 = (ch[a], ch[a + 1])
    l2 = np.minimum(level[:len(a)], level[len(a):2 * len(a)])
    l3 = np.zeros(len(a), dtype=np.intp)
    if len(many):
        level = level[2 * len(a):]
        # descending levels within each slot, the slots still in order
        order = np.lexsort((-level, slot[many]))
        many, level = many[order], level[order]
        first = np.flatnonzero(np.concatenate(
            ([True], slot[many[1:]] != slot[many[:-1]])))
        top = [first + k for k in range(3)]
        top2 = tuple(np.concatenate((t, ch[many[k]])) for t, k in zip(top2, top))
        l2 = np.concatenate((l2, level[top[1]]))
        l3 = np.concatenate((l3, level[top[2]]))
    pair = 4 * np.minimum(*top2) + np.maximum(*top2)
    rows = len(windows) + 2
    steps = (np.bincount(16 * l3 + pair, minlength=16 * rows)
             - np.bincount(16 * l2 + pair, minlength=16 * rows))
    return steps.reshape(rows, 4, 4).cumsum(axis=0)[:-1, :2, 2:]


def pair_counts(stream: TimeTagStream) -> np.ndarray:
    """2x2 coincidence counts between the arms, by (arm-c, arm-d) outcome.

    A coincidence is a period with exactly one record in arm c (channels
    0/1) and exactly one in arm d (channels 2/3); entry [i, j] counts
    outcomes (channel i, channel 2 + j).  It is row 0, the unfiltered
    row, of the counter the filter sweep uses for all its windows.
    """
    return _arm_pair_counts(stream)[0]


@dataclass(frozen=True)
class FilterSweepPoint:
    t_on_ps: float
    singlet_fraction: float
    coincidences: int
    retained_fraction: float


def _sweep_workers() -> int:
    """Streams filter_fidelity_sweep synthesises at once: two, or one when
    the process may use a single CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:          # not every platform has it
        cpus = os.cpu_count() or 1
    return min(cpus, 2)


def _setting_counts(params: StreamParams, i: int, setting, windows) -> np.ndarray:
    """Arm-pair counts of tomography setting i of a sweep, unfiltered and
    then inside each window (``_arm_pair_counts``), from its own stream of
    child seed i."""
    child = int(np.random.SeedSequence([params.seed, i]).generate_state(1)[0])
    stream = synthesize_stream(dataclasses.replace(
        params, analysis=(setting.label1, setting.label2), seed=child))
    return _arm_pair_counts(stream, windows)


def sweep_windows(t_on_grid_ps, params: StreamParams,
                  t_off_margin_ps: float) -> list:
    """The windows [t_on, period - t_off_margin) of a filter sweep over
    streams synthesised from params, in grid order, each checked against
    the period.  They share their end, so they are nested: each holds
    every window that starts later."""
    if len(t_on_grid_ps) == 0:
        raise ContractError("the window grid must be nonempty")
    period = 1e12 / params.rep_rate_hz
    return [FilterWindow(float(t), period - t_off_margin_ps).fitted(period)
            for t in t_on_grid_ps]


def filter_fidelity_sweep(t_on_grid_ps=(-45.0, -20.0, 0.0, 20.0, 35.0),
                          params: StreamParams = SWEEP_STREAM,
                          t_off_margin_ps: float = 45.0):
    """Full filter -> tomography pipeline over a grid of window-on times.

    Synthesises the paired stream of each tomography setting, counts its
    coincidences unfiltered and inside every window [t_on, period -
    t_off_margin) in one pass (``_arm_pair_counts``, with the windows
    sorted by t_on), and drops it.  Two settings run at once on a thread
    pool (one on a single CPU), so at most two streams are alive; each
    setting draws from its own child seed and the counts are collected in
    setting order, so the result does not depend on the scheduling.  The
    counts are put back in grid order, so a grid out of order or with
    repeats gives the points of its windows taken one by one.  A window
    with no pass-pass coincidence over the 36 settings is a
    ModelDomainError that names its t_on.  The windows' pass-pass counts
    are reconstructed together, each window one row of one lockstep solve
    and one certificate (``tomography.singlet_fractions``), and each
    window is reported as the singlet fraction plus coincidence retention
    against the unfiltered streams.
    """
    from concurrent.futures import ThreadPoolExecutor

    if params.mode != "pairs":
        raise ContractError("the filter pipeline needs a pairs-mode stream")
    settings = tomography.standard_settings()
    windows = sweep_windows(t_on_grid_ps, params, t_off_margin_ps)
    order = np.argsort([w.t_on_ps for w in windows], kind="stable")
    by_t_on = [windows[j] for j in order]

    with ThreadPoolExecutor(_sweep_workers()) as pool:
        counts = np.array(list(pool.map(
            lambda i: _setting_counts(params, i, settings[i], by_t_on),
            range(len(settings)))))
    counts = counts[:, np.concatenate(([0], 1 + np.argsort(order)))]
    base_total = int(counts[:, 0].sum())
    if base_total == 0:
        raise ModelDomainError("no coincidences in the unfiltered streams")

    ops = np.array([s.joint_projector() for s in settings])
    passes = np.ascontiguousarray(counts[:, 1:, 0, 0].T, dtype=float)
    for window, total in zip(windows, passes.sum(axis=1)):
        if total == 0.0:
            raise ModelDomainError(f"no pass-pass coincidences in the window at "
                                   f"t_on {window.t_on_ps} ps")
    fractions = tomography.singlet_fractions(ops, passes).tolist()
    totals = counts[:, 1:].sum(axis=(0, 2, 3)).tolist()
    return [FilterSweepPoint(float(t_on), sf, total, total / base_total)
            for t_on, sf, total in zip(t_on_grid_ps, fractions, totals)]
