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
import struct
from dataclasses import dataclass, field

import numpy as np

from . import tomography, twoqubit
from .errors import ConfigError, ContractError, ModelDomainError, NumericalError

RECORD_DTYPE = np.dtype([("channel", "<u2"), ("t", "<i8")])

_T_ZERO_UNSET = -(2 ** 63)

STREAM_MAGIC = b"QTTS"
STREAM_VERSION = 1
_HEADER = struct.Struct("<4sHHQq8x")  # 32 bytes: magic, version, pad, rep_rate_mHz, t_zero

_CHANNELS_BY_MODE = {"pairs": (0, 1, 2, 3), "hbt": (0, 1), "laser": (0,)}


@dataclass(frozen=True)
class TimeTagStream:
    """Ordered detection records plus clock metadata."""

    records: np.ndarray
    rep_rate_hz: float
    t_zero_ps: int = None
    channels: tuple = (0, 1, 2, 3)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        rec = np.asarray(self.records)
        if rec.dtype != RECORD_DTYPE:
            out = np.empty(len(rec), dtype=RECORD_DTYPE)
            out["channel"], out["t"] = rec["channel"], rec["t"]
            rec = out
        if self.rep_rate_hz <= 0.0:
            raise ContractError("rep_rate_hz must be positive")
        if len(rec) and np.any(np.diff(rec["t"].astype(np.int64)) < 0):
            raise ContractError("timestamps must be nondecreasing")
        if len(rec) and not np.isin(rec["channel"], self.channels).all():
            bad = set(np.unique(rec["channel"])) - set(self.channels)
            raise ContractError(f"records use undeclared channels {sorted(bad)}")
        object.__setattr__(self, "records", rec)
        if self.t_zero_ps is not None:
            object.__setattr__(self, "t_zero_ps", int(self.t_zero_ps))

    @property
    def period_ps(self) -> float:
        return 1e12 / self.rep_rate_hz

    def __len__(self) -> int:
        return len(self.records)

    def channel_times(self, channel: int) -> np.ndarray:
        return self.records["t"][self.records["channel"] == channel].astype(np.int64)

    def with_t_zero(self, t_zero_ps: int) -> "TimeTagStream":
        return dataclasses.replace(self, t_zero_ps=int(t_zero_ps))


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

    def __post_init__(self):
        if not 0.0 <= self.g2 < 0.5:
            raise ContractError(f"g2 {self.g2} outside [0, 0.5)")
        if self.t1_ps <= 0 or self.pulse_width_ps <= 0 or self.rep_rate_hz <= 0:
            raise ContractError("t1_ps, pulse_width_ps, rep_rate_hz must be positive")
        if self.pulses <= 0:
            raise ContractError("pulses must be positive")
        if not 0.0 < self.eta <= 1.0:
            raise ContractError(f"eta {self.eta} outside (0, 1]")
        if self.jitter_fwhm_ps < 0.0:
            raise ContractError("jitter_fwhm_ps must be non-negative")
        if not 0.0 <= self.noise_rejection_prob <= 1.0:
            raise ContractError("noise_rejection_prob outside [0, 1]")
        if self.mode not in _CHANNELS_BY_MODE:
            raise ContractError(f"unknown mode {self.mode!r}")
        if self.emission not in ("qd", "poissonian"):
            raise ContractError(f"unknown emission {self.emission!r}")
        if self.mean_photons <= 0.0:
            raise ContractError("mean_photons must be positive")
        if not 0.0 <= self.indistinguishability <= 1.0:
            raise ContractError("indistinguishability outside [0, 1]")
        nw = self.pulse_width_ps if self.noise_window_ps is None else self.noise_window_ps
        if nw <= 0.0:
            raise ContractError("noise window must be positive")
        object.__setattr__(self, "noise_window_ps", float(nw))

    def setting(self) -> tomography.MeasurementSetting:
        a = self.analysis
        if len(a) == 2:
            return tomography.MeasurementSetting.from_names(a[0], a[1])
        if len(a) == 4:
            return tomography.MeasurementSetting.from_angles(*a)
        raise ContractError("analysis must be two names or four waveplate angles")


def _jitter_sigma(fwhm: float) -> float:
    return fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def _emg_delays(rng, size: int, t1: float, width: float) -> np.ndarray:
    return rng.normal(0.0, width, size) + rng.exponential(t1, size)


def _qd_photon_numbers(rng, n: int, g2: float) -> np.ndarray:
    return rng.choice(3, size=n, p=[g2 / 2.0, 1.0 - g2, g2 / 2.0])


def _assemble(parts, rep_rate_hz, channels, t_zero, metadata) -> TimeTagStream:
    if parts:
        ch = np.concatenate([p[0] for p in parts])
        ts = np.concatenate([p[1] for p in parts])
    else:
        ch = np.empty(0, dtype=np.uint16)
        ts = np.empty(0, dtype=np.int64)
    order = np.lexsort((ch, ts))
    rec = np.empty(len(ts), dtype=RECORD_DTYPE)
    rec["channel"] = ch[order]
    rec["t"] = ts[order]
    return TimeTagStream(rec, rep_rate_hz, t_zero, channels, metadata)


def synthesize_stream(params: StreamParams) -> TimeTagStream:
    """Generate a synthetic detection stream; deterministic given the seed."""
    rng = np.random.default_rng(params.seed)
    n = params.pulses
    period = 1e12 / params.rep_rate_hz
    base = np.arange(n, dtype=np.float64) * period
    sig_j = _jitter_sigma(params.jitter_fwhm_ps)
    meta = {"mode": params.mode, "params": dataclasses.asdict(params)}

    def finish(ch_t_parts, t_zero):
        stamped = []
        for ch, t in ch_t_parts:
            if sig_j > 0.0 and len(t):
                t = t + rng.normal(0.0, sig_j, len(t))
            stamped.append((np.asarray(ch, dtype=np.uint16),
                            np.rint(t).astype(np.int64)))
        return _assemble(stamped, params.rep_rate_hz,
                         _CHANNELS_BY_MODE[params.mode], t_zero, meta)

    if params.mode == "laser":
        t = base + params.center_ps
        if params.eta < 1.0:
            t = t[rng.random(n) < params.eta]
        return finish([(np.zeros(len(t), dtype=np.uint16), t)], None)

    if params.mode == "hbt":
        return _synthesize_hbt(params, rng, base, finish)
    return _synthesize_pairs(params, rng, base, finish)


def _synthesize_hbt(params, rng, base, finish):
    n = params.pulses
    parts = []
    if params.emission == "poissonian":
        counts = rng.poisson(params.mean_photons, n)
        periods = np.repeat(np.arange(n), counts)
        delays = _emg_delays(rng, len(periods), params.t1_ps, params.pulse_width_ps)
        det = rng.random(len(periods)) < params.eta
        periods, delays = periods[det], delays[det]
        arm = rng.integers(0, 2, len(periods))
        parts.append((arm, base[periods] + delays))
    else:
        nums = _qd_photon_numbers(rng, n, params.g2)
        prim = nums >= 1
        noise = (nums == 2) & (rng.random(n) >= params.noise_rejection_prob)
        for mask, early in ((prim, False), (noise, True)):
            idx = np.nonzero(mask & (rng.random(n) < params.eta))[0]
            if early:
                d = rng.uniform(0.0, params.noise_window_ps, len(idx))
            else:
                d = _emg_delays(rng, len(idx), params.t1_ps, params.pulse_width_ps)
            arm = rng.integers(0, 2, len(idx))
            parts.append((arm, base[idx] + d))
    return finish(parts, 0)


def _synthesize_pairs(params, rng, base, finish):
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

    species = {}
    for name, pol in (("pH", 0), ("pV", 1)):
        nums = _qd_photon_numbers(rng, n, params.g2)
        exists = nums >= 1
        noise = (nums == 2) & (rng.random(n) >= params.noise_rejection_prob)
        det = exists & (rng.random(n) < params.eta)
        det_noise = noise & (rng.random(n) < params.eta)
        d = _emg_delays(rng, n, params.t1_ps, params.pulse_width_ps)
        dn = rng.uniform(0.0, params.noise_window_ps, n)
        if pol == 0:
            d = d + params.offset_ps
            dn = dn + params.offset_ps
        species[name] = dict(det=det, delay=d, arm=rng.integers(0, 2, n), pol=pol)
        species["n" + name[1]] = dict(det=det_noise, delay=dn,
                                      arm=rng.integers(0, 2, n), pol=pol)

    # Both primaries split across the arms interfere regardless of any
    # detected noise photon: the broadband noise photon occupies a
    # distinguishable temporal mode and does not spoil their coherence
    # (it may later be removed by the temporal filter).
    ph, pv = species["pH"], species["pV"]
    interfering = ph["det"] & pv["det"] & (ph["arm"] != pv["arm"])

    parts = []
    # Interfering coincidences: joint polarisation outcome from the coherent state.
    idx = np.nonzero(interfering)[0]
    if len(idx):
        out = np.searchsorted(cum, rng.random(len(idx)), side="right")
        o1, o2 = out // 2, out % 2
        swap = rng.random(len(idx)) < 0.5
        d_c = np.where(swap, pv["delay"][idx], ph["delay"][idx])
        d_d = np.where(swap, ph["delay"][idx], pv["delay"][idx])
        parts.append((o1.astype(np.uint16), base[idx] + d_c))
        parts.append((2 + o2.astype(np.uint16), base[idx] + d_d))

    # Everything else carries its classical polarisation through the analyser.
    for name, sp in species.items():
        mask = sp["det"].copy()
        if name in ("pH", "pV"):
            mask &= ~interfering
        pidx = np.nonzero(mask)[0]
        if not len(pidx):
            continue
        arm = sp["arm"][pidx]
        passed = rng.random(len(pidx)) < q_pass[arm, sp["pol"]]
        ch = (2 * arm + (~passed).astype(np.uint16)).astype(np.uint16)
        parts.append((ch, base[pidx] + sp["delay"][pidx]))
    return finish(parts, 0)


@dataclass(frozen=True)
class Histogram:
    """Counts over integer-ps bins [start, start + bin_ps)."""

    bin_start_ps: np.ndarray
    counts: np.ndarray
    bin_ps: int
    empty: bool = False

    @property
    def centers(self) -> np.ndarray:
        return self.bin_start_ps + 0.5 * self.bin_ps

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("bin_start_ps,count\n")
            for s, c in zip(self.bin_start_ps, self.counts):
                fh.write(f"{int(s)},{int(c)}\n")


# Starts of channel a binned per pass, which bounds the pair arrays.
_HISTOGRAM_BLOCK = 1 << 16


def coincidence_histogram(stream: TimeTagStream, ch_a: int, ch_b: int,
                          bin_ps: int, span_ps: int) -> Histogram:
    """Histogram of timestamp differences t_b - t_a over +/- span_ps."""
    if bin_ps <= 0 or span_ps <= 0:
        raise ContractError("bin_ps and span_ps must be positive")
    ta = stream.channel_times(ch_a)
    tb = stream.channel_times(ch_b)
    nbins = 2 * (span_ps // bin_ps)
    starts = (np.arange(nbins) - nbins // 2) * bin_ps
    counts = np.zeros(nbins, dtype=np.int64)
    for i in range(0, len(ta), _HISTOGRAM_BLOCK):
        block = ta[i:i + _HISTOGRAM_BLOCK]
        lo = np.searchsorted(tb, block + starts[0], side="left")
        m = np.searchsorted(tb, block + starts[0] + nbins * bin_ps,
                            side="left") - lo
        flat = np.repeat(lo - (np.cumsum(m) - m), m) + np.arange(m.sum())
        diffs = tb[flat] - np.repeat(block, m)
        counts += np.bincount((diffs - starts[0]) // bin_ps, minlength=nbins)
    return Histogram(starts, counts, bin_ps, empty=not counts.any())


def period_histogram(stream: TimeTagStream, channel: int = None,
                     bin_ps: int = 1) -> Histogram:
    """Histogram of arrival times folded modulo the repetition period."""
    if bin_ps <= 0:
        raise ContractError("bin_ps must be positive")
    if channel is None:
        t = stream.records["t"].astype(np.int64)
    else:
        t = stream.channel_times(channel)
    period = stream.period_ps
    nbins = int(math.ceil(period / bin_ps))
    starts = np.arange(nbins, dtype=np.int64) * bin_ps
    if len(t) == 0:
        return Histogram(starts, np.zeros(nbins, dtype=np.int64), bin_ps, empty=True)
    folded = np.mod(t.astype(np.float64), period)
    counts, _ = np.histogram(folded, bins=np.append(starts, nbins * bin_ps))
    return Histogram(starts, counts.astype(np.int64), bin_ps)


def g2_from_histogram(hist: Histogram, rep_period_ps: float):
    """Pulsed g2: central peak area over the mean side-peak area.

    Each peak is integrated over one full repetition period centred on
    the peak; bins are attributed to peaks by bin centre.  Returns
    (g2, statistical error) with Poisson counting errors propagated.
    """
    if rep_period_ps <= 0.0:
        raise ContractError("rep_period_ps must be positive")
    centers = hist.centers
    span = min(-centers[0], centers[-1] + 0.5 * hist.bin_ps)
    n_side = int(math.floor((span - 0.5 * rep_period_ps) / rep_period_ps))
    if n_side < 5:
        raise ContractError(
            f"histogram spans only {n_side} full side peaks per side; need >= 5")
    peak = np.rint(centers / rep_period_ps).astype(np.int64)
    areas = {}
    for m in range(-n_side, n_side + 1):
        areas[m] = float(hist.counts[peak == m].sum())
    central = areas[0]
    sides = np.array([areas[m] for m in range(-n_side, n_side + 1) if m != 0])
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
    if area_copol_sidepeak <= 0.0 or area_crosspol_sidepeak <= 0.0:
        raise ContractError("side-peak areas must be positive")
    return area_crosspol_sidepeak / area_copol_sidepeak


@dataclass(frozen=True)
class HomAnalysis:
    """Inputs of the corrected two-photon-interference visibility."""

    v_raw: float
    epsilon: float            # 1 - classical (first-order) visibility
    bs_r: float
    bs_t: float
    g2: float
    normalisation_factor: float = 1.0

    def __post_init__(self):
        for name in ("v_raw", "epsilon", "bs_r", "bs_t", "g2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ContractError(f"{name} = {v} outside [0, 1]")
        if self.normalisation_factor <= 0.0:
            raise ContractError("normalisation_factor must be positive")
        if abs(self.bs_r + self.bs_t - 1.0) > 0.02:
            raise ContractError(
                f"bs_r + bs_t = {self.bs_r + self.bs_t} deviates from 1 by > 0.02")


def hom_corrected_visibility(a: HomAnalysis) -> float:
    """Corrected visibility
    V = V_raw [1 + 2 g2] (R^2 + T^2) / (2 R T (1 - epsilon)^2)."""
    if a.bs_r <= 0.0 or a.bs_t <= 0.0:
        raise ModelDomainError("beamsplitter R and T must both be nonzero")
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

    def __post_init__(self):
        if self.t_on_ps > self.t_off_ps:
            raise ContractError("t_on must not exceed t_off")

    @property
    def length_ps(self) -> float:
        return self.t_off_ps - self.t_on_ps


def apply_temporal_filter(stream: TimeTagStream, window: FilterWindow) -> TimeTagStream:
    """Keep records whose time modulo the period falls in [t_on, t_off)."""
    if stream.t_zero_ps is None:
        raise ContractError("stream has no pulse-peak reference; set t_zero first")
    period = stream.period_ps
    if window.length_ps > period + 1e-9:
        raise ContractError("filter window exceeds one repetition period")
    t = stream.records["t"].astype(np.float64)
    phase = np.mod(t - stream.t_zero_ps - window.t_on_ps, period)
    keep = phase < window.length_ps
    meta = dict(stream.metadata)
    meta["filter_window_ps"] = (window.t_on_ps, window.t_off_ps)
    return dataclasses.replace(stream, records=stream.records[keep], metadata=meta)


def reference_from_pulse_histogram(laser_stream: TimeTagStream) -> int:
    """Pulse-peak reference: mode of the period-folded 1 ps histogram.

    Ties break toward the earlier bin.
    """
    if len(laser_stream) == 0:
        raise ContractError("cannot derive a reference from an empty stream")
    hist = period_histogram(laser_stream, bin_ps=1)
    return int(hist.bin_start_ps[int(np.argmax(hist.counts))])


def write_stream(stream: TimeTagStream, path) -> None:
    """Binary format: 32-byte header then little-endian (u16, i64) records."""
    t0 = _T_ZERO_UNSET if stream.t_zero_ps is None else int(stream.t_zero_ps)
    header = _HEADER.pack(STREAM_MAGIC, STREAM_VERSION, 0,
                          int(round(stream.rep_rate_hz * 1000.0)), t0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(stream.records.tobytes())


def read_stream(path) -> TimeTagStream:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ConfigError("stream file too short for header")
        magic, version, _, rep_mhz, t0 = _HEADER.unpack(header)
        if magic != STREAM_MAGIC:
            raise ConfigError(f"bad stream magic {magic!r}")
        if version != STREAM_VERSION:
            raise ConfigError(f"unsupported stream version {version}")
        body = fh.read()
    if len(body) % RECORD_DTYPE.itemsize != 0:
        raise ConfigError(
            f"stream body of {len(body)} bytes is not a whole number of records")
    rec = np.frombuffer(body, dtype=RECORD_DTYPE).copy()
    channels = tuple(sorted(set(np.unique(rec["channel"]).tolist()) | {0}))
    return TimeTagStream(rec, rep_mhz / 1000.0,
                         None if t0 == _T_ZERO_UNSET else t0,
                         channels, {"source": str(path)})


def pair_counts(stream: TimeTagStream) -> np.ndarray:
    """2x2 coincidence counts between the arms, by (arm-c, arm-d) outcome.

    A coincidence is a period with exactly one record in arm c (channels
    0/1) and exactly one in arm d (channels 2/3); entry [i, j] counts
    outcomes (channel i, channel 2 + j).
    """
    t0 = stream.t_zero_ps or 0
    period = stream.period_ps
    ch = stream.records["channel"]
    t = stream.records["t"].astype(np.float64)
    slot = np.rint((t - t0) / period).astype(np.int64)

    def arm(side):
        mask = (ch == 2 * side) | (ch == 2 * side + 1)
        slots, outs = slot[mask], ch[mask] - 2 * side
        uniq, first, count = np.unique(slots, return_index=True, return_counts=True)
        good = count == 1
        return uniq[good], outs[first[good]]

    sc, oc = arm(0)
    sd, od = arm(1)
    common, ic, idx = np.intersect1d(sc, sd, return_indices=True)
    out = np.zeros((2, 2), dtype=np.int64)
    np.add.at(out, (oc[ic], od[idx]), 1)
    return out


@dataclass(frozen=True)
class FilterSweepPoint:
    t_on_ps: float
    singlet_fraction: float
    coincidences: int
    retained_fraction: float


def filter_fidelity_sweep(t_on_grid_ps=(-45.0, -20.0, 0.0, 20.0, 35.0),
                          params: StreamParams = None,
                          t_off_margin_ps: float = 45.0):
    """Full filter -> tomography pipeline over a grid of window-on times.

    Synthesises one paired stream per tomography setting, applies the
    window [t_on, period - t_off_margin) to every stream, counts
    pass-pass coincidences, reconstructs the state, and reports the
    singlet fraction plus coincidence retention against the unfiltered
    streams.  The default stream uses a slower emitter (T1 = 200 ps)
    than the headline source so the window edge resolves against the
    detector jitter, and a modest collection efficiency so the
    uncorrelated noise photons carry visible weight; every parameter
    can be overridden.
    """
    if params is None:
        params = StreamParams(t1_ps=200.0, pulses=10 ** 6, seed=20240801, eta=0.3)
    if params.mode != "pairs":
        raise ContractError("the filter pipeline needs a pairs-mode stream")
    settings = tomography.standard_settings()
    streams = []
    for i, s in enumerate(settings):
        child = int(np.random.SeedSequence([params.seed, i]).generate_state(1)[0])
        streams.append(synthesize_stream(dataclasses.replace(
            params, analysis=(s.label1, s.label2), seed=child)))
    period = streams[0].period_ps

    unfiltered = [pair_counts(st) for st in streams]
    base_total = int(sum(int(m.sum()) for m in unfiltered))
    if base_total == 0:
        raise ModelDomainError("no coincidences in the unfiltered streams")

    points = []
    for t_on in t_on_grid_ps:
        window = FilterWindow(float(t_on), period - t_off_margin_ps)
        records = []
        total = 0
        for st, s in zip(streams, settings):
            m = pair_counts(apply_temporal_filter(st, window))
            records.append(tomography.CountRecord(s, int(m[0, 0])))
            total += int(m.sum())
        rho, _ = tomography.mle_reconstruct(records)
        sf = twoqubit.singlet_fraction(rho).value
        points.append(FilterSweepPoint(float(t_on), sf, total, total / base_total))
    return points
