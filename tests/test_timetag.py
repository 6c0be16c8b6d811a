"""Tests for time-tag synthesis, histogramming, and stream analysis."""

import dataclasses
import gc
import hashlib
import re
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import stats

from helpers import (all_pairs_histogram, copying_filter_sweep, picked_times,
                     sorting_pair_counts)
from qdpair import timetag as tt, tomography
from qdpair.errors import ConfigError, ContractError, ModelDomainError


def test_synthesis_deterministic():
    p = tt.StreamParams(pulses=20000, seed=7)
    a = tt.synthesize_stream(p)
    b = tt.synthesize_stream(p)
    assert np.array_equal(a.records, b.records)
    c = tt.synthesize_stream(tt.StreamParams(pulses=20000, seed=8))
    assert not np.array_equal(a.records, c.records)


# SHA-256 of synthesize_stream(params).records.tobytes() at seed 7 and,
# unless given, 20000 pulses: any change to the order, size or use of a
# draw changes them.  The offset and noise-rejection streams cover those
# paths of the pairs mode; an odd pulse count ends each per-pulse draw on
# an odd block and leaves the arm draws (32 bits a value) half an output
# over, which the next draw must take up as after one whole draw.
SYNTHESIS_DIGESTS = [
    (dict(g2=0.3, eta=0.9, noise_window_ps=400.0, analysis=("D", "A")),
     "ba7d4d904efe6b792f159d898ac0e75584e8bd489416036d268e0c83a4681b47"),
    (dict(offset_ps=30.0),
     "0d1f40fc35cf02de5609f801202b07354517d7183d98f68d1afc6c50c7c0e542"),
    (dict(g2=0.2, noise_rejection_prob=0.4),
     "7f070e888b0b612763167f991670225b33fab3e3b38cc0f5a9a4d6e735d88575"),
    (dict(pulses=20001),
     "a61431f40a0a5eb7a7a6aff985866da866d6c7d28ee8de1b8fb739a69a8ac0f0"),
    (dict(mode="hbt", g2=0.1, noise_rejection_prob=0.5),
     "0bae492ad767edf57c833795e18b3a602097fc11657c1e7a889c697257bb4ca4"),
    (dict(mode="hbt", emission="poissonian"),
     "f5efb1a10794761824300a6e7f81dd82c2e2ce6bb3d97da51b799fe67a70e0d9"),
    (dict(mode="laser", eta=0.5),
     "38dca3dbdc9958fdcd0b2ed42c6d41c78842c41d04e708b371a72fec151e37f2"),
]


@pytest.mark.parametrize("kwargs, digest", SYNTHESIS_DIGESTS,
                         ids=["pairs", "pairs-offset", "pairs-noise-rejection",
                              "pairs-odd-pulses", "hbt-qd", "hbt-poissonian",
                              "laser"])
def test_synthesis_is_pinned_bit_for_bit(kwargs, digest):
    st = tt.synthesize_stream(tt.StreamParams(**{"pulses": 20000, "seed": 7,
                                                 **kwargs}))
    assert hashlib.sha256(st.records.tobytes()).hexdigest() == digest


def test_angle_analysis_synthesises_as_its_named_setting():
    # four waveplate angles name the D, A setting and draw the same stream
    by_angles, by_names = (
        tt.synthesize_stream(tt.StreamParams(pulses=20000, seed=7, analysis=analysis))
        for analysis in ((22.5, 45.0, -22.5, 45.0), ("D", "A")))
    assert len(by_names) > 0
    assert np.array_equal(by_angles.records, by_names.records)
    assert (by_angles.rep_rate_hz, by_angles.t_zero_ps) == (by_names.rep_rate_hz,
                                                            by_names.t_zero_ps)


def traced_call(fn):
    """Traced allocation peak of fn(), above what was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_synthesis_memory_follows_detections_not_pulses():
    # At eta = 0.01 a stream holds about 0.01 records per pulse, so a peak
    # under 8 bytes a pulse means no per-pulse float64 draw was kept whole.
    for mode in ("pairs", "hbt"):
        params = tt.StreamParams(pulses=200000, eta=0.01, seed=3, mode=mode)
        peak = traced_call(lambda: tt.synthesize_stream(params))
        assert peak < 8 * params.pulses, mode


def test_qd_photon_numbers_match_generator_choice():
    for g2 in (0.0, 0.013, 0.02, 0.3, 0.49):
        for seed in range(5):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            one, two = tt._qd_photon_numbers(ours, 5000, g2)
            nums = ref.choice(3, size=5000, p=[g2 / 2.0, 1.0 - g2, g2 / 2.0])
            assert np.array_equal(one, nums >= 1)
            assert np.array_equal(two, nums == 2)
            assert ours.random() == ref.random()     # same generator state


def test_qd_photon_numbers_threshold_on_the_cdf_edges():
    class Draws:
        """Stands in for the generator, returning set uniform draws."""

        def __init__(self, u):
            self.u = u

        def random(self, n):
            assert n == len(self.u)
            return self.u

    for g2 in (0.0, 0.02):
        cdf = np.array([g2 / 2.0, 1.0 - g2, g2 / 2.0]).cumsum()
        cdf /= cdf[-1]
        u = np.array([0.0, cdf[0], np.nextafter(cdf[1], 0.0), cdf[1],
                      np.nextafter(cdf[1], 1.0)])
        u = u[u < 1.0]                   # random() draws from [0, 1)
        assert 0.0 in u and (cdf[1] in u) == (g2 > 0.0)
        one, two = tt._qd_photon_numbers(Draws(u), len(u), g2)
        # how Generator.choice maps each draw to a photon number
        nums = np.searchsorted(cdf, u, side="right")
        assert np.array_equal(one, nums >= 1)
        assert np.array_equal(two, nums == 2)


@pytest.mark.parametrize("kwargs, channels", (
    (dict(mode="pairs"), {0, 1, 2, 3}),     # pass and reflect of arms c and d
    (dict(mode="hbt"), {0, 1}),             # the two detectors of the splitter
    (dict(mode="hbt", emission="poissonian"), {0, 1}),
    (dict(mode="laser"), {0}),              # the one reference detector
), ids=["pairs", "hbt-qd", "hbt-poissonian", "laser"])
def test_records_sorted_and_channel_ranges(kwargs, channels):
    st = tt.synthesize_stream(tt.StreamParams(pulses=20000, seed=7, **kwargs))
    t = st.records["t"]
    assert np.all(np.diff(t) >= 0)
    used = set(np.unique(st.records["channel"]).tolist())
    assert used <= channels
    if kwargs["mode"] == "laser":
        assert used == channels


def test_hbt_recovers_requested_g2():
    p = tt.StreamParams(mode="hbt", g2=0.02, pulses=200000, eta=0.4, seed=5)
    st = tt.synthesize_stream(p)
    hist = tt.coincidence_histogram(st, 0, 1, bin_ps=20,
                                    span_ps=8 * int(st.period_ps))
    g2, sigma = tt.g2_from_histogram(hist, st.period_ps)
    assert sigma < 0.003
    assert abs(g2 - 0.02) <= 3.0 * sigma


def test_poissonian_emission_has_unit_g2():
    p = tt.StreamParams(mode="hbt", emission="poissonian", mean_photons=0.8,
                        pulses=100000, eta=0.3, seed=6)
    st = tt.synthesize_stream(p)
    hist = tt.coincidence_histogram(st, 0, 1, bin_ps=20,
                                    span_ps=8 * int(st.period_ps))
    g2, sigma = tt.g2_from_histogram(hist, st.period_ps)
    assert abs(g2 - 1.0) <= 4.0 * sigma


def test_full_noise_rejection_suppresses_center_peak():
    p = tt.StreamParams(mode="hbt", g2=0.05, noise_rejection_prob=1.0,
                        pulses=200000, eta=0.4, seed=7)
    st = tt.synthesize_stream(p)
    hist = tt.coincidence_histogram(st, 0, 1, bin_ps=20,
                                    span_ps=8 * int(st.period_ps))
    g2, _ = tt.g2_from_histogram(hist, st.period_ps)
    assert abs(g2) <= 0.001


def test_laser_jitter_fit_and_reference():
    p = tt.StreamParams(mode="laser", pulses=200000, seed=8, center_ps=3000.0)
    st = tt.synthesize_stream(p)
    ref = tt.reference_from_pulse_histogram(st)
    assert abs(ref - 3000.0) <= 2.0
    hist = tt.period_histogram(st, channel=0, bin_ps=1)
    fwhm, err = tt.fit_jitter(hist)
    assert abs(fwhm - 35.0) <= 0.5
    assert 0.0 < err < 0.5


def test_delay_distribution_matches_emg_shape():
    # dither the integer timestamps and centre the periodic window before
    # comparing against the continuous reference distribution
    p = tt.StreamParams(mode="hbt", g2=0.0, pulses=60000, eta=0.5,
                        jitter_fwhm_ps=0.0, seed=9)
    st = tt.synthesize_stream(p)
    period = st.period_ps
    t = st.records["t"].astype(float)
    delay = np.mod(t + 0.5 * period, period) - 0.5 * period
    rng = np.random.default_rng(123)
    delay = delay + rng.uniform(-0.5, 0.5, size=len(delay))
    k = p.t1_ps / p.pulse_width_ps
    ref = stats.exponnorm(K=k, loc=0.0, scale=p.pulse_width_ps)
    res = stats.kstest(delay, ref.cdf)
    assert res.pvalue > 0.01


def test_interference_visibility_correction():
    s3 = tt.HomAnalysis(v_raw=0.915, epsilon=0.015, bs_r=0.467, bs_t=0.533,
                        g2=0.015)
    assert abs(tt.hom_corrected_visibility(s3) - 0.981) <= 0.002
    s4 = tt.HomAnalysis(v_raw=0.912, epsilon=0.017, bs_r=0.467, bs_t=0.533,
                        g2=0.012)
    assert abs(tt.hom_corrected_visibility(s4) - 0.976) <= 0.002
    # closed form: balance and blinking factors scale the raw dip
    a = tt.HomAnalysis(v_raw=0.9, epsilon=0.02, bs_r=0.45, bs_t=0.55, g2=0.01)
    manual = 0.9 * (1.0 + 0.02) * (0.45 ** 2 + 0.55 ** 2) \
        / (2.0 * 0.45 * 0.55 * 0.98 ** 2)
    assert abs(tt.hom_corrected_visibility(a) - manual) <= 1e-12
    with pytest.raises(ModelDomainError):
        tt.hom_corrected_visibility(
            tt.HomAnalysis(v_raw=0.9, epsilon=0.0, bs_r=0.0, bs_t=1.0, g2=0.0))


def test_cross_polarised_normalisation():
    assert abs(tt.cross_pol_normalisation(17.35, 10.0) - 10.0 / 17.35) <= 1e-12
    assert abs(tt.cross_pol_normalisation(1.78, 1.0) - 1.0 / 1.78) <= 1e-12
    with pytest.raises(ContractError):
        tt.cross_pol_normalisation(0.0, 1.0)


def test_pair_counts_dominated_by_cross_polarisation():
    st = tt.synthesize_stream(tt.StreamParams(pulses=50000, seed=11, eta=0.5))
    counts = tt.pair_counts(st)
    assert counts.shape == (2, 2)
    assert np.array_equal(counts, [[39, 3100], [2981, 30]])
    cross = counts[0, 1] + counts[1, 0]
    co = counts[0, 0] + counts[1, 1]
    assert cross / (cross + co) > 0.95


def random_stream(rng):
    """A small stream on channels 0-5 with t_zero None, 0 or nonzero: either
    a few slots holding 0-4 clicks per arm plus extra-channel records, or
    times spread over a few periods (down to 10 ps, many records a slot)."""
    rep_rate = float(rng.choice([76.3e6, 1e9, 1e11]))
    period = 1e12 / rep_rate
    t_zero = (None, 0, int(rng.integers(-3000, 3000)))[rng.integers(3)]
    if rng.random() < 0.5:
        slots = rng.integers(-4, 12, size=rng.integers(0, 10))
        per_slot = rng.integers(0, 5, size=(len(slots), 3))
        per_slot[:, 2] = rng.integers(0, 2, size=len(slots))
        arm = np.concatenate([np.repeat([0, 2, 4], row) for row in per_slot]
                             + [np.empty(0, dtype=np.int64)])
        slot = np.repeat(slots, per_slot.sum(axis=1))
        t = (t_zero or 0) + (slot + rng.uniform(-0.45, 0.45, len(slot))) * period
        ch = arm + rng.integers(0, 2, len(arm))
    else:
        n = rng.integers(0, 40)
        t = rng.uniform(-3.0, 10.0, n) * period
        ch = rng.integers(0, 6, n)
    t = np.rint(t).astype(np.int64)
    order = np.argsort(t, kind="stable")    # random channel order on ties
    records = np.empty(len(t), dtype=tt.RECORD_DTYPE)
    records["t"], records["channel"] = t[order], ch[order]
    return tt.TimeTagStream(records, rep_rate, t_zero)


def test_pair_counts_matches_sorting_oracle():
    rng = np.random.default_rng(2024)
    empty = coincidences = 0
    for _ in range(3000):
        st = random_stream(rng)
        counts = tt.pair_counts(st)
        assert counts.shape == (2, 2) and counts.dtype == np.int64
        assert np.array_equal(counts, sorting_pair_counts(st))
        empty += len(st) == 0
        coincidences += int(counts.sum())
    assert empty > 0 and coincidences > 1000


def test_temporal_filter_behaviour():
    st = tt.synthesize_stream(tt.StreamParams(pulses=20000, seed=2))
    w = tt.FilterWindow(t_on_ps=-20.0, t_off_ps=100.0)
    once = tt.apply_temporal_filter(st, w)
    twice = tt.apply_temporal_filter(once, w)
    assert np.array_equal(once.records, twice.records)
    assert len(once.records) < len(st.records)
    full = tt.apply_temporal_filter(
        st, tt.FilterWindow(t_on_ps=0.0, t_off_ps=st.period_ps))
    assert len(full.records) == len(st.records)
    # narrowing the window from the left only removes records
    tighter = tt.apply_temporal_filter(
        st, tt.FilterWindow(t_on_ps=10.0, t_off_ps=100.0))
    assert len(tighter.records) <= len(once.records)
    with pytest.raises(ContractError):
        tt.FilterWindow(t_on_ps=50.0, t_off_ps=10.0)
    with pytest.raises(ContractError):
        tt.apply_temporal_filter(
            st, tt.FilterWindow(t_on_ps=0.0, t_off_ps=2.0 * st.period_ps))
    bare = dataclasses.replace(st, t_zero_ps=None)
    with pytest.raises(ContractError):
        tt.apply_temporal_filter(bare, w)


def test_filter_sweep_improves_fidelity():
    params = tt.StreamParams(t1_ps=200.0, pulses=200000, seed=20240801,
                             eta=0.3)
    pts = tt.filter_fidelity_sweep(t_on_grid_ps=(-45.0, 35.0), params=params)
    assert len(pts) == 2
    assert pts[0].retained_fraction == pytest.approx(1.0, abs=1e-9)
    assert pts[1].singlet_fraction - pts[0].singlet_fraction >= 0.01
    assert 0.6 < pts[1].retained_fraction < 0.8
    assert pts[1].coincidences < pts[0].coincidences


def test_filter_sweep_rejects_an_empty_window_grid(monkeypatch):
    with pytest.raises(ContractError, match="nonempty"):
        tt.sweep_windows((), tt.SWEEP_STREAM, 45.0)
    synthesised = []
    monkeypatch.setattr(tt, "synthesize_stream", synthesised.append)
    with pytest.raises(ContractError, match="nonempty"):
        tt.filter_fidelity_sweep(())
    assert synthesised == []                # rejected before any stream


def test_filter_sweep_matches_copying_oracle():
    params = tt.StreamParams(t1_ps=200.0, pulses=20000, seed=5, eta=0.3)
    grid = (-30.0, -10.0, 0.0, 35.0, 60.0)
    assert tt.filter_fidelity_sweep(grid, params, t_off_margin_ps=30.0) \
        == copying_filter_sweep(grid, params, t_off_margin_ps=30.0)


def test_filter_sweep_matches_copying_oracle_on_dense_slots():
    # Many multi-photon pulses, every photon detected and noise photons
    # spread over 3 ns put three or more records in about a quarter of the
    # occupied slots; t_on = -200 ps opens the window before the reference.
    params = tt.StreamParams(t1_ps=200.0, pulses=20000, seed=13, eta=1.0,
                             g2=0.3, noise_window_ps=3000.0)
    slot = tt._fold(tt.synthesize_stream(params))[1]
    assert (np.unique(slot, return_counts=True)[1] >= 3).mean() > 0.2
    grid = (-200.0, -20.0, 0.0, 35.0, 150.0)
    assert tt.filter_fidelity_sweep(grid, params, t_off_margin_ps=250.0) \
        == copying_filter_sweep(grid, params, t_off_margin_ps=250.0)


def test_filter_sweep_solves_every_window_in_one_stack(monkeypatch):
    # the windows are the rows of one lockstep solve and one certificate
    calls = {"_barrier_newton": [], "_certified": []}
    for name, log in calls.items():
        def logged(*args, fn=getattr(tomography, name), log=log):
            log.append(args[1].shape)
            return fn(*args)
        monkeypatch.setattr(tomography, name, logged)
    grid = (-30.0, -10.0, 0.0, 35.0, 60.0)
    params = tt.StreamParams(t1_ps=200.0, pulses=20000, seed=5, eta=0.3)
    assert len(tt.filter_fidelity_sweep(grid, params, t_off_margin_ps=30.0)) == 5
    assert calls == {"_barrier_newton": [(5, 36)], "_certified": [(5, 36)]}


def test_filter_sweep_is_independent_of_finishing_order(monkeypatch):
    synthesize = tt.synthesize_stream
    labels = [(s.label1, s.label2) for s in tomography.standard_settings()]
    finished = []

    def slow_on_even_settings(params):
        i = labels.index(params.analysis)
        if i % 2 == 0:
            time.sleep(0.05)
        stream = synthesize(params)
        finished.append(i)
        return stream

    monkeypatch.setattr(tt, "synthesize_stream", slow_on_even_settings)
    params = tt.StreamParams(t1_ps=200.0, pulses=20000, seed=5, eta=0.3)
    grid = (-30.0, 0.0, 35.0)
    points = tt.filter_fidelity_sweep(grid, params, t_off_margin_ps=30.0)
    monkeypatch.undo()
    assert sorted(finished) == list(range(36))
    if tt._sweep_workers() > 1:
        assert finished != sorted(finished)
    assert points == copying_filter_sweep(grid, params, t_off_margin_ps=30.0)


def test_filter_sweep_holds_at_most_two_streams(monkeypatch):
    synthesize = tt.synthesize_stream
    made, alive = [], []

    def tracked(params):
        gc.collect()
        alive.append(sum(ref() is not None for ref in made))
        stream = synthesize(params)
        made.append(weakref.ref(stream))
        return stream

    monkeypatch.setattr(tt, "synthesize_stream", tracked)
    params = tt.StreamParams(t1_ps=200.0, pulses=2000, seed=3, eta=0.3)
    tt.filter_fidelity_sweep((0.0, 35.0), params)
    assert len(alive) == 36
    assert max(alive) <= 1                  # the other worker's stream only


# Traced peak of filter_fidelity_sweep at the parameters below when it
# synthesised and counted one stream at a time, before two streams ran
# at once on a thread pool.
ONE_STREAM_SWEEP_PEAK = int(5.27 * 2 ** 20)


def test_filter_sweep_peak_stays_under_one_stream_at_a_time():
    params = tt.StreamParams(t1_ps=200.0, pulses=50000, seed=20240801, eta=0.3)
    assert traced_call(lambda: tt.filter_fidelity_sweep(params=params)) \
        <= ONE_STREAM_SWEEP_PEAK
    # Worst interleaving: both workers at the peak of their largest setting.
    period = 1e12 / params.rep_rate_hz
    windows = [tt.FilterWindow(t, period - 45.0)
               for t in (-45.0, -20.0, 0.0, 20.0, 35.0)]
    one = max(traced_call(lambda: tt._setting_counts(params, i, s, windows))
              for i, s in enumerate(tomography.standard_settings()))
    assert 2 * one <= ONE_STREAM_SWEEP_PEAK


def test_assemble_orders_by_time_then_channel():
    rng = np.random.default_rng(31)
    ts = rng.integers(-2 ** 59, 2 ** 59, 30000)
    ts[::3] = ts[1::3]                      # ties in time, some in channel too
    ch = rng.integers(0, 8, len(ts)).astype(np.uint16)
    st = tt._assemble([(ch[:100], ts[:100]), (ch[100:], ts[100:])], 80e6, None)
    order = np.lexsort((ch, ts))
    assert np.array_equal(st.records["t"], ts[order])
    assert np.array_equal(st.records["channel"], ch[order])


def test_foreign_record_dtypes_checked():
    # other integer dtypes are copied to RECORD_DTYPE; anything else, or a
    # channel RECORD_DTYPE cannot hold, is refused rather than cut
    wide = np.array([(1, 4), (70000, 9)], dtype=[("channel", "<i4"), ("t", "<i4")])
    st = tt.TimeTagStream(wide[:1], 80e6)
    assert st.records.dtype == tt.RECORD_DTYPE
    assert st.records.tolist() == [(1, 4)]
    fields = "integer 'channel' and 't' fields"
    refused = (
        (np.array([[0, 1], [1, 2]]), fields),                        # plain ndarray
        (np.array([(0,), (1,)], dtype=[("channel", "<u2")]), fields),
        (np.array([(0, 0.4), (1, 1.7)], dtype=[("channel", "<u2"), ("t", "<f8")]),
         fields),
        (np.array([(1.9, 0)], dtype=[("channel", "<f8"), ("t", "<i8")]), fields),
        (wide, "0..65535"),
        (np.array([(-1, 0)], dtype=[("channel", "<i2"), ("t", "<i8")]), "0..65535"),
    )
    for records, message in refused:
        with pytest.raises(ContractError, match=re.escape(message)):
            tt.TimeTagStream(records, 80e6)


def test_stream_file_keeps_a_channel_past_the_first_block(tmp_path, monkeypatch):
    # a channel-9 record past the first 2**18-record block of the walk
    records = np.zeros((1 << 18) + 5, dtype=tt.RECORD_DTYPE)
    records["t"] = np.arange(len(records))
    records["channel"][-1] = 9
    path = tmp_path / "stray.ttg"
    tt.write_stream(tt.TimeTagStream(records, 80e6), path)
    walked = []
    walk = tt._check_ordered
    monkeypatch.setattr(tt, "_check_ordered",
                        lambda rec: walked.append(1) or walk(rec))
    assert np.array_equal(tt.read_stream(path).records, records)
    assert len(walked) == 1                 # read_stream walks the records once


@pytest.mark.parametrize("mode", ("pairs", "hbt", "laser"))
def test_stream_file_roundtrip(tmp_path, mode):
    st = tt.synthesize_stream(tt.StreamParams(pulses=5000, seed=2, mode=mode))
    assert st.t_zero_ps == (None if mode == "laser" else 0)
    path = tmp_path / "stream.ttg"
    # the mode's own reference (None through the header's unset marker),
    # then the header's extremes as numpy integers
    for t_zero in (st.t_zero_ps, np.int64(-2 ** 63 + 1), np.int64(2 ** 63 - 1)):
        stream = dataclasses.replace(st, t_zero_ps=t_zero)
        tt.write_stream(stream, path)
        back = tt.read_stream(path)
        assert np.array_equal(back.records, st.records)
        assert back.rep_rate_hz == st.rep_rate_hz
        assert back.t_zero_ps == stream.t_zero_ps
        assert back.t_zero_ps == (None if t_zero is None else int(t_zero))


# SHA-256 of the stream file written for the seed-7 pairs stream (20000
# pulses) whole, and for every third record under a negative reference.
STREAM_FILE_DIGESTS = (
    "1e8611f6dd8ab05df90dfcfaa2276eeee72c1ae23a10442c114ba40c9cfab642",
    "da7459c46017ef3132dd6ec7635bbbeae74dfefccb6c136e74818039b0bbd632",
)


def test_stream_file_bytes_are_pinned(tmp_path):
    st = tt.synthesize_stream(tt.StreamParams(pulses=20000, seed=7))
    strided = tt.TimeTagStream(st.records[::3], st.rep_rate_hz, t_zero_ps=-1234)
    for stream, digest in zip((st, strided), STREAM_FILE_DIGESTS):
        path = tmp_path / "stream.ttg"
        tt.write_stream(stream, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_stream_file_without_records(tmp_path):
    empty = tt.TimeTagStream(np.empty(0, dtype=tt.RECORD_DTYPE), 80e6,
                             t_zero_ps=1234)
    path = tmp_path / "empty.ttg"
    tt.write_stream(empty, path)
    assert path.stat().st_size == 32
    back = tt.read_stream(path)
    assert len(back) == 0
    assert back.records.dtype == tt.RECORD_DTYPE
    assert back.rep_rate_hz == pytest.approx(80e6)
    assert back.t_zero_ps == 1234


def test_stream_file_rewritten_onto_the_file_it_was_read_from(tmp_path):
    # the records read are a read-only map of the file; writing them back
    # onto it must not truncate the mapping they are written from.  A
    # failed write is kept as text, since touching (or printing) records
    # whose file was cut short under them kills the process with SIGBUS.
    st = tt.synthesize_stream(tt.StreamParams(pulses=20000, seed=7))
    path = tmp_path / "stream.ttg"
    tt.write_stream(st, path)
    back = tt.read_stream(path)
    assert not back.records.flags.writeable
    failure = None
    try:
        tt.write_stream(back, path)
    except OSError as exc:
        failure = str(exc)
    assert failure is None
    again = tt.read_stream(path)
    assert np.array_equal(again.records, st.records)
    assert np.array_equal(back.records, st.records)
    assert [p.name for p in tmp_path.iterdir()] == ["stream.ttg"]


def test_stream_file_kept_whole_when_a_write_fails(tmp_path, monkeypatch):
    st = tt.synthesize_stream(tt.StreamParams(pulses=2000, seed=7))
    path = tmp_path / "stream.ttg"
    tt.write_stream(st, path)
    raw = path.read_bytes()
    # a rate the header cannot carry is refused before anything is made
    with pytest.raises(ContractError, match="^rep_rate_hz must round to 1 "):
        tt.write_stream(dataclasses.replace(st, rep_rate_hz=1e-4), path)
    assert path.read_bytes() == raw
    assert [p.name for p in tmp_path.iterdir()] == ["stream.ttg"]

    # a write that fails after the sibling is made removes the sibling
    def refused(src, dst):
        raise OSError("rename refused")
    monkeypatch.setattr(tt.os, "replace", refused)
    with pytest.raises(OSError, match="rename refused"):
        tt.write_stream(tt.TimeTagStream(st.records[:10], st.rep_rate_hz), path)
    assert path.read_bytes() == raw
    assert [p.name for p in tmp_path.iterdir()] == ["stream.ttg"]


def test_stream_file_error_handling(tmp_path):
    st = tt.synthesize_stream(tt.StreamParams(pulses=1000, seed=2))
    path = tmp_path / "stream.ttg"
    tt.write_stream(st, path)
    raw = path.read_bytes()
    # each header defect names the file, as the two record defects below do
    for name, data, message in (
            ("bad.ttg", b"XXXX" + raw[4:], "bad stream magic b'XXXX'"),
            ("vers.ttg", raw[:4] + b"\x63" + raw[5:], "unsupported stream version 99"),
            ("trunc.ttg", raw[: len(raw) - 3],
             f"body of {len(raw) - 35} bytes is not a whole number of records"),
            ("short.ttg", raw[:6], "too short for header")):
        defect = tmp_path / name
        defect.write_bytes(data)
        with pytest.raises(ConfigError,
                           match=f"^stream file {re.escape(str(defect))}: {re.escape(message)}$"):
            tt.read_stream(defect)


@pytest.mark.parametrize("rep_rate_hz", (1e-4, 2e16))
def test_stream_file_refuses_a_rate_its_header_cannot_carry(tmp_path, rep_rate_hz):
    # 1e-4 Hz rounds to 0 mHz, which read_stream refuses; 2e16 Hz is
    # 2e19 mHz, past the header's 64 bits
    st = tt.TimeTagStream(np.empty(0, dtype=tt.RECORD_DTYPE), rep_rate_hz)
    path = tmp_path / "rate.ttg"
    with pytest.raises(ContractError, match="^rep_rate_hz must round to 1 "):
        tt.write_stream(st, path)
    assert not path.exists()


def test_stream_file_carries_the_rate_to_the_mhz(tmp_path):
    path = tmp_path / "rate.ttg"
    tt.write_stream(tt.TimeTagStream(np.empty(0, dtype=tt.RECORD_DTYPE), 1e9 / 3), path)
    assert tt.read_stream(path).rep_rate_hz == 333333333.333


@pytest.mark.parametrize("defect, message", (
    ("zero rep rate", "rep_rate_hz must be positive"),
    ("decreasing times", "timestamps must be nondecreasing")))
def test_stream_file_defects_are_config_errors(tmp_path, defect, message):
    # a header rep rate of 0, or records that run backwards in time
    st = tt.synthesize_stream(tt.StreamParams(pulses=1000, seed=2))
    rep_mhz = 0 if defect == "zero rep rate" else int(round(st.rep_rate_hz * 1000.0))
    records = st.records[::-1] if defect == "decreasing times" else st.records
    path = tmp_path / "defect.ttg"
    path.write_bytes(tt._HEADER.pack(tt.STREAM_MAGIC, tt.STREAM_VERSION, 0, rep_mhz,
                                     st.t_zero_ps) + records.tobytes())
    with pytest.raises(ConfigError, match=f"^stream file {re.escape(str(path))}: {message}$"):
        tt.read_stream(path)


def test_histogram_needs_enough_side_peaks():
    st = tt.synthesize_stream(tt.StreamParams(pulses=5000, seed=2))
    hist = tt.coincidence_histogram(st, 0, 1, bin_ps=50,
                                    span_ps=2 * int(st.period_ps))
    with pytest.raises(ContractError):
        tt.g2_from_histogram(hist, st.period_ps)


def test_coincidence_histogram_matches_all_pairs_reference():
    rng = np.random.default_rng(11)
    bin_ps, span_ps = 20, 1000
    n_a = 2 * (1 << 16) + 1234           # three blocks, the last one partial
    ta = np.sort(rng.integers(0, 40 * n_a, size=n_a))
    tb = np.sort(rng.integers(0, 40 * n_a, size=n_a))
    # Pairs exactly on the first bin's lower edge (kept) and on the upper
    # end of the last bin (kept one ps inside, dropped on the edge).
    edges = np.concatenate([ta[::5000] - span_ps, ta[::7000] + span_ps - 1,
                            ta[::9000] + span_ps])
    tb = np.sort(np.concatenate([tb, edges]))
    t = np.concatenate([ta, tb])
    order = np.argsort(t, kind="stable")
    records = np.empty(len(t), dtype=tt.RECORD_DTYPE)
    records["t"] = t[order]
    records["channel"] = np.repeat([0, 1], [len(ta), len(tb)])[order]
    st = tt.TimeTagStream(records, rep_rate_hz=80e6)
    for ch_a, ch_b in ((0, 1), (1, 0), (0, 0), (0, 2), (2, 1)):
        hist = tt.coincidence_histogram(st, ch_a, ch_b, bin_ps, span_ps)
        starts, ref = all_pairs_histogram(st, ch_a, ch_b, bin_ps, span_ps)
        assert np.array_equal(hist.bin_start_ps, starts)
        assert hist.counts.dtype == np.int64
        assert np.array_equal(hist.counts, ref)
        assert hist.empty == (ref.sum() == 0)
    full = tt.coincidence_histogram(st, 0, 1, bin_ps, span_ps).counts
    assert full[0] >= len(ta[::5000]) and full[-1] >= len(ta[::7000])
    assert tt.coincidence_histogram(st, 0, 2, bin_ps, span_ps).empty
    # a channel without records folds to an empty period histogram
    assert tt.period_histogram(st, 2, 100).empty
    assert not tt.period_histogram(st, 0, 100).empty


def test_coincidence_histogram_carries_state_across_record_blocks(monkeypatch):
    monkeypatch.setattr(tt, "_RECORD_BLOCK", 5)
    monkeypatch.setattr(tt, "_HISTOGRAM_BLOCK", 3)
    bin_ps, span_ps = 10, 60
    rng = np.random.default_rng(23)

    def stream(ch, t):
        records = np.empty(len(t), dtype=tt.RECORD_DTYPE)
        records["channel"], records["t"] = ch, t
        return tt.TimeTagStream(records, 80e6)

    cases = [stream([], []),
             # ties that straddle the edges of five-record blocks
             stream([0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1],
                    [0, 0, 0, 0, 7, 7, 7, 7, 7, 7, 67, 67, 130]),
             # an a-record tied with the block's last record reaches back
             # exactly one span, onto the first bin's lower edge
             stream([1, 1, 1, 1, 1, 0], [0, 60, 60, 60, 60, 60]),
             # every a-record before every b-record
             stream([0] * 12 + [1] * 12, np.arange(24) * 9)]
    for _ in range(150):
        n = int(rng.integers(1, 60))
        t = np.sort(rng.integers(-300, int(rng.integers(1, 600)), n))
        cases.append(stream(rng.integers(0, 3, n), t))
    for st in cases:
        # channel 3 has no records
        for ch_a, ch_b in ((0, 1), (1, 0), (0, 0), (0, 3), (3, 1)):
            hist = tt.coincidence_histogram(st, ch_a, ch_b, bin_ps, span_ps)
            starts, ref = all_pairs_histogram(st, ch_a, ch_b, bin_ps, span_ps)
            assert np.array_equal(hist.bin_start_ps, starts)
            assert np.array_equal(hist.counts, ref)
    assert tt.coincidence_histogram(cases[3], 0, 1, bin_ps, span_ps).counts.any()
    # a step back across a block edge is still caught, and one in a later
    # block after a record on a channel no analysis reads
    with pytest.raises(ContractError, match="nondecreasing"):
        stream([0] * 6, [0, 1, 2, 3, 4, 3])
    with pytest.raises(ContractError, match="nondecreasing"):
        stream([9] + [0] * 9, [0, 1, 2, 3, 4, 5, 6, 7, 9, 8])


def traced_peak(analyse, n, rng, gap_ps=0):
    """Traced allocation peak of analyse(stream) on an n-record stream,
    whose second half starts gap_ps later."""
    records = np.empty(n, dtype=tt.RECORD_DTYPE)
    records["t"] = np.cumsum(rng.integers(0, 2000, n))
    records["t"][n // 2:] += gap_ps
    records["channel"] = rng.integers(0, 2, n)
    st = tt.TimeTagStream(records, 80e6)
    return traced_call(lambda: analyse(st))


def test_coincidence_histogram_memory_does_not_grow_with_stream():
    rng = np.random.default_rng(17)

    def analyse(st):
        tt.coincidence_histogram(st, 0, 1, 20, 2000)

    small, large = traced_peak(analyse, 1 << 20, rng), traced_peak(analyse, 1 << 22, rng)
    assert abs(large - small) < 1 << 20
    assert large < (1 << 22) // 2 * 8          # one whole-channel copy


def test_coincidence_histogram_cell_table_never_spans_a_gap():
    rng = np.random.default_rng(29)

    def analyse(st):
        tt.coincidence_histogram(st, 0, 1, 20, 2000)

    # Two dense clusters 1e15 ps apart: a cell table across the gap would
    # need some 1e13 cells.
    assert traced_peak(analyse, 1 << 20, rng, gap_ps=10 ** 15) < (1 << 22) // 2 * 8


@pytest.mark.parametrize("block", [None, 3], ids=["default-block", "block-3"])
def test_coincidence_histogram_candidate_paths_are_exact(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(tt, "_HISTOGRAM_BLOCK", block)
    rng = np.random.default_rng(31)

    def stream(t):
        records = np.empty(len(t), dtype=tt.RECORD_DTYPE)
        records["t"] = np.sort(t)
        records["channel"] = rng.integers(0, 2, len(t))
        return tt.TimeTagStream(records, 80e6)

    def dense(n, gap, offset=0):
        return np.cumsum(rng.integers(0, 2 * gap, n)) + offset

    for bin_ps, span_ps in ((10, 600), (100, 600), (20, 1000)):
        # bin_ps 10 does not divide width / 16 = 75 ps; 100 exceeds it
        width = 2 * span_ps
        bursts = np.repeat(np.arange(50) * span_ps, 40)
        cases = [
            # dense clusters 1e15 ps apart, the first at negative times
            # and holding more a-times than one pass
            stream(np.concatenate([
                dense(2 * tt._HISTOGRAM_BLOCK + 500, 20, -10 ** 15),
                dense(500, 20)])),
            # sparse against the window: binary search on every pass
            stream(dense(600, 500 * width)),
            # a few records per width: the cell table
            stream(dense(1500, width // 4)),
            # bursts on one time, span_ps apart: on both window edges,
            # and one ps either side of them
            stream(bursts + rng.integers(-1, 2, len(bursts))),
            stream(bursts),
        ]
        for st in cases:
            # channel 2 has no records
            for ch_a, ch_b in ((0, 1), (1, 0), (0, 0), (0, 2), (2, 1)):
                hist = tt.coincidence_histogram(st, ch_a, ch_b, bin_ps, span_ps)
                starts, ref = all_pairs_histogram(st, ch_a, ch_b, bin_ps, span_ps)
                assert np.array_equal(hist.bin_start_ps, starts)
                assert np.array_equal(hist.counts, ref)
                assert hist.empty == (ref.sum() == 0)


@pytest.mark.parametrize("block", [None, 3], ids=["default-block", "block-3"])
def test_coincidence_histogram_is_exact_on_uneven_passes(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(tt, "_HISTOGRAM_BLOCK", block)
    rng = np.random.default_rng(37)
    bin_ps, span_ps = 20, 1000
    width = 2 * span_ps

    def stream(ta, tb):
        t = np.concatenate([ta, tb])
        order = np.argsort(t, kind="stable")
        records = np.empty(len(t), dtype=tt.RECORD_DTYPE)
        records["t"] = t[order]
        records["channel"] = np.repeat([0, 1], [len(ta), len(tb)])[order]
        return tt.TimeTagStream(records, 80e6)

    sparse = (np.arange(-200, 200) * 3 + 1) * width
    spaced = np.arange(20000) * 10 * width
    cases = [
        # a burst: one a-time with more than 2**15 candidates, among
        # a-times with at most a few
        stream(np.append(sparse + 7, 0),
               np.concatenate([sparse, rng.integers(-span_ps, span_ps, 2 ** 15 + 1000)])),
        # whole passes whose a-times have no candidate, the b-times lying
        # between their windows, after a pass that has candidates
        stream(np.concatenate([np.arange(-300, 0) * 50, spaced]),
               np.concatenate([np.arange(-300, 0) * 50 + 5, spaced + 5 * width])),
        # a pass whose a-times straddle a gap far wider than the window
        stream(np.concatenate([np.arange(1000) * 97, 10 ** 13 + np.arange(1000) * 89]),
               np.concatenate([np.arange(1000) * 101, 10 ** 13 + np.arange(1000) * 83])),
    ]
    assert 2 ** 15 < all_pairs_histogram(cases[0], 0, 1, bin_ps, span_ps)[1].sum()
    for st in cases:
        for ch_a, ch_b in ((0, 1), (1, 0), (0, 0)):
            hist = tt.coincidence_histogram(st, ch_a, ch_b, bin_ps, span_ps)
            starts, ref = all_pairs_histogram(st, ch_a, ch_b, bin_ps, span_ps)
            assert np.array_equal(hist.bin_start_ps, starts)
            assert np.array_equal(hist.counts, ref)


@pytest.mark.parametrize("copy_block", [3, 10], ids=["partial-slices", "one-slice"])
def test_coincidence_histogram_copies_each_block_in_slices(monkeypatch, copy_block):
    # seven-record blocks read three records at a time (the last slice
    # short), or whole
    monkeypatch.setattr(tt, "_RECORD_BLOCK", 7)
    monkeypatch.setattr(tt, "_COPY_BLOCK", copy_block)
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(1, 80))
        records = np.empty(n, dtype=tt.RECORD_DTYPE)
        records["t"] = np.sort(rng.integers(-300, 600, n))
        records["channel"] = rng.integers(0, 3, n)
        st = tt.TimeTagStream(records, 80e6)
        for ch_a, ch_b in ((0, 1), (1, 0), (0, 0)):
            hist = tt.coincidence_histogram(st, ch_a, ch_b, 10, 60)
            assert np.array_equal(hist.counts, all_pairs_histogram(st, ch_a, ch_b, 10, 60)[1])


def test_period_histogram_sums_blocks_exactly(monkeypatch):
    # seven-record blocks, each picked three records at a time
    monkeypatch.setattr(tt, "_RECORD_BLOCK", 7)
    monkeypatch.setattr(tt, "_COPY_BLOCK", 3)
    rng = np.random.default_rng(19)
    n = 200
    records = np.empty(n, dtype=tt.RECORD_DTYPE)
    records["t"] = np.sort(rng.integers(-50000, 50000, n))
    records["channel"] = rng.integers(0, 2, n)
    st = tt.TimeTagStream(records, 80e6)
    for channel in (None, 0, 1, 2):
        for bin_ps in (1, 20, 5000):
            hist = tt.period_histogram(st, channel, bin_ps)
            t = st.records["t"] if channel is None else picked_times(st, channel)
            nbins = int(np.ceil(st.period_ps / bin_ps))
            ref, _ = np.histogram(np.mod(t.astype(np.float64), st.period_ps),
                                  bins=np.arange(nbins + 1) * bin_ps)
            assert np.array_equal(hist.bin_start_ps, np.arange(nbins) * bin_ps)
            assert hist.counts.dtype == np.int64
            assert np.array_equal(hist.counts, ref)
            assert hist.empty == (len(t) == 0)
        if channel is not None:
            assert np.array_equal(st.channel_times(channel), t)
            assert st.channel_times(channel).dtype == np.int64


def test_period_histogram_memory_does_not_grow_with_stream():
    rng = np.random.default_rng(17)

    def analyse(st):
        tt.period_histogram(st, None, 1)
        tt.period_histogram(st, 0, 1)

    small, large = traced_peak(analyse, 1 << 20, rng), traced_peak(analyse, 1 << 22, rng)
    assert abs(large - small) < 1 << 20
    assert large < (1 << 22) // 2 * 8          # one whole-channel copy


def test_coincidence_histogram_rejects_span_shorter_than_one_bin():
    st = tt.synthesize_stream(tt.StreamParams(pulses=1000, seed=2, mode="hbt"))
    with pytest.raises(ContractError, match="shorter than one bin"):
        tt.coincidence_histogram(st, 0, 1, bin_ps=20, span_ps=19)
    assert len(tt.coincidence_histogram(st, 0, 1, 20, 20).counts) == 2


def test_stream_params_validation():
    # poissonian emission is an hbt-mode option only
    for kwargs in (dict(mode="weird"), dict(eta=1.5), dict(pulses=0),
                   dict(g2=-0.1), dict(emission="laser_like"),
                   dict(indistinguishability=1.2),
                   dict(mode="pairs", emission="poissonian"),
                   dict(mode="laser", emission="poissonian")):
        with pytest.raises(ContractError):
            tt.StreamParams(**kwargs)
