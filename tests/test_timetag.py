"""Tests for time-tag synthesis, histogramming, and stream analysis."""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from qdpair import timetag as tt
from qdpair.errors import ConfigError, ContractError, ModelDomainError


def test_synthesis_deterministic():
    p = tt.StreamParams(pulses=20000, seed=7)
    a = tt.synthesize_stream(p)
    b = tt.synthesize_stream(p)
    assert np.array_equal(a.records, b.records)
    c = tt.synthesize_stream(tt.StreamParams(pulses=20000, seed=8))
    assert not np.array_equal(a.records, c.records)


def test_records_sorted_and_channel_ranges():
    st = tt.synthesize_stream(tt.StreamParams(pulses=20000, seed=7))
    t = st.records["t"]
    assert np.all(np.diff(t) >= 0)
    assert set(np.unique(st.records["channel"])) <= set(st.channels)


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


def test_stream_file_roundtrip(tmp_path):
    st = tt.synthesize_stream(tt.StreamParams(pulses=5000, seed=2))
    path = tmp_path / "stream.ttg"
    tt.write_stream(st, path)
    back = tt.read_stream(path)
    assert np.array_equal(st.records, back.records)
    assert back.rep_rate_hz == pytest.approx(st.rep_rate_hz)
    assert back.t_zero_ps == st.t_zero_ps


def test_stream_file_error_handling(tmp_path):
    st = tt.synthesize_stream(tt.StreamParams(pulses=1000, seed=2))
    path = tmp_path / "stream.ttg"
    tt.write_stream(st, path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.ttg"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ConfigError):
        tt.read_stream(bad)
    vers = tmp_path / "vers.ttg"
    vers.write_bytes(raw[:4] + b"\x63" + raw[5:])
    with pytest.raises(ConfigError):
        tt.read_stream(vers)
    trunc = tmp_path / "trunc.ttg"
    trunc.write_bytes(raw[: len(raw) - 3])
    with pytest.raises(ConfigError):
        tt.read_stream(trunc)
    short = tmp_path / "short.ttg"
    short.write_bytes(raw[:6])
    with pytest.raises(ConfigError):
        tt.read_stream(short)


def test_histogram_needs_enough_side_peaks():
    st = tt.synthesize_stream(tt.StreamParams(pulses=5000, seed=2))
    hist = tt.coincidence_histogram(st, 0, 1, bin_ps=50,
                                    span_ps=2 * int(st.period_ps))
    with pytest.raises(ContractError):
        tt.g2_from_histogram(hist, st.period_ps)


def all_pairs_histogram(stream, ch_a, ch_b, bin_ps, span_ps):
    """Reference: every (a, b) pair in the span at once, then np.histogram."""
    ta = stream.channel_times(ch_a)
    tb = stream.channel_times(ch_b)
    nbins = 2 * (span_ps // bin_ps)
    starts = (np.arange(nbins) - nbins // 2) * bin_ps
    if len(ta) == 0 or len(tb) == 0:
        return starts, np.zeros(nbins, dtype=np.int64)
    lo = np.searchsorted(tb, ta + starts[0], side="left")
    hi = np.searchsorted(tb, ta + starts[0] + nbins * bin_ps, side="left")
    m = hi - lo
    flat = np.repeat(lo, m) + (np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m))
    diffs = tb[flat] - np.repeat(ta, m)
    counts, _ = np.histogram(diffs, bins=np.append(starts, starts[-1] + bin_ps))
    return starts, counts.astype(np.int64)


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


def test_stream_params_validation():
    for kwargs in (dict(mode="weird"), dict(eta=1.5), dict(pulses=0),
                   dict(g2=-0.1), dict(emission="laser_like"),
                   dict(indistinguishability=1.2)):
        with pytest.raises(ContractError):
            tt.StreamParams(**kwargs)
