"""One parameter check: every numeric field of every parameter record, and
every numeric argument of the checked functions, refuses what is not a
finite real number in its interval."""

import dataclasses
import math
import re

import numpy as np
import pytest

from qdpair import fock, photostat, swap, timetag, tomography, twoqubit, wavepacket
from qdpair.errors import ConfigError, ContractError, ModelDomainError, check_ranges

# A valid instance of each record, with every optional number set, and the
# error type the record raises.
RECORDS = (
    (timetag.StreamParams(noise_window_ps=4.0), ContractError),
    (timetag.TimeTagStream(np.empty(0, dtype=timetag.RECORD_DTYPE), 80e6,
                           t_zero_ps=0), ContractError),
    (timetag.FilterWindow(-10.0, 10.0), ContractError),
    (timetag.HomAnalysis(0.9, 0.01, 0.5, 0.5, 0.01), ContractError),
    (swap.SwapScenario(source_kind="spdc", spdc_p1=0.05, mux_n=10), ConfigError),
    (wavepacket.WavepacketParams(), ContractError),
    (photostat.Efficiency(0.5, 0.01), ContractError),
    (tomography.MeasurementSetting(22.5, 45.0, -22.5, 45.0), ContractError),
    (tomography.CountRecord(tomography.MeasurementSetting.from_names("H", "V"), 10),
     ContractError),
)

NUMERIC = {"float": False, "Optional[float]": False, "int": True}


def numeric_fields(record) -> dict:
    """Each numeric field of a record, by its annotation: is it an integer."""
    return {f.name: NUMERIC[f.type] for f in dataclasses.fields(record)
            if f.type in NUMERIC}


CASES = [pytest.param(record, error, name, bad,
                      id=f"{type(record).__name__}.{name}={bad!r}")
         for record, error in RECORDS
         for name, integer in numeric_fields(record).items()
         for bad in (math.nan, math.inf, -math.inf) + ((1.5,) if integer else ())]


@pytest.mark.parametrize("record, error, name, bad", CASES)
def test_every_numeric_field_refuses_non_finite_and_non_integral(record, error,
                                                                 name, bad):
    with pytest.raises(error, match=f"^{name} must be ") as exc:
        dataclasses.replace(record, **{name: bad})
    assert exc.type is error


@pytest.mark.parametrize("record", [r for r, _ in RECORDS],
                         ids=lambda r: type(r).__name__)
def test_each_record_states_an_interval_for_every_numeric_field(record):
    assert set(record.INTERVALS) == set(numeric_fields(record))
    for name, integer in numeric_fields(record).items():
        assert record.INTERVALS[name].startswith("int ") == integer


def test_valid_records_and_optional_fields_construct():
    for record, _ in RECORDS:
        assert dataclasses.replace(record) == record
    assert timetag.StreamParams(pulse_width_ps=3.0).noise_window_ps == 3.0
    assert swap.SwapScenario(source_kind="spdc").spdc_p1 is None
    assert timetag.TimeTagStream(np.empty(0, dtype=timetag.RECORD_DTYPE), 80e6,
                                 t_zero_ps=np.int64(-7)).t_zero_ps == -7


def _stream():
    return timetag.synthesize_stream(timetag.StreamParams(pulses=2000, seed=3,
                                                          mode="hbt"))


@pytest.mark.parametrize("call, name", (
    (lambda bad: photostat.forward_rate(photostat.EfficiencyChain.measured(), bad),
     "rep_rate_hz"),
    (lambda bad: photostat.back_propagate_rate(
        bad, photostat.EfficiencyChain.measured()), "measured_pair_rate_hz"),
    (lambda bad: timetag.histogram_bins(bad, 1000), "bin_ps"),
    (lambda bad: timetag.histogram_bins(20, bad), "span_ps"),
    (lambda bad: timetag.period_histogram(_stream(), 0, bad), "bin_ps"),
    (lambda bad: timetag.g2_from_histogram(
        timetag.coincidence_histogram(_stream(), 0, 1, 20, 200000), bad),
     "rep_period_ps"),
    (lambda bad: wavepacket.profile_dimensionless(0.0, bad), "k"),
), ids=("forward_rate", "back_propagate_rate", "histogram_bins.bin_ps",
        "histogram_bins.span_ps", "period_histogram", "g2_from_histogram",
        "profile_dimensionless"))
@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_checked_functions_refuse_non_finite_arguments(call, name, bad):
    with pytest.raises(ContractError, match=f"^{name} must be "):
        call(bad)


# (call, error, the name the message starts with): arguments checked by
# check_ranges that a hand-written check used to let through or turn into a
# bare TypeError or ValueError.
ARGUMENTS = {
    "cross_pol_normalisation.area_copol_sidepeak": (
        lambda: timetag.cross_pol_normalisation(math.nan, 1.0), ContractError,
        "area_copol_sidepeak"),
    "cross_pol_normalisation.area_crosspol_sidepeak": (
        lambda: timetag.cross_pol_normalisation(1.0, math.nan), ContractError,
        "area_crosspol_sidepeak"),
    "detection_outcomes.probs=nan": (
        lambda: photostat.detection_outcomes((math.nan, 0.5, 0.5), 0.5), ContractError,
        re.escape("probs[0]")),
    "detection_outcomes.probs<0": (
        lambda: photostat.detection_outcomes((0.5, 0.6, -0.1), 0.5), ContractError,
        re.escape("probs[2]")),
    "MeasurementSetting.hwp1_deg=True": (
        lambda: tomography.MeasurementSetting(True, 0.0, 0.0, 0.0), ContractError,
        "hwp1_deg"),
    "MeasurementSetting.hwp1_deg='x'": (
        lambda: tomography.MeasurementSetting("x", 0.0, 0.0, 0.0), ContractError,
        "hwp1_deg"),
    "FockState.nmax=nan": (
        lambda: fock.FockState({(1, 0): 1.0}, nmax=math.nan, nmodes=2), ContractError,
        "nmax"),
    "FockState.nmax=2.5": (
        lambda: fock.FockState({(1, 0): 1.0}, nmax=2.5, nmodes=2), ContractError, "nmax"),
    "spdc_pair_distribution.max_pairs=nan": (
        lambda: photostat.spdc_pair_distribution(0.1, max_pairs=math.nan), ContractError,
        "max_pairs"),
    "spdc_pair_distribution.max_pairs=2.5": (
        lambda: photostat.spdc_pair_distribution(0.1, max_pairs=2.5), ContractError,
        "max_pairs"),
    "check_mux_sizes=2.5": (lambda: swap.check_mux_sizes((2.5,)), ConfigError,
                            re.escape("mux_sizes[0]")),
    "check_mux_sizes=nan": (lambda: swap.check_mux_sizes((10, math.nan)), ConfigError,
                            re.escape("mux_sizes[1]")),
    "sweep_loss.mux_sizes": (
        lambda: swap.sweep_loss(swap.SwapScenario.qd_headline(),
                                swap.SwapScenario.spdc_reference(), loss_grid_db=(0.0,),
                                mux_sizes=(10.9,)), ConfigError, re.escape("mux_sizes[0]")),
    "optimise_pump.fidelity_floor": (
        lambda: swap.optimise_pump(swap.SwapScenario.spdc_reference(), math.nan),
        ConfigError, "fidelity_floor"),
    "sweep_loss.fidelity_floor": (
        lambda: swap.sweep_loss(swap.SwapScenario.qd_headline(),
                                swap.SwapScenario.spdc_reference(), loss_grid_db=(0.0,),
                                fidelity_floor=1.5), ConfigError, "fidelity_floor"),
    "fidelity_from_indistinguishability": (
        lambda: wavepacket.fidelity_from_indistinguishability(1.0 + 5e-13), ContractError,
        "indistinguishability"),
    "temporal_overlap.tau_ps": (
        lambda: wavepacket.temporal_overlap(math.nan, wavepacket.WavepacketParams()),
        ContractError, "tau_ps"),
    # the stream-file header's unset marker, and one past its largest value
    "TimeTagStream.t_zero_ps=-2**63": (
        lambda: timetag.TimeTagStream(np.empty(0, dtype=timetag.RECORD_DTYPE), 80e6,
                                      t_zero_ps=-2 ** 63), ContractError, "t_zero_ps"),
    "TimeTagStream.t_zero_ps=2**63": (
        lambda: timetag.TimeTagStream(np.empty(0, dtype=timetag.RECORD_DTYPE), 80e6,
                                      t_zero_ps=2 ** 63), ContractError, "t_zero_ps"),
}


@pytest.mark.parametrize("case", ARGUMENTS)
def test_checked_arguments_refuse_what_they_used_to_let_through(case):
    call, error, name = ARGUMENTS[case]
    with pytest.raises(error, match=f"^{name} must be ") as exc:
        call()
    assert exc.type is error


@pytest.mark.parametrize("value, interval, message", (
    (0.0, "(0, inf)", "x must be positive"),
    (-1.0, "[0, inf)", "x must be non-negative"),
    (0.5, "[0, 0.5)", "x must be in [0, 0.5)"),
    (0.0, "(0, 1]", "x must be in (0, 1]"),
    (math.nan, "(-inf, inf)", "x must be finite"),
    (-math.inf, "[0, 1]", "x must be finite"),
    (None, "[0, 1]", "x must be a number"),
    (True, "[0, 1]", "x must be a number"),
    ("0.5", "[0, 1]", "x must be a number"),
    (2.0, "int (0, inf)", "x must be an integer"),
    (np.int64(0), "int (0, inf)", "x must be positive"),
    (-1, "int [0, inf)", "x must be non-negative"),
    (False, "int (-inf, inf)", "x must be an integer"),
    (1, "int [2, 5] or None", "x must be in [2, 5]"),
    (1.5, "(0, 1) or None", "x must be in (0, 1)"),
    ("x", "(0, 1) or None", "x must be a number"),
))
def test_check_ranges_names_the_requirement(value, interval, message):
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        check_ranges(ContractError, {"x": interval}, x=value)


def test_check_ranges_lets_valid_values_through_and_names_the_first_failure():
    check_ranges(ConfigError, {"a": "[0, 1]", "b": "int (0, inf)", "c": "(0, 1) or None",
                               "d": "(-inf, inf)"},
                 a=1, b=np.int16(3), c=None, d=np.float32(-2.5))
    with pytest.raises(ConfigError, match="^b must be"):
        check_ranges(ConfigError, {"a": "[0, 1]", "b": "[0, 1]", "c": "[0, 1]"},
                     a=0.5, b=2.0, c=math.nan)
    check_ranges(ConfigError, {"seed": "int [0, inf)"}, seed=10 ** 400)


QD = swap.SwapScenario.qd_headline()
SPDC = swap.SwapScenario.spdc_reference(spdc_p1=0.05)
# 500 ps bins over eight 12.5 ns periods either side, counts in the central peak only.
STARTS = np.arange(-100_000, 100_000, 500)
CENTRAL_ONLY = timetag.Histogram(STARTS, (abs(STARTS + 250) < 2000).astype(np.int64), 500)

# (call, error, start of the message) of each refusal with no other test.
REFUSALS = {
    "heralded_state.rep_rate_hz": (
        lambda: swap.heralded_state(QD, dataclasses.replace(SPDC, rep_rate_hz=80e6)),
        ContractError, "both sources must share the attempt rate"),
    "heralded_state.pnr": (
        lambda: swap.heralded_state(QD, dataclasses.replace(SPDC, pnr=False)),
        ContractError, "the midpoint station has one detector type"),
    # eta_inner folds eta_det in before the midpoint beamsplitter, which is
    # exact only when both sources see the same detectors
    "heralded_state.eta_det": (
        lambda: swap.heralded_state(QD, dataclasses.replace(SPDC, eta_det=0.8)),
        ContractError, "both inner photons reach the same midpoint detectors"),
    "swap_once.eta_s=0": (
        lambda: swap.swap_once(dataclasses.replace(QD, eta_s=0.0),
                               dataclasses.replace(QD, eta_s=0.0)),
        ModelDomainError, "no usable heralds"),
    "sweep_loss.loss_grid_db=()": (
        lambda: swap.sweep_loss(QD, swap.SwapScenario.spdc_reference(), loss_grid_db=()),
        ContractError, "loss grid must be nonempty"),
    "g2_from_histogram.empty side peaks": (
        lambda: timetag.g2_from_histogram(CENTRAL_ONLY, 12_500.0),
        ModelDomainError, "side peaks are empty"),
    "reference_from_pulse_histogram.empty stream": (
        lambda: timetag.reference_from_pulse_histogram(
            timetag.TimeTagStream(np.empty(0, dtype=timetag.RECORD_DTYPE), 80e6)),
        ContractError, "cannot derive a reference from an empty stream"),
    "filter_fidelity_sweep.mode=hbt": (
        lambda: timetag.filter_fidelity_sweep(
            params=dataclasses.replace(timetag.SWEEP_STREAM, mode="hbt")),
        ContractError, "the filter pipeline needs a pairs-mode stream"),
    "TwoQubitDensity.shape": (
        lambda: twoqubit.TwoQubitDensity(np.eye(2) / 2),
        ContractError, re.escape("density matrix must be 4x4, got (2, 2)")),
    "TwoQubitDensity.from_matrix.renormalize": (
        lambda: twoqubit.TwoQubitDensity.from_matrix(-np.eye(4), renormalize=True),
        ContractError, "cannot renormalize matrix with non-positive trace"),
    "TwoQubitDensity.pure": (
        lambda: twoqubit.TwoQubitDensity.pure(np.zeros(4)),
        ContractError, "cannot build a state from the zero vector"),
    "detection_outcomes.probs sum": (
        lambda: photostat.detection_outcomes((0.5, 0.4, 0.05), 0.5), ContractError,
        "probs sum to 0.95"),
    # epsilon = 1 is a first-order visibility of 0, which the correction divides by
    "hom_corrected_visibility.epsilon=1": (
        lambda: timetag.hom_corrected_visibility(
            timetag.HomAnalysis(0.9, 1.0, 0.5, 0.5, 0.01)),
        ModelDomainError, "epsilon must be below 1"),
    "MeasurementSetting.from_names": (
        lambda: tomography.MeasurementSetting.from_names("H", "Q"),
        ContractError, "unknown setting name 'Q'"),
    "simulate_counts.settings": (
        lambda: tomography.simulate_counts(twoqubit.werner(0.5), [], 1000, seed=1),
        ContractError, "settings must be nonempty"),
}
# Four waveplate angles are checked before any of them is used, whether a
# setting is built from them or a pairs stream's analysis gives them.
for _angles, _text in (((True, 0.0, 0.0, 0.0), "hwp1_deg must be a number"),
                       ((0.0, "x", 0.0, 0.0), "qwp1_deg must be a number"),
                       ((0.0, 0.0, None, 0.0), "hwp2_deg must be a number"),
                       ((0.0, 0.0, 0.0, math.nan), "qwp2_deg must be finite")):
    REFUSALS[f"MeasurementSetting.from_angles{_angles}"] = (
        lambda a=_angles: tomography.MeasurementSetting.from_angles(*a),
        ContractError, _text)
    REFUSALS[f"StreamParams.analysis={_angles}"] = (
        lambda a=_angles: timetag.StreamParams(analysis=a), ContractError, _text)


@pytest.mark.parametrize("case", REFUSALS)
def test_each_refusal_raises_its_own_type_and_text(case):
    call, error, text = REFUSALS[case]
    with pytest.raises(error, match=f"^{text}") as exc:
        call()
    assert exc.type is error
