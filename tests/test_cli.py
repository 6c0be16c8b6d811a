"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import qdpair
from qdpair import cli, photostat, swap, timetag, tomography, twoqubit
from qdpair.errors import NumericalError


def run_cli(*argv):
    return cli.main(list(argv))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_fig3_outputs_are_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli("fig3", "--out", str(a)) == 0
    assert run_cli("fig3", "--out", str(b)) == 0
    assert (a / "fig3.csv").read_bytes() == (b / "fig3.csv").read_bytes()
    assert (a / "fig3.config.json").read_bytes() == \
        (b / "fig3.config.json").read_bytes()


def test_fig3_csv_structure(tmp_path):
    out = tmp_path / "f3"
    assert run_cli("fig3", "--out", str(out)) == 0
    lines = (out / "fig3.csv").read_text().splitlines()
    assert lines[0] == "g2,fidelity,fidelity_unit_overlap"
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    assert abs(first[1] - 0.9905) <= 1e-6
    assert abs(first[2] - 1.0) <= 1e-12
    fid = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(x > y for x, y in zip(fid, fid[1:]))


def test_entangle_defaults(tmp_path):
    out = tmp_path / "e"
    assert run_cli("entangle", "--out", str(out), "--format", "json") == 0
    d = json.loads((out / "entangle.json").read_text())
    assert abs(d["singlet_overlap"] - 0.96) <= 0.01
    assert abs(d["pair_rate_hz"] - 2102487.95) <= 1.0
    assert abs(d["pair_rate_sigma_hz"] - 281413.67) <= 1.0
    assert abs(d["attempt_rate_hz"] - 38.15e6) <= 1.0
    assert len(d["config_sha256"]) == 64
    m = np.asarray(d["density_matrix"])
    assert m.shape == (4, 4, 2)
    assert abs(sum(d["weights"].values()) - 1.0) <= 1e-9


def test_entangle_ideal_source(tmp_path):
    cfg = write_config(tmp_path, {"source": {"g2": 0.0,
                                             "indistinguishability": 1.0}})
    out = tmp_path / "ideal"
    assert run_cli("entangle", "--config", cfg, "--out", str(out),
                   "--format", "json") == 0
    d = json.loads((out / "entangle.json").read_text())
    assert abs(d["singlet_fraction"] - 1.0) <= 1e-9
    assert abs(d["weights"]["signal"] - 1.0) <= 1e-12


def test_entangle_doubled_excitation(tmp_path):
    base_out = tmp_path / "single"
    assert run_cli("entangle", "--out", str(base_out),
                   "--format", "json") == 0
    base = json.loads((base_out / "entangle.json").read_text())
    cfg = write_config(tmp_path, {"source": {"excitations_per_period": 2}})
    out = tmp_path / "double"
    assert run_cli("entangle", "--config", cfg, "--out", str(out),
                   "--format", "json") == 0
    d = json.loads((out / "entangle.json").read_text())
    assert abs(d["singlet_fraction"] - base["singlet_fraction"]) <= 1e-12
    assert abs(d["pair_rate_hz"] - 2.0 * base["pair_rate_hz"]) <= 1e-6
    assert abs(d["attempt_rate_hz"] - 2.0 * base["attempt_rate_hz"]) <= 1e-6


def test_rates_budget(tmp_path):
    out = tmp_path / "r"
    assert run_cli("rates", "--out", str(out), "--format", "json") == 0
    d = json.loads((out / "rates.json").read_text())
    assert abs(d["forward_rate_hz"] - 2.1e6) <= 2.6e5
    assert abs(d["forward_rate_hz"] - 2102487.95) <= 1.0
    assert abs(d["forward_rate_sigma_hz"] - 281413.67) <= 1.0
    assert "back_propagated_rate_hz" not in d
    cfg = write_config(tmp_path,
                       {"rates": {"measured_coincidence_rate_hz": 320000.0}})
    out2 = tmp_path / "r2"
    assert run_cli("rates", "--config", cfg, "--out", str(out2),
                   "--format", "json") == 0
    d2 = json.loads((out2 / "rates.json").read_text())
    assert abs(d2["back_propagated_rate_hz"] - 2099873.1) <= 1.0
    # an explicit null is the default: the same report, byte for byte
    cfg = write_config(tmp_path, {"rates": {"measured_coincidence_rate_hz": None}},
                       "null.json")
    out3 = tmp_path / "r3"
    assert run_cli("rates", "--config", cfg, "--out", str(out3),
                   "--format", "json") == 0
    assert (out3 / "rates.json").read_bytes() == (out / "rates.json").read_bytes()


def test_fig4b_reference_point(tmp_path):
    out = tmp_path / "f4"
    assert run_cli("fig4b", "--out", str(out), "--format", "json") == 0
    d = json.loads((out / "fig4b.json").read_text())
    assert d["columns"] == ["delay_ps", "indistinguishability", "fidelity"]
    rows = {row[0]: row for row in d["rows"]}
    assert abs(rows[0.0][2] - 0.958) <= 1e-9
    assert abs(rows[60.0][2] - 0.690219) <= 1e-6


def test_fig5_zero_loss_consistency(tmp_path):
    cfg = write_config(tmp_path, {"swap": {"loss_db_max": 2.5,
                                           "loss_db_step": 2.5,
                                           "mux_sizes": [10]}})
    out = tmp_path / "f5"
    assert run_cli("fig5", "--config", cfg, "--out", str(out),
                   "--format", "json") == 0
    d = json.loads((out / "fig5.json").read_text())
    assert d["columns"] == ["loss_db", "rate_qd", "rate_spdc",
                            "rate_spdc_mux10"]
    qd = swap.SwapScenario.qd_headline()
    direct = swap.swap_once(qd, qd).rate_hz
    assert abs(d["rows"][0][1] - direct) <= 1e-6 * direct
    assert d["rows"][0][0] == 0.0 and d["rows"][1][0] == 2.5


def test_fig5_chooses_pumps_against_the_configured_floor(tmp_path):
    grid = {"loss_db_max": 10.0, "loss_db_step": 10.0, "mux_sizes": [10]}
    rows = {}
    for floor in (0.95, 0.97):
        cfg = write_config(tmp_path, {"swap": dict(grid, fidelity_floor=floor)},
                           f"floor-{floor}.json")
        out = tmp_path / f"floor-{floor}"
        assert run_cli("fig5", "--config", cfg, "--out", str(out)) == 0
        lines = (out / "fig5.csv").read_text().splitlines()[1:]
        rows[floor] = [[float(x) for x in line.split(",")] for line in lines]
    table = swap.sweep_loss(swap.SwapScenario.qd_headline(),
                            swap.SwapScenario.spdc_reference(), loss_grid_db=(0.0, 10.0),
                            mux_sizes=(10,), fidelity_floor=0.95)
    assert rows[0.95] == table["rows"]
    # a lower floor admits a stronger pump: the quantum-dot column stays,
    # every SPDC rate rises
    for low, default in zip(rows[0.95], rows[0.97]):
        assert low[:2] == default[:2]
        assert all(a > b for a, b in zip(low[2:], default[2:]))


def test_timetag_synth_and_analyse_roundtrip(tmp_path):
    cfg = write_config(tmp_path, {"timetag": {"mode": "hbt", "g2": 0.02,
                                              "pulses": 200000,
                                              "span_periods": 8,
                                              "bin_ps": 20}})
    out = tmp_path / "tt"
    assert run_cli("timetag", "synth", "--config", cfg,
                   "--out", str(out)) == 0
    stream = timetag.read_stream(out / "stream.qtt")
    sidecar = json.loads((out / "stream.config.json").read_text())
    assert sidecar["records"] == len(stream.records)
    # the stream file is renamed into place: no sibling is left beside it
    assert sorted(p.name for p in out.iterdir()) == ["stream.config.json", "stream.qtt"]
    out2 = tmp_path / "tta"
    assert run_cli("timetag", "analyse", "--config", cfg, "--out", str(out2),
                   "--format", "json") == 0
    d = json.loads((out2 / "timetag_analysis.json").read_text())
    assert abs(d["g2"] - 0.02) <= 0.01


def test_timetag_analysis_takes_four_waveplate_angles(tmp_path):
    # hwp 22.5 with qwp 45 is D and hwp -22.5 with qwp 45 is A
    counts = []
    for name, analysis in (("names", ["D", "A"]), ("angles", [22.5, 45.0, -22.5, 45.0])):
        cfg = write_config(tmp_path, {"timetag": {"mode": "pairs", "pulses": 20000,
                                                  "analysis": analysis}}, f"{name}.json")
        assert run_cli("timetag", "analyse", "--config", cfg,
                       "--out", str(tmp_path / name)) == 0
        report = json.loads((tmp_path / name / "timetag_analysis.json").read_text())
        counts.append(report["pair_counts"])
    assert counts[0] == counts[1]
    assert sum(map(sum, counts[0])) > 0


def test_seed_flag_changes_synthesis(tmp_path):
    cfg = write_config(tmp_path, {"timetag": {"pulses": 20000}})
    outs = []
    for name, seed in (("s1", "5"), ("s2", "5"), ("s3", "6")):
        out = tmp_path / name
        assert run_cli("timetag", "synth", "--config", cfg, "--out", str(out),
                       "--seed", seed) == 0
        outs.append((out / "stream.qtt").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_config_digest_consistent_across_commands(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli("entangle", "--out", str(out_a), "--format", "json") == 0
    assert run_cli("rates", "--out", str(out_b), "--format", "json") == 0
    da = json.loads((out_a / "entangle.json").read_text())
    db = json.loads((out_b / "rates.json").read_text())
    assert da["config_sha256"] == db["config_sha256"]
    # overriding any value must change the digest
    cfg = write_config(tmp_path, {"source": {"g2": 0.02}})
    out_c = tmp_path / "c"
    assert run_cli("entangle", "--config", cfg, "--out", str(out_c),
                   "--format", "json") == 0
    dc = json.loads((out_c / "entangle.json").read_text())
    assert dc["config_sha256"] != da["config_sha256"]


def test_tomography_reconstruction_payload(tmp_path):
    cfg = write_config(tmp_path, {"tomography": {"enabled": True,
                                                 "pairs": 50000,
                                                 "bootstrap": 60}})
    out = tmp_path / "t1"
    assert run_cli("entangle", "--config", cfg, "--out", str(out),
                   "--format", "json", "--seed", "5") == 0
    d = json.loads((out / "entangle.json").read_text())
    rec = d["reconstruction"]
    assert rec["pairs"] == 50000
    assert rec["settings"] == 36
    assert abs(rec["singlet_fraction"] - d["singlet_fraction"]) <= 0.01
    assert rec["singlet_fraction_sigma"] > 0.0
    out2 = tmp_path / "t2"
    assert run_cli("entangle", "--config", cfg, "--out", str(out2),
                   "--format", "json", "--seed", "6") == 0
    d2 = json.loads((out2 / "entangle.json").read_text())
    assert d2["reconstruction"]["singlet_fraction"] != \
        rec["singlet_fraction"]


# The default entangle command with tomography and a 50-resample bootstrap,
# recorded while singlet_fractions still scored its rows one at a time.
PINNED_RECONSTRUCTION = {
    "density_matrix": [
        [[0.006708553869931426, 0.0], [0.0010950961937207038, 0.00129198343119095],
         [0.0003427534217766508, -6.17915107102973e-05],
         [0.00011993218196416058, 0.0009104928496760467]],
        [[0.0010950961937207038, -0.00129198343119095], [0.4928554514682392, 0.0],
         [-0.47699570078602843, -0.0007158972958382244],
         [-0.0013597860414005867, 0.00015818604999262532]],
        [[0.0003427534217766508, 6.17915107102973e-05],
         [-0.47699570078602843, 0.0007158972958382244], [0.4933673834363996, 0.0],
         [-0.0004244566133027097, -0.001154113527584821]],
        [[0.00011993218196416058, -0.0009104928496760467],
         [-0.0013597860414005867, -0.00015818604999262532],
         [-0.0004244566133027097, 0.001154113527584821], [0.007068611225429833, 0.0]]],
    "log_likelihood": -217.64899912662804,
    "singlet_fraction": 0.9701095120372307,
    "singlet_fraction_sigma": 0.0004389348004274091,
}


def test_entangle_reconstruction_is_pinned(tmp_path):
    cfg = write_config(tmp_path, {"tomography": {"enabled": True, "bootstrap": 50}})
    assert run_cli("entangle", "--config", cfg, "--out", str(tmp_path),
                   "--format", "json") == 0
    rec = json.loads((tmp_path / "entangle.json").read_text())["reconstruction"]
    assert {key: rec[key] for key in PINNED_RECONSTRUCTION} == PINNED_RECONSTRUCTION


def _separate_reconstruction(records, resamples, seed):
    """The estimate and its bootstrap sigma from separate library calls."""
    state, loglik = tomography.mle_reconstruct(records)
    sigma = (float(np.std(tomography.bootstrap_singlet_fraction(records, resamples, seed),
                          ddof=1)) if resamples else None)
    return types.SimpleNamespace(
        state=state, log_likelihood=loglik, singlet_fraction_sigma=sigma,
        singlet_fraction=float(twoqubit.singlet_fraction(state).value))


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("bootstrap", (0, 50))
def test_entangle_reconstructs_in_one_solve(tmp_path, monkeypatch, seed, bootstrap):
    # The estimate and its resamples share one design check and one
    # solve, and write the bytes the separate calls give.
    cfg = write_config(tmp_path, {"seed": seed, "tomography": {
        "enabled": True, "pairs": 20000, "bootstrap": bootstrap}})
    with monkeypatch.context() as m:
        m.setattr(cli, "tomography", types.SimpleNamespace(
            **{**vars(tomography), "reconstruct": _separate_reconstruction}))
        assert run_cli("entangle", "--config", cfg, "--out", str(tmp_path / "ref")) == 0
    calls = {"_barrier_newton": 0, "_checked_design": 0}
    for name in calls:
        def counted(*args, name=name, inner=getattr(tomography, name)):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(tomography, name, counted)
    assert run_cli("entangle", "--config", cfg, "--out", str(tmp_path / "one")) == 0
    assert calls == {"_barrier_newton": 1, "_checked_design": 1}
    ref, one = ((tmp_path / d / "entangle.json").read_bytes() for d in ("ref", "one"))
    assert one == ref
    assert ("singlet_fraction_sigma" in json.loads(one)["reconstruction"]) == bool(bootstrap)


# timetag sweep at 50 000 pulses per setting, recorded at the same point.
PINNED_SWEEP_FRACTIONS = (0.9610637835005276, 0.9622949487599826, 0.9718606071227436,
                          0.9800444052148409, 0.9813802049038514)


def test_timetag_sweep_fractions_are_pinned(tmp_path):
    cfg = write_config(tmp_path, {"timetag": {"pulses": 50000}})
    assert run_cli("timetag", "sweep", "--config", cfg, "--out", str(tmp_path)) == 0
    lines = (tmp_path / "timetag_sweep.csv").read_text().splitlines()
    assert lines[0].split(",")[1] == "singlet_fraction"
    assert tuple(float(line.split(",")[1]) for line in lines[1:]) \
        == PINNED_SWEEP_FRACTIONS


def test_exit_codes(tmp_path, monkeypatch, capsys):
    bad_key = write_config(tmp_path, {"sourc": {"g2": 0.1}}, "bad1.json")
    assert run_cli("entangle", "--config", bad_key,
                   "--out", str(tmp_path / "x1")) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{broken")
    assert run_cli("entangle", "--config", str(broken),
                   "--out", str(tmp_path / "x2")) == 2
    domain = write_config(tmp_path, {"wavepacket": {"fidelity_at_zero": 0.4}},
                          "bad2.json")
    assert run_cli("fig4b", "--config", domain,
                   "--out", str(tmp_path / "x3")) == 4
    # t_on below -t_off_margin_ps opens a window longer than one period
    long_window = write_config(tmp_path, {"timetag": {"t_on_grid_ps": [-100.0],
                                                      "pulses": 2000}},
                               "bad3.json")
    capsys.readouterr()
    assert run_cli("timetag", "sweep", "--config", long_window,
                   "--out", str(tmp_path / "x5")) == 2
    assert "exceeds one repetition period" in capsys.readouterr().err
    # a 20 ns bin is wider than the one-period (13.1 ns) span
    wide_bin = write_config(tmp_path, {"timetag": {"bin_ps": 20000,
                                                   "span_periods": 1,
                                                   "pulses": 2000}},
                            "bad4.json")
    assert run_cli("timetag", "analyse", "--config", wide_bin,
                   "--out", str(tmp_path / "x6")) == 2
    assert "shorter than one bin" in capsys.readouterr().err
    # a configuration path that cannot be opened
    assert run_cli("entangle", "--config", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "x7")) == 2
    assert "cannot read config" in capsys.readouterr().err

    def explode(resolved, objects, out_dir, fmt, digest):
        raise NumericalError("did not converge")

    monkeypatch.setitem(cli.COMMANDS, ("rates", None), (explode, "forward rate budget"))
    assert run_cli("rates", "--out", str(tmp_path / "x4")) == 3


@pytest.mark.parametrize("argv", (["timetag"], ["fig5", "sweep"], ["timetag", "nope"],
                                  ["nope"]), ids=" ".join)
def test_pair_outside_the_command_table_is_refused(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(out))
    assert exc.value.code == 2
    assert f"no command '{' '.join(argv)}'" in capsys.readouterr().err
    assert not out.exists()


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for name in ("entangle", "fig3", "fig4b", "fig5", "rates", "timetag synth",
                 "timetag analyse", "timetag sweep"):
        assert f"\n  {name} " in text


@pytest.mark.parametrize("extra", ([], ["--seed", "5"]), ids=("config", "seed-flag"))
def test_library_objects_are_built_once_per_run(tmp_path, monkeypatch, extra):
    built = []
    objects = cli._objects
    monkeypatch.setattr(cli, "_objects",
                        lambda resolved: built.append(resolved) or objects(resolved))
    assert run_cli("rates", "--out", str(tmp_path), *extra) == 0
    assert len(built) == 1


def test_default_config_digest_is_pinned():
    # Every sidecar hashes the default configuration, so its digest must
    # not move when the defaults' source does.
    assert cli.config_digest(cli.resolve_config({})) == \
        "565de46700cc53c5a25c38a5824fbb29e6353dcb9433e4355236c8dc16c7088e"


# (command, configuration, extra arguments, exit code, text of the error).
# The last three put the bad value in a section the command does not read.
BAD_CONFIGS = [
    (["fig3"], {"source": {"g2_grid_steps": -1}}, [], 2, "source.g2_grid_steps"),
    (["fig3"], {"source": {"g2_grid_steps": 0}}, [], 2, "source.g2_grid_steps"),
    (["fig4b"], {"wavepacket": {"delay_grid_steps": -1}}, [], 2,
     "wavepacket.delay_grid_steps"),
    (["fig4b"], {"wavepacket": {"delay_grid_steps": 0}}, [], 2,
     "wavepacket.delay_grid_steps"),
    (["fig5"], {"swap": {"mux_sizes": ["x"]}}, [], 2, "swap.mux_sizes[0]"),
    (["fig5"], {"swap": {"mux_sizes": [10.7]}}, [], 2, "swap.mux_sizes[0]"),
    (["fig5"], {"swap": {"mux_sizes": [10, 1]}}, [], 2,
     "swap: mux_sizes[1] must be in [2, inf)"),
    (["fig5"], {"swap": {"mux_sizes": []}}, [], 2, "swap.mux_sizes must be a nonempty array"),
    (["fig5"], {"swap": {"fidelity_floor": 1.5}}, [], 2,
     "swap: fidelity_floor must be in [0, 1]"),
    (["timetag", "sweep"], {"timetag": {"t_on_grid_ps": ["a"]}}, [], 2,
     "timetag.t_on_grid_ps[0]"),
    (["timetag", "sweep"], {"timetag": {"t_on_grid_ps": [0.0, True]}}, [], 2,
     "timetag.t_on_grid_ps[1]"),
    (["timetag", "analyse"], {"timetag": {"mode": "pairs", "analysis": ["H", 2]}},
     [], 2, "timetag.analysis[1]"),
    (["timetag", "synth"], {"timetag": {"analysis": ["H"]}}, [], 2,
     "timetag: analysis must be"),
    (["timetag", "synth"], {"seed": -1}, [], 2, "seed"),
    (["timetag", "synth"], {}, ["--seed", "-1"], 2, "seed"),
    (["entangle"], {"source": {"excitations_per_period": 0}}, [], 2,
     "source.excitations_per_period"),
    (["entangle"], {"source": {"excitations_per_period": -1}}, [], 2,
     "source.excitations_per_period"),
    (["entangle"], {"tomography": {"enabled": True, "bootstrap": 10}}, [], 2,
     "tomography.bootstrap"),
    (["entangle"], {"tomography": {"enabled": True, "pairs": 0}}, [], 2,
     "tomography.pairs"),
    (["entangle"], {"source": {"rep_rate_hz": float("inf")}}, [], 2,
     "source.rep_rate_hz"),
    (["timetag", "sweep"], {"timetag": {"t_on_grid_ps": [float("nan")]}}, [], 2,
     "timetag.t_on_grid_ps[0]"),
    (["timetag", "sweep"], {"timetag": {"t_on_grid_ps": [0.0, -100.0]}}, [], 2,
     "timetag.t_on_grid_ps: filter window exceeds one repetition period"),
    (["timetag", "analyse"], {"timetag": {"bin_ps": 200000}}, [], 2,
     "timetag.bin_ps: span_ps"),
    (["rates"], {"rates": {"chain": dict(photostat.EfficiencyChain.measured()
                                         .to_dict(), source=[None, 0.03])}},
     [], 2, "rates: float()"),
    (["rates"], {"rates": {"chain": dict(photostat.EfficiencyChain.measured()
                                         .to_dict(), source=[0.5])}},
     [], 2, "rates: efficiency entries are [value, sigma], got [0.5]"),
    (["rates"], {"rates": {"chain": dict(photostat.EfficiencyChain.measured()
                                         .to_dict(), pump=[0.5, 0.01])}},
     [], 2, "rates: unknown efficiency roles ['pump']"),
    (["rates"], {"rates": {"chain": {"source": [0.5, 0.01]}}}, [], 2,
     "rates: missing efficiency roles"),
    (["rates"], {"timetag": {"mode": "foo"}}, [], 2, "timetag: unknown mode"),
    (["rates"], {"wavepacket": {"fidelity_at_zero": 0.4}}, [], 4, "wavepacket"),
    (["entangle"], {"swap": {"fidelity_floor": -0.5}}, [], 2, "swap: fidelity_floor"),
]


@pytest.mark.parametrize("argv,config,extra,code,message", BAD_CONFIGS,
                         ids=[case[-1] for case in BAD_CONFIGS])
def test_bad_config_stops_before_any_output(tmp_path, capsys, argv, config,
                                            extra, code, message):
    out = tmp_path / "out"
    assert run_cli(*argv, "--config", write_config(tmp_path, config),
                   "--out", str(out), *extra) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_console_script_entry_point(tmp_path):
    r = run_with_src("-m", "qdpair.cli", "rates",
                     "--out", str(tmp_path), "--format", "json")
    assert r.returncode == 0
    assert "rates.json" in r.stdout


# Runs each command at toy size in one interpreter and reports, per command,
# whether scipy had been imported by the time it finished.
SCIPY_PROBE = """
import json, sys
from pathlib import Path
from qdpair import cli

out = Path(sys.argv[1])
toy = out / "toy.json"
toy.write_text(json.dumps({
    "tomography": {"enabled": True, "pairs": 20000, "bootstrap": 50},
    "timetag": {"pulses": 5000}, "swap": {"loss_db_max": 2.5}}))
loaded = {"import": "scipy" in sys.modules}
for i, argv in enumerate([["fig3"], ["fig5"], ["rates"], ["entangle"],
                          ["timetag", "synth"], ["timetag", "analyse"],
                          ["timetag", "sweep"], ["fig4b"]]):
    code = cli.main(argv + ["--config", str(toy), "--out", str(out / str(i))])
    assert code == 0, argv
    loaded[" ".join(argv)] = "scipy" in sys.modules
print(json.dumps(loaded))
"""


def run_with_src(*argv):
    """Run the interpreter on argv with this checkout's package importable."""
    env = dict(os.environ)
    src = str(Path(qdpair.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env)


def test_scipy_stays_unloaded_until_fig4b(tmp_path):
    r = run_with_src("-c", SCIPY_PROBE, str(tmp_path))
    assert r.returncode == 0, r.stderr
    loaded = json.loads(r.stdout.splitlines()[-1])
    assert loaded.pop("fig4b") is True
    assert not any(loaded.values()), loaded


def test_import_leaves_thread_pool_unloaded():
    # The filter sweep imports its thread pool when it runs, so that no
    # command pays for it at start-up.
    r = run_with_src("-c", "import sys, qdpair.cli; "
                           "print('concurrent.futures' in sys.modules)")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"
