"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdpair
from qdpair import cli, photostat, swap, timetag
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
    out2 = tmp_path / "tta"
    assert run_cli("timetag", "analyse", "--config", cfg, "--out", str(out2),
                   "--format", "json") == 0
    d = json.loads((out2 / "timetag_analysis.json").read_text())
    assert abs(d["g2"] - 0.02) <= 0.01


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

    def explode(resolved, out_dir, fmt, digest):
        raise NumericalError("did not converge")

    monkeypatch.setattr(cli, "cmd_rates", explode)
    assert run_cli("rates", "--out", str(tmp_path / "x4")) == 3
    with pytest.raises(SystemExit):
        run_cli("unknown-command")


def test_default_config_digest_is_pinned():
    # Every sidecar hashes the default configuration, so its digest must
    # not move when the defaults' source does.
    assert cli.config_digest(cli.resolve_config({})) == \
        "565de46700cc53c5a25c38a5824fbb29e6353dcb9433e4355236c8dc16c7088e"


# (command, configuration, extra arguments, exit code, text of the error).
# The last two put the bad value in a section the command does not read.
BAD_CONFIGS = [
    (["fig3"], {"source": {"g2_grid_steps": -1}}, [], 2, "source.g2_grid_steps"),
    (["fig3"], {"source": {"g2_grid_steps": 0}}, [], 2, "source.g2_grid_steps"),
    (["fig4b"], {"wavepacket": {"delay_grid_steps": -1}}, [], 2,
     "wavepacket.delay_grid_steps"),
    (["fig4b"], {"wavepacket": {"delay_grid_steps": 0}}, [], 2,
     "wavepacket.delay_grid_steps"),
    (["fig5"], {"swap": {"mux_sizes": ["x"]}}, [], 2, "swap.mux_sizes[0]"),
    (["fig5"], {"swap": {"mux_sizes": [10.7]}}, [], 2, "swap.mux_sizes[0]"),
    (["fig5"], {"swap": {"mux_sizes": [10, 1]}}, [], 2, "swap: multiplexed"),
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
    (["rates"], {"rates": {"chain": dict(photostat.EfficiencyChain.measured()
                                         .to_dict(), source=[None, 0.03])}},
     [], 2, "rates: float()"),
    (["rates"], {"timetag": {"mode": "foo"}}, [], 2, "timetag: unknown mode"),
    (["rates"], {"wavepacket": {"fidelity_at_zero": 0.4}}, [], 4, "wavepacket"),
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
    r = subprocess.run([sys.executable, "-m", "qdpair.cli", "rates",
                        "--out", str(tmp_path), "--format", "json"],
                       capture_output=True, text=True)
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
