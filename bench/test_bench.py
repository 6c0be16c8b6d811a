"""Self-tests of the benchmark: every check rejects a corrupted output,
every check passes on real outputs for two seeds, and every workload
completes a smoke run at toy size.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qdpair import cli, swap, timetag  # noqa: E402

SEEDS = (1, 2)


def _run_cli(job) -> None:
    assert cli.main(job["argv"]) == 0


# ---------------------------------------------------------------------------
# swap-loss

@pytest.fixture(scope="module")
def fig5_table(tmp_path_factory):
    _, body = workloads.swap_jobs(1, tmp_path_factory.mktemp("swap"), False)
    _run_cli(body)
    return checks.read_csv_table(Path(body["out"]) / "fig5.csv")


def _scaled(table, column, factor, row=None):
    out = copy.deepcopy(table)
    col = out["columns"].index(column)
    for i, r in enumerate(out["rows"]):
        if row is None or i == row:
            r[col] *= factor
    return out


def test_fig5_checks_pass(fig5_table):
    assert checks.check_fig5(fig5_table, workloads.SWAP) == []


def test_fig5_rejects_scaled_qd_column(fig5_table):
    bad = checks.check_fig5(_scaled(fig5_table, "rate_qd", 1.05),
                            workloads.SWAP)
    assert any("closed form" in m for m in bad)


def test_fig5_rejects_wrong_loss_fall(fig5_table):
    # Lower the last point by one and a half times the fall tolerance.
    lo, _ = checks.qd_rate_band(workloads.SWAP["qd_g2"])
    scaled = _scaled(fig5_table, "rate_qd", 1.0 - 1.5 * (1.0 - lo), row=1)
    assert any("falls by" in m
               for m in checks.check_fig5(scaled, workloads.SWAP))


def test_fig5_rejects_mux_below_plain(fig5_table):
    bad = checks.check_fig5(_scaled(fig5_table, "rate_spdc_mux10", 1e-3),
                            workloads.SWAP)
    assert any("falls below rate_spdc" in m for m in bad)


@pytest.mark.parametrize("seed", SEEDS)
def test_swap_probe(seed, tmp_path):
    warm, _ = workloads.swap_jobs(seed, tmp_path, False)
    points = child.run_probe(swap, warm)["points"]
    assert checks.check_swap_probe(points) == []
    scaled = [dict(p, rate_hz=1.05 * p["rate_hz"]) for p in points]
    assert len(checks.check_swap_probe(scaled)) == len(points)
    shifted = [dict(p, fidelity=p["fidelity"] - 0.01) for p in points]
    assert len(checks.check_swap_probe(shifted)) == len(points)


# ---------------------------------------------------------------------------
# filter-sweep

@pytest.fixture(scope="module", params=SEEDS)
def sweep_table(request, tmp_path_factory):
    work = tmp_path_factory.mktemp("sweep")
    _, body = workloads.sweep_jobs(request.param, work, False)
    _run_cli(body)
    return checks.read_csv_table(Path(body["out"]) / "timetag_sweep.csv")


def test_sweep_checks_pass(sweep_table):
    assert checks.check_sweep(sweep_table, workloads.SWEEP_INDIST) == []


@pytest.mark.parametrize("shift", [0.01, -0.01])
def test_sweep_rejects_shifted_last_window(sweep_table, shift):
    col = sweep_table["columns"].index("singlet_fraction")
    bad_table = copy.deepcopy(sweep_table)
    bad_table["rows"][-1][col] += shift
    bad = checks.check_sweep(bad_table, workloads.SWEEP_INDIST)
    assert any("(1 + I)/2" in m for m in bad)


def test_sweep_rejects_first_window_as_good_as_last(sweep_table):
    col = sweep_table["columns"].index("singlet_fraction")
    bad_table = copy.deepcopy(sweep_table)
    bad_table["rows"][0][col] = bad_table["rows"][-1][col]
    bad = checks.check_sweep(bad_table, workloads.SWEEP_INDIST)
    assert any("does not exceed the first" in m for m in bad)


def test_sweep_rejects_out_of_range(sweep_table):
    col = sweep_table["columns"].index("singlet_fraction")
    bad_table = copy.deepcopy(sweep_table)
    bad_table["rows"][2][col] = 1.01
    bad = checks.check_sweep(bad_table, workloads.SWEEP_INDIST)
    assert any("outside [0, 1]" in m for m in bad)


def test_sweep_rejects_scaled_coincidences(sweep_table):
    bad = checks.check_sweep(_scaled(sweep_table, "coincidences", 1.05, row=1),
                             workloads.SWEEP_INDIST)
    assert any("retained_fraction varies" in m for m in bad)


# ---------------------------------------------------------------------------
# tomo-bootstrap

@pytest.fixture(scope="module", params=SEEDS)
def entangle_report(request, tmp_path_factory):
    _, body = workloads.tomo_jobs(request.param,
                                  tmp_path_factory.mktemp("tomo"), False)
    _run_cli(body)
    return json.loads((Path(body["out"]) / "entangle.json").read_text())


def _check_entangle(report):
    return checks.check_entangle(report, workloads.TOMO_BOOTSTRAP)


def test_entangle_checks_pass(entangle_report):
    assert _check_entangle(entangle_report) == []


def test_entangle_rejects_shifted_singlet_fraction(entangle_report):
    bad = copy.deepcopy(entangle_report)
    bad["singlet_fraction"] += 0.01
    assert any("input singlet fraction" in m
               for m in _check_entangle(bad))
    bad = copy.deepcopy(entangle_report)
    bad["reconstruction"]["singlet_fraction"] += 0.01
    assert any("reconstruction singlet fraction" in m
               for m in _check_entangle(bad))


def test_entangle_rejects_unphysical_matrix(entangle_report):
    bad = copy.deepcopy(entangle_report)
    bad["reconstruction"]["density_matrix"][0][1][1] += 0.01
    assert any("Hermitian" in m for m in _check_entangle(bad))
    bad = copy.deepcopy(entangle_report)
    bad["reconstruction"]["density_matrix"][0][0][0] += 0.01
    assert any("trace" in m for m in _check_entangle(bad))
    bad = copy.deepcopy(entangle_report)
    m = bad["reconstruction"]["density_matrix"]
    m[0][0][0] -= 0.3
    m[3][3][0] += 0.3
    assert any("eigenvalue" in msg for msg in _check_entangle(bad))


def test_entangle_rejects_bad_sigma(entangle_report):
    bad = copy.deepcopy(entangle_report)
    bad["reconstruction"]["singlet_fraction_sigma"] = 0.0
    assert any("not positive" in m for m in _check_entangle(bad))
    bad = copy.deepcopy(entangle_report)
    bad["reconstruction"]["singlet_fraction_sigma"] *= 1e-3
    assert any("sigma from" in m for m in _check_entangle(bad))
    bad = copy.deepcopy(entangle_report)
    del bad["reconstruction"]["singlet_fraction_sigma"]
    assert any("no bootstrap sigma" in m for m in _check_entangle(bad))
    assert checks.check_entangle(bad, 0) == []


# ---------------------------------------------------------------------------
# stream-file

def _stream_outputs(path):
    job = {"path": str(path), "bin_ps": workloads.STREAM_BIN_PS,
           "span_periods": workloads.STREAM_SPAN_PERIODS}
    return child.stream_facts(*child.run_stream(timetag, job))


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_checks_pass_and_reuse_file(seed, tmp_path):
    written = workloads.stream_file(tmp_path, "t", seed, 400_000)
    assert checks.check_stream(_stream_outputs(tmp_path / "hbt-t.qtt"),
                               written) == []
    path = tmp_path / "hbt-t.qtt"
    mtime = path.stat().st_mtime_ns
    assert workloads.stream_file(tmp_path, "t", seed, 400_000) == written
    assert path.stat().st_mtime_ns == mtime


def test_stream_rejects_other_planted_g2(tmp_path):
    path = tmp_path / "hbt.qtt"
    written = workloads.write_hbt_stream(path, 3, 400_000, g2=0.04)
    out = _stream_outputs(path)
    assert checks.check_stream(out, written) == []
    claimed = dict(written, planted_g2=workloads.STREAM_G2)
    assert any("planted" in m for m in checks.check_stream(out, claimed))


def test_stream_rejects_wrong_read_back(tmp_path):
    path = tmp_path / "hbt.qtt"
    written = workloads.write_hbt_stream(path, 3, 100_000)
    out = _stream_outputs(path)
    for key in ("records", "first_t", "last_t"):
        bad = dict(out, **{key: out[key] + 1})
        assert any(key in m for m in checks.check_stream(bad, written))
    bad = dict(out, rep_rate_hz=out["rep_rate_hz"] * 1.05)
    assert any("rep_rate_hz" in m for m in checks.check_stream(bad, written))


def test_stream_rewrites_corrupted_file(tmp_path):
    written = workloads.stream_file(tmp_path, "t", 5, 100_000)
    path = tmp_path / "hbt-t.qtt"
    with open(path, "r+b") as fh:
        fh.seek(100)
        fh.write(b"\xff")
    again = workloads.stream_file(tmp_path, "t", 5, 100_000)
    assert again == written
    assert workloads._sha256(path) == written["sha256"]


# ---------------------------------------------------------------------------
# the benchmark itself

def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    names = set(tracing.Tracer().summary()) | {"trace.overhead_s"}
    assert declared == {(n, tracing.unit(n)) for n in names}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_at_toy_size(name):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"),
                           "--workload", name, "--seed", "7", "--seconds", "1",
                           "--trace", "0", "--toy"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
