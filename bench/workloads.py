"""Benchmark workloads: inputs made from the seed, jobs for the measuring
child, and the checks applied to what the child returns.

Each workload yields two jobs.  The warm-up job runs first, untimed, on
a toy input that goes through the same modules; the body job is the
measured one.  ``toy=True`` shrinks the body input as well where the
workload allows it (filter-sweep, stream-file), for smoke runs of the
benchmark itself; the swap-loss grid and the 50 bootstrap resamples are
already the smallest inputs of their workloads.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

import checks

# Headline swap scenarios, written out in full so the checks read the
# same numbers the program is given.
SWAP = {
    "rep_rate_hz": 76.3e6, "eta_det": 0.9, "pnr": True,
    "switch_eta": 0.97, "insertion_eta": 1.0,
    "qd_eta_s": 0.71, "qd_g2": 0.013, "qd_indistinguishability": 0.968,
    "spdc_eta_s": 0.8, "spdc_statistics": "thermal", "fidelity_floor": 0.97,
    "loss_db_max": 10.0, "loss_db_step": 10.0, "mux_sizes": [10],
}

SWEEP_PULSES = 200_000
SWEEP_TOY_PULSES = 60_000
SWEEP_INDIST = 0.968

TOMO_PAIRS = 100_000
TOMO_BOOTSTRAP = 50          # the fewest resamples the program accepts

# HBT stream file: per pulse 0, 1 or 2 detected photons with mean
# STREAM_MEAN and <n(n-1)>/<n>^2 = STREAM_G2, each photon on channel 0 or
# 1 with equal odds, delayed by an exponential (T1) plus Gaussian jitter.
STREAM_PULSES = 20_000_000
STREAM_TOY_PULSES = 200_000
STREAM_MEAN = 0.4
STREAM_G2 = 0.02
STREAM_T1_PS = 200.0
STREAM_JITTER_FWHM_PS = 35.0
STREAM_REP_RATE_HZ = 76.3e6
STREAM_BIN_PS = 20
STREAM_SPAN_PERIODS = 8
STREAM_CHUNK_PULSES = 2_000_000

_HEADER = struct.Struct("<4sHHQq8x")
_RECORD = np.dtype([("channel", "<u2"), ("t", "<i8")])


def _write_config(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config, indent=1, sort_keys=True))
    return str(path)


def _cli_job(work: Path, tag: str, argv: list, config: dict) -> dict:
    out = work / f"out-{tag}"
    cfg = _write_config(work / f"config-{tag}.json", config)
    return {"kind": "cli", "argv": argv + ["--config", cfg, "--out", str(out)],
            "out": str(out)}


# ---------------------------------------------------------------------------
# swap-loss

def swap_jobs(seed: int, work: Path, toy: bool):
    rng = np.random.default_rng([seed, 1])
    # The ideal-source probe at 0 dB and at a loss drawn from the seed.
    losses = [0.0, round(float(rng.uniform(1.0, 30.0)), 3)]
    warm = {"kind": "probe", "losses_db": losses}
    body = _cli_job(work, "body", ["fig5"], {"swap": dict(SWAP)})
    return warm, body


def swap_check(job, outputs) -> list:
    if job["kind"] == "probe":
        return checks.check_swap_probe(outputs["points"])
    table = checks.read_csv_table(Path(job["out"]) / "fig5.csv")
    return checks.check_fig5(table, SWAP)


# ---------------------------------------------------------------------------
# filter-sweep

def _sweep_config(seed: int, pulses: int) -> dict:
    return {"seed": seed, "timetag": {"pulses": pulses,
                                      "indistinguishability": SWEEP_INDIST}}


def sweep_jobs(seed: int, work: Path, toy: bool):
    argv = ["timetag", "sweep"]
    warm = _cli_job(work, "warm", argv, _sweep_config(seed, SWEEP_TOY_PULSES))
    pulses = SWEEP_TOY_PULSES if toy else SWEEP_PULSES
    body = _cli_job(work, "body", argv, _sweep_config(seed, pulses))
    return warm, body


def sweep_check(job, outputs) -> list:
    table = checks.read_csv_table(Path(job["out"]) / "timetag_sweep.csv")
    return checks.check_sweep(table, SWEEP_INDIST)


# ---------------------------------------------------------------------------
# tomo-bootstrap

def _tomo_job(work: Path, tag: str, seed: int, bootstrap: int) -> dict:
    config = {"seed": seed, "tomography": {"enabled": True, "pairs": TOMO_PAIRS,
                                           "bootstrap": bootstrap}}
    return dict(_cli_job(work, tag, ["entangle"], config), bootstrap=bootstrap)


def tomo_jobs(seed: int, work: Path, toy: bool):
    return (_tomo_job(work, "warm", seed, 0),
            _tomo_job(work, "body", seed, TOMO_BOOTSTRAP))


def tomo_check(job, outputs) -> list:
    payload = json.loads((Path(job["out"]) / "entangle.json").read_text())
    return checks.check_entangle(payload, job["bootstrap"])


# ---------------------------------------------------------------------------
# stream-file

def planted_distribution(mean: float, g2: float):
    """(p0, p1, p2) with mean p1 + 2 p2 = mean and 2 p2 / mean^2 = g2."""
    p2 = 0.5 * g2 * mean * mean
    p1 = mean - 2.0 * p2
    return 1.0 - p1 - p2, p1, p2


def write_hbt_stream(path: Path, seed: int, pulses: int,
                     g2: float = STREAM_G2) -> dict:
    """Write a version-1 stream file in chunks; return what was written."""
    _, p1, p2 = planted_distribution(STREAM_MEAN, g2)
    rng = np.random.default_rng([seed, 4])
    period = 1e12 / STREAM_REP_RATE_HZ
    jitter = STREAM_JITTER_FWHM_PS / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    digest = hashlib.sha256()
    count, first, last = 0, None, None
    with open(path, "wb") as fh:
        header = _HEADER.pack(b"QTTS", 1, 0,
                              int(round(STREAM_REP_RATE_HZ * 1000.0)), 0)
        fh.write(header)
        digest.update(header)
        for k0 in range(0, pulses, STREAM_CHUNK_PULSES):
            m = min(STREAM_CHUNK_PULSES, pulses - k0)
            u = rng.random(m)
            n = (u < p1 + p2).astype(np.int64) + (u < p2)
            pulse = np.repeat(np.arange(k0, k0 + m), n)
            delay = rng.exponential(STREAM_T1_PS, len(pulse)) \
                + rng.normal(0.0, jitter, len(pulse))
            # Keep every photon inside its own period so chunks stay ordered.
            delay = np.clip(delay, -0.25 * period, 0.25 * period)
            t = np.rint(pulse * period + delay).astype(np.int64)
            ch = rng.integers(0, 2, len(t)).astype(np.uint16)
            order = np.lexsort((ch, t))
            rec = np.empty(len(t), dtype=_RECORD)
            rec["channel"] = ch[order]
            rec["t"] = t[order]
            body = rec.tobytes()
            fh.write(body)
            digest.update(body)
            if len(rec):
                first = int(rec["t"][0]) if first is None else first
                last = int(rec["t"][-1])
                count += len(rec)
        # Flush to disk now, so that write-back does not fall inside a
        # measured read.
        fh.flush()
        os.fsync(fh.fileno())
    return {"records": count, "rep_rate_hz": STREAM_REP_RATE_HZ,
            "t_zero_ps": 0, "first_t": first, "last_t": last,
            "planted_g2": g2, "bytes": path.stat().st_size,
            "sha256": digest.hexdigest()}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 22), b""):
            digest.update(block)
    return digest.hexdigest()


def stream_file(work: Path, tag: str, seed: int, pulses: int) -> dict:
    """The stream file for (seed, pulses), kept between runs while its
    sidecar names the same input and its checksum still matches."""
    path = work / f"hbt-{tag}.qtt"
    sidecar = work / f"hbt-{tag}.json"
    want = {"seed": seed, "pulses": pulses, "mean": STREAM_MEAN,
            "g2": STREAM_G2, "t1_ps": STREAM_T1_PS,
            "jitter_fwhm_ps": STREAM_JITTER_FWHM_PS}
    if path.exists() and sidecar.exists():
        known = json.loads(sidecar.read_text())
        if known["input"] == want and known["written"]["sha256"] == _sha256(path):
            return known["written"]
    written = write_hbt_stream(path, seed, pulses)
    sidecar.write_text(json.dumps({"input": want, "written": written}))
    return written


def _stream_job(work: Path, tag: str, seed: int, pulses: int) -> dict:
    written = stream_file(work, tag, seed, pulses)
    return {"kind": "stream", "path": str(work / f"hbt-{tag}.qtt"),
            "bin_ps": STREAM_BIN_PS, "span_periods": STREAM_SPAN_PERIODS,
            "written": written}


def stream_jobs(seed: int, work: Path, toy: bool):
    # The warm-up reads the measured file too: it is cheap next to the
    # other workloads' bodies, and it leaves the first timed read no
    # colder than the rest.
    if toy:
        job = _stream_job(work, "toy", seed, STREAM_TOY_PULSES)
    else:
        job = _stream_job(work, "body", seed, STREAM_PULSES)
    return job, job


def stream_check(job, outputs) -> list:
    return checks.check_stream(outputs, job["written"])


# name -> (jobs(seed, work, toy) -> (warm, body), check(job, outputs))
WORKLOADS = {
    "swap-loss": (swap_jobs, swap_check),
    "filter-sweep": (sweep_jobs, sweep_check),
    "tomo-bootstrap": (tomo_jobs, tomo_check),
    "stream-file": (stream_jobs, stream_check),
}
