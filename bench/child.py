"""One measuring child of the benchmark: ``python3 bench/child.py JOB.json``.

The child imports nothing outside the standard library before the
set-up clock starts, so ``setup_s`` covers the whole import of qdpair
with numpy and scipy.  It then runs the job's body once, timed, and
prints one JSON object as the last line of its standard output:
``setup_s``, ``wall_s``, ``maxrss_kb`` (its own peak resident set),
``outputs`` for the parent's checks and, when tracing, ``trace``.

Job kinds:
    cli     ``qdpair.cli.main(argv)``, artifacts written to the job's
            ``--out`` directory.
    stream  ``read_stream`` -> ``coincidence_histogram(0, 1)`` ->
            ``g2_from_histogram`` on a stream file.
    probe   ``swap.swap_once`` on an ideal quantum-dot source, for the
            closed-form check (the swap-loss warm-up).
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program(kind: str):
    if kind == "stream":
        from qdpair import timetag
        return timetag
    if kind == "probe":
        from qdpair import swap
        return swap
    from qdpair import cli
    return cli


def _run_cli(cli, job):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(job["argv"])
    if code != 0:
        raise SystemExit(f"qdpair {' '.join(job['argv'])} exited with {code}")
    return {"files": buf.getvalue().split()}


def run_stream(timetag, job):
    stream = timetag.read_stream(job["path"])
    span = int(job["span_periods"] * stream.period_ps)
    hist = timetag.coincidence_histogram(stream, 0, 1, job["bin_ps"], span)
    g2, sigma = timetag.g2_from_histogram(hist, stream.period_ps)
    return stream, g2, sigma


def stream_facts(stream, g2, sigma) -> dict:
    rec = stream.records
    return {"records": int(len(rec)), "rep_rate_hz": stream.rep_rate_hz,
            "t_zero_ps": stream.t_zero_ps,
            "first_t": int(rec["t"][0]), "last_t": int(rec["t"][-1]),
            "g2": float(g2), "g2_sigma": float(sigma)}


def run_probe(swap, job):
    out = []
    for loss in job["losses_db"]:
        qd = swap.SwapScenario.qd_headline(qd_g2=0.0, qd_I=1.0,
                                           channel_loss_db=loss)
        res = swap.swap_once(qd, qd)
        out.append({"loss_db": loss, "rate_hz": res.rate_hz,
                    "fidelity": res.fidelity, "eta_collect": qd.eta_collect,
                    "eta_inner": qd.eta_inner,
                    "rep_rate_hz": qd.rep_rate_hz})
    return {"points": out}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    kind = job["kind"]
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    module = _import_program(kind)
    setup_s = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if src not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"qdpair was imported from {module.__file__}, "
                         f"not from {src}")
    result = {"setup_s": setup_s}

    tracer = None
    if job.get("trace"):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    t1 = time.perf_counter()
    if kind == "cli":
        outputs = _run_cli(module, job)
    elif kind == "stream":
        stream, g2, sigma = run_stream(module, job)
    else:
        outputs = run_probe(module, job)
    result["wall_s"] = time.perf_counter() - t1
    if kind == "stream":
        outputs = stream_facts(stream, g2, sigma)
    result["outputs"] = outputs
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(job["trace"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
