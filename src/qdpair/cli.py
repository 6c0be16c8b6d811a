"""Scenario-driven command line tying the simulation modules together.

Each command reads an optional JSON configuration, merges it over the
built-in defaults (which follow the measured source: 60 ps lifetime,
5 ps pump, 76.3 MHz repetition rate, 35 ps detector jitter, the
measured efficiency budget) and writes deterministic CSV/JSON files into
the output directory.  Before any command runs, every key and every list
element is type-checked against its default, and every section is
range-checked by building its library objects, once per run; the command
then works on those objects.  Identical configuration
and seed give byte-identical outputs; every output embeds or sits next
to the resolved configuration and its SHA-256 hash.

``COMMANDS`` lists the commands; ``qdpair --help`` prints them.

Exit codes: 0 success, 2 configuration error, 3 numerical error,
4 model-domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import json
import sys
import types
from pathlib import Path

import numpy as np

from . import photostat, swap, timetag, tomography, twoqubit, wavepacket
from .errors import (ConfigError, ContractError, ModelDomainError, NumericalError,
                     check_ranges)

# CLI key -> library field, or keys named as their fields.  Each table
# reads its keys' defaults from the library and passes the resolved
# values back.  The keys are frozen: every sidecar hashes them.
_QD = {"rep_rate_hz": "rep_rate_hz", "eta_det": "eta_det", "pnr": "pnr",
       "qd_eta_s": "eta_s", "qd_g2": "qd_g2", "qd_indistinguishability": "qd_I"}
_SPDC = {"rep_rate_hz": "rep_rate_hz", "eta_det": "eta_det", "pnr": "pnr",
         "switch_eta": "switch_eta", "insertion_eta": "insertion_eta",
         "spdc_eta_s": "eta_s", "spdc_statistics": "spdc_statistics"}
_STREAM = ("g2", "t1_ps", "pulse_width_ps", "rep_rate_hz", "eta", "jitter_fwhm_ps",
           "indistinguishability")
_WAVEPACKET = ("t1_ps", "pulse_width_ps")
_LOSS_GRID = ("loss_db_max", "loss_db_step")
_SWEEP = ("t_on_grid_ps", "t_off_margin_ps")


def _defaults(source, table) -> dict:
    """The defaults of a table's keys, read from a library object's fields
    or from a library function's parameters."""
    if callable(source):
        source = types.SimpleNamespace(**{name: p.default for name, p in
                                          inspect.signature(source).parameters.items()})
    table = table if isinstance(table, dict) else dict(zip(table, table))
    return {key: getattr(source, name) for key, name in table.items()}


# The JSON round trip turns the library's tuples into lists.
_DEFAULTS = json.loads(json.dumps({
    "seed": timetag.SWEEP_STREAM.seed,
    "source": {"g2": 0.015, "indistinguishability": 0.981,
               **_defaults(wavepacket.postselected_weights, ("eta",)),
               **_defaults(timetag.StreamParams, ("rep_rate_hz",)),
               "excitations_per_period": 1,
               "g2_grid_max": 0.10, "g2_grid_steps": 41},
    "wavepacket": {**_defaults(wavepacket.WavepacketParams(), _WAVEPACKET),
                   "fidelity_at_zero": 0.958, "delay_grid_max_ps": 200.0,
                   "delay_grid_steps": 41},
    "tomography": {"enabled": False, "pairs": 100000, "bootstrap": 0},
    "timetag": {"mode": "hbt", **_defaults(timetag.SWEEP_STREAM, _STREAM),
                **_defaults(timetag.StreamParams, ("pulses", "analysis")),
                "bin_ps": 20, "span_periods": 8,
                **_defaults(timetag.filter_fidelity_sweep, _SWEEP)},
    "swap": {**_defaults(swap.SwapScenario.qd_headline(), _QD),
             **_defaults(swap.SwapScenario.spdc_reference(), _SPDC),
             **_defaults(swap.sweep_loss, ("mux_sizes", "fidelity_floor")),
             **_defaults(swap.loss_grid, _LOSS_GRID)},
    "rates": {**_defaults(timetag.StreamParams, ("rep_rate_hz",)),
              "chain": photostat.EfficiencyChain.measured().to_dict(),
              "measured_coincidence_rate_hz": None},
}))

# Keys whose value the library checks whole.
_FREEFORM = {"rates.chain"}
_NUMBER = (int, float)
_KINDS = {bool: (bool, "a boolean"), int: (int, "an integer"), str: (str, "a string"),
          dict: (dict, "an object"), float: (_NUMBER, "a finite number"),
          type(None): (_NUMBER, "a finite number")}


def _check(path: str, value, default):
    """``value`` checked against the type of ``default``.  None admits null or a finite
    number, a list nonempty lists of elements like its first, a section only its own
    keys.  A boolean is never a number; a number is a float where the default is."""
    if isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path} must be a nonempty array")
        element = default[0]
        if path == "timetag.analysis" and not isinstance(value[0], str):
            element = 0.0   # four waveplate angles in place of two names
        return [_check(f"{path}[{i}]", v, element) for i, v in enumerate(value)]
    if value is None and default is None:
        return None
    allowed, kind = _KINDS[type(default)]
    if isinstance(value, bool) != isinstance(default, bool) or \
            not isinstance(value, allowed) or \
            (allowed is _NUMBER and not np.isfinite(value)):
        raise ConfigError(f"{path or 'config'} must be {kind}")
    if isinstance(default, dict) and path not in _FREEFORM:
        prefix = f"{path}." if path else ""
        for key in value:
            if key not in default:
                raise ConfigError(f"unknown key {prefix}{key}")
        return {key: _check(f"{prefix}{key}", value[key], d) if key in value else d
                for key, d in default.items()}
    return float(value) if allowed is _NUMBER else value


@contextlib.contextmanager
def _at(path: str):
    """Name ``path`` in a value or type error raised inside the block."""
    try:
        yield
    except ModelDomainError as exc:
        raise ModelDomainError(f"{path}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _objects(resolved: dict) -> types.SimpleNamespace:
    """Every section's library objects, whose construction range-checks it."""
    src, wp, tomo, tt, sw, rt = (resolved[key] for key in (
        "source", "wavepacket", "tomography", "timetag", "swap", "rates"))
    counts = {   # key path: (value, interval); a bootstrap of 0 is off, so None
        "source.excitations_per_period": (src["excitations_per_period"], "int [1, inf)"),
        "source.g2_grid_steps": (src["g2_grid_steps"], "int [1, inf)"),
        "wavepacket.delay_grid_steps": (wp["delay_grid_steps"], "int [1, inf)"),
        "tomography.pairs": (tomo["pairs"], f"int [{tomography.MIN_PAIRS}, inf)"),
        "tomography.bootstrap": (tomo["bootstrap"] or None,
                                 f"int [{tomography.MIN_RESAMPLES}, inf) or None")}
    check_ranges(ConfigError, {path: spec for path, (_, spec) in counts.items()},
                 **{path: value for path, (value, _) in counts.items()})
    with _at("seed"):
        np.random.SeedSequence(resolved["seed"])
    with _at("rates"):
        chain = photostat.EfficiencyChain.from_dict(rt["chain"])
        rate = photostat.forward_rate(chain, rt["rep_rate_hz"])
        measured = rt["measured_coincidence_rate_hz"]
        back = (None if measured is None
                else photostat.back_propagate_rate(measured, chain))
    with _at("source"):
        weights = wavepacket.postselected_weights(src["g2"], src["eta"])
        rho = twoqubit.TwoQubitDensity.from_matrix(
            weights[0] * twoqubit.rho_q(src["indistinguishability"]).matrix
            + weights[1] * twoqubit.rho_b_half().matrix
            + weights[2] * twoqubit.rho_b_zero().matrix)
        photostat.qd_distribution_from_g2(src["g2_grid_max"])   # fig3's last g2
        pair_rate = photostat.forward_rate(chain, src["rep_rate_hz"])
    with _at("wavepacket"):
        params = wavepacket.WavepacketParams(
            i0=wavepacket.calibrate_i0(wp["fidelity_at_zero"]),
            **{key: wp[key] for key in _WAVEPACKET})
    with _at("timetag"):
        stream = timetag.StreamParams(
            mode=tt["mode"], seed=resolved["seed"], pulses=tt["pulses"],
            analysis=tuple(tt["analysis"]), **{key: tt[key] for key in _STREAM})
    with _at("timetag.t_on_grid_ps"):
        timetag.sweep_windows(params=stream, **{key: tt[key] for key in _SWEEP})
    with _at("timetag.bin_ps"):    # the span of the HBT histogram
        span_ps = int(tt["span_periods"] * (1e12 / stream.rep_rate_hz))
        timetag.histogram_bins(tt["bin_ps"], span_ps)
    with _at("swap"):
        qd = swap.SwapScenario.qd_headline(
            **{name: sw[key] for key, name in _QD.items()})
        spdc = swap.SwapScenario.spdc_reference(
            **{name: sw[key] for key, name in _SPDC.items()})
        mux_sizes = swap.check_mux_sizes(sw["mux_sizes"])
        check_ranges(ConfigError, {"fidelity_floor": "[0, 1]"},
                     fidelity_floor=sw["fidelity_floor"])
        loss_grid = swap.loss_grid(**{key: sw[key] for key in _LOSS_GRID})
    return types.SimpleNamespace(
        chain=chain, rate=rate, back_propagated=back, weights=weights, rho=rho,
        pair_rate=pair_rate, wavepacket=params, stream=stream, span_ps=span_ps,
        qd=qd, spdc=spdc,
        g2_grid=np.linspace(0.0, src["g2_grid_max"], src["g2_grid_steps"]),
        delays=np.linspace(0.0, wp["delay_grid_max_ps"], wp["delay_grid_steps"]),
        loss_grid=loss_grid, mux_sizes=mux_sizes)


def resolve_config(user: dict) -> dict:
    """Merge a user configuration over the defaults, rejecting unknown
    keys and type mismatches, then build every section's library objects."""
    resolved = _check("", user, _DEFAULTS)
    _objects(resolved)
    return resolved


def config_digest(resolved: dict) -> str:
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Output helpers.

def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return repr(float(x))


def _write_json(path: Path, payload: dict, resolved: dict, digest: str):
    body = dict(payload)
    body["config"] = resolved
    body["config_sha256"] = digest
    with open(path, "w", newline="\n") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_table(out_dir: Path, stem: str, columns, rows, fmt: str,
                 resolved: dict, digest: str):
    if fmt == "json":
        path = out_dir / f"{stem}.json"
        payload = {"columns": list(columns),
                   "rows": [[float(v) for v in row] for row in rows]}
        return [_write_json(path, payload, resolved, digest)]
    path = out_dir / f"{stem}.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    sidecar = _write_json(out_dir / f"{stem}.config.json", {},
                          resolved, digest)
    return [path, sidecar]


# ---------------------------------------------------------------------------
# Commands.

def cmd_entangle(resolved: dict, o, out_dir: Path, fmt: str, digest: str):
    src = resolved["source"]
    weights, rho, (rate, sigma) = o.weights, o.rho, o.pair_rate
    overlap = twoqubit.overlap_with(rho, twoqubit.bell_state("psi_minus"))
    k = src["excitations_per_period"]
    payload = {
        "density_matrix": rho.to_json(),
        "singlet_overlap": float(overlap),
        "singlet_fraction": float(twoqubit.singlet_fraction(rho).value),
        "weights": {"signal": weights[0], "background_half": weights[1],
                    "background_zero": weights[2]},
        "pair_rate_hz": float(rate * k),
        "pair_rate_sigma_hz": float(sigma * k),
        "attempt_rate_hz": float(src["rep_rate_hz"] / 2.0 * k),
    }
    tomo = resolved["tomography"]
    if tomo["enabled"]:
        settings = tomography.standard_settings()
        records = tomography.simulate_counts(rho, settings, tomo["pairs"],
                                             seed=resolved["seed"])
        fit = tomography.reconstruct(records, tomo["bootstrap"], seed=resolved["seed"])
        recon = {
            "density_matrix": fit.state.to_json(),
            "singlet_fraction": fit.singlet_fraction,
            "log_likelihood": fit.log_likelihood,
            "settings": len(settings),
            "pairs": tomo["pairs"],
        }
        if tomo["bootstrap"] > 0:
            recon["singlet_fraction_sigma"] = fit.singlet_fraction_sigma
        payload["reconstruction"] = recon
    return [_write_json(out_dir / "entangle.json", payload, resolved, digest)]


def cmd_fig3(resolved: dict, o, out_dir: Path, fmt: str, digest: str):
    src, grid = resolved["source"], o.g2_grid
    _, fid = wavepacket.g2_curve(grid, src["indistinguishability"], src["eta"])
    _, fid_unit = wavepacket.g2_curve(grid, 1.0, src["eta"])
    rows = [(g, f, fu) for g, f, fu in zip(grid, fid, fid_unit)]
    return _write_table(out_dir, "fig3",
                        ("g2", "fidelity", "fidelity_unit_overlap"),
                        rows, fmt, resolved, digest)


def cmd_fig4b(resolved: dict, o, out_dir: Path, fmt: str, digest: str):
    taus, ind, fid = wavepacket.offset_curve(o.delays, o.wavepacket)
    rows = [(t, i, f) for t, i, f in zip(taus, ind, fid)]
    return _write_table(out_dir, "fig4b",
                        ("delay_ps", "indistinguishability", "fidelity"),
                        rows, fmt, resolved, digest)


def cmd_fig5(resolved: dict, o, out_dir: Path, fmt: str, digest: str):
    table = swap.sweep_loss(o.qd, o.spdc, loss_grid_db=o.loss_grid, mux_sizes=o.mux_sizes,
                            fidelity_floor=resolved["swap"]["fidelity_floor"])
    return _write_table(out_dir, "fig5", table["columns"], table["rows"],
                        fmt, resolved, digest)


def cmd_rates(resolved: dict, o, out_dir: Path, fmt: str, digest: str):
    payload = {"forward_rate_hz": float(o.rate[0]),
               "forward_rate_sigma_hz": float(o.rate[1]),
               "attempt_rate_hz": float(resolved["rates"]["rep_rate_hz"] / 2.0),
               "chain": o.chain.to_dict()}
    if o.back_propagated is not None:
        payload["back_propagated_rate_hz"] = float(o.back_propagated)
    return [_write_json(out_dir / "rates.json", payload, resolved, digest)]


def cmd_timetag_synth(resolved: dict, o, out_dir: Path, fmt: str, digest: str):
    stream = timetag.synthesize_stream(o.stream)
    path = out_dir / "stream.qtt"
    timetag.write_stream(stream, path)
    sidecar = _write_json(out_dir / "stream.config.json",
                          {"records": int(len(stream.records)),
                           "mode": resolved["timetag"]["mode"]},
                          resolved, digest)
    return [path, sidecar]


def cmd_timetag_analyse(resolved: dict, o, out_dir: Path, fmt: str, digest: str):
    tt = resolved["timetag"]
    stream = timetag.synthesize_stream(o.stream)
    payload = {"mode": tt["mode"], "records": int(len(stream.records))}
    files = []
    if tt["mode"] == "hbt":
        hist = timetag.coincidence_histogram(stream, 0, 1,
                                             tt["bin_ps"], o.span_ps)
        g2, err = timetag.g2_from_histogram(hist, stream.period_ps)
        payload["g2"] = float(g2)
        payload["g2_sigma"] = float(err)
        hist_path = out_dir / "hbt_histogram.csv"
        hist.to_csv(hist_path)
        files.append(hist_path)
    elif tt["mode"] == "pairs":
        counts = timetag.pair_counts(stream)
        payload["pair_counts"] = [[int(c) for c in row] for row in counts]
    else:
        payload["t_zero_ps"] = int(
            timetag.reference_from_pulse_histogram(stream))
    files.append(_write_json(out_dir / "timetag_analysis.json", payload,
                             resolved, digest))
    return files


def cmd_timetag_sweep(resolved: dict, o, out_dir: Path, fmt: str, digest: str):
    tt = resolved["timetag"]
    points = timetag.filter_fidelity_sweep(
        params=dataclasses.replace(o.stream, mode="pairs"),
        **{key: tt[key] for key in _SWEEP})
    rows = [(p.t_on_ps, p.singlet_fraction, p.coincidences,
             p.retained_fraction) for p in points]
    return _write_table(
        out_dir, "timetag_sweep",
        ("t_on_ps", "singlet_fraction", "coincidences", "retained_fraction"),
        rows, fmt, resolved, digest)


# ---------------------------------------------------------------------------
# Entry point.

# (command, subcommand) -> (handler, one-line help): the only list of commands.
COMMANDS = {
    ("entangle", None): (cmd_entangle, "post-selected state, singlet overlap and rates"),
    ("fig3", None): (cmd_fig3, "fidelity versus multi-photon probability curves"),
    ("fig4b", None): (cmd_fig4b, "fidelity versus excitation delay curve"),
    ("fig5", None): (cmd_fig5, "entanglement-swapping comparison table"),
    ("rates", None): (cmd_rates, "forward rate budget"),
    ("timetag", "synth"): (cmd_timetag_synth, "write a synthetic detection stream"),
    ("timetag", "analyse"): (cmd_timetag_analyse, "g2, pair counts or time reference "
                                                  "of a synthetic stream"),
    ("timetag", "sweep"): (cmd_timetag_sweep, "fidelity versus temporal-filter window"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdpair", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Simulation toolkit for a post-selected "
                    "entangled-photon-pair source.",
        epilog="commands:\n" + "\n".join(f"  {' '.join(filter(None, key)):<18}{text}"
                                         for key, (_, text) in COMMANDS.items()))
    parser.add_argument("command", help="one of the commands listed below")
    parser.add_argument("subcommand", nargs="?", help="the timetag step")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON configuration file (merged over defaults)")
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="override the configuration seed")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table output format (JSON reports ignore this)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    key = (args.command, args.subcommand)
    if key not in COMMANDS:
        parser.error(f"no command {' '.join(filter(None, key))!r}; see qdpair --help")
    try:
        user = {}
        if args.config:
            try:
                with open(args.config) as fh:
                    user = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if args.seed is not None and isinstance(user, dict):
            user = dict(user, seed=args.seed)
        resolved = _check("", user, _DEFAULTS)
        objects = _objects(resolved)
        digest = config_digest(resolved)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        files = COMMANDS[key][0](resolved, objects, out_dir, args.format, digest)
    except (ConfigError, ContractError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ModelDomainError as exc:
        print(f"model domain error: {exc}", file=sys.stderr)
        return 4
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
