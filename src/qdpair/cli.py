"""Scenario-driven command line tying the simulation modules together.

Each command reads an optional JSON configuration, merges it over the
built-in defaults (which follow the measured source: 60 ps lifetime,
5 ps pump, 76.3 MHz repetition rate, 35 ps detector jitter, the
measured efficiency budget) and writes deterministic CSV/JSON files into
the output directory.  Before any command runs, every key and every list
element is type-checked against its default, and every section is
range-checked by building its library objects.  Identical configuration
and seed give byte-identical outputs; every output embeds or sits next
to the resolved configuration and its SHA-256 hash.

Commands
    entangle    post-selected two-qubit state, singlet overlap and rate
                estimate, optionally with simulated tomography and
                maximum-likelihood reconstruction.
    fig3        fidelity against multi-photon probability (g2) curves.
    fig4b       fidelity against excitation-pulse delay curve.
    fig5        entanglement-swapping rate comparison table.
    rates       forward rate budget (and back-propagation when a
                measured coincidence rate is supplied).
    timetag     synth | analyse | sweep on synthetic detection streams.

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
from .errors import ConfigError, ContractError, ModelDomainError, NumericalError

# CLI key -> library field, or keys named as their fields.  Each table
# reads its keys' defaults from the library and passes the resolved
# values back.  The keys are frozen: every sidecar hashes them.
_QD = {"rep_rate_hz": "rep_rate_hz", "eta_det": "eta_det", "pnr": "pnr",
       "qd_eta_s": "eta_s", "qd_g2": "qd_g2", "qd_indistinguishability": "qd_I"}
_SPDC = {"rep_rate_hz": "rep_rate_hz", "eta_det": "eta_det", "pnr": "pnr",
         "switch_eta": "switch_eta", "insertion_eta": "insertion_eta",
         "spdc_eta_s": "eta_s", "spdc_statistics": "spdc_statistics",
         "fidelity_floor": "fidelity_floor"}
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
             **_defaults(swap.sweep_loss, ("mux_sizes",)),
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


def _at_least(path: str, value: int, bound: int) -> int:
    if value < bound:
        raise ConfigError(f"{path} must be at least {bound}, got {value}")
    return value


def _objects(resolved: dict) -> types.SimpleNamespace:
    """Every section's library objects, whose construction range-checks it."""
    src, wp, tomo, tt, sw, rt = (resolved[key] for key in (
        "source", "wavepacket", "tomography", "timetag", "swap", "rates"))
    with _at("seed"):
        np.random.SeedSequence(resolved["seed"])
    with _at("rates"):
        chain = photostat.EfficiencyChain.from_dict(rt["chain"])
        rate = photostat.forward_rate(chain, rt["rep_rate_hz"])
        measured = rt["measured_coincidence_rate_hz"]
        back = (None if measured is None
                else photostat.back_propagate_rate(measured, chain))
    _at_least("source.excitations_per_period", src["excitations_per_period"], 1)
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
    _at_least("tomography.pairs", tomo["pairs"], tomography.MIN_PAIRS)
    if tomo["bootstrap"]:   # 0 turns the bootstrap off
        _at_least("tomography.bootstrap", tomo["bootstrap"], tomography.MIN_RESAMPLES)
    with _at("timetag"):
        stream = timetag.StreamParams(
            mode=tt["mode"], seed=resolved["seed"], pulses=tt["pulses"],
            analysis=tuple(tt["analysis"]), **{key: tt[key] for key in _STREAM})
    with _at("swap"):
        qd = swap.SwapScenario.qd_headline(
            **{name: sw[key] for key, name in _QD.items()})
        spdc = swap.SwapScenario.spdc_reference(
            **{name: sw[key] for key, name in _SPDC.items()})
        for n in sw["mux_sizes"]:    # each size must make a multiplexed source
            dataclasses.replace(spdc, source_kind="spdc_multiplexed", mux_n=n)
        loss_grid = swap.loss_grid(**{key: sw[key] for key in _LOSS_GRID})
    g2_steps = _at_least("source.g2_grid_steps", src["g2_grid_steps"], 1)
    delay_steps = _at_least("wavepacket.delay_grid_steps", wp["delay_grid_steps"], 1)
    return types.SimpleNamespace(
        chain=chain, rate=rate, back_propagated=back, weights=weights, rho=rho,
        pair_rate=pair_rate, wavepacket=params, stream=stream, qd=qd, spdc=spdc,
        g2_grid=np.linspace(0.0, src["g2_grid_max"], g2_steps),
        delays=np.linspace(0.0, wp["delay_grid_max_ps"], delay_steps),
        loss_grid=loss_grid, mux_sizes=tuple(sw["mux_sizes"]))


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

def cmd_entangle(resolved: dict, out_dir: Path, fmt: str, digest: str):
    src = resolved["source"]
    o = _objects(resolved)
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
        rho_hat, loglike = tomography.mle_reconstruct(records)
        recon = {
            "density_matrix": rho_hat.to_json(),
            "singlet_fraction": float(twoqubit.singlet_fraction(rho_hat).value),
            "log_likelihood": float(loglike),
            "settings": len(settings),
            "pairs": tomo["pairs"],
        }
        if tomo["bootstrap"] > 0:
            recon["singlet_fraction_sigma"] = float(
                tomography.bootstrap_uncertainty(records, tomo["bootstrap"],
                                                 seed=resolved["seed"]))
        payload["reconstruction"] = recon
    return [_write_json(out_dir / "entangle.json", payload, resolved, digest)]


def cmd_fig3(resolved: dict, out_dir: Path, fmt: str, digest: str):
    src = resolved["source"]
    grid = _objects(resolved).g2_grid
    _, fid = wavepacket.g2_curve(grid, src["indistinguishability"], src["eta"])
    _, fid_unit = wavepacket.g2_curve(grid, 1.0, src["eta"])
    rows = [(g, f, fu) for g, f, fu in zip(grid, fid, fid_unit)]
    return _write_table(out_dir, "fig3",
                        ("g2", "fidelity", "fidelity_unit_overlap"),
                        rows, fmt, resolved, digest)


def cmd_fig4b(resolved: dict, out_dir: Path, fmt: str, digest: str):
    o = _objects(resolved)
    taus, ind, fid = wavepacket.offset_curve(o.delays, o.wavepacket)
    rows = [(t, i, f) for t, i, f in zip(taus, ind, fid)]
    return _write_table(out_dir, "fig4b",
                        ("delay_ps", "indistinguishability", "fidelity"),
                        rows, fmt, resolved, digest)


def cmd_fig5(resolved: dict, out_dir: Path, fmt: str, digest: str):
    o = _objects(resolved)
    table = swap.sweep_loss(o.qd, o.spdc, loss_grid_db=o.loss_grid, mux_sizes=o.mux_sizes)
    return _write_table(out_dir, "fig5", table["columns"], table["rows"],
                        fmt, resolved, digest)


def cmd_rates(resolved: dict, out_dir: Path, fmt: str, digest: str):
    o = _objects(resolved)
    payload = {"forward_rate_hz": float(o.rate[0]),
               "forward_rate_sigma_hz": float(o.rate[1]),
               "attempt_rate_hz": float(resolved["rates"]["rep_rate_hz"] / 2.0),
               "chain": o.chain.to_dict()}
    if o.back_propagated is not None:
        payload["back_propagated_rate_hz"] = float(o.back_propagated)
    return [_write_json(out_dir / "rates.json", payload, resolved, digest)]


def cmd_timetag(resolved: dict, sub: str, out_dir: Path, fmt: str,
                digest: str):
    tt = resolved["timetag"]
    params = _objects(resolved).stream
    if sub == "synth":
        stream = timetag.synthesize_stream(params)
        path = out_dir / "stream.qtt"
        timetag.write_stream(stream, path)
        sidecar = _write_json(out_dir / "stream.config.json",
                              {"records": int(len(stream.records)),
                               "mode": tt["mode"]},
                              resolved, digest)
        return [path, sidecar]
    if sub == "analyse":
        stream = timetag.synthesize_stream(params)
        payload = {"mode": tt["mode"], "records": int(len(stream.records))}
        files = []
        if tt["mode"] == "hbt":
            span = int(tt["span_periods"] * stream.period_ps)
            hist = timetag.coincidence_histogram(stream, 0, 1,
                                                 tt["bin_ps"], span)
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
    points = timetag.filter_fidelity_sweep(
        params=dataclasses.replace(params, mode="pairs"),
        **{key: tt[key] for key in _SWEEP})
    rows = [(p.t_on_ps, p.singlet_fraction, p.coincidences,
             p.retained_fraction) for p in points]
    return _write_table(
        out_dir, "timetag_sweep",
        ("t_on_ps", "singlet_fraction", "coincidences", "retained_fraction"),
        rows, fmt, resolved, digest)


# ---------------------------------------------------------------------------
# Entry point.

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="PATH",
                   help="JSON configuration file (merged over defaults)")
    p.add_argument("--out", metavar="DIR", default=".",
                   help="output directory (created if missing)")
    p.add_argument("--seed", type=int, metavar="N",
                   help="override the configuration seed")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="table output format (JSON reports ignore this)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdpair",
        description="Simulation toolkit for a post-selected "
                    "entangled-photon-pair source.")
    subs = parser.add_subparsers(dest="command", required=True)
    helps = {
        "entangle": "post-selected state, singlet overlap and rates",
        "fig3": "fidelity versus multi-photon probability curves",
        "fig4b": "fidelity versus excitation delay curve",
        "fig5": "entanglement-swapping comparison table",
        "rates": "forward rate budget",
    }
    for name, text in helps.items():
        _add_common(subs.add_parser(name, help=text))
    pt = subs.add_parser("timetag", help="synthetic detection streams")
    pt.add_argument("subcommand", choices=("synth", "analyse", "sweep"))
    _add_common(pt)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
        resolved = resolve_config(user)
        if args.seed is not None:
            resolved = resolve_config(dict(resolved, seed=args.seed))
        digest = config_digest(resolved)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "timetag":
            files = cmd_timetag(resolved, args.subcommand, out_dir,
                                args.format, digest)
        else:
            handler = {"entangle": cmd_entangle, "fig3": cmd_fig3,
                       "fig4b": cmd_fig4b, "fig5": cmd_fig5,
                       "rates": cmd_rates}[args.command]
            files = handler(resolved, out_dir, args.format, digest)
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
