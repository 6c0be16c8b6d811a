"""Output checks for the benchmark workloads.

Every reference here is computed with numpy alone, apart from the
program, and every tolerance comes from a correction term of the model
or from counting statistics.  Each check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# Statistical checks accept a deviation of this many standard errors.
N_SIGMA = 4.0
# The program's singlet-fraction search stops at this objective tolerance.
SINGLET_TOL = 1e-9
# Closed-form swap rate and fidelity of an ideal source, relative.
IDEAL_TOL = 1e-9
# Density-matrix contract: Hermiticity, trace, smallest eigenvalue.
MATRIX_TOL = 1e-10
PSD_TOL = 1e-9

_SQ = 1.0 / math.sqrt(2.0)

# Magic basis (Hill & Wootters, PRL 78, 5022, 1997) in (HH, HV, VH, VV).
MAGIC = np.array([
    [1, 0, 0, 1],
    [1j, 0, 0, -1j],
    [0, 1j, 1j, 0],
    [0, 1, -1, 0],
], dtype=complex).T * _SQ


def fully_entangled_fraction(rho: np.ndarray) -> float:
    """Largest overlap of rho with a maximally entangled state: the top
    eigenvalue of Re(B^dag rho B) in the magic basis B."""
    m = MAGIC.conj().T @ rho @ MAGIC
    return float(np.linalg.eigvalsh(m.real)[-1])


def interference_limited_state(indist: float) -> np.ndarray:
    """I |psi-><psi-| + (1 - I)(|HV><HV| + |VH><VH|)/2."""
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = 0.5
    m[1, 2] = m[2, 1] = -0.5 * indist
    return m


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def singlet_sigma(rho: np.ndarray, pass_pass_counts: float) -> float:
    """Standard error of the singlet overlap from 36-setting pass-pass
    counts, estimated through the three correlators alone:
    <psi-|rho|psi-> = (1 - Exx - Eyy - Ezz) / 4.

    Each correlator comes from the four settings of one basis pair, which
    hold a ninth of all pass-pass counts (each arm's six projectors sum to
    three times the identity), with binomial variance (1 - E^2) / N_b.
    The reconstruction uses all 36 settings, so this errs on the large
    side.  Near the singlet the singlet fraction and the singlet overlap
    agree to first order, so this is the error of either.
    """
    n_basis = pass_pass_counts / 9.0
    var = 0.0
    for p in _PAULI.values():
        e = float(np.trace(rho @ np.kron(p, p)).real)
        var += (1.0 - e * e) / (16.0 * n_basis)
    return math.sqrt(var)


# ---------------------------------------------------------------------------
# swap-loss

def ideal_swap_rate(rep_rate_hz, eta_collect, eta_inner) -> float:
    """Heralded swap rate of two ideal single-photon pair sources:
    R * eta_c^2 * eta_in^2 / 8 (both outer photons kept, both inner
    photons detected, and a linear-optics Bell measurement that
    succeeds half the time on the post-selected quarter of emissions)."""
    return rep_rate_hz * eta_collect ** 2 * eta_inner ** 2 / 8.0


def check_swap_probe(points) -> list:
    """Ideal source (g2 = 0, I = 1): closed-form rate and unit fidelity."""
    bad = []
    for p in points:
        ref = ideal_swap_rate(p["rep_rate_hz"], p["eta_collect"],
                              p["eta_inner"])
        if abs(p["rate_hz"] / ref - 1.0) > IDEAL_TOL:
            bad.append(f"ideal swap rate {p['rate_hz']!r} at "
                       f"{p['loss_db']} dB, closed form {ref!r}")
        if abs(p["fidelity"] - 1.0) > IDEAL_TOL:
            bad.append(f"ideal swap fidelity {p['fidelity']!r} at "
                       f"{p['loss_db']} dB")
    return bad


def qd_rate_band(g2: float):
    """Bounds on the quantum-dot swap rate over its single-photon closed
    form.  Below: the weight (1 - g2)^4 of the branch where all four
    emission windows hold exactly one photon, which heralds at the closed
    form; every other branch adds a non-negative rate.  Above: with
    number-resolving detectors and nodes a broadband re-excitation photon
    can only veto, and a vacuum window heralds only together with a
    double emission at the other source, a second-order term g2^2."""
    return (1.0 - g2) ** 4, 1.0 + g2 ** 2


def check_fig5(table, swap_cfg: dict) -> list:
    """``table`` is {"columns": [...], "rows": [[...], ...]}."""
    bad = []
    cols = table["columns"]
    rows = np.array(table["rows"], dtype=float)
    if rows.ndim != 2 or len(rows) < 2:
        return [f"fig5 table has {len(rows)} rows, need at least 2"]
    loss = rows[:, cols.index("loss_db")]
    qd = rows[:, cols.index("rate_qd")]
    spdc = rows[:, cols.index("rate_spdc")]
    g2 = swap_cfg["qd_g2"]
    lo, hi = qd_rate_band(g2)
    eta_c = swap_cfg["qd_eta_s"]
    for l, r in zip(loss, qd):
        eta_in = eta_c * 10.0 ** (-l / 10.0) * swap_cfg["eta_det"]
        ratio = r / ideal_swap_rate(swap_cfg["rep_rate_hz"], eta_c, eta_in)
        if not lo <= ratio <= hi:
            bad.append(f"QD rate at {l} dB is {ratio:.6f} of the closed "
                       f"form, outside [{lo:.6f}, {hi:.6f}] for g2={g2}")
    # The two-arm loss factor between grid points; both points sit in
    # the band above, so their ratio may depart from it by the band width.
    tol = 1.0 - lo
    for i in range(len(loss) - 1):
        want = 10.0 ** (-(loss[i + 1] - loss[i]) / 5.0)
        got = qd[i + 1] / qd[i]
        if abs(got / want - 1.0) > tol:
            bad.append(f"QD rate falls by {got:.6f} from {loss[i]} to "
                       f"{loss[i + 1]} dB, two-arm loss gives {want:.6f} "
                       f"(tolerance {tol:.4f})")
    for name in cols:
        if name.startswith("rate_spdc_mux"):
            mux = rows[:, cols.index(name)]
            if np.any(mux < spdc):
                bad.append(f"{name} falls below rate_spdc at loss "
                           f"{loss[mux < spdc].tolist()}")
    return bad


def read_csv_table(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        columns = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return {"columns": columns, "rows": rows}


# ---------------------------------------------------------------------------
# filter-sweep

def check_sweep(table, indist: float) -> list:
    bad = []
    cols = table["columns"]
    rows = np.array(table["rows"], dtype=float)
    sf = rows[:, cols.index("singlet_fraction")]
    coinc = rows[:, cols.index("coincidences")]
    kept = rows[:, cols.index("retained_fraction")]
    if np.any((sf < 0.0) | (sf > 1.0)):
        bad.append(f"singlet fractions outside [0, 1]: {sf.tolist()}")
    base = coinc / kept
    if np.max(np.abs(base / base[0] - 1.0)) > 1e-12:
        bad.append(f"coincidences / retained_fraction varies: {base.tolist()}")
    # The last window removes the broadband noise, leaving the
    # interference-limited state with singlet fraction (1 + I) / 2.  Its
    # pass-pass counts are a quarter of all coincidences: over the 36
    # settings each arm's six projectors sum to 3 times the identity.
    rho = interference_limited_state(indist)
    target = fully_entangled_fraction(rho)
    sigma = singlet_sigma(rho, coinc[-1] / 4.0)
    if abs(sf[-1] - target) > N_SIGMA * sigma:
        bad.append(f"last window singlet fraction {sf[-1]:.6f}, "
                   f"(1 + I)/2 = {target:.6f}, sigma {sigma:.2e}")
    if sf[-1] - sf[0] < N_SIGMA * sigma:
        bad.append(f"last window {sf[-1]:.6f} does not exceed the first "
                   f"{sf[0]:.6f} by {N_SIGMA:.0f} sigma ({sigma:.2e})")
    return bad


# ---------------------------------------------------------------------------
# tomo-bootstrap

def _matrix(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def check_entangle(payload, bootstrap: int) -> list:
    """``bootstrap`` is the number of resamples the run asked for."""
    bad = []
    rho = _matrix(payload["density_matrix"])
    ref = fully_entangled_fraction(rho)
    if abs(payload["singlet_fraction"] - ref) > SINGLET_TOL:
        bad.append(f"input singlet fraction {payload['singlet_fraction']!r}, "
                   f"closed form {ref!r}")
    recon = payload.get("reconstruction")
    if recon is None:
        return bad + ["no reconstruction in the entangle report"]
    est = _matrix(recon["density_matrix"])
    if np.max(np.abs(est - est.conj().T)) > MATRIX_TOL:
        bad.append("reconstruction is not Hermitian")
    if abs(np.trace(est).real - 1.0) > MATRIX_TOL:
        bad.append(f"reconstruction trace {np.trace(est).real!r}")
    low = np.linalg.eigvalsh(0.5 * (est + est.conj().T))[0]
    if low < -PSD_TOL:
        bad.append(f"reconstruction has eigenvalue {low:.3e}")
    est_ref = fully_entangled_fraction(est)
    if abs(recon["singlet_fraction"] - est_ref) > SINGLET_TOL:
        bad.append(f"reconstruction singlet fraction "
                   f"{recon['singlet_fraction']!r}, closed form {est_ref!r}")
    sigma = recon.get("singlet_fraction_sigma")
    if sigma is None:
        if bootstrap > 0:
            bad.append(f"no bootstrap sigma after {bootstrap} resamples")
    else:
        if not sigma > 0.0:
            bad.append(f"bootstrap sigma {sigma!r} is not positive")
        elif abs(est_ref - ref) > N_SIGMA * sigma:
            bad.append(f"reconstruction singlet fraction {est_ref:.6f} is "
                       f"{abs(est_ref - ref) / sigma:.1f} sigma from the "
                       f"input's {ref:.6f}")
    return bad


# ---------------------------------------------------------------------------
# stream-file

def check_stream(out, written) -> list:
    """``written`` is the stream file's sidecar: what the benchmark wrote."""
    bad = []
    for key in ("records", "rep_rate_hz", "t_zero_ps", "first_t", "last_t"):
        if out[key] != written[key]:
            bad.append(f"read back {key}={out[key]!r}, wrote {written[key]!r}")
    planted = written["planted_g2"]
    if abs(out["g2"] - planted) > N_SIGMA * out["g2_sigma"]:
        bad.append(f"g2 {out['g2']:.5f} +/- {out['g2_sigma']:.5f}, planted "
                   f"<n(n-1)>/<n>^2 = {planted:.5f}")
    return bad
