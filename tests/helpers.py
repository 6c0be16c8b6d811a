"""Shared numeric helpers for the test suite."""

import dataclasses
import itertools
import math

import numpy as np
from scipy.linalg import eigh, sqrtm
from scipy.optimize import minimize

from qdpair import photostat, swap, timetag, tomography, twoqubit
from qdpair.errors import ContractError, ModelDomainError, NumericalError
from qdpair.fock import FockState


def uhlmann_fidelity(rho, sigma):
    """Fidelity F(rho, sigma) = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    a = np.asarray(rho, dtype=complex)
    b = np.asarray(sigma, dtype=complex)
    root = sqrtm(a)
    inner = sqrtm(root @ b @ root)
    val = np.real(np.trace(inner)) ** 2
    return float(min(1.0, max(0.0, val)))


def max_singlet_overlap_grid(rho, coarse=24, refine_rounds=3, refine=9):
    """Maximal overlap with (U x 1)|psi-> found by Euler-angle grid search.

    Independent of the analytic eigenvalue route: scans U = Rz(a) Ry(b) Rz(c)
    on a coarse grid, then shrinks the grid around the best point.
    """
    rho = np.asarray(rho, dtype=complex)
    psi_minus = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)

    def overlap(a, b, c):
        rz1 = np.array([[np.exp(-0.5j * a), 0.0], [0.0, np.exp(0.5j * a)]])
        ry = np.array([[np.cos(b / 2.0), -np.sin(b / 2.0)],
                       [np.sin(b / 2.0), np.cos(b / 2.0)]])
        rz2 = np.array([[np.exp(-0.5j * c), 0.0], [0.0, np.exp(0.5j * c)]])
        u = rz1 @ ry @ rz2
        ket = np.kron(u, np.eye(2)) @ psi_minus
        return float(np.real(ket.conj() @ rho @ ket))

    spans = [2.0 * np.pi, np.pi, 2.0 * np.pi]
    centers = [np.pi, np.pi / 2.0, np.pi]
    best = (-1.0, centers)
    grids = [np.linspace(c - s / 2.0, c + s / 2.0, coarse) for c, s in zip(centers, spans)]
    for a in grids[0]:
        for b in grids[1]:
            for c in grids[2]:
                v = overlap(a, b, c)
                if v > best[0]:
                    best = (v, [a, b, c])
    for _ in range(refine_rounds):
        centers = best[1]
        spans = [s / 4.0 for s in spans]
        grids = [np.linspace(c - s / 2.0, c + s / 2.0, refine) for c, s in zip(centers, spans)]
        for a in grids[0]:
            for b in grids[1]:
                for c in grids[2]:
                    v = overlap(a, b, c)
                    if v > best[0]:
                        best = (v, [a, b, c])
    return best[0]


def random_density_matrix(rng, dim=4):
    """Wishart-distributed random density matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def matrix_singlet_fraction(rho):
    """Reference ``twoqubit.singlet_fraction`` of one 4x4 state: the
    unstacked expressions, as (value, rotation)."""
    vals, vecs = np.linalg.eigh(
        (twoqubit._MAGIC.conj().T @ rho @ twoqubit._MAGIC).real)
    rotation = np.sqrt(2.0) * (twoqubit._MAGIC @ vecs[:, -1]).reshape(2, 2)
    return min(max(float(vals[-1]), 0.0), 1.0), rotation


def rowwise_singlet_fractions(ops, counts):
    """Reference ``tomography.singlet_fractions``: the same certified solve,
    then the state of each row built and scored on its own."""
    sigma = tomography._solve(ops, tomography._checked_design(ops), counts)
    return np.array([twoqubit.singlet_fraction(tomography._state(s)).value
                     for s in sigma])


def mle_multistart(ops, counts):
    """Reference ML state: the best of five L-BFGS-B runs over a lower-
    triangular factor T, sigma = T T^dag (James et al., PRA 64, 052312).

    Independent of the barrier route in ``tomography``.  Starts from the
    scaled identity, a clipped linear inversion and three seeded random
    factors.  ``ops`` are the per-setting operators with integration time
    folded in; returns the unnormalised sigma of the best run.
    """
    ops = np.asarray(ops, dtype=complex)
    counts = np.asarray(counts, dtype=float)
    a_total = ops.sum(0)
    n_total = counts.sum()
    floor = 1e-12 * (n_total + 1.0)
    rows, cols = np.tril_indices(4)
    off = rows != cols

    def unpack(x):
        t = np.zeros((4, 4), dtype=complex)
        t[rows, cols] = x[:10]
        t[rows[off], cols[off]] += 1j * x[10:]
        return t

    def pack(t):
        return np.concatenate([t[rows, cols].real, t[rows[off], cols[off]].imag])

    def objective(x):
        t = unpack(x)
        sigma = t @ t.conj().T
        lam = np.maximum(np.einsum("sij,ji->s", ops, sigma).real, floor)
        f = np.trace(sigma @ a_total).real - counts @ np.log(lam)
        # Wirtinger gradient wrt conj(T): (A - sum_s (n_s/lam_s) Pi_s) T
        g = (a_total - np.einsum("s,sij->ij", counts / lam, ops)) @ t
        return f, 2.0 * pack(g)

    scale = n_total / (np.trace(a_total).real / 4.0)
    starts = [np.sqrt(scale / 4.0) * np.eye(4, dtype=complex)]
    flat = ops.transpose(0, 2, 1).reshape(len(ops), 16)
    lin = np.linalg.lstsq(flat, counts.astype(complex), rcond=None)[0].reshape(4, 4)
    vals, vecs = np.linalg.eigh(0.5 * (lin + lin.conj().T))
    vals = np.clip(vals, 1e-8 * max(vals.max(), 1.0), None)
    starts.append(np.linalg.cholesky((vecs * vals) @ vecs.conj().T))
    rng = np.random.default_rng(20240917)
    for _ in range(3):
        t = np.tril(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        t *= np.sqrt(n_total / np.trace(t @ t.conj().T @ a_total).real)
        starts.append(t)
    best = min((minimize(objective, pack(t0), method="L-BFGS-B", jac=True,
                         options={"ftol": 1e-13, "gtol": 1e-8, "maxiter": 5000})
                for t0 in starts), key=lambda res: res.fun)
    t = unpack(best.x)
    return t @ t.conj().T


def _scalar_hermitian(x):
    return (x @ tomography._BASIS).reshape(4, 4)


def _scalar_relative_eigvals(m, w, v):
    half = v / np.sqrt(w)
    return np.linalg.eigvalsh(half.conj().T @ m @ half)


def scalar_barrier_newton(d, n):
    """Reference ``tomography._barrier_newton``: the one-problem solver it
    generalises, step for step, with a count of its Newton steps (linear
    solves).  Returns (sigma, steps) for one count vector n."""
    a = d.sum(0)
    n_total = n.sum()
    x = np.zeros(16)
    x[:4] = n_total / a[:4].sum()
    mu = n_total / 4.0
    steps = 0
    while True:
        for _ in range(50):
            w, v = np.linalg.eigh(_scalar_hermitian(x))
            s_inv = (v / w) @ v.conj().T
            lam = d @ x
            grad = a - d.T @ (n / lam) - mu * (tomography._BASIS @ s_inv.T.ravel()).real
            kron = s_inv.T[:, None, :, None] * s_inv[None, :, None, :]
            hess = ((d.T * (n / lam ** 2)) @ d + mu * (
                tomography._BASIS @ kron.reshape(16, 16)
                @ tomography._BASIS.conj().T).real)
            step = -np.linalg.solve(hess, grad)
            steps += 1
            decrement = -grad @ step
            if decrement <= 1e-6 * mu:
                break
            r = (d @ step) / lam
            e = _scalar_relative_eigvals(_scalar_hermitian(step), w, v)
            t = 1.0 if e.min() > -1.0 else 0.99 / -e.min()
            for _ in range(50):
                change = (t * (a @ step) - n @ np.log1p(t * r)
                          - mu * np.log1p(t * e).sum())
                if change <= -0.25 * t * decrement:
                    break
                t *= 0.5
            else:  # no decrease left at working precision
                break
            x = x + t * step
        if 4.0 * mu <= 1e-10 * n_total:
            return _scalar_hermitian(x), steps
        mu /= 100.0


def scalar_simulate_counts(rho, settings, total_pairs, rng):
    """Reference ``tomography.simulate_counts``: per setting in turn, its
    probability Tr[rho Pi_s] and one scalar Poisson draw from rng."""
    return [int(rng.poisson(max(total_pairs * tomography.setting_probability(rho, s), 0.0)))
            for s in settings]


def frank_wolfe_gap(ops, counts, rho):
    """Upper bound on the likelihood shortfall of rho (Frank-Wolfe gap).

    Scales rho to Tr[sigma A] = N, forms G = A - sum (n_s/lam_s) Pi_s and
    returns Tr[G sigma] - N lambda_min(G, A), the smallest generalised
    eigenvalue taken from scipy's pencil solver.
    """
    a_total = ops.sum(0)
    n_total = counts.sum()
    sigma = rho * (n_total / np.trace(rho @ a_total).real)
    lam = np.einsum("sij,ji->s", ops, sigma).real
    weights = np.divide(counts, lam, out=np.zeros_like(lam), where=counts > 0)
    g = a_total - np.einsum("s,sij->ij", weights, ops)
    return (np.trace(g @ sigma).real
            - n_total * eigh(g, a_total, eigvals_only=True)[0])


# Pass-by-pass dict mixer, the reference for ``fock``'s creation-operator
# expansion: each term's pair occupation expanded binomially on its own.

def _bs_expansion(m: int, n: int, t: float):
    """Image of (i^dag)^m (j^dag)^n under the two-mode mix, as a list of
    (photons in i, photons in j, amplitude) for normalised kets."""
    r = math.sqrt(max(0.0, 1.0 - t * t))
    ir = 1j * r
    norm = math.sqrt(math.factorial(m) * math.factorial(n))
    out = []
    for p in range(m + 1):
        for q in range(n + 1):
            k1 = p + q
            k2 = m + n - k1
            amp = (math.comb(m, p) * math.comb(n, q)
                   * (t ** (p + n - q)) * (ir ** (m - p + q))
                   * math.sqrt(math.factorial(k1) * math.factorial(k2)) / norm)
            if amp != 0:
                out.append((k1, k2, amp))
    return tuple(out)


def two_mode_mix(state: FockState, mode_i: int, mode_j: int,
                 transmissivity: float = 0.5) -> FockState:
    """Apply the beamsplitter creation-operator map to one mode pair.

    ``transmissivity`` is the intensity transmission T; t = sqrt(T).
    Photon number is conserved term by term, so the map is unitary on
    the truncated space.
    """
    if not 0.0 <= transmissivity <= 1.0:
        raise ContractError(f"transmissivity {transmissivity} outside [0, 1]")
    if mode_i == mode_j:
        raise ContractError("mode pair must be distinct")
    t = math.sqrt(transmissivity)
    out = {}
    for occ, amp in state.terms.items():
        m, n = occ[mode_i], occ[mode_j]
        if m == 0 and n == 0:
            out[occ] = out.get(occ, 0.0 + 0.0j) + amp
            continue
        for k1, k2, coeff in _bs_expansion(m, n, t):
            new = list(occ)
            new[mode_i] = k1
            new[mode_j] = k2
            new = tuple(new)
            out[new] = out.get(new, 0.0 + 0.0j) + amp * coeff
    return FockState(out, nmax=state.nmax, nmodes=state.nmodes)


def kraus_loss_channel(state, etas):
    """Reference per-mode loss by explicit Kraus branching.

    Enumerates every lost-photon tuple in lexicographic order and applies
    sqrt(C(n, l) eta^(n - l) (1 - eta)^l) to each term directly; returns
    ``(probability, normalised FockState)`` pairs, dropping branches below
    1e-18 weight.  Independent of the beamsplitter dilation in ``fock``.
    """
    etas = list(etas)
    max_occ = [max(occ[i] for occ in state.terms) for i in range(state.nmodes)]
    out = []
    for lost in itertools.product(*(range(m + 1) for m in max_occ)):
        terms = {}
        for occ, amp in state.terms.items():
            if any(l > n for n, l in zip(occ, lost)):
                continue
            coeff = 1.0
            for n, l, eta in zip(occ, lost, etas):
                coeff *= math.comb(n, l) * (eta ** (n - l)) * ((1.0 - eta) ** l)
            if coeff == 0.0:
                continue
            new = tuple(n - l for n, l in zip(occ, lost))
            terms[new] = terms.get(new, 0.0 + 0.0j) + amp * math.sqrt(coeff)
        if not terms:
            continue
        branch = FockState(terms, nmax=state.nmax, nmodes=state.nmodes)
        w = branch.norm_squared()
        if w > 1e-18:
            out.append((w, branch.normalized()))
    return out


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _apply_creation(terms, components):
    """Apply sum_k amp_k prod(a_dag over modes_k) to a sparse state."""
    out = {}
    for occ, amp in terms.items():
        for modes, coeff in components:
            new = list(occ)
            a = amp * coeff
            for m in modes:
                a *= math.sqrt(new[m] + 1)
                new[m] += 1
            key = tuple(new)
            out[key] = out.get(key, 0.0 + 0.0j) + a
    return out


def core_state(core_l, core_r):
    """Reference interfering-species state of both sources before any loss,
    on all sixteen modes of the swap layout, built one creation operator
    at a time on a sparse dict and normalised.

    Quantum-dot primaries split on the source beamsplitter (outer gets
    the transmitted H component and the reflected V component); SPDC
    pair operators create one outer and one inner photon in the
    polarisation-singlet combination."""
    terms = {(0,) * 16: 1.0 + 0.0j}
    for side, core in ((0, core_l), (1, core_r)):
        o_h, o_v = 2 * side, 2 * side + 1
        i_h, i_v = 4 + 2 * side, 5 + 2 * side
        for op in core:
            if op[0] == "s":
                if op[1] == 0:
                    comps = (((o_h,), _INV_SQRT2), ((i_h,), 1j * _INV_SQRT2))
                else:
                    comps = (((o_v,), 1j * _INV_SQRT2), ((i_v,), _INV_SQRT2))
            else:
                comps = (((o_h, i_v), _INV_SQRT2), ((o_v, i_h), -_INV_SQRT2))
            terms = _apply_creation(terms, comps)
    nmax = max(sum(occ) for occ in terms)
    return FockState(terms, nmax=nmax, nmodes=16).normalized()


def qubit_index(occ4):
    """Two-qubit basis index (H, V per arm) of an outer occupation with one
    photon in each arm; -1 otherwise."""
    if occ4[0] + occ4[1] != 1 or occ4[2] + occ4[3] != 1:
        return -1
    return 2 * occ4[1] + occ4[3]


def mixing_kernel(core_l, core_r):
    """Reference ``swap._kernel``: the core state run through ten
    sequential two-mode mixes (loss at eta = 1/2 onto each system mode's
    environment, then the midpoint pairs (4, 6) and (5, 7)).  Returns one
    tuple per term that some pattern does not veto: (amplitude, (kept,
    lost) photons of the arms oL, iL, oR, iR, outer occupation, qubit
    index, environment occupation, (pattern, sector) hits)."""
    state = core_state(core_l, core_r)
    for m in range(8):
        state = two_mode_mix(state, m, 8 + m, 0.5)
    state = two_mode_mix(state, 4, 6, 0.5)
    state = two_mode_mix(state, 5, 7, 0.5)
    n_l = sum(1 if op[0] == "s" else 2 for op in core_l)
    n_r = sum(1 if op[0] == "s" else 2 for op in core_r)
    terms = []
    for occ, amp in state.terms.items():
        hits = tuple((p_idx, (occ[m1], occ[m2]))
                     for p_idx, (m1, m2, _corr) in enumerate(swap._PATTERNS)
                     if not any(occ[m] for m in (4, 5, 6, 7)
                                if m not in (m1, m2)))
        out_l, out_r = occ[0] + occ[1], occ[2] + occ[3]
        lost = (occ[8] + occ[9], occ[12] + occ[13],
                occ[10] + occ[11], occ[14] + occ[15])
        kept = (out_l, n_l - out_l - lost[0] - lost[1],
                out_r, n_r - out_r - lost[2] - lost[3])
        if hits:
            terms.append((amp, tuple(zip(kept, lost)), occ[:4],
                          qubit_index(occ[:4]), occ[8:], hits))
    return tuple(terms)


def branch_sector_blocks(core_l, core_r, eta_out_l, eta_in_l, eta_out_r,
                         eta_in_r):
    """Reference ``swap._sector_blocks``: Kraus loss branches on the eight
    system modes, each normalised, mixed on the midpoint beamsplitter and
    grouped on its own, then re-weighted by its probability."""
    core = core_state(core_l, core_r)
    state = FockState({occ[:8]: amp for occ, amp in core.terms.items()},
                      nmax=core.nmax, nmodes=8)
    etas = (eta_out_l, eta_out_l, eta_out_r, eta_out_r,
            eta_in_l, eta_in_l, eta_in_r, eta_in_r)
    blocks = {i: {} for i in range(len(swap._PATTERNS))}
    for weight, branch in kraus_loss_channel(state, etas):
        mixed = two_mode_mix(branch, 4, 6, 0.5)
        mixed = two_mode_mix(mixed, 5, 7, 0.5)
        for p_idx, (m1, m2, _corr) in enumerate(swap._PATTERNS):
            groups = {}
            for occ, amp in mixed.terms.items():
                if any(occ[m] > 0 for m in swap._CLICK_MODES
                       if m not in (m1, m2)):
                    continue
                outer = groups.setdefault((occ[m1], occ[m2]), {})
                outer[occ[:4]] = outer.get(occ[:4], 0.0 + 0.0j) + amp
            for sector, outer in groups.items():
                coh, occ_dist = blocks[p_idx].setdefault(
                    sector, [np.zeros((4, 4), dtype=complex), {}])
                v4 = np.zeros(4, dtype=complex)
                for occ4, amp in outer.items():
                    occ_dist[occ4] = (occ_dist.get(occ4, 0.0)
                                      + weight * abs(amp) ** 2)
                    idx = qubit_index(occ4)
                    if idx >= 0:
                        v4[idx] += amp
                coh += weight * np.outer(v4, v4.conj())
    return blocks


# Dict routing path, the reference for the swap model's routing arrays: a
# routing table maps (added counts on detectors 1 and 2, added outer
# occupations) to a weight, and the pattern pass walks every entry.

_POL_OF_MODE = {4: 0, 5: 1, 6: 0, 7: 1}
_NO_ROUTE = (0, 0, (0, 0, 0, 0))  # routing key: no click, no outer photon
_SIGMA_Z_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


def _convolve(a: dict, b: dict) -> dict:
    """Join the routing tables of two independent photon groups.  A routing
    table maps (added counts on detectors 1 and 2, added outer occupations)
    to a weight; weights multiply, counts and occupations add."""
    out: dict = {}
    for (k1, k2, occ), w in a.items():
        for (d1, d2, add), v in b.items():
            key = (k1 + d1, k2 + d2, (occ[0] + add[0], occ[1] + add[1],
                                      occ[2] + add[2], occ[3] + add[3]))
            out[key] = out.get(key, 0.0) + w * v
    return out


def _side_tables(scenario, side: int) -> dict:
    """Routing tables of one source's classical photons, pooled over its
    emission branches by core structure: core -> one weighted table per
    pattern.  Clicks outside the pattern kill the branch and are omitted;
    an in-line photon can click only the pattern detector of its own
    polarisation.  Broadband photons are absorbed by the midpoint line
    filter, so their only surviving route is an outer node."""
    eta_out, eta_in = scenario.eta_collect, scenario.eta_inner
    tables: dict = {}
    for w, core, classical in swap._side_branches(scenario):
        pooled = tables.setdefault(core, [{} for _ in swap._PATTERNS])
        for (m1, _m2, _corr), acc in zip(swap._PATTERNS, pooled):
            routes = {_NO_ROUTE: w}
            for pol, in_line in classical:
                outer = tuple(int(m == 2 * side + pol) for m in range(4))
                photon = {(0, 0, outer): 0.5 * eta_out,
                          _NO_ROUTE: 1.0 - 0.5 * eta_out
                          - (0.5 * eta_in if in_line else 0.0)}
                if in_line:  # the pattern's detectors are cross-polarised
                    hit = int(_POL_OF_MODE[m1] == pol)
                    photon[(hit, 1 - hit, (0, 0, 0, 0))] = 0.25 * eta_in
                routes = _convolve(routes, photon)
            for key, v in routes.items():
                acc[key] = acc.get(key, 0.0) + v
    return tables


def _accepted(k1: int, k2: int, pnr: bool) -> bool:
    if pnr:
        return k1 == 1 and k2 == 1
    return k1 >= 1 and k2 >= 1


def _arm_probs(h: int, v: int, pnr: bool):
    """Polarisation-read probabilities (pH, pV) for one outer arm, or
    None when the arm is rejected.  Number-resolving nodes veto
    anything but a single photon; threshold nodes accept multi-photon
    arrivals but the read-out carries no usable correlation, so the arm
    reads as a random polarisation."""
    n = h + v
    if n == 1:
        return (1.0, 0.0) if h == 1 else (0.0, 1.0)
    if pnr or n == 0:
        return None
    return (0.5, 0.5)


def _pattern_state(blocks, combos_by_pattern, pnr: bool):
    """Accumulate the corrected heralded two-qubit operator (unnormalised)
    of one core-structure pair, its routing tables already weighted."""
    rho = np.zeros((4, 4), dtype=complex)
    for p_idx, (m1, m2, corr) in enumerate(swap._PATTERNS):
        coh_acc = np.zeros((4, 4), dtype=complex)
        diag_acc = np.zeros(4)
        combos = combos_by_pattern[p_idx]
        for (k1, k2), (coh, occ_dist) in blocks[p_idx].items():
            for (d1, d2, dout), cw in combos.items():
                if not _accepted(k1 + d1, k2 + d2, pnr):
                    continue
                if dout == (0, 0, 0, 0):
                    coh_acc += cw * coh
                clean = dout == (0, 0, 0, 0)
                for occ4, prob in occ_dist.items():
                    tot = (occ4[0] + dout[0], occ4[1] + dout[1],
                           occ4[2] + dout[2], occ4[3] + dout[3])
                    if clean and qubit_index(tot) >= 0:
                        continue  # single-photon arms, inside coh
                    # A distinguishable or supernumerary photon at a
                    # node decoheres that arm; the event contributes
                    # classically.
                    pl = _arm_probs(tot[0], tot[1], pnr)
                    pr = _arm_probs(tot[2], tot[3], pnr)
                    if pl is None or pr is None:
                        continue
                    for lv in (0, 1):
                        for rv in (0, 1):
                            diag_acc[2 * lv + rv] += \
                                cw * prob * pl[lv] * pr[rv]
        block = coh_acc + np.diag(diag_acc)
        if corr:
            block = block * np.outer(_SIGMA_Z_SIGNS, _SIGMA_Z_SIGNS)
        rho += block
    return rho


def pooled_heralded_state(left, right):
    """Reference ``swap.heralded_state`` on the dict routing path: each
    source's routing tables pooled by core structure and joined per
    pattern, with the sector blocks of ``branch_sector_blocks``."""
    etas = (left.eta_collect, left.eta_inner, right.eta_collect,
            right.eta_inner)
    rho = np.zeros((4, 4), dtype=complex)
    tables_r = _side_tables(right, 1)
    for core_l, routes_l in _side_tables(left, 0).items():
        for core_r, routes_r in tables_r.items():
            blocks = branch_sector_blocks(core_l, core_r, *etas)
            combos = [_convolve(a, b) for a, b in zip(routes_l, routes_r)]
            rho += _pattern_state(blocks, combos, left.pnr)
    return rho, float(np.trace(rho).real)


def _joint_profile_combos(classical_l, classical_r, pattern, etas_l, etas_r):
    """Routing outcomes of both sides' distinguishable photons for one
    pattern, folded photon by photon: weight by (added count on detector
    1, on detector 2, added outer occupations)."""
    m1, m2, _ = pattern
    combos = {(0, 0, (0, 0, 0, 0)): 1.0}
    photons = [(0, ph, etas_l) for ph in classical_l] + \
              [(1, ph, etas_r) for ph in classical_r]
    for side, (pol, in_line), (eta_out, eta_in) in photons:
        eta_click = eta_in if in_line else 0.0
        options = [((0, 0, (0, 0, 0, 0)),
                    1.0 - 0.5 * eta_out - 0.5 * eta_click)]
        outer = [0, 0, 0, 0]
        outer[2 * side + pol] = 1
        options.append(((0, 0, tuple(outer)), 0.5 * eta_out))
        if _POL_OF_MODE[m1] == pol and in_line:
            options.append(((1, 0, (0, 0, 0, 0)), 0.25 * eta_in))
        if _POL_OF_MODE[m2] == pol and in_line:
            options.append(((0, 1, (0, 0, 0, 0)), 0.25 * eta_in))
        new = {}
        for (k1, k2, dout), w in combos.items():
            for (d1, d2, add), ow in options:
                key = (k1 + d1, k2 + d2,
                       tuple(a + b for a, b in zip(dout, add)))
                new[key] = new.get(key, 0.0) + w * ow
        combos = new
    return combos


def joint_profile_heralded_state(left, right):
    """Reference ``swap.heralded_state``: every emission branch of the left
    source paired with every branch of the right one, grouped by core
    structure, with the routing table of each joint classical profile
    built from both sides' photons and the dict pattern pass run per
    profile on the sector blocks of ``branch_sector_blocks``."""
    etas_l = (left.eta_collect, left.eta_inner)
    etas_r = (right.eta_collect, right.eta_inner)
    pool = {}
    for w_l, core_l, cl_l in swap._side_branches(left):
        for w_r, core_r, cl_r in swap._side_branches(right):
            profiles = pool.setdefault((core_l, core_r), {})
            profiles[(cl_l, cl_r)] = profiles.get((cl_l, cl_r), 0.0) \
                + w_l * w_r
    rho = np.zeros((4, 4), dtype=complex)
    for (core_l, core_r), profiles in pool.items():
        blocks = branch_sector_blocks(core_l, core_r, *etas_l, *etas_r)
        for (cl_l, cl_r), w in profiles.items():
            combos = [_joint_profile_combos(cl_l, cl_r, pat, etas_l, etas_r)
                      for pat in swap._PATTERNS]
            rho += w * _pattern_state(blocks, combos, left.pnr)
    return rho, float(np.trace(rho).real)


def eigh_pump_search(scenario, floor, configs=None):
    """Reference ``swap._pump_search`` against ``floor``: every
    monotonicity-grid point and bisection step decided on the full singlet
    fraction, one ``TwoQubitDensity`` and one ``eigh`` each."""
    if scenario.source_kind == "qd_postselected":
        raise ContractError("pump optimisation applies to SPDC sources")
    if configs is None:
        configs = swap._pair_configs(scenario)

    def evaluate(p1):
        probs = swap._spdc_numbers(p1, scenario.spdc_statistics, scenario.mux_n)
        return swap._heralded(sum(probs[n_l] * probs[n_r] * block
                                  for (n_l, n_r), block in configs.items()))

    lo = 1e-6
    hi = photostat.SPDC_P1_CEILING[scenario.spdc_statistics] * (1.0 - 1e-9)
    f_lo, herald_lo = evaluate(lo)
    if f_lo < floor:
        raise ModelDomainError(
            f"fidelity floor {floor} unattainable: even at vanishing pump "
            f"the swap fidelity is {f_lo:.6g}")
    f_hi, herald_hi = evaluate(hi)
    grid = np.geomspace(lo, hi, 9)
    values = [f_lo] + [evaluate(p)[0] for p in grid[1:-1]] + [f_hi]
    for a, b in zip(values, values[1:]):
        if b > a + 1e-6:
            raise NumericalError("swap fidelity is not monotone in the "
                                 "pair probability over the bracket")
    if f_hi >= floor:
        return hi, herald_hi
    while (hi - lo) / hi > 1e-4:
        mid = 0.5 * (lo + hi)
        f_mid, herald_mid = evaluate(mid)
        if f_mid >= floor:
            lo, herald_lo = mid, herald_mid
        else:
            hi = mid
    return lo, herald_lo


def picked_times(stream, channel):
    """Reference channel pick: a boolean index on the packed records."""
    return stream.records["t"][stream.records["channel"] == channel]


def all_pairs_histogram(stream, ch_a, ch_b, bin_ps, span_ps):
    """Reference ``timetag.coincidence_histogram``: every (a, b) pair in
    the span at once, by binary search, then ``np.histogram``."""
    ta = picked_times(stream, ch_a)
    tb = picked_times(stream, ch_b)
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


def sorting_pair_counts(stream):
    """Reference ``timetag.pair_counts``: per arm, ``np.unique`` keeps the
    slots with exactly one record, ``intersect1d`` pairs the arms and
    ``np.add.at`` tallies the outcomes."""
    t0 = stream.t_zero_ps or 0
    period = stream.period_ps
    ch = stream.records["channel"]
    t = stream.records["t"].astype(np.float64)
    slot = np.rint((t - t0) / period).astype(np.int64)

    def arm(side):
        mask = (ch == 2 * side) | (ch == 2 * side + 1)
        slots, outs = slot[mask], ch[mask] - 2 * side
        uniq, first, count = np.unique(slots, return_index=True, return_counts=True)
        good = count == 1
        return uniq[good], outs[first[good]]

    sc, oc = arm(0)
    sd, od = arm(1)
    common, ic, idx = np.intersect1d(sc, sd, return_indices=True)
    out = np.zeros((2, 2), dtype=np.int64)
    np.add.at(out, (oc[ic], od[idx]), 1)
    return out


def copying_temporal_filter(stream, window):
    """Reference ``timetag.apply_temporal_filter``: the window test written
    out on a float64 copy of the times."""
    t = stream.records["t"].astype(np.float64)
    phase = np.mod(t - stream.t_zero_ps - window.t_on_ps, stream.period_ps)
    return dataclasses.replace(stream, records=stream.records[phase < window.length_ps])


def copying_filter_sweep(t_on_grid_ps, params, t_off_margin_ps=45.0):
    """Reference ``timetag.filter_fidelity_sweep``: all 36 streams kept,
    and each window applied as a filtered copy of every stream before it
    is counted by ``sorting_pair_counts``."""
    settings = tomography.standard_settings()
    streams = []
    for i, s in enumerate(settings):
        child = int(np.random.SeedSequence([params.seed, i]).generate_state(1)[0])
        streams.append(timetag.synthesize_stream(dataclasses.replace(
            params, analysis=(s.label1, s.label2), seed=child)))
    period = streams[0].period_ps
    base_total = int(sum(int(sorting_pair_counts(st).sum()) for st in streams))
    points = []
    for t_on in t_on_grid_ps:
        window = timetag.FilterWindow(float(t_on), period - t_off_margin_ps)
        records = []
        total = 0
        for st, s in zip(streams, settings):
            m = sorting_pair_counts(copying_temporal_filter(st, window))
            records.append(tomography.CountRecord(s, int(m[0, 0])))
            total += int(m.sum())
        rho, _ = tomography.mle_reconstruct(records)
        sf = twoqubit.singlet_fraction(rho).value
        points.append(timetag.FilterSweepPoint(float(t_on), sf, total,
                                               total / base_total))
    return points
