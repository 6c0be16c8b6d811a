"""Temporal-mode model of the emitted photons and closed-form fidelity models.

The single-photon wavepacket is the convolution of a Gaussian excitation
pulse (width w_p) with an exponential radiative decay (lifetime T1):
an exponentially modified Gaussian in time.  Working in units of w_p
the profile depends only on K = T1 / w_p.  The temporal overlap of two
such wavepackets offset by a delay drives the indistinguishability and
hence the post-selected entanglement fidelity; the photon-number
background (g2) reduces the fidelity further through a weighted mixture
of post-selected outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import photostat
from .errors import ContractError, ModelDomainError, NumericalError, check_ranges


@dataclass(frozen=True)
class WavepacketParams:
    """Temporal parameters of the emitted single-photon wavepacket."""

    t1_ps: float = 60.0          # radiative lifetime
    pulse_width_ps: float = 5.0  # Gaussian excitation pulse width (1 sigma)
    i0: float = 1.0              # residual indistinguishability at zero offset

    INTERVALS = {"t1_ps": "(0, inf)", "pulse_width_ps": "(0, inf)", "i0": "[0, 1]"}

    def __post_init__(self):
        check_ranges(ContractError, self.INTERVALS, **vars(self))

    @property
    def k(self) -> float:
        return self.t1_ps / self.pulse_width_ps


def profile_dimensionless(t, k: float):
    """Wavepacket intensity f(t, K) in time units of the pulse width.

        f(t, K) = (1/2K) exp(1/(2K^2) - t/K) erfc((1/K - t) / sqrt(2))

    normalised to unit integral.  Evaluated through the scaled
    complementary error function on the leading (t < 1/K) side so the
    Gaussian turn-on tail underflows gracefully instead of overflowing.
    """
    check_ranges(ContractError, {"k": "(0, inf)"}, k=k)
    return _profile(t, k)


def _profile(t, k: float):
    """``profile_dimensionless`` without its check, for a K checked already."""
    # Imported here so that importing qdpair loads no scipy.  quad calls this
    # twice per integrand point, and this form, unlike `from ... import`,
    # repeats without a from-list lookup.
    import scipy.special as special

    t = np.asarray(t, dtype=float)
    z = (1.0 / k - t) / math.sqrt(2.0)
    out = np.empty_like(t)
    lead = z > 0.0
    # exp(1/(2K^2) - t/K) erfc(z) = erfcx(z) exp(-t^2/2) when z > 0
    out[lead] = special.erfcx(z[lead]) * np.exp(-0.5 * t[lead] ** 2)
    tail = ~lead
    out[tail] = np.exp(1.0 / (2.0 * k ** 2) - t[tail] / k) * special.erfc(z[tail])
    out /= 2.0 * k
    if out.ndim == 0:
        return float(out)
    return out


def intensity_profile(t_ps, params: WavepacketParams):
    """Wavepacket intensity density (1/ps) at lab time t_ps."""
    w = params.pulse_width_ps
    return profile_dimensionless(np.asarray(t_ps, dtype=float) / w, params.k) / w


def _support(k: float) -> tuple:
    """Dimensionless interval outside which f is negligible (< 1e-9 tail)."""
    return (-10.0, k * math.log(1e9))


def temporal_overlap(tau_ps: float, params: WavepacketParams) -> float:
    """Normalised temporal overlap O(tau) of two identical wavepackets
    offset by tau_ps.

    The amplitude overlap is computed with amplitude = sqrt(intensity)
    and flat phase; O is the squared modulus of that overlap.
    O(0) = 1, O is even, O -> 0 for large offsets.
    """
    from scipy.integrate import quad

    check_ranges(ContractError, {"tau_ps": "(-inf, inf)"}, tau_ps=tau_ps)
    k = params.k
    delta = tau_ps / params.pulse_width_ps
    lo, hi = _support(k)
    a = lo + min(0.0, delta)
    b = hi + max(0.0, delta)

    def integrand(u):
        return math.sqrt(_profile(u, k) * _profile(u - delta, k))

    pts = [p for p in (0.0, delta) if a < p < b]
    val, err = quad(integrand, a, b, points=pts or None,
                    epsabs=1e-12, epsrel=1e-8, limit=400)
    if err > max(1e-9, 1e-6 * abs(val)):
        raise NumericalError(
            f"overlap quadrature did not converge: value {val}, error estimate {err}")
    val = min(max(val, 0.0), 1.0)
    return val * val


def indistinguishability_vs_offset(tau_ps: float, params: WavepacketParams) -> float:
    """Two-photon indistinguishability I(tau) = I0 * O(tau)."""
    return params.i0 * temporal_overlap(tau_ps, params)


def fidelity_from_indistinguishability(indistinguishability: float) -> float:
    """Post-selected entangled-state fidelity F = (1 + I) / 2."""
    check_ranges(ContractError, {"indistinguishability": "[0, 1]"},
                 indistinguishability=indistinguishability)
    return (1.0 + indistinguishability) / 2.0


def calibrate_i0(fidelity_at_zero: float) -> float:
    """Invert F = (1 + I0)/2 for the zero-offset fidelity anchor."""
    check_ranges(ModelDomainError, {"fidelity_at_zero": "[0.5, 1]"},
                 fidelity_at_zero=fidelity_at_zero)
    return 2.0 * fidelity_at_zero - 1.0


def postselected_weights(g2: float, eta: float = 0.05) -> tuple:
    """Relative weights of the post-selected outcome classes.

    Given the per-pulse detection outcomes (X_2, X_Q, X_B, X_0) of each
    arm, as ``photostat.detection_outcomes`` returns them for the emitter's
    photon-number probabilities at ``g2``, a registered coincidence is the entangled signal-signal outcome
    with probability P(rho_Q) = X_Q^2 / 2, a same-pulse two-photon event
    P(rho_B0) = X_2 X_0, or a signal-background or background-background
    event P(rho_Bhalf) = X_Q X_B + X_B^2 / 2.  Returns the three weights
    normalised to unit sum, ordered (signal, background_half, background_zero).
    """
    x_two, x_signal, x_background, x_none = photostat.detection_outcomes(
        photostat.qd_distribution_from_g2(g2), eta)
    p_q = 0.5 * x_signal ** 2
    p_b_half = x_signal * x_background + 0.5 * x_background ** 2
    p_b_zero = x_two * x_none
    total = p_q + p_b_half + p_b_zero
    if total <= 0.0:
        raise ModelDomainError("no post-selected events at these parameters")
    return (p_q / total, p_b_half / total, p_b_zero / total)


def fidelity_vs_g2(indistinguishability: float, g2: float, eta: float = 0.05) -> float:
    """Weighted post-selected fidelity including the g2 background.

        F = [P(rho_Q) (1+I)/2 + P(rho_Bhalf) / 2]
            / [P(rho_Q) + P(rho_Bhalf) + P(rho_B0)]
    """
    check_ranges(ContractError, {"indistinguishability": "[0, 1]", "eta": "(0, 1]"},
                 indistinguishability=indistinguishability, eta=eta)
    p_q, p_b_half, _ = postselected_weights(g2, eta)
    return p_q * (1.0 + indistinguishability) / 2.0 + p_b_half * 0.5


def offset_curve(taus_ps, params: WavepacketParams):
    """Sweep of (tau, indistinguishability, fidelity) over delay offsets."""
    taus = np.asarray(taus_ps, dtype=float)
    ind = np.array([indistinguishability_vs_offset(t, params) for t in taus])
    fid = (1.0 + ind) / 2.0
    return taus, ind, fid


def g2_curve(g2_values, indistinguishability: float, eta: float = 0.05):
    """Sweep of (g2, fidelity) at fixed indistinguishability."""
    g2s = np.asarray(g2_values, dtype=float)
    fid = np.array([fidelity_vs_g2(indistinguishability, g, eta) for g in g2s])
    return g2s, fid
