"""Photon-number statistics and the efficiency/rate budget of the source.

Covers three things: (i) the per-pulse photon-number distribution, a
plain tuple of probabilities P_0 .. P_k, of a pulsed quantum emitter
parameterised by its second-order correlation g2, and of a parametric
pair source parameterised by its single-pair probability; (ii) the
per-pulse detection-outcome probabilities behind the weighted-fidelity
model; (iii) the conversion between the measured optical-loss budget and
the entangled-pair rate, both forward (from the emitter) and backward
(from detected coincidences).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError, ContractError, ModelDomainError, check_ranges


def qd_distribution_from_g2(g2: float) -> tuple:
    """Per-pulse photon-number probabilities (P_0, P_1, P_2) of a pulsed
    single-photon emitter with two-photon component g2.

    Mapping: P_2 = g2/2, P_1 = 1 - g2, P_0 = g2/2.  The mean is then
    exactly 1 and sum n (n - 1) P_n = g2, so the pulsed g2 of the
    distribution, <n(n-1)>/<n>^2, is the input.  Valid for g2 < 0.5.
    """
    check_ranges(ModelDomainError, {"g2": "[0, 0.5)"}, g2=g2)
    return (g2 / 2.0, 1.0 - g2, g2 / 2.0)


# Largest single-pair probability each pair-number statistics can produce:
# the maximum of (1 - lam) lam and of nu e^{-nu}.
SPDC_P1_CEILING = {"thermal": 0.25, "poissonian": math.exp(-1.0)}


def spdc_pair_distribution(pair_prob: float, statistics: str = "thermal",
                           max_pairs: int = 4) -> tuple:
    """Pair-number probabilities (P_0 .. P_max_pairs) of a parametric source
    with P_1 = pair_prob.

    ``thermal`` inverts P_1 = (1 - lam) lam for the small root
    lam = (1 - sqrt(1 - 4 p)) / 2 (single-mode statistics);
    ``poissonian`` inverts nu e^{-nu} = p for the small root
    nu = -W0(-p), with W0 the principal Lambert W branch (strongly
    multimode statistics).  P_1 must lie in (0, SPDC_P1_CEILING].  The
    result is truncated at ``max_pairs`` pairs and renormalised.
    """
    check_ranges(ContractError, {"max_pairs": "int [1, inf)"}, max_pairs=max_pairs)
    if statistics not in SPDC_P1_CEILING:
        raise ContractError(f"unknown statistics {statistics!r}")
    ceiling = SPDC_P1_CEILING[statistics]
    check_ranges(ModelDomainError, {"pair_prob": f"(0, {ceiling!r}]"}, pair_prob=pair_prob)
    if statistics == "thermal":
        lam = (1.0 - math.sqrt(1.0 - 4.0 * pair_prob)) / 2.0
        raw = [(1.0 - lam) * lam ** n for n in range(max_pairs + 1)]
    else:
        from scipy.special import lambertw

        # math.exp(-1) rounds just past the branch point -1/e of W0, where
        # lambertw returns nan; the root there is nu = 1.
        nu = 1.0 if pair_prob == ceiling else float(-lambertw(-pair_prob).real)
        raw = [math.exp(-nu) * nu ** n / math.factorial(n)
               for n in range(max_pairs + 1)]
    total = sum(raw)
    return tuple(x / total for x in raw)


def detection_outcomes(probs, eta: float) -> tuple:
    """Detection-outcome probabilities (X_2, X_Q, X_B, X_0) of a pulse with
    photon-number probabilities ``probs`` = (P_0, P_1, P_2) passing a total
    transmission ``eta``: both emitted photons detected, the intended single
    photon detected alone, only the extra (background) photon detected, and
    nothing detected.

        X_2 = P_2 eta^2
        X_Q = P_1 eta + P_2 eta (1 - eta)
        X_B = P_2 eta (1 - eta)
        X_0 = P_0 + P_1 (1 - eta) + P_2 (1 - eta)^2

    which sum to one exactly.  A distribution is checked here, where it
    enters: each entry must be a number in [0, 1], the entries must sum to
    1 within 1e-9 and none past P_2 may carry weight, else ContractError.
    """
    named = {f"probs[{i}]": p for i, p in enumerate(probs)}
    check_ranges(ContractError, {"eta": "[0, 1]", **dict.fromkeys(named, "[0, 1]")},
                 eta=eta, **named)
    p = tuple(named.values())
    if abs(sum(p) - 1.0) > 1e-9:
        raise ContractError(f"probs sum to {sum(p)!r}, expected 1")
    if any(p[3:]):
        raise ContractError("detection_outcomes requires support on at most 2 photons")
    p0, p1, p2 = (p + (0.0, 0.0))[:3]
    return (p2 * eta ** 2,
            p1 * eta + p2 * eta * (1.0 - eta),
            p2 * eta * (1.0 - eta),
            p0 + p1 * (1.0 - eta) + p2 * (1.0 - eta) ** 2)


@dataclass(frozen=True)
class Efficiency:
    """A transmission (or detection) efficiency with 1-sigma uncertainty."""

    value: float
    sigma: float = 0.0

    INTERVALS = {"value": "(0, 1]", "sigma": "[0, inf)"}

    def __post_init__(self):
        check_ranges(ContractError, self.INTERVALS, **vars(self))


@dataclass(frozen=True)
class EfficiencyChain:
    """The loss budget of the source, split by optical role.

    Components before the output coupler act on both photons of a pair
    (squared in the rate), except the two interferometer arms which act
    on one photon each.  Per-arm analysis components (tomography optics,
    fibre coupling, detector) sit after the coupler and are indexed by
    output arm.
    """

    source: Efficiency
    switch: tuple                 # routing optics traversed by every photon
    long_arm: Efficiency          # delayed interferometer arm
    short_arm: Efficiency
    output_coupler: Efficiency    # recombination beamsplitter, per photon
    tomography: tuple             # per analysis arm
    fiber: tuple                  # per analysis arm
    detector: tuple               # per analysis arm

    def __post_init__(self):
        for name, many in _ROLES.items():
            val = getattr(self, name)
            if many and not (isinstance(val, tuple)
                             and all(isinstance(e, Efficiency) for e in val)):
                raise ContractError(f"{name} must be a tuple of Efficiency values")
        if len(self.tomography) != 2 or len(self.fiber) != 2 or len(self.detector) != 2:
            raise ContractError("per-arm roles need exactly two entries")
        if not self.switch:
            raise ContractError("switch chain must not be empty")

    @property
    def switch_product(self) -> float:
        out = 1.0
        for e in self.switch:
            out *= e.value
        return out

    def arm_efficiency(self, arm: int) -> float:
        """Post-coupler transmission of one analysis arm (0 or 1)."""
        if arm not in (0, 1):
            raise ContractError("arm must be 0 or 1")
        return (self.tomography[arm].value * self.fiber[arm].value
                * self.detector[arm].value)

    @classmethod
    def measured(cls) -> "EfficiencyChain":
        """The measured loss budget of the experiment this model follows."""
        return cls(
            source=Efficiency(0.49, 0.03),
            switch=(Efficiency(0.83, 0.02),    # fibre mating sleeve + paddles
                    Efficiency(0.97, 0.002),   # lens pair
                    Efficiency(0.997, 0.002),  # intensity modulator
                    Efficiency(0.988, 0.002)), # splitting PBS
            long_arm=Efficiency(0.913, 0.005),
            short_arm=Efficiency(0.987, 0.005),
            output_coupler=Efficiency(0.90, 0.01),
            tomography=(Efficiency(0.90, 0.01), Efficiency(0.90, 0.01)),
            fiber=(Efficiency(0.50, 0.02), Efficiency(0.536, 0.02)),
            detector=(Efficiency(0.90, 0.03), Efficiency(0.78, 0.03)),
        )

    def to_dict(self) -> dict:
        def enc(e):
            return [e.value, e.sigma]
        return {name: [enc(e) for e in getattr(self, name)] if many
                else enc(getattr(self, name)) for name, many in _ROLES.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "EfficiencyChain":
        unknown = set(data) - set(_ROLES)
        if unknown:
            raise ConfigError(f"unknown efficiency roles {sorted(unknown)}")
        missing = set(_ROLES) - set(data)
        if missing:
            raise ConfigError(f"missing efficiency roles {sorted(missing)}")

        def dec(v):
            if not isinstance(v, (list, tuple)) or len(v) != 2:
                raise ConfigError(f"efficiency entries are [value, sigma], got {v!r}")
            return Efficiency(float(v[0]), float(v[1]))

        try:
            return cls(**{name: tuple(dec(v) for v in data[name]) if many
                          else dec(data[name]) for name, many in _ROLES.items()})
        except ContractError as exc:
            raise ConfigError(str(exc)) from exc


# Each role of an EfficiencyChain, in field order: is it a tuple of Efficiency values.
_ROLES = {f.name: f.type in ("tuple", tuple) for f in dataclasses.fields(EfficiencyChain)}


def forward_rate(chain: EfficiencyChain, rep_rate_hz: float):
    """Entangled-pair rate at the output coupler, and its 1-sigma uncertainty.

    Pairs are attempted every second pulse and post-selected with
    probability 1/2, so

        R_E = (R_L / 4) * eta_src^2 * eta_switch^2
              * eta_long * eta_short * eta_coupler^2

    The uncertainty is first-order propagation of the per-component
    1-sigma values through the product.
    """
    check_ranges(ContractError, {"rep_rate_hz": "(0, inf)"}, rep_rate_hz=rep_rate_hz)
    rate = (rep_rate_hz / 4.0
            * chain.source.value ** 2
            * chain.switch_product ** 2
            * chain.long_arm.value
            * chain.short_arm.value
            * chain.output_coupler.value ** 2)
    rel_sq = (2.0 * chain.source.sigma / chain.source.value) ** 2
    rel_sq += sum((2.0 * e.sigma / e.value) ** 2 for e in chain.switch)
    rel_sq += (chain.long_arm.sigma / chain.long_arm.value) ** 2
    rel_sq += (chain.short_arm.sigma / chain.short_arm.value) ** 2
    rel_sq += (2.0 * chain.output_coupler.sigma / chain.output_coupler.value) ** 2
    return rate, rate * math.sqrt(rel_sq)


def back_propagate_rate(measured_pair_rate_hz: float, chain: EfficiencyChain) -> float:
    """Infer the pair rate at the output coupler from detected coincidences.

    Divides the measured coincidence rate by the product of both
    analysis arms' post-coupler transmissions.
    """
    check_ranges(ContractError, {"measured_pair_rate_hz": "[0, inf)"},
                 measured_pair_rate_hz=measured_pair_rate_hz)
    return measured_pair_rate_hz / (chain.arm_efficiency(0) * chain.arm_efficiency(1))
