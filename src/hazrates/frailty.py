"""Frailty-marginalized hazards and the survivor-selection effect.

An unobserved positive factor Z multiplies a subject's death hazard:
given Z = z and treatment path a(.), the hazard is z * h(t, a(t)).
Averaging over survivors turns this into the observable hazard

    lambda(t | path) = m(H(t)) * h(t, a(t)),
    m(s) = -phi'(s) / phi(s),
    H(t) = integral of h(s, a(s)) ds over [0, t],

where phi is the Laplace transform of Z and H is ``TreatmentPath.load``,
the along-path integral potential survival uses.  The factor m(H) is
the mean frailty among survivors of the load H, so the marginal hazard
remembers treatment history through H except when Z is degenerate
(phi(s) = exp(-c s) gives m == c).
That selection effect, not any lagged biology, is what breaks the
Markov property; the two-period enumeration in ``collider_table``
isolates it in the smallest possible example.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .grid import NODE_TOL, GridFunction, cumulative
from .kernels import MarkovKernel
from .model import TreatmentPath

__all__ = [
    "FrailtySpec",
    "DegenerateFrailty",
    "GammaFrailty",
    "TreatmentPath",
    "ConditionalHazardSpec",
    "marginal_hazard",
    "markov_violation_gap",
    "invert_rate_to_h",
    "ColliderScenario",
    "collider_table",
]

class FrailtySpec(ABC):
    """Distribution of the positive multiplicative frailty Z.

    A frailty is characterized by its Laplace transform
    phi(s) = E[exp(-Z s)]; the marginalization formulas need its
    inverse and the survivor mean -phi'/phi, both in closed form.
    """

    @abstractmethod
    def laplace(self, s):
        """phi(s) for scalar or array s >= 0."""

    @abstractmethod
    def laplace_inverse(self, p):
        """s with phi(s) = p, defined for p in (0, 1]."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n frailty values."""

    @abstractmethod
    def conditional_mean(self, s):
        """Mean frailty among survivors of integrated load s: -phi'(s)/phi(s)."""

    def check_inverse_domain(self, p) -> None:
        p_arr = np.asarray(p, dtype=float)
        if np.any(p_arr <= 0) or np.any(p_arr > 1):
            raise ValueError("laplace_inverse argument must lie in (0, 1]")


@dataclass(frozen=True)
class DegenerateFrailty(FrailtySpec):
    """Point mass at ``value``; the only frailty without selection.

    With phi(s) = exp(-value * s) the survivor mean is constant, so the
    marginal hazard depends on the path only through the current level:
    the Markov case.
    """

    value: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.value) and self.value > 0):
            raise ValueError(f"value must be positive, got {self.value!r}")

    def laplace(self, s):
        return np.exp(-self.value * np.asarray(s, dtype=float))

    def laplace_inverse(self, p):
        self.check_inverse_domain(p)
        return -np.log(np.asarray(p, dtype=float)) / self.value

    def conditional_mean(self, s):
        s_arr = np.asarray(s, dtype=float)
        out = np.full(s_arr.shape, self.value)
        return float(self.value) if s_arr.ndim == 0 else out

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value)


@dataclass(frozen=True)
class GammaFrailty(FrailtySpec):
    """Gamma frailty with mean 1 and the given variance.

    phi(s) = (1 + variance * s)^(-1/variance); the survivor mean is
    1 / (1 + variance * s), strictly decreasing in the load.
    """

    variance: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.variance) and self.variance > 0):
            raise ValueError(f"variance must be positive, got {self.variance!r}")

    def laplace(self, s):
        v = self.variance
        return (1.0 + v * np.asarray(s, dtype=float)) ** (-1.0 / v)

    def laplace_inverse(self, p):
        self.check_inverse_domain(p)
        v = self.variance
        out = (np.asarray(p, dtype=float) ** (-v) - 1.0) / v
        return float(out) if out.ndim == 0 else out

    def conditional_mean(self, s):
        out = 1.0 / (1.0 + self.variance * np.asarray(s, dtype=float))
        return float(out) if out.ndim == 0 else out

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        shape = 1.0 / self.variance
        return rng.gamma(shape, self.variance, size=n)


@dataclass(frozen=True)
class ConditionalHazardSpec:
    """Frailty-conditional death hazard h(t, a) per treatment level.

    Parameters
    ----------
    h0, h1:
        Hazard at level 0 and level 1 on a common grid.
    """

    h0: GridFunction
    h1: GridFunction

    def __post_init__(self) -> None:
        if not self.h0.same_grid(self.h1):
            raise ValueError("h0 and h1 must share the same grid")
        if np.any(self.h0.values < 0) or np.any(self.h1.values < 0):
            raise ValueError("conditional hazards must be nonnegative")
        object.__setattr__(self, "_cum0", cumulative(self.h0))
        object.__setattr__(self, "_kernel1", MarkovKernel(self.h1))

    @property
    def t_max(self) -> float:
        return self.h0.t_max

    def load_along(self, path: TreatmentPath, t) -> np.ndarray:
        """Integrated load H(t) = integral of h(s, a(s)) along the path.

        This is ``path.load`` with H1 as a Markov kernel: the exact split
        H0(min(t, u)) + [H1(t) - H1(u)]+, so a switch between nodes costs
        only the usual interpolation error.
        """
        return path.load(self._cum0, self._kernel1, t)

    def hazard_along(self, path: TreatmentPath, t) -> np.ndarray:
        """h(t, a(t)) along the path."""
        t_arr = np.asarray(t, dtype=float)
        lvl = path.level(t_arr)
        out = np.where(lvl == 1, self.h1(t_arr), self.h0(t_arr))
        return float(out) if t_arr.ndim == 0 else out


def marginal_hazard(
    spec: ConditionalHazardSpec, frailty: FrailtySpec, path: TreatmentPath
) -> GridFunction:
    """Observable hazard along a treatment path after averaging out Z.

    Returns m(H(t)) * h(t, a(t)) on the grid of ``spec``, where m is the
    survivor mean frailty and H the integrated load along the path.
    """
    times = spec.h0.times
    load = spec.load_along(path, times)
    mean = np.asarray(frailty.conditional_mean(load), dtype=float)
    vals = mean * spec.hazard_along(path, times)
    return spec.h0.with_values(vals)


def markov_violation_gap(
    spec: ConditionalHazardSpec,
    frailty: FrailtySpec,
    t: float,
    u1: float,
    u2: float,
) -> float:
    """Marginal-hazard gap at t between two initiation times u1, u2 <= t.

    Both paths carry the same current level at t, so any gap is pure
    history dependence.  It vanishes identically for degenerate frailty
    and is positive for nondegenerate frailty whenever the two loads
    differ.
    """
    if not (0 <= u1 <= t and 0 <= u2 <= t):
        raise ValueError(f"need 0 <= u1, u2 <= t, got u1={u1!r}, u2={u2!r}, t={t!r}")
    if t > spec.t_max + NODE_TOL:
        raise ValueError(f"t={t!r} beyond the spec grid horizon {spec.t_max!r}")
    h_now = float(spec.h1(t))
    lam = []
    for u in (u1, u2):
        path = TreatmentPath.initiate_at(u)
        load = float(spec.load_along(path, t))
        lam.append(float(np.asarray(frailty.conditional_mean(load))) * h_now)
    return abs(lam[0] - lam[1])


def invert_rate_to_h(
    target_rate: GridFunction, frailty: FrailtySpec, path: TreatmentPath
) -> GridFunction:
    """Conditional hazard along a path that reproduces a target rate.

    Solving phi(G(t)) = exp(-R(t)) with R the cumulative target rate
    gives the load G the conditional model must accumulate; its
    derivative

        h(t) = -r(t) * phi(G(t)) / phi'(G(t))

    is the conditional hazard along the path (computed in closed form,
    no finite differences).  Feeding the result back through
    ``marginal_hazard`` with the same frailty and path recovers the
    target rate up to quadrature error.

    The target rate is the same at both treatment levels, so h does not
    depend on ``path``; the path names where the result is fed back.
    A negative rate raises ValueError (from ``cumulative``).
    """
    R = cumulative(target_rate).values
    surv = np.exp(-R)  # in (0, 1] by construction
    load = np.asarray(frailty.laplace_inverse(surv), dtype=float)
    if np.any(~np.isfinite(load)) or np.any(load < -1e-12):
        raise ValueError("laplace_inverse produced an invalid load")
    mean = np.asarray(frailty.conditional_mean(np.maximum(load, 0.0)), dtype=float)
    return target_rate.with_values(target_rate.values / mean)


@dataclass(frozen=True)
class ColliderScenario:
    """Two-period discrete model isolating the survivor-selection bias.

    Each subject has frailty Z from a finite distribution and may be
    treated in period 1 and/or 2; conditional on Z = z and current
    level a the death probability in a period is z * p1 * effect**a.
    Initiation is irreversible and independent of Z, so its
    probabilities cancel from ``collider_table`` and are not parameters.
    Construction fails if any frailty level would push a death
    probability outside [0, 1], rather than clamping it silently.
    """

    z_levels: tuple
    z_probs: tuple
    p1: float
    effect: float

    def __post_init__(self) -> None:
        z = np.asarray(self.z_levels, dtype=float)
        pr = np.asarray(self.z_probs, dtype=float)
        if z.size == 0 or z.size != pr.size:
            raise ValueError("z_levels and z_probs must be nonempty and equal length")
        if not np.all(np.isfinite(z) & (z > 0)):
            raise ValueError("frailty levels must be positive and finite")
        if not np.all(np.isfinite(pr) & (pr >= 0)) or abs(pr.sum() - 1.0) > 1e-9:
            raise ValueError("z_probs must be a probability vector")
        if not (0 < self.p1 <= 1):
            raise ValueError(f"p1 must lie in (0, 1], got {self.p1!r}")
        if not (np.isfinite(self.effect) and self.effect > 0):
            raise ValueError(f"effect must be positive, got {self.effect!r}")
        worst = z.max() * self.p1 * max(1.0, self.effect)
        if worst > 1.0 + 1e-12:
            raise ValueError(
                f"death probability {float(worst)} exceeds 1; refusing to clamp"
            )

    def death_prob(self, z, a: int):
        return np.asarray(z, dtype=float) * self.p1 * self.effect**a


def collider_table(scenario: ColliderScenario) -> dict[tuple[int, int], float]:
    """Exact P(N2 = 1 | N1 = 0, A1 = a1, A2 = a2) for all level pairs.

    Enumeration over the frailty levels; no sampling.  Conditioning on
    surviving period 1 tilts the frailty distribution by the survival
    probability 1 - p(z, a1), which is how A1 influences period 2
    without any direct effect.  The treatment policy cancels from the
    conditional, so the table covers (1, 0) as well even though the
    irreversible policy gives that history probability zero.
    """
    z = np.asarray(scenario.z_levels, dtype=float)
    pr = np.asarray(scenario.z_probs, dtype=float)
    out: dict[tuple[int, int], float] = {}
    for a1 in (0, 1):
        surv1 = 1.0 - scenario.death_prob(z, a1)
        den = float(np.sum(pr * surv1))
        if den <= 0:
            raise ValueError(f"no survivors of period 1 under a1={a1}")
        for a2 in (0, 1):
            num = float(np.sum(pr * surv1 * scenario.death_prob(z, a2)))
            out[(a1, a2)] = num / den
    return out
