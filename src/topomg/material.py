"""SIMP interpolation laws and the penalty continuation schedule."""

from dataclasses import dataclass

import numpy as np

# void stiffness of the SIMP law as a fraction of e_max
E_MIN_RATIO = 1e-10


@dataclass(frozen=True)
class SimpLaw:
    """Modified power-law interpolation E(rho) = e_min + (e_max - e_min) rho^p."""

    e_max: float = 1.0
    penalty: float = 3.0

    @property
    def e_min(self):
        return E_MIN_RATIO * self.e_max

    def modulus(self, rho):
        rho = np.asarray(rho, dtype=float)
        if np.any((rho < 0) | (rho > 1)):
            raise ValueError("rho must lie in [0, 1]")
        return self.e_min + (self.e_max - self.e_min) * rho ** self.penalty

    def modulus_derivative(self, rho):
        rho = np.asarray(rho, dtype=float)
        p = self.penalty
        if p == 1.0:
            return np.full_like(rho, self.e_max - self.e_min)
        return p * (self.e_max - self.e_min) * rho ** (p - 1.0)


@dataclass(frozen=True)
class StressSimpLaw:
    """Stress-stiffness interpolation: e_max * rho^p above the threshold, 0 below.

    The cutoff keeps spurious buckling modes out of void regions. The derivative
    at the threshold is taken from the right branch (the kink is left undefined
    by the formulation).
    """

    e_max: float = 1.0
    penalty: float = 3.0
    threshold: float = 0.1

    def modulus(self, rho):
        rho = np.asarray(rho, dtype=float)
        if np.any((rho < 0) | (rho > 1)):
            raise ValueError("rho must lie in [0, 1]")
        return np.where(rho >= self.threshold, self.e_max * rho ** self.penalty, 0.0)

    def modulus_derivative(self, rho):
        rho = np.asarray(rho, dtype=float)
        p = self.penalty
        d = p * self.e_max * rho ** (p - 1.0) if p != 1.0 else np.full_like(rho, self.e_max)
        return np.where(rho >= self.threshold, d, 0.0)


@dataclass(frozen=True)
class PenaltySchedule:
    """Continuation schedule: penalty start -> stop by increment, a fixed number
    of optimization iterations per value, with an optional second leg (used by
    the column problem, which continues past the first stop at a larger step)."""

    start: float = 1.0
    stop: float = 4.0
    increment: float = 0.25
    steps_per_value: int = 20
    stop2: float | None = None
    increment2: float | None = None
    steps2: int | None = None

    def __post_init__(self):
        if self.start > self.stop:
            raise ValueError("start must be <= stop")
        if self.increment <= 0:
            raise ValueError("increment must be positive")

    def values(self):
        """Flat list of (penalty, iteration_count) pairs."""
        n = int(round((self.stop - self.start) / self.increment))
        seq = [(round(self.start + i * self.increment, 12), self.steps_per_value)
               for i in range(n + 1)]
        if self.stop2 is not None:
            inc2 = self.increment2 if self.increment2 is not None else self.increment
            steps2 = self.steps2 if self.steps2 is not None else self.steps_per_value
            m = int(round((self.stop2 - self.stop) / inc2))
            seq += [(round(self.stop + i * inc2, 12), steps2) for i in range(1, m + 1)]
        return seq

    def total_iterations(self):
        return sum(s for _, s in self.values())

    def flat(self):
        """Penalty value for every optimization iteration, in order."""
        out = []
        for p, s in self.values():
            out.extend([p] * s)
        return np.array(out)
