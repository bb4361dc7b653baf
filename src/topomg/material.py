"""SIMP interpolation laws and the penalty continuation schedule."""

from dataclasses import dataclass

import numpy as np

# solid modulus of both laws, the void modulus of the SIMP law, and the
# density below which the stress law is zero
E_MAX = 1.0
E_MIN = 1e-10
STRESS_CUTOFF = 0.1
# a schedule leg's span may exceed a whole number of increments by this
# fraction of one increment (rounding of the division) and still reach it
SPAN_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SimpLaw:
    """Modified power-law interpolation E(rho) = E_MIN + (E_MAX - E_MIN) rho^p."""

    penalty: float = 3.0

    def modulus(self, rho):
        rho = np.asarray(rho, dtype=float)
        if np.any((rho < 0) | (rho > 1)):
            raise ValueError("rho must lie in [0, 1]")
        return E_MIN + (E_MAX - E_MIN) * rho ** self.penalty

    def modulus_derivative(self, rho):
        rho = np.asarray(rho, dtype=float)
        p = self.penalty
        return p * (E_MAX - E_MIN) * rho ** (p - 1.0)


@dataclass(frozen=True)
class StressSimpLaw:
    """Stress-stiffness interpolation: E_MAX * rho^p from STRESS_CUTOFF up, 0 below.

    The cutoff keeps spurious buckling modes out of void regions. The derivative
    at the cutoff is taken from the right branch (the kink is left undefined
    by the formulation).
    """

    penalty: float = 3.0

    def modulus(self, rho):
        rho = np.asarray(rho, dtype=float)
        if np.any((rho < 0) | (rho > 1)):
            raise ValueError("rho must lie in [0, 1]")
        return np.where(rho >= STRESS_CUTOFF, E_MAX * rho ** self.penalty, 0.0)

    def modulus_derivative(self, rho):
        rho = np.asarray(rho, dtype=float)
        p = self.penalty
        d = p * E_MAX * rho ** (p - 1.0)
        return np.where(rho >= STRESS_CUTOFF, d, 0.0)


@dataclass(frozen=True)
class PenaltySchedule:
    """Continuation schedule: penalty start -> stop by increment, a fixed number
    of optimization iterations per value, with an optional second leg that
    continues from stop to stop2 by increment2, steps2 iterations per value."""

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
        if self.increment <= 0 or (self.increment2 is not None and self.increment2 <= 0):
            raise ValueError("increment and increment2 must be positive")
        if self.stop2 is None and (self.increment2 is not None or self.steps2 is not None):
            raise ValueError("increment2 and steps2 need stop2, the end of the second leg")
        if self.stop2 is not None and self.stop2 < self.stop:
            raise ValueError("stop2 must be >= stop")
        if self.steps_per_value < 1 or (self.steps2 is not None and self.steps2 < 1):
            raise ValueError("steps_per_value and steps2 must be >= 1")

    def values(self):
        """Flat list of (penalty, iteration_count) pairs; no value passes the
        stop of its leg."""
        n = int(np.floor((self.stop - self.start) / self.increment + SPAN_TOLERANCE))
        seq = [(round(self.start + i * self.increment, 12), self.steps_per_value)
               for i in range(n + 1)]
        if self.stop2 is not None:
            inc2 = self.increment2 if self.increment2 is not None else self.increment
            steps2 = self.steps2 if self.steps2 is not None else self.steps_per_value
            m = int(np.floor((self.stop2 - self.stop) / inc2 + SPAN_TOLERANCE))
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
