"""Approximation-free confinement law.

Pushes the true state toward the guided center with magnitude given by a
logarithmic barrier in the normalized error, so the input grows without
bound as the state approaches the confinement sphere. Needs no model
knowledge beyond the sign of the plant input map's symmetric part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .barriers import SettingError

DEFAULT_EPSILON_SAT = 1e-9


class ConfinementBreachError(RuntimeError):
    """State has left the confinement ball; a theorem precondition is violated."""

    def __init__(self, error_norm: float, r_c: float):
        self.error_norm = error_norm
        self.r_c = r_c
        super().__init__(
            f"confinement breached: ||x - c|| = {error_norm:.6g} >= r_c = {r_c:.6g}"
        )


@dataclass(frozen=True)
class ConfinementLaw:
    """Gain, confinement radius, and the numerical clamp on normalized error.

    gain is positive when the plant input map's symmetric part is positive
    definite, negative when negative definite.
    """

    gain: float
    r_c: float
    epsilon_sat: float = DEFAULT_EPSILON_SAT

    def __post_init__(self):
        if self.gain == 0:
            raise SettingError("confinement gain must be nonzero", "gain")
        if not math.isfinite(self.gain):
            raise SettingError(f"confinement gain must be finite, got {self.gain}", "gain")
        if not self.r_c > 0:  # also rejects NaN
            raise SettingError(f"confinement radius must be > 0, got {self.r_c}", "r_c")
        if not math.isfinite(self.r_c):
            raise SettingError(f"confinement radius must be finite, got {self.r_c}", "r_c")
        if not (0 < self.epsilon_sat < 1):
            raise SettingError(f"epsilon_sat must lie in (0, 1), got {self.epsilon_sat}", "epsilon_sat")


def zeta(e_hat: float, epsilon_sat: float = DEFAULT_EPSILON_SAT) -> float:
    """Log barrier ln((1+e)/(1-e)), clamped at e = 1 - epsilon_sat."""
    if e_hat < 0:
        raise ValueError(f"normalized error must be >= 0, got {e_hat}")
    e = min(e_hat, 1.0 - epsilon_sat)
    return math.log((1.0 + e) / (1.0 - e))


def confinement_control(e, norm: float, law: ConfinementLaw) -> list[float]:
    """u = -gain * zeta(||e||/r_c) * e/||e|| for the error e = x - c, with u = 0 at e = 0.

    `e` is a float sequence and u comes back as floats. `norm` is ||e||,
    which the simulator has already taken for its breach check.
    """
    if norm >= law.r_c:
        raise ConfinementBreachError(norm, law.r_c)
    if norm <= 1e-12 * law.r_c:
        return [0.0] * len(e)
    scale = -(law.gain * zeta(norm / law.r_c, law.epsilon_sat)) / norm
    return [scale * e_i for e_i in e]
