"""Physical constants and numerical limits.

Everything in this package is expressed in Lorentz-Heaviside natural units
with hbar = c = 1, so the squared electron charge is e^2 = 4*pi*alpha and
every reported coherence quantity is dimensionless.
"""

from __future__ import annotations

#: Fine-structure constant (CODATA 2018 recommended value).
FINE_STRUCTURE: float = 1.0 / 137.035999084

#: Largest admissible squeeze magnitude.  Above this cap e^{2r} would leave
#: the double-precision range, so constructors reject it outright instead of
#: returning infinities downstream.
SQUEEZE_CAP: float = 350.0

__all__ = ["FINE_STRUCTURE", "SQUEEZE_CAP"]
