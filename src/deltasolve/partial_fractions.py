"""Partial fraction expansion of 1/(e^z - 1) over the zeros of e^z - 1.

The zeros are z = 2*k*pi*i for integer k, all simple with residue 1, and

    1/(e^z - 1) = -1/2 + 1/z + sum_{k >= 1} 2z / (z^2 + 4 pi^2 k^2).

The -1/2 is the same correction constant the spectral difference solver
needs, and the k = 0 zero contributes the 1/z pole.  Each +-k pair is
combined algebraically into 2z/(z^2 + 4 pi^2 k^2) before accumulation:
that removes the catastrophic cancellation of the one-sided sums (which
diverge separately) and bakes the symmetric summation into the formula.
``pfd_eval`` sums 1/(z^2 + 4 pi^2 k^2) in descending k and multiplies by
2z once; its docstring bounds the truncation and rounding errors.

Expanding the same mode sum about z = 0 term by term gives the Laurent
data: the coefficient of z^j in sum_{k != 0} 1/(z - 2 k pi i) is
-sum_{k != 0} (2 k pi i)^(-(j+1)), which converges to B_{j+1}/(j+1)! for
odd j and cancels exactly for even j; ``laurent_from_modes`` takes it from
``spectral.power_sums`` within that kernel's bound.
"""

from __future__ import annotations

import cmath
import math

from .polynomials import CoefficientOverflowError, format_complex
from .rationals import DeltasolveError
from .spectral import TWO_PI, _check_truncation_order, power_sums

__all__ = [
    "POLE_EXCLUSION_RADIUS",
    "PoleProximityError",
    "pfd_eval",
    "laurent_from_modes",
]

POLE_EXCLUSION_RADIUS = 1e-6


class PoleProximityError(DeltasolveError, ValueError):
    """Evaluation point is within the exclusion radius of a pole 2*k*pi*i."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(
            f"evaluation point is within {POLE_EXCLUSION_RADIUS:g} of the "
            f"pole 2*pi*i*k at k={k}")


def pfd_eval(z: complex, truncation_order: int) -> complex:
    """Truncated partial fraction value of 1/(e^z - 1) at z.

    Returns T_K(z) = -1/2 + 1/z + 2z sum_{k=1..K} 1/(z^2 + (2 pi k)^2),
    summed in descending k with z^2 and (2 pi)^2 computed once.  k counts
    down as a double, whose square is exact (k^2 <= 10^12 < 2^53), and
    each term divides the complex 1 + 0j, which skips float division's
    fallback to complex and gives the same quotient; the loop takes two
    terms per pass, the odd term k = K first when K is odd, so every
    addition and its order, and with them the bits, are those of the
    plain loop over integer k.  Requires
    |z - 2*k*pi*i| > POLE_EXCLUSION_RADIUS for all |k| <= K+1; the K+1
    guard keeps the first *omitted* pole at a safe distance too.  Poles
    are 2*pi apart, so only the nearest, k = round(Im z / 2 pi), can be
    that close; a z with a non-finite part is near none.

    Error bounds, while z^2 stays in double range (d_k = z^2 + (2 pi k)^2):

    * truncation: |T_K(z) - 1/(e^z - 1)| <= 2|z|/(pi^2 K) once
      2 pi (K+1) >= sqrt(2) |z|;
    * rounding: |result - T_K(z)| <= 2^-49 (1/2 + 1/|z| + 2|z| E), where
      E = sum_{k<=K} (k + (|z|^2 + (2 pi k)^2) / |d_k|) / |d_k|; the second
      part of each term is the conditioning of d_k near a pole, the first
      the descending summation.

    A finite z whose value is not finite raises ``CoefficientOverflowError``,
    and a K above MAX_TERMS ``spectral.TruncationOrderError`` before the sum.
    """
    _check_truncation_order(truncation_order)
    z = complex(z)
    k = round(z.imag / TWO_PI) if math.isfinite(z.imag) else 0
    if abs(k) <= truncation_order + 1 \
            and abs(z - complex(0.0, TWO_PI * k)) <= POLE_EXCLUSION_RADIUS:
        raise PoleProximityError(k)
    z_squared = z * z
    four_pi_squared = TWO_PI * TWO_PI
    one = 1 + 0j
    total = 0j
    k = float(truncation_order)
    if truncation_order % 2:
        total += one / (z_squared + four_pi_squared * (k * k))
        k -= 1.0
    for _ in range(truncation_order // 2):
        total += one / (z_squared + four_pi_squared * (k * k))
        k -= 1.0
        total += one / (z_squared + four_pi_squared * (k * k))
        k -= 1.0
    value = -0.5 + 1.0 / z + 2.0 * z * total
    if cmath.isfinite(z) and not cmath.isfinite(value):
        raise CoefficientOverflowError(
            f"the value at z = {format_complex(z)} is outside double range")
    return value


def laurent_from_modes(j: int, truncation_order: int) -> complex:
    """Coefficient of z^j in the truncated mode sum about z = 0.

    Returns -sum_{1 <= |k| <= K} (2 k pi i)^(-m), m = j + 1, with +-k paired.
    For even j the pair members are opposite and the sum is exactly zero;
    for odd j the pair combines to 2 (-1)^(m/2) (2 pi k)^(-m), so the total
    is -2 (-1)^(m/2) (2 pi)^(-m) S_m(K) and converges to B_m/m!.
    """
    if j < 0:
        raise ValueError("power index must be >= 0")
    _check_truncation_order(truncation_order)
    m = j + 1
    if m % 2 != 0:
        return 0j
    total = TWO_PI ** -m * power_sums((m,), truncation_order)[m]
    return complex(-2.0 * (-1) ** (m // 2) * total, 0.0)
