"""Boyd/Zippin indices of the target space."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SpaceIndices", "space_indices", "lebesgue", "associate_indices"]


@dataclass(frozen=True)
class SpaceIndices:
    """Boyd indices (alpha, beta) of a rearrangement-invariant space.

    fundamental_type asserts the Zippin indices coincide with the Boyd
    indices; the one-sided criteria are proven only under that assumption,
    and ``decide`` refuses a space without it.
    """

    alpha: float
    beta: float
    fundamental_type: bool = True

    def __post_init__(self):
        if not (0.0 < self.alpha <= self.beta < 1.0):
            raise ValueError(
                f"indices must satisfy 0 < alpha <= beta < 1, got ({self.alpha}, {self.beta})")

    def dilation_pair(self, deriv):
        """(min, max) of |deriv|^{-alpha} and |deriv|^{-beta}: the dilation
        factors of X under a shift with derivative deriv (float or array)."""
        ap = np.abs(deriv)
        fa, fb = ap ** -self.alpha, ap ** -self.beta
        return np.minimum(fa, fb), np.maximum(fa, fb)


space_indices = SpaceIndices


def lebesgue(p: float) -> SpaceIndices:
    """L^p indices: all equal to 1/p."""
    if not 1.0 < p < float("inf"):
        raise ValueError("lebesgue requires 1 < p < inf")
    return SpaceIndices(1.0 / p, 1.0 / p, True)


def associate_indices(x: SpaceIndices) -> SpaceIndices:
    """Indices of the associate space: alpha' = 1 - beta, beta' = 1 - alpha."""
    return SpaceIndices(1.0 - x.beta, 1.0 - x.alpha, x.fundamental_type)
