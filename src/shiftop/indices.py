"""Boyd/Zippin indices of the target space and generic index estimation
for submultiplicative functions."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exprlang import as_function

__all__ = ["SpaceIndices", "space_indices", "lebesgue", "associate_indices",
           "IndexEstimate", "submultiplicative_indices"]


@dataclass(frozen=True)
class SpaceIndices:
    """Boyd indices (alpha, beta) of a rearrangement-invariant space.

    fundamental_type asserts the Zippin indices coincide with the Boyd
    indices; the one-sided criteria are proven only under that assumption.
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


def space_indices(alpha: float, beta: float, fundamental_type: bool = True) -> SpaceIndices:
    x = SpaceIndices(alpha, beta, fundamental_type)
    if not fundamental_type:
        warnings.warn(
            "one-sided invertibility criteria are proven only for spaces of "
            "fundamental type; verdicts for this space are formal",
            stacklevel=2)
    return x


def lebesgue(p: float) -> SpaceIndices:
    """L^p indices: all equal to 1/p."""
    if not 1.0 < p < float("inf"):
        raise ValueError("lebesgue requires 1 < p < inf")
    return SpaceIndices(1.0 / p, 1.0 / p, True)


def associate_indices(x: SpaceIndices) -> SpaceIndices:
    """Indices of the associate space: alpha' = 1 - beta, beta' = 1 - alpha."""
    return SpaceIndices(1.0 - x.beta, 1.0 - x.alpha, x.fundamental_type)


@dataclass(frozen=True)
class IndexEstimate:
    lower: float
    upper: float
    x_at_lower: float
    x_at_upper: float


def submultiplicative_indices(f, x_min: float = 1e-6, x_max: float = 1e6,
                              per_decade: int = 512, seed: int = 0) -> IndexEstimate:
    """Estimate the lower/upper indices of a submultiplicative function.

    lower = sup_{x<1} log f(x)/log x, upper = inf_{x>1} log f(x)/log x,
    evaluated on a geometric grid with ``per_decade`` points per decade.
    This is an estimate at finite x_min/x_max, never used in verdicts.
    """
    if not (0.0 < x_min < 1.0 < x_max):
        raise ValueError("need 0 < x_min < 1 < x_max")
    fn = as_function(f)

    def grid(lo, hi):
        decades = np.log10(hi / lo)
        n = max(8, int(np.ceil(per_decade * decades)))
        return np.exp(np.linspace(np.log(lo), np.log(hi), n))

    # keep away from x = 1 where log f(x)/log x is 0/0 in floating point
    xs_lo = grid(x_min, 0.99)
    xs_hi = grid(1.01, x_max)
    for xs in (xs_lo, xs_hi):
        vals = fn(xs)
        if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
            bad = xs[(vals <= 0.0) | ~np.isfinite(vals)][0]
            raise ValueError(f"function must be positive on the sample range; f({bad!r}) <= 0")

    ratios_lo = np.log(fn(xs_lo)) / np.log(xs_lo)
    ratios_hi = np.log(fn(xs_hi)) / np.log(xs_hi)
    i_lo = int(np.argmax(ratios_lo))
    i_hi = int(np.argmin(ratios_hi))
    lower = float(ratios_lo[i_lo])
    upper = float(ratios_hi[i_hi])

    rng = np.random.default_rng(seed)
    xs = np.exp(rng.uniform(np.log(x_min), np.log(x_max), size=(64, 2)))
    lhs = fn(xs[:, 0] * xs[:, 1])
    rhs = fn(xs[:, 0]) * fn(xs[:, 1])
    if np.any(lhs > rhs * (1.0 + 1e-9)):
        warnings.warn("sampled function violates submultiplicativity", stacklevel=2)

    return IndexEstimate(lower, upper, float(xs_lo[i_lo]), float(xs_hi[i_hi]))
