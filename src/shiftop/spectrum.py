"""Closed-form spectra of weighted shift operators.

Spectral radii over Lebesgue spaces and the sharp upper bound over
rearrangement-invariant spaces, the one-sided-core annuli, and the full
spectrum of d*W as a union of origin-centered annuli (from the moving
components) and m-th-root curve images (from the Carleman part).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .exprlang import ZERO_TOL, _refine_min, as_function, check_finite, find_zeros
from .circle import (GammaArc, PeriodicStructure, Shift, detect_orientation_and_multiplicity,
                     orbit_product, wrap)
from .indices import SpaceIndices

__all__ = ["Annulus", "SpectrumSet", "radius_bound",
           "shift_spectrum", "one_sided_core_annuli", "spectrum_contains",
           "spectrum_to_csv"]

GC_THRESHOLD = 1e-10
SAMPLES = 512   # samples per arc: radius_bound's, and the default of shift_spectrum and --samples


@dataclass(frozen=True)
class Annulus:
    """Origin-centered annulus r_in <= |z| <= r_out (a disk when r_in = 0)."""

    r_in: float
    r_out: float

    def __post_init__(self):
        if not 0.0 <= self.r_in <= self.r_out:
            raise ValueError("annulus requires 0 <= r_in <= r_out")


@dataclass(frozen=True)
class SpectrumSet:
    """Spectrum of d*W: annuli plus the curve {z : z^m = d_m(t)} over the
    Carleman arcs.

    curve_samples hold all m-th roots of the sampled d_m values (for
    export).  curve_ranges hold one (min d_m, max d_m) pair per Carleman
    arc: d_m is real and continuous, so that is exactly the arc's image.
    """

    m: int
    annuli: tuple[Annulus, ...]             # merged, for reporting
    raw_annuli: tuple[Annulus, ...]         # one per component / Y' point
    curve_samples: tuple[complex, ...]
    curve_ranges: tuple[tuple[float, float], ...]


def _arc_extreme(fn, ts: np.ndarray, vals: np.ndarray, sign: float) -> float:
    """Sup (sign = 1) or inf (sign = -1) of the continuous real fn over
    [ts[0], ts[-1]], given its values vals on the grid ts: the most extreme
    sample, refined by golden section on its two neighbouring cells, and
    the more extreme of the two kept."""
    i = int(np.argmax(sign * vals))
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    _, v = _refine_min(lambda t: -sign * fn(t), lo, hi, ZERO_TOL)
    return sign * max(sign * float(vals[i]), -float(v))


def _orbit_weight(g, shift: Shift, m: int):
    """The orbit product g_m(t) = prod_{i<m} g(alpha_i(t)), checked finite."""
    fn = as_function(g)

    def g_m(t):
        vals = orbit_product(fn, shift, m, wrap(t))
        check_finite(g, t, vals)
        return vals
    return g_m


def radius_bound(g, shift: Shift, structure: PeriodicStructure,
                 x: SpaceIndices) -> float:
    """Sharp upper bound for the spectral radius of g*W on X: the max over
    the periodic-point set Lambda of (|g_m| * h(alpha_m'))^{1/m}, where
    g_m is the orbit product of g, alpha_m the m-th iterate of the shift
    and h(s) = max{|s|^{-alpha_X}, |s|^{-beta_X}}; exact at the points of
    Lambda, refined from SAMPLES + 1 samples on each arc (_arc_extreme).

    On L^p (x = lebesgue(p)) this is the spectral radius itself.
    """
    m = structure.m
    g_m = _orbit_weight(g, shift, m)
    Delta = lambda t: _delta_Delta(g_m, shift, m, x, t)[1]
    sups = list(Delta(np.asarray(structure.lambda_points)))
    for arc in structure.lambda_arcs:
        ts = np.linspace(arc.start, arc.end, SAMPLES + 1)
        sups.append(_arc_extreme(Delta, ts, Delta(ts), 1.0))
    if not sups:
        raise ValueError("structure has an empty periodic-point set")
    return float(np.max(sups) ** (1.0 / m))


def _delta_Delta(d_m, shift: Shift, m: int, x: SpaceIndices, t) -> tuple[float, float]:
    dm = np.abs(d_m(t))
    lo, hi = x.dilation_pair(orbit_product(shift.deriv, shift, m, t))
    return dm * lo, dm * hi


def _merge(annuli: list[Annulus]) -> tuple[Annulus, ...]:
    if not annuli:
        return ()
    srt = sorted(annuli, key=lambda a: (a.r_in, a.r_out))
    out = [srt[0]]
    for a in srt[1:]:
        if a.r_in <= out[-1].r_out + 1e-12:
            out[-1] = Annulus(out[-1].r_in, max(out[-1].r_out, a.r_out))
        else:
            out.append(a)
    return tuple(out)


def shift_spectrum(d, shift: Shift, structure: PeriodicStructure,
                   x: SpaceIndices, samples: int = SAMPLES) -> SpectrumSet:
    """Spectrum of d*W: curve part {z : z^m = d_m(t)} over the Carleman
    region, one annulus (or disk, when d_m vanishes on the closure) per
    moving component, and one annulus per declared Y' point."""
    if samples < 64:
        raise ValueError("samples must be >= 64")
    m = structure.m
    d_m = _orbit_weight(d, shift, m)

    curve_samples: list[complex] = []
    curve_ranges: list[tuple[float, float]] = []
    for arc in structure.omega:
        ts = np.linspace(arc.start, arc.end, samples + 1)
        dm = d_m(wrap(ts))
        curve_ranges.append((_arc_extreme(d_m, ts, dm, -1.0),
                             _arc_extreme(d_m, ts, dm, 1.0)))
        for v in (complex(v) for v in dm):
            r = abs(v) ** (1.0 / m)
            theta = cmath.phase(v)
            for k in range(m):
                curve_samples.append(r * cmath.exp(1j * (theta + 2 * cmath.pi * k) / m))

    raw: list[Annulus] = []
    for g in structure.gamma:
        endpoints = [g.tau_minus, g.tau_plus]
        dd = [_delta_Delta(d_m, shift, m, x, tau) for tau in endpoints]
        delta_min = min(v[0] for v in dd)
        Delta_max = max(v[1] for v in dd)

        ts = wrap(np.linspace(g.start, g.end, samples + 1))
        min_abs = float(np.min(np.abs(d_m(ts))))
        invertible = min_abs > GC_THRESHOLD
        if invertible:
            hits = find_zeros(d_m, g.start, g.end, cells=samples)
            if any(h.certain() for h in hits):
                invertible = False
        if invertible:
            raw.append(Annulus(delta_min ** (1.0 / m), Delta_max ** (1.0 / m)))
        else:
            raw.append(Annulus(0.0, Delta_max ** (1.0 / m)))

    for tau in structure.yprime:
        delta, Delta = _delta_Delta(d_m, shift, m, x, tau)
        raw.append(Annulus(delta ** (1.0 / m), Delta ** (1.0 / m)))

    return SpectrumSet(m, _merge(raw), tuple(raw),
                       tuple(curve_samples), tuple(curve_ranges))


def one_sided_core_annuli(shift: Shift, arc: GammaArc,
                          x: SpaceIndices) -> tuple[Annulus, Annulus]:
    """Intersection of the left and right spectra of W on X(arc): one
    annulus per endpoint fixed point of alpha_m, the endpoint annulus that
    shift_spectrum gives the weight 1, degenerating to circles when the
    indices coincide.  m is the shift's multiplicity."""
    m = detect_orientation_and_multiplicity(shift)[1]
    one = lambda t: 1.0
    return tuple(Annulus(*(r ** (1.0 / m) for r in _delta_Delta(one, shift, m, x, tau)))
                 for tau in (arc.tau_minus, arc.tau_plus))


def spectrum_contains(ss: SpectrumSet, z: complex) -> str:
    """Membership query: "inside", "boundary", or "outside".

    Annuli are tested exactly on |z| with a 1e-9 band at the radii; the
    curve on w = z^m, which must be real (|Im w| <= 1e-9 * max(1, |w|)):
    inside a Carleman arc's range of d_m, or within 1e-9 of it (boundary).
    """
    tol = 1e-9
    r = abs(z)
    boundary = False
    for a in ss.annuli:
        if a.r_in + tol < r < a.r_out - tol:
            return "inside"
        if abs(r - a.r_in) <= tol or abs(r - a.r_out) <= tol:
            boundary = True
    w = complex(z) ** ss.m
    if abs(w.imag) <= tol * max(1.0, abs(w)):
        for lo, hi in ss.curve_ranges:
            if lo <= w.real <= hi:
                return "inside"
            if lo - tol <= w.real <= hi + tol:
                boundary = True
    return "boundary" if boundary else "outside"


def spectrum_to_csv(ss: SpectrumSet) -> str:
    """CSV export: `annulus,r_in,r_out` and `curve,re,im` rows (4 decimals)."""
    lines = ["kind,r_in|re,r_out|im"]
    for a in ss.annuli:
        lines.append(f"annulus,{a.r_in:.4f},{a.r_out:.4f}")
    for zt in ss.curve_samples:
        lines.append(f"curve,{zt.real:.4f},{zt.imag:.4f}")
    return "\n".join(lines) + "\n"
