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

from .exprlang import as_function, check_finite, find_zeros
from .circle import GammaArc, PeriodicStructure, Shift, orbit_product, wrap
from .indices import SpaceIndices

__all__ = ["Annulus", "SpectrumSet", "radius_bound",
           "shift_spectrum", "one_sided_core_annuli", "spectrum_contains",
           "spectrum_to_csv"]

GC_THRESHOLD = 1e-10
ARC_SAMPLES = 256


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
    """Spectrum of d*W: annuli plus sampled curve images with m-fold roots.

    curve_samples hold all m-th roots of the sampled d_m values (for
    export); curve_values hold the raw d_m samples per Carleman arc, used
    for resolution-limited membership tests in the z^m plane.
    """

    m: int
    annuli: tuple[Annulus, ...]             # merged, for reporting
    raw_annuli: tuple[Annulus, ...]         # one per component / Y' point
    curve_samples: tuple[complex, ...]
    curve_values: tuple[tuple[complex, ...], ...]
    tol: float = 1e-9

    @property
    def curve_resolution(self) -> float:
        res = 0.0
        for arc_vals in self.curve_values:
            if len(arc_vals) < 2:
                continue
            diffs = np.abs(np.diff(arc_vals))
            res = max(res, float(np.max(diffs)))
        return res


def _lambda_samples(structure: PeriodicStructure) -> np.ndarray:
    """Sample points covering the fixed-point set (points plus arc grids)."""
    pts = list(structure.lambda_points)
    for a in structure.lambda_arcs:
        pts.extend(wrap(np.linspace(a.start, a.end, ARC_SAMPLES + 1)).tolist())
    if not pts:
        raise ValueError("structure has an empty periodic-point set")
    return np.asarray(sorted(set(pts)))


def radius_bound(g, shift: Shift, structure: PeriodicStructure,
                 x: SpaceIndices) -> float:
    """Sharp upper bound for the spectral radius of g*W on X: max over the
    fixed-point set of |g| * max{|alpha'|^{-alpha_X}, |alpha'|^{-beta_X}}.

    On L^p (x = lebesgue(p)) this is the spectral radius itself.
    """
    if structure.m != 1:
        raise ValueError("radius_bound applies to shifts with fixed points (m=1); "
                         "use shift_spectrum for higher multiplicity")
    taus = _lambda_samples(structure)
    _, factor = x.dilation_pair(shift.deriv(taus))
    g_vals = as_function(g)(taus)
    check_finite(g, taus, g_vals)
    return float(np.max(np.abs(g_vals) * factor))


def _delta_Delta(d_m, shift: Shift, m: int, x: SpaceIndices, t) -> tuple[float, float]:
    dm = np.abs(d_m(t))
    lo, hi = x.dilation_pair(orbit_product(shift.deriv, shift, m, t))
    return dm * lo, dm * hi


def _merge(annuli: list[Annulus], tol: float = 1e-12) -> tuple[Annulus, ...]:
    if not annuli:
        return ()
    srt = sorted(annuli, key=lambda a: (a.r_in, a.r_out))
    out = [srt[0]]
    for a in srt[1:]:
        if a.r_in <= out[-1].r_out + tol:
            out[-1] = Annulus(out[-1].r_in, max(out[-1].r_out, a.r_out))
        else:
            out.append(a)
    return tuple(out)


def shift_spectrum(d, shift: Shift, structure: PeriodicStructure,
                   x: SpaceIndices, samples: int = 512) -> SpectrumSet:
    """Spectrum of d*W: curve part {z : z^m = d_m(t)} over the Carleman
    region, one annulus (or disk, when d_m vanishes on the closure) per
    moving component, and one annulus per declared Y' point."""
    if samples < 64:
        raise ValueError("samples must be >= 64")
    m = structure.m
    d_fn = as_function(d)

    def d_m(t):
        vals = orbit_product(d_fn, shift, m, wrap(t))
        check_finite(d, t, vals)
        return vals

    curve_samples: list[complex] = []
    curve_values: list[tuple[complex, ...]] = []
    for arc in structure.omega:
        ts = wrap(np.linspace(arc.start, arc.end, samples + 1))
        dm = d_m(ts)
        vals = tuple(complex(v) for v in dm)
        curve_values.append(vals)
        for v in vals:
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
            if any(h.kind == "interval" or h.certain() for h in hits):
                invertible = False
        if invertible:
            raw.append(Annulus(delta_min ** (1.0 / m), Delta_max ** (1.0 / m)))
        else:
            raw.append(Annulus(0.0, Delta_max ** (1.0 / m)))

    for tau in structure.yprime:
        delta, Delta = _delta_Delta(d_m, shift, m, x, tau)
        raw.append(Annulus(delta ** (1.0 / m), Delta ** (1.0 / m)))

    return SpectrumSet(m, _merge(raw), tuple(raw),
                       tuple(curve_samples), tuple(curve_values))


def one_sided_core_annuli(shift: Shift, arc: GammaArc,
                          x: SpaceIndices) -> tuple[Annulus, Annulus]:
    """Intersection of the left and right spectra of W on X(arc): one
    annulus per endpoint fixed point, degenerating to circles when the
    indices coincide."""
    return tuple(Annulus(*x.dilation_pair(shift.deriv(tau)))
                 for tau in (arc.tau_minus, arc.tau_plus))


def spectrum_contains(ss: SpectrumSet, z: complex, tol: float | None = None) -> str:
    """Membership query: "inside", "boundary", or "outside".

    Annuli are tested exactly on |z| with a tol band at the radii; curve
    parts are tested by nearest-sample distance of z^m, which is resolution
    limited by construction.
    """
    tol = ss.tol if tol is None else tol
    r = abs(z)
    boundary = False
    for a in ss.annuli:
        if a.r_in + tol < r < a.r_out - tol:
            return "inside"
        if abs(r - a.r_in) <= tol or abs(r - a.r_out) <= tol:
            boundary = True
    if ss.curve_values:
        w = complex(z) ** ss.m
        res = ss.curve_resolution
        dist = min(min(abs(w - v) for v in arc_vals)
                   for arc_vals in ss.curve_values if arc_vals)
        if dist <= max(tol, res):
            return "inside"
    return "boundary" if boundary else "outside"


def spectrum_to_csv(ss: SpectrumSet) -> str:
    """CSV export: `annulus,r_in,r_out` and `curve,re,im` rows (4 decimals)."""
    lines = ["kind,r_in|re,r_out|im"]
    for a in ss.annuli:
        lines.append(f"annulus,{a.r_in:.4f},{a.r_out:.4f}")
    for zt in ss.curve_samples:
        lines.append(f"curve,{zt.real:.4f},{zt.imag:.4f}")
    return "\n".join(lines) + "\n"
