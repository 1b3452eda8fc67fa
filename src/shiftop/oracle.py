"""Discretization oracle: collocation of a*I - b*W on uniform grids.

Corroborates the closed-form results numerically: spectral radii of
weighted shifts from their orbit norms, residual/singular-value ladders
as invertibility evidence, and truncated Neumann inverses with measured
decay ratios.  Everything here is evidence, not proof.

On L^p the powers of a weighted shift have the exact norms
||(gW)^n|| = sup_t |g_n(t)| |alpha_n'(t)|^{-1/p}, so the radius estimate
needs no matrix: it carries the grid nodes along their forward orbits and
reads the m-step ratio of these norms (``estimate_radius_numeric``).  It is
the one radius estimator: ``neumann_apply``'s measured decay ratio is this
estimate for the Neumann iterate.

One ``GridOperator`` serves the rest: A_N itself and the Neumann iterate
(b/a)*W or (a/b)*W^{-1}, a weighted shift g*W with a = 0 and b = -g.  It
is matrix-free: the 4-point stencil is stored slot-major, so each product
is one gather and one contraction, with -b folded into the weights of
``apply`` once per grid and the a*v term dropped where a = 0.  On a
well-conditioned rung of the invertibility ladder, s_min comes from the
eigenvalues of A_N^T A_N and x from CGLS on ``apply`` and
``apply_P_transpose``; only an ill-conditioned rung, or one where CGLS
misses its stop, builds the dense A_N for one lstsq.  A_N and its Gram
are scattered from one list of each row's stencil entries.  The ladder's
numbers are l^2 (uniform-grid L^2) quantities whatever the space's Boyd
indices are.
Coefficients and right-hand sides are ``exprlang.Fn`` leaves, checked
finite wherever evaluated.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .exprlang import Fn
from .circle import NoPeriodicStructureError, Shift, detect_orientation_and_multiplicity, wrap
from .analysis import OperatorSpec, adjoint_spec, eta_values
from .spectrum import radius_bound

__all__ = ["GridOperator", "discretize", "weighted_shift_grid",
           "RadiusEstimate", "estimate_radius_numeric",
           "EvidenceRecord", "invertibility_evidence",
           "NeumannResult", "neumann_apply"]

# the defaults of the invertibility ladder and of the CLI's oracle block
DEFAULT_LADDER = (256, 512, 1024)
DEFAULT_SEED = 0x5EED
SMIN_FLOOR = 1e-10
RADIUS_RTOL = 1e-13  # two successive radius ratios this close end the orbit sweep
# invertibility ladder: the Gram's eigenvalues give s_min while
# lambda_min / lambda_max > GRAM_RCOND (kappa(A) < 1e4, s_min to ~1e-8
# relative); CGLS stops at a residual of CGLS_RTOL |f| or after
# CGLS_ITERS_PER_N * N steps
GRAM_RCOND = 1e-8
CGLS_RTOL = 1e-14
CGLS_ITERS_PER_N = 4


def _lagrange_stencil(positions: np.ndarray, N: int):
    """4-point periodic Lagrange interpolation stencil at circle positions,
    slot-major: position i takes weight w[k, i] from node idx[k, i]."""
    x = wrap(positions) * N
    j0 = np.floor(x).astype(int)
    u = x - j0
    w = np.stack([-u * (u - 1.0) * (u - 2.0) / 6.0,
                  (u + 1.0) * (u - 1.0) * (u - 2.0) / 2.0,
                  -(u + 1.0) * u * (u - 2.0) / 2.0,
                  (u + 1.0) * u * (u - 1.0) / 6.0])
    idx = np.stack([(j0 + off) % N for off in (-1, 0, 1, 2)])
    return idx, w


@dataclass
class GridOperator:
    """A_N = diag(a) - diag(b) P on the N-point uniform grid.

    P interpolates f at alpha(t_i) with a 4-point periodic Lagrange
    stencil, stored slot-major as (4, N) arrays: row i of P holds the
    weights wts[:, i] in the columns idx[:, i].  Every product is one
    gather v[idx] and one contraction over the 4 slots, and goes through
    exactly one of apply, apply_P and apply_P_transpose.  The only
    transpose is apply_P_transpose, P^T v as one bincount.  ``matrix``
    (A_N) and ``gram`` (A_N^T A_N) are each one bincount of the same
    entry list: row i of A_N holds a_i in column i and -b_i wts[:, i] in
    the columns idx[:, i].  Norms are the weighted discrete p-norm with
    weights 1/N; ``discretize`` builds p = 2, and only a weighted shift's
    radius estimate reads another p.  ``shift`` and ``b`` are the shift
    and the coefficient (an ``Fn``) the grid sampled; for g*W, b is the
    weight g and b_vals = -g(nodes).
    """

    N: int
    p: float
    nodes: np.ndarray
    a_vals: np.ndarray
    b_vals: np.ndarray
    idx: np.ndarray
    wts: np.ndarray
    shift: Shift
    b: Fn
    _dense: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        # a = 0 on every weighted shift and Neumann iterate: no a*v term there
        self._has_a = bool(np.any(self.a_vals))
        self._neg_bw = -self.b_vals * self.wts     # apply's weights: -b folded into P

    def apply_P(self, v: np.ndarray) -> np.ndarray:
        return np.einsum("ki,ki->i", self.wts, v[self.idx])

    def apply_P_transpose(self, v: np.ndarray) -> np.ndarray:
        return np.bincount(self.idx.ravel(), weights=(self.wts * v).ravel(),
                           minlength=self.N)

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = np.einsum("ki,ki->i", self._neg_bw, v[self.idx])
        if self._has_a:
            out += self.a_vals * v
        return out

    def _entries(self):
        """Row i's 5 entries, slot-major: (columns, values), each (5, N)."""
        return np.vstack([np.arange(self.N), self.idx]), np.vstack([self.a_vals, self._neg_bw])

    def _scatter(self, flat: np.ndarray, vals: np.ndarray) -> np.ndarray:
        N = self.N
        return np.bincount(flat.ravel(), weights=vals.ravel(), minlength=N * N).reshape(N, N)

    def matrix(self) -> np.ndarray:
        # each entry is added onto +0.0: the bits of diag(a) - b*P, an empty entry +0
        if self._dense is None:
            cols, vals = self._entries()
            self._dense = self._scatter(np.arange(self.N) * self.N + cols, vals)
        return self._dense

    def gram(self) -> np.ndarray:
        """A_N^T A_N, from each row's 5 x 5 entry products."""
        cols, vals = self._entries()
        return self._scatter(cols[:, None] * self.N + cols[None], vals[:, None] * vals[None])

    def norm(self, v: np.ndarray) -> float:
        return float((np.sum(np.abs(v) ** self.p) / self.N) ** (1.0 / self.p))


def _grid(shift: Shift, a, b, N: int, p: float) -> GridOperator:
    """Grid operator of a*I - b*W for the shift; a and b are Exprs,
    callables or Fns, checked finite at the nodes.  With a None, b is the
    weight g of g*W, i.e. a = 0 and b = -g."""
    if N < 64 or (N & (N - 1)) != 0:
        raise ValueError("N must be a power of two >= 64")
    if not 1.0 < p < float("inf"):
        raise ValueError("p must satisfy 1 < p < inf")
    nodes = np.arange(N) / N
    b_fn = Fn.of(b, "b")
    if a is None:
        a_vals, b_vals = np.zeros(N), -b_fn(nodes)
    else:
        a_vals, b_vals = Fn.of(a, "a")(nodes), b_fn(nodes)
    idx, wts = _lagrange_stencil(shift(nodes), N)
    return GridOperator(N, p, nodes, a_vals, b_vals, idx, wts, shift, b_fn)


def discretize(op: OperatorSpec, N: int) -> GridOperator:
    """Collocation of A = a*I - b*W on the N-point grid, with l^2 norms."""
    return _grid(op.shift, op.a, op.b, N, 2.0)


def weighted_shift_grid(g, shift: Shift, N: int, p: float) -> GridOperator:
    """Grid operator for g*W (the a = 0, b = -g variant of A) on L^p."""
    return _grid(shift, None, Fn.of(g, "weight"), N, p)


@dataclass(frozen=True)
class RadiusEstimate:
    estimate: float


def estimate_radius_numeric(grid: GridOperator, iters: int = 200) -> RadiusEstimate:
    """Spectral radius of the weighted shift g*W on L^p from its orbit norms.

    By the change of variables s = alpha_n(t), the n-th power has the norm
    a_n = sup_t |g_n(t)| |alpha_n'(t)|^{-1/p} (g_n the orbit product of g,
    alpha_n' that of alpha'), and r(gW) = lim a_n^{1/n} (Antonevich,
    Linear Functional Equations: Operator Approach, 1996).  The grid's
    nodes are carried along their forward orbits, one vectorised shift
    step per n, with running sums of log|g| - (1/p) log|alpha'|; log a_n is
    their maximum.  The estimate is the m-step ratio (a_n / a_{n-m})^{1/m},
    read at n = m, 2m, ..., which cancels the period-m oscillation of the
    orbit sums; m is the multiplicity of the shift's periodic points
    (iters // 2 when it has none).  The sweep stops once two successive
    ratios agree to RADIUS_RTOL, or after `iters` steps.  When every node's
    orbit reaches a zero of g the estimate is 0.0.  No stencil product is
    made: the grid contributes only its nodes, p, shift and weight.

    Domain: the sup runs over the orbits of the nodes, which converge to
    the attracting periodic points and stay on the periodic points that
    are nodes.  So the estimate equals the closed form max over Lambda of
    (|g_m| |alpha_m'|^{-1/p})^{1/m} unless that maximum sits only on
    repelling periodic points that are not grid nodes.
    """
    if iters < 50:
        raise ValueError("iters must be >= 50")
    try:
        lag = detect_orientation_and_multiplicity(grid.shift)[1]
    except NoPeriodicStructureError:
        lag = iters // 2
    shift, weight, p = grid.shift, grid.b, grid.p
    t = grid.nodes
    log_norms = np.zeros(grid.N)   # log |g_n(t)| |alpha_n'(t)|^{-1/p} at each node t
    log_prev, estimate = 0.0, 0.0    # log a_0 = log ||I|| = 0
    with np.errstate(divide="ignore"):
        for n in range(1, iters + 1):
            log_norms += np.log(np.abs(weight(t))) - np.log(np.abs(shift.deriv(t))) / p
            t = shift(t)
            if n % lag:
                continue
            log_a = float(np.max(log_norms))
            if log_a == -math.inf:
                return RadiusEstimate(0.0)
            ratio = math.exp((log_a - log_prev) / lag)
            if abs(ratio - estimate) <= RADIUS_RTOL * ratio:
                return RadiusEstimate(ratio)
            log_prev, estimate = log_a, ratio
    return RadiusEstimate(estimate)


@dataclass(frozen=True)
class EvidenceRecord:
    """Invertibility evidence across a grid ladder.  EVIDENCE, not proof.

    Each rung holds N and, for A and (suffix ``_adjoint``) its adjoint, the
    smallest singular value s_min of A_N, the relative residual resid and
    the relative norm x_norm of the least-squares solution of A_N x = f.
    ``invertibility_evidence`` says which rungs come from the Gram and CGLS
    and which from lstsq."""

    verdict_expected: str | None
    rungs: tuple[dict, ...]
    consistent_two_sided: bool
    consistent_neither: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "rungs": list(self.rungs)}


def _smooth_rhs(N: int, rng: np.random.Generator) -> np.ndarray:
    t = np.arange(N) / N
    c = rng.standard_normal(10)
    f = np.ones(N)
    for i, k in enumerate(range(1, 6)):
        f += c[2 * i] * np.cos(2 * np.pi * k * t) + c[2 * i + 1] * np.sin(2 * np.pi * k * t)
    return f


def _cgls(grid: GridOperator, f: np.ndarray, maxiter: int) -> np.ndarray | None:
    """CGLS (CG on A^T A x = A^T f) on the matrix-free A of the grid:
    A v = apply(v), A^T v = a*v - P^T(b*v).  Returns x once the updated
    residual |f - A x| falls to CGLS_RTOL |f|, or None after maxiter steps
    (Björck, Numerical Methods for Least Squares Problems, 1996, ch. 7)."""
    def apply_T(v):
        return grid.a_vals * v - grid.apply_P_transpose(grid.b_vals * v)

    x, r = np.zeros(grid.N), f.copy()
    stop = CGLS_RTOL * np.linalg.norm(f)
    s = apply_T(r)
    p, gamma = s.copy(), s @ s
    for _ in range(maxiter):
        q = grid.apply(p)
        qq = q @ q
        if qq == 0.0:      # p = 0: A^T r vanished before the residual did
            return None
        alpha = gamma / qq
        x += alpha * p
        r -= alpha * q
        if np.linalg.norm(r) <= stop:
            return x
        s = apply_T(r)
        gamma, gamma_prev = s @ s, gamma
        p = s + (gamma / gamma_prev) * p
    return None


def _ladder(spec: OperatorSpec, ladder, seed: int, tag: str = "") -> list[dict]:
    """The finite sections of one operator up the ladder.

    While the Gram stays well-conditioned, s_min is the square root of the
    smallest eigenvalue of A^T A (``GridOperator.gram``) and x comes from
    CGLS.  The first rung whose Gram is ill-conditioned (lambda_min <=
    GRAM_RCOND lambda_max, where its eigenvalues lose the digits s_min
    needs) and every larger rung, and a rung where CGLS misses its stop
    within CGLS_ITERS_PER_N * N steps, take x and the singular values from
    one lstsq (gelsd) of the dense A_N."""
    rows, try_gram = [], True
    for N in ladder:
        grid = discretize(spec, N)
        f = _smooth_rhs(N, np.random.default_rng(seed + N))
        x = None
        if try_gram:
            lam = np.linalg.eigvalsh(grid.gram())
            try_gram = lam[0] > GRAM_RCOND * lam[-1]
            if try_gram:
                s_min = math.sqrt(lam[0])
                x = _cgls(grid, f, CGLS_ITERS_PER_N * N)
        if x is None:
            x, _, _, sv = np.linalg.lstsq(grid.matrix(), f, rcond=1e-10)
            s_min = float(sv[-1])
        nf = np.linalg.norm(f)
        rows.append({f"s_min{tag}": s_min,
                     f"resid{tag}": float(np.linalg.norm(grid.apply(x) - f) / nf),
                     f"x_norm{tag}": float(np.linalg.norm(x) / nf)})
    return rows


def invertibility_evidence(op: OperatorSpec, N_ladder=DEFAULT_LADDER,
                           seed: int = DEFAULT_SEED,
                           verdict: str | None = None) -> EvidenceRecord:
    """Singular-value and least-squares-residual ladder for A and its adjoint.

    Heuristics: a two-sided operator shows either a stable smallest
    singular value (rung ratios within [0.5, 2]) or, when finite sections
    develop spurious near-kernels (annulus-with-hole pseudospectrum), a
    vanishing smooth-data residual; a nowhere-invertible operator shows
    s_min at the floor or decaying at least twofold across the ladder.
    One-sided operators are reported through the asymmetry of the residuals
    of A and its adjoint.  s_min, resid and x_norm are l^2 numbers on the
    uniform grid (the 2-norm proxy), whatever the Boyd indices of
    ``op.space``.  Each operator climbs the ladder on the Gram path of
    ``_ladder`` (s_min from the eigenvalues of A_N^T A_N, x by CGLS, no
    dense A_N) until a rung is ill-conditioned; that rung and every larger
    one take s_min and x from one lstsq (gelsd) of A_N, as does a rung
    where CGLS misses its stop.  The rungs must be integers (numpy
    integers too, bools not), ascending, at least 3 of them, and each a
    power of two >= 64.
    """
    ladder = tuple(N_ladder)
    for N in ladder:
        if isinstance(N, bool) or not isinstance(N, (int, np.integer)):
            raise ValueError(f"N_ladder rungs must be integers, got {N!r}")
    ladder = tuple(map(int, ladder))
    if len(ladder) < 3 or any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("N_ladder must be ascending with at least 3 rungs")
    rungs = [{"N": N, **row, **row_adj} for N, row, row_adj in
             zip(ladder, _ladder(op, ladder, seed),
                 _ladder(adjoint_spec(op), ladder, seed, "_adjoint"))]

    smins = [r["s_min"] for r in rungs]
    resids = [r["resid"] for r in rungs]
    scale = max(1.0, float(np.max(np.abs(smins))))

    band_ok = min(smins) > SMIN_FLOOR and all(
        0.5 <= smins[i] / smins[i + 1] <= 2.0 for i in range(len(smins) - 1))
    resid_ok = all(r <= 1e-3 for r in resids) and resids[-1] <= resids[0] * 1.5
    consistent_two_sided = band_ok or resid_ok

    floor_hit = smins[-1] <= SMIN_FLOOR * scale
    monotone = all(smins[i + 1] <= smins[i] * 1.1 for i in range(len(smins) - 1))
    decay_ok = monotone and smins[-1] > 0 and smins[0] / smins[-1] >= 2.0
    consistent_neither = floor_hit or decay_ok

    return EvidenceRecord(verdict, tuple(rungs), consistent_two_sided,
                          consistent_neither)


@dataclass(frozen=True)
class NeumannResult:
    residual: float
    branch: str                 # "dominant-a" or "dominant-b"
    measured_ratio: float
    radius_bound: float


def neumann_apply(op: OperatorSpec, f, N: int, terms: int) -> NeumannResult:
    """Truncated Neumann inverse on the grid, applied to f.

    dominant-a branch (eta1 > 0 everywhere):
        A^{-1} = sum_n (a^{-1} b W)^n a^{-1};
    dominant-b branch (eta0 < 0 everywhere):
        A^{-1} = -W^{-1} sum_n (b^{-1} a W^{-1})^n b^{-1}.

    Returns the relative residual ||A S_K f - f||_2 / ||f||_2 (f must be finite at the grid nodes) together with the measured
    geometric decay ratio of the truncation error and the closed-form
    spectral-radius bound of the iterated operator it should track.  The
    iterate's shift, or its inverse, has the operator's periodic points
    and multiplicity m.  The measured ratio is
    ``estimate_radius_numeric`` of the iterate's grid, the m-step ratio of
    its orbit norms; it makes no stencil product.  It has that estimator's
    domain: it misses a radius carried only by repelling periodic points
    of the iterate's shift that are not grid nodes.
    """
    probe = np.linspace(0.0, 1.0, 257)
    e0, e1 = eta_values(op, probe)
    if float(np.min(e1)) > 0.0:
        branch = "dominant-a"
    elif float(np.max(e0)) < 0.0:
        branch = "dominant-b"
    else:
        raise ValueError("Neumann form not available: neither eta1 > 0 nor "
                         "eta0 < 0 holds on the whole curve")

    grid = discretize(op, N)
    f_vals = Fn.of(f, "f")(grid.nodes)
    if branch == "dominant-a":
        iter_shift, iter_weight, den = op.shift, op.b / op.a, op.a
    else:
        iter_shift, iter_weight, den = op.shift.inverse(), op.a / op.b, op.b
    C = weighted_shift_grid(iter_weight, iter_shift, N, grid.p)

    acc = np.zeros(N)
    term = f_vals / den(grid.nodes)
    for _ in range(terms):
        acc = acc + term
        term = C.apply(term)
    Sf = acc if branch == "dominant-a" else -C.apply_P(acc)

    residual = grid.norm(grid.apply(Sf) - f_vals) / grid.norm(f_vals)
    rbound = radius_bound(iter_weight, iter_shift, op.structure, op.space)
    measured = estimate_radius_numeric(C).estimate
    return NeumannResult(float(residual), branch, measured, float(rbound))
