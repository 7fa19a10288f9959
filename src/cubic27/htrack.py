"""Numerical homotopy continuation for the 27 lines along paths of cubic
forms: residual system, analytic Jacobian, Newton correction, adaptive
Euler-predictor / Newton-corrector segment tracking, and loop permutations.

A tracked line is a 2x4 complex row-span matrix in a gauge: two columns
(j1, j2) where the 2x2 minor is pinned to the identity, leaving 4 free
complex unknowns.  The residual of (f, line) is the binary cubic
f(s*p + t*q) written in the coefficients of s^3, s^2 t, s t^2, t^3; it
vanishes exactly when the line lies on Z(f).

A CubicForm holds 20 complex coefficients in exact.MONOMIAL_EXPONENTS
order, the order of the exact integer forms, so an exact form embeds as it
is.  Forms are tracked as their symmetric polarization tensor T,
f(x) = T(x, x, x), read through exact's table of monomial orderings: one
batched contraction over the rows of every line gives the residual and the
chart Jacobian together, one per Newton iteration.

A set of lines is one array Fiber: the (n, 2, 4) span matrices, the gauges
and the chart of all n lines.  Fiber.from_mats builds one from span
matrices, every tracker entry point takes and returns one, and a loop
carries one from the basepoint to the match.  Each segment takes the
previous one's end fiber as it is: its charts are fresh, since every
accepted step re-charts the lines that went stale, and it is within
newton_tol, so it is neither re-charted nor polished at a vertex.  Only a
fiber that is matched is polished, once.

A loop whose last k edges retrace its first k in reverse (a meridian: a
stem, a circle and the stem back) is read as a lasso gamma*c*gamma^-1.
Transport back along the stem is the inverse of transport along it, so the
return leg is not tracked: the fiber that closes the circle is matched
against the fiber saved where the circle starts.

A loop runs one step-size controller through its whole polygon: each
segment starts from the step the previous one ended with, rescaled by the
ratio of the two segments' lengths so that the step keeps its size in the
space of forms.  Restarting at step_init at every vertex would cost the
controller's ramp-up on every segment, however short.

Steps are measured in each segment's own parameter t in [0, 1], so the cap
step_max is per segment, not a length in the space of forms.  Its default
of 1.0 lets one step cover a whole segment: a short polygon edge then costs
one accepted step whenever Newton, the quadratic tail and the separation
barrier accept it, and accuracy, not the cap, sets the step count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Sequence

import numpy as np

# the monomial order lives in exact; MONOMIAL_EXPONENTS is re-exported here
from .exact import MONOMIAL_EXPONENTS, N_MONOMIALS, _ORDERINGS  # noqa: F401
from .perm import N_POINTS, Permutation

# coeffs @ _POLAR_SCATTER = the symmetric polarization tensor T[i, j, k] of
# the cubic, f(x) = T(x, x, x): each monomial's coefficient is spread evenly
# over the orderings of its variables.
_POLAR_SCATTER = _ORDERINGS / _ORDERINGS.sum(axis=1, keepdims=True)

# The contraction returns G[n, ab, i] = T(e_i, m_a, m_b) for the row pairs
# ab = (pp, pq, qp, qq) of a line (p, q); flat index ab * 4 + i.
_RESIDUAL_WEIGHT = np.array([1, 3, 3, 1])

# Jacobian column of the unknown at flat position pos (p_j -> j, q_j -> 4 + j):
# d/dp_j has rows (3G[pp], 6G[pq], 3G[qq], 0) at entry j, d/dq_j the same
# rows shifted down by one.  Zero-weight slots read entry 0 and drop it.
_JAC_INDEX = np.zeros((8, 4), dtype=np.int64)
_JAC_WEIGHT = np.zeros((8, 4))
for _j in range(4):
    _JAC_INDEX[_j, :3] = _JAC_INDEX[4 + _j, 1:] = (_j, 4 + _j, 12 + _j)
    _JAC_WEIGHT[_j, :3] = _JAC_WEIGHT[4 + _j, 1:] = (3, 6, 3)

_PLUCKER_PAIRS = tuple(combinations(range(4), 2))


class TrackFailure(RuntimeError):
    """Base class for path-tracking rejections."""


class NewtonFailure(TrackFailure):
    """Newton refused to converge (or lost its quadratic tail)."""


class StepUnderflow(TrackFailure):
    """Step size fell below the floor; the path runs too near the discriminant."""


class SeparationLoss(TrackFailure):
    """Two tracked lines approached each other at the minimal step size."""


class AmbiguousMatch(TrackFailure):
    """End-of-loop matching could not be certified at the required margin."""


# Fixed tracker settings.  Steps below the floor mean the path runs too near
# the discriminant; steps double after _GROW_AFTER accepted steps in a row.
_STEP_MIN = 1e-7
_STEP_GROW = 2.0
_GROW_AFTER = 3
# accepted steps keep every pair of lines this many last Newton corrections apart
_SEPARATION_FACTOR = 10.0
# Gauge minors are re-selected once their orthonormal-frame condition
# exceeds this; large values let chart entries (and hence roundoff in the
# residual) grow past what newton_tol can absorb.
_RECHART_COND = 20.0
# a Newton correction must stay below factor * previous**2 + floor
_QUAD_TAIL_FACTOR = 10.0
_QUAD_TAIL_FLOOR = 1e-12
# best-effort residual target for the polish of a fiber before it is matched
_POLISH_TOL = 1e-13


@dataclass(frozen=True)
class TrackerConfig:
    """The settings that revalidation tightens and the polish before a match
    replaces; everything else about the tracker is fixed above.

    step_init and step_max are fractions of the current segment's parameter
    interval.  step_max = 1.0 allows one step per segment; tightened()
    halves it, so revalidation takes at least two steps on every edge: an
    edge the first track crossed in one step is re-tracked along a different
    step sequence, which keeps revalidation an independent check.
    """

    newton_tol: float = 1e-10
    max_newton_iters: int = 8
    step_init: float = 0.05
    step_max: float = 1.0
    match_margin: float = 10.0

    def __post_init__(self):
        if min(self.newton_tol, self.step_init, self.step_max) <= 0:
            raise ValueError("tolerances and steps must be positive")
        if _STEP_MIN >= self.step_init:
            raise ValueError(f"step_init must exceed the step floor {_STEP_MIN}")
        if self.match_margin <= 1:
            raise ValueError("match_margin must exceed 1")

    def tightened(self) -> "TrackerConfig":
        """Revalidation settings: tighter Newton, smaller steps, wider margin."""
        return replace(
            self,
            newton_tol=self.newton_tol / 10,
            step_init=self.step_init / 2,
            step_max=self.step_max / 2,
            match_margin=self.match_margin * 2,
        )


class CubicForm:
    """20 complex coefficients over the degree-3 monomials, in
    MONOMIAL_EXPONENTS order (descending lex, d0 most significant)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[complex]):
        arr = np.asarray(coeffs, dtype=complex)
        if arr.shape != (N_MONOMIALS,):
            raise ValueError(f"expected {N_MONOMIALS} coefficients")
        if not np.any(arr):
            raise ValueError("cubic form must be nonzero")
        self.coeffs = arr

    def __eq__(self, other) -> bool:
        return isinstance(other, CubicForm) and np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self) -> str:
        return f"CubicForm({self.coeffs!r})"


# ---------------------------------------------------------------------------
# Gauges, charts and line distances
# ---------------------------------------------------------------------------

# gauge pair (j1, j2) -> flat positions of the 4 chart unknowns
_FREE_TABLE = np.zeros((4, 4, 4), dtype=np.int64)
for _a, _b in _PLUCKER_PAIRS:
    _f1, _f2 = (k for k in range(4) if k not in (_a, _b))
    _FREE_TABLE[_a, _b] = _FREE_TABLE[_b, _a] = (_f1, _f2, 4 + _f1, 4 + _f2)

_PLUCKER_A, _PLUCKER_B = np.array(_PLUCKER_PAIRS).T


def _minor_conds(mats: np.ndarray) -> np.ndarray:
    """Chart quality of all six column pairs, measured on the orthonormalized
    span so it does not depend on the current gauge; (n, 6).

    The value is sigma_max/sigma_min of the 2x2 minor of the orthonormal
    representative: the norm of the chart's free entries grows like it.
    """
    on, _ = np.linalg.qr(mats.transpose(0, 2, 1))  # (n, 4, 2), orthonormal columns
    sub = np.stack((on[:, _PLUCKER_A], on[:, _PLUCKER_B]), axis=3)  # (n, 6, 2, 2)
    sv = np.linalg.svd(sub, compute_uv=False)  # (n, 6, 2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cond = sv[..., 0] / sv[..., 1]
    cond[~np.isfinite(cond)] = np.inf
    return cond


def _gauge_conds(unknowns: np.ndarray) -> np.ndarray:
    """The value of _minor_conds at the current gauge, in closed form; (n,).

    With the chart written [I | X] (unknowns = X row by row), the rows'
    Gram matrix is I + X X^H, and the orthonormal representative's gauge
    minor has condition sqrt((1 + lmax) / (1 + lmin)) over the eigenvalues
    of X X^H.  (1 + lmax)(1 + lmin) = 1 + tr + |det X|^2 avoids lmin, and
    lmax comes from the entries of X X^H without cancellation.
    """
    a, b, c, d = unknowns.T
    h11 = a.real**2 + a.imag**2 + b.real**2 + b.imag**2
    h22 = c.real**2 + c.imag**2 + d.real**2 + d.imag**2
    h12 = np.abs(a * c.conj() + b * d.conj())
    top = 1 + (h11 + h22 + np.hypot(h11 - h22, 2 * h12)) / 2
    return top / np.sqrt(1 + h11 + h22 + np.abs(a * d - b * c) ** 2)


def _normalize_batch(mats: np.ndarray, gauges: np.ndarray) -> np.ndarray:
    """Left-multiply each 2x4 by the inverse of its gauge minor and pin the
    gauge columns to the exact identity."""
    cols = gauges[:, None, :]
    out = np.linalg.solve(np.take_along_axis(mats, cols, axis=2), mats)
    np.put_along_axis(out, cols, np.eye(2), axis=2)
    return out


def _best_gauges(mats: np.ndarray) -> np.ndarray:
    best = np.argmin(_minor_conds(mats), axis=1)
    return np.array(_PLUCKER_PAIRS, dtype=np.int64)[best]


def plucker(matrix: np.ndarray) -> np.ndarray:
    """Unit Plucker 6-vector of a 2x4 span matrix."""
    return _plucker_batch(np.asarray(matrix)[None])[0]


def line_distance(m1: np.ndarray, m2: np.ndarray) -> float:
    """Chordal distance sqrt(1 - |<u, v>|^2) between unit Plucker vectors;
    zero iff equal lines, invariant under row operations on either span.

    Evaluated as the norm of v minus its projection onto u, which stays
    accurate for nearly equal lines (the naive formula bottoms out near
    sqrt(machine epsilon)).
    """
    m1, m2 = np.asarray(m1, dtype=complex), np.asarray(m2, dtype=complex)
    return float(_chordal(plucker(m1), plucker(m2)))


def _chordal(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """line_distance between broadcast rows of unit Plucker vectors."""
    inner = (u.conj() * v).sum(axis=-1, keepdims=True)
    return np.minimum(np.linalg.norm(v - inner * u, axis=-1), 1.0)


def _plucker_batch(mats: np.ndarray) -> np.ndarray:
    p, q = mats[:, 0, :], mats[:, 1, :]
    v = p[:, _PLUCKER_A] * q[:, _PLUCKER_B] - p[:, _PLUCKER_B] * q[:, _PLUCKER_A]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _min_pairwise_distance(mats: np.ndarray) -> float:
    if mats.shape[0] < 2:
        return float("inf")
    u = _plucker_batch(mats)
    overlap = np.abs(u @ u.conj().T) ** 2
    np.fill_diagonal(overlap, 0.0)
    near = overlap > 1 - 1e-8
    if not near.any():
        # largest off-diagonal overlap = closest pair
        return float(np.sqrt(max(0.0, 1.0 - overlap.max())))
    # 1 - overlap rounds distances below ~1e-4 (two coincident lines read
    # anywhere up to 1.5e-8); measure those pairs as line_distance does
    i, j = np.nonzero(near)
    return float(_chordal(u[i], u[j]).min())


# ---------------------------------------------------------------------------
# The polarization-tensor kernel: residual and Jacobian from one contraction
# ---------------------------------------------------------------------------


def _polar(coeffs: np.ndarray) -> np.ndarray:
    """T of the form as a (16, 4) matrix, rows (j, k) and columns i."""
    return (coeffs @ _POLAR_SCATTER).reshape(16, 4)


def _contract(tensor: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """G[..., n, ab, i] = T(e_i, m_a, m_b) over the row pairs ab = (pp, pq,
    qp, qq) of every line; (n, 4, 4), or (k, n, 4, 4) for a stack of k
    tensors."""
    n = mats.shape[0]
    outer = (mats[:, :, None, :, None] * mats[:, None, :, None, :]).reshape(4 * n, 16)
    return (outer @ tensor).reshape(tensor.shape[:-2] + (n, 4, 4))


def _residual(g: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """(p.G[pp], 3q.G[pp], 3p.G[qq], q.G[qq]): the coefficients of
    T(sp + tq, sp + tq, sp + tq) = f(s*p + t*q); (n, 4)."""
    return np.einsum("nci,ndi->ndc", mats, g[:, ::3]).reshape(-1, 4) * _RESIDUAL_WEIGHT


class _Chart:
    """Index arrays of a batch's chart unknowns (free_idx as returned by
    _free_indices): their flat positions in the (n, 2, 4) batch, and the
    gather and weights that assemble the (n, 4, 4) Jacobian from the
    contraction."""

    __slots__ = ("unknowns", "jac_index", "jac_weight")

    def __init__(self, free_idx: np.ndarray):
        lines = np.arange(len(free_idx))
        self.unknowns = free_idx + 8 * lines[:, None]
        self.jac_index = _JAC_INDEX[free_idx].transpose(0, 2, 1) + 16 * lines[:, None, None]
        self.jac_weight = _JAC_WEIGHT[free_idx].transpose(0, 2, 1)

    def jacobian(self, g: np.ndarray) -> np.ndarray:
        return g.reshape(-1)[self.jac_index] * self.jac_weight

    def update(self, mats: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        out = mats.copy()
        out.reshape(-1)[self.unknowns] += deltas
        return out


def _free_indices(gauges: np.ndarray) -> np.ndarray:
    """Flat positions of the 4 chart unknowns for each line; (n, 4)."""
    return _FREE_TABLE[gauges[:, 0], gauges[:, 1]]


def residual(f: CubicForm, mats: np.ndarray) -> np.ndarray:
    """The binary-cubic coefficients of f restricted to each line: (4,) for
    one 2x4 span matrix, (n, 4) for an (n, 2, 4) stack."""
    m = np.asarray(mats, dtype=complex)
    batch = m.reshape(-1, 2, 4)
    return _residual(_contract(_polar(f.coeffs), batch), batch).reshape(m.shape[:-2] + (4,))


def jacobian(f: CubicForm, mats: np.ndarray, gauges: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of the residual in the 4 chart unknowns of each line
    with the given gauge column pair: (4, 4) for one 2x4 span matrix and its
    pair, (n, 4, 4) for an (n, 2, 4) stack and (n, 2) pairs."""
    m = np.asarray(mats, dtype=complex)
    batch = m.reshape(-1, 2, 4)
    chart = _Chart(_free_indices(np.asarray(gauges, dtype=np.int64).reshape(-1, 2)))
    return chart.jacobian(_contract(_polar(f.coeffs), batch)).reshape(m.shape[:-2] + (4, 4))


def _newton_batch(
    tensor: np.ndarray, mats: np.ndarray, chart: _Chart, cfg: TrackerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Newton-correct every line against the form with polarization tensor
    ``tensor``; returns (mats, final residual norms, max last-correction
    norms, iterations used).  Each iteration does one contraction: the one
    that measures the residual also gives the next Jacobian.

    Raises NewtonFailure when some line fails to reach newton_tol within
    max_newton_iters or loses the quadratic convergence tail.
    """
    cur = mats
    g = _contract(tensor, cur)
    res = _residual(g, cur)
    norms = np.linalg.norm(res, axis=1)
    last_step = np.zeros(len(mats))
    prev_step = np.full(len(mats), np.inf)
    iters = 0
    while norms.max() > cfg.newton_tol:
        if iters >= cfg.max_newton_iters:
            raise NewtonFailure(f"no convergence in {cfg.max_newton_iters} iterations")
        try:
            deltas = np.linalg.solve(chart.jacobian(g), -res[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise NewtonFailure("singular Jacobian") from exc
        step_norms = np.linalg.norm(deltas, axis=1)
        cur = chart.update(cur, deltas)
        g = _contract(tensor, cur)
        res = _residual(g, cur)
        norms = np.linalg.norm(res, axis=1)
        prev_step, last_step = last_step, step_norms
        if iters >= 1:
            bound = _QUAD_TAIL_FACTOR * prev_step**2 + _QUAD_TAIL_FLOOR
            if (last_step > bound).any():
                raise NewtonFailure("quadratic convergence tail lost")
        iters += 1
    return cur, norms, last_step, iters


# ---------------------------------------------------------------------------
# Segment and loop tracking
# ---------------------------------------------------------------------------


@dataclass
class TrackResult:
    """End state of a tracked segment.

    ``fiber`` is the tracked lines at t = 1, each within newton_tol of the
    target form and with fresh charts; it is not polished, so that a loop
    carries it straight into its next segment.  The 27 paths advance in
    lockstep, so ``accepted_steps`` is shared and every entry of
    ``newton_iterations`` holds the batch's corrector work, the Newton check
    on f0 included.  ``max_residual`` is the true maximum over every accepted
    correction and ``min_separation`` the smallest pairwise line distance
    seen at any accepted step.  ``step`` is the step the controller would try
    next, in the segment's own parameter t; it lies in [_STEP_MIN, step_max],
    and track_loop carries it into the next segment.
    """

    fiber: Fiber
    accepted_steps: int
    newton_iterations: list[int]
    max_residual: float
    min_separation: float
    step: float


class Fiber:
    """A set of numeric lines: their (n, 2, 4) span matrices, the gauge
    column pair of each line, where its span matrix holds the identity, and
    the chart built from the gauges.  It is the tracker's only line type:
    every entry point takes and returns fibers, and a fiber is never changed
    in place."""

    __slots__ = ("mats", "gauges", "chart")

    def __init__(self, mats: np.ndarray, gauges: np.ndarray, chart: _Chart | None = None):
        self.mats = mats
        self.gauges = gauges
        self.chart = _Chart(_free_indices(gauges)) if chart is None else chart

    @classmethod
    def from_mats(cls, mats: np.ndarray) -> "Fiber":
        """The fiber of the given (n, 2, 4) span matrices, each line in its
        best gauge and normalized so that its gauge minor is the identity."""
        mats = np.asarray(mats, dtype=complex)
        if mats.ndim != 3 or mats.shape[1:] != (2, 4):
            raise ValueError("expected (n, 2, 4) span matrices")
        if (np.linalg.matrix_rank(mats, tol=1e-12) != 2).any():
            raise ValueError("span matrix must have rank 2")
        gauges = _best_gauges(mats)
        return cls(_normalize_batch(mats, gauges), gauges)

    def moved(self, mats: np.ndarray) -> "Fiber":
        """The same charts carrying new span matrices."""
        return Fiber(mats, self.gauges, self.chart)

    def recharted(self, cond_limit: float = _RECHART_COND) -> "Fiber":
        """The fiber with the gauge of every line whose gauge condition
        exceeds cond_limit re-selected; only those lines pay for the
        six-minor SVD, and a fiber with none is returned as it is."""
        unknowns = self.mats.reshape(-1)[self.chart.unknowns]
        stale = _gauge_conds(unknowns) > cond_limit
        if not stale.any():
            return self
        mats, gauges = self.mats.copy(), self.gauges.copy()
        gauges[stale] = _best_gauges(mats[stale])
        mats[stale] = _normalize_batch(mats[stale], gauges[stale])
        return Fiber(mats, gauges)


def track_segment(
    f0: CubicForm,
    f1: CubicForm,
    start: Fiber,
    cfg: TrackerConfig | None = None,
) -> TrackResult:
    """Track the start fiber on Z(f0) along the linear homotopy
    (1-t) f0 + t f1 to t = 1, leaving the start fiber as it is.

    The start lines must pass a Newton check on f0.  Per accepted step:
    Euler prediction from the Davidenko system, lockstep Newton correction,
    then the separation barrier (pairwise line distance at least
    _SEPARATION_FACTOR times the largest last Newton correction) and a
    re-chart of the lines whose gauge went stale.  Steps halve on any failure
    and grow after a run of accepted steps.  The predictor contracts the
    homotopy's tensor and its t-derivative in one call.
    """
    cfg = cfg or TrackerConfig()
    t0, t1 = _polar(f0.coeffs), _polar(f1.coeffs)
    # the start lines must be Newton-correctable on f0
    mats, norms, _, newton_iters = _newton_batch(t0, start.mats, start.chart, cfg)
    fiber = start.moved(mats)
    pair = np.stack((t0, _polar(f1.coeffs - f0.coeffs)))  # (T at t, dT/dt)

    t = 0.0
    h = min(cfg.step_init, cfg.step_max)
    streak = 0
    accepted = 0
    max_resid = float(norms.max())
    min_sep = float("inf")
    last_failure: TrackFailure | None = None

    while t < 1.0 - 1e-14:
        h_eff = min(h, 1.0 - t)
        t_new = t + h_eff
        pair[0] = (1 - t) * t0 + t * t1
        try:
            g_t, g_dt = _contract(pair, fiber.mats)
            rhs = -_residual(g_dt, fiber.mats)
            velocity = np.linalg.solve(fiber.chart.jacobian(g_t), rhs[..., None])[..., 0]
            predicted = fiber.chart.update(fiber.mats, h_eff * velocity)
            corrected, norms, last_corr, iters = _newton_batch(
                (1 - t_new) * t0 + t_new * t1, predicted, fiber.chart, cfg
            )
            sep = _min_pairwise_distance(corrected)
            if sep < _SEPARATION_FACTOR * float(last_corr.max()):
                raise SeparationLoss(
                    f"separation {sep:.3e} below barrier at t={t_new:.6f}"
                )
        except (NewtonFailure, SeparationLoss, np.linalg.LinAlgError) as exc:
            last_failure = exc if isinstance(exc, TrackFailure) else NewtonFailure(str(exc))
            h /= 2
            streak = 0
            if h < _STEP_MIN:
                if isinstance(exc, SeparationLoss):
                    raise SeparationLoss(
                        f"separation kept failing down to step_min at t={t:.6f}"
                    ) from exc
                raise StepUnderflow(
                    f"step underflow at t={t:.6f}: {last_failure}"
                ) from last_failure
            continue

        fiber = fiber.moved(corrected).recharted()
        t = t_new
        accepted += 1
        streak += 1
        newton_iters += iters
        max_resid = max(max_resid, float(norms.max()))
        min_sep = min(min_sep, sep)
        if streak >= _GROW_AFTER:
            h = min(h * _STEP_GROW, cfg.step_max)
            streak = 0

    return TrackResult(
        fiber=fiber,
        accepted_steps=accepted,
        newton_iterations=[newton_iters] * len(fiber.mats),
        max_residual=max_resid,
        min_separation=min_sep,
        step=h,
    )


def _polish(f: CubicForm, fiber: Fiber, cfg: TrackerConfig) -> Fiber:
    """Newton-polish a fiber on Z(f) toward machine precision before it is
    matched; a polish that fails keeps the (already in-tolerance) fiber."""
    try:
        polish_cfg = replace(cfg, newton_tol=_POLISH_TOL, max_newton_iters=3)
        mats, _, _, _ = _newton_batch(_polar(f.coeffs), fiber.mats, fiber.chart, polish_cfg)
    except NewtonFailure:
        return fiber
    return fiber.moved(mats)


def _retraced_edges(vertices: Sequence[CubicForm]) -> int:
    """The largest k <= n/2 for which the last k of the polygon's n edges
    retrace its first k in reverse: vertex n - j equals vertex j exactly for
    every j <= k."""
    n = len(vertices) - 1
    k = 0
    while k < n // 2 and vertices[n - k - 1] == vertices[k + 1]:
        k += 1
    return k


def track_loop(
    vertices: Sequence[CubicForm],
    base: Fiber,
    cfg: TrackerConfig | None = None,
) -> Permutation:
    """Track the labeled base fiber around a closed polygon of cubic forms and
    return the induced label permutation (start label -> end label).

    One Fiber is carried from vertex to vertex: each segment starts from
    the previous one's unpolished end fiber, whose charts are fresh, and
    nothing is converted on the way.  One step controller runs through
    the polygon.  The first segment starts at cfg.step_init; each later one
    starts at the previous segment's ``TrackResult.step`` times the ratio of
    the two segments' lengths (||f_to - f_from|| over the coefficients), so
    that the step keeps the size it had in the space of forms, whatever the
    length of the segment.  The carried step never goes below cfg.step_init
    or above cfg.step_max.

    Lasso reading: when the last k edges retrace the first k in reverse (a
    meridian's stem, k = 1 for circle_loop), the loop is the stem, a cycle
    and the stem backwards.  Transport back along the stem is the inverse of
    transport along it, so only the first n - k edges are tracked and the
    final fiber is matched against the fiber at the end of edge k.  A
    polygon with k = 0, such as a triangle, is matched against the base
    fiber.  Each fiber that is matched is Newton-polished once first, so a
    loop polishes at most twice.

    A match is accepted only when every nearest/second-nearest distance
    ratio clears match_margin and the assignment is a bijection.
    """
    cfg = cfg or TrackerConfig()
    if len(vertices) < 2 or vertices[0] != vertices[-1]:
        raise ValueError("loop must start and end at the same form")
    if len(base.mats) != N_POINTS:
        raise ValueError(f"expected {N_POINTS} base lines")
    k = _retraced_edges(vertices)
    segments = list(zip(vertices, vertices[1 : len(vertices) - k]))
    lengths = [float(np.linalg.norm(f_to.coeffs - f_from.coeffs)) for f_from, f_to in segments]
    fiber, seg_cfg = base, cfg
    for i, (f_from, f_to) in enumerate(segments):
        if i:
            step = _carried_step(cfg, result.step, lengths[i - 1], lengths[i])
            seg_cfg = replace(cfg, step_init=step)
        result = track_segment(f_from, f_to, fiber, seg_cfg)
        fiber = result.fiber
        if i + 1 == k:
            stem_end = fiber
    end = _polish(vertices[k], fiber, cfg)
    reference = _polish(vertices[k], stem_end, cfg) if k else base
    return match_to_base(end, reference, cfg)


def _carried_step(cfg: TrackerConfig, step: float, length: float, next_length: float) -> float:
    """The start step of a loop's next segment: the previous segment's final
    ``step`` over its ``length``, rescaled to ``next_length``, kept within
    [cfg.step_init, cfg.step_max].  A zero-length next segment starts at
    step_max."""
    if not next_length:
        return cfg.step_max
    return min(cfg.step_max, max(cfg.step_init, step * length / next_length))


def match_to_base(tracked: Fiber, base: Fiber, cfg: TrackerConfig) -> Permutation:
    """The label permutation taking each tracked line to the base line
    nearest it.  Raises AmbiguousMatch at the first line whose nearest base
    line is not match_margin times nearer than the second nearest, or when
    two lines share their nearest base line."""
    tracked_u = _plucker_batch(tracked.mats)
    base_u = _plucker_batch(base.mats)
    dist = _chordal(tracked_u[:, None, :], base_u[None, :, :])  # [tracked, base]
    order = np.argsort(dist, axis=1)[:, :2]
    nearest, second = np.take_along_axis(dist, order, axis=1).T
    ambiguous = np.flatnonzero(nearest * cfg.match_margin > second)
    if ambiguous.size:
        i = ambiguous[0]
        raise AmbiguousMatch(
            f"line {i + 1}: nearest {nearest[i]:.3e} vs second {second[i]:.3e} "
            f"fails margin {cfg.match_margin}"
        )
    images = (order[:, 0] + 1).tolist()
    if len(set(images)) != len(images):
        raise AmbiguousMatch("matching is not a bijection")
    return Permutation(images)


def revalidate(
    vertices: Sequence[CubicForm],
    perm: Permutation,
    base: Fiber,
    cfg: TrackerConfig | None = None,
) -> bool:
    """Re-track the loop at tightened tolerances (newton_tol/10, step_init/2,
    match_margin*2) and confirm the identical permutation."""
    cfg = cfg or TrackerConfig()
    try:
        again = track_loop(vertices, base, cfg.tightened())
    except TrackFailure:
        return False
    return again == perm
