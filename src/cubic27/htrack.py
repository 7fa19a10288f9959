"""Numerical homotopy continuation for the 27 lines along paths of cubic
forms: residual system, analytic Jacobian, Newton correction, adaptive
Euler-predictor / Newton-corrector segment tracking, and loop permutations.

A tracked line is a 2x4 complex row-span matrix in a gauge: two columns
(j1, j2) where the 2x2 minor is pinned to the identity, leaving 4 free
complex unknowns.  The residual of (f, line) is the binary cubic
f(s*p + t*q) written in the coefficients of s^3, s^2 t, s t^2, t^3; it
vanishes exactly when the line lies on Z(f).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Sequence

import numpy as np

from .exact import Poly4
from .perm import N_POINTS, Permutation

# Degree-3 exponent tuples in descending lexicographic order, d0 first.
MONOMIAL_EXPONENTS: tuple[tuple[int, int, int, int], ...] = tuple(
    sorted(
        (
            (d0, d1, d2, 3 - d0 - d1 - d2)
            for d0 in range(4)
            for d1 in range(4 - d0)
            for d2 in range(4 - d0 - d1)
        ),
        reverse=True,
    )
)
N_MONOMIALS = len(MONOMIAL_EXPONENTS)  # 20

# variable-index triples (with repetition) of each cubic monomial
_MONOMIAL_VARS = np.array(
    [
        sum(([i] * e[i] for i in range(4)), [])
        for e in MONOMIAL_EXPONENTS
    ],
    dtype=np.int64,
)

_QUAD_EXPONENTS = tuple(
    sorted(
        (
            (d0, d1, d2, 2 - d0 - d1 - d2)
            for d0 in range(3)
            for d1 in range(3 - d0)
            for d2 in range(3 - d0 - d1)
        ),
        reverse=True,
    )
)
_QUAD_INDEX = {e: k for k, e in enumerate(_QUAD_EXPONENTS)}
_QUAD_VARS = np.array(
    [sum(([i] * e[i] for i in range(4)), []) for e in _QUAD_EXPONENTS],
    dtype=np.int64,
)

# scatter tensor: gradient coefficients = einsum("jqm,m->jq", _GRAD_SCATTER, f)
_GRAD_SCATTER = np.zeros((4, len(_QUAD_EXPONENTS), N_MONOMIALS))
for _m, _e in enumerate(MONOMIAL_EXPONENTS):
    for _j in range(4):
        if _e[_j]:
            _d = list(_e)
            _d[_j] -= 1
            _GRAD_SCATTER[_j, _QUAD_INDEX[tuple(_d)], _m] = _e[_j]

_PLUCKER_PAIRS = tuple(combinations(range(4), 2))


class TrackFailure(RuntimeError):
    """Base class for path-tracking rejections."""


class NewtonFailure(TrackFailure):
    """Newton refused to converge (or lost its quadratic tail)."""


class StepUnderflow(TrackFailure):
    """Step size fell below step_min; the path runs too near the discriminant."""


class SeparationLoss(TrackFailure):
    """Two tracked lines approached each other at the minimal step size."""


class AmbiguousMatch(TrackFailure):
    """End-of-loop matching could not be certified at the required margin."""


@dataclass(frozen=True)
class TrackerConfig:
    newton_tol: float = 1e-10
    max_newton_iters: int = 8
    step_init: float = 0.05
    step_min: float = 1e-7
    step_grow: float = 2.0
    grow_after: int = 3
    step_max: float = 0.25
    separation_factor: float = 10.0
    match_margin: float = 10.0
    # Gauge minors are re-selected once their orthonormal-frame condition
    # exceeds this; large values let chart entries (and hence roundoff in the
    # residual) grow past what newton_tol can absorb.
    rechart_cond: float = 20.0
    quad_tail_factor: float = 10.0
    quad_tail_floor: float = 1e-12
    # best-effort residual target for the end-of-segment polish
    polish_tol: float = 1e-13

    def __post_init__(self):
        if min(self.newton_tol, self.step_init, self.step_min, self.step_max) <= 0:
            raise ValueError("tolerances and steps must be positive")
        if self.step_min >= self.step_init:
            raise ValueError("step_min must be below step_init")
        if self.step_grow <= 1 or self.separation_factor <= 1 or self.match_margin <= 1:
            raise ValueError("growth and margin factors must exceed 1")

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
    """20 complex coefficients over the degree-3 monomials, descending-lex
    exponent order (d0 most significant)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[complex]):
        arr = np.asarray(coeffs, dtype=complex)
        if arr.shape != (N_MONOMIALS,):
            raise ValueError(f"expected {N_MONOMIALS} coefficients")
        if not np.any(arr):
            raise ValueError("cubic form must be nonzero")
        self.coeffs = arr

    @classmethod
    def from_exact(cls, poly: Poly4, conjugate_embedding: bool = False) -> "CubicForm":
        coeffs = [0j] * N_MONOMIALS
        for e_, c in poly.terms.items():
            coeffs[MONOMIAL_EXPONENTS.index(e_)] = c.to_complex(conjugate_embedding)
        return cls(coeffs)

    def __add__(self, other: "CubicForm") -> "CubicForm":
        return CubicForm(self.coeffs + other.coeffs)

    def __sub__(self, other: "CubicForm") -> "CubicForm":
        return CubicForm(self.coeffs - other.coeffs)

    def __rmul__(self, scalar: complex) -> "CubicForm":
        return CubicForm(scalar * self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, CubicForm) and np.array_equal(self.coeffs, other.coeffs)

    def allclose(self, other: "CubicForm", tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.coeffs - other.coeffs) <= tol))

    def __repr__(self) -> str:
        return f"CubicForm({self.coeffs!r})"


# ---------------------------------------------------------------------------
# Charted lines
# ---------------------------------------------------------------------------


def _orthonormal_rows(mats: np.ndarray) -> np.ndarray:
    """Row-orthonormal representatives of the spans; gauge-independent."""
    q, _ = np.linalg.qr(mats.transpose(0, 2, 1))  # (n, 4, 2), orthonormal columns
    return q.transpose(0, 2, 1)


def _minor_conds(mats: np.ndarray) -> np.ndarray:
    """Chart quality of all six column pairs, measured on the orthonormalized
    span so it does not depend on the current gauge; (n, 6).

    The value is sigma_max/sigma_min of the 2x2 minor of the orthonormal
    representative: the norm of the chart's free entries grows like it.
    """
    on = _orthonormal_rows(mats)
    n = mats.shape[0]
    sub = np.empty((n, 6, 2, 2), dtype=complex)
    for k, (a, b) in enumerate(_PLUCKER_PAIRS):
        sub[:, k, :, 0] = on[:, :, a]
        sub[:, k, :, 1] = on[:, :, b]
    sv = np.linalg.svd(sub, compute_uv=False)  # (n, 6, 2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cond = sv[..., 0] / sv[..., 1]
    cond[~np.isfinite(cond)] = np.inf
    return cond


def _normalize_batch(mats: np.ndarray, gauges: np.ndarray) -> np.ndarray:
    """Left-multiply each 2x4 by the inverse of its gauge minor and pin the
    gauge columns to the exact identity."""
    n = mats.shape[0]
    out = np.empty_like(mats)
    for i in range(n):
        j1, j2 = gauges[i]
        m = mats[i][:, [j1, j2]]
        out[i] = np.linalg.solve(m, mats[i])
        out[i][:, [j1, j2]] = np.eye(2)
    return out


def _best_gauges(mats: np.ndarray) -> np.ndarray:
    conds = _minor_conds(mats)
    best = np.argmin(conds, axis=1)
    return np.array([_PLUCKER_PAIRS[k] for k in best], dtype=np.int64)


class ChartedLine:
    """A numeric line with its gauge: columns (j1, j2) carry the identity."""

    __slots__ = ("matrix", "gauge")

    def __init__(self, matrix: Sequence[Sequence[complex]], gauge: tuple[int, int] | None = None):
        m = np.array(matrix, dtype=complex)
        if m.shape != (2, 4):
            raise ValueError("a line is a 2x4 matrix")
        if np.linalg.matrix_rank(m, tol=1e-12) != 2:
            raise ValueError("span matrix must have rank 2")
        batch = m[None, :, :]
        g = (
            np.array([sorted(gauge)], dtype=np.int64)
            if gauge
            else _best_gauges(batch)
        )
        self.matrix = _normalize_batch(batch, g)[0]
        self.gauge = (int(g[0, 0]), int(g[0, 1]))

    @classmethod
    def from_exact(cls, line, conjugate_embedding: bool = False) -> "ChartedLine":
        return cls(line.to_complex(conjugate_embedding))

    def __repr__(self) -> str:
        return f"ChartedLine(gauge={self.gauge}, matrix={self.matrix!r})"


def plucker(matrix: np.ndarray) -> np.ndarray:
    """Unit Plucker 6-vector of a 2x4 span matrix."""
    p, q = np.asarray(matrix)[0], np.asarray(matrix)[1]
    v = np.array([p[a] * q[b] - p[b] * q[a] for a, b in _PLUCKER_PAIRS])
    return v / np.linalg.norm(v)


def line_distance(l1, l2) -> float:
    """Chordal distance sqrt(1 - |<u, v>|^2) between unit Plucker vectors;
    zero iff equal lines, invariant under row operations on either span.

    Evaluated as the norm of v minus its projection onto u, which stays
    accurate for nearly equal lines (the naive formula bottoms out near
    sqrt(machine epsilon)).
    """
    m1 = l1.matrix if isinstance(l1, ChartedLine) else np.asarray(l1, dtype=complex)
    m2 = l2.matrix if isinstance(l2, ChartedLine) else np.asarray(l2, dtype=complex)
    u, v = plucker(m1), plucker(m2)
    residual_vec = v - np.vdot(u, v) * u
    return float(min(np.linalg.norm(residual_vec), 1.0))


def _plucker_batch(mats: np.ndarray) -> np.ndarray:
    p, q = mats[:, 0, :], mats[:, 1, :]
    cols = [p[:, a] * q[:, b] - p[:, b] * q[:, a] for a, b in _PLUCKER_PAIRS]
    v = np.stack(cols, axis=1)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _min_pairwise_distance(mats: np.ndarray) -> float:
    if mats.shape[0] < 2:
        return float("inf")
    u = _plucker_batch(mats)
    overlap = np.abs(u @ u.conj().T) ** 2
    np.fill_diagonal(overlap, 0.0)
    # largest off-diagonal overlap = closest pair
    return float(np.sqrt(max(0.0, 1.0 - overlap.max())))


# ---------------------------------------------------------------------------
# Residual and Jacobian
# ---------------------------------------------------------------------------


def _residual_batch(coeffs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Binary-cubic coefficients of f(s*p + t*q) for each line; (n, 4)."""
    p, q = mats[:, 0, :], mats[:, 1, :]
    a = p[:, _MONOMIAL_VARS]  # (n, 20, 3)
    b = q[:, _MONOMIAL_VARS]
    c0 = a[:, :, 0] * a[:, :, 1] * a[:, :, 2]
    c1 = (
        a[:, :, 0] * a[:, :, 1] * b[:, :, 2]
        + a[:, :, 0] * b[:, :, 1] * a[:, :, 2]
        + b[:, :, 0] * a[:, :, 1] * a[:, :, 2]
    )
    c2 = (
        a[:, :, 0] * b[:, :, 1] * b[:, :, 2]
        + b[:, :, 0] * a[:, :, 1] * b[:, :, 2]
        + b[:, :, 0] * b[:, :, 1] * a[:, :, 2]
    )
    c3 = b[:, :, 0] * b[:, :, 1] * b[:, :, 2]
    cubic = np.stack([c0, c1, c2, c3], axis=2)  # (n, 20, 4)
    return np.einsum("m,nmk->nk", coeffs, cubic)


def _jacobian_batch(coeffs: np.ndarray, mats: np.ndarray, free_idx: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of the residual in the 4 chart unknowns; (n, 4, 4).

    free_idx[i] lists the flat unknown positions (p_k -> k, q_k -> 4 + k).
    """
    grad = np.einsum("jqm,m->jq", _GRAD_SCATTER, coeffs)  # (4, 10)
    p, q = mats[:, 0, :], mats[:, 1, :]
    a = p[:, _QUAD_VARS]  # (n, 10, 2)
    b = q[:, _QUAD_VARS]
    t0 = a[:, :, 0] * a[:, :, 1]
    t1 = a[:, :, 0] * b[:, :, 1] + b[:, :, 0] * a[:, :, 1]
    t2 = b[:, :, 0] * b[:, :, 1]
    quad = np.stack([t0, t1, t2], axis=2)  # (n, 10, 3)
    gline = np.einsum("jq,nqk->njk", grad, quad)  # (n, 4, 3)
    n = mats.shape[0]
    full = np.zeros((n, 4, 8), dtype=complex)
    # d/dp_j: s * (grad_j f)|line  -> rows (s^3, s^2 t, s t^2)
    full[:, 0:3, 0:4] = gline.transpose(0, 2, 1)
    # d/dq_j: t * (grad_j f)|line  -> rows (s^2 t, s t^2, t^3)
    full[:, 1:4, 4:8] = gline.transpose(0, 2, 1)
    return np.take_along_axis(full, free_idx[:, None, :], axis=2)


def _free_indices(gauges: np.ndarray) -> np.ndarray:
    """Flat positions of the 4 chart unknowns for each line; (n, 4)."""
    n = gauges.shape[0]
    out = np.empty((n, 4), dtype=np.int64)
    for i in range(n):
        free = [k for k in range(4) if k not in (gauges[i, 0], gauges[i, 1])]
        out[i] = [free[0], free[1], 4 + free[0], 4 + free[1]]
    return out


def residual(f: CubicForm, line) -> np.ndarray:
    """The four binary-cubic coefficients of f restricted to the line."""
    m = line.matrix if isinstance(line, ChartedLine) else np.asarray(line, dtype=complex)
    return _residual_batch(f.coeffs, m[None, :, :])[0]


def jacobian(f: CubicForm, line: ChartedLine) -> np.ndarray:
    gauges = np.array([line.gauge], dtype=np.int64)
    return _jacobian_batch(f.coeffs, line.matrix[None, :, :], _free_indices(gauges))[0]


def _apply_updates(mats: np.ndarray, free_idx: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    out = mats.copy()
    flat = out.reshape(out.shape[0], 8)
    np.put_along_axis(flat, free_idx, np.take_along_axis(flat, free_idx, axis=1) + deltas, axis=1)
    return flat.reshape(out.shape)


def _newton_batch(
    coeffs: np.ndarray,
    mats: np.ndarray,
    free_idx: np.ndarray,
    cfg: TrackerConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Newton-correct every line against the form; returns (mats, final
    residual norms, max last-correction norms, iterations used).

    Raises NewtonFailure when some line fails to reach newton_tol within
    max_newton_iters or loses the quadratic convergence tail.
    """
    cur = mats
    res = _residual_batch(coeffs, cur)
    norms = np.linalg.norm(res, axis=1)
    last_step = np.zeros(len(mats))
    prev_step = np.full(len(mats), np.inf)
    iters = 0
    while norms.max() > cfg.newton_tol:
        if iters >= cfg.max_newton_iters:
            raise NewtonFailure(f"no convergence in {cfg.max_newton_iters} iterations")
        jac = _jacobian_batch(coeffs, cur, free_idx)
        try:
            deltas = np.linalg.solve(jac, -res[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise NewtonFailure("singular Jacobian") from exc
        step_norms = np.linalg.norm(deltas, axis=1)
        cur = _apply_updates(cur, free_idx, deltas)
        res = _residual_batch(coeffs, cur)
        norms = np.linalg.norm(res, axis=1)
        prev_step, last_step = last_step, step_norms
        if iters >= 1:
            bound = cfg.quad_tail_factor * prev_step**2 + cfg.quad_tail_floor
            if np.any(last_step > bound):
                raise NewtonFailure("quadratic convergence tail lost")
        iters += 1
    return cur, norms, last_step, iters


def newton_correct(f: CubicForm, line: ChartedLine, cfg: TrackerConfig) -> ChartedLine:
    """Refine one line onto Z(f); raises NewtonFailure on divergence.
    An input already satisfying the tolerance is returned unchanged."""
    gauges = np.array([line.gauge], dtype=np.int64)
    mats, _, _, iters = _newton_batch(
        f.coeffs, line.matrix[None, :, :].copy(), _free_indices(gauges), cfg
    )
    if iters == 0:
        return line
    return ChartedLine(mats[0], gauge=line.gauge)


# ---------------------------------------------------------------------------
# Segment and loop tracking
# ---------------------------------------------------------------------------


@dataclass
class TrackResult:
    """End state of a tracked segment.

    The 27 paths advance in lockstep, so ``accepted_steps`` is shared;
    ``newton_iterations`` records the per-line corrector work.  ``max_residual``
    is the true maximum over every accepted correction and ``min_separation``
    the smallest pairwise line distance seen at any accepted step.
    """

    lines: list[ChartedLine]
    accepted_steps: int
    newton_iterations: list[int]
    max_residual: float
    min_separation: float


class _Batch:
    """Mutable lockstep state of the 27 tracked lines."""

    def __init__(self, lines: Sequence[ChartedLine]):
        self.mats = np.stack([l.matrix for l in lines]).astype(complex)
        self.gauges = np.array([l.gauge for l in lines], dtype=np.int64)
        self.free = _free_indices(self.gauges)

    def rechart(self, cond_limit: float) -> None:
        conds = _minor_conds(self.mats)
        current = conds[np.arange(len(self.mats)), self._gauge_slots()]
        stale = current > cond_limit
        if not np.any(stale):
            return
        best = _best_gauges(self.mats[stale])
        self.mats[stale] = _normalize_batch(self.mats[stale], best)
        self.gauges[stale] = best
        self.free = _free_indices(self.gauges)

    def _gauge_slots(self) -> np.ndarray:
        return np.array(
            [_PLUCKER_PAIRS.index((int(a), int(b))) for a, b in self.gauges],
            dtype=np.int64,
        )

    def to_lines(self) -> list[ChartedLine]:
        return [
            ChartedLine(self.mats[i], gauge=(int(self.gauges[i, 0]), int(self.gauges[i, 1])))
            for i in range(len(self.mats))
        ]


def track_segment(
    f0: CubicForm,
    f1: CubicForm,
    lines: Sequence[ChartedLine],
    cfg: TrackerConfig | None = None,
) -> TrackResult:
    """Track the given start lines on Z(f0) along the linear homotopy
    (1-t) f0 + t f1 to t = 1.

    Per accepted step: Euler prediction from the Davidenko system, lockstep
    Newton correction, then the separation barrier (pairwise line distance at
    least separation_factor times the largest last Newton correction).  Steps
    halve on any failure and grow after a run of accepted steps.
    """
    cfg = cfg or TrackerConfig()
    batch = _Batch(lines)
    batch.rechart(cfg.rechart_cond)
    # the start lines must be Newton-correctable on f0
    mats, norms, _, it0 = _newton_batch(f0.coeffs, batch.mats, batch.free, cfg)
    batch.mats = mats
    df = f1.coeffs - f0.coeffs
    newton_iters = np.full(len(lines), it0, dtype=np.int64)

    t = 0.0
    h = min(cfg.step_init, cfg.step_max)
    streak = 0
    accepted = 0
    max_resid = float(norms.max())
    min_sep = _min_pairwise_distance(batch.mats)
    last_failure: TrackFailure | None = None

    while t < 1.0 - 1e-14:
        h_eff = min(h, 1.0 - t)
        t_new = t + h_eff
        ft = (1 - t) * f0.coeffs + t * f1.coeffs
        ft_new = (1 - t_new) * f0.coeffs + t_new * f1.coeffs
        try:
            jac = _jacobian_batch(ft, batch.mats, batch.free)
            rhs = -_residual_batch(df, batch.mats)
            velocity = np.linalg.solve(jac, rhs[..., None])[..., 0]
            predicted = _apply_updates(batch.mats, batch.free, h_eff * velocity)
            corrected, norms, last_corr, iters = _newton_batch(
                ft_new, predicted, batch.free, cfg
            )
            sep = _min_pairwise_distance(corrected)
            if sep < cfg.separation_factor * float(last_corr.max()):
                raise SeparationLoss(
                    f"separation {sep:.3e} below barrier at t={t_new:.6f}"
                )
        except (NewtonFailure, np.linalg.LinAlgError) as exc:
            last_failure = exc if isinstance(exc, TrackFailure) else NewtonFailure(str(exc))
            h /= 2
            streak = 0
            if h < cfg.step_min:
                raise StepUnderflow(
                    f"step underflow at t={t:.6f}: {last_failure}"
                ) from last_failure
            continue
        except SeparationLoss as exc:
            last_failure = exc
            h /= 2
            streak = 0
            if h < cfg.step_min:
                raise SeparationLoss(
                    f"separation kept failing down to step_min at t={t:.6f}"
                ) from exc
            continue

        batch.mats = corrected
        t = t_new
        accepted += 1
        streak += 1
        newton_iters += iters
        max_resid = max(max_resid, float(norms.max()))
        min_sep = min(min_sep, sep)
        if streak >= cfg.grow_after:
            h = min(h * cfg.step_grow, cfg.step_max)
            streak = 0
        batch.rechart(cfg.rechart_cond)

    # polish the end fiber toward machine precision; failure keeps the
    # (already in-tolerance) corrected lines
    try:
        polish_cfg = replace(cfg, newton_tol=cfg.polish_tol, max_newton_iters=3)
        mats, _, _, extra = _newton_batch(f1.coeffs, batch.mats, batch.free, polish_cfg)
        batch.mats = mats
        newton_iters += extra
    except NewtonFailure:
        pass

    return TrackResult(
        lines=batch.to_lines(),
        accepted_steps=accepted,
        newton_iterations=[int(x) for x in newton_iters],
        max_residual=max_resid,
        min_separation=min_sep,
    )


def track_loop(
    vertices: Sequence[CubicForm],
    base_lines: Sequence[ChartedLine],
    cfg: TrackerConfig | None = None,
) -> Permutation:
    """Track the labeled base fiber around a closed polygon of cubic forms and
    return the induced label permutation (start label -> end label).

    The final lines are matched back against the *base* lines; a match is
    accepted only when every nearest/second-nearest distance ratio clears
    match_margin and the assignment is a bijection.
    """
    cfg = cfg or TrackerConfig()
    if len(vertices) < 2 or not vertices[0].allclose(vertices[-1], tol=0.0):
        raise ValueError("loop must start and end at the same form")
    if len(base_lines) != N_POINTS:
        raise ValueError(f"expected {N_POINTS} base lines")
    current = list(base_lines)
    for f_from, f_to in zip(vertices, vertices[1:]):
        result = track_segment(f_from, f_to, current, cfg)
        current = result.lines
    return match_to_base(current, base_lines, cfg)


def match_to_base(
    tracked: Sequence[ChartedLine],
    base_lines: Sequence[ChartedLine],
    cfg: TrackerConfig,
) -> Permutation:
    tracked_u = _plucker_batch(np.stack([l.matrix for l in tracked]))
    base_u = _plucker_batch(np.stack([l.matrix for l in base_lines]))
    # stable chordal distances: norm of base minus its projection onto tracked
    inner = tracked_u.conj() @ base_u.T  # inner[i, j] = <tracked_i, base_j>
    resid = base_u[None, :, :] - inner[:, :, None] * tracked_u[:, None, :]
    dist = np.minimum(np.linalg.norm(resid, axis=2), 1.0)
    images = []
    for i in range(len(tracked)):
        order = np.argsort(dist[i])
        nearest, second = dist[i, order[0]], dist[i, order[1]]
        if nearest * cfg.match_margin > second:
            raise AmbiguousMatch(
                f"line {i + 1}: nearest {nearest:.3e} vs second {second:.3e} "
                f"fails margin {cfg.match_margin}"
            )
        images.append(int(order[0]) + 1)
    if len(set(images)) != len(images):
        raise AmbiguousMatch("matching is not a bijection")
    return Permutation(images)


def revalidate(
    vertices: Sequence[CubicForm],
    perm: Permutation,
    base_lines: Sequence[ChartedLine],
    cfg: TrackerConfig | None = None,
) -> bool:
    """Re-track the loop at tightened tolerances (newton_tol/10, step_init/2,
    match_margin*2) and confirm the identical permutation."""
    cfg = cfg or TrackerConfig()
    try:
        again = track_loop(vertices, base_lines, cfg.tightened())
    except TrackFailure:
        return False
    return again == perm
