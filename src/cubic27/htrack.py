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

A set of lines is one array Fiber: the (n, 2, 4) span matrices and the
gauges of all n lines.  Fiber.from_mats builds one from span matrices,
every tracker entry point takes and returns fibers, and a loop carries one
from the basepoint to the match.  Newton runs only inside track_segment:
each accepted step leaves every line within newton_tol of its form and
re-charts the lines whose gauge went stale, so a segment takes the previous
one's end fiber as it is, and a loop matches its end fiber as the last
segment returns it.  The Newton check on f0 is for a member's first edge
only, where its start fiber comes from outside.

The tracker works on ragged batches.  A batch has k members, each one
fiber of n tracked lines on its own path with its own config, and every
kernel call takes all of them: one (3n, 16) @ (16, 4) contraction and one
n-fold 4x4 solve per member, and one Plucker overlap of all the lines the
frame reads off them, stacked along a leading member axis.  Each member
keeps its own edge, t, step, streak of accepted steps, Newton convergence
and failure, so a member's arithmetic is the same in any batch and a batch
of one is the single-fiber tracker.  A member that reaches a vertex starts
its next edge in the next round, while the others go on along theirs: a
batch takes as many rounds as its longest member.  A member that fails does
not stop the others: track_segment, track_loop and revalidate return each
member's TrackFailure beside the others' results instead of raising it.
track_loop tracks a batch of loops, each under its own config, as one
track_segment call, and revalidate runs each loop's first track and its
tightened re-track as members of that one batch, then compares them.

A family whose forms all keep a group H of coordinate permutations tracks
only some of its lines: moving lines along a loop of its forms commutes
with H, so the path of sigma.l is sigma applied to the path of l.  A Frame
names the tracked lines and the coordinate permutation that reads each
other line off one of them.  Every step measures the separation barrier on
all the lines, the tracked ones and their images, and rejects a step that
takes a tracked line off its stabilizer images; an end fiber is expanded to
all the lines by exact column permutations before it is matched.  The
trivial frame, every line tracked, is what a loop outside any such family
uses.

A loop whose last k edges retrace its first k in reverse (a meridian: a
stem, a circle and the stem back) is read as a lasso gamma*c*gamma^-1.
Transport back along the stem is the inverse of transport along it, so the
return leg is not tracked: the fiber that closes the circle is matched
against the fiber saved where the circle starts.

Steps are measured in each segment's own parameter t in [0, 1], so the cap
step_max is per segment, not a length in the space of forms.  Every segment
starts at its cap, whose default of 1.0 lets one step cover a whole
segment: a short polygon edge then costs one accepted step whenever Newton,
the quadratic tail and the separation barrier accept it, and accuracy, not
a ramp up from a small first step, sets the step count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

# the monomial order lives in exact; MONOMIAL_EXPONENTS is re-exported here
from .exact import MONOMIAL_EXPONENTS, N_MONOMIALS, _ORDERINGS  # noqa: F401
from .perm import N_POINTS, FiniteGroup, Permutation, orbits

# coeffs @ _POLAR_SCATTER = the symmetric polarization tensor T[i, j, k] of
# the cubic, f(x) = T(x, x, x): each monomial's coefficient is spread evenly
# over the orderings of its variables.
_POLAR_SCATTER = _ORDERINGS / _ORDERINGS.sum(axis=1, keepdims=True)

# The contraction returns G[n, ab, i] = T(e_i, m_a, m_b) for the row pairs
# ab = (pp, pq, qq) of a line (p, q); flat index ab * 4 + i.  T is symmetric,
# so qp would equal pq and is not formed.
_RESIDUAL_WEIGHT = np.array([1, 3, 3, 1])

# Jacobian column of the unknown at flat position pos (p_j -> j, q_j -> 4 + j):
# d/dp_j has rows (3G[pp], 6G[pq], 3G[qq], 0) at entry j, d/dq_j the same
# rows shifted down by one.  Zero-weight slots read entry 0 and drop it.
_JAC_INDEX = np.zeros((8, 4), dtype=np.int64)
_JAC_WEIGHT = np.zeros((8, 4))
for _j in range(4):
    _JAC_INDEX[_j, :3] = _JAC_INDEX[4 + _j, 1:] = (_j, 4 + _j, 8 + _j)
    _JAC_WEIGHT[_j, :3] = _JAC_WEIGHT[4 + _j, 1:] = (3, 6, 3)

_PLUCKER_PAIRS = tuple(combinations(range(4), 2))


class TrackFailure(RuntimeError):
    """Base class for path-tracking rejections."""


class NewtonFailure(TrackFailure):
    """Newton refused to converge (or lost its quadratic tail)."""


class StepUnderflow(TrackFailure):
    """Step size fell below the floor; the path runs too near the discriminant."""


class SeparationLoss(TrackFailure):
    """Two lines approached each other, or a tracked line left its
    stabilizer images, at the minimal step size."""


class AmbiguousMatch(TrackFailure):
    """End-of-loop matching could not be certified at the required margin."""


# Fixed tracker settings.  Steps below the floor mean the path runs too near
# the discriminant; steps double after _GROW_AFTER accepted steps in a row.
_STEP_MIN = 1e-7
_STEP_GROW = 2.0
_GROW_AFTER = 3
# a Newton run that misses newton_tol in this many iterations fails
_MAX_NEWTON_ITERS = 8
# accepted steps keep every pair of lines this many last Newton corrections
# apart, and each tracked line this many times nearer its stabilizer images
# than the nearest pair of lines
_SEPARATION_FACTOR = 10.0
# Gauge minors are re-selected once their orthonormal-frame condition
# exceeds this; large values let chart entries (and hence roundoff in the
# residual) grow past what newton_tol can absorb.
_RECHART_COND = 20.0
# a Newton correction must stay below factor * previous**2 + floor
_QUAD_TAIL_FACTOR = 10.0
_QUAD_TAIL_FLOOR = 1e-12


@dataclass(frozen=True)
class TrackerConfig:
    """The settings that revalidation tightens; everything else about the
    tracker is fixed above.

    step_max is a fraction of the current segment's parameter interval: the
    first step of every segment and the cap that steps grow back to.
    step_max = 1.0 allows one step per segment; tightened() halves it, so
    revalidation takes at least two steps on every edge: an edge the first
    track crossed in one step is re-tracked along a different step
    sequence, which keeps revalidation an independent check.
    """

    newton_tol: float = 1e-10
    step_max: float = 1.0
    match_margin: float = 10.0

    def __post_init__(self):
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        if _STEP_MIN >= self.step_max:
            raise ValueError(f"step_max must exceed the step floor {_STEP_MIN}")
        if self.match_margin <= 1:
            raise ValueError("match_margin must exceed 1")

    def tightened(self) -> "TrackerConfig":
        """Revalidation settings: tighter Newton, smaller steps, wider margin."""
        return replace(
            self,
            newton_tol=self.newton_tol / 10,
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

_PLUCKER_A, _PLUCKER_B = np.array(_PLUCKER_PAIRS).T

# gauge pair -> its slot in _PLUCKER_PAIRS, and per slot the flat positions
# of the chart unknowns (the two columns off the gauge, in both rows) and
# the Jacobian gather and weights of _JAC_INDEX
_SLOT = np.zeros((4, 4), dtype=np.int64)
_SLOT[_PLUCKER_A, _PLUCKER_B] = _SLOT[_PLUCKER_B, _PLUCKER_A] = np.arange(len(_PLUCKER_PAIRS))
_SLOT_FREE = np.array(
    [[j + 4 * r for r in (0, 1) for j in range(4) if j not in pair] for pair in _PLUCKER_PAIRS]
)
_SLOT_JAC_INDEX = _JAC_INDEX[_SLOT_FREE].transpose(0, 2, 1).copy()
_SLOT_JAC_WEIGHT = _JAC_WEIGHT[_SLOT_FREE].transpose(0, 2, 1).copy()


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


def _min_pairwise_distance(mats: np.ndarray) -> np.ndarray:
    """The smallest pairwise line distance within each fiber of a stack:
    (..., n, 2, 4) span matrices give shape (...), and inf where n < 2."""
    lead, n = mats.shape[:-3], mats.shape[-3]
    if n < 2:
        return np.full(lead, np.inf)
    u = _plucker_batch(mats.reshape(-1, 2, 4)).reshape(-1, n, 6)
    overlap = np.abs(u @ u.conj().transpose(0, 2, 1)) ** 2
    diagonal = np.arange(n)
    overlap[:, diagonal, diagonal] = 0.0
    # largest off-diagonal overlap = closest pair
    out = np.sqrt(np.fmax(0.0, 1.0 - overlap.max(axis=(1, 2))))
    # 1 - overlap rounds distances below ~1e-4 (two coincident lines read
    # anywhere up to 1.5e-8); measure those pairs as line_distance does
    near = overlap > 1 - 1e-8
    for m in np.flatnonzero(near.any(axis=(1, 2))):
        i, j = np.nonzero(near[m])
        out[m] = _chordal(u[m, i], u[m, j]).min()
    return out.reshape(lead)


# ---------------------------------------------------------------------------
# The polarization-tensor kernel: residual and Jacobian from one contraction
# ---------------------------------------------------------------------------


def _polar(coeffs: np.ndarray) -> np.ndarray:
    """T of each form as a (16, 4) matrix, rows (j, k) and columns i:
    (..., 20) coefficients give (..., 16, 4)."""
    return (coeffs @ _POLAR_SCATTER).reshape(coeffs.shape[:-1] + (16, 4))


def _contract(tensor: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """G[m, ..., l, ab, i] = T(e_i, m_a, m_b) over the row pairs ab = (pp,
    pq, qq) of line l of member m, for each tensor T of member m:
    tensor (k, ..., 16, 4) and mats (k, n, 2, 4) give (k, ..., n, 3, 4).
    Each member is one (3n, 16) @ (16, 4) product per tensor."""
    k, n = mats.shape[:2]
    lines = mats.reshape(-1, 2, 4)
    outer = lines[:, [0, 0, 1], :, None] * lines[:, [0, 1, 1], None, :]
    outer = outer.reshape((k,) + (1,) * (tensor.ndim - 3) + (3 * n, 16))
    return (outer @ tensor).reshape(tensor.shape[:-2] + (n, 3, 4))


def _residual(g: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """(p.G[pp], 3q.G[pp], 3p.G[qq], q.G[qq]): the coefficients of
    T(sp + tq, sp + tq, sp + tq) = f(s*p + t*q) for every line of g
    (..., 3, 4) and mats (..., 2, 4); (..., 4)."""
    flat = np.einsum("nci,ndi->ndc", mats.reshape(-1, 2, 4), g.reshape(-1, 3, 4)[:, ::2])
    return flat.reshape(mats.shape[:-2] + (4,)) * _RESIDUAL_WEIGHT


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=-1), the same arithmetic without its checks."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-1))


class _Chart:
    """Index arrays of the chart unknowns of a batch of lines with the given
    (N, 2) gauges: their flat positions in the (N, 2, 4) span matrices, and
    the gather and weights that assemble the (N, 4, 4) Jacobian from the
    contraction."""

    __slots__ = ("gauges", "unknowns", "jac_index", "jac_weight")

    def __init__(self, gauges: np.ndarray):
        slots = _SLOT[gauges[:, 0], gauges[:, 1]]
        lines = np.arange(len(slots))
        self.gauges = gauges
        self.unknowns = _SLOT_FREE[slots] + 8 * lines[:, None]
        self.jac_index = _SLOT_JAC_INDEX[slots] + 12 * lines[:, None, None]
        self.jac_weight = _SLOT_JAC_WEIGHT[slots]

    def members(self, idx: Sequence[int], n: int) -> "_Chart":
        """The chart of the lines of members idx of a batch of n-line members."""
        return _Chart(self.gauges.reshape(-1, n, 2)[idx].reshape(-1, 2))

    def jacobian(self, g: np.ndarray) -> np.ndarray:
        return g.reshape(-1)[self.jac_index] * self.jac_weight

    def update(self, mats: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        out = mats.copy()
        out.reshape(-1)[self.unknowns] += deltas
        return out


def residual(f: CubicForm, mats: np.ndarray) -> np.ndarray:
    """The binary-cubic coefficients of f restricted to each line: (4,) for
    one 2x4 span matrix, (n, 4) for an (n, 2, 4) stack."""
    m = np.asarray(mats, dtype=complex)
    batch = m.reshape(1, -1, 2, 4)
    g = _contract(_polar(f.coeffs)[None], batch)[0]
    return _residual(g, batch[0]).reshape(m.shape[:-2] + (4,))


def jacobian(f: CubicForm, mats: np.ndarray, gauges: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of the residual in the 4 chart unknowns of each line
    with the given gauge column pair: (4, 4) for one 2x4 span matrix and its
    pair, (n, 4, 4) for an (n, 2, 4) stack and (n, 2) pairs."""
    m = np.asarray(mats, dtype=complex)
    batch = m.reshape(1, -1, 2, 4)
    chart = _Chart(np.asarray(gauges, dtype=np.int64).reshape(-1, 2))
    g = _contract(_polar(f.coeffs)[None], batch)
    return chart.jacobian(g).reshape(m.shape[:-2] + (4, 4))


def _solve(jac: np.ndarray, rhs: np.ndarray, n: int) -> tuple[np.ndarray, list]:
    """Solve the 4x4 systems jac (N, 4, 4) for rhs (N, 4), n systems per
    member.  Returns the solutions and an empty list, or, when some member's
    systems are singular, per member None or the LinAlgError that solving
    the member alone raises; a singular member's rows are zero."""
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0], []
    except np.linalg.LinAlgError:
        pass
    out, errors = np.zeros_like(rhs), []
    for rows in (slice(m, m + n) for m in range(0, len(rhs), n)):
        try:
            out[rows] = np.linalg.solve(jac[rows], rhs[rows, :, None])[..., 0]
            errors.append(None)
        except np.linalg.LinAlgError as exc:
            errors.append(exc)
    return out, errors


def _newton_batch(
    tensors: np.ndarray, mats: np.ndarray, chart: _Chart, cfgs: Sequence[TrackerConfig]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int], list[NewtonFailure | None]]:
    """Newton-correct every member's lines against its own form: member m
    has the polarization tensor tensors[m], the n lines mats[m] and the
    config cfgs[m], and ``chart`` covers all k * n lines.  Returns, with a
    leading member axis, the corrected mats, final residual norms and last
    correction norms, and per member the iterations used and the
    NewtonFailure that stopped it or None.  A member fails when some line
    misses newton_tol within _MAX_NEWTON_ITERS or loses the quadratic
    convergence tail; a failed member's mats are its input and its norms 0.
    A member's singular Jacobian fails it with a zero correction.

    Each iteration does one contraction over the members still correcting:
    the one that measures the residual also gives the next Jacobian.  A
    member leaves the batch at the start of the iteration after it converges
    or fails, so every member still in it has done the same number of
    iterations.
    """
    k, n = mats.shape[:2]
    out, out_norms, out_last = mats.copy(), np.zeros((k, n)), np.zeros((k, n))
    counts: list[int] = [0] * k
    failures: list[NewtonFailure | None] = [None] * k
    live = list(range(k))
    tol = np.array([c.newton_tol for c in cfgs])
    cur, last = mats, np.zeros((k, n))
    g = _contract(tensors, cur)
    res = _residual(g, cur)
    norms = _row_norms(res)
    iters = 0
    while True:
        going = (norms.max(axis=1) > tol).tolist()
        stopped = {
            i for i, m in enumerate(live)
            if failures[m] is not None or not going[i] or iters >= _MAX_NEWTON_ITERS
        }
        if stopped:
            for i in stopped:
                m = live[i]
                counts[m] = iters
                if failures[m] is not None:
                    continue
                if going[i]:
                    failures[m] = NewtonFailure(f"no convergence in {_MAX_NEWTON_ITERS} iterations")
                else:
                    out[m], out_norms[m], out_last[m] = cur[i], norms[i], last[i]
            keep = [i for i in range(len(live)) if i not in stopped]
            if not keep:
                break
            live = [live[i] for i in keep]
            tol, tensors, cur, g, res, last = (x[keep] for x in (tol, tensors, cur, g, res, last))
            chart = chart.members(keep, n)

        deltas, errors = _solve(chart.jacobian(g), -res.reshape(-1, 4), n)
        for i, exc in enumerate(errors):
            if exc is not None:
                failures[live[i]] = NewtonFailure("singular Jacobian")
                failures[live[i]].__cause__ = exc
        step_norms = _row_norms(deltas).reshape(-1, n)
        cur = chart.update(cur, deltas)
        g = _contract(tensors, cur)
        res = _residual(g, cur)
        norms = _row_norms(res)
        prev_step, last = last, step_norms
        if iters:
            lost = last > _QUAD_TAIL_FACTOR * prev_step**2 + _QUAD_TAIL_FLOOR
            if lost.any():
                for i in np.flatnonzero(lost.any(axis=1)):
                    if failures[live[i]] is None:
                        failures[live[i]] = NewtonFailure("quadratic convergence tail lost")
        iters += 1
    return out, out_norms, out_last, counts, failures


# ---------------------------------------------------------------------------
# Segment and loop tracking
# ---------------------------------------------------------------------------


@dataclass
class TrackResult:
    """End state of a batch of tracked paths.

    ``ends[m]`` is member m's fibers at every vertex of its path after the
    first, in path order, each line within newton_tol of the vertex form and
    with a fresh chart, or the TrackFailure that stopped the member.  A
    member's lines advance in lockstep, so ``newton_iterations`` holds one
    count per member: the Newton check on its path's first form and its
    corrector work on accepted steps, summed over its edges.
    ``accepted_steps`` is the sum over the members, ``max_residual`` the
    true maximum over the Newton check and every accepted correction and
    ``min_separation`` the smallest pairwise line distance seen at any
    accepted step, over all the lines the frame reads off the tracked ones;
    a failed member counts up to its failure.
    """

    ends: list[list[Fiber] | TrackFailure]
    accepted_steps: int
    newton_iterations: list[int]
    max_residual: float
    min_separation: float


class Fiber:
    """A set of numeric lines: their (n, 2, 4) span matrices and the gauge
    column pair of each line, where its span matrix holds the identity.  It
    is the tracker's only line type: every entry point takes and returns
    fibers, and a fiber is never changed in place."""

    __slots__ = ("mats", "gauges")

    def __init__(self, mats: np.ndarray, gauges: np.ndarray):
        self.mats = mats
        self.gauges = gauges

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


def _moved_positions(positions: Sequence[int], sigmas: Sequence[Sequence[int]]) -> np.ndarray:
    """Flat positions, in a stack of (2, 4) span matrices, that fill each
    entry of the moved matrices: entry (r, sigma[j]) of moved matrix l is
    entry (r, j) of the matrix at positions[l]."""
    inverse = np.argsort(np.asarray(sigmas, dtype=np.int64).reshape(-1, 4), axis=1)
    starts = 8 * np.asarray(positions, dtype=np.int64)[:, None, None] + 4 * np.arange(2)[:, None]
    return (starts + inverse[:, None, :]).reshape(-1)


class Frame:
    """The lines of a fiber that the tracker moves, and how every other line
    is read off them.

    Every form of a family keeps its group H of coordinate permutations, so
    moving lines along a path of forms commutes with H: the path of sigma.l
    is sigma applied to the path of l.  In each H-orbit of lines the frame
    tracks the lines whose H-stabilizer equals the stabilizer of the orbit's
    smallest line, and reads every other line of the orbit off that smallest
    one through one coordinate permutation.  A tracked line that jumps onto
    the path of a line with the same stabilizer meets that line, which is
    tracked too, so the separation barrier sees the jump; a jump onto a line
    with another stabilizer takes the line off its own stabilizer images,
    which the stabilizer check sees.

    ``tracked`` holds the indices of the tracked lines in increasing order.
    Line i of the full fiber is tracked line ``source[i]`` (a position in
    ``tracked``) moved by the coordinate permutation ``sigma[i]``: column j
    of its span matrix goes to column sigma[i][j], as coordinate j of a
    point moves to slot sigma[i][j].  ``stabilizers`` holds one (position in
    ``tracked``, sigma) pair for every nontrivial coordinate permutation
    that keeps a tracked line.  The trivial frame tracks every line, each
    its own source, and has no stabilizer maps.
    """

    __slots__ = ("tracked", "source", "sigma", "stabilizers", "_gather", "_owners", "_images")

    def __init__(
        self,
        tracked: Sequence[int],
        source: Sequence[int],
        sigma: Sequence[Sequence[int]],
        stabilizers: Sequence[tuple[int, Sequence[int]]] = (),
    ):
        self.tracked = tuple(tracked)
        self.source = tuple(source)
        self.sigma = tuple(map(tuple, sigma))
        self.stabilizers = tuple((owner, tuple(s)) for owner, s in stabilizers)
        self._gather = _moved_positions(self.source, self.sigma)
        self._owners = np.array([owner for owner, _ in self.stabilizers], dtype=np.int64)
        self._images = _moved_positions(self._owners, [s for _, s in self.stabilizers])

    @classmethod
    def of(
        cls, symmetry: FiniteGroup, action: Mapping[tuple[int, ...], Permutation]
    ) -> "Frame":
        """The frame of the 27 lines under a group of line permutations that
        ``action`` (coordinate permutation -> line permutation) induces.
        ValueError if some element of the group is induced by no
        coordinate permutation."""
        coordinates = {p: sigma for sigma, p in action.items()}
        if any(g not in coordinates for g in symmetry):
            raise ValueError("every symmetry must be induced by a coordinate permutation")
        sigmas = [coordinates[g] for g in symmetry]  # in table order: sigmas[0] is the identity
        table = symmetry.table
        keeps = table == np.arange(N_POINTS)  # keeps[g, i]: element g maps line i to itself
        smallest = {label - 1: orbit[0] - 1 for orbit in orbits(symmetry) for label in orbit}
        tracked = [i for i, m in smallest.items() if np.array_equal(keeps[:, i], keeps[:, m])]
        tracked.sort()
        position = {line: k for k, line in enumerate(tracked)}
        source, sigma = [], []
        for i in range(N_POINTS):
            if i in position:
                source.append(position[i])
                sigma.append(sigmas[0])
            else:
                # the first element, in table order, that takes the orbit's smallest line to i
                source.append(position[smallest[i]])
                sigma.append(sigmas[int(np.argmax(table[:, smallest[i]] == i))])
        stabilizers = [
            (position[i], sigmas[g]) for i in tracked for g in np.flatnonzero(keeps[:, i])[1:]
        ]
        return cls(tracked, source, sigma, stabilizers)

    def restrict(self, fiber: Fiber) -> Fiber:
        """The tracked lines of a full fiber."""
        return Fiber(fiber.mats[list(self.tracked)], fiber.gauges[list(self.tracked)])

    def expand_mats(self, mats: np.ndarray) -> np.ndarray:
        """The full fibers' span matrices read off a (k, t, 2, 4) stack of
        tracked lines by one gather: (k, n, 2, 4)."""
        return mats.reshape(len(mats), -1)[:, self._gather].reshape(len(mats), -1, 2, 4)

    def expand(self, fiber: Fiber) -> Fiber:
        """The full fiber of a fiber of tracked lines; each moved line keeps
        its source's chart, its gauge columns moved by sigma."""
        sources = fiber.gauges[list(self.source)]
        gauges = np.take_along_axis(np.array(self.sigma, dtype=np.int64), sources, axis=1)
        return Fiber(self.expand_mats(fiber.mats[None])[0], gauges)

    def stabilizer_gaps(self, mats: np.ndarray) -> np.ndarray:
        """The largest distance between a tracked line and one of its
        stabilizer images in each fiber of a (k, t, 2, 4) stack: (k,), 0
        without stabilizer maps."""
        k = len(mats)
        if not len(self._owners):
            return np.zeros(k)
        images = mats.reshape(k, -1)[:, self._images].reshape(-1, 2, 4)
        owners = mats[:, self._owners].reshape(-1, 2, 4)
        gaps = _chordal(_plucker_batch(owners), _plucker_batch(images))
        return gaps.reshape(k, -1).max(axis=1)


@lru_cache(maxsize=4)
def _trivial_frame(n: int) -> Frame:
    """The frame that tracks every one of n lines."""
    return Frame(range(n), range(n), [(0, 1, 2, 3)] * n)


def _stack(fibers: Sequence[Fiber]) -> tuple[np.ndarray, np.ndarray, _Chart]:
    """The (k, n, 2, 4) span matrices and (k, n, 2) gauges of k fibers of n
    lines each, and the chart of all k * n lines."""
    mats = np.stack([f.mats for f in fibers])
    gauges = np.stack([f.gauges for f in fibers])
    return mats, gauges, _Chart(gauges.reshape(-1, 2))


def _segment_tensors(segments: Sequence[tuple[CubicForm, CubicForm]]) -> np.ndarray:
    """(T0, T1, dT/dt) of each segment's homotopy (1 - t) f0 + t f1:
    (k, 3, 16, 4)."""
    c0 = np.stack([f0.coeffs for f0, _ in segments])
    c1 = np.stack([f1.coeffs for _, f1 in segments])
    return np.stack((_polar(c0), _polar(c1), _polar(c1 - c0)), axis=1)


def _homotopy(t0: np.ndarray, t1: np.ndarray, t: Sequence[float]) -> np.ndarray:
    """(1 - t) T0 + t T1 per member: k values of t, (k, 16, 4) tensors."""
    t = np.array(t)[:, None, None]
    return (1 - t) * t0 + t * t1


def track_segment(
    paths: Sequence[Sequence[CubicForm]],
    starts: Sequence[Fiber],
    cfgs: Sequence[TrackerConfig] | None = None,
    frame: Frame | None = None,
) -> TrackResult:
    """Track a batch of fibers, each along its own polygon of linear
    homotopies: member m carries starts[m] from Z(f0) at the first form of
    paths[m] along (1-t) f0 + t f1 over each edge (f0, f1) in turn, under
    cfgs[m] (the default config if cfgs is None).  Every path has at least
    two forms.  The start fibers all hold the tracked lines of ``frame``
    (every line when it is None) and are left as they are; every form on
    the paths must keep the frame's symmetries.

    The batch is ragged.  A member that reaches the end of an edge starts
    its next edge in the next round, at a fresh t, step and streak, so each
    member walks its own path and none waits for another at a vertex.
    ``TrackResult.ends[m]`` holds member m's fiber at every vertex after
    the first, in path order, or the TrackFailure that stopped it.

    The start lines must pass a Newton check on each member's first form,
    in one batch before the first round.  A later edge starts on the form
    its lines were accepted on one round earlier, so it is not checked
    again.  Each round takes one step of every member still tracking, the
    first step of each edge at its config's step_max: Euler prediction from
    the Davidenko system, lockstep Newton correction, then the separation
    barrier (pairwise distance of all the lines the frame reads off the
    tracked ones at least _SEPARATION_FACTOR times the largest last Newton
    correction), the stabilizer check (each tracked line at most
    1/_SEPARATION_FACTOR of that pairwise distance from its stabilizer
    images) and a re-chart of the lines whose gauge went stale.  A member's
    step halves on any failure and grows after a run of accepted steps, up
    to step_max; a member whose step falls below the floor ends in a
    StepUnderflow or SeparationLoss, returned in ``TrackResult.ends`` like a
    failed Newton check, while the others go on.  The predictor contracts
    each member's homotopy tensor and its t-derivative in one call.
    """
    k = len(paths)
    cfgs = [TrackerConfig()] * k if cfgs is None else list(cfgs)
    if len(starts) != k or len(cfgs) != k:
        raise ValueError("expected one start fiber and one config per path")
    if any(len(p) < 2 for p in paths):
        raise ValueError("a path needs at least two forms")
    # every member's edges, one after another: member m's are
    # tensors[bounds[m]:bounds[m + 1]], and edge[m] is the one it is on
    tensors = _segment_tensors([e for p in paths for e in zip(p, p[1:])])
    bounds = np.cumsum([0] + [len(p) - 1 for p in paths]).tolist()
    edge = bounds[:-1]
    mats, gauges, chart = _stack(starts)
    n = mats.shape[1]
    frame = frame or _trivial_frame(n)
    if len(frame.tracked) != n:
        raise ValueError("the start fibers must hold the frame's tracked lines")

    t = [0.0] * k
    h = [c.step_max for c in cfgs]
    streak = [0] * k
    accepted = [0] * k
    min_sep = [float("inf")] * k
    vertices: list[list[Fiber]] = [[] for _ in range(k)]
    # the start lines must be Newton-correctable on each path's first form
    mats, norms, _, iters, failures = _newton_batch(tensors[edge, 0], mats, chart, cfgs)
    ends: list[list[Fiber] | TrackFailure | None] = list(failures)
    newton = [0 if f is not None else i for i, f in zip(iters, failures)]
    max_resid = norms.max(axis=1).tolist()

    live = list(range(k))
    while True:
        keep = [i for i, m in enumerate(live) if ends[m] is None]
        if len(keep) < len(live):
            if not keep:
                break
            live = [live[i] for i in keep]
            mats, gauges = mats[keep], gauges[keep]
            chart = chart.members(keep, n)

        seg = tensors[[edge[m] for m in live]]
        h_eff = [min(h[m], 1.0 - t[m]) for m in live]
        t_new = [t[m] + step for m, step in zip(live, h_eff)]
        pair = np.stack((_homotopy(seg[:, 0], seg[:, 1], [t[m] for m in live]), seg[:, 2]), axis=1)
        g = _contract(pair, mats)
        rhs = -_residual(g[:, 1], mats).reshape(-1, 4)
        velocity, errors = _solve(chart.jacobian(g[:, 0]), rhs, n)
        moves = np.array(h_eff)[:, None, None] * velocity.reshape(-1, n, 4)
        predicted = chart.update(mats, moves.reshape(-1, 4))
        corrected, norms, last_corr, iters, failures = _newton_batch(
            _homotopy(seg[:, 0], seg[:, 1], t_new), predicted, chart, [cfgs[m] for m in live]
        )
        sep = _min_pairwise_distance(frame.expand_mats(corrected)).tolist()
        gap = frame.stabilizer_gaps(corrected).tolist()
        worst_corr = last_corr.max(axis=1).tolist()
        worst_norm = norms.max(axis=1).tolist()

        accept = [False] * len(live)
        for i, m in enumerate(live):
            failure = failures[i]
            if errors and errors[i] is not None:
                failure = NewtonFailure(str(errors[i]))
            elif failure is None and sep[i] < _SEPARATION_FACTOR * worst_corr[i]:
                failure = SeparationLoss(
                    f"separation {sep[i]:.3e} below barrier at t={t_new[i]:.6f}"
                )
            elif failure is None and _SEPARATION_FACTOR * gap[i] > sep[i]:
                failure = SeparationLoss(
                    f"a line is {gap[i]:.3e} from its stabilizer image at t={t_new[i]:.6f}"
                )
            if failure is None:
                accept[i] = True
                t[m] = t_new[i]
                accepted[m] += 1
                streak[m] += 1
                newton[m] += iters[i]
                max_resid[m] = max(max_resid[m], worst_norm[i])
                min_sep[m] = min(min_sep[m], sep[i])
                if streak[m] >= _GROW_AFTER:
                    h[m] = min(h[m] * _STEP_GROW, cfgs[m].step_max)
                    streak[m] = 0
                continue
            h[m] /= 2
            streak[m] = 0
            if h[m] < _STEP_MIN:
                if isinstance(failure, SeparationLoss):
                    ends[m] = SeparationLoss(
                        f"separation kept failing down to step_min at t={t[m]:.6f}"
                    )
                else:
                    ends[m] = StepUnderflow(f"step underflow at t={t[m]:.6f}: {failure}")
                ends[m].__cause__ = failure

        if any(accept):
            if all(accept):
                mats = corrected
            else:
                mats[accept] = corrected[accept]
            # re-chart the accepted lines whose gauge went stale
            stale = (_gauge_conds(mats.reshape(-1)[chart.unknowns]) > _RECHART_COND).reshape(-1, n)
            if not all(accept):
                stale[np.logical_not(accept)] = False
            if stale.any():
                gauges[stale] = _best_gauges(mats[stale])
                mats[stale] = _normalize_batch(mats[stale], gauges[stale])
                chart = _Chart(gauges.reshape(-1, 2))

        # members at a vertex record its fiber and start their next edge
        for i, m in enumerate(live):
            if ends[m] is not None or t[m] < 1.0 - 1e-14:
                continue
            vertices[m].append(Fiber(mats[i].copy(), gauges[i].copy()))
            if edge[m] + 1 == bounds[m + 1]:
                ends[m] = vertices[m]
                continue
            edge[m] += 1
            t[m], h[m], streak[m] = 0.0, cfgs[m].step_max, 0

    return TrackResult(
        ends=ends,
        accepted_steps=sum(accepted),
        newton_iterations=newton,
        max_residual=max(max_resid),
        min_separation=min(min_sep),
    )


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
    loops: Sequence[Sequence[CubicForm]],
    base: Fiber,
    cfg: TrackerConfig | Sequence[TrackerConfig] | None = None,
    frame: Frame | None = None,
) -> list[Permutation | TrackFailure]:
    """Track the labeled base fiber around each closed polygon of cubic
    forms in ``loops`` and return, per loop, the induced label permutation
    (start label -> end label) or the TrackFailure that stopped it.  ``cfg``
    is one config for every loop or one per loop, so a loop may appear
    twice under two configs.

    The loops are one ragged batch, one track_segment call: each member
    walks its own polygon, and at a vertex it starts its next edge in the
    next round, whatever edge the other members are on.  Each loop carries
    its own Fiber from vertex to vertex: each edge starts from the previous
    one's end fiber, and nothing is converted or re-checked on the way; only
    the base fiber is Newton-checked, on the first edge.  Every edge starts
    at the loop's step_max, whatever step the previous edge ended with.

    Lasso reading: when the last k edges retrace the first k in reverse (a
    meridian's stem, k = 1 for circle_loop), the loop is the stem, a cycle
    and the stem backwards.  Transport back along the stem is the inverse of
    transport along it, so only the first n - k edges are tracked and the
    final fiber is matched against the fiber at the end of edge k.  A
    polygon with k = 0, such as a triangle, is matched against the base
    fiber.  Both fibers of a match are the ends track_segment returns.

    Only the tracked lines of ``frame`` are carried round; every fiber that
    is matched is first expanded to all 27 lines by the frame's column
    permutations.  The frame must be one whose symmetries every form of
    every loop keeps; None tracks every line.

    A match is accepted only when every nearest/second-nearest distance
    ratio clears the loop's match_margin and the assignment is a bijection.
    """
    if cfg is None or isinstance(cfg, TrackerConfig):
        cfgs = [cfg or TrackerConfig()] * len(loops)
    else:
        cfgs = list(cfg)
    if len(cfgs) != len(loops):
        raise ValueError("expected one config per loop")
    if any(len(v) < 2 or v[0] != v[-1] for v in loops):
        raise ValueError("loop must start and end at the same form")
    if len(base.mats) != N_POINTS:
        raise ValueError(f"expected {N_POINTS} base lines")
    if not loops:
        return []
    frame = frame or _trivial_frame(N_POINTS)
    start = frame.restrict(base)
    stems = [_retraced_edges(v) for v in loops]
    # the vertices each member visits: a lasso's return leg is not tracked
    paths = [v[: len(v) - k] for v, k in zip(loops, stems)]
    ends = track_segment(paths, [start] * len(loops), cfgs, frame).ends
    outcomes: list[Permutation | TrackFailure] = list(ends)
    for m, fibers in enumerate(ends):
        if isinstance(fibers, TrackFailure):
            continue
        # the fiber at vertex k of a lasso's k-edge stem, or the base fiber
        reference = frame.expand(fibers[stems[m] - 1]) if stems[m] else base
        try:
            outcomes[m] = match_to_base(frame.expand(fibers[-1]), reference, cfgs[m])
        except AmbiguousMatch as exc:
            outcomes[m] = exc
    return outcomes


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
    loops: Sequence[Sequence[CubicForm]], base: Fiber, frame: Frame | None = None
) -> tuple[list[Permutation | TrackFailure], list[bool]]:
    """Track each loop under the default config and re-track it at tightened
    tolerances (newton_tol/10, step_max/2, match_margin*2), all 2n tracks
    one ragged batch of track_loop in the same frame.  Returns each loop's
    first track (its permutation or TrackFailure) and whether the re-track
    confirmed the identical permutation.  A loop whose first track failed
    is not confirmed and its re-track is discarded; a loop whose re-track
    fails is not confirmed."""
    cfg = TrackerConfig()
    n = len(loops)
    outcomes = track_loop(list(loops) * 2, base, [cfg] * n + [cfg.tightened()] * n, frame)
    first, again = outcomes[:n], outcomes[n:]
    confirmed = [not isinstance(p, TrackFailure) and a == p for p, a in zip(first, again)]
    return first, confirmed
