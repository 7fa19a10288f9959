from itertools import permutations
from typing import NamedTuple

import numpy as np
import pytest

from cubic27 import htrack, lines, monodromy, perm
from cubic27.exact import ZETA_COMPLEX, symmetric_basis
from cubic27.htrack import (
    CubicForm,
    Fiber,
    Frame,
    MONOMIAL_EXPONENTS,
    SeparationLoss,
    TrackFailure,
    TrackerConfig,
    jacobian,
    line_distance,
    match_to_base,
    residual,
    revalidate,
    track_loop,
    track_segment,
    _PLUCKER_PAIRS,
    _SEPARATION_FACTOR,
    _STEP_MIN,
    _Chart,
    _best_gauges,
    _contract,
    _gauge_conds,
    _min_pairwise_distance,
    _minor_conds,
    _newton_batch,
    _normalize_batch,
    _polar,
    _solve,
)
from cubic27.monodromy import embed_symmetric
from cubic27.perm import Permutation


@pytest.fixture(scope="module")
def forms():
    return tuple(CubicForm(row) for row in symmetric_basis())


def segment(f0, f1, start, cfg=None):
    """track_segment on a batch of one one-edge path: the end fiber and the
    result; the member's failure is raised."""
    result = track_segment([[f0, f1]], [start], None if cfg is None else [cfg])
    [end] = result.ends
    if isinstance(end, TrackFailure):
        raise end
    return end[0], result


def loop_perm(loop, base, cfg=None):
    """track_loop on a batch of one; the loop's failure is raised."""
    [perm] = track_loop([loop], base, cfg)
    if isinstance(perm, TrackFailure):
        raise perm
    return perm


class MemberSegment(NamedTuple):
    member: int
    f0: CubicForm
    f1: CubicForm
    cfg: TrackerConfig


class SegmentSpy:
    """Logs every member-segment that htrack.track_segment is handed, member
    by member in path order, and the result of every call."""

    def __init__(self, monkeypatch):
        self.segments: list[MemberSegment] = []
        self.results = []
        original = htrack.track_segment

        def spy(paths, starts, cfgs=None, frame=None):
            cfgs = [TrackerConfig()] * len(paths) if cfgs is None else cfgs
            for m, (path, cfg) in enumerate(zip(paths, cfgs)):
                self.segments.extend(MemberSegment(m, f0, f1, cfg) for f0, f1 in zip(path, path[1:]))
            result = original(paths, starts, cfgs, frame)
            self.results.append(result)
            return result

        monkeypatch.setattr(htrack, "track_segment", spy)


@pytest.fixture(scope="module")
def catalog():
    cat = lines.fermat_catalog()
    return Fiber.from_mats(cat[..., 0] + cat[..., 1] * ZETA_COMPLEX)


class TestMonomialOrder:
    def test_descending_lex_20_monomials(self):
        assert len(MONOMIAL_EXPONENTS) == 20
        assert MONOMIAL_EXPONENTS[0] == (3, 0, 0, 0)
        assert MONOMIAL_EXPONENTS[-1] == (0, 0, 0, 3)
        assert list(MONOMIAL_EXPONENTS) == sorted(MONOMIAL_EXPONENTS, reverse=True)
        assert all(sum(e) == 3 for e in MONOMIAL_EXPONENTS)

    def test_fermat_coefficients(self, forms):
        fermat = forms[0]
        expect = np.zeros(20)
        for mono in ((3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)):
            expect[MONOMIAL_EXPONENTS.index(mono)] = 1
        assert np.array_equal(fermat.coeffs, expect)

    def test_polar_scatter_is_one_over_orderings(self):
        # each monomial's coefficient spread evenly over its variable orderings
        expect = np.zeros((20, 4, 4, 4))
        for m, expo in enumerate(MONOMIAL_EXPONENTS):
            orderings = set(permutations([i for i in range(4) for _ in range(expo[i])]))
            for ijk in orderings:
                expect[(m, *ijk)] = 1 / len(orderings)
        scatter = htrack._POLAR_SCATTER
        assert scatter.shape == (20, 64) and scatter.dtype == np.float64
        assert np.array_equal(scatter.view(np.int64), expect.reshape(20, 64).view(np.int64))

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            CubicForm(np.zeros(20))


class TestResidual:
    def test_catalog_on_fermat(self, forms, catalog):
        for line in catalog.mats:
            assert np.linalg.norm(residual(forms[0], line)) < 1e-14

    def test_tritangent_on_elementary(self, forms, catalog):
        for label in (25, 26, 27):
            assert np.linalg.norm(residual(forms[2], catalog.mats[label - 1])) == 0.0

    def test_linearity_in_form(self, forms, catalog):
        f = forms[1]
        line = catalog.mats[4]
        assert np.allclose(residual(CubicForm(2 * f.coeffs), line), 2 * residual(f, line))

    def test_nonvanishing_off_surface(self, forms, catalog):
        assert np.linalg.norm(residual(forms[1], catalog.mats[0])) > 0.1


def _random_mats(rng, n):
    return rng.standard_normal((n, 2, 4)) + 1j * rng.standard_normal((n, 2, 4))


class TestKernelOracle:
    """The contraction kernel against direct evaluation of the monomials."""

    @staticmethod
    def restriction_by_interpolation(coeffs, mat):
        # f(p + t q) at the 4th roots of unity, then the Vandermonde solve
        # for its coefficients in 1, t, t^2, t^3 (= s^3, s^2 t, s t^2, t^3)
        exps = np.array(MONOMIAL_EXPONENTS)
        ts = np.exp(0.5j * np.pi * np.arange(4))
        values = [np.prod((mat[0] + t * mat[1]) ** exps, axis=1) @ coeffs for t in ts]
        return np.linalg.solve(np.vander(ts, 4, increasing=True), values)

    def test_residual_matches_interpolated_restriction(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            coeffs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
            fiber = Fiber.from_mats(_random_mats(rng, 3))
            got = residual(CubicForm(coeffs), fiber.mats)
            for line, res in zip(fiber.mats, got):
                want = self.restriction_by_interpolation(coeffs, line)
                assert np.linalg.norm(res - want) <= 1e-12 * np.linalg.norm(want)


class TestRechart:
    def test_closed_form_matches_six_minor_svd(self):
        rng = np.random.default_rng(77)
        n = 200
        slots = rng.integers(0, 6, n)
        gauges = np.array(_PLUCKER_PAIRS, dtype=np.int64)[slots]
        charted = _normalize_batch(_random_mats(rng, n), gauges)
        unknowns = charted.reshape(-1)[_Chart(gauges).unknowns]
        svd = _minor_conds(charted)[np.arange(n), slots]
        assert np.allclose(_gauge_conds(unknowns), svd, rtol=1e-12, atol=0)

    def test_a_step_recharts_its_stale_lines_to_the_svd_gauges(self, forms, catalog, monkeypatch):
        # One accepted step from the catalog.  At an infinite limit it keeps
        # every start gauge; at 1.1 some lines go stale, and the step
        # re-charts exactly those, to the gauges the six-minor SVD picks.
        def conds(fiber):
            return _gauge_conds(fiber.mats.reshape(-1)[_Chart(fiber.gauges).unknowns])

        target = embed_symmetric(1, 0.2 + 0.1j, -0.15)
        ends = {}
        for limit in (np.inf, 1.1):
            monkeypatch.setattr(htrack, "_RECHART_COND", limit)
            ends[limit], result = segment(forms[0], target, catalog)
            assert result.accepted_steps == 1
        kept, recharted = ends[np.inf], ends[1.1]
        assert np.array_equal(kept.gauges, catalog.gauges)
        stale = conds(kept) > 1.1
        assert 0 < stale.sum() < len(stale)
        want = kept.gauges.copy()
        want[stale] = _best_gauges(kept.mats[stale])
        assert np.array_equal(recharted.gauges, want)
        assert np.array_equal(recharted.mats[~stale], kept.mats[~stale])
        assert np.array_equal(recharted.mats[stale], _normalize_batch(kept.mats[stale], want[stale]))
        after = conds(recharted)[stale]
        assert np.all(after < conds(kept)[stale])
        assert np.all(after <= _minor_conds(recharted.mats)[stale].min(axis=1) * (1 + 1e-12))


class TestJacobian:
    def test_matches_finite_differences(self, catalog):
        rng = np.random.default_rng(101)
        for _ in range(25):
            f = CubicForm((rng.standard_normal(20) + 1j * rng.standard_normal(20)))
            i = int(rng.integers(0, 27))
            jac = jacobian(f, catalog.mats[i], catalog.gauges[i])
            free = _Chart(catalog.gauges[i : i + 1]).unknowns[0]
            fd = np.zeros((4, 4), dtype=complex)
            h = 1e-7
            flat = catalog.mats[i].reshape(8)
            for k, pos in enumerate(free):
                plus, minus = flat.copy(), flat.copy()
                plus[pos] += h
                minus[pos] -= h
                fd[:, k] = (
                    residual(f, plus.reshape(2, 4)) - residual(f, minus.reshape(2, 4))
                ) / (2 * h)
            assert np.linalg.norm(jac - fd) / np.linalg.norm(jac) < 1e-6

    def test_nonsingular_at_catalog_lines(self, forms, catalog):
        for jac in jacobian(forms[0], catalog.mats, catalog.gauges):
            assert np.linalg.cond(jac) < 1e4

    def test_zero_form_gives_zero_matrix(self, catalog):
        # CubicForm refuses the zero form, so build its kernel Jacobian directly
        chart = _Chart(catalog.gauges[:1])
        jac = chart.jacobian(_contract(_polar(np.zeros((1, 20), dtype=complex)), catalog.mats[None, :1]))[0]
        assert np.array_equal(jac, np.zeros((4, 4)))


class TestNewton:
    def test_perturbed_line_reconverges(self, forms, catalog):
        # every line of the catalog fiber moved by about 1e-4, back in its gauge
        rng = np.random.default_rng(5)
        noisy = _normalize_batch(catalog.mats + 1e-4 * _random_mats(rng, 27), catalog.gauges)
        fixed, _, _, _, [failure] = _newton_batch(
            _polar(forms[0].coeffs)[None], noisy[None], _Chart(catalog.gauges), [TrackerConfig()]
        )
        assert failure is None
        for line, want in zip(fixed[0], catalog.mats):
            assert line_distance(line, want) < 1e-8

    def test_members_converge_and_fail_as_alone(self, forms, catalog):
        # five members, each giving what it gives in a batch of one: a
        # catalog moved by 1e-4 converges on Fermat in two iterations at the
        # default newton_tol and in one at 1e-6; the catalog is far from
        # Z(forms[1]); a move of 0.3 loses the quadratic tail; and lines in
        # gauge (0, 1) have a zero Jacobian on x0^3, which does not vanish
        # on them
        rng = np.random.default_rng(6)
        noisy = _normalize_batch(catalog.mats + 1e-4 * _random_mats(rng, 27), catalog.gauges)
        far = _normalize_batch(catalog.mats + 0.3 * _random_mats(np.random.default_rng(0), 27), catalog.gauges)
        gauge01 = np.tile([0, 1], (27, 1))
        cube = np.zeros(20)
        cube[MONOMIAL_EXPONENTS.index((3, 0, 0, 0))] = 1
        coeffs = [forms[0].coeffs, forms[1].coeffs, forms[0].coeffs, forms[0].coeffs, cube]
        mats = [noisy, catalog.mats, noisy, far, _normalize_batch(_random_mats(rng, 27), gauge01)]
        gauges = [catalog.gauges] * 4 + [gauge01]
        cfgs = [TrackerConfig()] * 2 + [TrackerConfig(newton_tol=1e-6)] + [TrackerConfig()] * 2
        tensors, mats = _polar(np.stack(coeffs)), np.stack(mats)
        batch = _newton_batch(tensors, mats, _Chart(np.concatenate(gauges)), cfgs)
        assert [None if f is None else str(f) for f in batch[4]] == [
            None,
            "no convergence in 8 iterations",
            None,
            "quadratic convergence tail lost",
            "singular Jacobian",
        ]
        assert (batch[3][0], batch[3][2]) == (2, 1)
        for m in range(5):
            alone = _newton_batch(tensors[m : m + 1], mats[m : m + 1], _Chart(gauges[m]), cfgs[m : m + 1])
            for got, want in zip(batch[:3], alone[:3]):
                assert np.array_equal(got[m], want[0])
            assert batch[3][m] == alone[3][0]
            assert type(batch[4][m]) is type(alone[4][0]) and str(batch[4][m]) == str(alone[4][0])

    def test_a_singular_member_does_not_stop_the_solve(self):
        rng = np.random.default_rng(4)
        jac = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
        rhs = rng.standard_normal((6, 4)) + 0j
        jac[3] = 0  # the second member of three, two systems each
        out, errors = _solve(jac, rhs, 2)
        assert [e is None for e in errors] == [True, False, True]
        assert isinstance(errors[1], np.linalg.LinAlgError)
        for rows in (slice(0, 2), slice(4, 6)):
            assert np.array_equal(out[rows], _solve(jac[rows], rhs[rows], 2)[0])
        assert _solve(jac[:2], rhs[:2], 2)[1] == []

    def test_failure_on_singular_target(self, forms, catalog):
        # the straight segment toward the three-node parameter point
        target = embed_symmetric(0.25, 0, 0.75)
        with pytest.raises(TrackFailure):
            segment(forms[0], target, catalog)


class TestLineDistance:
    def test_zero_on_self(self, catalog):
        for line in catalog.mats[:5]:
            assert line_distance(line, line) < 1e-12

    def test_catalog_minimum_separation(self, catalog):
        dmin = _min_pairwise_distance(catalog.mats)
        assert dmin > 0.1
        assert abs(dmin - 0.8660254) < 1e-6

    def test_min_pairwise_resolves_nearly_coincident_lines(self, catalog):
        # 1 - |<u, v>|^2 cannot see a distance of 1e-10; the separation
        # barrier needs it to tell a path jump from two distinct lines
        mats = catalog.mats.copy()
        mats[1] = mats[0]
        mats[1, 1, 3] += 1e-10
        want = line_distance(mats[0], mats[1])
        assert 1e-11 < want < 1e-9
        assert _min_pairwise_distance(mats) == pytest.approx(want, rel=1e-6)

    def test_invariance_under_row_operations(self, catalog):
        rng = np.random.default_rng(8)
        m = catalog.mats[3]
        mix = np.array([[1.5, 0.25 + 1j], [0, 2.0 - 0.5j]])
        assert line_distance(m, mix @ m) < 1e-12


class TestTrackSegment:
    def test_identity_motion(self, forms, catalog):
        end, res = segment(forms[0], forms[0], catalog)
        assert res.max_residual < 1e-12
        for a, b in zip(end.mats, catalog.mats):
            assert line_distance(a, b) < 1e-12

    def test_round_trip(self, forms, catalog):
        target = embed_symmetric(1, 0.2 + 0.1j, -0.15)
        out, _ = segment(forms[0], target, catalog)
        back, _ = segment(target, forms[0], out)
        for a, b in zip(back.mats, catalog.mats):
            assert line_distance(a, b) < 1e-8

    def test_generic_smooth_target(self, forms, catalog):
        cfg = TrackerConfig()
        target = embed_symmetric(1, 0.1, 0.1)
        end, res = segment(forms[0], target, catalog, cfg)
        assert res.max_residual <= cfg.newton_tol
        assert _min_pairwise_distance(end.mats) > 0.1

    def test_fermat_to_cayley_fails(self, forms, catalog):
        with pytest.raises(TrackFailure):
            segment(forms[0], forms[2], catalog)

    def test_bitwise_deterministic(self, forms, catalog):
        target = embed_symmetric(1, 0.2 + 0.1j, -0.15)
        start = catalog
        e1, r1 = segment(forms[0], target, start)
        e2, r2 = segment(forms[0], target, start)
        assert r1.accepted_steps == r2.accepted_steps
        assert r1.max_residual == r2.max_residual
        assert np.array_equal(e1.mats, e2.mats)
        assert np.array_equal(e1.gauges, e2.gauges)

    def test_start_fiber_left_unchanged(self, forms, catalog):
        start = catalog
        mats, gauges = start.mats.copy(), start.gauges.copy()
        segment(forms[0], embed_symmetric(1, 0.2 + 0.1j, -0.15), start)
        assert np.array_equal(start.mats, mats)
        assert np.array_equal(start.gauges, gauges)


def triangle(scale, seed):
    rng = np.random.default_rng(seed)
    base = np.array([1, 0, 0], dtype=complex)
    g = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) / np.sqrt(6)
    f0 = embed_symmetric(*base)
    return [
        f0,
        embed_symmetric(*(base + scale * g[0])),
        embed_symmetric(*(base + scale * g[1])),
        f0,
    ]


def meridian(center, radius=0.2, n=monodromy._CIRCLE_SEGMENTS):
    """Fermat, then a circle of n vertices around ``center`` (symmetric
    coordinates) entered along the straight segment from Fermat, then back;
    by default the polygon that ``monodromy.circle_loop`` winds."""
    base = np.array([1, 0, 0], dtype=complex)
    center = np.asarray(center, dtype=complex)
    d = (base - center) / np.linalg.norm(base - center)
    ring = [center + radius * np.exp(2j * np.pi * k / n) * d for k in range(n)]
    return (
        [embed_symmetric(*base)]
        + [embed_symmetric(*p) for p in ring]
        + [embed_symmetric(*ring[0]), embed_symmetric(*base)]
    )


# exact discriminant points on the line a = 1, b = 0 of the symmetric family:
# L1 (a + 3b + c = 0), L2 (3a + b - c = 0) and the plane cubic C, which
# restricts to 4c^2 - 3c + 9 = 0 there
L1_POINT = (1, 0, -1)
L2_POINT = (1, 0, 3)
C_POINT = (1, 0, (3 + 1j * np.sqrt(135)) / 8)


def retracked(loop, catalog):
    """The lasso's oracle: every edge tracked, the return leg included, as a
    fresh track_segment call from a fiber rebuilt in fresh best gauges at
    each vertex, and the end fiber matched against the catalog."""
    current = catalog
    for f0, f1 in zip(loop, loop[1:]):
        current = Fiber.from_mats(segment(f0, f1, current)[0].mats)
    return match_to_base(current, catalog, TrackerConfig())


def full_family_lasso(seed, stem_edges=1):
    """Fermat, a stem of one or two edges to a form q near it, a random
    triangle of the full family based at q, and the stem back.  At seed 7
    the loop permutation has order 4, so it differs from its inverse."""
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((4, 20)) + 1j * rng.standard_normal((4, 20))) / np.sqrt(40)
    fermat = embed_symmetric(1, 0, 0)
    q, p1, p2, s = (CubicForm(fermat.coeffs + r * d) for r, d in zip((0.5, 3.6, 3.6, 0.3), g))
    stem = [fermat, s, q] if stem_edges == 2 else [fermat, q]
    return stem + [p1, p2] + stem[::-1]


class TestFromMats:
    def test_catalog_in_best_gauges_with_identity_minors(self, catalog):
        assert catalog.mats.shape == (27, 2, 4)
        # each gauge is a best one: ties between pairs make argmin itself unstable
        unknowns = catalog.mats.reshape(-1)[_Chart(catalog.gauges).unknowns]
        assert np.all(_gauge_conds(unknowns) <= _minor_conds(catalog.mats).min(axis=1) * (1 + 1e-12))
        minors = np.take_along_axis(catalog.mats, catalog.gauges[:, None, :], axis=2)
        assert (minors == np.eye(2)).all()

    def test_batch_equals_one_line_at_a_time(self):
        mats = _random_mats(np.random.default_rng(9), 12)
        fiber = Fiber.from_mats(mats)
        for i, m in enumerate(mats):
            alone = Fiber.from_mats(m[None])
            assert np.array_equal(alone.mats[0], fiber.mats[i])
            assert np.array_equal(alone.gauges[0], fiber.gauges[i])

    def test_rejects_rank_one_and_misshapen_spans(self, catalog):
        mats = catalog.mats.copy()
        mats[5, 1] = 2 * mats[5, 0]
        with pytest.raises(ValueError, match="rank 2"):
            Fiber.from_mats(mats)
        with pytest.raises(ValueError, match=r"\(n, 2, 4\)"):
            Fiber.from_mats(catalog.mats[0])


class TestCarriedStep:
    """No step is carried across a vertex: every edge starts at step_max."""

    @pytest.mark.parametrize(
        "cfg", [TrackerConfig(), TrackerConfig().tightened()], ids=["default", "tightened"]
    )
    def test_every_edge_starts_at_step_max(self, catalog, monkeypatch, cfg):
        # a triangle's long edges take many steps, a meridian's arcs one or
        # two; revalidation's re-track runs at the tightened config, whose
        # step_max is half the first track's
        spy = SegmentSpy(monkeypatch)
        trials = []  # the members' t of each _homotopy call
        homotopy = htrack._homotopy

        def homotopy_spy(t0, t1, t):
            trials.append(list(t))
            return homotopy(t0, t1, t)

        monkeypatch.setattr(htrack, "_homotopy", homotopy_spy)
        loops = [triangle(0.9, seed=12), meridian(L1_POINT)]
        perms = track_loop(loops, catalog, cfg)
        assert perms[1] == lines.monodromy_klein_elements()["tau1"]
        assert len(spy.results) == 1
        # the triangle's 3 edges, and the meridian's entry and arcs (its
        # return leg is read off the stem)
        assert len(spy.segments) == 3 + 1 + monodromy._CIRCLE_SEGMENTS
        # the predictor takes each member's t and the corrector its t + step
        firsts = [
            t_new for before, after in zip(trials[::2], trials[1::2])
            for t, t_new in zip(before, after) if t == 0.0
        ]
        # a step tried from t = 0 is an edge's first, or a retry of it
        # after a halving; exactly one per edge tries step_max
        assert max(firsts) == cfg.step_max
        assert firsts.count(cfg.step_max) == len(spy.segments)

    @pytest.mark.parametrize(
        "cfg, arc_steps", [(TrackerConfig(), 1), (TrackerConfig().tightened(), 2)],
        ids=["default", "tightened"],
    )
    def test_one_step_covers_a_short_arc(self, catalog, monkeypatch, cfg, arc_steps):
        # step_max is per segment: the short arcs of a meridian are one
        # step each, and revalidation's halved cap re-tracks them in two
        spy = SegmentSpy(monkeypatch)
        loop = meridian(L1_POINT)
        assert loop_perm(loop, catalog, cfg) == lines.monodromy_klein_elements()["tau1"]
        entry, *arcs = spy.segments
        n = monodromy._CIRCLE_SEGMENTS
        assert len(arcs) == n
        # the entry segment alone, from the same fiber under the same config
        entry_steps = segment(entry.f0, entry.f1, catalog, cfg)[1].accepted_steps
        # a segment takes at least 1 / step_max = arc_steps steps, so this
        # sum holds only when every arc takes exactly arc_steps
        [result] = spy.results
        assert result.accepted_steps - entry_steps == n * arc_steps

    def test_zero_length_segment(self, catalog):
        loop = triangle(0.9, seed=12)
        repeated = loop[:2] + [loop[1]] + loop[2:]
        assert loop_perm(repeated, catalog) == loop_perm(loop, catalog)

    @pytest.mark.parametrize("center", [L1_POINT, L2_POINT, C_POINT], ids=["L1", "L2", "C"])
    def test_same_permutation_as_restarting_at_every_vertex(self, catalog, center):
        loop = meridian(center)
        restarted = retracked(loop, catalog)
        assert not restarted.is_identity()
        assert loop_perm(loop, catalog) == restarted


class TestLasso:
    def test_retraced_edges(self, forms):
        v = embed_symmetric(1, 0.2 + 0.1j, -0.15)
        assert htrack._retraced_edges(meridian(L1_POINT)) == 1
        assert htrack._retraced_edges(triangle(0.9, seed=12)) == 0
        assert htrack._retraced_edges([forms[0], v, forms[0]]) == 1
        assert htrack._retraced_edges(full_family_lasso(7, stem_edges=2)) == 2
        # equal up to rounding is not a retrace
        near = CubicForm(v.coeffs * (1 + 1e-15))
        assert htrack._retraced_edges([forms[0], v, forms[1], near, forms[0]]) == 0

    def test_reversed_meridian_gives_inverse(self, catalog):
        loop = meridian(C_POINT)
        fwd = loop_perm(loop, catalog)
        assert not fwd.is_identity()
        assert loop_perm(list(reversed(loop)), catalog) == fwd.inverse()

    def test_reversed_lasso_gives_inverse(self, catalog):
        # an order-4 permutation tells the lasso's reading from its inverse
        loop = full_family_lasso(7)
        fwd = loop_perm(loop, catalog)
        assert fwd.order() == 4
        assert loop_perm(list(reversed(loop)), catalog) == fwd.inverse()

    def test_two_edge_stem_equals_full_retrack(self, catalog):
        loop = full_family_lasso(7, stem_edges=2)
        p = loop_perm(loop, catalog)
        assert p.order() == 4
        assert p == retracked(loop, catalog)

    def test_pure_retrace_is_identity(self, forms, catalog, monkeypatch):
        spy = SegmentSpy(monkeypatch)
        v = embed_symmetric(1, 0.2 + 0.1j, -0.15)
        assert loop_perm([forms[0], v, forms[0]], catalog).is_identity()
        assert [(s.f0, s.f1) for s in spy.segments] == [(forms[0], v)]

    @pytest.mark.parametrize(
        "loop", [meridian(L1_POINT), triangle(0.9, seed=12)], ids=["meridian", "triangle"]
    )
    def test_one_segment_call_and_no_newton_or_lines_after_it(self, catalog, monkeypatch, loop):
        # the end fibers are matched as track_segment returns them: no
        # Newton pass after the call, and no lines rebuilt between vertices
        spy = SegmentSpy(monkeypatch)
        newton_calls = []  # per _newton_batch call, the track_segment calls returned by then
        newton = htrack._newton_batch

        def newton_spy(*args):
            newton_calls.append(len(spy.results))
            return newton(*args)

        def no_lines(*args, **kwargs):
            raise AssertionError("a loop built lines between vertices")

        monkeypatch.setattr(htrack, "_newton_batch", newton_spy)
        monkeypatch.setattr(Fiber, "from_mats", classmethod(no_lines))
        loop_perm(loop, catalog)
        assert len(spy.results) == 1
        assert len(spy.segments) == len(loop) - 1 - htrack._retraced_edges(loop)
        assert newton_calls and set(newton_calls) == {0}


class TestBatch:
    """A batch tracks each member with the arithmetic of a batch of one."""

    @staticmethod
    def tracked(loops, base, cfg, monkeypatch):
        """track_loop's results and the span matrices of the (polished end,
        reference) fiber pair of every match it made, in loop order."""
        seen = []
        original = htrack.match_to_base

        def spy(tracked, reference, match_cfg):
            seen.append((tracked.mats, reference.mats))
            return original(tracked, reference, match_cfg)

        with monkeypatch.context() as patch:
            patch.setattr(htrack, "match_to_base", spy)
            results = track_loop(loops, base, cfg)
        return results, seen

    @pytest.mark.parametrize(
        "cfg", [TrackerConfig(), TrackerConfig().tightened()], ids=["default", "tightened"]
    )
    def test_batch_equals_batch_of_one(self, catalog, monkeypatch, cfg):
        tri = triangle(0.9, seed=12)
        loops = [
            tri,
            meridian(L1_POINT),
            meridian(L2_POINT),
            meridian(C_POINT),
            full_family_lasso(7, stem_edges=2),
            tri[:2] + [tri[1]] + tri[2:],  # a zero-length segment
        ]
        perms, matches = self.tracked(loops, catalog, cfg, monkeypatch)
        assert len(matches) == len(loops)
        for loop, perm, (end, reference) in zip(loops, perms, matches):
            [alone], [(alone_end, alone_reference)] = self.tracked([loop], catalog, cfg, monkeypatch)
            assert isinstance(alone, Permutation) and perm == alone
            assert np.array_equal(end, alone_end)
            assert np.array_equal(reference, alone_reference)

    def test_default_and_tightened_members_equal_their_batches_of_one(self, catalog, monkeypatch):
        # revalidate's batch: each loop once at the default config and once
        # tightened, side by side
        loops = [triangle(0.9, seed=12), meridian(L2_POINT), full_family_lasso(7)]
        cfgs = [TrackerConfig()] * 3 + [TrackerConfig().tightened()] * 3
        perms, matches = self.tracked(loops * 2, catalog, cfgs, monkeypatch)
        assert len(matches) == 6
        for loop, cfg, perm, (end, reference) in zip(loops * 2, cfgs, perms, matches):
            [alone], [(alone_end, alone_reference)] = self.tracked([loop], catalog, cfg, monkeypatch)
            assert isinstance(alone, Permutation) and perm == alone
            assert np.array_equal(end, alone_end)
            assert np.array_equal(reference, alone_reference)

    def test_members_walk_their_own_polygons(self, catalog, monkeypatch):
        # The first loop opens with two zero-length edges, each crossed in
        # one step, and the second is a meridian under the tightened config,
        # whose step_max of 0.5 takes at least two steps on every edge.  So
        # the first member starts its third edge no later than the second
        # starts its second, whatever the step counts: in one round the
        # members sit on different edge indices.  None waits at a vertex,
        # and the batch takes as many rounds as its longest member alone.
        tri = triangle(0.9, seed=12)
        loops = [tri[:1] * 2 + tri, meridian(L1_POINT), meridian(C_POINT)]
        cfgs = [TrackerConfig(), TrackerConfig().tightened(), TrackerConfig()]

        def rounds_and_log(batch, cfgs):
            calls = []
            original = htrack._homotopy

            def spy(t0, t1, t):
                calls.append(len(t))
                return original(t0, t1, t)

            class RoundFiber(Fiber):
                """A fiber that records the round it was made in."""

                __slots__ = ("round",)

                def __init__(self, mats, gauges):
                    super().__init__(mats, gauges)
                    # the predictor and the corrector each build one
                    # homotopy a round
                    self.round = len(calls) // 2

            with monkeypatch.context() as patch:
                patch.setattr(htrack, "_homotopy", spy)
                patch.setattr(htrack, "Fiber", RoundFiber)
                log = SegmentSpy(patch)
                perms, matches = self.tracked(batch, catalog, cfgs, monkeypatch)
            # the round in which each member reached each vertex after its first
            [result] = log.results
            reached = [[f.round for f in fibers] for fibers in result.ends]
            return perms, matches, len(calls) // 2, reached

        perms, matches, rounds, reached = rounds_and_log(loops, cfgs)
        # a member starts edge j + 1 in the round after it reaches vertex j + 1
        assert reached[0][1] <= reached[1][0]
        alone = [rounds_and_log([loop], [cfg]) for loop, cfg in zip(loops, cfgs)]
        assert rounds == max(r for _, _, r, _ in alone)
        for perm, (end, reference), (solo, [(solo_end, solo_reference)], _, _) in zip(perms, matches, alone):
            assert perm == solo[0]
            assert np.array_equal(end, solo_end)
            assert np.array_equal(reference, solo_reference)

    def test_segment_members_equal_their_batches_of_one(self, forms, catalog):
        # identity motions, whose residuals are the smallest, first and
        # third, each under its own step_max
        identity = (forms[0], forms[0])
        paths = [
            identity,
            (forms[0], embed_symmetric(1, 0.2 + 0.1j, -0.15)),
            identity,
            (forms[0], forms[2]),  # fails
        ]
        cfgs = [
            TrackerConfig(step_max=0.4),
            TrackerConfig(),
            TrackerConfig(step_max=0.3),
            TrackerConfig().tightened(),
        ]
        batch = track_segment(paths, [catalog] * 4, cfgs)
        alone = [track_segment([seg], [catalog], [cfg]) for seg, cfg in zip(paths, cfgs)]
        for end, solo in zip(batch.ends, alone):
            [solo_end] = solo.ends
            if isinstance(end, TrackFailure):
                assert type(end) is type(solo_end) and str(end) == str(solo_end)
            else:
                [fiber], [solo_fiber] = end, solo_end
                assert np.array_equal(fiber.mats, solo_fiber.mats)
                assert np.array_equal(fiber.gauges, solo_fiber.gauges)
        # every step of an identity motion is accepted: 0.4 + 0.4 + 0.2 and
        # 0.3 + 0.3 + 0.3 + 0.1
        assert [alone[0].accepted_steps, alone[2].accepted_steps] == [3, 4]
        assert batch.accepted_steps == sum(r.accepted_steps for r in alone)
        assert batch.newton_iterations == [r.newton_iterations[0] for r in alone]
        assert batch.max_residual == max(r.max_residual for r in alone)
        assert batch.min_separation == min(r.min_separation for r in alone)

    def test_a_path_is_tracked_as_chained_one_edge_calls_would(self, forms, catalog):
        # Fermat, a form 0.65 of the way to the Cayley cubic, then a form
        # near that.  The first edge halves its step on the way, the second
        # takes one step from step_max.  The walk's two vertex fibers equal
        # two one-edge calls, the second from the first's end fiber: the
        # second edge gets a fresh t, step and streak, and the Newton check
        # a fresh call makes on its first form takes no iteration, since
        # the fiber was accepted on that very form.
        toward = CubicForm(0.35 * forms[0].coeffs + 0.65 * forms[2].coeffs)
        beyond = CubicForm(toward.coeffs + 0.02 * forms[1].coeffs)
        cfg = TrackerConfig()
        walk = track_segment([[forms[0], toward, beyond]], [catalog], [cfg])
        middle, first = segment(forms[0], toward, catalog, cfg)
        last, second = segment(toward, beyond, middle, cfg)
        assert (first.accepted_steps, second.accepted_steps) == (3, 1)
        [ends] = walk.ends
        assert len(ends) == 2
        for end, chained in zip(ends, (middle, last)):
            assert np.array_equal(end.mats, chained.mats)
            assert np.array_equal(end.gauges, chained.gauges)
        assert walk.accepted_steps == first.accepted_steps + second.accepted_steps
        assert walk.newton_iterations == [first.newton_iterations[0] + second.newton_iterations[0]]
        assert walk.max_residual == max(first.max_residual, second.max_residual)
        assert walk.min_separation == min(first.min_separation, second.min_separation)

    @pytest.mark.parametrize("path_length", [0, 1])
    def test_a_path_of_fewer_than_two_forms_is_refused(self, forms, catalog, path_length):
        paths = [[forms[0], forms[0]], [forms[0]] * path_length]
        with pytest.raises(ValueError, match="at least two forms"):
            track_segment(paths, [catalog] * 2)

    def test_failing_member_is_isolated(self, forms, catalog, monkeypatch):
        # the Fermat -> Cayley edge of test_fermat_to_cayley_fails, closed
        # into a loop, fails beside two good loops as it fails alone
        failing = [forms[0], forms[2], forms[0]]
        good = [triangle(0.9, seed=12), meridian(L1_POINT)]
        [alone] = track_loop([failing], catalog)
        assert isinstance(alone, TrackFailure)
        batch, matches = self.tracked([good[0], failing, good[1]], catalog, None, monkeypatch)
        assert type(batch[1]) is type(alone) and str(batch[1]) == str(alone)
        for loop, perm, (end, _) in zip(good, batch[::2], matches):
            [solo], [(solo_end, _)] = self.tracked([loop], catalog, None, monkeypatch)
            assert perm == solo
            assert np.array_equal(end, solo_end)

    def test_empty_batch(self, catalog):
        assert track_loop([], catalog) == []
        assert revalidate([], catalog) == ([], [])


@pytest.fixture(scope="module")
def s4_frame():
    return Frame.of(lines.s4_group(), lines.coordinate_action_table())


class TestFrame:
    """The equivariant frame of the coordinate S4 and of the trivial group."""

    def test_s4_tracks_the_lines_with_their_orbit_leaders_stabilizer(self, s4_frame):
        assert [i + 1 for i in s4_frame.tracked] == [1, 2, 13, 16, 22, 23, 25]

    def test_every_label_is_its_source_moved_by_its_coordinate_permutation(self, s4_frame):
        action = lines.coordinate_action_table()
        for i, (k, sigma) in enumerate(zip(s4_frame.source, s4_frame.sigma)):
            assert action[sigma](s4_frame.tracked[k] + 1) == i + 1
        for k, sigma in s4_frame.stabilizers:
            assert sigma != (0, 1, 2, 3)
            assert action[sigma](s4_frame.tracked[k] + 1) == s4_frame.tracked[k] + 1
        # S4's line stabilizers have orders 2, 2 and 8
        assert len(s4_frame.stabilizers) == 1 + 1 + 4 * 1 + 7

    def test_expanding_the_tracked_catalog_lines_gives_the_catalog(self, s4_frame, catalog):
        tracked = s4_frame.restrict(catalog)
        assert len(tracked.mats) == 7
        full = s4_frame.expand(tracked)
        for label, (mat, expected) in enumerate(zip(full.mats, catalog.mats), start=1):
            assert line_distance(mat, expected) < 1e-12, label
        # each moved line keeps its source's chart: its gauge minor is the identity
        minors = np.take_along_axis(full.mats, full.gauges[:, None, :], axis=2)
        assert (minors == np.eye(2)).all()

    def test_trivial_group_tracks_every_line_with_identity_maps(self, catalog):
        frame = Frame.of(perm.TRIVIAL_GROUP, lines.coordinate_action_table())
        assert frame.tracked == tuple(range(27)) and frame.source == tuple(range(27))
        assert frame.sigma == ((0, 1, 2, 3),) * 27 and frame.stabilizers == ()
        full = frame.expand(frame.restrict(catalog))
        assert np.array_equal(full.mats, catalog.mats)
        assert np.array_equal(full.gauges, catalog.gauges)

    def test_line_26_where_line_25_belongs_fails_the_stabilizer_check(self, s4_frame, catalog):
        mats = s4_frame.restrict(catalog).mats.copy()
        assert s4_frame.stabilizer_gaps(mats[None])[0] < 1e-14
        mats[s4_frame.tracked.index(24)] = catalog.mats[25]
        gap = s4_frame.stabilizer_gaps(mats[None])[0]
        assert _SEPARATION_FACTOR * gap > _min_pairwise_distance(catalog.mats)

    def test_lines_off_their_stabilizers_are_refused(self, s4_frame, forms, catalog):
        # Lines 14, 15, 21 and 24 where 13, 16, 22 and 23 belong: true lines,
        # and their images are 27 distinct lines, so only the stabilizer
        # check sees that they are the wrong ones.
        mats = s4_frame.restrict(catalog).mats.copy()
        for label, wrong in zip((13, 16, 22, 23), (14, 15, 21, 24)):
            mats[s4_frame.tracked.index(label - 1)] = catalog.mats[wrong - 1]
        start = Fiber.from_mats(mats)
        assert _min_pairwise_distance(s4_frame.expand_mats(mats[None]))[0] > 0.1
        target = embed_symmetric(1, 0.2 + 0.1j, -0.15)
        [end] = track_segment([[forms[0], target]], [start], frame=s4_frame).ends
        assert isinstance(end, SeparationLoss)
        assert "stabilizer image" in str(end.__cause__)
        [[end]] = track_segment([[forms[0], target]], [s4_frame.restrict(catalog)], frame=s4_frame).ends
        assert isinstance(end, Fiber)

    def test_symmetric_loops_give_the_permutations_of_all_27_lines(self, s4_frame, catalog):
        loops = [triangle(0.9, seed=12), meridian(L1_POINT), meridian(L2_POINT), meridian(C_POINT)]
        perms = track_loop(loops, catalog)
        assert all(isinstance(p, Permutation) for p in perms)
        assert track_loop(loops, catalog, frame=s4_frame) == perms
        assert revalidate(loops, catalog, frame=s4_frame) == (perms, [True] * 4)


class TestTrackLoop:
    def test_constant_loop_is_identity(self, forms, catalog):
        p = loop_perm([forms[0], forms[0]], catalog)
        assert p.is_identity()

    def test_open_polygon_rejected(self, forms, catalog):
        with pytest.raises(ValueError):
            track_loop([[forms[0], forms[1]]], catalog)

    def test_reversal_gives_inverse(self, catalog):
        loop = triangle(0.9, seed=12)
        fwd = loop_perm(loop, catalog)
        bwd = loop_perm(list(reversed(loop)), catalog)
        assert fwd.inverse() == bwd

    def test_determinism(self, catalog):
        loop = triangle(0.9, seed=12)
        p1 = loop_perm(loop, catalog)
        p2 = loop_perm(loop, catalog)
        assert p1 == p2

    def test_concatenation_maps_to_composition(self, catalog):
        from cubic27.perm import compose

        first = triangle(0.9, seed=12)
        second = triangle(0.9, seed=31)
        joined = first + second[1:]
        p_first = loop_perm(first, catalog)
        p_second = loop_perm(second, catalog)
        p_joined = loop_perm(joined, catalog)
        assert p_joined == compose(p_second, p_first)

    def test_meridian_gives_reference_involution(self, forms, catalog):
        # circle around the one-node discriminant point on the c axis
        loop = meridian(L1_POINT)
        perm = loop_perm(loop, catalog)
        assert perm == lines.monodromy_klein_elements()["tau1"]
        assert revalidate([loop], catalog) == ([perm], [True])

    def test_under_resolved_loop_rejected(self, catalog):
        # a Newton tolerance below the residual's rounding floor can never be
        # met, so the meridian is refused outright instead of producing an
        # uncertified permutation
        cfg = TrackerConfig(newton_tol=1e-17)
        loop = meridian(L1_POINT, radius=0.1, n=4)
        with pytest.raises(TrackFailure):
            loop_perm(loop, catalog, cfg)


class TestMatching:
    def test_unreachable_margin_raises_ambiguous_match(self, catalog):
        # a real tracked loop lands ~1e-12 from the catalog, so an absurd
        # margin turns the certified match into a rejection
        from cubic27.htrack import AmbiguousMatch

        cfg = TrackerConfig(match_margin=1e18)
        with pytest.raises(AmbiguousMatch):
            loop_perm(triangle(0.9, seed=12), catalog, cfg)


class TestRevalidate:
    @staticmethod
    def retracks_give(monkeypatch, outcome):
        """Make every tightened re-track of revalidate's batch give outcome."""
        original = htrack.track_loop

        def spy(loops, base, cfg=None, frame=None):
            out = original(loops, base, cfg, frame)
            n = len(loops) // 2
            assert cfg == [TrackerConfig()] * n + [TrackerConfig().tightened()] * n
            return out[:n] + [outcome] * n

        monkeypatch.setattr(htrack, "track_loop", spy)

    def test_constant_loop_revalidates(self, forms, catalog):
        p = loop_perm([forms[0], forms[0]], catalog)
        assert revalidate([[forms[0], forms[0]]], catalog) == ([p], [True])

    def test_wrong_permutation_fails_revalidation(self, forms, catalog, monkeypatch):
        p = loop_perm([forms[0], forms[0]], catalog)
        wrong = lines.monodromy_klein_elements()["tau1"]
        self.retracks_give(monkeypatch, wrong)
        assert revalidate([[forms[0], forms[0]]], catalog) == ([p], [False])
        self.retracks_give(monkeypatch, htrack.StepUnderflow("re-track failed"))
        assert revalidate([[forms[0], forms[0]]], catalog) == ([p], [False])

    def test_failed_first_track_discards_its_retrack(self, catalog, monkeypatch):
        # the first track of loop 0 fails, while its re-track in the same
        # batch gives a permutation: that permutation is never returned
        failure = htrack.NewtonFailure("first track failed")
        retracks = []
        original = htrack.track_loop

        def spy(loops, base, cfg=None, frame=None):
            out = original(loops, base, cfg, frame)
            retracks.extend(out[len(loops) // 2 :])
            return [failure] + out[1:]

        monkeypatch.setattr(htrack, "track_loop", spy)
        loops = [triangle(0.9, seed=12), meridian(L1_POINT)]
        first, confirmed = revalidate(loops, catalog)
        assert isinstance(retracks[0], Permutation)
        assert first == [failure, retracks[1]]
        assert confirmed == [False, True]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrackerConfig(step_max=1e-8)  # below the step floor
        with pytest.raises(ValueError, match="step floor"):
            TrackerConfig(step_max=_STEP_MIN)
        with pytest.raises(ValueError):
            TrackerConfig(newton_tol=-1)
        with pytest.raises(ValueError):
            TrackerConfig(match_margin=0.5)

    def test_tightened(self):
        cfg = TrackerConfig()
        tight = cfg.tightened()
        assert tight.newton_tol == cfg.newton_tol / 10
        assert tight.step_max == cfg.step_max / 2
        assert tight.match_margin == cfg.match_margin * 2
