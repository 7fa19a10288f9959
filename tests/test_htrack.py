import numpy as np
import pytest

from cubic27 import htrack, lines
from cubic27.exact import symmetric_basis
from cubic27.htrack import (
    CubicForm,
    Fiber,
    MONOMIAL_EXPONENTS,
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
    _STEP_MIN,
    _Chart,
    _best_gauges,
    _contract,
    _free_indices,
    _gauge_conds,
    _min_pairwise_distance,
    _minor_conds,
    _newton_batch,
    _normalize_batch,
    _polar,
)
from cubic27.monodromy import embed_symmetric


@pytest.fixture(scope="module")
def forms():
    m3, m21, m111 = symmetric_basis()
    return (
        CubicForm.from_exact(m3),
        CubicForm.from_exact(m21),
        CubicForm.from_exact(m111),
    )


@pytest.fixture(scope="module")
def catalog():
    return Fiber.from_mats([l.to_complex() for l in lines.fermat_catalog()])


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
        assert np.allclose(residual(2 * f, line), 2 * residual(f, line))

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
        unknowns = np.take_along_axis(charted.reshape(n, 8), _free_indices(gauges), axis=1)
        svd = _minor_conds(charted)[np.arange(n), slots]
        assert np.allclose(_gauge_conds(unknowns), svd, rtol=1e-12, atol=0)

    def test_rechart_picks_the_svd_gauges_on_stale_lines(self):
        rng = np.random.default_rng(78)
        n, limit = 60, 2.0
        slots = rng.integers(0, 6, n)
        gauges = np.array(_PLUCKER_PAIRS, dtype=np.int64)[slots]
        mats = _normalize_batch(_random_mats(rng, n), gauges)
        stale = _minor_conds(mats)[np.arange(n), slots] > limit
        assert 0 < stale.sum() < n
        want = gauges.copy()
        want[stale] = _best_gauges(mats[stale])
        given = Fiber(mats, gauges)
        batch = given.recharted(limit)
        assert np.array_equal(given.mats, mats)
        assert np.array_equal(batch.gauges, want)
        assert np.array_equal(batch.mats[~stale], mats[~stale])
        assert np.array_equal(batch.mats[stale], _normalize_batch(mats[stale], want[stale]))
        assert np.all(_minor_conds(batch.mats)[stale].min(axis=1) <= limit)


class TestJacobian:
    def test_matches_finite_differences(self, catalog):
        rng = np.random.default_rng(101)
        for _ in range(25):
            f = CubicForm((rng.standard_normal(20) + 1j * rng.standard_normal(20)))
            i = int(rng.integers(0, 27))
            jac = jacobian(f, catalog.mats[i], catalog.gauges[i])
            free = _free_indices(catalog.gauges[i : i + 1])[0]
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
        chart = _Chart(_free_indices(catalog.gauges[:1]))
        jac = chart.jacobian(_contract(_polar(np.zeros(20, dtype=complex)), catalog.mats[:1]))[0]
        assert np.array_equal(jac, np.zeros((4, 4)))


class TestNewton:
    def test_perturbed_line_reconverges(self, forms, catalog):
        # every line of the catalog fiber moved by about 1e-4, back in its gauge
        rng = np.random.default_rng(5)
        noisy = _normalize_batch(catalog.mats + 1e-4 * _random_mats(rng, 27), catalog.gauges)
        fixed, _, _, _ = _newton_batch(_polar(forms[0].coeffs), noisy, catalog.chart, TrackerConfig())
        for line, want in zip(fixed, catalog.mats):
            assert line_distance(line, want) < 1e-8

    def test_failure_on_singular_target(self, forms, catalog):
        # the straight segment toward the three-node parameter point
        target = embed_symmetric(0.25, 0, 0.75)
        with pytest.raises(TrackFailure):
            track_segment(forms[0], target, catalog)


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
        res = track_segment(forms[0], forms[0], catalog)
        assert res.max_residual < 1e-12
        for a, b in zip(res.fiber.mats, catalog.mats):
            assert line_distance(a, b) < 1e-12

    def test_round_trip(self, forms, catalog):
        target = embed_symmetric(1, 0.2 + 0.1j, -0.15)
        out = track_segment(forms[0], target, catalog)
        back = track_segment(target, forms[0], out.fiber)
        for a, b in zip(back.fiber.mats, catalog.mats):
            assert line_distance(a, b) < 1e-8

    def test_generic_smooth_target(self, forms, catalog):
        cfg = TrackerConfig()
        target = embed_symmetric(1, 0.1, 0.1)
        res = track_segment(forms[0], target, catalog, cfg)
        assert res.max_residual <= cfg.newton_tol
        assert _min_pairwise_distance(res.fiber.mats) > 0.1

    def test_fermat_to_cayley_fails(self, forms, catalog):
        with pytest.raises(TrackFailure):
            track_segment(forms[0], forms[2], catalog)

    def test_bitwise_deterministic(self, forms, catalog):
        target = embed_symmetric(1, 0.2 + 0.1j, -0.15)
        start = catalog
        r1 = track_segment(forms[0], target, start)
        r2 = track_segment(forms[0], target, start)
        assert r1.accepted_steps == r2.accepted_steps
        assert r1.max_residual == r2.max_residual
        assert np.array_equal(r1.fiber.mats, r2.fiber.mats)
        assert np.array_equal(r1.fiber.gauges, r2.fiber.gauges)

    def test_start_fiber_left_unchanged(self, forms, catalog):
        start = catalog
        mats, gauges = start.mats.copy(), start.gauges.copy()
        track_segment(forms[0], embed_symmetric(1, 0.2 + 0.1j, -0.15), start)
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


def meridian(center, radius=0.2, n=16):
    """Fermat, then a circle of n vertices around ``center`` (symmetric
    coordinates) entered along the straight segment from Fermat, then back."""
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
    """The lasso's oracle: every edge tracked, the return leg included, from
    a fiber rebuilt in fresh best gauges at each vertex and at step_init, and
    the end fiber matched against the catalog."""
    current = catalog
    for f0, f1 in zip(loop, loop[1:]):
        current = Fiber.from_mats(track_segment(f0, f1, current).fiber.mats)
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
        unknowns = catalog.mats.reshape(-1)[catalog.chart.unknowns]
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
    def test_step_carries_across_vertices(self, catalog, monkeypatch):
        calls = []
        original = htrack.track_segment

        def spy(f0, f1, start, cfg=None):
            result = original(f0, f1, start, cfg)
            calls.append((f0, f1, cfg, result))
            return result

        monkeypatch.setattr(htrack, "track_segment", spy)
        loop = meridian(L1_POINT)
        cfg = TrackerConfig()
        assert track_loop(loop, catalog, cfg) == lines.monodromy_klein_elements()["tau1"]
        # the return leg retraces the entry segment and is not tracked
        assert len(calls) == len(loop) - 2
        lengths = [np.linalg.norm(f1.coeffs - f0.coeffs) for f0, f1, _, _ in calls]
        # a long entry segment followed by short arcs
        assert lengths[0] > 5 * max(lengths[1:])
        assert calls[0][2].step_init == cfg.step_init
        for k in range(1, len(calls)):
            prev_step = calls[k - 1][3].step
            want = min(cfg.step_max, max(cfg.step_init, prev_step * lengths[k - 1] / lengths[k]))
            assert calls[k][2] == TrackerConfig(step_init=want)
        # the arcs start above the parent's restart value
        assert all(c[2].step_init > cfg.step_init for c in calls[1:])

    @pytest.mark.parametrize(
        "cfg, arc_steps", [(TrackerConfig(), 1), (TrackerConfig().tightened(), 2)],
        ids=["default", "tightened"],
    )
    def test_one_step_covers_a_short_arc(self, catalog, monkeypatch, cfg, arc_steps):
        # step_max is per segment: the 16 short arcs of a meridian are one
        # step each, and revalidation's halved cap re-tracks them in two
        steps = []
        original = htrack.track_segment

        def spy(f0, f1, start, seg_cfg=None):
            result = original(f0, f1, start, seg_cfg)
            steps.append(result.accepted_steps)
            return result

        monkeypatch.setattr(htrack, "track_segment", spy)
        loop = meridian(L1_POINT)
        assert track_loop(loop, catalog, cfg) == lines.monodromy_klein_elements()["tau1"]
        assert steps[1:] == [arc_steps] * 16

    @pytest.mark.parametrize("cfg", [TrackerConfig(), TrackerConfig().tightened()])
    def test_result_step_within_bounds(self, forms, catalog, cfg):
        for target in (forms[0], embed_symmetric(1, 0.2 + 0.1j, -0.15)):
            step = track_segment(forms[0], target, catalog, cfg).step
            assert _STEP_MIN <= step <= cfg.step_max

    def test_zero_length_segment(self, catalog):
        loop = triangle(0.9, seed=12)
        repeated = loop[:2] + [loop[1]] + loop[2:]
        assert track_loop(repeated, catalog) == track_loop(loop, catalog)

    @pytest.mark.parametrize("center", [L1_POINT, L2_POINT, C_POINT], ids=["L1", "L2", "C"])
    def test_same_permutation_as_restarting_at_every_vertex(self, catalog, center):
        loop = meridian(center)
        restarted = retracked(loop, catalog)
        assert not restarted.is_identity()
        assert track_loop(loop, catalog) == restarted


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
        fwd = track_loop(loop, catalog)
        assert not fwd.is_identity()
        assert track_loop(list(reversed(loop)), catalog) == fwd.inverse()

    def test_reversed_lasso_gives_inverse(self, catalog):
        # an order-4 permutation tells the lasso's reading from its inverse
        loop = full_family_lasso(7)
        fwd = track_loop(loop, catalog)
        assert fwd.order() == 4
        assert track_loop(list(reversed(loop)), catalog) == fwd.inverse()

    def test_two_edge_stem_equals_full_retrack(self, catalog):
        loop = full_family_lasso(7, stem_edges=2)
        p = track_loop(loop, catalog)
        assert p.order() == 4
        assert p == retracked(loop, catalog)

    def test_pure_retrace_is_identity(self, forms, catalog, monkeypatch):
        calls = []
        original = htrack.track_segment

        def spy(f0, f1, start, cfg=None):
            calls.append((f0, f1))
            return original(f0, f1, start, cfg)

        monkeypatch.setattr(htrack, "track_segment", spy)
        v = embed_symmetric(1, 0.2 + 0.1j, -0.15)
        assert track_loop([forms[0], v, forms[0]], catalog).is_identity()
        assert calls == [(forms[0], v)]

    @pytest.mark.parametrize(
        "loop, polishes",
        [(meridian(L1_POINT), 2), (triangle(0.9, seed=12), 1)],
        ids=["meridian", "triangle"],
    )
    def test_one_polish_per_matched_fiber_and_no_lines_between_vertices(
        self, catalog, monkeypatch, loop, polishes
    ):
        events = []

        def log(name, fn):
            def spy(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)

            return spy

        monkeypatch.setattr(htrack, "track_segment", log("segment", htrack.track_segment))
        monkeypatch.setattr(htrack, "_polish", log("polish", htrack._polish))
        monkeypatch.setattr(Fiber, "from_mats", classmethod(log("lines", Fiber.from_mats.__func__)))
        track_loop(loop, catalog)
        last_segment = len(events) - events[::-1].index("segment")
        assert events.count("segment") == len(loop) - 1 - htrack._retraced_edges(loop)
        assert "lines" not in events
        assert "polish" not in events[:last_segment]
        assert events.count("polish") == polishes <= 2


class TestTrackLoop:
    def test_constant_loop_is_identity(self, forms, catalog):
        p = track_loop([forms[0], forms[0]], catalog)
        assert p.is_identity()

    def test_open_polygon_rejected(self, forms, catalog):
        with pytest.raises(ValueError):
            track_loop([forms[0], forms[1]], catalog)

    def test_reversal_gives_inverse(self, catalog):
        loop = triangle(0.9, seed=12)
        fwd = track_loop(loop, catalog)
        bwd = track_loop(list(reversed(loop)), catalog)
        assert fwd.inverse() == bwd

    def test_determinism(self, catalog):
        loop = triangle(0.9, seed=12)
        p1 = track_loop(loop, catalog)
        p2 = track_loop(loop, catalog)
        assert p1 == p2

    def test_concatenation_maps_to_composition(self, catalog):
        from cubic27.perm import compose

        first = triangle(0.9, seed=12)
        second = triangle(0.9, seed=31)
        joined = first + second[1:]
        p_first = track_loop(first, catalog)
        p_second = track_loop(second, catalog)
        p_joined = track_loop(joined, catalog)
        assert p_joined == compose(p_second, p_first)

    def test_meridian_gives_reference_involution(self, forms, catalog):
        # circle around the one-node discriminant point on the c axis
        loop = meridian(L1_POINT)
        perm = track_loop(loop, catalog)
        assert perm == lines.monodromy_klein_elements()["tau1"]
        assert revalidate(loop, perm, catalog)

    def test_under_resolved_loop_rejected(self, catalog):
        # a Newton tolerance below the residual's rounding floor can never be
        # met, so the meridian is refused outright instead of producing an
        # uncertified permutation
        cfg = TrackerConfig(newton_tol=1e-17)
        loop = meridian(L1_POINT, radius=0.1, n=4)
        with pytest.raises(TrackFailure):
            track_loop(loop, catalog, cfg)


class TestMatching:
    def test_unreachable_margin_raises_ambiguous_match(self, catalog):
        # a real tracked loop lands ~1e-12 from the catalog, so an absurd
        # margin turns the certified match into a rejection
        from cubic27.htrack import AmbiguousMatch

        cfg = TrackerConfig(match_margin=1e18)
        with pytest.raises(AmbiguousMatch):
            track_loop(triangle(0.9, seed=12), catalog, cfg)


class TestRevalidate:
    def test_constant_loop_revalidates(self, forms, catalog):
        p = track_loop([forms[0], forms[0]], catalog)
        assert revalidate([forms[0], forms[0]], p, catalog)

    def test_wrong_permutation_fails_revalidation(self, forms, catalog):
        p = track_loop([forms[0], forms[0]], catalog)
        wrong = lines.monodromy_klein_elements()["tau1"]
        assert not revalidate([forms[0], forms[0]], wrong, catalog)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrackerConfig(step_init=1e-8)  # below the step floor
        with pytest.raises(ValueError):
            TrackerConfig(newton_tol=-1)
        with pytest.raises(ValueError):
            TrackerConfig(match_margin=0.5)

    def test_tightened(self):
        cfg = TrackerConfig()
        tight = cfg.tightened()
        assert tight.newton_tol == cfg.newton_tol / 10
        assert tight.step_init == cfg.step_init / 2
        assert tight.match_margin == cfg.match_margin * 2
