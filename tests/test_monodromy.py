import hashlib
import json
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, cycle, permutations

import numpy as np
import pytest
import sympy

from cubic27 import fermat_data, htrack, lattice, lines, monodromy, perm
from cubic27.cli import main
from cubic27.exact import ZETA_COMPLEX, _derivatives, symmetric_basis
from cubic27.htrack import MONOMIAL_EXPONENTS
from cubic27.monodromy import (
    Loop,
    _claim_monodromy,
    _claim_non_reflection,
    _claim_presentation_and_double_sixes,
    _claim_weyl_reconstruction,
    _order16_group,
    basepoint_fiber,
    cayley_form,
    circle_loop,
    component_structure,
    compute_monodromy,
    embed_symmetric,
    expected_symmetric_monodromy,
    fermat_form,
    full_family,
    probe_discriminant,
    random_loop,
    symmetric_family,
    upper_bound,
)
from cubic27.htrack import TrackerConfig, line_distance
from cubic27.perm import (
    fingerprint,
    format_cycles,
    generate,
    is_subconjugate,
    orbits,
    parse_cycles,
)


class TestEmbedding:
    def test_fermat_and_cayley(self):
        assert np.array_equal(embed_symmetric(1, 0, 0).coeffs, fermat_form().coeffs)
        assert np.array_equal(embed_symmetric(0, 0, 1).coeffs, cayley_form().coeffs)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            embed_symmetric(0, 0, 0)

    def test_coordinate_invariance(self):
        form = embed_symmetric(2, -1 + 1j, 0.5)
        for sigma in permutations(range(4)):
            permuted = np.empty_like(form.coeffs)
            for idx, expo in enumerate(MONOMIAL_EXPONENTS):
                moved = [0, 0, 0, 0]
                for i in range(4):
                    moved[sigma[i]] = expo[i]
                permuted[MONOMIAL_EXPONENTS.index(tuple(moved))] = form.coeffs[idx]
            assert np.array_equal(permuted, form.coeffs)


class TestFamilySpec:
    def test_symmetric_parameters(self):
        spec = symmetric_family()
        assert spec.basis.shape == (3, 20)
        assert np.array_equal(spec.base, np.array([1, 0, 0], dtype=complex))
        assert spec.form_at(spec.base) == fermat_form()

    def test_full_parameters(self):
        spec = full_family()
        assert spec.basis.shape == (20, 20)
        assert np.array_equal(spec.base, fermat_form().coeffs)
        assert spec.form_at(spec.base) == fermat_form()

    def test_symmetric_custom_basepoint_roundtrip(self):
        spec = replace(symmetric_family(), base=(1, 0.5j, -2))
        assert spec.form_at(spec.base) == embed_symmetric(1, 0.5j, -2)
        assert np.array_equal(symmetric_family().base, [1, 0, 0])


class TestBasepointFiber:
    def test_fermat_matches_catalog_exactly(self):
        fiber = basepoint_fiber(symmetric_family())
        cat = lines.fermat_catalog()
        for numeric, exact in zip(fiber.mats, cat):
            assert line_distance(numeric, exact[..., 0] + exact[..., 1] * ZETA_COMPLEX) < 1e-12

    @pytest.mark.parametrize("near", [False, True], ids=["cayley", "near_fermat"])
    def test_non_fermat_base_refused_before_tracking(self, monkeypatch, near):
        # the four-node Cayley form, and Fermat with one coefficient moved
        # by 1e-7 relative
        base = cayley_form().coeffs
        if near:
            base = fermat_form().coeffs.copy()
            base[MONOMIAL_EXPONENTS.index((3, 0, 0, 0))] *= 1 + 1e-7

        def no_tracking(*args, **kwargs):
            raise AssertionError("a refused basepoint was tracked")

        monkeypatch.setattr(htrack, "track_segment", no_tracking)
        spec = replace(full_family(), base=base)
        with pytest.raises(ValueError, match="not the Fermat form"):
            basepoint_fiber(spec)
        with pytest.raises(ValueError, match="not the Fermat form"):
            compute_monodromy(spec, budget=2)

    def test_fermat_fiber_is_shared_and_read_only(self):
        fiber = basepoint_fiber(symmetric_family())
        assert basepoint_fiber(full_family()) is fiber
        with pytest.raises(ValueError):
            fiber.mats[0, 0, 0] = 0


class TestLoops:
    def test_random_loop_closed_and_symmetric(self):
        spec = symmetric_family()
        loop = random_loop(spec, random.Random(3), scale=0.5)
        assert np.array_equal(loop.vertices[0].coeffs, loop.vertices[-1].coeffs)
        sym_basis = np.stack(
            [embed_symmetric(1, 0, 0).coeffs, embed_symmetric(0, 1, 0).coeffs, embed_symmetric(0, 0, 1).coeffs]
        )
        for vertex in loop.vertices:
            # every vertex lies in the span of the symmetric basis
            sol, *_ = np.linalg.lstsq(sym_basis.T, vertex.coeffs, rcond=None)
            assert np.linalg.norm(sym_basis.T @ sol - vertex.coeffs) < 1e-12

    def test_loop_draws_pinned_at_seed_1(self, monkeypatch):
        # loop 0 at seed 1, drawn by random.Random("1:0").random() alone: its
        # scale and its two vertices' parameter offsets from the basepoint.  A
        # change to the recipe, or to Python's stream, fails here first.
        spec = symmetric_family()
        points = []
        form_at = monodromy.FamilySpec.form_at
        monkeypatch.setattr(
            monodromy.FamilySpec, "form_at", lambda self, p: points.append(np.asarray(p)) or form_at(self, p)
        )
        loop = monodromy._build_loop(spec, 0, 1)
        assert loop.meta["scale"] == 1.0627019127720625
        assert np.array_equal(points[0], spec.base)
        offsets = [list(p - spec.base) for p in points[1:]]
        assert offsets == [
            pytest.approx([
                -0.31110423931124487+0.32882060862884305j,
                0.2368441589177614-0.47447855028682323j,
                -0.20262217788262238-0.02464698494561882j,
            ], rel=1e-12),
            pytest.approx([
                -0.17912016064500125+0.15746643797775584j,
                0.626256215695171-0.6470599657313988j,
                -0.02466561088403349+0.5489555775534093j,
            ], rel=1e-12),
        ]

    def test_circle_loop_shape(self):
        spec = symmetric_family()
        loop = circle_loop(spec, (1, 0, -1), radius=0.1)
        assert loop.kind == "circle"
        assert len(loop.vertices) == 9  # base + 6 ring + ring[0] + base
        assert np.array_equal(loop.vertices[0].coeffs, loop.vertices[-1].coeffs)

    @pytest.mark.parametrize("seed", [1, 51, 117, 100004, 200007])
    def test_polygon_winds_the_branch_points_of_its_circle(self, seed):
        # A loop's permutation depends only on the branch points it winds.
        # On the complex line center + z*d of each meridian, every root of
        # every component lies inside the polygon circle_loop winds exactly
        # when it lies inside the circle of its radius, and the probed
        # crossing z = 0 is inside.  No tracking.
        spec = symmetric_family()
        n = monodromy._CIRCLE_SEGMENTS
        ring = np.exp(2j * np.pi * np.arange(n) / n)
        edges = np.roll(ring, -1) - ring

        def in_polygon(w):
            # w in units of the radius: left of every counterclockwise edge
            return bool(np.all((np.conj(edges) * (w - ring)).imag > 0))

        meridians = [monodromy._build_loop(spec, i, seed) for i in range(1, 40, 2)]
        assert [loop.kind for loop in meridians] == ["circle"] * 20
        for loop in meridians:
            center, radius = np.array(loop.meta["center"]), loop.meta["radius"]
            d = (spec.base - center) / np.linalg.norm(spec.base - center)
            roots = np.concatenate([
                np.roots(monodromy._restrict_to_line(form, center, d))
                for form in spec.components.values()
            ]) / radius
            for w in roots:
                assert in_polygon(w) == (abs(w) < 1), (loop.meta, w)
            crossing = roots[np.argmin(abs(roots))]
            assert abs(crossing) < 1e-9 and in_polygon(crossing)

    def test_open_loop_rejected(self):
        with pytest.raises(ValueError):
            Loop(kind="bad", vertices=(fermat_form(), cayley_form()))

    def test_probe_locates_crossing_on_cayley_segment(self):
        # the Fermat-to-Cayley segment meets the discriminant at t = 3/4, the
        # first crossing on that ray within the probe range t <= 3
        spec = symmetric_family()
        t_star = probe_discriminant(spec, (-1, 0, 1))
        assert t_star is not None
        assert abs(t_star - 0.75) < 1e-12

    def test_probe_circle_yields_nontrivial_permutation(self):
        from cubic27.htrack import revalidate, track_loop

        spec = symmetric_family()
        t_star = probe_discriminant(spec, (-1, 0, 1))
        center = np.array([1, 0, 0], dtype=complex) + t_star * np.array([-1, 0, 1])
        loop = circle_loop(spec, center, radius=0.05)
        fiber = basepoint_fiber(spec)
        [perm] = track_loop([loop.vertices], fiber)
        assert not perm.is_identity()
        assert format_cycles(perm) in expected_symmetric_monodromy()
        assert revalidate([loop.vertices], fiber) == ([perm], [True])


COMPONENTS = monodromy._SYMMETRIC_COMPONENTS


def _value(form, a, b, c):
    """A component of the symmetric discriminant at (a, b, c), exactly."""
    return sum(
        coeff * Fraction(a) ** i * Fraction(b) ** j * Fraction(c) ** k
        for (i, j, k), coeff in form.items()
    )


def _cleared(values) -> list[int]:
    """Rational values times the lcm of their denominators.  Scaling moves
    no singular point of a form and no root of a homogeneous component, so
    the checks below may run on the cleared integers."""
    values = [Fraction(x) for x in values]
    scale = math.lcm(*(x.denominator for x in values))
    return [int(x * scale) for x in values]


def _symmetric_cubic(a, b, c):
    """a*m3 + b*m21 + c*m111 as an integer form, up to a positive scalar."""
    return np.array(_cleared((a, b, c))) @ symmetric_basis()


def _singular_at(form, point) -> bool:
    return not _derivatives(form, _cleared(point))[0].any()


class TestSymmetricDiscriminant:
    """The components L1, L2 and C, checked in exact arithmetic: a generic
    surface on L1 or C has nodes (A1), one on L2 three cusps (A2, the 3A2
    cubic)."""

    def on_line(self, name, a, b):
        # the point (a, b, c) of a linear component, solved for c
        form = COMPONENTS[name]
        c = -_value(form, a, b, 0) / form[(0, 0, 1)]
        assert _value(form, a, b, c) == 0
        return a, b, c

    @pytest.mark.parametrize("a, b", [(1, 0), (1, 1), (Fraction(-2, 3), 5), (0, 1)])
    def test_l1_node_at_the_all_ones_point(self, a, b):
        f = _symmetric_cubic(*self.on_line("L1", a, b))
        assert _singular_at(f, (1, 1, 1, 1))
        assert not _singular_at(f, (1, 1, -1, -1))

    @pytest.mark.parametrize("a, b", [(1, 0), (1, 1), (Fraction(-2, 3), 5), (0, 1)])
    def test_l2_cusps_on_the_orbit_of_1_1_m1_m1(self, a, b):
        f = _symmetric_cubic(*self.on_line("L2", a, b))
        for point in [(1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)]:
            assert _singular_at(f, point)
        assert not _singular_at(f, (1, 1, 1, 1))

    @pytest.mark.parametrize(
        "abc, point, rank, kind",
        [((0, 1, 1), (1, 1, -1, -1), 2, "A2"), ((-4, 1, 1), (1, 1, 1, 1), 3, "A1")],
        ids=["L2", "L1"],
    )
    def test_singularity_type(self, abc, point, rank, kind):
        # At a singular point x the Hessian H kills x (Euler), and its rank
        # is that of the affine Hessian: 3 makes x an A1 node.  At rank 2
        # the kernel is spanned by x and one more v, f(x + t v) = t^3 f(v)
        # there, and f(v) != 0 makes x an A2 cusp.
        f = np.array(abc) @ symmetric_basis()
        grad, hessian = _derivatives(f, point)
        assert not grad.any()
        h = sympy.Matrix(hessian.tolist())
        assert h.rank() == rank
        assert not (hessian @ point).any()
        if kind == "A1":
            # m3 is 4 at the node (1, 1, 1, 1), not 0
            m3_grad, _ = _derivatives(symmetric_basis()[0], point)
            assert m3_grad @ point == 3 * 4
            return
        kernel = [_cleared(v) for v in h.nullspace()]
        # a kernel vector off the point: some 2x2 minor of (v, x) is nonzero
        pairs = list(combinations(range(4), 2))
        v = next(k for k in kernel if any(k[i] * point[j] != k[j] * point[i] for i, j in pairs))
        assert not (hessian @ v).any()
        v_grad, _ = _derivatives(f, v)
        # Euler: 3 f(v) = grad f(v) . v
        assert v_grad @ v != 0

    @pytest.mark.parametrize(
        "point",
        [(s, 1, 1, 1) for s in (0, 2, -3, Fraction(1, 2), Fraction(-2, 3), 5)] + [(1, 0, 0, 0)],
    )
    def test_node_on_the_orbit_of_s_1_1_1_lies_on_c(self, point):
        # the gradient at (s, 1, 1, 1) is linear in (a, b, c), and by symmetry
        # its last three entries agree: (a : b : c) is the cross product of
        # the first two rows.  (1, 0, 0, 0) is the limit s -> infinity.
        grads = np.array([_derivatives(g, _cleared(point))[0] for g in symmetric_basis()])
        assert grads.dtype == np.int64
        (u0, u1, u2), (v0, v1, v2) = grads[:, :2].T.tolist()
        abc = (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)
        assert any(abc)
        assert _singular_at(_symmetric_cubic(*abc), point)
        assert _value(COMPONENTS["C"], *abc) == 0
        if point == (1, 0, 0, 0):
            assert abc[0] == abc[1] == 0  # Cayley's cubic

    def test_l3_forms_are_divisible_by_e1(self):
        # the fourth component L3: 3a - 3b + c = 0 holds exactly when
        # a*m3 + b*m21 + c*m111 has the factor e1 = z0 + z1 + z2 + z3
        a, b = sympy.symbols("a b")
        x = sympy.symbols("x0:4")

        def to_sympy(form):
            assert form.dtype == np.int64
            return sum(
                int(coeff) * sympy.Mul(*(xi**e for xi, e in zip(x, expo)))
                for expo, coeff in zip(MONOMIAL_EXPONENTS, form)
            )

        m3, m21, m111 = map(to_sympy, symmetric_basis())
        e1 = sum(x)
        # a and b are free symbols, so this covers every rational point of L3
        _, rem = sympy.div(a * m3 + b * m21 + (3 * b - 3 * a) * m111, e1, *x)
        assert rem == 0
        for p, q in [(1, 1), (Fraction(-2, 3), 5), (0, 1)]:
            f = to_sympy(_symmetric_cubic(p, q, 3 * q - 3 * p))
            assert sympy.div(f, e1, *x)[1] == 0
        assert sympy.div(m3, e1, *x)[1] != 0  # Fermat is off L3

    def test_c_against_sympy_elimination(self):
        # eliminating s from the first two gradient entries at (s, 1, 1, 1)
        # leaves L1 (s = 1, the node at (1, 1, 1, 1)) and the curve C
        a, b, c, s = sympy.symbols("a b c s")
        x = sympy.symbols("x0:4")
        f = (
            a * sum(xi**3 for xi in x)
            + b * sum(x[i] ** 2 * x[j] for i in range(4) for j in range(4) if i != j)
            + c * sum(x[i] * x[j] * x[k] for i, j, k in combinations(range(4), 3))
        )
        at = {x[0]: s, x[1]: 1, x[2]: 1, x[3]: 1}
        res = sympy.resultant(*(sympy.diff(f, x[i]).subs(at) for i in (0, 1)), s)
        _, factors = sympy.factor_list(res)

        def expr(form):
            return sum(coeff * a**i * b**j * c**k for (i, j, k), coeff in form.items())

        assert {q for q, _ in factors} == {expr(COMPONENTS["L1"]), expr(COMPONENTS["C"])}


class TestProbe:
    @pytest.mark.parametrize("direction, t_exact", [
        ((-1, 0, 1), 0.75),  # L2; C follows at t = 1
        ((0, -1, -1), 0.25),  # L1
        ((0, -1, 1), 0.5),  # L1; C follows at t = 0.6
        ((1, -1, 0), 0.5),  # L1
        ((0, 2, -1), None),  # only L3, at t = 3/7
    ])
    def test_march_agrees_with_the_exact_crossing(self, direction, t_exact):
        # the exact first crossing on a real ray from Fermat
        t_star = probe_discriminant(symmetric_family(), direction)
        assert t_star == (None if t_exact is None else pytest.approx(t_exact, rel=1e-12))

    def test_complex_line_through_a_point_of_c(self):
        # (33 : -51 : 123) puts a node at (2, 1, 1, 1); on this complex line
        # the crossing t = 1/2 is a root with a rounding-level imaginary part
        assert _value(COMPONENTS["C"], 33, -51, 123) == 0
        direction = (0, 1 + 2j, 0)
        spec = replace(symmetric_family(), base=(33, -51 - 0.5 * direction[1], 123))
        assert probe_discriminant(spec, direction) == pytest.approx(0.5, rel=1e-12)

    def test_ray_crossing_l3_first(self):
        # L3 (3a - 3b + c) is met first, at t = 6/5; the probe skips it and
        # returns the L1 crossing at t = 2
        direction = (0, Fraction(1, 3), Fraction(-3, 2))
        l3 = {(1, 0, 0): 3, (0, 1, 0): -3, (0, 0, 1): 1}

        def on_ray(t):
            return 1, t * direction[1], t * direction[2]

        assert _value(l3, *on_ray(Fraction(6, 5))) == 0
        assert _value(COMPONENTS["L1"], *on_ray(2)) == 0
        t_star = probe_discriminant(symmetric_family(), [float(x) for x in direction])
        assert t_star == pytest.approx(2, rel=1e-12)


# sha256 of the JSON list of [kind, permutation, accepted, revalidated,
# probe_t] per loop of compute_monodromy(symmetric_family(), 40, seed),
# recorded when meridians had 16 arcs: the hexagon winds the same branch
# points, so every loop keeps its outcome (seed 51 stalls inconclusive)
SYMMETRIC_LOOP_DIGESTS = {
    10: "819c9d09300a3a4de6ce4a3b74c549fc15ada0c713207fd98013ba9e923057a3",
    51: "b7e14afd2ab4da00a72b441e4b87f7bfa3c44e21cb8dbc69814e4085cd807a81",
    200008: "8e4e48fa48ea1e8ee10a41d31a390ea9e11d702e5b183914f428816d9e28d805",
}


class TestComputeMonodromy:
    def test_zero_budget_inconclusive(self):
        report = compute_monodromy(symmetric_family(), budget=0, seed=1)
        assert not report.conclusive
        assert report.group["order"] == 1

    def test_symmetric_stabilizes_to_klein_group(self, symmetric_report):
        report = symmetric_report
        assert report.conclusive
        assert set(report.group_elements) == expected_symmetric_monodromy()
        assert report.invariant_violations == 0
        accepted = [r for r in report.loops if r.accepted]
        assert accepted and all(r.revalidated for r in accepted)
        assert all(r.in_bound for r in accepted)
        assert report.bound_order == 4

    def test_first_loops_pinned_at_seed_1(self, symmetric_report):
        # a tracker change that moves a discriminant probe or flips a loop
        # permutation shows up here, at no cost beyond the shared fixture
        # probe_t is the exact crossing, on L1 for each of loops 1, 3, 5 and 7
        # (roots computed to 50 digits)
        tau = "(13,23)(14,19)(15,18)(16,22)(17,24)(20,21)"
        sigma = "(1,2)(3,4)(5,6)(7,8)(9,10)(11,12)(13,16)(14,15)(17,20)(18,19)(21,24)(22,23)"
        expected = [
            ("triangle", "()", None),
            ("circle", tau, 0.3616149732530250),
            ("triangle", "()", None),
            ("circle", sigma, 1.569463315013868),
            ("triangle", "()", None),
            ("circle", tau, 0.3361367139791534),
            ("triangle", "()", None),
            ("circle", tau, 0.9550654611898601),
        ]
        loops = symmetric_report.loops[:8]
        assert [(r.kind, r.permutation) for r in loops] == [e[:2] for e in expected]
        for r, (_, _, t) in zip(loops, expected):
            assert r.meta.get("probe_t") == (None if t is None else pytest.approx(t, rel=1e-12))
        assert all(r.accepted for r in loops)

    def test_symmetric_eight_loops_track_80_segments(self, monkeypatch):
        # 4 triangles of 3 edges and 4 meridians of 7 (the entry and the 6
        # arcs of the hexagon; the return leg of the 8 is read off the stem),
        # each tracked and revalidated: 80 member-segments in one ragged
        # batch of 16 members, the 8 first tracks and their 8 re-tracks, each
        # walking its own polygon
        calls, member_segments = [], []
        original = htrack.track_segment

        def spy(paths, starts, cfgs=None, frame=None):
            calls.append(len(paths))
            member_segments.extend(m for m, path in enumerate(paths) for _ in path[1:])
            return original(paths, starts, cfgs, frame)

        monkeypatch.setattr(htrack, "track_segment", spy)
        report = compute_monodromy(symmetric_family(), 8, seed=1)
        assert [r.kind for r in report.loops] == ["triangle", "circle"] * 4
        assert len(member_segments) == 80
        assert calls == [16]
        # members 0-7 track at the default config, 8-15 re-track the same loops
        assert [member_segments.count(m) for m in range(16)] == 2 * [3, 7] * 4

    def test_symmetric_eight_loops_work_counters(self, monkeypatch, capsys):
        # The tracker's work on `monodromy --family symmetric --loops 8` at
        # seed 1, pinned so that a run that takes fewer steps can be told
        # from a faster kernel.  Every segment opens at its step_max, and
        # only the base fiber is Newton-checked: one start check per
        # track_segment call beside the one corrector call of each round.
        counts = {"calls": 0, "accepted": 0, "homotopies": 0, "newton": 0}
        inside = []
        track_segment, homotopy, newton = htrack.track_segment, htrack._homotopy, htrack._newton_batch

        def segment_spy(*args):
            counts["calls"] += 1
            inside.append(True)
            result = track_segment(*args)
            inside.pop()
            counts["accepted"] += result.accepted_steps
            return result

        def homotopy_spy(*args):
            counts["homotopies"] += 1
            return homotopy(*args)

        def newton_spy(*args):
            counts["newton"] += bool(inside)
            return newton(*args)

        monkeypatch.setattr(htrack, "track_segment", segment_spy)
        monkeypatch.setattr(htrack, "_homotopy", homotopy_spy)
        monkeypatch.setattr(htrack, "_newton_batch", newton_spy)
        main(["--seed", "1", "monodromy", "--family", "symmetric", "--loops", "8"])
        capsys.readouterr()
        # the predictor and the corrector each build one homotopy a round
        rounds = counts["homotopies"] // 2
        assert (counts["calls"], counts["accepted"], rounds) == (1, 138, 17)
        assert counts["newton"] - rounds == counts["calls"]

    @pytest.mark.parametrize(
        "budget, chunks", [(40, [10, 4]), (8, [8]), (0, [])], ids=["stall", "fixed", "none"]
    )
    def test_chunks_never_track_past_the_stop(self, monkeypatch, budget, chunks):
        # the symmetric run at seed 1 stops at 14 loops (10 and 4): a chunk
        # is the fewest loops after which the stall counter could fire
        first = []
        original = htrack.track_loop

        def spy(loops, base, cfg=None, frame=None):
            # a chunk's first tracks and their tightened re-tracks, one batch
            defaults = [c == TrackerConfig() for c in cfg]
            assert defaults == [True] * (len(loops) // 2) + [False] * (len(loops) // 2)
            first.append(sum(defaults))
            return original(loops, base, cfg, frame)

        monkeypatch.setattr(htrack, "track_loop", spy)
        report = compute_monodromy(symmetric_family(), budget, seed=1)
        assert first == chunks
        assert len(report.loops) == sum(chunks)
        if budget == 40:
            assert report.stabilized_after == 14

    def test_full_family_reaches_weyl_group(self, full_report):
        assert full_report.group["order"] == 51840
        assert full_report.bound_order == 51840
        assert full_report.conclusive
        accepted = [r for r in full_report.loops if r.accepted]
        assert all(r.in_bound for r in accepted)
        assert full_report.invariant_violations == 0

    def test_upper_bound_centralizes_the_family_symmetry(self, weyl, klein):
        # C_W(H): W(E6) itself for the full family (H trivial), the paper's
        # Klein group for the symmetric family (H the coordinate S4)
        assert upper_bound(full_family()) is weyl
        assert upper_bound(symmetric_family()) == klein

    def test_full_family_runs_on_triangles_alone(self, monkeypatch):
        # the full family has no nodal components, so no loop probes the
        # discriminant
        def no_probe(*args, **kwargs):
            raise AssertionError("the full family probed the discriminant")

        monkeypatch.setattr(monodromy, "probe_discriminant", no_probe)
        report = compute_monodromy(full_family(), budget=4, seed=1)
        assert [r.kind for r in report.loops] == ["triangle"] * 4

    def test_full_family_loops_pinned_at_seed_1(self, full_report):
        # sha256 of the JSON list of [kind, permutation, accepted] per loop
        # (19 triangles, all accepted): tracker changes must keep every loop
        records = [[r.kind, r.permutation, r.accepted] for r in full_report.loops]
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == "7643464362f0dd1fe94c84a489bead4ed336a76c48f7431267d37b4619f21a91"

    @pytest.mark.parametrize("seed", list(SYMMETRIC_LOOP_DIGESTS))
    def test_symmetric_loops_pinned(self, seed):
        report = compute_monodromy(symmetric_family(), 40, seed)
        records = [
            [r.kind, r.permutation, r.accepted, r.revalidated, r.meta.get("probe_t")]
            for r in report.loops
        ]
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == SYMMETRIC_LOOP_DIGESTS[seed]

    def test_deterministic_reports(self):
        # one loop: a random triangle
        a = compute_monodromy(symmetric_family(), budget=1, seed=9)
        b = compute_monodromy(symmetric_family(), budget=1, seed=9)
        assert a.to_dict() == b.to_dict()

    def test_group_contained_in_expected_klein(self):
        report = compute_monodromy(symmetric_family(), budget=5, seed=4)
        assert set(report.group_elements) <= expected_symmetric_monodromy()

    def test_expected_group_is_the_s4_centralizer(self, weyl, s4, klein):
        from cubic27.perm import centralizer

        assert klein.elements == centralizer(weyl, s4).elements
        assert expected_symmetric_monodromy() == {
            format_cycles(p) for p in klein.elements
        }
        # membership in the bound implies the order-16 and tritangent checks
        # that used to be made on each loop separately
        assert klein <= _order16_group()
        assert all(p(x) == x for p in klein for x in (25, 26, 27))


class TestEquivariantFrame:
    def test_frames_of_the_families(self):
        assert [i + 1 for i in monodromy._frame(symmetric_family().symmetry).tracked] == [
            1, 2, 13, 16, 22, 23, 25
        ]
        assert monodromy._frame(full_family().symmetry).tracked == tuple(range(27))

    def test_a_jump_between_lines_of_one_stabilizer_is_caught(self):
        # This triangle carries line 13 onto the path of line 16, which has
        # the same stabilizer: a frame that tracked one line per orbit read
        # the wrong permutation (13,16)(14,15)(17,20)(18,19)(21,24)(22,23)
        # off it.  Line 16 is tracked too, so the jump meets it at the
        # separation barrier.  Its vertices (a, b, c) are loop 2 at seed
        # 100004 as numpy's default_rng((100004, 2)) drew it, from before
        # loops were drawn from Python's random, kept as literals.
        spec = symmetric_family()
        p1 = (0.9535945762664717-0.16234709149831467j, -0.622989001972509+0.15314631125788564j,
              0.016214336409732032-0.11841459707787541j)
        p2 = (0.6336677938008792+0.14803606327693475j, 0.2011144575329886-0.3515546567375244j,
              -0.1328845876402557-0.16501170489999362j)
        loop = tuple(spec.form_at(p) for p in (spec.base, p1, p2, spec.base))
        base = basepoint_fiber(spec)
        expected = parse_cycles("(13,23)(14,19)(15,18)(16,22)(17,24)(20,21)")
        for frame in (monodromy._frame(spec.symmetry), monodromy._frame(perm.TRIVIAL_GROUP)):
            assert htrack.track_loop([loop], base, frame=frame) == [expected]

    def test_a_jump_that_revalidates_is_caught_only_by_the_upper_bound(self):
        # At seed 23, loop 2 (a triangle at scale 1.09) carries lines 22 and
        # 23 onto each other's paths on its first track and on its tightened
        # re-track alike.  Both lines are tracked, with the same stabilizer,
        # and neither the separation barrier nor the revalidation sees the
        # jump: only the upper bound rejects the transposition (22,23).
        report = compute_monodromy(symmetric_family(), 3, 23)
        loop = report.loops[2]
        assert (loop.kind, loop.permutation) == ("triangle", "(22,23)")
        assert (loop.revalidated, loop.in_bound) == (True, False)
        assert loop.failure == "permutation outside the upper bound"
        assert report.invariant_violations == 1

    def test_the_jump_at_seed_23_fails_the_claim_although_the_group_is_k4(self):
        claim = _claim_monodromy(symmetric_family(), 23, 40)
        assert claim.details["conclusive"] is True and claim.details["group_order"] == 4
        assert claim.details["invariant_violations"] == 1
        assert claim.passed is False


class TestNumericHygiene:
    def test_reversal_pairs_are_one_batch_at_seed_1(self, monkeypatch, reversal_pairs):
        # 20 triangles and their reverses, none failing, in one batch of 40
        batches = []
        original = htrack.track_loop

        def spy(loops, base, cfg=None, frame=None):
            batches.append(len(loops))
            return original(loops, base, cfg, frame)

        monkeypatch.setattr(htrack, "track_loop", spy)
        results = reversal_pairs(seed=1)
        assert batches == [40]
        assert not any(isinstance(r, htrack.TrackFailure) for r in results)
        assert all(fwd.inverse() == bwd for fwd, bwd in zip(results[::2], results[1::2]))


class TestUpperBoundVerdict:
    """The acceptance rule and the verdict, with the tracker stubbed out: the
    symmetric family's basepoint fiber is the catalog, and with every probe
    finding nothing each loop is a triangle built without tracking, so the
    stub decides every permutation."""

    TAU = "(13,23)(14,19)(15,18)(16,22)(17,24)(20,21)"

    def run(self, monkeypatch, cycles, budget=40):
        perms = cycle([parse_cycles(c) for c in cycles])
        monkeypatch.setattr(
            htrack, "revalidate", lambda loops, *a, **k: ([next(perms) for _ in loops], [True] * len(loops))
        )
        monkeypatch.setattr(monodromy, "probe_discriminant", lambda *a, **k: None)
        return compute_monodromy(symmetric_family(), budget=budget)

    def claim(self, monkeypatch, report):
        monkeypatch.setattr(monodromy, "compute_monodromy", lambda spec, **kw: report)
        return _claim_monodromy(symmetric_family(), seed=1, budget=report.budget)

    def test_stall_below_the_bound_is_inconclusive(self, monkeypatch, capsys):
        report = self.run(monkeypatch, [self.TAU])
        assert report.group["order"] == 2
        assert report.stabilized_after == 11
        assert not report.conclusive
        assert main(["monodromy", "--family", "symmetric"]) == 1
        assert "INCONCLUSIVE: stalled at order 2 below the bound 4" in capsys.readouterr().out
        assert not self.claim(monkeypatch, report).passed

    def test_identity_only_is_inconclusive(self, monkeypatch):
        report = self.run(monkeypatch, ["()"])
        assert report.group["order"] == 1
        assert report.stabilized_after == 10
        assert not report.conclusive

    def test_klein_elements_meet_the_bound(self, monkeypatch):
        nontrivial = sorted(expected_symmetric_monodromy() - {"()"})
        report = self.run(monkeypatch, nontrivial)
        assert report.conclusive
        assert report.bound_order == 4
        assert set(report.group_elements) == expected_symmetric_monodromy()
        assert all(r.accepted and r.in_bound for r in report.loops)
        claim = self.claim(monkeypatch, report)
        assert claim.passed and claim.claim_id == "symmetric-monodromy"
        assert claim.details["bound_order"] == 4
        assert claim.details["all_accepted_in_bound"]

    def test_one_closure_grows_the_group(self, monkeypatch):
        upper_bound(symmetric_family())  # the cached set-up may close groups

        def no_generate(*args, **kwargs):
            raise AssertionError("the run re-closed its group from scratch")

        monkeypatch.setattr(perm, "generate", no_generate)
        nontrivial = sorted(expected_symmetric_monodromy() - {"()"})
        report = self.run(monkeypatch, nontrivial)
        assert report.group["order"] == 4
        assert report.group["generators"] == nontrivial[:2]
        assert [r.new_elements for r in report.loops[:3]] == [True, True, False]

    def test_failed_track_is_recorded_and_not_revalidated(self, monkeypatch):
        # the first track of loop 0 fails and its re-track, in the same
        # batch, gives tau: that re-track is discarded, never recorded
        tau = parse_cycles(self.TAU)
        failure = htrack.NewtonFailure("no convergence in 8 iterations")
        batches = []

        def track_loop(loops, base, cfg=None, frame=None):
            batches.append(len(loops))
            return [failure] + [tau] * (len(loops) - 1)

        monkeypatch.setattr(htrack, "track_loop", track_loop)
        monkeypatch.setattr(monodromy, "probe_discriminant", lambda *a, **k: None)
        report = compute_monodromy(symmetric_family(), budget=3)
        assert batches == [6]
        first = report.loops[0]
        assert (first.accepted, first.permutation, first.revalidated, first.in_bound) == (
            False, None, False, None
        )
        assert first.failure == "NewtonFailure: no convergence in 8 iterations"
        assert [r.accepted for r in report.loops] == [False, True, True]
        assert [r.revalidated for r in report.loops] == [False, True, True]
        assert report.invariant_violations == 0

    def test_weyl_element_outside_the_bound_is_rejected(self, monkeypatch):
        outside = lines.s4_generators()[0]
        assert outside in lines.weyl_group()
        report = self.run(monkeypatch, [format_cycles(outside), self.TAU], budget=2)
        first, second = report.loops
        assert (first.revalidated, first.in_bound, first.accepted) == (True, False, False)
        assert first.failure == "permutation outside the upper bound"
        assert second.accepted and second.in_bound
        assert report.invariant_violations == 1
        assert report.group["order"] == 2


class TestComponentStructure:
    def test_klein_components(self, klein):
        comps = component_structure(klein)
        assert len(comps) == 12
        sizes = sorted(len(orbit) for orbit, _, _ in comps)
        assert sizes == [1, 1, 1, 2, 2, 2, 2, 2, 2, 4, 4, 4]
        labels = sorted(label for _, _, label in comps)
        assert labels.count("[K4/C2]") == 6
        assert labels.count("[K4/e]") == 3
        assert labels.count("[K4/K4]") == 3
        for orbit, stab, _ in comps:
            assert len(orbit) * stab == klein.order

    def test_one_stabilizer_per_distinct_row_set(self, klein, monkeypatch):
        # the three fixed lines share K4, the six pairs one C2, and the
        # three four-line orbits the trivial group: 3 stabilizers, not 12
        real, built = perm.pointwise_stabilizer, []

        def spy(group, points):
            stab = real(group, points)
            built.append(stab)
            return stab

        monkeypatch.setattr(perm, "pointwise_stabilizer", spy)
        assert len(component_structure(klein)) == 12
        assert len(built) == len(set(built)) == 3

    # S4 x K4, the normalizer of S4, has two orbits whose stabilizers both
    # have order 8 but are not isomorphic (D8 and an unrecognized H8)
    @pytest.mark.parametrize("name", ["klein", "s4", "w_a5", "other_s6", "normalizer_of_s4"])
    def test_matches_a_stabilizer_per_orbit(self, request, weyl, s4, name):
        # oracle: each orbit's stabilizer built and named on its own
        group = perm.normalizer(weyl, s4) if name == "normalizer_of_s4" else request.getfixturevalue(name)
        g_name = perm.identify(fingerprint(group))
        g_name = f"G{group.order}" if g_name == "unrecognized" else g_name
        expected = []
        for orbit in orbits(group):
            stab = perm.pointwise_stabilizer(group, orbit[:1])
            h_name = perm.identify(fingerprint(stab))
            h_name = {"trivial": "e", "unrecognized": f"H{stab.order}"}.get(h_name, h_name)
            expected.append((orbit, stab.order, f"[{g_name}/{h_name}]"))
        assert component_structure(group) == expected

    def test_trivial_group_components(self):
        from cubic27.perm import IDENTITY

        comps = component_structure(generate([IDENTITY]))
        assert len(comps) == 27

    def test_s4_components(self, s4):
        comps = component_structure(s4)
        assert sorted(len(orbit) for orbit, _, _ in comps) == [3, 12, 12]
        assert sorted(stab for _, stab, _ in comps) == [2, 2, 8]
        labels = sorted(label for _, _, label in comps)
        assert labels == ["[S4/C2]", "[S4/C2]", "[S4/D8]"]


def _twist(six):
    """c, the reflection in 2h - e1 - ... - e6, through the marking by six."""
    root = (2, -1, -1, -1, -1, -1, -1)
    (row,) = lattice._reflection_rows(lattice.marking_vectors(six)[None], [root])[0]
    return perm._from_row(row.tolist())


class TestOtherS6:
    def test_order_and_orbits(self, other_s6):
        assert other_s6.order == 720
        assert sorted(len(o) for o in orbits(other_s6)) == [12, 15]

    def test_not_conjugate_to_reflection_copy(self, other_s6, w_a5):
        assert sorted(len(o) for o in orbits(other_s6)) != sorted(
            len(o) for o in orbits(w_a5)
        )

    def test_s4_subconjugate(self, weyl, s4, other_s6):
        found, _ = is_subconjugate(weyl, s4, other_s6)
        assert found

    def test_fingerprint_is_s6(self, other_s6, w_a5):
        assert fingerprint(other_s6) == fingerprint(w_a5)

    def test_twist_commutes_and_lies_outside(self, other_s6):
        # c, the reflection in 2h - e1 - ... - e6, commutes with s1..s5 and is
        # not in <s_i c>, so s_i -> s_i c extends to an isomorphism
        six = fermat_data.PRESENTATION_SIX
        s = lattice.weyl_presentation_from_six(six)[1:]
        c = _twist(six)
        assert not c.is_identity() and c.order() == 2
        assert all(g * c == c * g for g in s)
        assert c not in other_s6
        assert all(g * c in other_s6 for g in s)

    def test_written_down_equals_the_closure(self, other_s6):
        six = fermat_data.PRESENTATION_SIX
        s = lattice.weyl_presentation_from_six(six)[1:]
        c = _twist(six)
        assert other_s6.generators == tuple(g * c for g in s)
        assert other_s6 == generate([g * c for g in s])

    def test_non_reflection_witness_pinned(self):
        # the lexicographically smallest witness depends only on the group
        claim = _claim_non_reflection()
        assert claim.passed
        assert claim.details["other_s6_fingerprint_is_s6"] is True
        assert claim.details["witness"] == (
            "(1,5,14)(2,6,18)(3,7,15)(4,8,19)(9,24,13)(10,20,22)(11,21,23)(12,17,16)(25,26,27)"
        )


class TestExceptionalIsomorphism:
    """exceptional-isomorphism images W(A5) only; the orders of W(E6)'s
    image follow from the normal subgroups of W(E6)."""

    def test_orders_agree_with_the_exhaustive_image(self, reduction, marking, weyl):
        claim = monodromy._claim_exceptional_isomorphism()
        projective, signed = lattice.build_po_group(reduction, marking, weyl)
        assert claim.passed
        assert claim.details["projective_image_order"] == len(projective) == 51840
        assert claim.details["pre_projectivization_order"] == signed == 103680

    def test_a_non_injective_w_a5_image_breaks_the_claim(self, monkeypatch):
        real, seen = lattice.build_po_group, []

        def one_code_lost(red, v, group):
            projective, signed = real(red, v, group)
            seen.append(len(projective) - 1)
            return projective[:-1], signed - 2

        monkeypatch.setattr(lattice, "build_po_group", one_code_lost)
        claim = monodromy._claim_exceptional_isomorphism()
        assert seen == [719]
        assert not claim.passed
        assert claim.details["projective_image_order"] == 0
        assert claim.details["pre_projectivization_order"] == 0
        assert claim.details["injective"] is False
        assert claim.details["homomorphism_spot_check"] is True


class TestPreferredDoubleSix:
    """preferred-double-six writes its W(A5) and the order-1440 group down
    from tables; the closures of their generators are the oracles."""

    @pytest.fixture(scope="class")
    def preferred(self):
        claim = monodromy._claim_preferred_double_six()
        assert claim.passed
        return tuple(claim.details["preferred_six"])

    def test_w_a5_equals_the_closure(self, weyl, preferred):
        gens = lattice.weyl_presentation_from_six(preferred)[1:]
        w_a5 = monodromy._six_w_a5(weyl, preferred)
        assert list(w_a5.generators) == gens  # the six's presentation reflections
        assert w_a5 == generate(gens)

    def test_order_1440_group_equals_the_closure(self, weyl, preferred):
        w_a5 = monodromy._six_w_a5(weyl, preferred)
        cent = perm.centralizer(weyl, w_a5)
        maximal = monodromy._times_centralizer(w_a5, cent)
        assert cent.order == 2 and maximal.order == 1440
        assert maximal == generate(list(w_a5.generators) + list(cent.generators))

    def test_a_subgroup_inside_its_centralizer_is_rejected(self, weyl, klein):
        # an abelian group lies in its own centralizer: the products repeat
        with pytest.raises(ValueError, match="repeats a row"):
            monodromy._times_centralizer(klein, perm.centralizer(weyl, klein))


class TestPresentationOrder:
    """``full_presentation_order`` comes from membership, the Coxeter
    relations and a non-commuting pair, not from a closure."""

    def claim_with(self, monkeypatch, gens):
        """The claim with the reference six's presentation replaced."""
        monodromy._presentation_w_a5()  # cached before the patch
        monkeypatch.setattr(monodromy, "_reference_presentation", lambda: tuple(gens))
        return _claim_presentation_and_double_sixes()

    def test_order_agrees_with_the_closure(self):
        gens = lattice.weyl_presentation_from_six(fermat_data.PRESENTATION_SIX)
        claim = _claim_presentation_and_double_sixes()
        assert claim.passed
        assert claim.details["full_presentation_order"] == generate(gens).order == 51840

    def test_exact_claims_close_no_weyl_group(self, monkeypatch):
        for setup in (lines.weyl_group, lines.s4_group, monodromy._presentation_w_a5):
            setup()
        real, closed = perm.generate, []

        def spy(gens, cap=200_000):
            group = real(gens, cap)
            closed.append(group.order)
            return group

        monkeypatch.setattr(perm, "generate", spy)
        assert monodromy.verify_claims(seed=1, include_monodromy=False).all_passed()
        # the claims close the order-16 group and its Klein factors; the S6s
        # and the order-1440 group are written down from tables
        assert closed and max(closed) <= 16

    def test_a_non_member_breaks_the_claim(self, monkeypatch, weyl):
        gens = lattice.weyl_presentation_from_six(fermat_data.PRESENTATION_SIX)
        outside = parse_cycles("(1,2)")
        assert outside not in weyl
        claim = self.claim_with(monkeypatch, [outside] + gens[1:])
        assert not claim.passed and claim.details["full_presentation_order"] == 0

    def test_a_conjugate_outside_the_weyl_group_breaks_the_claim(self, monkeypatch, weyl):
        # conjugating by (1,2) keeps the Coxeter relations and the
        # non-commuting pairs; only membership fails
        gens = lattice.weyl_presentation_from_six(fermat_data.PRESENTATION_SIX)
        swap = parse_cycles("(1,2)")
        moved = [swap * g * swap for g in gens]
        assert not all(g in weyl for g in moved)
        claim = self.claim_with(monkeypatch, moved)
        assert claim.details["coxeter_relations_reference"]
        assert not claim.passed and claim.details["full_presentation_order"] == 0

    def test_commuting_involutions_break_the_claim(self, monkeypatch, weyl):
        involutions = [p for p in _order16_group() if not p.is_identity()][:6]
        assert all(p in weyl and p.order() == 2 for p in involutions)
        assert all(a * b == b * a for a in involutions for b in involutions)
        claim = self.claim_with(monkeypatch, involutions)
        assert not claim.passed and claim.details["full_presentation_order"] == 0


class TestPresentationsOffTheTable:
    """presentation-double-sixes reads s0..s5 of every six and partner off
    ``lines.double_six_reflections``; the markings are the oracle."""

    HALVES = list(lines.skew_sixes()) + [partner for _, partner in lines.double_sixes()]

    def lookups(self, table):
        return monodromy._presentations_off_table(table, np.array(self.HALVES) - 1)

    def test_lookups_equal_the_lattice_presentations(self):
        rows, found = self.lookups(lines.double_six_reflections())
        assert found.all()
        assert np.array_equal(rows, lattice.presentations(self.HALVES))

    def test_a_lookup_that_hits_no_row_is_rejected(self):
        # without row 0 the sixes that need it find no row; argmax would
        # read the first remaining row for them
        table = lines.double_six_reflections()
        rows, found = self.lookups(table)
        needs = (rows == table[0]).all(axis=2).any(axis=1)
        assert needs.any() and not needs.all()
        _, found = self.lookups(table[1:])
        assert np.array_equal(found, ~needs)

    def test_a_lookup_that_hits_two_rows_is_rejected(self):
        table = lines.double_six_reflections()
        rows, _ = self.lookups(table)
        needs = (rows == table[0]).all(axis=2).any(axis=1)
        _, found = self.lookups(np.concatenate([table, table[:1]]))
        assert np.array_equal(found, ~needs)

    def test_a_six_that_is_not_skew_is_rejected(self):
        meeting = [int(np.flatnonzero(lines.incidence_graph()[0])[0]) + 1]
        six = [1] + meeting + list(lines.skew_sixes()[0][2:])
        _, found = monodromy._presentations_off_table(lines.double_six_reflections(), np.array([six]) - 1)
        assert not found[0]

    def test_a_row_with_two_entries_swapped_breaks_the_claim(self, monkeypatch):
        table = lines.double_six_reflections().copy()
        table[5, [0, 1]] = table[5, [1, 0]]
        monkeypatch.setattr(lines, "double_six_reflections", lambda: table)
        claim = _claim_presentation_and_double_sixes()
        assert not claim.passed
        assert claim.details["partner_pairing_consistent"] is False

    def test_a_table_the_lattice_disagrees_with_breaks_the_claim(self, monkeypatch):
        # the lookups still hit one row each; only the set compare with the
        # lattice reflections, here in 35 of the 36 roots, can fail
        real = lattice.positive_roots
        monkeypatch.setattr(lattice, "positive_roots", lambda: real()[:-1] + real()[:1])
        claim = _claim_presentation_and_double_sixes()
        assert not claim.passed
        assert claim.details["partner_pairing_consistent"] is False
        assert claim.details["coxeter_relations_10_random_sixes"] is True

    def test_a_failed_lookup_breaks_the_claim(self, monkeypatch):
        real = monodromy._presentations_off_table

        def one_lost(table, sixes):
            rows, found = real(table, sixes)
            return rows, np.concatenate([[False], found[1:]])

        monkeypatch.setattr(monodromy, "_presentations_off_table", one_lost)
        claim = _claim_presentation_and_double_sixes()
        assert not claim.passed
        assert claim.details["partner_pairing_consistent"] is False

    def test_a_sampled_six_the_lattice_disagrees_with_breaks_the_claim(self, monkeypatch):
        real = lattice.presentations
        monkeypatch.setattr(lattice, "presentations", lambda sixes: real(sixes)[:, ::-1])
        claim = _claim_presentation_and_double_sixes()
        assert not claim.passed
        assert claim.details["coxeter_relations_10_random_sixes"] is False

    def test_the_reference_presentation_is_built_once(self, monkeypatch):
        # fresh caches, so that the exact pass builds it under the spy
        for name in ("_reference_presentation", "_presentation_w_a5"):
            monkeypatch.setattr(monodromy, name, lru_cache(maxsize=1)(getattr(monodromy, name).__wrapped__))
        real, calls = lattice.weyl_presentation_from_six, []

        def spy(six):
            calls.append(tuple(six))
            return real(six)

        monkeypatch.setattr(lattice, "weyl_presentation_from_six", spy)
        assert monodromy.verify_claims(seed=1, include_monodromy=False).all_passed()
        assert calls == [fermat_data.PRESENTATION_SIX]


class TestWeylReconstruction:
    """weyl-reconstruction counts: the automorphism table's order against the
    order the reference presentation generates, with no closure and no
    search."""

    def test_counts_agree_with_the_closures(self, weyl):
        gens = lattice.weyl_presentation_from_six(fermat_data.PRESENTATION_SIX)
        claim = _claim_weyl_reconstruction()
        assert claim.passed
        assert claim.details == {
            "generated_order": generate(gens).order,
            "automorphism_count": generate(lines.weyl_generators()).order,
            "element_sets_equal": generate(gens) == weyl,
        }
        assert claim.details["generated_order"] == 51840

    def test_a_non_member_breaks_the_claim(self, monkeypatch):
        gens = lattice.weyl_presentation_from_six(fermat_data.PRESENTATION_SIX)
        moved = [perm.parse_cycles("(1,2)")] + gens[1:]
        monkeypatch.setattr(monodromy, "_reference_presentation", lambda: tuple(moved))
        claim = _claim_weyl_reconstruction()
        assert not claim.passed
        assert claim.details == {"generated_order": 0, "automorphism_count": 51840, "element_sets_equal": False}

    def test_set_up_and_exact_claims_close_no_weyl_group(self, monkeypatch):
        # fresh caches for set-up, so that it runs under the spies; the
        # session's cached groups come back when the patches are undone
        for module, name in ((lines, "weyl_group"), (lines, "s4_group"), (monodromy, "_presentation_w_a5")):
            monkeypatch.setattr(module, name, lru_cache(maxsize=1)(getattr(module, name).__wrapped__))
        closures, generated = [], []

        class Spy(perm.Closure):
            def add(self, row):
                grown = super().add(row)
                closures.append(len(self.table))
                return grown

        real = perm.generate

        def spy(gens, cap=200_000):
            group = real(gens, cap)
            generated.append(group.order)
            return group

        monkeypatch.setattr(perm, "Closure", Spy)
        monkeypatch.setattr(perm, "generate", spy)
        monkeypatch.setattr(lines, "generate", spy)
        lines.fermat_catalog()
        lines.incidence_graph()
        assert lines.weyl_group().order == 51840
        lines.s4_group()
        assert monodromy.verify_claims(seed=1, include_monodromy=False).all_passed()
        assert 24 in generated and 720 in generated  # S4 in set-up, the other S6 in the claims
        assert 720 in closures
        assert 51840 not in generated and 51840 not in closures


_EXACT_CLAIMS = (
    "_claim_weyl_reconstruction",
    "_claim_s4_action",
    "_claim_subgroup_ladder",
    "_claim_exceptional_isomorphism",
    "_claim_presentation_and_double_sixes",
    "_claim_non_reflection",
    "_claim_preferred_double_six",
    "_claim_exact_identities",
    "_claim_component_structure",
)


class TestExactClaimMemory:
    """No exact claim allocates more than 1.5 MiB at a time beyond the state
    every command shares: the claims run inside a process whose peak resident
    memory is that state plus the largest of these peaks."""

    @pytest.mark.parametrize("name", _EXACT_CLAIMS)
    def test_traced_peak_above_start(self, name):
        claim = getattr(monodromy, name)
        lines.weyl_group()
        lines.s4_group()
        claim()  # fills the caches the claim shares with the others
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            claim()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 1.5 * 2**20, f"{name} peaks {(peak - start) / 2**20:.2f} MiB above its start"


class TestFaultIsolation:
    def test_corrupted_generator_breaks_only_group_claims(self):
        # corrupting one generator string destroys the Weyl reconstruction
        # (wrong order, or a closure blowing the safety cap) while the exact
        # polynomial identities are unaffected
        from cubic27 import symverify
        from cubic27.perm import GroupGenerationError

        good = [parse_cycles(s) for s in fermat_data.WEYL_GENERATOR_CYCLES]
        corrupted = good[:5] + [parse_cycles("(1,2)(3,4)")]
        try:
            order = generate(corrupted).order
        except GroupGenerationError:
            order = None
        assert order != 51840
        assert all(r.passed for r in symverify.run_all_checks())
