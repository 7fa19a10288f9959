import hashlib
import json
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, cycle, permutations

import numpy as np
import pytest
import sympy

from cubic27 import fermat_data, htrack, lattice, lines, monodromy, perm
from cubic27.cli import main
from cubic27.exact import symmetric_basis
from cubic27.htrack import CubicForm, MONOMIAL_EXPONENTS
from cubic27.monodromy import (
    Loop,
    SingularBasepoint,
    _claim_monodromy,
    _claim_non_reflection,
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
from cubic27.htrack import TrackerConfig, line_distance, match_to_base, residual
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
            embedded = [[x.to_complex() for x in row] for row in exact.span]
            assert line_distance(numeric, np.array(embedded)) < 1e-12

    def test_perturbed_basepoint_keeps_labels(self):
        spec = replace(full_family(), base=embed_symmetric(1, 0.02, -0.01j).coeffs)
        fiber = basepoint_fiber(spec)
        assert fiber.mats.shape == (27, 2, 4)
        fermat = basepoint_fiber(full_family())
        assert match_to_base(fiber, fermat, TrackerConfig()).is_identity()

    def test_near_fermat_basepoint_is_refined(self):
        # a basepoint within 1e-5 relative of Fermat is not Fermat: its lines
        # must be Newton-refined, not the raw catalog
        coeffs = fermat_form().coeffs.copy()
        coeffs[MONOMIAL_EXPONENTS.index((3, 0, 0, 0))] *= 1 + 1e-7
        base = CubicForm(coeffs)
        fiber = basepoint_fiber(replace(full_family(), base=coeffs))
        raw = np.abs(residual(base, basepoint_fiber(full_family()).mats)).max()
        assert raw > 1e-9
        assert np.abs(residual(base, fiber.mats)).max() < 1e-10

    def test_cayley_basepoint_rejected(self):
        # the four-node surface carries 9 lines, so refined lines coincide
        spec = replace(full_family(), base=cayley_form().coeffs)
        with pytest.raises(SingularBasepoint, match="not separable"):
            basepoint_fiber(spec)

    def test_far_basepoint_fails_newton(self):
        # the catalog is too far from the lines of m21 for Newton to converge
        spec = replace(symmetric_family(), base=(0, 1, 0))
        with pytest.raises(SingularBasepoint, match="Newton-refine") as info:
            basepoint_fiber(spec)
        assert isinstance(info.value.__cause__, htrack.NewtonFailure)

    def test_fermat_fiber_is_shared_and_read_only(self):
        fiber = basepoint_fiber(symmetric_family())
        assert basepoint_fiber(full_family()) is fiber
        with pytest.raises(ValueError):
            fiber.mats[0, 0, 0] = 0

    @pytest.mark.parametrize(
        "move, reason",
        [
            (lambda mats: mats[[0, 0] + list(range(2, 27))], "not separable"),
            (lambda mats: mats[[1, 0] + list(range(2, 27))], "do not preserve catalog labels"),
            (
                lambda mats: np.concatenate((mats[1:2] + [[0.05], [0]], mats[1:])),
                "do not preserve catalog labels",
            ),
        ],
        ids=["coincident", "swapped", "near_another"],
    )
    def test_refinement_failures_are_singular_basepoints(self, monkeypatch, move, reason):
        # a refinement that lands two lines on one, swaps two labels, or
        # leaves two lines nearest one catalog line (an ambiguous match)
        newton = htrack._newton_batch

        def stub(*args):
            mats, norms, last, iters = newton(*args)
            return move(mats), norms, last, iters

        monkeypatch.setattr(htrack, "_newton_batch", stub)
        spec = replace(full_family(), base=embed_symmetric(1, 0.02, -0.01j).coeffs)
        with pytest.raises(SingularBasepoint, match=reason):
            basepoint_fiber(spec)


class TestLoops:
    def test_random_loop_closed_and_symmetric(self):
        spec = symmetric_family()
        rng = np.random.default_rng(3)
        loop = random_loop(spec, rng, scale=0.5)
        assert np.array_equal(loop.vertices[0].coeffs, loop.vertices[-1].coeffs)
        sym_basis = np.stack(
            [embed_symmetric(1, 0, 0).coeffs, embed_symmetric(0, 1, 0).coeffs, embed_symmetric(0, 0, 1).coeffs]
        )
        for vertex in loop.vertices:
            # every vertex lies in the span of the symmetric basis
            sol, *_ = np.linalg.lstsq(sym_basis.T, vertex.coeffs, rcond=None)
            assert np.linalg.norm(sym_basis.T @ sol - vertex.coeffs) < 1e-12

    def test_circle_loop_shape(self):
        spec = symmetric_family()
        loop = circle_loop(spec, (1, 0, -1), radius=0.1)
        assert loop.kind == "circle"
        assert len(loop.vertices) == 19  # base + 16 ring + ring[0] + base
        assert np.array_equal(loop.vertices[0].coeffs, loop.vertices[-1].coeffs)

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
        perm = track_loop(loop.vertices, fiber)
        assert not perm.is_identity()
        assert format_cycles(perm) in expected_symmetric_monodromy()
        assert revalidate(loop.vertices, perm, fiber)


COMPONENTS = monodromy._SYMMETRIC_NODAL_COMPONENTS


def _value(form, a, b, c):
    """A component of the symmetric discriminant at (a, b, c), exactly."""
    return sum(
        coeff * Fraction(a) ** i * Fraction(b) ** j * Fraction(c) ** k
        for (i, j, k), coeff in form.items()
    )


def _symmetric_cubic(a, b, c):
    m3, m21, m111 = symmetric_basis()
    return m3.scale(a) + m21.scale(b) + m111.scale(c)


def _singular_at(form, point) -> bool:
    return all(g.evaluate(point).is_zero() for g in form.gradient())


class TestSymmetricDiscriminant:
    """The nodal components L1, L2 and C, checked in exact arithmetic."""

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
    def test_l2_nodes_on_the_orbit_of_1_1_m1_m1(self, a, b):
        f = _symmetric_cubic(*self.on_line("L2", a, b))
        for point in [(1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)]:
            assert _singular_at(f, point)
        assert not _singular_at(f, (1, 1, 1, 1))

    @pytest.mark.parametrize(
        "point",
        [(s, 1, 1, 1) for s in (0, 2, -3, Fraction(1, 2), Fraction(-2, 3), 5)] + [(1, 0, 0, 0)],
    )
    def test_node_on_the_orbit_of_s_1_1_1_lies_on_c(self, point):
        # the gradient at (s, 1, 1, 1) is linear in (a, b, c), and by symmetry
        # its last three entries agree: (a : b : c) is the cross product of
        # the first two rows.  (1, 0, 0, 0) is the limit s -> infinity.
        rows = [[g.gradient()[i].evaluate(point) for g in symmetric_basis()] for i in (0, 1)]
        assert all(x.is_rational() for row in rows for x in row)
        (u0, u1, u2), (v0, v1, v2) = [[x.a for x in row] for row in rows]
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

        def to_sympy(poly):
            assert all(coeff.b == 0 for coeff in poly.terms.values())
            return sum(
                sympy.Rational(coeff.a.numerator, coeff.a.denominator)
                * sympy.Mul(*(xi**e for xi, e in zip(x, expo)))
                for expo, coeff in poly.terms.items()
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
        # probe_t is the exact crossing: on L1 for loops 1 and 5, on L2 for
        # loops 3 and 7 (roots computed to 50 digits)
        tau = "(13,23)(14,19)(15,18)(16,22)(17,24)(20,21)"
        sigma = "(1,2)(3,4)(5,6)(7,8)(9,10)(11,12)(13,16)(14,15)(17,20)(18,19)(21,24)(22,23)"
        expected = [
            ("triangle", "()", None),
            ("circle", tau, 0.3369615512091526),
            ("triangle", "()", None),
            ("circle", "()", 2.239017020256561),
            ("triangle", "()", None),
            ("circle", tau, 0.3225881168722842),
            ("triangle", "()", None),
            ("circle", sigma, 2.2687687563524666),
        ]
        loops = symmetric_report.loops[:8]
        assert [(r.kind, r.permutation) for r in loops] == [e[:2] for e in expected]
        for r, (_, _, t) in zip(loops, expected):
            assert r.meta.get("probe_t") == (None if t is None else pytest.approx(t, rel=1e-12))
        assert all(r.accepted for r in loops)

    def test_symmetric_eight_loops_track_160_segments(self, monkeypatch):
        # 4 triangles of 3 edges and 4 meridians of 17 (the return leg of
        # the 18 is read off the stem), each tracked and revalidated
        calls = []
        original = htrack.track_segment

        def spy(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(htrack, "track_segment", spy)
        report = compute_monodromy(symmetric_family(), 8, seed=1)
        assert [r.kind for r in report.loops] == ["triangle", "circle"] * 4
        assert len(calls) == 160

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
        # (23 triangles, all accepted): tracker changes must keep every loop
        records = [[r.kind, r.permutation, r.accepted] for r in full_report.loops]
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == "666239b676f2b1c27dabd43fbfe65256f42cc66050a46cd277d7ea1075efa8e8"

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


class TestUpperBoundVerdict:
    """The acceptance rule and the verdict, with the tracker stubbed out: the
    symmetric family's basepoint fiber is the catalog, and with every probe
    finding nothing each loop is a triangle built without tracking, so the
    stub decides every permutation."""

    TAU = "(13,23)(14,19)(15,18)(16,22)(17,24)(20,21)"

    def run(self, monkeypatch, cycles, budget=40):
        perms = cycle([parse_cycles(c) for c in cycles])
        monkeypatch.setattr(htrack, "track_loop", lambda *a, **k: next(perms))
        monkeypatch.setattr(htrack, "revalidate", lambda *a, **k: True)
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
        (c,) = lattice.reflection_permutations(
            lattice.marking_vectors(six), [(2, -1, -1, -1, -1, -1, -1)]
        )
        assert not c.is_identity() and c.order() == 2
        assert all(g * c == c * g for g in s)
        assert c not in other_s6
        assert all(g * c in other_s6 for g in s)

    def test_non_reflection_witness_pinned(self):
        # the lexicographically smallest witness depends only on the group
        claim = _claim_non_reflection()
        assert claim.passed
        assert claim.details["other_s6_fingerprint_is_s6"] is True
        assert claim.details["witness"] == (
            "(1,5,14)(2,6,18)(3,7,15)(4,8,19)(9,24,13)(10,20,22)(11,21,23)(12,17,16)(25,26,27)"
        )


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
