from itertools import permutations

import numpy as np
import pytest

from cubic27 import fermat_data, lattice, lines
from cubic27.htrack import CubicForm, MONOMIAL_EXPONENTS
from cubic27.monodromy import (
    FamilyKind,
    FamilySpec,
    Loop,
    SingularBasepoint,
    _claim_non_reflection,
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
)
from cubic27.htrack import line_distance, residual
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
        assert spec.parameter_dim() == 3
        assert np.array_equal(spec.basepoint_params(), np.array([1, 0, 0], dtype=complex))

    def test_full_parameters(self):
        spec = full_family()
        assert spec.parameter_dim() == 20
        assert np.array_equal(spec.basepoint_params(), fermat_form().coeffs)

    def test_symmetric_custom_basepoint_roundtrip(self):
        spec = FamilySpec(kind=FamilyKind.SYMMETRIC, basepoint=embed_symmetric(1, 0.5j, -2))
        assert np.allclose(spec.basepoint_params(), [1, 0.5j, -2])

    def test_asymmetric_basepoint_rejected_for_symmetric_family(self):
        coeffs = fermat_form().coeffs.copy()
        coeffs[MONOMIAL_EXPONENTS.index((2, 1, 0, 0))] = 1.0  # break the symmetry
        with pytest.raises(ValueError):
            FamilySpec(kind=FamilyKind.SYMMETRIC, basepoint=CubicForm(coeffs)).basepoint_params()

    def test_slice_family(self):
        spec = FamilySpec(
            kind=FamilyKind.SLICE,
            directions=(cayley_form(),),
        )
        assert spec.parameter_dim() == 1
        f = spec.form_at([0.25])
        assert np.allclose(f.coeffs, fermat_form().coeffs + 0.25 * cayley_form().coeffs)


class TestBasepointFiber:
    def test_fermat_matches_catalog_exactly(self):
        fiber = basepoint_fiber(symmetric_family())
        cat = lines.fermat_catalog()
        for numeric, exact in zip(fiber, cat):
            embedded = [[x.to_complex() for x in row] for row in exact.span]
            assert line_distance(numeric, np.array(embedded)) < 1e-12

    def test_perturbed_basepoint_keeps_labels(self):
        spec = FamilySpec(kind=FamilyKind.FULL, basepoint=embed_symmetric(1, 0.02, -0.01j))
        fiber = basepoint_fiber(spec)
        assert len(fiber) == 27

    def test_near_fermat_basepoint_is_refined(self):
        # a basepoint within 1e-5 relative of Fermat is not Fermat: its lines
        # must be Newton-refined, not the raw catalog
        coeffs = fermat_form().coeffs.copy()
        coeffs[MONOMIAL_EXPONENTS.index((3, 0, 0, 0))] *= 1 + 1e-7
        base = CubicForm(coeffs)
        fiber = basepoint_fiber(FamilySpec(kind=FamilyKind.FULL, basepoint=base))
        raw = [np.abs(residual(base, line)).max() for line in basepoint_fiber(full_family())]
        assert max(raw) > 1e-9
        assert max(np.abs(residual(base, line)).max() for line in fiber) < 1e-10

    def test_cayley_basepoint_rejected(self):
        spec = FamilySpec(kind=FamilyKind.FULL, basepoint=cayley_form())
        with pytest.raises(SingularBasepoint):
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
        loop = circle_loop(spec, (1, 0, -1), radius=0.1, segments=8)
        assert loop.kind == "circle"
        assert len(loop.vertices) == 11  # base + 8 ring + ring[0] + base
        assert np.array_equal(loop.vertices[0].coeffs, loop.vertices[-1].coeffs)

    def test_open_loop_rejected(self):
        with pytest.raises(ValueError):
            Loop(kind="bad", vertices=(fermat_form(), cayley_form()))

    def test_probe_locates_crossing_on_cayley_segment(self):
        # the Fermat-to-Cayley segment meets the discriminant at t = 3/4
        spec = symmetric_family()
        t_star = probe_discriminant(spec, (-1, 0, 1), t_max=1.0)
        assert t_star is not None
        assert abs(t_star - 0.75) < 0.05

    def test_probe_circle_yields_nontrivial_permutation(self):
        from cubic27.htrack import revalidate, track_loop

        spec = symmetric_family()
        t_star = probe_discriminant(spec, (-1, 0, 1), t_max=1.0)
        center = np.array([1, 0, 0], dtype=complex) + t_star * np.array([-1, 0, 1])
        loop = circle_loop(spec, center, radius=0.05)
        fiber = basepoint_fiber(spec)
        perm = track_loop(loop.vertices, fiber)
        assert not perm.is_identity()
        assert format_cycles(perm) in expected_symmetric_monodromy()
        assert revalidate(loop.vertices, perm, fiber)


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
        assert all(r.fixes_tritangent for r in accepted)
        assert all(r.centralizes_s4 for r in accepted)
        assert all(r.in_order16 for r in accepted)
        assert all(r.in_weyl_group for r in accepted)

    def test_first_loops_pinned_at_seed_1(self, symmetric_report):
        # a tracker change that moves a discriminant probe or flips a loop
        # permutation shows up here, at no cost beyond the shared fixture
        tau = "(13,23)(14,19)(15,18)(16,22)(17,24)(20,21)"
        sigma = "(1,2)(3,4)(5,6)(7,8)(9,10)(11,12)(13,16)(14,15)(17,20)(18,19)(21,24)(22,23)"
        expected = [
            ("triangle", "()", None),
            ("circle", tau, 0.3369140625),
            ("triangle", "()", None),
            ("circle", "()", 2.2392578125),
            ("triangle", "()", None),
            ("circle", tau, 0.3232421875),
            ("triangle", "()", None),
            ("circle", sigma, 2.2685546875),
        ]
        got = [
            (r.kind, r.permutation, r.meta.get("probe_t"))
            for r in symmetric_report.loops[:8]
        ]
        assert got == expected
        assert all(r.accepted for r in symmetric_report.loops[:8])

    def test_full_family_reaches_weyl_group(self, full_report):
        assert full_report.group["order"] == 51840
        accepted = [r for r in full_report.loops if r.accepted]
        assert all(r.in_weyl_group for r in accepted)
        assert full_report.invariant_violations == 0

    def test_deterministic_reports(self):
        a = compute_monodromy(symmetric_family(), strategy="random", budget=3, seed=9, stall_threshold=2)
        b = compute_monodromy(symmetric_family(), strategy="random", budget=3, seed=9, stall_threshold=2)
        assert a.to_dict() == b.to_dict()

    def test_group_contained_in_expected_klein(self):
        report = compute_monodromy(symmetric_family(), budget=6, seed=4, stall_threshold=3)
        assert set(report.group_elements) <= expected_symmetric_monodromy()

    def test_slice_family_stays_in_klein_group(self):
        # a two-direction slice through the symmetric plane behaves like the
        # symmetric family and passes the same structural gates
        spec = FamilySpec(
            kind=FamilyKind.SLICE,
            directions=(embed_symmetric(0, 1, 0), embed_symmetric(0, 0, 1)),
        )
        report = compute_monodromy(spec, budget=6, seed=2, stall_threshold=3, scale=0.9)
        assert report.invariant_violations == 0
        assert set(report.group_elements) <= expected_symmetric_monodromy()

    def test_expected_group_is_the_s4_centralizer(self, weyl, s4, klein):
        from cubic27.perm import centralizer

        assert klein.elements == centralizer(weyl, s4).elements
        assert expected_symmetric_monodromy() == {
            format_cycles(p) for p in klein.elements
        }


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
        c = lattice.reflection_permutation(
            lattice.marking_vectors(six), (2, -1, -1, -1, -1, -1, -1)
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
