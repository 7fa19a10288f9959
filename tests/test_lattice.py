import dataclasses
import random
from itertools import combinations, product

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from cubic27 import fermat_data, lattice, lines
from cubic27.lattice import (
    CANONICAL_CLASS,
    build_po_group,
    cartan_matrix,
    coxeter_exponents,
    extend_to_lattice_automorphism,
    images_in_po,
    po_image,
    preserves_q5,
    q_form,
    reflect,
    restrict_to_root_coords,
    simple_roots,
    weyl_presentation_from_six,
    _canonical_sign,
)
from cubic27.perm import Permutation, compose, generate, orbits, parse_cycles

E6_CARTAN = [
    [2, 0, 0, -1, 0, 0],
    [0, 2, -1, 0, 0, 0],
    [0, -1, 2, -1, 0, 0],
    [-1, 0, -1, 2, -1, 0],
    [0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, -1, 2],
]


class TestForm:
    def test_basic_values(self):
        h = _unit(0)
        assert q_form(h, h) == 1
        assert q_form(_unit(1), _unit(1)) == -1
        assert q_form(h, _unit(1)) == 0

    def test_reflection_is_involution(self, marking):
        rng = random.Random(9)
        for root in simple_roots():
            for _ in range(10):
                x = tuple(rng.randint(-4, 4) for _ in range(7))
                assert reflect(reflect(x, root), root) == x
        for p in _reflections(marking, simple_roots()):
            assert p.order() == 2

    def test_stacked_reflections_match_one_root_at_a_time(self, marking):
        # oracle: reflect each line class with the scalar reflect and look
        # its image up among the rows
        roots = simple_roots() + [(2, -1, -1, -1, -1, -1, -1)]
        index = {tuple(row): k for k, row in enumerate(marking.tolist(), start=1)}
        stacked = _reflections(marking, roots)
        assert len(stacked) == len(roots)
        for root, p in zip(roots, stacked):
            images = [index[reflect(row, root)] for row in marking.tolist()]
            assert p == Permutation(images)
            assert _reflections(marking, [root]) == [p]

    def test_reflection_moves_basis_vector(self):
        root = tuple(a - b for a, b in zip(_unit(1), _unit(2)))
        assert reflect(_unit(1), root) == _unit(2)

    def test_non_root_rejected(self, marking):
        with pytest.raises(ValueError):
            reflect(_unit(1), _unit(1))
        with pytest.raises(ValueError):
            _reflections(marking, [_unit(1)])
        with pytest.raises(ValueError):  # one bad root in the stack
            _reflections(marking, simple_roots() + [_unit(1)])

    def test_root_moving_a_line_off_the_classes_rejected(self, marking):
        # e1 + e2 is a root (Q = -2) but not orthogonal to K: its reflection
        # sends e1 to -e2, no line class
        root = (0, 1, 1, 0, 0, 0, 0)
        assert q_form(root, root) == -2 and reflect(_unit(1), root) == (0, 0, -1, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="does not permute the line classes"):
            _reflections(marking, [root])

    def test_root_with_images_past_int8_rejected(self, marking):
        root = (10, 10, 1, 1, 0, 0, 0)
        assert q_form(root, root) == -2
        with pytest.raises(ValueError, match="does not permute the line classes"):
            _reflections(marking, [root])

    @pytest.mark.parametrize(
        "altered",
        [(0, 0, 1, 0, 0, 0, -1), (0, 4, 0, 0, 0, 0, 0)],
        ids=["missing", "same key as e2"],
    )
    def test_altered_class_matches_no_row(self, marking, altered):
        # the reflection in e1 - e2 sends e1 to e2; with e2's row altered, e2
        # is in no row of the second marking, though it is in the first
        # marking's rows, and (0, 4, 0, ...) has e2's key but not its entries
        stack = np.stack([marking, marking])
        stack[1, marking.tolist().index(list(_unit(2)))] = altered
        root = tuple(a - b for a, b in zip(_unit(1), _unit(2)))
        assert lattice._reflection_rows(stack[:1], [root]).shape == (1, 1, 27)
        with pytest.raises(ValueError, match="does not permute the line classes"):
            lattice._reflection_rows(stack, [root])

    def test_empty_root_stack(self, marking):
        assert lattice._reflection_rows(marking[None], []).shape == (1, 0, 27)
        assert _reflections(marking, []) == []


class TestLineClasses:
    def test_count_and_self_intersection(self, marking):
        assert marking.shape == (27, 7)
        for row in marking.tolist():
            assert q_form(row, row) == -1
            assert q_form(row, CANONICAL_CLASS) == 1

    def test_b_against_e(self, marking):
        partner = lines.partner_six(fermat_data.PRESENTATION_SIX)
        for i, label in enumerate(partner, start=1):
            b = marking[label - 1].tolist()
            assert b[0] == 2
            for j in range(1, 7):
                assert q_form(b, _unit(j)) == (0 if i == j else 1)

    def test_pairwise_values_in_01(self, marking):
        for u, v in combinations(marking.tolist(), 2):
            assert q_form(u, v) in (0, 1)

    def test_class_matrix_is_read_only(self, marking):
        with pytest.raises(ValueError):
            marking[0, 0] = 5


class TestCartan:
    def test_matches_e6(self):
        assert cartan_matrix().tolist() == E6_CARTAN

    def test_coxeter_exponents(self):
        exps = coxeter_exponents()
        assert exps[0][3] == 3 and exps[0][1] == 2 and exps[0][0] == 1
        assert exps[1][2] == exps[2][3] == exps[3][4] == exps[4][5] == 3


class TestPresentation:
    def test_reference_six_reproduces_printed_rows(self):
        gens = weyl_presentation_from_six(fermat_data.PRESENTATION_SIX)
        printed = [parse_cycles(s) for s in fermat_data.PRESENTATION_GENERATOR_CYCLES]
        assert gens == printed

    def test_coxeter_relations_hold(self):
        gens = weyl_presentation_from_six(fermat_data.PRESENTATION_SIX)
        exps = coxeter_exponents()
        for i in range(6):
            for j in range(6):
                assert (gens[i] * gens[j]).order() == exps[i][j]

    def test_sub_presentation_gives_order_720(self, w_a5):
        assert w_a5.order == 720
        assert sorted(len(o) for o in orbits(w_a5)) == [6, 6, 15]

    def test_full_presentation_generates_weyl_group(self, weyl):
        gens = weyl_presentation_from_six(fermat_data.PRESENTATION_SIX)
        assert generate(gens) == weyl

    def test_random_sixes_satisfy_coxeter_relations(self):
        rng = random.Random(13)
        exps = coxeter_exponents()
        for six in rng.sample(lines.skew_sixes(), 3):
            gens = weyl_presentation_from_six(six)
            for i in range(6):
                for j in range(6):
                    assert (gens[i] * gens[j]).order() == exps[i][j]

    def test_double_six_gives_same_w_a5(self, w_a5):
        partner = lines.partner_six(fermat_data.PRESENTATION_SIX)
        other = generate(weyl_presentation_from_six(partner)[1:])
        assert other.elements == w_a5.elements

    def test_partner_six_has_the_same_a5_reflections(self):
        # b_i - b_j = e_i - e_j for the partner in partner_six's order
        for six in lines.skew_sixes():
            partner = lines.partner_six(six)
            assert weyl_presentation_from_six(partner)[1:] == weyl_presentation_from_six(six)[1:]


class TestBatchedMarkings:
    """``markings`` and ``presentations`` on the 72 sorted sixes and the 36
    partners in partner_six's order, the batch the double-six claim reads."""

    SIXES = list(lines.skew_sixes()) + [partner for _, partner in lines.double_sixes()]

    def test_batch_reproduces_the_one_six_presentations(self):
        batch = lattice.presentations(self.SIXES)
        assert batch.shape == (108, 6, 27) and batch.dtype == np.uint8
        for six, rows in zip(self.SIXES, batch.tolist()):
            assert [Permutation([x + 1 for x in row]) for row in rows] == weyl_presentation_from_six(six)

    def test_batch_matches_scalar_classes_and_reflections(self):
        # oracle: each class written down from the marking rule, and each
        # reflection image found with the scalar ``reflect``
        g = lines.incidence_graph()
        classes = lattice.markings(self.SIXES)
        reflections = lattice.presentations(self.SIXES)
        for six, v, rows in zip(self.SIXES, classes.tolist(), reflections.tolist()):
            expected = []
            for line in range(1, 28):
                met = [i for i, a in enumerate(six) if g[line - 1, a - 1]]
                c = [1 if len(met) == 2 else 2] + [-1 if i in met else 0 for i in range(6)]
                if line in six:
                    c = [0] * 7
                    c[six.index(line) + 1] = 1
                expected.append(c)
            assert v == expected
            for root, row in zip(simple_roots(), rows):
                assert row == [expected.index(list(reflect(c, root))) for c in expected]

    def test_a_non_skew_six_in_the_batch_is_named(self):
        with pytest.raises(ValueError, match=r"\(25, 26, 27, 1, 2, 3\) are not a skew six"):
            lattice.markings([fermat_data.PRESENTATION_SIX, (25, 26, 27, 1, 2, 3)])
        with pytest.raises(ValueError, match="1..27"):
            lattice.presentations([fermat_data.PRESENTATION_SIX, (1, 3, 16, 21, 24, 28)])


class TestExtension:
    def test_identity_extends_to_identity(self, marking):
        m = extend_to_lattice_automorphism(Permutation.identity(), marking)
        assert m.tolist() == [[1 if i == j else 0 for j in range(7)] for i in range(7)]

    def test_extensions_preserve_form(self, weyl, marking):
        gram = sympy.Matrix(7, 7, lambda i, j: q_form(_unit(i), _unit(j)))
        rng = random.Random(17)
        for _ in range(50):
            p = rng.choice(weyl)
            m = sympy.Matrix(extend_to_lattice_automorphism(p, marking).tolist())
            assert m.T * gram * m == gram

    def test_reflection_generators_extend_to_reflection_matrices(self, marking):
        gens = weyl_presentation_from_six(fermat_data.PRESENTATION_SIX)
        for root, g in zip(simple_roots(), gens):
            m = extend_to_lattice_automorphism(g, marking)
            for i in range(7):
                assert tuple(m[:, i].tolist()) == reflect(_unit(i), root)

    def test_non_automorphism_rejected(self, marking):
        with pytest.raises(ValueError):
            extend_to_lattice_automorphism(parse_cycles("(1,2)"), marking)


def _unit(i):
    v = [0] * 7
    v[i] = 1
    return tuple(v)


def _reflections(marking, roots):
    """The line permutations of the reflections in a stack of roots, read
    through one marking."""
    return [Permutation(row) for row in (lattice._reflection_rows(marking[None], roots)[0] + 1).tolist()]


class TestMod3Reduction:
    def test_divisors(self, reduction):
        assert list(reduction.divisors) == [1, 3, 3, 3, 3, 3]

    def test_cartan_three_times_inverse_is_integral(self):
        # the adjugate of C, against sympy: det C = 3, so A = adj C = 3 C^-1
        c = sympy.Matrix(E6_CARTAN)
        assert c.det() == 3
        assert c * c.adjugate() == 3 * sympy.eye(6)

    def test_divisors_against_sympy_smith_normal_form(self, reduction):
        a = sympy.Matrix(E6_CARTAN).adjugate()
        snf = smith_normal_form(a, domain=sympy.ZZ)
        assert [abs(snf[i, i]) for i in range(6)] == list(reduction.divisors)

    def test_quotient_kills_exactly_the_radical(self, reduction):
        r = reduction.radical
        assert r.tolist() == [0, 1, 2, 0, 1, 2]
        killed = [x for x in product(range(3), repeat=6) if not np.any(reduction.quot @ x % 3)]
        assert killed == sorted(tuple((k * r % 3).tolist()) for k in range(3))
        # r spans the radical of C mod 3
        assert not np.any(np.array(E6_CARTAN) @ r % 3)
        assert np.array_equal(reduction.quot @ reduction.lift % 3, np.eye(5))

    def test_q5_symmetric_nondegenerate(self, reduction):
        q5 = sympy.Matrix(reduction.q5.tolist())
        assert q5 == q5.T
        assert q5.det() % 3 != 0

    # C[0][0] = 3 keeps 3 C^-1 integral but widens the radical mod 3
    @pytest.mark.parametrize("entry, reason", [((0, 0), "radical"), ((3, 4), "integral")])
    def test_mutated_cartan_entry_raises(self, monkeypatch, entry, reason):
        c = np.array(E6_CARTAN)
        c[entry] += 1
        monkeypatch.setattr(lattice, "cartan_matrix", lambda: c)
        with pytest.raises(AssertionError, match=reason):
            lattice.mod3_reduction.__wrapped__()

    def test_po_identity(self, reduction, marking):
        (img,) = po_image(reduction, [Permutation.identity()], marking)
        assert img == tuple(tuple(1 if i == j else 0 for j in range(5)) for i in range(5))

    def test_images_preserve_reduced_form(self, reduction, marking, weyl):
        rng = random.Random(23)
        for img in po_image(reduction, [rng.choice(weyl) for _ in range(25)], marking):
            assert preserves_q5(reduction, img)

    def test_homomorphism(self, reduction, marking, weyl):
        rng = random.Random(29)
        for _ in range(100):
            p, q = rng.choice(weyl), rng.choice(weyl)
            left, a, b = po_image(reduction, [compose(p, q), p, q], marking)
            prod = [
                [sum(a[i][k] * b[k][j] for k in range(5)) % 3 for j in range(5)]
                for i in range(5)
            ]
            assert [left] == _canonical_sign([prod])

    def test_projective_codes_are_the_po_images(self, reduction, marking, s4):
        projective, signed = build_po_group(reduction, marking, s4)
        expected = {_base3([x for row in img for x in row]) for img in po_image(reduction, list(s4), marking)}
        assert set(projective.tolist()) == expected
        assert len(projective) == 24 and signed == 48

    def test_bijective_onto_order_51840(self, reduction, marking, weyl):
        projective, signed = build_po_group(reduction, marking, weyl)
        assert len(projective) == 51840
        assert signed == 103680

    def test_line_lookups_match_po_image(self, reduction, marking, weyl):
        # oracle: per element, the kernel's codes of M and -M against the
        # matrix of an explicit 7x7 extension, and the smaller of them
        # against the base-3 code of po_image
        rows = np.random.default_rng(37).choice(weyl.order, 240, replace=False)
        basis, tables, digits = lattice._line_tables(reduction, marking)
        codes, neg_codes = lattice._signed_codes(tables, digits, weyl.table[rows][:, basis])
        images = po_image(reduction, [weyl[k] for k in rows.tolist()], marking)
        for k, code, neg_code, img in zip(rows.tolist(), codes.tolist(), neg_codes.tolist(), images):
            w6 = restrict_to_root_coords(reduction, extend_to_lattice_automorphism(weyl[k], marking))
            signed = (reduction.quot @ w6 @ reduction.lift % 3).reshape(-1).tolist()
            assert code == _base3(signed) and neg_code == _base3([-x % 3 for x in signed])
            assert min(code, neg_code) == _base3([x for row in img for x in row])

    def test_partner_six_marking_gives_the_same_orders(self, reduction, weyl):
        partner = lattice.marking_vectors(lines.partner_six(fermat_data.PRESENTATION_SIX))
        projective, signed = build_po_group(reduction, partner, weyl)
        assert len(projective) == 51840 and signed == 103680

    def test_perturbed_projector_raises(self, reduction, marking, weyl):
        projector = reduction._projector.copy()
        projector[0, 0] += 1
        perturbed = dataclasses.replace(reduction, _projector=projector)
        with pytest.raises(ValueError, match="root span"):
            build_po_group(perturbed, marking, weyl)

    def test_every_image_preserves_q5(self, reduction, marking, weyl):
        projective, _ = build_po_group(reduction, marking, weyl)
        digits = projective[:, None] // 3 ** np.arange(24, -1, -1) % 3
        m = digits.reshape(-1, 5, 5)
        assert not np.any((m.transpose(0, 2, 1) @ reduction.q5 @ m - reduction.q5) % 3)

    def test_canonical_sign_normalization(self, reduction, marking, weyl):
        rng = random.Random(31)
        for img in po_image(reduction, [rng.choice(weyl) for _ in range(20)], marking):
            flat = [x for row in img for x in row]
            first = next(x for x in flat if x)
            assert first == 1

    def test_restriction_rejects_a_matrix_off_the_root_span(self, reduction):
        # diag(2, 1, ..., 1) sends v0 = h - e1 - e2 - e3 to 2h - e1 - e2 - e3
        m7 = [[(2 if i == 0 else 1) if i == j else 0 for j in range(7)] for i in range(7)]
        with pytest.raises(ValueError):
            restrict_to_root_coords(reduction, m7)

    # (1,2) moves the line marked e1; (2,4) moves only lines outside the
    # basis classes h - e1 - e2, e1..e6, so its extension would be the identity
    @pytest.mark.parametrize("cycles", ["(1,2)", "(2,4)"])
    def test_po_group_rejects_a_group_outside_w(self, reduction, marking, cycles):
        with pytest.raises(ValueError, match="incidence"):
            build_po_group(reduction, marking, generate([parse_cycles(cycles)]))

    def test_restriction_consistency(self, reduction, marking):
        m7 = extend_to_lattice_automorphism(
            parse_cycles(fermat_data.TAU1_CYCLES), marking
        )
        w6 = restrict_to_root_coords(reduction, m7)
        r = sympy.Matrix(reduction.root_matrix.tolist())
        assert sympy.Matrix(m7.tolist()) * r == r * sympy.Matrix(w6.tolist())


class TestImagesInPO:
    def test_s4_and_klein_images(self, reduction, marking):
        images = images_in_po(reduction, marking)
        s4_img = _matrix_group(
            [images["coordinate_transposition"], images["coordinate_four_cycle"]]
        )
        assert len(s4_img) == 24
        klein_img = _matrix_group(
            [images["monodromy_tau1"], images["monodromy_sigma1*tau2"]]
        )
        assert len(klein_img) == 4
        for a in s4_img:
            for b in klein_img:
                assert _f3_mul(a, b) == _f3_mul(b, a)


def _base3(digits):
    return sum(x * 3 ** (24 - i) for i, x in enumerate(digits))


def _f3_mul(a, b):
    prod = [
        [sum(a[i][k] * b[k][j] for k in range(5)) % 3 for j in range(5)]
        for i in range(5)
    ]
    return _canonical_sign([prod])[0]


def _matrix_group(gens):
    ident = tuple(tuple(1 if i == j else 0 for j in range(5)) for i in range(5))
    elements = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = _f3_mul(g, m)
                if prod not in elements:
                    elements.add(prod)
                    new.append(prod)
        frontier = new
    return elements


class TestKleinCycleStructure:
    def test_exactly_one_six_transposition_element(self, klein):
        count = sum(
            1
            for p in klein.elements
            if p.cycle_type().get(2, 0) == 6 and not p.is_identity()
        )
        assert count == 1

    def test_reflections_are_six_transpositions(self):
        gens = weyl_presentation_from_six(fermat_data.PRESENTATION_SIX)
        for g in gens:
            assert g.cycle_type().get(2, 0) == 6
