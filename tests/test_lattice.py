import random
from itertools import combinations

import pytest

from cubic27 import fermat_data, lines
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
    reflection_permutation,
    restrict_to_root_coords,
    simple_roots,
    weyl_presentation_from_six,
    _canonical_sign,
)
from cubic27.exact import mat_mul, mat_transpose
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
            p = reflection_permutation(marking, root)
            assert p.order() == 2

    def test_reflection_moves_basis_vector(self):
        root = tuple(a - b for a, b in zip(_unit(1), _unit(2)))
        assert reflect(_unit(1), root) == _unit(2)

    def test_non_root_rejected(self, marking):
        with pytest.raises(ValueError):
            reflect(_unit(1), _unit(1))
        with pytest.raises(ValueError):
            reflection_permutation(marking, _unit(1))


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
        assert cartan_matrix() == E6_CARTAN

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
        assert generate(gens).elements == weyl.elements

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


class TestExtension:
    def test_identity_extends_to_identity(self, marking):
        m = extend_to_lattice_automorphism(Permutation.identity(), marking)
        assert m == [[1 if i == j else 0 for j in range(7)] for i in range(7)]

    def test_extensions_preserve_form(self, weyl, marking):
        gram = [
            [q_form(_unit(i), _unit(j)) for j in range(7)] for i in range(7)
        ]
        rng = random.Random(17)
        pool = sorted(weyl.elements)
        for _ in range(50):
            p = rng.choice(pool)
            m = extend_to_lattice_automorphism(p, marking)
            assert mat_mul(mat_transpose(m), mat_mul(gram, m)) == gram

    def test_reflection_generators_extend_to_reflection_matrices(self, marking):
        gens = weyl_presentation_from_six(fermat_data.PRESENTATION_SIX)
        for root, g in zip(simple_roots(), gens):
            m = extend_to_lattice_automorphism(g, marking)
            for i in range(7):
                col = tuple(m[r][i] for r in range(7))
                assert col == reflect(_unit(i), root)

    def test_non_automorphism_rejected(self, marking):
        with pytest.raises(ValueError):
            extend_to_lattice_automorphism(parse_cycles("(1,2)"), marking)


def _unit(i):
    v = [0] * 7
    v[i] = 1
    return tuple(v)


class TestMod3Reduction:
    def test_divisors(self, reduction):
        assert list(reduction.divisors) == [1, 3, 3, 3, 3, 3]

    def test_q5_symmetric_nondegenerate(self, reduction):
        q5 = reduction.q5
        for i in range(5):
            for j in range(5):
                assert q5[i][j] == q5[j][i]

    def test_po_identity(self, reduction, marking):
        img = po_image(reduction, Permutation.identity(), marking)
        assert img == tuple(tuple(1 if i == j else 0 for j in range(5)) for i in range(5))

    def test_images_preserve_reduced_form(self, reduction, marking, weyl):
        rng = random.Random(23)
        pool = sorted(weyl.elements)
        for _ in range(25):
            img = po_image(reduction, rng.choice(pool), marking)
            assert preserves_q5(reduction, img)

    def test_homomorphism(self, reduction, marking, weyl):
        rng = random.Random(29)
        pool = sorted(weyl.elements)
        for _ in range(100):
            p, q = rng.choice(pool), rng.choice(pool)
            left = po_image(reduction, compose(p, q), marking)
            a = po_image(reduction, p, marking)
            b = po_image(reduction, q, marking)
            prod = [
                [sum(a[i][k] * b[k][j] for k in range(5)) % 3 for j in range(5)]
                for i in range(5)
            ]
            assert left == _canonical_sign(prod)

    def test_projective_codes_are_the_po_images(self, reduction, marking, s4):
        projective, signed = build_po_group(reduction, marking, s4)
        expected = set()
        for p in s4:
            flat = [x for row in po_image(reduction, p, marking) for x in row]
            expected.add(sum(x * 3 ** (24 - k) for k, x in enumerate(flat)))
        assert set(projective.tolist()) == expected
        assert len(projective) == 24 and signed == 48

    def test_bijective_onto_order_51840(self, reduction, marking, weyl):
        projective, signed = build_po_group(reduction, marking, weyl)
        assert len(projective) == 51840
        assert signed == 103680

    def test_canonical_sign_normalization(self, reduction, marking, weyl):
        rng = random.Random(31)
        pool = sorted(weyl.elements)
        for _ in range(20):
            img = po_image(reduction, rng.choice(pool), marking)
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
        r = [list(row) for row in reduction.root_matrix]
        assert mat_mul(m7, r) == mat_mul(r, w6)


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


def _f3_mul(a, b):
    prod = [
        [sum(a[i][k] * b[k][j] for k in range(5)) % 3 for j in range(5)]
        for i in range(5)
    ]
    return _canonical_sign(prod)


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
