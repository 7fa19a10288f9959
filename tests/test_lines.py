import random
from itertools import combinations

import pytest

from cubic27 import fermat_data
from cubic27.exact import ZETA, symmetric_basis
from cubic27.lines import (
    IncidenceGraph,
    ProjectiveLine,
    catalog_line,
    coordinate_action_table,
    coordinate_permutation_action,
    coordinate_preimages,
    fermat_catalog,
    graph_automorphisms,
    incidence_graph,
    line_restrictions_vanish,
    marking_from_six,
    monodromy_klein_elements,
    partner_six,
    skew_sixes,
    tag_intersection,
    tritangent_span_rank,
    weyl_generators,
    catalog_records,
    double_sixes,
)
from cubic27.perm import IDENTITY, orbits, parse_cycles, setwise_stabilizer


class TestCatalog:
    def test_27_distinct_lines(self):
        cat = fermat_catalog()
        assert len(cat) == 27
        assert len(set(cat)) == 27

    def test_line25_span(self):
        expected = ProjectiveLine([1, -1, 0, 0], [0, 0, 1, -1])
        assert catalog_line(25) == expected

    def test_all_lines_on_fermat(self):
        m3, _, _ = symmetric_basis()
        for label in range(1, 28):
            assert line_restrictions_vanish(m3, label)

    def test_rank_two_enforced(self):
        with pytest.raises(ValueError):
            ProjectiveLine([1, 0, 0, 0], [2, 0, 0, 0])

    def test_span_representation_independent(self):
        a = ProjectiveLine([1, -1, 0, 0], [0, 0, 1, ZETA])
        b = ProjectiveLine([0, 0, 1, ZETA], [2, -2, 1, ZETA])  # row ops
        assert a == b and hash(a) == hash(b)

    def test_records_shape(self):
        recs = catalog_records()
        assert len(recs) == 27
        assert recs[0]["s4_orbit"] == "first"
        assert recs[24]["s4_orbit"] == "tritangent"
        assert recs[0]["basis_points"][0][0] == {"a": "1", "b": "0"}

    def test_records_round_trip(self):
        from cubic27.lines import line_from_record

        for rec, line in zip(catalog_records(), fermat_catalog()):
            assert line_from_record(rec) == line


class TestMeet:
    def test_tritangent_lines_meet(self):
        assert catalog_line(25).meets(catalog_line(26))
        assert catalog_line(25).meets(catalog_line(27))

    def test_skew_pair(self):
        assert not catalog_line(1).meets(catalog_line(3))

    def test_self_meet_rejected(self):
        with pytest.raises(ValueError):
            catalog_line(1).meets(catalog_line(1))


class TestIncidenceGraph:
    def test_degrees(self):
        g = incidence_graph()
        assert all(g.degree(i) == 10 for i in range(1, 28))

    def test_strongly_regular_parameters(self):
        assert incidence_graph().strongly_regular_parameters() == (27, 10, 1, 5)

    def test_matrix_is_symmetric_no_loops(self):
        m = incidence_graph().matrix()
        for i in range(27):
            assert m[i][i] == 0
            for j in range(27):
                assert m[i][j] == m[j][i]


class TestAutomorphisms:
    def test_group_equals_generated(self, weyl):
        autos = graph_automorphisms()
        assert autos.order == 51840
        assert autos.elements == weyl.elements

    def test_generators_preserve_adjacency(self):
        g = incidence_graph()
        for p in weyl_generators():
            for i in range(1, 28):
                for j in g.neighbors(i):
                    assert g.adjacent(p(i), p(j))

    def test_identity_is_automorphism(self, weyl):
        assert IDENTITY in weyl.elements

    @pytest.mark.parametrize("edge", [(1, 2), (1, 27)])
    def test_toggled_edge_shrinks_the_group(self, weyl, edge):
        # toggling one adjacency leaves only maps that fix the pair setwise
        i, j = edge
        masks = list(incidence_graph().masks)
        masks[i - 1] ^= 1 << (j - 1)
        masks[j - 1] ^= 1 << (i - 1)
        toggled = IncidenceGraph(masks)
        autos = graph_automorphisms(toggled)
        assert 1 < autos.order < 51840
        assert setwise_stabilizer(weyl, [i, j]) <= autos
        for p in autos:
            for x in range(1, 28):
                assert {p(y) for y in toggled.neighbors(x)} == set(toggled.neighbors(p(x)))


class TestCoordinateAction:
    def test_printed_transposition_realized(self):
        printed = parse_cycles(fermat_data.COORDINATE_TRANSPOSITION_CYCLES)
        assert printed in coordinate_action_table().values()
        preimages = coordinate_preimages(printed)
        assert len(preimages) == 1
        sigma = preimages[0]
        assert sum(1 for i in range(4) if sigma[i] != i) == 2

    def test_printed_four_cycle_realized(self):
        printed = parse_cycles(fermat_data.COORDINATE_FOUR_CYCLE_CYCLES)
        preimages = coordinate_preimages(printed)
        assert len(preimages) == 1
        sigma = preimages[0]
        assert sum(1 for i in range(4) if sigma[i] != i) == 4

    def test_identity_coordinate_permutation(self):
        assert coordinate_permutation_action((0, 1, 2, 3)) == IDENTITY

    def test_action_is_faithful_order_24(self, s4):
        table = coordinate_action_table()
        assert len(set(table.values())) == 24
        assert s4.order == 24
        assert set(table.values()) == s4.elements

    def test_orbits(self, s4):
        assert orbits(s4) == [list(range(1, 13)), list(range(13, 25)), [25, 26, 27]]

    def test_action_is_homomorphism(self):
        table = coordinate_action_table()
        rng = random.Random(5)
        sigmas = list(table)
        for _ in range(20):
            s, t = rng.choice(sigmas), rng.choice(sigmas)
            st = tuple(s[t[i]] for i in range(4))  # apply t first
            assert table[st] == table[s] * table[t]

    def test_invalid_sigma_rejected(self):
        with pytest.raises(ValueError):
            coordinate_permutation_action((0, 0, 1, 2))

    def test_conjugate_embedding_relabels_by_monodromy_element(self):
        # complex conjugation of the catalog is itself the sigma1*tau2
        # monodromy element, so the zeta embedding choice is harmless
        cat = fermat_catalog()
        index = {line: i + 1 for i, line in enumerate(cat)}
        swap = monodromy_klein_elements()["sigma1*tau2"]
        for i, line in enumerate(cat, start=1):
            conj = ProjectiveLine(
                [x.conjugate() for x in line.span[0]],
                [x.conjugate() for x in line.span[1]],
            )
            assert index[conj] == swap(i)


class TestSkewSixes:
    def test_72_sixes(self):
        assert len(skew_sixes()) == 72

    def test_all_pairwise_skew(self):
        g = incidence_graph()
        for six in skew_sixes():
            for a, b in combinations(six, 2):
                assert not g.adjacent(a, b)

    def test_partner_involution(self):
        for six in skew_sixes():
            partner = partner_six(six)
            assert tuple(sorted(partner_six(partner))) == six

    def test_36_double_sixes(self):
        assert len(double_sixes()) == 36

    def test_partner_pairwise_skew(self):
        g = incidence_graph()
        for six in list(skew_sixes())[:10]:
            partner = partner_six(six)
            for a, b in combinations(partner, 2):
                assert not g.adjacent(a, b)


class TestMarking:
    def test_reference_six_assignment(self):
        six = fermat_data.PRESENTATION_SIX
        tags = marking_from_six(six)
        for i, label in enumerate(six, start=1):
            assert tags[label] == ("e", i)

    def test_c_classes_meet_exactly_two(self):
        six = fermat_data.PRESENTATION_SIX
        tags = marking_from_six(six)
        g = incidence_graph()
        for label, tag in tags.items():
            if tag[0] == "c":
                met = [s for s in six if g.adjacent(label, s)]
                assert len(met) == 2

    def test_marking_is_bijection_for_all_sixes(self):
        for six in skew_sixes():
            tags = marking_from_six(six)
            assert len(set(tags.values())) == 27

    def test_q_matrix_reproduces_adjacency(self):
        g = incidence_graph()
        for six in skew_sixes():
            tags = marking_from_six(six)
            for i in range(1, 28):
                for j in range(i + 1, 28):
                    assert (tag_intersection(tags[i], tags[j]) == 1) == g.adjacent(i, j)

    def test_non_skew_input_rejected(self):
        with pytest.raises(ValueError):
            marking_from_six((25, 26, 27, 1, 2, 3))


class TestExactIdentitiesOnLines:
    def test_symmetric_basis_vanishes_on_tritangent(self):
        for poly in symmetric_basis():
            for label in (25, 26, 27):
                assert line_restrictions_vanish(poly, label)

    def test_tritangent_is_coplanar(self):
        assert tritangent_span_rank() == 3

    def test_first_orbit_line_not_on_all_symmetric_cubics(self):
        _, m21, _ = symmetric_basis()
        assert not line_restrictions_vanish(m21, 1)
