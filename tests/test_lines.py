import random
from itertools import combinations, permutations

import numpy as np
import pytest
import sympy

from cubic27 import fermat_data, lattice, lines
from cubic27.exact import _rank, _times, symmetric_basis
from cubic27.lattice import marking_vectors
from cubic27.lines import (
    coordinate_action_table,
    coordinate_preimages,
    fermat_catalog,
    graph_automorphisms,
    incidence_graph,
    line_restrictions_vanish,
    monodromy_klein_elements,
    partner_six,
    skew_sixes,
    strongly_regular_parameters,
    tritangent_span_rank,
    weyl_generators,
    weyl_group,
    catalog_records,
    double_sixes,
)
from cubic27.perm import (
    IDENTITY,
    conjugate_subgroup,
    generate,
    orbits,
    parse_cycles,
    setwise_stabilizer,
)


def meets(i: int, j: int) -> bool:
    """Whether catalog lines i and j meet: their stacked spans have rank 3."""
    cat = fermat_catalog()
    return _rank(np.concatenate([cat[i - 1], cat[j - 1]])) == 3


class TestCatalog:
    def test_27_distinct_lines(self):
        # each span is in reduced row echelon form, the canonical
        # representative of its line, so distinct spans are distinct lines
        cat = fermat_catalog()
        assert cat.shape == (27, 2, 4, 2) and cat.dtype == np.int64
        for line in cat:
            nonzero = line.any(axis=-1)
            assert nonzero.any(axis=1).all()
            pivots = nonzero.argmax(axis=1)  # entries before a row's pivot are 0
            assert pivots[0] < pivots[1]
            assert line[[0, 1], pivots].tolist() == [[1, 0], [1, 0]]  # pivot entries are 1
            assert not line[[1, 0], pivots].any()  # pivot columns are otherwise 0
        assert len({line.tobytes() for line in cat}) == 27

    def test_line25_span(self):
        expected = [[1, -1, 0, 0], [0, 0, 1, -1]]
        assert fermat_catalog()[24].tolist() == [[[x, 0] for x in row] for row in expected]

    def test_all_lines_on_fermat(self):
        m3, _, _ = symmetric_basis()
        for label in range(1, 28):
            assert line_restrictions_vanish(m3, label)

    def test_rank_two_enforced(self):
        with pytest.raises(ValueError, match="rank 2"):
            lines._plucker(np.array([[[1, 0], [0, 0], [0, 0], [0, 0]],
                                     [[0, 1], [0, 0], [0, 0], [0, 0]]]))
        spans = fermat_catalog().copy()
        spans[3, 1] = spans[3, 0] * -1
        with pytest.raises(ValueError, match="rank 2"):
            lines._plucker(spans)

    def test_catalog_is_read_only(self):
        with pytest.raises(ValueError):
            fermat_catalog()[0, 0, 0, 0] = 2
        with pytest.raises(ValueError):
            lines._catalog_plucker()[0, 0, 0] = 2

    def test_records_shape(self):
        recs = catalog_records()
        assert len(recs) == 27
        assert recs[0]["s4_orbit"] == "first"
        assert recs[24]["s4_orbit"] == "tritangent"
        assert recs[0]["basis_points"][0][0] == {"a": "1", "b": "0"}

    def test_records_round_trip(self):
        for rec, line in zip(catalog_records(), fermat_catalog()):
            rows = [[[int(e["a"]), int(e["b"])] for e in point] for point in rec["basis_points"]]
            assert rows == line.tolist()


class TestEisensteinProduct:
    def test_matches_cyc_multiplication(self):
        rng = random.Random(3)
        pairs = np.array([[[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)] for _ in range(200)])
        products = _times(pairs[:, 0], pairs[:, 1])
        # oracle: the product of a + b z and c + d z reduced mod z^2 - z + 1
        z = sympy.symbols("z")
        for ((a, b), (c, d)), xy in zip(pairs.tolist(), products.tolist()):
            product = sympy.Poly((a + b * z) * (c + d * z), z).rem(sympy.Poly(z**2 - z + 1, z))
            assert xy == [int(product.coeff_monomial(z**k)) for k in (0, 1)]


class TestMeet:
    def test_tritangent_lines_meet(self):
        assert meets(25, 26) and incidence_graph()[24, 25]
        assert meets(25, 27) and incidence_graph()[24, 26]

    def test_skew_pair(self):
        assert not meets(1, 3) and not incidence_graph()[0, 2]


class TestIncidenceGraph:
    def test_degrees(self):
        assert incidence_graph().sum(axis=1).tolist() == [10] * 27

    def test_strongly_regular_parameters(self):
        assert strongly_regular_parameters(incidence_graph()) == (27, 10, 1, 5)

    @pytest.mark.parametrize("edge", [(1, 2), (1, 27)])
    def test_toggled_edge_is_not_strongly_regular(self, edge):
        with pytest.raises(ValueError):
            strongly_regular_parameters(_toggled(*edge))

    def test_matrix_is_symmetric_no_loops(self):
        m = incidence_graph()
        assert m.shape == (27, 27)
        assert set(m.ravel().tolist()) == {0, 1}
        assert not m.diagonal().any()
        assert np.array_equal(m, m.T)

    def test_adjacency_matches_plucker_meets(self):
        # oracle: two distinct lines meet iff their stacked spans have rank 3
        m = incidence_graph()
        for i, j in combinations(range(1, 28), 2):
            assert m[i - 1, j - 1] == meets(i, j)

    def test_array_is_read_only(self):
        with pytest.raises(ValueError):
            incidence_graph()[0, 1] = 0


def _toggled(i: int, j: int) -> np.ndarray:
    """A copy of the incidence graph with the adjacency of lines i and j flipped."""
    a = incidence_graph().copy()
    a[i - 1, j - 1] = a[j - 1, i - 1] = 1 - a[i - 1, j - 1]
    return a


class TestAutomorphisms:
    def test_group_equals_generated(self, weyl):
        autos = graph_automorphisms()
        assert autos.order == 51840
        assert autos == weyl  # the sorted tables, compared exactly

    def test_generators_preserve_adjacency(self):
        a = incidence_graph()
        for p in weyl_generators():
            rows = np.array(p.images) - 1
            assert np.array_equal(a[np.ix_(rows, rows)], a)

    def test_identity_is_automorphism(self, weyl):
        assert IDENTITY in weyl

    # (1, 2) and (1, 27) touch the reference six (1, 3, 10, 11, 16, 22), and
    # (2, 4) lies off it, where the signatures do not see the toggled edge
    @pytest.mark.parametrize("edge", [(1, 2), (1, 27), (2, 4)])
    def test_toggled_edge_shrinks_the_group(self, weyl, edge):
        # toggling one adjacency leaves only maps that fix the pair setwise
        i, j = edge
        toggled = _toggled(i, j)
        autos = graph_automorphisms(toggled)
        assert 1 < autos.order < 51840
        assert setwise_stabilizer(weyl, [i, j]) <= autos
        for p in autos:
            rows = np.array(p.images) - 1
            assert np.array_equal(toggled[np.ix_(rows, rows)], toggled)

    def test_non_separating_reference_six_raises(self):
        # give line 27 the signature of line 26 against the reference six
        # (1, 3, 10, 11, 16, 22): the candidate map is then not unique
        a = incidence_graph().copy()
        six = np.array([1, 3, 10, 11, 16, 22]) - 1
        a[26, six] = a[six, 26] = a[25, six]
        with pytest.raises(ValueError):
            graph_automorphisms(a)

    def test_relabelled_graph_gives_the_conjugate_group(self, weyl):
        # the relabelled graph has an edge pi(i) pi(j) for each edge i j,
        # so its array is A[pi^-1, pi^-1]
        pi = parse_cycles("(1,27,5,14)(2,9)(3,20,11)(6,25,17,22,8)")
        inverse = np.array(pi.inverse().images) - 1
        relabelled = incidence_graph()[np.ix_(inverse, inverse)]
        assert graph_automorphisms(relabelled) == conjugate_subgroup(weyl, pi)

    def test_declared_generators_close_to_the_automorphism_group(self):
        # the closure of WEYL_GENERATOR_CYCLES, which set-up no longer runs
        closed = generate(weyl_generators())
        assert closed == weyl_group() == graph_automorphisms()
        assert weyl_group().generators == tuple(weyl_generators())

    @pytest.mark.parametrize("edge", [(1, 2), (1, 27), (2, 4)])
    def test_toggled_edge_equals_brute_force(self, edge):
        toggled = _toggled(*edge)
        assert np.array_equal(graph_automorphisms(toggled).table, _brute_force_automorphisms(toggled))


def _brute_force_automorphisms(adj: np.ndarray) -> np.ndarray:
    """The automorphisms of a graph, sorted, by filtering the candidate map
    of every ordered skew six: the map sending the first skew six, in its
    own order, to it and every other vertex to the one vertex outside it
    with the same neighbours in it, kept when it is a bijection preserving
    every adjacency.  All 720 orders of one six are tried at once."""
    sixes = lines._skew_sixes(adj) - 1
    ref = sixes[0]
    others = np.array([v for v in range(27) if v not in ref])
    orders = np.array(list(permutations(range(6))))
    found = []
    for six in sixes:
        targets = six[orders]  # (720, 6)
        # same[o, v, u]: u lies outside the six and meets targets[o] as v meets ref
        same = (adj[:, targets].transpose(1, 0, 2)[:, None] == adj[others][:, ref][None, :, None]).all(axis=3)
        same[:, :, six] = False
        rows = np.empty((len(orders), 27), dtype=np.intp)
        rows[:, ref] = targets
        rows[:, others] = same.argmax(axis=2)
        for unique, row in zip((same.sum(axis=2) == 1).all(axis=1), rows):
            if unique and sorted(row) == list(range(27)) and np.array_equal(adj[np.ix_(row, row)], adj):
                found.append(row.tolist())
    return np.array(sorted(found), dtype=np.uint8)


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
        assert coordinate_action_table()[0, 1, 2, 3] == IDENTITY

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

    def test_table_matches_pushed_forward_spans(self):
        # oracle: move column i of each span to slot sigma[i]; the moved span
        # stacked with the span of the catalog line the table names as the
        # image still has rank 2
        cat = fermat_catalog()
        table = coordinate_action_table()
        moved = np.empty((len(table),) + cat.shape, dtype=cat.dtype)
        images = np.empty_like(moved)
        for k, (sigma, p) in enumerate(table.items()):
            moved[k][:, :, list(sigma)] = cat
            images[k] = cat[np.array(p.images) - 1]
        assert (_rank(np.concatenate([moved, images], axis=2)) == 2).all()

    def test_missing_or_ambiguous_image_rejected(self):
        plucker = lines._catalog_plucker().copy()
        plucker[0] = plucker[1] * -1  # line 2's vector twice
        with pytest.raises(ValueError, match="several"):
            lines._pushforward_labels(plucker, [(0, 1, 2, 3)])
        # the coordinate line through e0 and e1 is on no cubic of the family;
        # swapping coordinates 0 and 2 sends it to the line through e2 and e1
        plucker[0] = lines._plucker(np.array([[[1, 0], [0, 0], [0, 0], [0, 0]],
                                              [[0, 0], [1, 0], [0, 0], [0, 0]]]))
        with pytest.raises(ValueError, match="not in catalog"):
            lines._pushforward_labels(plucker, [(2, 1, 0, 3)])

    def test_conjugate_embedding_relabels_by_monodromy_element(self):
        # complex conjugation of the catalog, conj(a + b zeta) = (a + b) - b zeta,
        # is itself the sigma1*tau2 monodromy element, so the zeta embedding
        # choice is harmless
        # oracle: conjugate line i stacked with catalog line swap(i) has rank 2
        cat = fermat_catalog()
        swap = monodromy_klein_elements()["sigma1*tau2"]
        conj = np.stack([cat[..., 0] + cat[..., 1], -cat[..., 1]], axis=-1)
        images = cat[[swap(i) - 1 for i in range(1, 28)]]
        assert (_rank(np.concatenate([conj, images], axis=1)) == 2).all()


class TestSkewSixes:
    def test_72_sixes(self):
        assert len(skew_sixes()) == 72

    def test_sorted_and_lexicographic(self):
        sixes = skew_sixes()
        assert all(list(six) == sorted(six) for six in sixes)
        assert list(sixes) == sorted(set(sixes))

    def test_all_pairwise_skew(self):
        g = incidence_graph()
        for six in skew_sixes():
            for a, b in combinations(six, 2):
                assert not g[a - 1, b - 1]

    def test_every_skew_six_found(self):
        # oracle: every 6-subset of the 27 lines, tested pair by pair
        g = incidence_graph()
        skew = [
            six for six in combinations(range(1, 28), 6)
            if not any(g[a - 1, b - 1] for a, b in combinations(six, 2))
        ]
        assert tuple(skew) == skew_sixes()

    def test_partner_involution(self):
        for six in skew_sixes():
            partner = partner_six(six)
            assert tuple(sorted(partner_six(partner))) == six

    def test_36_double_sixes(self):
        assert len(double_sixes()) == 36

    def test_double_sixes_cover_every_six_once(self):
        halves = [half for six, partner in double_sixes() for half in (six, tuple(sorted(partner)))]
        assert sorted(halves) == list(skew_sixes())

    def test_double_six_halves_are_ordered(self):
        for six, partner in double_sixes():
            assert six < tuple(sorted(partner))
            assert partner == partner_six(six)
            assert tuple(sorted(partner_six(partner))) == six

    def test_partner_meets_all_but_its_own_member(self):
        g = incidence_graph()
        for six, partner in double_sixes():
            for i, b in enumerate(partner):
                assert [g[b - 1, a - 1] for a in six] == [int(k != i) for k in range(6)]

    def test_partner_follows_the_input_order(self):
        g = incidence_graph()
        rng = random.Random(3)
        for six in rng.sample(skew_sixes(), 10):
            shuffled = rng.sample(six, 6)
            partner = partner_six(shuffled)
            assert sorted(partner) == sorted(partner_six(six))
            for i, b in enumerate(partner):
                assert [g[b - 1, a - 1] for a in shuffled] == [int(k != i) for k in range(6)]

    def test_partner_table_meets_all_but_its_own_member(self):
        # all 72 rows, the halves double_sixes drops too
        g = incidence_graph()
        table = lines.partner_table()
        assert table.shape == (72, 6) and not table.flags.writeable
        for six, partner in zip(skew_sixes(), table.tolist()):
            for i, b in enumerate(partner):
                assert [g[b - 1, a - 1] for a in six] == [int(k != i) for k in range(6)]

    def test_partner_pairwise_skew(self):
        g = incidence_graph()
        for six in list(skew_sixes())[:10]:
            partner = partner_six(six)
            for a, b in combinations(partner, 2):
                assert not g[a - 1, b - 1]


class TestDoubleSixReflections:
    def test_read_only_uint8_table(self):
        table = lines.double_six_reflections()
        assert table.shape == (36, 27) and table.dtype == np.uint8
        assert not table.flags.writeable

    def test_rows_swap_the_halves_and_fix_the_rest(self):
        table = lines.double_six_reflections()
        for row, (six, partner) in zip(table.tolist(), double_sixes()):
            for a, b in zip(six, partner):
                assert row[a - 1] == b - 1 and row[b - 1] == a - 1
            fixed = set(range(1, 28)) - set(six) - set(partner)
            assert all(row[x - 1] == x - 1 for x in fixed)

    def test_rows_are_the_weyl_elements_of_type_1_15_2_6(self, weyl):
        # a mask over W(E6)'s table: the involutions that move 12 lines
        rows = weyl.table
        moved = (rows != np.arange(27)).sum(axis=1)
        involution = (np.take_along_axis(rows, rows, axis=1) == np.arange(27)).all(axis=1)
        of_type = rows[(moved == 12) & involution]
        assert len(of_type) == 36
        table = lines.double_six_reflections()
        assert sorted(map(bytes, of_type)) == sorted(map(bytes, table))

    def test_each_row_is_the_reflection_in_its_double_six_root(self):
        # in the marking by a six a, with partner b, the root 2h - e1 - ... - e6
        # sends a_i = e_i to b_i = 2h - e1 - ... - e6 + e_i
        sixes = [six for six, _ in double_sixes()]
        root = (2, -1, -1, -1, -1, -1, -1)
        through_lattice = lattice._reflection_rows(lattice.markings(sixes), [root])[:, 0]
        assert np.array_equal(through_lattice, lines.double_six_reflections())


_Q = np.diag([1, -1, -1, -1, -1, -1, -1])


class TestMarking:
    def test_reference_six_assignment(self):
        six = fermat_data.PRESENTATION_SIX
        v = marking_vectors(six)
        for i, label in enumerate(six, start=1):
            assert v[label - 1].tolist() == [1 if k == i else 0 for k in range(7)]

    def test_c_classes_meet_exactly_two(self):
        six = fermat_data.PRESENTATION_SIX
        v = marking_vectors(six)
        g = incidence_graph()
        for label in range(1, 28):
            row = v[label - 1].tolist()
            if row[0] == 1:
                minus = [i for i in range(1, 7) if row[i] == -1]
                assert len(minus) == 2 and sum(row[1:]) == -2
                met = [i for i, s in enumerate(six, start=1) if g[label - 1, s - 1]]
                assert met == minus

    def test_marking_is_bijection_for_all_sixes(self):
        for six in skew_sixes():
            v = marking_vectors(six)
            assert len({tuple(row) for row in v.tolist()}) == 27

    def test_q_matrix_reproduces_adjacency(self):
        adjacency = incidence_graph()
        for six in skew_sixes():
            v = marking_vectors(six)
            assert np.array_equal(v @ _Q @ v.T, adjacency - np.eye(27, dtype=int))

    def test_non_skew_input_rejected(self):
        with pytest.raises(ValueError):
            marking_vectors((25, 26, 27, 1, 2, 3))
        with pytest.raises(ValueError):
            partner_six((25, 26, 27, 1, 2, 3))

    @pytest.mark.parametrize("label", [0, 28])
    def test_label_outside_1_to_27_rejected(self, label):
        # (1, 3, 16, 21, 24, 27) is a skew six; label 0 must not wrap to 27
        six = (1, 3, 16, 21, 24, label)
        with pytest.raises(ValueError, match="1..27"):
            marking_vectors(six)
        with pytest.raises(ValueError, match="1..27"):
            partner_six(six)


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

    @pytest.mark.parametrize("label", [0, -1, 28])
    def test_labels_outside_1_to_27_are_rejected(self, label):
        # label 0 used to read line 27 and 28 to raise a bare IndexError
        _, m21, _ = symmetric_basis()
        with pytest.raises(ValueError, match="1..27"):
            line_restrictions_vanish(m21, label)
        with pytest.raises(ValueError, match="1..27"):
            lines._catalog_line(label)
