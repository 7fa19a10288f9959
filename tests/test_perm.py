import math
import random
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from cubic27 import fermat_data, lines
from cubic27.perm import (
    GroupGenerationError,
    IDENTITY,
    NotASubgroupError,
    TRIVIAL_GROUP,
    centralizer,
    compose,
    conjugate_subgroup,
    direct_product_check,
    fingerprint,
    format_cycles,
    generate,
    identify,
    intersect,
    is_subconjugate,
    normalizer,
    orbits,
    parse_cycles,
    pointwise_stabilizer,
    setwise_stabilizer,
)


def klein_generators():
    return lines.tritangent_klein_generators()


class TestCompose:
    def test_involution_squares_to_identity(self):
        tau1 = parse_cycles(fermat_data.TAU1_CYCLES)
        assert compose(tau1, tau1) == IDENTITY

    def test_sigma1_tau2_is_the_centralizer_element(self, weyl, s4):
        k = klein_generators()
        prod = compose(k["sigma1"], k["tau2"])
        # the factors commute, so the composition order is immaterial
        assert prod == compose(k["tau2"], k["sigma1"])
        assert format_cycles(prod) == (
            "(1,2)(3,4)(5,6)(7,8)(9,10)(11,12)(13,16)(14,15)(17,20)(18,19)(21,24)(22,23)"
        )
        cent = centralizer(weyl, s4)
        assert prod in cent.elements

    def test_published_monodromy_table_row_discrepancy(self):
        # The traditionally tabulated cycles for the sigma1*tau2 monodromy
        # element actually equal sigma1*tau1 and cannot belong to any group
        # containing tau1 and sigma1*tau1*tau2 of order 4: the honest product
        # is used everywhere instead (see also monodromy_klein_elements).
        k = klein_generators()
        tabulated = parse_cycles(
            "(1,3)(2,4)(5,6)(7,8)(9,12)(10,11)(13,23)(14,18)(15,19)(16,22)(17,21)(20,24)"
        )
        assert tabulated == compose(k["sigma1"], k["tau1"])
        assert tabulated != compose(k["sigma1"], k["tau2"])
        elements = {
            IDENTITY,
            k["tau1"],
            tabulated,
            compose(k["sigma1"], compose(k["tau1"], k["tau2"])),
        }
        products = {compose(a, b) for a in elements for b in elements}
        assert products != elements  # the tabulated set is not closed

    def test_triple_product_matches_reference(self):
        k = klein_generators()
        triple = compose(k["sigma1"], compose(k["tau1"], k["tau2"]))
        assert format_cycles(triple) == (
            "(1,2)(3,4)(5,6)(7,8)(9,10)(11,12)(13,22)(14,18)(15,19)(16,23)(17,21)(20,24)"
        )

    def test_inverse_cancels(self, weyl):
        rng = random.Random(42)
        pool = sorted(weyl.elements)
        for _ in range(100):
            p = rng.choice(pool)
            assert compose(p, p.inverse()) == IDENTITY
            assert compose(p.inverse(), p) == IDENTITY


class TestCycles:
    def test_parse_reference_involution(self):
        tau1 = parse_cycles("(13,23)(14,19)(15,18)(16,22)(17,24)(20,21)")
        assert tau1(13) == 23 and tau1(20) == 21 and tau1(1) == 1

    def test_identity_string(self):
        assert parse_cycles("()") == IDENTITY
        assert format_cycles(IDENTITY) == "()"

    def test_roundtrip_on_generator_strings(self):
        for s in fermat_data.WEYL_GENERATOR_CYCLES:
            assert format_cycles(parse_cycles(s)) == s

    def test_roundtrip_all_reference_tables(self):
        strings = [
            fermat_data.COORDINATE_TRANSPOSITION_CYCLES,
            fermat_data.COORDINATE_FOUR_CYCLE_CYCLES,
            fermat_data.SIGMA1_CYCLES,
            fermat_data.SIGMA2_CYCLES,
            fermat_data.TAU1_CYCLES,
            fermat_data.TAU2_CYCLES,
            *fermat_data.PRESENTATION_GENERATOR_CYCLES,
        ]
        for s in strings:
            assert format_cycles(parse_cycles(s)) == s

    @pytest.mark.parametrize(
        "bad",
        ["(1,2", "(1;2)", "(1,2)(2,3)", "(0,1)", "(27,28)", "((1,2))", "1,2"],
    )
    def test_malformed_inputs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_cycles(bad)

    def test_format_canonicalizes_rotation(self):
        assert format_cycles(parse_cycles("(23,13)(19,14)")) == "(13,23)(14,19)"

    def test_point_application_bounds(self):
        with pytest.raises(ValueError):
            IDENTITY(0)
        with pytest.raises(ValueError):
            IDENTITY(28)


class TestGenerate:
    def test_weyl_order(self, weyl):
        assert weyl.order == 51840

    def test_identity_alone(self):
        g = generate([IDENTITY])
        assert g.order == 1

    def test_monodromy_pair_generates_klein_group(self):
        k = klein_generators()
        g = generate([k["tau1"], compose(k["sigma1"], k["tau2"])])
        assert g.order == 4
        assert all(p.order() == 2 for p in g.elements if p != IDENTITY)

    def test_cap_exceeded(self):
        gens = [parse_cycles(s) for s in fermat_data.WEYL_GENERATOR_CYCLES]
        with pytest.raises(GroupGenerationError):
            generate(gens, cap=1000)

    def test_idempotent(self, s4):
        again = generate(sorted(s4.elements))
        assert again.elements == s4.elements


class TestOrbits:
    def test_s4_orbits(self, s4):
        assert orbits(s4) == [list(range(1, 13)), list(range(13, 25)), [25, 26, 27]]

    def test_trivial_group(self):
        g = generate([IDENTITY])
        assert orbits(g) == [[i] for i in range(1, 28)]

    def test_w_a5_orbit_sizes(self, w_a5):
        assert sorted(len(o) for o in orbits(w_a5)) == [6, 6, 15]

    def test_orbit_stabilizer(self, s4, w_a5):
        for group in (s4, w_a5):
            for orbit in orbits(group):
                stab = pointwise_stabilizer(group, [orbit[0]])
                assert len(orbit) * stab.order == group.order


class TestStabilizers:
    def test_tritangent_pointwise(self, weyl):
        assert pointwise_stabilizer(weyl, [25, 26, 27]).order == 192

    def test_empty_pointwise_is_whole_group(self, s4):
        assert pointwise_stabilizer(s4, []).elements == s4.elements

    def test_point_stabilizer_in_weyl(self, weyl):
        assert pointwise_stabilizer(weyl, [1]).order == 1920  # 51840 / 27

    def test_setwise_of_trivial(self):
        g = generate([IDENTITY])
        assert setwise_stabilizer(g, [3, 5, 7]).order == 1

    def test_setwise_contains_pointwise(self, s4, w_a5):
        rng = random.Random(7)
        for _ in range(50):
            group = rng.choice([s4, w_a5])
            pts = rng.sample(range(1, 28), rng.randint(1, 5))
            pw = pointwise_stabilizer(group, pts)
            sw = setwise_stabilizer(group, pts)
            assert pw.elements <= sw.elements

    def test_tritangent_setwise(self, weyl):
        assert setwise_stabilizer(weyl, [25, 26, 27]).order == 1152  # 192 * 6


class TestSubgroupOperators:
    def test_centralizer_of_s4(self, weyl, s4):
        cent = centralizer(weyl, s4)
        assert cent.order == 4
        fp = fingerprint(cent)
        assert identify(fp) == "K4"

    def test_centralizer_of_a_central_subgroup_is_the_group_itself(self, weyl, klein):
        # nothing to filter: the group comes back as it is, not rebuilt
        assert centralizer(weyl, TRIVIAL_GROUP) is weyl
        assert centralizer(klein, klein) is klein

    def test_normalizer_of_s4(self, weyl, s4):
        assert normalizer(weyl, s4).order == 96

    def test_intersection_is_klein_product(self, weyl, s4):
        inter = intersect(pointwise_stabilizer(weyl, [25, 26, 27]), normalizer(weyl, s4))
        assert inter.order == 16
        gens = klein_generators()
        assert inter.elements == generate(list(gens.values())).elements

    def test_not_a_subgroup_raises(self, s4, klein):
        with pytest.raises(NotASubgroupError):
            centralizer(klein, s4)
        with pytest.raises(NotASubgroupError):
            normalizer(klein, s4)

    def test_normalizer_contains_centralizer_times_subgroup(self, weyl, s4):
        cent = centralizer(weyl, s4)
        norm = normalizer(weyl, s4)
        products = {compose(c, h) for c in cent.elements for h in s4.elements}
        assert products <= norm.elements
        assert len(products) == norm.order


class TestSubconjugacy:
    def test_s4_not_subconjugate_to_w_a5(self, weyl, s4, w_a5):
        found, witness = is_subconjugate(weyl, s4, w_a5)
        assert not found and witness is None

    def test_subgroup_subconjugate_to_ambient(self, weyl, klein):
        found, witness = is_subconjugate(weyl, klein, weyl)
        assert found and witness is not None

    def test_s4_subconjugate_to_other_s6(self, weyl, s4, other_s6):
        found, witness = is_subconjugate(weyl, s4, other_s6)
        assert found
        conj = conjugate_subgroup(s4, witness)
        assert conj.elements <= other_s6.elements


def _abstract_order_multiset(n):
    counts = Counter()
    for p in permutations(range(n)):
        seen = [False] * n
        lcm = 1
        for i in range(n):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            lcm = math.lcm(lcm, length)
        counts[lcm] += 1
    return tuple(sorted(counts.items()))


class TestFingerprints:
    def test_klein_group_identified(self, klein):
        fp = fingerprint(klein)
        assert fp.order == 4
        assert fp.orders_dict() == {1: 1, 2: 3}
        assert fp.abelian
        assert identify(fp) == "K4"

    def test_trivial(self):
        assert identify(fingerprint(generate([IDENTITY]))) == "trivial"

    def test_s4_fingerprint_against_abstract_tally(self, s4):
        fp = fingerprint(s4)
        assert fp.element_orders == _abstract_order_multiset(4)
        assert fp.orders_dict() == {1: 1, 2: 9, 3: 8, 4: 6}
        assert not fp.abelian
        assert identify(fp) == "S4"

    def test_s6_fingerprint_against_abstract_tally(self, w_a5):
        assert fingerprint(w_a5).element_orders == _abstract_order_multiset(6)
        assert identify(fingerprint(w_a5)) == "S6"

    def test_c4_not_confused_with_k4(self):
        c4 = generate([parse_cycles("(1,2,3,4)")])
        assert identify(fingerprint(c4)) == "unrecognized"

    def test_d8_identified(self):
        d8 = generate([parse_cycles("(1,2,3,4)"), parse_cycles("(1,3)")])
        assert d8.order == 8
        assert identify(fingerprint(d8)) == "D8"

    def test_order16_identified_as_klein_product(self):
        g16 = generate(list(klein_generators().values()))
        assert identify(fingerprint(g16)) == "K4xK4"

    def test_s4_x_k4_product_oracle(self, weyl, s4):
        # abstract direct product on disjoint points
        prod = generate(
            [
                parse_cycles("(1,2)"),
                parse_cycles("(1,2,3,4)"),
                parse_cycles("(5,6)(7,8)"),
                parse_cycles("(5,7)(6,8)"),
            ]
        )
        assert prod.order == 96
        assert fingerprint(prod).element_orders == fingerprint(normalizer(weyl, s4)).element_orders
        assert identify(fingerprint(prod)) == "S4xK4"

    def test_conjugate_subgroup_preserves_fingerprint(self, weyl, s4):
        rng = random.Random(3)
        pool = sorted(weyl.elements)
        for _ in range(10):
            g = rng.choice(pool)
            assert fingerprint(conjugate_subgroup(s4, g)) == fingerprint(s4)


class TestDirectProduct:
    def test_normalizer_splits(self, weyl, s4):
        cent = centralizer(weyl, s4)
        norm = normalizer(weyl, s4)
        assert direct_product_check(norm, s4, cent)

    def test_whole_times_trivial(self, s4):
        trivial = generate([IDENTITY])
        assert direct_product_check(s4, s4, trivial)

    def test_order16_splits_into_klein_factors(self):
        gens = klein_generators()
        g16 = generate(list(gens.values()))
        a = generate([gens["sigma1"], gens["sigma2"]])
        b = generate([gens["tau1"], gens["tau2"]])
        assert direct_product_check(g16, a, b)

    def test_rejects_nonnormal_factor(self, s4):
        # a point stabilizer of order 2 is not normal in the coordinate action
        stab = pointwise_stabilizer(s4, [1])
        rest = generate([p for p in s4.elements if p.order() == 3][:2])
        assert not direct_product_check(s4, stab, rest)


class TestFromElements:
    def test_non_closed_set_rejected(self):
        from cubic27.perm import FiniteGroup

        tau1 = parse_cycles(fermat_data.TAU1_CYCLES)
        sigma1 = parse_cycles(fermat_data.SIGMA1_CYCLES)
        with pytest.raises(ValueError):
            FiniteGroup.from_elements([IDENTITY, tau1, sigma1])

    def test_closed_subset_of_matching_size_rejected(self):
        # the closure of (4,5,6) alone already has the input's order 3, but
        # (1,2,3) lies outside it
        from cubic27.perm import FiniteGroup

        rows = [IDENTITY, parse_cycles("(1,2,3)"), parse_cycles("(4,5,6)")]
        with pytest.raises(ValueError):
            FiniteGroup.from_elements(rows)

    def test_repeated_row_rejected(self):
        from cubic27.perm import FiniteGroup

        c3 = parse_cycles("(1,2,3)")
        table = np.array([[x - 1 for x in p.images] for p in (IDENTITY, c3, c3)], dtype=np.uint8)
        with pytest.raises(ValueError):
            FiniteGroup.from_table(table)

    def test_empty_generator_list_rejected(self):
        with pytest.raises(ValueError):
            generate([])


class TestSerialization:
    def test_group_record(self, klein):
        rec = klein.to_record()
        assert rec["order"] == 4
        assert rec["fingerprint"]["name"] == "K4"
        regenerated = generate([parse_cycles(s) for s in rec["generators"]])
        assert regenerated.elements == klein.elements


def _reference_closure(gens):
    """Breadth-first closure over Permutation objects."""
    elements = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                p = compose(g, e)
                if p not in elements:
                    elements.add(p)
                    new.append(p)
        frontier = new
    return elements


def _conjugates_into(p, sub, target):
    pinv = p.inverse()
    return all(compose(compose(p, h), pinv) in target.elements for h in sub.elements)


@pytest.fixture(scope="module")
def random_subgroups(weyl):
    """Subgroups of W generated by random pairs, small enough to brute force."""
    rng = random.Random(2024)
    out = []
    while len(out) < 4:
        try:
            out.append(generate([rng.choice(weyl), rng.choice(weyl)], cap=1500))
        except GroupGenerationError:
            continue
    return out


class TestTableAgainstBruteForce:
    def test_closure_and_cap(self, random_subgroups):
        for group in random_subgroups:
            gens = list(group.generators)
            assert group.elements == _reference_closure(gens)
            assert list(group) == sorted(group.elements)
            assert generate(gens, cap=group.order).order == group.order
            with pytest.raises(GroupGenerationError):
                generate(gens, cap=group.order - 1)

    def test_centralizer_and_normalizer(self, random_subgroups):
        rng = random.Random(5)
        for group in random_subgroups:
            sub = generate([rng.choice(group)])
            cent = {p for p in group if all(p * h == h * p for h in sub.generators)}
            norm = {p for p in group if _conjugates_into(p, sub, sub)}
            assert centralizer(group, sub).elements == cent
            assert normalizer(group, sub).elements == norm

    def test_stabilizers(self, random_subgroups):
        rng = random.Random(6)
        for group in random_subgroups:
            pts = rng.sample(range(1, 28), 2)
            pointwise = {p for p in group if all(p(x) == x for x in pts)}
            setwise = {p for p in group if {p(x) for x in pts} == set(pts)}
            assert pointwise_stabilizer(group, pts).elements == pointwise
            assert setwise_stabilizer(group, pts).elements == setwise

    def test_subconjugacy_witness_is_lexicographic_minimum(self, random_subgroups):
        rng = random.Random(7)
        for group in random_subgroups:
            sub = generate([rng.choice(group)])
            target = conjugate_subgroup(sub, rng.choice(group))
            found, witness = is_subconjugate(group, sub, target)
            witnesses = [p for p in group if _conjugates_into(p, sub, target)]
            assert found and witness == min(witnesses)
