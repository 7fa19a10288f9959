"""Exact geometry of the 27 lines on the Fermat cubic: the catalog itself,
the incidence (Schlaefli) graph, its automorphism group, the coordinate-
permutation action, skew sixes, double sixes, and combinatorial markings.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Sequence

import numpy as np

from . import fermat_data
from .exact import Cyc, ONE, ZERO, ZETA, ZETA5, Poly4, _gauss_jordan
from .perm import FiniteGroup, Permutation, generate, parse_cycles

N_LINES = 27

_SYMBOLS = {"0": ZERO, "1": ONE, "-1": -ONE, "z": ZETA, "Z": ZETA5}
_PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class ProjectiveLine:
    """Row span of a 2x4 matrix over Q(zeta), stored in reduced row echelon
    form so that equal lines compare (and hash) equal."""

    __slots__ = ("span", "_plucker")

    def __init__(self, row0: Sequence, row1: Sequence):
        rows, pivots, _ = _gauss_jordan([[Cyc.coerce(x) for x in row] for row in (row0, row1)])
        if len(pivots) != 2:
            raise ValueError("span matrix does not have rank 2")
        self.span = (tuple(rows[0]), tuple(rows[1]))
        self._plucker = None

    def rows(self) -> tuple[tuple[Cyc, ...], tuple[Cyc, ...]]:
        return self.span

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjectiveLine) and self.span == other.span

    def __hash__(self) -> int:
        return hash(self.span)

    def plucker(self) -> tuple[Cyc, ...]:
        """Plucker coordinates p_ij = r0_i r1_j - r0_j r1_i of the reduced
        span, for ij = 01, 02, 03, 12, 13, 23; computed once per line."""
        if self._plucker is None:
            r0, r1 = self.span
            self._plucker = tuple(r0[i] * r1[j] - r0[j] * r1[i] for i, j in _PLUCKER_PAIRS)
        return self._plucker

    def pairing(self, other: "ProjectiveLine") -> Cyc:
        """The Plucker pairing p01 q23 - p02 q13 + p03 q12 + p12 q03 - p13 q02
        + p23 q01: the Laplace expansion along its first two rows of the 4x4
        determinant stacking both reduced spans."""
        p, q = self.plucker(), other.plucker()
        return (p[0] * q[5] - p[1] * q[4] + p[2] * q[3]
                + p[3] * q[2] - p[4] * q[1] + p[5] * q[0])

    def meets(self, other: "ProjectiveLine") -> bool:
        """Two distinct lines in P^3 meet iff their Plucker pairing vanishes."""
        if self == other:
            raise ValueError("meet is only defined for distinct lines")
        return not self.pairing(other)

    def permute_coordinates(self, sigma: Sequence[int]) -> "ProjectiveLine":
        """Push the line forward along the coordinate permutation sigma
        (coordinate i of a point moves to slot sigma[i])."""
        rows = []
        for row in self.span:
            new = [ZERO] * 4
            for i in range(4):
                new[sigma[i]] = row[i]
            rows.append(new)
        return ProjectiveLine(rows[0], rows[1])

    def to_complex(self, conjugate_embedding: bool = False):
        return [
            [x.to_complex(conjugate_embedding) for x in row] for row in self.span
        ]

    def __repr__(self) -> str:
        return f"ProjectiveLine({self.span[0]!r}, {self.span[1]!r})"


@lru_cache(maxsize=1)
def fermat_catalog() -> tuple[ProjectiveLine, ...]:
    """The 27 exact lines, indexed 1..27 (index 0 of the tuple is line 1)."""
    lines = []
    for p, q in fermat_data.FERMAT_LINE_BASIS:
        lines.append(ProjectiveLine([_SYMBOLS[s] for s in p], [_SYMBOLS[s] for s in q]))
    return tuple(lines)


def catalog_line(label: int) -> ProjectiveLine:
    return fermat_catalog()[label - 1]


@lru_cache(maxsize=1)
def _catalog_index() -> dict[ProjectiveLine, int]:
    return {line: i + 1 for i, line in enumerate(fermat_catalog())}


class IncidenceGraph:
    """27-vertex graph with an edge where two catalog lines intersect."""

    __slots__ = ("masks",)

    def __init__(self, masks: Sequence[int]):
        self.masks = tuple(masks)

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.masks[i - 1] >> (j - 1) & 1)

    def neighbors(self, i: int) -> list[int]:
        return [j + 1 for j in range(N_LINES) if self.masks[i - 1] >> j & 1]

    def degree(self, i: int) -> int:
        return bin(self.masks[i - 1]).count("1")

    def matrix(self) -> list[list[int]]:
        return [
            [1 if self.adjacent(i, j) else 0 for j in range(1, N_LINES + 1)]
            for i in range(1, N_LINES + 1)
        ]

    def strongly_regular_parameters(self) -> tuple[int, int, int, int]:
        """(n, k, lambda, mu); raises if the graph is not strongly regular."""
        degs = {self.degree(i) for i in range(1, N_LINES + 1)}
        if len(degs) != 1:
            raise ValueError("graph is not regular")
        k = degs.pop()
        lam, mu = set(), set()
        for i in range(1, N_LINES + 1):
            for j in range(i + 1, N_LINES + 1):
                common = bin(self.masks[i - 1] & self.masks[j - 1]).count("1")
                (lam if self.adjacent(i, j) else mu).add(common)
        if len(lam) != 1 or len(mu) != 1:
            raise ValueError("graph is not strongly regular")
        return (N_LINES, k, lam.pop(), mu.pop())


@lru_cache(maxsize=1)
def incidence_graph() -> IncidenceGraph:
    cat = fermat_catalog()
    masks = [0] * N_LINES
    for i in range(N_LINES):
        for j in range(i + 1, N_LINES):
            if cat[i].meets(cat[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return IncidenceGraph(masks)


def weyl_generators() -> list[Permutation]:
    return [parse_cycles(s) for s in fermat_data.WEYL_GENERATOR_CYCLES]


@lru_cache(maxsize=1)
def weyl_group() -> FiniteGroup:
    """The full incidence-preserving group, order 51840, generated from the
    reference table."""
    return generate(weyl_generators())


def graph_automorphisms(graph: IncidenceGraph | None = None) -> FiniteGroup:
    """Enumerate all adjacency-preserving bijections of the 27 lines.

    An automorphism is fixed by the image of a reference ordered skew six
    (the lexicographically first one): every other vertex must go to the
    vertex with the same neighborhood signature against the image six.  All
    ordered skew sixes are built column by column, every forced extension is
    read off in one pass, and each candidate is then checked for bijectivity
    and edge-for-edge with uint32 adjacency masks.
    """
    g = graph or incidence_graph()
    masks = np.array(g.masks, dtype=np.uint32)
    bit = np.uint32(1) << np.arange(N_LINES, dtype=np.uint32)
    adjacent = (masks[:, None] & bit) != 0

    sixes = np.zeros((1, 0), dtype=np.intp)
    free = np.array([bit.sum()], dtype=np.uint32)  # vertices skew to the prefix
    for _ in range(6):
        prefix, v = np.nonzero(free[:, None] & bit)
        sixes = np.column_stack([sixes[prefix], v])
        free = free[prefix] & ~masks[v] & ~bit[v]
    if not len(sixes):
        raise ValueError("graph has no skew six")

    # signature of each vertex: which members of the six it meets; the six
    # themselves get the out-of-range code 64
    n, rows = len(sixes), np.arange(len(sixes))[:, None]
    sig = np.zeros((n, N_LINES), dtype=np.uint8)
    for i in range(6):
        sig |= adjacent[sixes[:, i]].view(np.uint8) << i
    sig[rows, sixes] = 64
    ref, ref_sig = sixes[0], sig[0]
    others = np.flatnonzero(ref_sig < 64)
    vertices = np.arange(N_LINES, dtype=np.uint8)
    by_sig = np.full((n, 65), N_LINES, dtype=np.uint8)
    by_sig[rows, sig] = vertices
    # a signature shared by two vertices outside the six fails the round trip
    ok = np.all((np.take_along_axis(by_sig, sig, axis=1) == vertices) | (sig == 64), axis=1)
    perm = np.empty((n, N_LINES), dtype=np.uint8)
    perm[:, ref] = sixes
    perm[:, others] = by_sig[:, ref_sig[others]]
    ok &= np.all(perm < N_LINES, axis=1)  # every signature of the reference is matched
    perm = perm[ok]
    images = bit[perm]
    keep = np.bitwise_or.reduce(images, axis=1) == bit.sum()  # a bijection
    for x in range(N_LINES):
        neighbors = np.bitwise_or.reduce(images[:, adjacent[x]], axis=1)
        keep &= neighbors == masks[perm[:, x]]
    return FiniteGroup.from_table(perm[keep])


# ---------------------------------------------------------------------------
# Coordinate-permutation (S4) action
# ---------------------------------------------------------------------------


def coordinate_permutation_action(sigma: Sequence[int]) -> Permutation:
    """Line permutation induced by pushing coordinates forward along sigma
    (a permutation of (0,1,2,3)); images are re-identified in the catalog by
    exact span equality."""
    if sorted(sigma) != [0, 1, 2, 3]:
        raise ValueError("sigma must be a permutation of (0,1,2,3)")
    idx = _catalog_index()
    images = []
    for line in fermat_catalog():
        moved = line.permute_coordinates(sigma)
        label = idx.get(moved)
        if label is None:
            raise ValueError("coordinate image not in catalog; embedding mismatch")
        images.append(label)
    return Permutation(images)


@lru_cache(maxsize=1)
def coordinate_action_table() -> dict[tuple[int, int, int, int], Permutation]:
    """All 24 coordinate permutations and their induced line permutations."""
    return {
        sigma: coordinate_permutation_action(sigma)
        for sigma in permutations(range(4))
    }


def s4_generators() -> list[Permutation]:
    return [
        parse_cycles(fermat_data.COORDINATE_TRANSPOSITION_CYCLES),
        parse_cycles(fermat_data.COORDINATE_FOUR_CYCLE_CYCLES),
    ]


@lru_cache(maxsize=1)
def s4_group() -> FiniteGroup:
    return generate(s4_generators())


def coordinate_preimages(target: Permutation) -> list[tuple[int, int, int, int]]:
    """Coordinate permutations inducing the given line permutation."""
    return [s for s, p in coordinate_action_table().items() if p == target]


def coordinate_parity(sigma: Sequence[int]) -> int:
    """+1 for even, -1 for odd coordinate permutations."""
    sign = 1
    for i in range(4):
        for j in range(i + 1, 4):
            if sigma[i] > sigma[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# Klein generators tied to the tritangent {25, 26, 27}
# ---------------------------------------------------------------------------


def tritangent_klein_generators() -> dict[str, Permutation]:
    return {
        "sigma1": parse_cycles(fermat_data.SIGMA1_CYCLES),
        "sigma2": parse_cycles(fermat_data.SIGMA2_CYCLES),
        "tau1": parse_cycles(fermat_data.TAU1_CYCLES),
        "tau2": parse_cycles(fermat_data.TAU2_CYCLES),
    }


def monodromy_klein_elements() -> dict[str, Permutation]:
    """The symmetric-monodromy Klein 4-group, keyed by generator words.

    The three non-identity elements are tau1, sigma1*tau2 and sigma1*tau1*tau2;
    the factors commute so the composition order does not matter.
    """
    k = tritangent_klein_generators()
    s1, t1, t2 = k["sigma1"], k["tau1"], k["tau2"]
    return {
        "id": Permutation.identity(),
        "tau1": t1,
        "sigma1*tau2": s1 * t2,
        "sigma1*tau1*tau2": s1 * (t1 * t2),
    }


@lru_cache(maxsize=1)
def monodromy_klein_group() -> FiniteGroup:
    els = monodromy_klein_elements()
    return generate([els["tau1"], els["sigma1*tau2"]])


# ---------------------------------------------------------------------------
# Skew sixes, double sixes, markings
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def skew_sixes() -> tuple[tuple[int, ...], ...]:
    """All unordered sextuples of pairwise non-meeting lines (labels sorted)."""
    masks = incidence_graph().masks
    all_mask = (1 << N_LINES) - 1
    nonadj = [all_mask & ~masks[v] & ~(1 << v) for v in range(N_LINES)]
    out: list[tuple[int, ...]] = []

    def grow(chosen: list[int], cand: int):
        if len(chosen) == 6:
            out.append(tuple(x + 1 for x in chosen))
            return
        c = cand
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            grow(chosen + [v], cand & nonadj[v] & ~((1 << (v + 1)) - 1))

    grow([], all_mask)
    return tuple(sorted(out))


def marking_from_six(six: Sequence[int]) -> dict[int, tuple]:
    """Total map from line labels to divisor-class tags, from an ordered skew
    six assigned the tags ('e', 1) .. ('e', 6).

    A remaining line meeting exactly the i-th and j-th lines of the six gets
    ('c', i, j); a line meeting all but the i-th gets ('b', i).  Consistency
    of the tags' intersection numbers with graph adjacency is enforced.
    """
    six = tuple(six)
    if len(six) != 6 or len(set(six)) != 6:
        raise ValueError("need six distinct line labels")
    g = incidence_graph()
    for a in range(6):
        for b in range(a + 1, 6):
            if g.adjacent(six[a], six[b]):
                raise ValueError(f"lines {six[a]} and {six[b]} meet; not a skew six")
    tags: dict[int, tuple] = {}
    for i, label in enumerate(six, start=1):
        tags[label] = ("e", i)
    for label in range(1, N_LINES + 1):
        if label in tags:
            continue
        met = [i for i, s in enumerate(six, start=1) if g.adjacent(label, s)]
        if len(met) == 2:
            tags[label] = ("c", met[0], met[1])
        elif len(met) == 5:
            missing = ({1, 2, 3, 4, 5, 6} - set(met)).pop()
            tags[label] = ("b", missing)
        else:
            raise ValueError(
                f"line {label} meets {len(met)} of the six; incidence graph is broken"
            )
    if len(set(tags.values())) != N_LINES:
        raise ValueError("marking is not a bijection onto the 27 classes")
    for i in range(1, N_LINES + 1):
        for j in range(i + 1, N_LINES + 1):
            expected = tag_intersection(tags[i], tags[j]) == 1
            if expected != g.adjacent(i, j):
                raise ValueError("marking inconsistent with incidence graph")
    return tags


def tag_intersection(t1: tuple, t2: tuple) -> int:
    """Combinatorial intersection number of two distinct divisor-class tags
    (1 = the lines meet, 0 = skew)."""
    if t1 == t2:
        return -1
    kind = (t1[0], t2[0])
    if kind == ("e", "e"):
        return 0
    if kind in (("e", "c"), ("c", "e")):
        e, c = (t1, t2) if t1[0] == "e" else (t2, t1)
        return 1 if e[1] in c[1:] else 0
    if kind in (("e", "b"), ("b", "e")):
        e, b = (t1, t2) if t1[0] == "e" else (t2, t1)
        return 0 if e[1] == b[1] else 1
    if kind == ("c", "c"):
        return 1 if not (set(t1[1:]) & set(t2[1:])) else 0
    if kind in (("c", "b"), ("b", "c")):
        c, b = (t1, t2) if t1[0] == "c" else (t2, t1)
        return 1 if b[1] in c[1:] else 0
    if kind == ("b", "b"):
        return 0
    raise ValueError(f"unknown tags {t1}, {t2}")


def partner_six(six: Sequence[int]) -> tuple[int, ...]:
    """The complementary six of a double six: the i-th output line is the one
    whose class is ('b', i), i.e. the unique line meeting all of the input six
    except its i-th member."""
    tags = marking_from_six(tuple(six))
    by_tag = {t: label for label, t in tags.items()}
    return tuple(by_tag[("b", i)] for i in range(1, 7))


def double_sixes() -> list[frozenset[tuple[int, ...]]]:
    """Unordered pairs {six, partner six} (36 of them on a cubic surface)."""
    seen: dict[frozenset, frozenset] = {}
    for six in skew_sixes():
        partner = tuple(sorted(partner_six(six)))
        key = frozenset([six, partner])
        seen[frozenset(six) | frozenset(partner)] = key
    return sorted(seen.values(), key=lambda fs: sorted(fs))


# ---------------------------------------------------------------------------
# Exact identities used by verification
# ---------------------------------------------------------------------------


def line_restrictions_vanish(poly: Poly4, label: int) -> bool:
    """Whether the polynomial restricts to the zero binary form on a line."""
    line = catalog_line(label)
    return all(c.is_zero() for c in poly.restrict_to_line(line.span[0], line.span[1]))


def tritangent_span_rank() -> int:
    """Rank of the 6x4 matrix stacking the tritangent lines' spans."""
    rows = []
    for label in fermat_data.ORBIT_TRITANGENT:
        rows.extend(catalog_line(label).span)
    return len(_gauss_jordan(rows)[1])


def catalog_records() -> list[dict]:
    """Serializable catalog dump: basis points as {a, b} rational pairs."""
    def enc(row):
        return [{"a": str(x.a), "b": str(x.b)} for x in row]

    cat = fermat_catalog()
    out = []
    for i, line in enumerate(cat, start=1):
        orbit = (
            "first" if i in fermat_data.ORBIT_FIRST
            else "second" if i in fermat_data.ORBIT_SECOND
            else "tritangent"
        )
        out.append(
            {"index": i, "basis_points": [enc(line.span[0]), enc(line.span[1])], "s4_orbit": orbit}
        )
    return out


def line_from_record(record: dict) -> ProjectiveLine:
    """Rebuild an exact line from a catalog_records entry."""
    from fractions import Fraction

    rows = [
        [Cyc(Fraction(entry["a"]), Fraction(entry["b"])) for entry in point]
        for point in record["basis_points"]
    ]
    return ProjectiveLine(rows[0], rows[1])
