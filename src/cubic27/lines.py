"""Exact geometry of the 27 lines on the Fermat cubic: the catalog itself,
the incidence (Schlaefli) graph, its automorphism group, the coordinate-
permutation action, skew sixes and double sixes.

The graph is one read-only (27, 27) 0/1 integer adjacency array A, and every
consumer reads A directly.  Skew sixes are enumerated once, on A, and paired
into double sixes once.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from . import fermat_data
from .exact import Cyc, ONE, ZERO, ZETA, ZETA5, Poly4, _gauss_jordan
from .perm import Closure, FiniteGroup, Permutation, generate, parse_cycles

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
def incidence_graph() -> np.ndarray:
    """The read-only (27, 27) 0/1 adjacency array A: A[i - 1, j - 1] = 1
    where catalog lines i and j meet."""
    cat = fermat_catalog()
    adj = np.zeros((N_LINES, N_LINES), dtype=np.int64)
    for i, j in combinations(range(N_LINES), 2):
        adj[i, j] = adj[j, i] = cat[i].meets(cat[j])
    adj.setflags(write=False)
    return adj


def strongly_regular_parameters(adj: np.ndarray) -> tuple[int, int, int, int]:
    """(n, k, lambda, mu) of a graph, read from A and A^2: the degrees, and
    the common-neighbor counts of adjacent and of distinct non-adjacent
    pairs; raises ValueError if the graph is not strongly regular."""
    n = len(adj)
    common = adj @ adj
    distinct = ~np.eye(n, dtype=bool)
    k, lam, mu = (
        set(x.tolist())
        for x in (adj.sum(axis=1), common[(adj == 1) & distinct], common[(adj == 0) & distinct])
    )
    if len(k) != 1 or len(lam) != 1 or len(mu) != 1:
        raise ValueError("graph is not strongly regular")
    return (n, k.pop(), lam.pop(), mu.pop())


def weyl_generators() -> list[Permutation]:
    return [parse_cycles(s) for s in fermat_data.WEYL_GENERATOR_CYCLES]


@lru_cache(maxsize=1)
def weyl_group() -> FiniteGroup:
    """The full incidence-preserving group, order 51840, generated from the
    reference table."""
    return generate(weyl_generators())


def graph_automorphisms(graph: np.ndarray | None = None) -> FiniteGroup:
    """The automorphism group of a graph on the 27 lines (an adjacency array,
    the catalog's by default), by orbit search.

    An automorphism is fixed by the image of a reference ordered skew six
    (the lexicographically first one): every other vertex must go to the
    vertex with the same neighborhood signature against the image six.  The
    reference six must therefore give the other 21 vertices distinct
    signatures; ValueError otherwise.

    The ordered skew sixes, each skew six in its 720 slot orders, are walked
    in lexicographic order, and the first one not yet covered gives one
    candidate map.  An automorphism joins the group H found so far (one
    incremental closure), and every image of the reference six under the
    grown H is covered.  A map that is not an automorphism covers the whole
    orbit ``H six``: no six in it is the image of the reference under an
    automorphism.  Once every six is covered, the images of the reference
    under H are all the sixes it has under the automorphism group, so H is
    that group.  The graph alone decides the result; no known group is
    consulted.
    """
    adj = incidence_graph() if graph is None else np.asarray(graph)
    rows = _skew_sixes(adj) - 1
    if not len(rows):
        raise ValueError("graph has no skew six")
    place = N_LINES ** np.arange(5, -1, -1)  # base-27 codes order ordered sixes lexicographically
    sixes = rows[:, list(permutations(range(6)))].reshape(-1, 6)
    sixes = sixes[np.argsort(sixes @ place)]
    codes = sixes @ place

    def outside(six: np.ndarray) -> np.ndarray:
        mask = np.ones(N_LINES, dtype=bool)
        mask[six] = False
        return np.flatnonzero(mask)

    ref, others = sixes[0], outside(sixes[0])
    weight = 1 << np.arange(6)

    def signatures(six: np.ndarray) -> np.ndarray:
        """Which members of the six each vertex meets, as a 6-bit code."""
        return adj[:, six] @ weight

    ref_sig = signatures(ref)[others]
    if len(set(ref_sig.tolist())) < len(others):
        raise ValueError("reference skew six leaves two vertices with the same signature")

    def automorphism(six: np.ndarray) -> np.ndarray | None:
        """The candidate sending the reference six to ``six``, if it is an automorphism."""
        by_sig = np.full(64, N_LINES, dtype=np.intp)
        rest = outside(six)
        by_sig[signatures(six)[rest]] = rest
        images = np.empty(N_LINES, dtype=np.intp)
        images[ref] = six
        images[others] = by_sig[ref_sig]
        if not np.bincount(images, minlength=N_LINES + 1)[:N_LINES].all():  # not a bijection
            return None
        if not np.array_equal(adj[np.ix_(images, images)], adj):
            return None
        return images.astype(np.uint8)

    covered = np.zeros(len(sixes), dtype=bool)

    def cover(images: np.ndarray) -> None:
        covered[np.searchsorted(codes, images @ place)] = True

    closure = Closure()
    covered[0] = True  # the identity; it is no generator
    i = 0
    while True:
        i += int(np.argmin(covered[i:]))  # the first six not yet covered
        if covered[i]:
            break
        images = automorphism(sixes[i])
        if images is None:
            cover(closure.table[:, sixes[i]])
        else:
            grown = len(closure.table)
            closure.add(images)
            cover(closure.table[grown:, ref])
    return closure.group()


# ---------------------------------------------------------------------------
# Coordinate-permutation (S4) action
# ---------------------------------------------------------------------------


def _scaled_to_leading_one(p: Sequence[Cyc]) -> tuple[Cyc, ...]:
    """A nonzero Plucker vector scaled so its first nonzero coordinate is 1:
    one representative per line."""
    lead = next(x for x in p if x)
    if lead == ONE:
        return tuple(p)
    inv = 1 / lead
    return tuple(x * inv if x else x for x in p)


def coordinate_permutation_action(sigma: Sequence[int]) -> Permutation:
    """Line permutation induced by pushing coordinates forward along sigma
    (a permutation of (0,1,2,3); coordinate i of a point moves to slot
    sigma[i]).

    The pushforward permutes Plucker coordinates with signs:
    p'_{sigma(i) sigma(j)} = p_ij, negated when sigma(i) > sigma(j).  Each
    image is found exactly among the catalog's Plucker vectors up to scale.
    """
    if sorted(sigma) != [0, 1, 2, 3]:
        raise ValueError("sigma must be a permutation of (0,1,2,3)")
    slot = {pair: k for k, pair in enumerate(_PLUCKER_PAIRS)}
    moves = [
        (slot[min(sigma[i], sigma[j]), max(sigma[i], sigma[j])], sigma[i] > sigma[j])
        for i, j in _PLUCKER_PAIRS
    ]
    cat = fermat_catalog()
    labels = {_scaled_to_leading_one(line.plucker()): i for i, line in enumerate(cat, start=1)}
    images = []
    for line in cat:
        moved = [ZERO] * 6
        for x, (k, negate) in zip(line.plucker(), moves):
            moved[k] = -x if negate else x
        label = labels.get(_scaled_to_leading_one(moved))
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
# Skew sixes and double sixes
# ---------------------------------------------------------------------------


def _skew_sixes(adj: np.ndarray) -> np.ndarray:
    """The skew sixes of a graph as increasing label rows, in lexicographic
    order: a frontier of increasing skew prefixes, each extended by every
    larger vertex adjacent to none of its members."""
    n = len(adj)
    later = np.arange(n) > np.arange(n)[:, None]  # later[v] marks the vertices after v
    skew_after = (adj == 0) & later
    sixes = np.zeros((1, 0), dtype=np.intp)
    free = np.ones((1, n), dtype=bool)  # the vertices that may extend each prefix
    for _ in range(6):
        prefix, v = np.nonzero(free)
        sixes = np.column_stack([sixes[prefix], v])
        free = free[prefix] & skew_after[v]
    return sixes + 1


@lru_cache(maxsize=1)
def skew_sixes() -> tuple[tuple[int, ...], ...]:
    """All unordered sextuples of pairwise non-meeting lines (labels sorted),
    in lexicographic order."""
    return tuple(map(tuple, _skew_sixes(incidence_graph()).tolist()))


def _member_rows(six: Sequence[int]) -> np.ndarray:
    """The rows of A that hold six line labels; ValueError unless they are
    six distinct labels in 1..27."""
    rows = np.asarray(six, dtype=np.intp) - 1
    if rows.shape != (6,) or len(set(rows.tolist())) != 6 or rows.min() < 0 or rows.max() >= N_LINES:
        raise ValueError(f"need six distinct line labels in 1..{N_LINES}, got {tuple(six)}")
    return rows


def partner_six(six: Sequence[int]) -> tuple[int, ...]:
    """The complementary six of a double six: the i-th output line is the
    unique line meeting every member of the input six except its i-th."""
    rows = _member_rows(six)
    meets = incidence_graph()[:, rows]
    if meets[rows].any():
        raise ValueError(f"lines {tuple(six)} are not a skew six")
    # found[i, k]: line k + 1 meets every member but the i-th
    found = (meets == 1 - np.eye(6, dtype=np.int64)[:, None, :]).all(axis=2)
    if not np.array_equal(found.sum(axis=1), np.ones(6)):
        raise ValueError("incidence graph is broken: no unique partner line")
    return tuple((found.argmax(axis=1) + 1).tolist())


@lru_cache(maxsize=1)
def double_sixes() -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The 36 double sixes as (six, partner) pairs, in the order of six: six
    is the smaller sorted half and partner the other half in partner_six's
    order, so its i-th line meets every member of six but the i-th."""
    pairs = ((six, partner_six(six)) for six in skew_sixes())
    return tuple((six, partner) for six, partner in pairs if six < tuple(sorted(partner)))


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
