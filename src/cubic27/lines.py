"""Exact geometry of the 27 lines on the Fermat cubic: the catalog itself,
the incidence (Schlaefli) graph, its automorphism group, the coordinate-
permutation action, skew sixes and double sixes.

Every catalog entry is an Eisenstein integer a + b*zeta, so the catalog is
one read-only (27, 2, 4, 2) int64 array of (a, b) pairs, and its Plucker
vectors one (27, 6, 2) array; the only arithmetic on them is the Eisenstein
product, which also gives the rank of the tritangent lines' stacked spans
through exact's Leibniz minors.  The incidence graph is one pairing product
over all pairs, and each coordinate permutation's line permutation is read
off the nearest catalog lines in floating point and proven by one exact
proportionality test of the pushed-forward Plucker vectors against those
lines.

The graph is one read-only (27, 27) 0/1 integer adjacency array A, and every
consumer reads A directly.  Skew sixes are enumerated once, on A, and their
partners are read off A for all 72 at once.  The 36 reflections of W(E6) in
its positive roots are one table read off the 36 double sixes, each row
swapping the two halves of one.  The automorphism group of A, W(E6), is
read off the ordered skew sixes, on which it acts simply transitively
(Dolgachev, Classical Algebraic Geometry, 2012, ch. 9): no closure and no
search.
"""

from __future__ import annotations

import bisect
from functools import lru_cache
from itertools import permutations
from typing import Sequence

import numpy as np

from . import fermat_data
from .exact import ZETA_COMPLEX, _rank, _restrict, _times
from .perm import FiniteGroup, Permutation, generate, parse_cycles

N_LINES = 27

# catalog entries as (a, b) for a + b*zeta; "Z" is zeta^5 = 1 - zeta
_ENTRIES = {"0": (0, 0), "1": (1, 0), "-1": (-1, 0), "z": (0, 1), "Z": (1, -1)}
_PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PAIRING_SIGNS = np.array([1, -1, 1, 1, -1, 1])


def _plucker(spans: np.ndarray) -> np.ndarray:
    """The (..., 6, 2) Plucker coordinates p_ij = r0_i r1_j - r0_j r1_i,
    ij = 01, 02, 03, 12, 13, 23, of (..., 2, 4, 2) spans over Z[zeta];
    ValueError for a span of rank below 2, whose vector is zero."""
    i, j = np.array(_PLUCKER_PAIRS).T
    r0, r1 = spans[..., 0, :, :], spans[..., 1, :, :]
    p = _times(r0[..., i, :], r1[..., j, :]) - _times(r0[..., j, :], r1[..., i, :])
    if not p.any(axis=(-2, -1)).all():
        raise ValueError("span matrix does not have rank 2")
    return p


def _pairing(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The Plucker pairing p01 q23 - p02 q13 + p03 q12 + p12 q03 - p13 q02
    + p23 q01, broadcast over leading axes: the Laplace expansion along its
    first two rows of the 4x4 determinant stacking both spans."""
    return (_PAIRING_SIGNS[:, None] * _times(p, q[..., ::-1, :])).sum(axis=-2)


@lru_cache(maxsize=1)
def fermat_catalog() -> np.ndarray:
    """The 27 exact lines as one read-only (27, 2, 4, 2) int64 array: line
    (label - 1), basis row, coordinate, and (a, b) for the entry a + b*zeta.
    Each span is the reference data's, already in reduced row echelon form."""
    cat = np.array(
        [[[_ENTRIES[s] for s in row] for row in line] for line in fermat_data.FERMAT_LINE_BASIS],
        dtype=np.int64,
    )
    cat.setflags(write=False)
    return cat


@lru_cache(maxsize=1)
def _catalog_plucker() -> np.ndarray:
    """The read-only (27, 6, 2) Plucker vectors of the catalog."""
    p = _plucker(fermat_catalog())
    p.setflags(write=False)
    return p


@lru_cache(maxsize=1)
def incidence_graph() -> np.ndarray:
    """The read-only (27, 27) 0/1 adjacency array A: A[i - 1, j - 1] = 1
    where distinct catalog lines i and j meet, i.e. their Plucker pairing
    vanishes."""
    p = _catalog_plucker()
    adj = (~_pairing(p[:, None], p[None, :]).any(axis=-1)).astype(np.int64)
    np.fill_diagonal(adj, 0)
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
    """W(E6), order 51840: the catalog graph's automorphisms, with the
    declared generators ``weyl_generators()`` (members; a test closes them)."""
    return graph_automorphisms(generators=weyl_generators())


def graph_automorphisms(
    graph: np.ndarray | None = None, generators: Sequence[Permutation] | None = None
) -> FiniteGroup:
    """The automorphism group of a graph on the 27 lines (an adjacency array,
    the catalog's by default), by one orbit-stabilizer build over its ordered
    skew sixes, generated by ``generators`` or else the table's
    ``small_generating_set``.

    An automorphism is fixed by its image of a reference ordered skew six
    (the lexicographically first): every other vertex goes to the vertex with
    its neighborhood signature against the image six, so the reference six
    must give the other 21 vertices distinct signatures (ValueError
    otherwise).  The candidate map pairs the other vertices in signature
    order and is row-checked: it must carry every row of A onto a row.

    The 720 orderings of the reference six give H, the automorphisms fixing
    it setwise, and their slot action Sigma_H.  The automorphisms onto
    another skew six s form a coset g_s H, whose images of the reference are
    one coset pi Sigma_H of orderings of s, so one candidate per coset is
    checked and the first that passes is g_s.  The table is the union of the
    g_s H, sorted; the graph alone decides it.
    """
    adj = (incidence_graph() if graph is None else np.asarray(graph)) != 0
    rows = _skew_sixes(adj) - 1
    if not len(rows):
        raise ValueError("graph has no skew six")
    ref = rows[0]
    others = np.flatnonzero(~np.isin(np.arange(N_LINES), ref))
    weight = (1 << np.arange(6)).astype(np.uint8)
    bits = 2.0 ** np.arange(N_LINES)
    masks = adj @ bits
    ref_sig = adj[np.ix_(others, ref)] @ weight
    if len(set(ref_sig.tolist())) < len(others):
        raise ValueError("reference skew six leaves two vertices with the same signature")
    by_sig = others[np.argsort(ref_sig)]

    def automorphisms(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The candidate maps (uint8 image rows) sending the reference six to
        each ordered six of ``targets`` (m, 6), and which are automorphisms."""
        sig = (adj[targets] * weight[:, None]).sum(axis=1, dtype=np.uint8)  # (m, 27)
        sig[np.arange(len(targets))[:, None], targets] = 64  # sorts the members last
        images = np.empty((len(targets), N_LINES), dtype=np.uint8)
        images[:, ref] = targets
        images[:, by_sig] = np.argsort(sig, axis=1)[:, : len(others)]  # a bijection
        # row x moved, sum_y A[x, y] 2**p(y), is row p(x) as a 27-bit mask
        return images, (bits[images] @ adj.T == masks[images]).all(axis=1)

    orders = np.array(list(permutations(range(6))), dtype=np.intp)  # lexicographic
    images, ok = automorphisms(ref[orders])
    stabilizer, slots = images[ok], orders[ok]
    # each coset pi Sigma_H by its first ordering; base-6 codes ascend with them
    place = 6 ** np.arange(5, -1, -1)
    codes = orders @ place
    covered = np.zeros(len(orders), dtype=bool)
    firsts = []
    for i in range(len(orders)):
        if not covered[i]:
            firsts.append(i)
            covered[codes.searchsorted(orders[i][slots] @ place)] = True

    found = [stabilizer[:1]]  # g_ref, the identity
    pending = rows[1:]
    for i in firsts:
        if not len(pending):
            break
        images, ok = automorphisms(pending[:, orders[i]])
        found.append(images[ok])
        pending = pending[~ok]
    table = np.concatenate(found)[:, stabilizer].reshape(-1, N_LINES)
    table = table.take(np.argsort(_prefix_codes(table)), axis=0)
    if generators is None:
        return FiniteGroup.from_table(table)
    return FiniteGroup(generators=tuple(generators), table=table)


def _prefix_codes(table: np.ndarray) -> np.ndarray:
    """The int64 base-27 codes of a table's first 13 columns (27**13 < 2**63),
    one column at a time: no (rows, 13) int64 copy."""
    code = np.zeros(len(table), dtype=np.int64)
    for column in table[:, :13].T:
        code = code * N_LINES + column
    return code


# ---------------------------------------------------------------------------
# Coordinate-permutation (S4) action
# ---------------------------------------------------------------------------


def _pushforward_labels(plucker: np.ndarray, sigmas: Sequence[Sequence[int]]) -> np.ndarray:
    """For each coordinate permutation sigma of ``sigmas``, the labels of the
    lines of a Plucker table that pushing coordinates forward along sigma
    (coordinate i of a point moves to slot sigma[i]) sends lines 1..n to:
    (len(sigmas), n).

    The pushforward permutes Plucker coordinates with signs:
    p'_{sigma(i) sigma(j)} = p_ij, negated when sigma(i) > sigma(j).  The
    candidates for an image are the table lines whose unit Plucker vectors
    it overlaps up to rounding, one line for a table of distinct lines.
    Only the candidates of all the images are then tested exactly, in one
    product: the nonzero p' is proportional to the table's q exactly when
    p'_k q_l = q_k p'_l for every k, l being q's leading coordinate.
    ValueError unless each image is exactly one line of the table.
    """
    slot = {pair: k for k, pair in enumerate(_PLUCKER_PAIRS)}
    dest = np.array(
        [[slot[min(s[i], s[j]), max(s[i], s[j])] for i, j in _PLUCKER_PAIRS] for s in sigmas]
    ).reshape(-1, 6)
    sign = np.array(
        [[1 if s[i] < s[j] else -1 for i, j in _PLUCKER_PAIRS] for s in sigmas]
    ).reshape(-1, 6)
    unit = plucker[..., 0] + plucker[..., 1] * ZETA_COMPLEX
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    # (sigma, image, line) triples whose float overlap is 1 up to rounding
    which, image, line = [], [], []
    conj, columns = unit.conj(), unit.T
    for s in range(len(sigmas)):
        overlap = np.abs((conj * sign[s]) @ columns[dest[s]])
        i, j = np.nonzero(overlap > 1 - 1e-9)
        which.append(np.full(len(i), s))
        image.append(i)
        line.append(j)
    which, image, line = (np.concatenate(x) for x in (which, image, line))
    moved = np.empty((len(image), 6, 2), dtype=plucker.dtype)
    moved[np.arange(len(image))[:, None], dest[which]] = plucker[image] * sign[which][..., None]
    lead = plucker.any(axis=-1).argmax(axis=-1)[line]
    q_lead = plucker[line, lead][:, None]
    exact = (
        _times(moved, q_lead) == _times(plucker[line], moved[np.arange(len(image)), lead][:, None])
    ).all(axis=(-2, -1))
    found = np.zeros((len(sigmas), len(plucker)), dtype=np.int64)
    np.add.at(found, (which[exact], image[exact]), 1)
    if (found == 0).any():
        raise ValueError("coordinate image not in catalog; embedding mismatch")
    if (found > 1).any():
        raise ValueError("coordinate image is proportional to several catalog lines")
    out = np.empty_like(found)
    out[which[exact], image[exact]] = line[exact] + 1
    return out


@lru_cache(maxsize=1)
def coordinate_action_table() -> dict[tuple[int, int, int, int], Permutation]:
    """All 24 coordinate permutations and their induced line permutations."""
    sigmas = list(permutations(range(4)))
    labels = _pushforward_labels(_catalog_plucker(), sigmas).tolist()
    return {sigma: Permutation(row) for sigma, row in zip(sigmas, labels)}


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


@lru_cache(maxsize=1)
def partner_table() -> np.ndarray:
    """Row k, read-only, is the partner of ``skew_sixes()[k]``: its i-th line
    is the unique line meeting every member but the i-th."""
    meets = incidence_graph()[np.array(skew_sixes()) - 1].astype(bool)  # (72, 6, 27)
    # found[k, i, l]: line l + 1 meets every member of six k but the i-th
    found = (meets[:, None] != np.eye(6, dtype=bool)[None, :, :, None]).all(axis=2)
    if not (found.sum(axis=2) == 1).all():
        raise ValueError("incidence graph is broken: no unique partner line")
    table = found.argmax(axis=2) + 1
    table.setflags(write=False)
    return table


def partner_six(six: Sequence[int]) -> tuple[int, ...]:
    """The complementary six of a double six: the i-th output line is the
    unique line meeting every member of the input six except its i-th, read
    from ``partner_table`` and put in the input's order."""
    rows = _member_rows(six)
    if incidence_graph()[np.ix_(rows, rows)].any():
        raise ValueError(f"lines {tuple(six)} are not a skew six")
    order = np.argsort(rows)
    k = bisect.bisect_left(skew_sixes(), tuple((rows[order] + 1).tolist()))
    partner = np.empty(6, dtype=np.intp)
    partner[order] = partner_table()[k]
    return tuple(partner.tolist())


@lru_cache(maxsize=1)
def double_sixes() -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The 36 double sixes as (six, partner) pairs, in the order of six: six
    is the smaller sorted half and partner the other half in partner_six's
    order, so its i-th line meets every member of six but the i-th."""
    pairs = zip(skew_sixes(), map(tuple, partner_table().tolist()))
    return tuple((six, partner) for six, partner in pairs if six < tuple(sorted(partner)))


@lru_cache(maxsize=1)
def double_six_reflections() -> np.ndarray:
    """The read-only (36, 27) uint8 table of 0-based line permutations whose
    row k swaps the i-th lines of the two halves of ``double_sixes()[k]``
    and fixes the other 15 lines, in one scatter.

    These are the reflections of W(E6) in its 36 positive roots: the root
    2h - e1 - ... - e6 of the marking by a six a pairs each a_i = e_i with
    the partner line b_i = 2h - e1 - ... - e6 + e_i, and W(E6) moves it onto
    every other root (Dolgachev, Classical Algebraic Geometry, 2012, ch. 9).
    The lattice reflections themselves are not read here."""
    halves = np.array(double_sixes()) - 1  # (36, 2, 6): six, then partner
    table = np.tile(np.arange(N_LINES, dtype=np.uint8), (len(halves), 1))
    table[np.arange(len(halves))[:, None, None], halves] = halves[:, ::-1]
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# Exact identities used by verification
# ---------------------------------------------------------------------------


def _catalog_line(label: int) -> np.ndarray:
    """The catalog span of a line label; ValueError unless it is in 1..27."""
    if not 1 <= label <= N_LINES:
        raise ValueError(f"need a line label in 1..{N_LINES}, got {label}")
    return fermat_catalog()[label - 1]


def line_restrictions_vanish(form: np.ndarray, label: int) -> bool:
    """Whether the integer cubic form restricts to the zero binary cubic on
    a catalog line."""
    return not _restrict(form, _catalog_line(label)).any()


def tritangent_span_rank() -> int:
    """The rank of the 6x4 matrix over Z[zeta] stacking the tritangent
    lines' spans, read off its largest nonzero minor."""
    rows = np.concatenate([_catalog_line(label) for label in fermat_data.ORBIT_TRITANGENT])
    return int(_rank(rows))


def catalog_records() -> list[dict]:
    """Serializable catalog dump: basis points as {a, b} integer pairs for
    the entries a + b*zeta."""
    out = []
    for i, line in enumerate(fermat_catalog().tolist(), start=1):
        orbit = (
            "first" if i in fermat_data.ORBIT_FIRST
            else "second" if i in fermat_data.ORBIT_SECOND
            else "tritangent"
        )
        points = [[{"a": str(a), "b": str(b)} for a, b in row] for row in line]
        out.append({"index": i, "basis_points": points, "s4_orbit": orbit})
    return out
