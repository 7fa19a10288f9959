"""The Picard lattice of a cubic surface in the basis (h, e1..e6), the
reflection (geometric) representation of the line-permutation group, Coxeter
presentations built from skew sixes, and the mod-3 quotient that identifies
the group with a projective orthogonal group over F3.  Matrices are numpy
int64 arrays; projective images are tuples of tuples, so that they hash.

Intersection form: Q(h,h) = 1, Q(ei,ej) = -delta_ij, Q(h,ei) = 0.  The
canonical class is 3h - e1 - ... - e6 and every line class L has
Q(L,L) = -1, Q(L,K) = 1.  A marking is one integer class matrix V whose
row k - 1 is the class of line k, built from the incidence graph's adjacency
array; every consumer reads the lattice from it.  The markings of many
ordered sixes are one stacked array, and the rows that reflections in a
stack of roots send the 27 classes of every marking to are found by one
search over integer keys of the classes.

The mod-3 image of a whole group is read off seven line lookups per element:
an element's image is linear in the classes of the seven basis lines' images,
so it is a sum of seven rows of tables built once per marking, indexed by the
element table's basis columns, and no element's 7x7 matrix is formed.  The
exact pass images only W(A5) (720 rows) that way; injectivity on W(E6)
follows from its normal subgroups.  The images of a few given permutations
come from one batched computation over their stack of 7x7 extensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from . import lines as lines_mod
from .perm import FiniteGroup, Permutation

Vec7 = tuple[int, int, int, int, int, int, int]

CANONICAL_CLASS: Vec7 = (3, -1, -1, -1, -1, -1, -1)

_Q = np.diag([1, -1, -1, -1, -1, -1, -1])

# The classes h - e1 - e2, e1, ..., e6 form a lattice basis, and _UNBASIS is
# the inverse of their matrix: if g holds the images of those classes as rows,
# then _UNBASIS @ g holds the images of h, e1, ..., e6.
_BASIS = np.vstack([[1, -1, -1, 0, 0, 0, 0], np.eye(7, dtype=np.int64)[1:]])
_UNBASIS = np.eye(7, dtype=np.int64)
_UNBASIS[0, :3] = 1

# A line class has entries in -1..2, so two classes differ by at most 3 in
# each entry, and the base-4 key x . _KEY tells them apart.
_KEY = 4 ** np.arange(7, dtype=np.int64)


def q_form(x: Sequence[int], y: Sequence[int]) -> int:
    return x[0] * y[0] - sum(x[i] * y[i] for i in range(1, 7))


def reflect(x: Sequence[int], root: Sequence[int]) -> Vec7:
    """x + Q(x, v) v for a root v (Q(v,v) must be -2)."""
    if q_form(root, root) != -2:
        raise ValueError("reflection vector must have self-intersection -2")
    k = q_form(x, root)
    return tuple(a + k * b for a, b in zip(x, root))  # type: ignore[return-value]


def simple_roots() -> list[Vec7]:
    """v0 = h - e1 - e2 - e3, v_j = e_j - e_{j+1} (j = 1..5)."""
    roots = [(1, -1, -1, -1, 0, 0, 0)]
    for j in range(1, 6):
        v = [0] * 7
        v[j] = 1
        v[j + 1] = -1
        roots.append(tuple(v))
    return roots  # type: ignore[return-value]


def positive_roots() -> list[Vec7]:
    """The 36 positive roots of E6 for the simple roots above: e_i - e_j
    (i < j), h - e_i - e_j - e_k and 2h - e1 - ... - e6."""
    h, *e = np.eye(7, dtype=np.int64)
    roots = [e[i] - e[j] for i, j in combinations(range(6), 2)]
    roots += [h - e[i] - e[j] - e[k] for i, j, k in combinations(range(6), 3)]
    roots.append(2 * h - sum(e))
    return [tuple(r.tolist()) for r in roots]  # type: ignore[misc]


def _root_matrix() -> np.ndarray:
    """The 7x6 matrix R whose columns are the simple roots."""
    return np.array(simple_roots(), dtype=np.int64).T


def cartan_matrix() -> np.ndarray:
    """Positive-definite Gram -R^T Q R of the simple roots; the bond
    structure is computed, not assumed."""
    r = _root_matrix()
    return -(r.T @ _Q @ r)


def coxeter_exponents() -> np.ndarray:
    """m_ij = 1 on the diagonal, 3 for bonded and 2 for unbonded roots."""
    c = cartan_matrix()
    return np.where(np.eye(len(c), dtype=bool), 1, np.where(c != 0, 3, 2))


def markings(sixes: Sequence[Sequence[int]]) -> np.ndarray:
    """The read-only (k, 27, 7) class matrices of the markings by k ordered
    skew sixes, stacked: in each, row l - 1 is the class of line l in the
    basis (h, e1..e6).

    The i-th member of the six gets e_i, a line meeting members i and j gets
    h - e_i - e_j, and a line meeting every member but the i-th gets
    2h - e1 - ... - e6 + e_i.  One identity per marking, V Q V^T = A - I with
    A the adjacency matrix, checks that the six is skew and that the 27
    classes are distinct and meet exactly as the lines do.
    """
    members = np.array([lines_mod._member_rows(six) for six in sixes]).reshape(-1, 6)
    adj = lines_mod.incidence_graph()
    meets = adj[members].transpose(0, 2, 1)  # (k, 27, 6): line l meets member i
    v = np.concatenate([np.where(meets.sum(axis=2) == 2, 1, 2)[..., None], -meets], axis=2)
    v[np.arange(len(v))[:, None], members] = np.eye(7, dtype=np.int64)[1:]
    small = v.astype(np.int8)  # entries -1..2, so every pairing fits in int8
    gram = small @ _Q.astype(np.int8) @ small.transpose(0, 2, 1)
    bad = ~(gram == (adj - np.eye(lines_mod.N_LINES, dtype=np.int64)).astype(np.int8)).all(axis=(1, 2))
    if bad.any():
        six = tuple((members[bad.argmax()] + 1).tolist())
        raise ValueError(f"lines {six} are not a skew six: V Q V^T != A - I")
    v.setflags(write=False)
    return v


def marking_vectors(six: Sequence[int]) -> np.ndarray:
    """The read-only (27, 7) class matrix V of the marking by one ordered
    skew six (see ``markings``)."""
    return markings([six])[0]


def _basis_rows(v: np.ndarray) -> np.ndarray:
    """The rows of a class matrix holding h - e1 - e2, e1, ..., e6."""
    return (v[None, :, :] == _BASIS[:, None, :]).all(axis=2).argmax(axis=1)


def _reflection_rows(v: np.ndarray, roots: Sequence[Sequence[int]]) -> np.ndarray:
    """The (k, n, 27) uint8 0-based line permutations induced by the
    reflections in a stack of n roots, read through each of k class matrices
    (k, 27, 7).

    Each class x has the integer key x . _KEY, linear in x, so the image
    x + Q(x, r) r of a row has the key key(x) + Q(x, r) key(r), read off the
    rows' keys and the (k, n, 27) pairings without forming the image.  The
    keys of all markings, offset into disjoint ranges, are sorted once, and
    one search finds every image's row, read as a row of its own marking.
    The rows found are then compared exactly with the images, computed in
    int8, so a key that aliases or is missing raises, as does an image entry
    past int8, which no line class has."""
    r = np.asarray(roots, dtype=np.int64).reshape(-1, 7)
    if np.any((r @ _Q * r).sum(axis=1) != -2):
        raise ValueError("reflection vector must have self-intersection -2")
    k, n_lines = v.shape[:2]
    if not len(r):
        return np.empty((k, 0, n_lines), dtype=np.uint8)
    pairings = r @ _Q @ v.transpose(0, 2, 1)  # (k, n, 27)
    keys = v @ _KEY  # (k, 27)
    lo = keys.min()
    keys += (np.arange(k) * (keys.max() - lo + 1) - lo)[:, None]  # one range per marking
    order = np.argsort(keys.ravel())
    found = np.searchsorted(keys.ravel()[order], keys[:, None] + pairings * (r @ _KEY)[:, None])
    target = (order.take(found, mode="clip") % n_lines).astype(np.uint8)
    # an image entry past int8 is no line class (those have entries -1..2)
    if np.abs(v).max() + np.abs(pairings).max() * np.abs(r).max() > np.iinfo(np.int8).max:
        raise ValueError("the reflection does not permute the line classes")
    small = v.transpose(2, 0, 1).astype(np.int8)  # (7, k, 27)
    images = small[:, :, None] + r.T.astype(np.int8)[:, None, :, None] * pairings.astype(np.int8)
    rows = (np.arange(k) * n_lines)[:, None, None] + target
    if not np.array_equal(small.reshape(7, -1)[:, rows], images):
        raise ValueError("the reflection does not permute the line classes")
    return target


def presentations(sixes: Sequence[Sequence[int]]) -> np.ndarray:
    """The (k, 6, 27) uint8 0-based line permutations s0..s5 induced by the
    simple-root reflections through the markings of k ordered skew sixes,
    in one batched computation."""
    return _reflection_rows(markings(sixes), simple_roots())


def weyl_presentation_from_six(six: Sequence[int]) -> list[Permutation]:
    """The six reflection permutations s0..s5 induced on line labels by the
    marking of an ordered skew six: one six of ``presentations``."""
    return [Permutation(row) for row in (presentations([six])[0] + 1).tolist()]


def _extensions(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The (k, 7, 7) integer matrices of a stack of k 0-based line
    permutation rows, each sending class(l_i) to class(l_{p(i)}) for all i
    and fixing the canonical class, in one product; raises if some row has
    no such matrix."""
    m = (_UNBASIS @ v[rows[:, _basis_rows(v)]]).transpose(0, 2, 1)
    if not np.array_equal(v @ m.transpose(0, 2, 1), v[rows]):
        raise ValueError("permutation does not preserve the incidence structure")
    if not (m @ CANONICAL_CLASS == CANONICAL_CLASS).all():
        raise ValueError("extension does not fix the canonical class")
    if not (m.transpose(0, 2, 1) @ _Q @ m == _Q).all():
        raise ValueError("extension does not preserve the intersection form")
    return m


def extend_to_lattice_automorphism(p: Permutation, v: np.ndarray) -> np.ndarray:
    """The unique 7x7 integer matrix sending class(l_i) to class(l_{p(i)}) for
    all i and fixing the canonical class; raises if no such matrix exists.
    One permutation of ``_extensions``."""
    return _extensions(np.array(p.images)[None] - 1, v)[0]


def _f3_kernel(m: np.ndarray) -> tuple[np.ndarray, int]:
    """The vectors x of F3^n with m x = 0 mod 3, as rows in lexicographic
    order (so row 1 is the one whose first nonzero entry is 1 when the
    kernel is a line), and the kernel's dimension; by enumerating F3^n,
    fine for n <= 6."""
    n = m.shape[1]
    points = np.indices((3,) * n).reshape(n, -1).T
    kernel = points[~(points @ m.T % 3).any(axis=1)]
    return kernel, round(math.log(len(kernel), 3))


@dataclass(frozen=True, eq=False)
class ReductionMap:
    """Mod-3 quotient Q/3P of the root lattice Q by three times the weight
    lattice P, in simple-root coordinates.

    There 3P is spanned by the columns of A = 3 C^-1 (C the Cartan matrix),
    and C A = 3I puts 3Q inside 3P, so Q/3P = F3^6 / (A mod 3).  The radical
    of C mod 3 is one line <r> and contains every column of A mod 3; A mod 3
    has rank 1, so it spans <r> and Q/3P = F3^6 / <r>.  As A has the inverse
    C / 3, every elementary divisor of A divides 3, and exactly rank(A mod 3)
    of them are prime to 3.

    quot (5x6) is a map of F3^6 onto F3^5 with kernel <r>, and lift (6x5) a
    section of it.  An element acting by W6 on root coordinates descends to
    the quotient iff quot W6 r = 0, and then acts by quot W6 lift.  The
    reduced form q5 = lift^T (-C) lift is -C read on the quotient, well
    defined because r is in the radical.  _projector is -A R^T Q, so a
    lattice automorphism M7 acts on root coordinates by
    W6 = _projector M7 R / 3.  All arrays are read-only int64.
    """

    root_matrix: np.ndarray  # 7x6
    radical: np.ndarray  # r, with first nonzero entry 1
    quot: np.ndarray  # 5x6
    lift: np.ndarray  # 6x5
    divisors: tuple[int, ...]
    q5: np.ndarray  # 5x5, entries in 0..2
    _projector: np.ndarray  # 6x7


@lru_cache(maxsize=1)
def mod3_reduction() -> ReductionMap:
    r_mat = _root_matrix()
    c = cartan_matrix()
    a = np.rint(3 * np.linalg.inv(c)).astype(np.int64)
    if not np.array_equal(c @ a, 3 * np.eye(6, dtype=np.int64)):
        raise AssertionError("3 * Cartan^-1 is not integral; wrong lattice")
    radical, radical_dim = _f3_kernel(c)
    rank = 6 - _f3_kernel(a)[1]
    if radical_dim != 1 or rank != 1:
        raise AssertionError(
            f"radical of C mod 3 has dimension {radical_dim} and A mod 3 rank {rank}, not 1 and 1"
        )
    divisors = (1,) * rank + (3,) * (6 - rank)

    # quot: x -> x - x_k r without coordinate k, where r_k = 1 is the first
    # nonzero entry of r; lift puts back a zero at coordinate k
    r = radical[1]
    k = int(np.flatnonzero(r)[0])
    eye = np.eye(6, dtype=np.int64)
    quot = np.delete(eye - np.outer(r, eye[k]), k, axis=0) % 3
    lift = np.delete(eye, k, axis=1)

    q5 = lift.T @ -c @ lift % 3
    if _f3_kernel(q5)[1]:
        raise AssertionError("reduced form is degenerate")
    # M7 R = R W6 times R^T Q gives R^T Q M7 R = -C W6, since R^T Q R = -C
    projector = -a @ r_mat.T @ _Q

    arrays = dict(root_matrix=r_mat, radical=r, quot=quot, lift=lift, q5=q5, _projector=projector)
    for m in arrays.values():
        m.setflags(write=False)
    return ReductionMap(divisors=divisors, **arrays)


def restrict_to_root_coords(red: ReductionMap, m7: np.ndarray) -> np.ndarray:
    """Solve M7 . R = R . W for the integer 6x6 action on root coordinates,
    in closed form: W = -A R^T Q M7 R / 3; for one 7x7 matrix or a stack."""
    mr = np.asarray(m7) @ red.root_matrix
    # R has full column rank, so an integer solution, if any, is this exactly
    w = red._projector @ mr // 3
    if not np.array_equal(mr, red.root_matrix @ w):
        raise ValueError("matrix does not restrict to the root span")
    return w


def _canonical_sign(mats: np.ndarray | Sequence) -> list[tuple[tuple[int, ...], ...]]:
    """Scale each nonzero F3 matrix of a stack so its first nonzero entry in
    reading order is 1; this picks one representative of {M, -M}."""
    m = np.asarray(mats) % 3
    flat = m.reshape(len(m), -1)
    lead = flat[np.arange(len(flat)), (flat != 0).argmax(axis=1)]
    m = np.where((lead == 2)[:, None, None], 2 * m % 3, m)
    return [tuple(map(tuple, x)) for x in m.tolist()]


def po_image(
    red: ReductionMap, perms: Sequence[Permutation], v: np.ndarray
) -> list[tuple[tuple[int, ...], ...]]:
    """Projective mod-3 images of a sequence of line permutations: extend to
    the lattice, restrict to root coordinates, push through the quotient,
    projectivize, each step once on the whole (k, 7, 7) stack."""
    rows = np.array([p.images for p in perms], dtype=np.intp).reshape(-1, lines_mod.N_LINES) - 1
    w6 = restrict_to_root_coords(red, _extensions(rows, v))
    if np.any(red.quot @ w6 @ red.radical % 3):
        raise ValueError("action does not descend to the quotient")
    return _canonical_sign(red.quot @ w6 @ red.lift)


def preserves_q5(red: ReductionMap, mat5: Sequence[Sequence[int]]) -> bool:
    m = np.asarray(mat5)
    return not np.any((m.T @ red.q5 @ m - red.q5) % 3)


# build_po_group reads the element table in blocks of this many rows, so
# that its (rows, 30) intermediates stay a few MiB
_PO_BLOCK_ROWS = 4096

# place values of the 25 base-3 digits of a 5x5 block, first entry most
# significant; codes stay below 3**25 < 2**53, so a float64 dot is exact
_PO_PLACES = 3.0 ** np.arange(24, -1, -1)
_NEGATE = np.array([0, 2, 1], dtype=np.uint8)  # x -> -x on F3
_NOT_DIVISIBLE = 3  # the digit table's mark for a sum that 3 does not divide


def _line_tables(red: ReductionMap, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The line-lookup kernel of a marking: the rows of the basis lines, the
    (7, 27, 30) int16 tables P and the uint8 digit table.

    An element with 0-based line images t acts on the basis classes by the
    7x7 matrix B whose row j is v[t(b_j)], and its image with the radical
    column is left B^T right / 3 (left = quot -A R^T Q, right = U^T R
    [lift | r]).  That is linear in the rows of B: left B^T right is the sum
    over j of P[j, t(b_j)], where P[j, l] is the outer product of left v[l]
    with right[j].  Its 30 entries are stored as the 5x5 block in reading
    order, then the radical column.  Each table is offset by its largest
    |entry|, so a sum of seven lookups indexes the digit table directly: at
    a sum s (offset removed) it holds (s / 3) mod 3, or _NOT_DIVISIBLE when
    3 does not divide s."""
    left = red.quot @ red._projector  # 5 x 7
    right = _UNBASIS.T @ red.root_matrix @ np.column_stack([red.lift, red.radical])  # 7 x 6
    outer = (v @ left.T)[None, :, :, None] * right[:, None, None, :]  # (j, l, 5, 6)
    tables = np.concatenate([outer[..., :5].reshape(7, -1, 25), outer[..., 5]], axis=2)
    bound = int(np.abs(tables).max())
    sums = np.arange(-7 * bound, 7 * bound + 1)
    digits = np.where(sums % 3, _NOT_DIVISIBLE, sums // 3 % 3).astype(np.uint8)
    return _basis_rows(v), (tables + bound).astype(np.int16), digits


def _signed_codes(tables: np.ndarray, digits: np.ndarray, images: np.ndarray) -> np.ndarray:
    """The base-3 codes of M and -M, as a (2, rows) float64 array, for the
    elements whose images of the seven basis lines are the rows of images
    (0-based); raises unless every image is integral and descends."""
    total = tables[0].take(images[:, 0], axis=0)
    for j in range(1, 7):
        total += tables[j].take(images[:, j], axis=0)
    entries = digits.take(total)
    if np.any(entries == _NOT_DIVISIBLE):
        raise ValueError("some element does not restrict to the root span")
    if entries[:, 25:].any():
        raise ValueError("some element does not descend to the quotient")
    block = entries[:, :25]
    return np.stack([block, _NEGATE.take(block)]).astype(np.float64) @ _PO_PLACES


def build_po_group(
    red: ReductionMap,
    v: np.ndarray,
    group: FiniteGroup,
) -> tuple[np.ndarray, int]:
    """Images of every group element; returns (projective image set, order of
    the matrix set before projectivization).

    No element's 7x7 extension is formed: its image quot W6 [lift | r], with
    W6 = -A R^T Q M7 R / 3, is linear in the classes of the seven basis
    lines' images, so it is a sum of seven lookups in tables built from the
    marking (``_line_tables``), taken with the group's element table one
    block of rows at a time.  Each entry goes through one digit table that
    divides by 3 and reduces mod 3, and raises where 3 does not divide it;
    a nonzero radical column raises too.  Each 5x5 block mod 3 is encoded as
    a base-3 integer (first entry most significant), and the codes of M and
    -M are one float64 dot, exact below 2**53.  The projective image set is
    the sorted array of codes of the representatives ``_canonical_sign``
    picks, the smaller code of M and -M.  The signed matrices are counted
    without a sort: each class {M, -M} holds two unless M = -M, which over
    F3 means M = 0, so one compare of each element's two codes settles it.
    """
    gram = v @ _Q @ v.T
    for g in group.generators:
        rows = np.array(g.images) - 1
        if not np.array_equal(gram[np.ix_(rows, rows)], gram):
            raise ValueError("some generator does not preserve the incidence structure")

    basis, tables, digits = _line_tables(red, v)
    codes = np.concatenate(
        [
            _signed_codes(tables, digits, group.table[start : start + _PO_BLOCK_ROWS, basis])
            for start in range(0, group.order, _PO_BLOCK_ROWS)
        ],
        axis=1,
    ).astype(np.int64)
    projective = _distinct(codes.min(axis=0))
    zero_class = bool((codes[0] == codes[1]).any())
    return projective, 2 * len(projective) - zero_class


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of codes.  Sort and nonzero-diff, not
    np.unique: np.unique imports numpy.ma on first use."""
    codes = np.sort(codes)
    return codes[np.concatenate(([True], np.diff(codes) != 0))]


def images_in_po(
    red: ReductionMap, v: np.ndarray
) -> dict[str, tuple[tuple[int, ...], ...]]:
    """Explicit projective mod-3 matrices for the coordinate-action generators
    and the monodromy Klein group, from one ``po_image`` call."""
    named = dict(zip(("coordinate_transposition", "coordinate_four_cycle"), lines_mod.s4_generators()))
    named.update((f"monodromy_{name}", p) for name, p in lines_mod.monodromy_klein_elements().items())
    return dict(zip(named, po_image(red, list(named.values()), v)))
