"""The Picard lattice of a cubic surface in the basis (h, e1..e6), the
reflection (geometric) representation of the line-permutation group, Coxeter
presentations built from skew sixes, and the mod-3 quotient that identifies
the group with a projective orthogonal group over F3.

Intersection form: Q(h,h) = 1, Q(ei,ej) = -delta_ij, Q(h,ei) = 0.  The
canonical class is 3h - e1 - ... - e6 and every line class L has
Q(L,L) = -1, Q(L,K) = 1.  A marking is one integer class matrix V whose
row k - 1 is the class of line k; every consumer reads the lattice from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import lines as lines_mod
from .exact import (
    IntMatrix,
    diagonal_of,
    mat_adjugate,
    mat_det,
    mat_inverse_unimodular,
    mat_mul,
    mat_transpose,
    smith_normal_form,
)
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


def cartan_matrix() -> IntMatrix:
    """Positive-definite Gram -Q of the simple roots; the bond structure is
    computed, not assumed."""
    roots = simple_roots()
    return [[-q_form(a, b) for b in roots] for a in roots]


def coxeter_exponents() -> IntMatrix:
    c = cartan_matrix()
    n = len(c)
    return [
        [1 if i == j else (3 if c[i][j] != 0 else 2) for j in range(n)]
        for i in range(n)
    ]


@lru_cache(maxsize=1)
def _adjacency() -> np.ndarray:
    a = np.array(lines_mod.incidence_graph().matrix(), dtype=np.int64)
    a.setflags(write=False)
    return a


def marking_vectors(six: Sequence[int]) -> np.ndarray:
    """The read-only (27, 7) class matrix V of the marking by an ordered skew
    six: row k - 1 is the class of line k in the basis (h, e1..e6).

    The i-th member of the six gets e_i, a line meeting members i and j gets
    h - e_i - e_j, and a line meeting every member but the i-th gets
    2h - e1 - ... - e6 + e_i.  One identity, V Q V^T = A - I with A the
    adjacency matrix, checks that the six is skew and that the 27 classes
    are distinct and meet exactly as the lines do.
    """
    if len(six) != 6 or len(set(six)) != 6:
        raise ValueError("need six distinct line labels")
    adj = _adjacency()
    members = np.asarray(six) - 1
    meets = adj[:, members]
    v = np.column_stack([np.where(meets.sum(axis=1) == 2, 1, 2), -meets])
    v[members] = np.eye(7, dtype=np.int64)[1:]
    if not np.array_equal(v @ _Q @ v.T, adj - np.eye(lines_mod.N_LINES, dtype=np.int64)):
        raise ValueError(f"lines {tuple(six)} are not a skew six: V Q V^T != A - I")
    v.setflags(write=False)
    return v


def _basis_rows(v: np.ndarray) -> np.ndarray:
    """The rows of a class matrix holding h - e1 - e2, e1, ..., e6."""
    return (v[None, :, :] == _BASIS[:, None, :]).all(axis=2).argmax(axis=1)


def reflection_permutation(v: np.ndarray, root: Sequence[int]) -> Permutation:
    """The permutation of line labels induced by the reflection in a root,
    read through a class matrix.  All 27 rows are reflected in one product;
    two line classes pair to -1 only when they are equal, so each image is
    the row whose Q-pairing with it is -1."""
    if q_form(root, root) != -2:
        raise ValueError("reflection vector must have self-intersection -2")
    r = np.asarray(root, dtype=np.int64)
    images = v + np.outer(v @ _Q @ r, r)
    target = (images @ _Q @ v.T == -1).argmax(axis=1)
    if not np.array_equal(v[target], images):
        raise ValueError("the reflection does not permute the line classes")
    return Permutation((target + 1).tolist())


def weyl_presentation_from_six(six: Sequence[int]) -> list[Permutation]:
    """The six reflection permutations s0..s5 induced on line labels by the
    marking of an ordered skew six."""
    v = marking_vectors(six)
    return [reflection_permutation(v, root) for root in simple_roots()]


def extend_to_lattice_automorphism(p: Permutation, v: np.ndarray) -> IntMatrix:
    """The unique 7x7 integer matrix sending class(l_i) to class(l_{p(i)}) for
    all i and fixing the canonical class; raises if no such matrix exists."""
    rows = np.array(p.images) - 1
    m = (_UNBASIS @ v[rows[_basis_rows(v)]]).T
    if not np.array_equal(v @ m.T, v[rows]):
        raise ValueError("permutation does not preserve the incidence structure")
    if not np.array_equal(m @ CANONICAL_CLASS, CANONICAL_CLASS):
        raise ValueError("extension does not fix the canonical class")
    if not np.array_equal(m.T @ _Q @ m, _Q):
        raise ValueError("extension does not preserve the intersection form")
    return m.tolist()


@dataclass(frozen=True)
class ReductionMap:
    """Mod-3 quotient of the root lattice by three times the weight lattice.

    root_matrix columns express the simple roots in the (h, e) basis;
    u/u_inv come from the Smith normal form of adj(Cartan) (= 3 * Cartan^-1),
    whose elementary divisors are (1, 3, 3, 3, 3, 3); the reduced symmetric
    form q5 lives on the five divisor-3 coordinates.  _projector is
    -adj(Cartan) R^T Q, so a lattice automorphism M7 acts on root
    coordinates by W6 = _projector M7 R / 3.
    """

    cartan: tuple[tuple[int, ...], ...]
    root_matrix: tuple[tuple[int, ...], ...]  # 7x6
    u: tuple[tuple[int, ...], ...]
    u_inv: tuple[tuple[int, ...], ...]
    divisors: tuple[int, ...]
    q5: tuple[tuple[int, ...], ...]
    _projector: tuple[tuple[int, ...], ...]  # 6x7


@lru_cache(maxsize=1)
def mod3_reduction() -> ReductionMap:
    c = cartan_matrix()
    adj = mat_adjugate(c)
    if mat_mul(c, adj) != [[3 if i == j else 0 for j in range(6)] for i in range(6)]:
        raise AssertionError("Cartan adjugate is not 3 * inverse; wrong lattice")
    u, d, v = smith_normal_form(adj)
    if diagonal_of(d) != [1, 3, 3, 3, 3, 3]:
        raise AssertionError(f"unexpected elementary divisors {diagonal_of(d)}")
    u_inv = mat_inverse_unimodular(u)

    roots = simple_roots()
    r = [[roots[j][i] for j in range(6)] for i in range(7)]
    # M7 R = R W6 times R^T Q gives R^T Q M7 R = -C W6, since R^T Q R = -C
    projector = mat_mul([[-x for x in row] for row in adj], mat_mul(mat_transpose(r), _Q.tolist()))

    gram6 = [[q_form(a, b) for b in roots] for a in roots]  # = -Cartan
    w = mat_mul(mat_transpose(u_inv), mat_mul(gram6, u_inv))
    for k in range(6):
        if w[0][k] % 3 or w[k][0] % 3:
            raise AssertionError("reduced form not well-defined on the quotient")
    q5 = tuple(tuple(w[i][j] % 3 for j in range(1, 6)) for i in range(1, 6))
    det5 = mat_det([list(row) for row in q5]) % 3
    if det5 == 0:
        raise AssertionError("reduced form is degenerate")

    return ReductionMap(
        cartan=tuple(tuple(row) for row in c),
        root_matrix=tuple(tuple(row) for row in r),
        u=tuple(tuple(row) for row in u),
        u_inv=tuple(tuple(row) for row in u_inv),
        divisors=(1, 3, 3, 3, 3, 3),
        q5=q5,
        _projector=tuple(tuple(row) for row in projector),
    )


def restrict_to_root_coords(red: ReductionMap, m7: IntMatrix) -> IntMatrix:
    """Solve M7 . R = R . W for the integer 6x6 action on root coordinates,
    in closed form: W = -adj(Cartan) R^T Q M7 R / 3."""
    r = [list(row) for row in red.root_matrix]
    mr = mat_mul(m7, r)
    num = mat_mul([list(row) for row in red._projector], mr)
    # R has full column rank, so an integer solution, if any, is num / 3 exactly
    w = [[x // 3 for x in row] for row in num]
    if mr != mat_mul(r, w):
        raise ValueError("matrix does not restrict to the root span")
    return w


def _canonical_sign(mat5: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """Scale a nonzero F3 matrix so its first nonzero entry in reading order
    is 1; this picks one representative of {M, -M}."""
    flat = [x % 3 for row in mat5 for x in row]
    first = next((x for x in flat if x), 1)
    factor = 1 if first == 1 else 2
    return tuple(tuple((x * factor) % 3 for x in row) for row in mat5)


def po_image(
    red: ReductionMap, p: Permutation, v: np.ndarray
) -> tuple[tuple[int, ...], ...]:
    """Projective mod-3 image of a line permutation: extend to the lattice,
    restrict to root coordinates, push through the quotient, projectivize."""
    m7 = extend_to_lattice_automorphism(p, v)
    w6 = restrict_to_root_coords(red, m7)
    conj = mat_mul([list(r) for r in red.u], mat_mul(w6, [list(r) for r in red.u_inv]))
    for i in range(1, 6):
        if conj[i][0] % 3:
            raise ValueError("action does not descend to the quotient")
    block = [[conj[i][j] % 3 for j in range(1, 6)] for i in range(1, 6)]
    return _canonical_sign(block)


def preserves_q5(red: ReductionMap, mat5: Sequence[Sequence[int]]) -> bool:
    q = [list(row) for row in red.q5]
    m = [list(row) for row in mat5]
    prod = mat_mul(mat_transpose(m), mat_mul(q, m))
    return all(prod[i][j] % 3 == q[i][j] % 3 for i in range(5) for j in range(5))


# build_po_group reads the element table in blocks of this many rows, so
# that its int64 (rows, 7, 7) intermediates stay a few MiB
_PO_BLOCK_ROWS = 4096


def build_po_group(
    red: ReductionMap,
    v: np.ndarray,
    group: FiniteGroup,
) -> tuple[np.ndarray, int]:
    """Images of every group element; returns (projective image set, order of
    the matrix set before projectivization).

    Vectorized: each element's 7x7 extension M7 is read off the images of the
    basis classes h - e1 - e2, e1..e6, gathered from the group's element
    table one block of rows at a time, and the closed-form restriction
    -adj(Cartan) R^T Q M7 R / 3 and the Smith conjugation u . u_inv are
    applied in the same products.  Each
    5x5 block mod 3 is encoded as a base-3 integer (first entry most
    significant), so the projective image set is the sorted array of codes
    of the representatives ``_canonical_sign`` picks, the smaller code of M
    and -M.
    """
    gram = v @ _Q @ v.T
    for g in group.generators:
        rows = np.array(g.images) - 1
        if not np.array_equal(gram[np.ix_(rows, rows)], gram):
            raise ValueError("some generator does not preserve the incidence structure")

    left = np.array(red.u) @ np.array(red._projector)  # 6 x 7
    right = _UNBASIS.T @ np.array(red.root_matrix) @ np.array(red.u_inv)  # 7 x 6
    place = 3 ** np.arange(24, -1, -1, dtype=np.int64)
    basis = _basis_rows(v)
    codes, neg_codes = [], []
    for start in range(0, group.order, _PO_BLOCK_ROWS):
        basis_images = v[group.table[start : start + _PO_BLOCK_ROWS, basis]]  # rows = images
        conj = (left @ basis_images.transpose(0, 2, 1) @ right) // 3  # exact on W
        if np.any(conj[:, 1:, 0] % 3):
            raise ValueError("some element does not descend to the quotient")
        blocks = conj[:, 1:, 1:].reshape(-1, 25) % 3
        codes.append(blocks @ place)
        neg_codes.append(((3 - blocks) % 3) @ place)
    codes, neg_codes = np.concatenate(codes), np.concatenate(neg_codes)
    signed = _distinct(np.concatenate([codes, neg_codes]))
    return _distinct(np.minimum(codes, neg_codes)), len(signed)


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of codes.  Sort and nonzero-diff, not
    np.unique: np.unique imports numpy.ma on first use."""
    codes = np.sort(codes)
    return codes[np.concatenate(([True], np.diff(codes) != 0))]


def images_in_po(
    red: ReductionMap, v: np.ndarray
) -> dict[str, tuple[tuple[int, ...], ...]]:
    """Explicit projective mod-3 matrices for the coordinate-action generators
    and the monodromy Klein group."""
    out = {}
    for name, p in (
        ("coordinate_transposition", lines_mod.s4_generators()[0]),
        ("coordinate_four_cycle", lines_mod.s4_generators()[1]),
    ):
        out[name] = po_image(red, p, v)
    for name, p in lines_mod.monodromy_klein_elements().items():
        out[f"monodromy_{name}"] = po_image(red, p, v)
    return out
