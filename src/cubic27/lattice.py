"""The Picard lattice of a cubic surface in the basis (h, e1..e6), the
reflection (geometric) representation of the line-permutation group, Coxeter
presentations built from skew sixes, and the mod-3 quotient that identifies
the group with a projective orthogonal group over F3.

Intersection form: Q(h,h) = 1, Q(ei,ej) = -delta_ij, Q(h,ei) = 0.  The
canonical class is 3h - e1 - ... - e6 and every line class L has
Q(L,L) = -1, Q(L,K) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
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

H: Vec7 = (1, 0, 0, 0, 0, 0, 0)


def e(i: int) -> Vec7:
    v = [0] * 7
    v[i] = 1
    return tuple(v)  # type: ignore[return-value]


def q_form(x: Sequence[int], y: Sequence[int]) -> int:
    return x[0] * y[0] - sum(x[i] * y[i] for i in range(1, 7))


def vec_add(x: Sequence[int], y: Sequence[int]) -> Vec7:
    return tuple(a + b for a, b in zip(x, y))  # type: ignore[return-value]


def vec_scale(k: int, x: Sequence[int]) -> Vec7:
    return tuple(k * a for a in x)  # type: ignore[return-value]


def reflect(x: Sequence[int], root: Sequence[int]) -> Vec7:
    """x + Q(x, v) v for a root v (Q(v,v) must be -2)."""
    if q_form(root, root) != -2:
        raise ValueError("reflection vector must have self-intersection -2")
    return vec_add(x, vec_scale(q_form(x, root), root))


def class_vector(tag: tuple) -> Vec7:
    """Divisor class of a tag: ('e', i) -> e_i, ('c', i, j) -> h - e_i - e_j,
    ('b', i) -> 2h - sum(e) + e_i."""
    if tag[0] == "e":
        return e(tag[1])
    if tag[0] == "c":
        v = [1, 0, 0, 0, 0, 0, 0]
        v[tag[1]] = -1
        v[tag[2]] = -1
        return tuple(v)  # type: ignore[return-value]
    if tag[0] == "b":
        v = [2, -1, -1, -1, -1, -1, -1]
        v[tag[1]] += 1
        return tuple(v)  # type: ignore[return-value]
    raise ValueError(f"unknown tag {tag}")


def line_classes() -> list[tuple[tuple, Vec7]]:
    """All 27 (tag, vector) line classes: 6 e's, 15 c's, 6 b's."""
    out: list[tuple[tuple, Vec7]] = []
    for i in range(1, 7):
        out.append((("e", i), class_vector(("e", i))))
    for i, j in combinations(range(1, 7), 2):
        out.append((("c", i, j), class_vector(("c", i, j))))
    for i in range(1, 7):
        out.append((("b", i), class_vector(("b", i))))
    return out


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


def marking_vectors(six: Sequence[int]) -> dict[int, Vec7]:
    tags = lines_mod.marking_from_six(six)
    return {label: class_vector(tag) for label, tag in tags.items()}


def reflection_permutation(marking: dict[int, Vec7], root: Sequence[int]) -> Permutation:
    """The permutation of line labels induced by the reflection in a root,
    read through a marking (label -> class vector)."""
    by_vec = {v: label for label, v in marking.items()}
    return Permutation(
        [by_vec[reflect(marking[label], root)] for label in range(1, lines_mod.N_LINES + 1)]
    )


def weyl_presentation_from_six(six: Sequence[int]) -> list[Permutation]:
    """The six reflection permutations s0..s5 induced on line labels by the
    marking of an ordered skew six."""
    vecs = marking_vectors(six)
    return [reflection_permutation(vecs, root) for root in simple_roots()]


def extend_to_lattice_automorphism(
    p: Permutation, marking: dict[int, Vec7]
) -> IntMatrix:
    """The unique 7x7 integer matrix sending class(l_i) to class(l_{p(i)}) for
    all i and fixing the canonical class; raises if no such matrix exists."""
    by_vec = {v: label for label, v in marking.items()}
    six = [by_vec[e(i)] for i in range(1, 7)]
    cols = [marking[p(label)] for label in six]
    c12_line = by_vec[class_vector(("c", 1, 2))]
    h_img = vec_add(vec_add(cols[0], cols[1]), marking[p(c12_line)])
    m = [[h_img[r]] + [cols[i][r] for i in range(6)] for r in range(7)]

    def apply(v: Sequence[int]) -> Vec7:
        return tuple(sum(m[r][k] * v[k] for k in range(7)) for r in range(7))  # type: ignore[return-value]

    for label, v in marking.items():
        if apply(v) != marking[p(label)]:
            raise ValueError("permutation does not preserve the incidence structure")
    if apply(CANONICAL_CLASS) != CANONICAL_CLASS:
        raise ValueError("extension does not fix the canonical class")
    gram = [[q_form(_unit7(i), _unit7(j)) for j in range(7)] for i in range(7)]
    if mat_mul(mat_transpose(m), mat_mul(gram, m)) != gram:
        raise ValueError("extension does not preserve the intersection form")
    return m


def _unit7(i: int) -> Vec7:
    v = [0] * 7
    v[i] = 1
    return tuple(v)  # type: ignore[return-value]


@dataclass(frozen=True)
class ReductionMap:
    """Mod-3 quotient of the root lattice by three times the weight lattice.

    root_matrix columns express the simple roots in the (h, e) basis;
    u/u_inv come from the Smith normal form of adj(Cartan) (= 3 * Cartan^-1),
    whose elementary divisors are (1, 3, 3, 3, 3, 3); the reduced symmetric
    form q5 lives on the five divisor-3 coordinates.
    """

    cartan: tuple[tuple[int, ...], ...]
    root_matrix: tuple[tuple[int, ...], ...]  # 7x6
    u: tuple[tuple[int, ...], ...]
    u_inv: tuple[tuple[int, ...], ...]
    divisors: tuple[int, ...]
    q5: tuple[tuple[int, ...], ...]
    _row_subset: tuple[int, ...]
    _sub_adjugate: tuple[tuple[int, ...], ...]
    _sub_det: int


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
    subset, sub_adj, sub_det = _invertible_row_subset(r)

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
        _row_subset=subset,
        _sub_adjugate=tuple(tuple(row) for row in sub_adj),
        _sub_det=sub_det,
    )


def _invertible_row_subset(r: IntMatrix) -> tuple[tuple[int, ...], IntMatrix, int]:
    """Pick 6 rows of the 7x6 root matrix forming an invertible 6x6 block."""
    best = None
    for drop in range(7):
        rows = [r[i] for i in range(7) if i != drop]
        det = mat_det(rows)
        if det != 0 and (best is None or abs(det) < abs(best[2])):
            best = (tuple(i for i in range(7) if i != drop), rows, det)
    if best is None:
        raise AssertionError("root matrix has rank < 6")
    subset, rows, det = best
    return subset, mat_adjugate(rows), det


def restrict_to_root_coords(red: ReductionMap, m7: IntMatrix) -> IntMatrix:
    """Solve M7 . R = R . W for the integer 6x6 action on root coordinates."""
    r = [list(row) for row in red.root_matrix]
    mr = mat_mul(m7, r)
    sub = [mr[i] for i in red._row_subset]
    adj = [list(row) for row in red._sub_adjugate]
    num = mat_mul(adj, sub)
    w = []
    for row in num:
        out_row = []
        for x in row:
            if x % red._sub_det:
                raise ValueError("matrix does not preserve the root lattice")
            out_row.append(x // red._sub_det)
        w.append(out_row)
    if mat_mul(m7, r) != mat_mul(r, w):
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
    red: ReductionMap, p: Permutation, marking: dict[int, Vec7]
) -> tuple[tuple[int, ...], ...]:
    """Projective mod-3 image of a line permutation: extend to the lattice,
    restrict to root coordinates, push through the quotient, projectivize."""
    m7 = extend_to_lattice_automorphism(p, marking)
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


def build_po_group(
    red: ReductionMap,
    marking: dict[int, Vec7],
    group: FiniteGroup,
) -> tuple[np.ndarray, int]:
    """Images of every group element; returns (projective image set, order of
    the matrix set before projectivization).

    Vectorized: the 7x7 extensions are built from the marking in one numpy
    pass over the group's element table, then restricted and reduced mod 3
    in bulk.  Each 5x5 block is encoded as a base-3 integer (first entry most
    significant), so the projective image set is the sorted array of codes of
    the representatives ``_canonical_sign`` picks, the smaller code of M and -M.
    """
    labels = list(range(1, lines_mod.N_LINES + 1))
    class_mat = np.array([marking[l] for l in labels], dtype=np.int64)  # 27 x 7
    by_vec = {tuple(v): l for l, v in marking.items()}
    six = [by_vec[tuple(e(i))] for i in range(1, 7)]
    c12 = by_vec[class_vector(("c", 1, 2))]

    pmat = group.table.astype(np.int64)  # n x 27

    six_idx = np.array([l - 1 for l in six])
    col_classes = class_mat[pmat[:, six_idx]]  # n x 6 x 7
    h_img = (
        col_classes[:, 0, :]
        + col_classes[:, 1, :]
        + class_mat[pmat[:, c12 - 1]]
    )  # n x 7
    m7 = np.concatenate([h_img[:, :, None], col_classes.transpose(0, 2, 1)], axis=2)

    r = np.array(red.root_matrix, dtype=np.int64)  # 7 x 6
    mr = m7 @ r  # n x 7 x 6
    sub = mr[:, list(red._row_subset), :]  # n x 6 x 6
    adj = np.array(red._sub_adjugate, dtype=np.int64)
    num = adj @ sub
    if np.any(num % red._sub_det):
        raise ValueError("some element does not preserve the root lattice")
    w6 = num // red._sub_det
    u = np.array(red.u, dtype=np.int64)
    u_inv = np.array(red.u_inv, dtype=np.int64)
    conj = u @ w6 @ u_inv
    if np.any(conj[:, 1:, 0] % 3):
        raise ValueError("some element does not descend to the quotient")
    blocks = conj[:, 1:, 1:].reshape(-1, 25) % 3

    place = 3 ** np.arange(24, -1, -1, dtype=np.int64)
    codes, neg_codes = blocks @ place, ((3 - blocks) % 3) @ place
    signed = np.unique(np.concatenate([codes, neg_codes]))
    return np.unique(np.minimum(codes, neg_codes)), len(signed)


def images_in_po(
    red: ReductionMap, marking: dict[int, Vec7]
) -> dict[str, tuple[tuple[int, ...], ...]]:
    """Explicit projective mod-3 matrices for the coordinate-action generators
    and the monodromy Klein group."""
    out = {}
    for name, p in (
        ("coordinate_transposition", lines_mod.s4_generators()[0]),
        ("coordinate_four_cycle", lines_mod.s4_generators()[1]),
    ):
        out[name] = po_image(red, p, marking)
    for name, p in lines_mod.monodromy_klein_elements().items():
        out[f"monodromy_{name}"] = po_image(red, p, marking)
    return out
