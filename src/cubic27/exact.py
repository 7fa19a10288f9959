"""Exact arithmetic over the Eisenstein integers Z[zeta], zeta^2 = zeta - 1,
held as (a, b) integer pairs for a + b*zeta: their product, integer cubic
forms, and determinants and ranks of matrices over Z[zeta].

An integer cubic form is an int64 vector of its coefficients over
MONOMIAL_EXPONENTS, the monomial order the tracker also uses; one table of
each monomial's variable orderings turns it into its polarization tensor
6T, from which substitution, restriction to a line and derivatives are read.

A determinant is the Leibniz sum over one cached table of permutations and
signs per size, its products taken with the Eisenstein product; a rank is
the size of the largest nonzero minor.  Integer matrices are the matrices
over Z[zeta] whose entries have b = 0.

zeta is a primitive 6th root of unity (zeta^3 = -1, zeta^6 = 1); the numeric
embedding pins zeta = exp(i*pi/3).
"""

from __future__ import annotations

import cmath
from functools import lru_cache, reduce
from itertools import combinations, permutations

import numpy as np

ZETA_COMPLEX = cmath.exp(1j * cmath.pi / 3)  # the numeric embedding of zeta


# ---------------------------------------------------------------------------
# Cubic forms: integer vectors over the 20 degree-3 monomials
# ---------------------------------------------------------------------------

# Degree-3 exponent tuples in descending lexicographic order, d0 first.
MONOMIAL_EXPONENTS: tuple[tuple[int, int, int, int], ...] = tuple(
    sorted(
        (
            (d0, d1, d2, 3 - d0 - d1 - d2)
            for d0 in range(4)
            for d1 in range(4 - d0)
            for d2 in range(4 - d0 - d1)
        ),
        reverse=True,
    )
)
N_MONOMIALS = len(MONOMIAL_EXPONENTS)  # 20

# _ORDERINGS[m, i*16 + j*4 + k] = 1 where (i, j, k) is an ordering of the
# variables of monomial m: 1, 3 or 6 orderings per monomial.  Spreading each
# coefficient evenly over its orderings gives the symmetric polarization
# tensor T, f(x) = T(x, x, x), and summing T over them reads it back.
_ORDERINGS = np.zeros((N_MONOMIALS, 4, 4, 4), dtype=np.int64)
for _m, _e in enumerate(MONOMIAL_EXPONENTS):
    for _ijk in permutations([i for i in range(4) for _ in range(_e[i])]):
        _ORDERINGS[(_m, *_ijk)] = 1
_ORDERINGS = _ORDERINGS.reshape(N_MONOMIALS, 64)
# form @ _POLAR6 = 6T, an integer tensor for an integer form
_POLAR6 = _ORDERINGS * (6 // _ORDERINGS.sum(axis=1, keepdims=True))


@lru_cache(maxsize=1)
def symmetric_basis() -> np.ndarray:
    """The degree-3 symmetric basis as a read-only (3, 20) int64 array, rows
    m3 (power sum), m21 (mixed) and m111 (elementary): 4, 12 and 4
    monomials respectively."""
    patterns = ((3, 0, 0, 0), (2, 1, 0, 0), (1, 1, 1, 0))
    basis = np.array(
        [[sorted(e, reverse=True) == list(p) for e in MONOMIAL_EXPONENTS] for p in patterns],
        dtype=np.int64,
    )
    basis.setflags(write=False)
    return basis


def _times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The Eisenstein product on the last axis of (a, b) pairs:
    (a + b z)(c + d z) = (ac - bd) + (ad + bc + bd) z, since z^2 = z - 1."""
    a, b, c, d = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
    return np.stack([a * c - b * d, a * d + b * c + b * d], axis=-1)


def _polar6(form: np.ndarray) -> np.ndarray:
    """6T of an integer form as a (4, 4, 4) integer tensor."""
    return (np.asarray(form) @ _POLAR6).reshape(4, 4, 4)


def _substitute(form: np.ndarray, matrix) -> np.ndarray:
    """The integer form f(M z) for an integer 4x4 matrix M: 6T pulled back
    along M, each monomial's coefficient read back as the sum of 6T over its
    orderings, divided exactly by 6."""
    m = np.asarray(matrix, dtype=np.int64)
    if m.shape != (4, 4):
        raise ValueError("substitution wants a 4x4 matrix")
    pulled = np.einsum("ijk,ia,jb,kc->abc", _polar6(form), m, m, m)
    return _ORDERINGS @ pulled.reshape(64) // 6


def _restrict(form: np.ndarray, span: np.ndarray) -> np.ndarray:
    """The binary cubic f(s p + t q) on a (2, 4, 2) span (p, q) over Z[zeta]:
    (4, 2) coefficients (a, b) of s^3, s^2 t, s t^2, t^3, which are T(p,p,p),
    3T(p,p,q), 3T(p,q,q) and T(q,q,q)."""
    p, q = np.asarray(span)
    x, y, z = (np.stack(rows) for rows in ((p, p, p, q), (p, p, q, q), (p, q, q, q)))
    cubes = _times(_times(x[:, :, None, None], y[:, None, :, None]), z[:, None, None, :])
    six_t = np.einsum("m,tmc->tc", _polar6(form).reshape(64), cubes.reshape(4, 64, 2))
    return six_t * np.array([1, 3, 3, 1])[:, None] // 6


def _derivatives(form: np.ndarray, point) -> tuple[np.ndarray, np.ndarray]:
    """The integer gradient and Hessian of f at an integer point x: the
    Hessian is 6T(x, ., .) and the gradient 6T(x, x, .)/2, exactly."""
    x = np.asarray(point, dtype=np.int64)
    hessian = _polar6(form) @ x
    return hessian @ x // 2, hessian


# ---------------------------------------------------------------------------
# Matrices over Z[zeta]: Leibniz determinants and ranks by minors
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _leibniz_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k! permutations of range(k) as read-only index rows, in
    lexicographic order, and their signs."""
    perms = np.array(list(permutations(range(k))), dtype=np.intp).reshape(-1, k)
    signs = (-1) ** np.triu(perms[:, :, None] > perms[:, None, :]).sum(axis=(1, 2))
    for table in (perms, signs):
        table.setflags(write=False)
    return perms, signs


def _det(m: np.ndarray) -> np.ndarray:
    """Exact determinants of a stack of k x k matrices over Z[zeta],
    (..., k, k, 2) -> (..., 2): the Leibniz sum of signed products of the
    entries m[i, sigma(i)]."""
    m = np.asarray(m)
    k = m.shape[-2]
    perms, signs = _leibniz_table(k)
    entries = m[..., np.arange(k), perms, :]  # (..., k!, k, 2)
    terms = reduce(_times, np.moveaxis(entries, -2, 0))
    return (signs[:, None] * terms).sum(axis=-2)


def _rank(m: np.ndarray) -> np.ndarray:
    """The ranks of a stack of r x c matrices over Z[zeta], (..., r, c, 2) ->
    (...): the size of each one's largest nonzero minor."""
    m = np.asarray(m)
    r, c = m.shape[-3:-1]
    rank = np.zeros(m.shape[:-3], dtype=np.int64)
    for k in range(1, min(r, c) + 1):
        rows, cols = (np.array(list(combinations(range(n), k))) for n in (r, c))
        minors = m[..., rows[:, None, :, None], cols[None, :, None, :], :]  # (..., R, C, k, k, 2)
        rank[_det(minors).any(axis=(-3, -2, -1))] = k
    return rank
