"""Exact arithmetic: Q(zeta) with zeta^2 = zeta - 1, the Eisenstein product
on Z[zeta] as (a, b) integer pairs, integer cubic forms, and Gauss-Jordan
elimination over Q and Q(zeta).

An integer cubic form is an int64 vector of its coefficients over
MONOMIAL_EXPONENTS, the monomial order the tracker also uses; one table of
each monomial's variable orderings turns it into its polarization tensor
6T, from which substitution, restriction to a line and derivatives are read.

zeta is a primitive 6th root of unity (zeta^3 = -1, zeta^6 = 1); the numeric
embedding pins zeta = exp(i*pi/3).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Sequence

import numpy as np

ZETA_COMPLEX = cmath.exp(1j * cmath.pi / 3)  # the numeric embedding of zeta


class Cyc:
    """a + b*zeta with rational a, b; multiplication uses zeta^2 = zeta - 1."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @staticmethod
    def coerce(x) -> "Cyc":
        if isinstance(x, Cyc):
            return x
        return Cyc(Fraction(x))

    def __add__(self, other) -> "Cyc":
        o = Cyc.coerce(other)
        return Cyc(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return Cyc(-self.a, -self.b)

    def __sub__(self, other) -> "Cyc":
        return self + (-Cyc.coerce(other))

    def __rsub__(self, other) -> "Cyc":
        return Cyc.coerce(other) + (-self)

    def __mul__(self, other) -> "Cyc":
        o = Cyc.coerce(other)
        # (a + b z)(c + d z) = ac + (ad + bc) z + bd z^2,  z^2 = z - 1
        return Cyc(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a + self.b * o.b)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyc":
        """Complex conjugation, zeta -> zeta^5 = 1 - zeta."""
        return Cyc(self.a + self.b, -self.b)

    def norm(self) -> Fraction:
        """x * conj(x) = a^2 + a b + b^2, a positive rational for x != 0."""
        return self.a * self.a + self.a * self.b + self.b * self.b

    def inverse(self) -> "Cyc":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        c = self.conjugate()
        return Cyc(c.a / n, c.b / n)

    def __truediv__(self, other) -> "Cyc":
        return self * Cyc.coerce(other).inverse()

    def __rtruediv__(self, other) -> "Cyc":
        return Cyc.coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "Cyc":
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def is_rational(self) -> bool:
        return self.b == 0

    def to_complex(self) -> complex:
        return float(self.a) + float(self.b) * ZETA_COMPLEX

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyc(other)
        return isinstance(other, Cyc) and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        # a rational element hashes as the equal int or Fraction does
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __repr__(self) -> str:
        if self.b == 0:
            return f"Cyc({self.a})"
        return f"Cyc({self.a}, {self.b})"


ZERO = Cyc(0)
ONE = Cyc(1)
ZETA = Cyc(0, 1)
ZETA5 = ZETA.conjugate()  # 1 - zeta

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
# Matrices: Gauss-Jordan elimination over an exact field
# ---------------------------------------------------------------------------


def _gauss_jordan(rows: Sequence[Sequence]) -> tuple[list[list], list[int], object]:
    """Gauss-Jordan elimination over an exact field (Fraction or Cyc entries).

    Returns the reduced row echelon form, its pivot columns (their number is
    the rank) and, for a square matrix, the determinant: the product of the
    pivots, negated once per row swap (None if the matrix is not square).
    """
    m = [list(row) for row in rows]
    pivots: list[int] = []
    values = []
    sign = 1
    for col in range(len(m[0])):
        r = len(pivots)
        found = next((i for i in range(r, len(m)) if m[i][col]), None)
        if found is None:
            continue
        if found != r:
            m[r], m[found] = m[found], m[r]
            sign = -sign
        values.append(m[r][col])
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    if len(m) != len(m[0]):
        return m, pivots, None
    if len(pivots) < len(m):
        return m, pivots, 0 * m[0][0]  # zero, in the entries' field
    return m, pivots, math.prod(values, start=sign)
