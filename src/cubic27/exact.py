"""Exact arithmetic: Q(zeta) with zeta^2 = zeta - 1, sparse polynomials in
four variables, and Gauss-Jordan elimination over Q and Q(zeta).

zeta is a primitive 6th root of unity (zeta^3 = -1, zeta^6 = 1); the numeric
embedding pins zeta = exp(i*pi/3).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Mapping, Sequence

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

Expo = tuple[int, int, int, int]


class Poly4:
    """Sparse polynomial in z0..z3 over Q(zeta); no zero coefficients stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Expo, Cyc] | None = None):
        clean: dict[Expo, Cyc] = {}
        if terms:
            for expo, coeff in terms.items():
                c = Cyc.coerce(coeff)
                if not c.is_zero():
                    clean[tuple(expo)] = c  # type: ignore[index]
        self.terms = clean

    @staticmethod
    def monomial(expo: Expo, coeff=1) -> "Poly4":
        return Poly4({tuple(expo): Cyc.coerce(coeff)})

    @staticmethod
    def variable(i: int) -> "Poly4":
        e = [0, 0, 0, 0]
        e[i] = 1
        return Poly4.monomial(tuple(e))

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __add__(self, other: "Poly4") -> "Poly4":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, ZERO) + c
        return Poly4(out)

    def __neg__(self) -> "Poly4":
        return Poly4({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly4") -> "Poly4":
        return self + (-other)

    def __mul__(self, other: "Poly4") -> "Poly4":
        out: dict[Expo, Cyc] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                out[e] = out.get(e, ZERO) + c1 * c2
        return Poly4(out)

    def scale(self, s) -> "Poly4":
        c = Cyc.coerce(s)
        return Poly4({e: coeff * c for e, coeff in self.terms.items()})

    def gradient(self) -> tuple["Poly4", "Poly4", "Poly4", "Poly4"]:
        parts = []
        for i in range(4):
            out: dict[Expo, Cyc] = {}
            for e, c in self.terms.items():
                if e[i] == 0:
                    continue
                d = list(e)
                d[i] -= 1
                out[tuple(d)] = out.get(tuple(d), ZERO) + c * e[i]
            parts.append(Poly4(out))
        return tuple(parts)  # type: ignore[return-value]

    def evaluate(self, point: Sequence) -> Cyc:
        pt = [Cyc.coerce(x) for x in point]
        total = ZERO
        for e, c in self.terms.items():
            val = c
            for i in range(4):
                for _ in range(e[i]):
                    val = val * pt[i]
            total = total + val
        return total

    def substitute(self, matrix: Sequence[Sequence]) -> "Poly4":
        """Exact substitution z -> M.z, returning f(M z) (the f o M direction)."""
        if len(matrix) != 4 or any(len(row) != 4 for row in matrix):
            raise ValueError("substitution wants a 4x4 matrix")
        linear = [
            Poly4({(1 if j == 0 else 0, 1 if j == 1 else 0, 1 if j == 2 else 0, 1 if j == 3 else 0): Cyc.coerce(matrix[i][j])
                   for j in range(4) if not Cyc.coerce(matrix[i][j]).is_zero()})
            for i in range(4)
        ]
        out = Poly4()
        for e, c in self.terms.items():
            term = Poly4({(0, 0, 0, 0): c})
            for i in range(4):
                for _ in range(e[i]):
                    term = term * linear[i]
            out = out + term
        return out

    def restrict_to_line(self, p: Sequence, q: Sequence) -> tuple[Cyc, ...]:
        """Coefficients of f(s*p + t*q) as a binary form, s-degree descending.

        For a cubic this is the 4-tuple (s^3, s^2 t, s t^2, t^3)."""
        pv = [Cyc.coerce(x) for x in p]
        qv = [Cyc.coerce(x) for x in q]
        deg = self.total_degree()
        acc = [ZERO] * (deg + 1)
        for e, c in self.terms.items():
            binary = [c]  # coefficients in t, degree ascending
            for i in range(4):
                for _ in range(e[i]):
                    nxt = [ZERO] * (len(binary) + 1)
                    for k, b in enumerate(binary):
                        nxt[k] = nxt[k] + b * pv[i]
                        nxt[k + 1] = nxt[k + 1] + b * qv[i]
                    binary = nxt
            for k, b in enumerate(binary):
                acc[k] = acc[k] + b
        return tuple(acc)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly4) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def rational_multiple_of(self, other: "Poly4") -> Fraction | None:
        """The rational scalar s with self == s*other, if one exists."""
        if other.is_zero():
            return Fraction(0) if self.is_zero() else None
        if self.is_zero():
            return Fraction(0)
        if set(self.terms) != set(other.terms):
            return None
        expo = next(iter(other.terms))
        num, den = self.terms[expo], other.terms[expo]
        if not (num.is_rational() and den.is_rational()):
            return None
        ratio = num.a / den.a
        for e, c in other.terms.items():
            if self.terms[e] != c * ratio:
                return None
        return ratio

    def __repr__(self) -> str:
        return f"Poly4({self.terms!r})"


def symmetric_basis() -> tuple[Poly4, Poly4, Poly4]:
    """The degree-3 symmetric basis: power sum, mixed, and elementary parts
    (4, 12 and 4 monomials respectively)."""
    cube = Poly4()
    for i in range(4):
        e = [0] * 4
        e[i] = 3
        cube = cube + Poly4.monomial(tuple(e))
    mixed = Poly4()
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            e = [0] * 4
            e[i] = 2
            e[j] = 1
            mixed = mixed + Poly4.monomial(tuple(e))
    triple = Poly4()
    for i in range(4):
        e = [1] * 4
        e[i] = 0
        triple = triple + Poly4.monomial(tuple(e))
    return cube, mixed, triple


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
