import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
import sympy

from cubic27 import lines
from cubic27.exact import (
    MONOMIAL_EXPONENTS,
    _derivatives,
    _gauss_jordan,
    _restrict,
    _substitute,
    Cyc,
    ONE,
    ZERO,
    ZETA,
    ZETA5,
    ZETA_COMPLEX,
    symmetric_basis,
)
from cubic27.lines import fermat_catalog


def rand_cyc(rng, small=False):
    bound = 3 if small else 20
    return Cyc(
        Fraction(rng.randint(-bound, bound), rng.randint(1, 5)),
        Fraction(rng.randint(-bound, bound), rng.randint(1, 5)),
    )


class TestCyclotomic:
    def test_zeta_times_zeta5_is_one(self):
        assert ZETA * ZETA5 == ONE

    def test_zeta_cubed_is_minus_one(self):
        assert ZETA**3 == Cyc(-1)

    def test_trace_of_zeta(self):
        assert ZETA + ZETA.conjugate() == ONE

    def test_conjugation_formula(self):
        x = Cyc(Fraction(2, 3), Fraction(-5, 7))
        c = x.conjugate()
        assert c.a == Fraction(2, 3) + Fraction(-5, 7) and c.b == Fraction(5, 7)

    def test_field_axioms_randomized(self):
        rng = random.Random(1)
        for _ in range(200):
            x, y, z = (rand_cyc(rng) for _ in range(3))
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z
            assert x * y == y * x
            if not x.is_zero():
                assert x * x.inverse() == ONE

    def test_truth_value_is_nonzero(self):
        assert not ZERO and not Cyc(0, 0)
        assert ONE and ZETA and Cyc(0, Fraction(-1, 3))

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_numeric_embedding(self):
        z = ZETA.to_complex()
        assert z == ZETA_COMPLEX
        assert abs(z**2 - z + 1) < 1e-15
        assert z.imag > 0
        # conj(a + b zeta) = (a + b) - b zeta embeds as the complex conjugate
        cat = fermat_catalog()
        a, b = cat[..., 0], cat[..., 1]
        embedded = a + b * ZETA_COMPLEX
        assert np.abs((a + b) - b * ZETA_COMPLEX - embedded.conj()).max() < 1e-15

    def test_hash_agrees_with_equal_rationals(self):
        assert Cyc(1) in {1}
        assert {Fraction(2, 3): "x"}[Cyc(Fraction(2, 3))] == "x"
        assert hash(Cyc(-4)) == hash(-4) and hash(Cyc(0, 0)) == hash(0)
        assert len({Cyc(1), Cyc(1, 1), Cyc(0, 1), ONE}) == 3

    def test_norm_positive(self):
        rng = random.Random(2)
        for _ in range(50):
            x = rand_cyc(rng)
            if not x.is_zero():
                assert x.norm() > 0

    def test_negative_power(self):
        assert ZETA**-1 == ZETA5
        assert ZETA**-6 == ONE


def permutation_matrix(sigma):
    return [[1 if sigma[i] == j else 0 for j in range(4)] for i in range(4)]


def evaluate(form, point):
    """f(x) summed monomial by monomial, in the ring of the point's entries
    (integers, Cyc or sympy polynomials)."""
    return sum(int(c) * math.prod(x**e for x, e in zip(point, expo)) for c, expo in zip(form, MONOMIAL_EXPONENTS))


def random_form(rng, bound=3):
    return np.array([rng.randint(-bound, bound) for _ in range(20)], dtype=np.int64)


X = sympy.symbols("x0:4")


def to_sympy(form) -> sympy.Poly:
    return evaluate(form, [sympy.Poly(x, *X) for x in X])


class TestSymmetricBasis:
    def test_monomial_counts(self):
        m3, m21, m111 = symmetric_basis()
        assert np.count_nonzero(m3) == 4
        assert np.count_nonzero(m21) == 12
        assert np.count_nonzero(m111) == 4

    def test_read_only_integer_rows(self):
        basis = symmetric_basis()
        assert basis.shape == (3, 20) and basis.dtype == np.int64
        with pytest.raises(ValueError):
            basis[0, 0] = 2

    def test_invariance_under_all_coordinate_permutations(self):
        for form in symmetric_basis():
            for sigma in permutations(range(4)):
                assert np.array_equal(_substitute(form, permutation_matrix(sigma)), form)

    def test_m3_vanishes_on_difference_point(self):
        m3, _, _ = symmetric_basis()
        assert evaluate(m3, [1, -1, 0, 0]) == 0

    def test_elementary_gradient_vanishes_at_vertex(self):
        _, _, m111 = symmetric_basis()
        assert not _derivatives(m111, [1, 0, 0, 0])[0].any()


class TestPolyOps:
    def test_substitute_evaluate_compatibility(self):
        rng = random.Random(3)
        for _ in range(20):
            form = random_form(rng)
            m = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
            v = [Cyc(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)]
            mv = [sum((m[i][j] * v[j] for j in range(4)), ZERO) for i in range(4)]
            assert evaluate(_substitute(form, m), v) == evaluate(form, mv)

    def test_substitute_matches_sympy(self):
        rng = random.Random(4)
        for _ in range(20):
            form = random_form(rng)
            m = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
            expanded = evaluate(form, [sympy.Poly(sum(m[i][j] * X[j] for j in range(4)), *X) for i in range(4)])
            expect = [int(expanded.coeff_monomial(expo)) for expo in MONOMIAL_EXPONENTS]
            assert _substitute(form, m).tolist() == expect

    def test_three_cusp_normal_form_identity(self):
        from cubic27.symverify import CUSP_CHANGE_OF_BASIS, three_cusp_form

        _, m21, m111 = symmetric_basis()
        result = _substitute(three_cusp_form(), CUSP_CHANGE_OF_BASIS)
        assert np.array_equal(result, 4 * (m21 + m111))

    def test_restrict_to_line_binary_cubic(self):
        m3, _, _ = symmetric_basis()
        span = np.array([[[1, 0], [-1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [1, 0], [0, 1]]])
        coeffs = _restrict(m3, span)
        assert coeffs.shape == (4, 2)
        assert not coeffs.any()

    def test_restriction_is_linear(self):
        m3, m21, _ = symmetric_basis()
        # p = (1, 2, zeta, 0), q = (0, 1, -1, zeta^5 = 1 - zeta)
        span = np.array([[[1, 0], [2, 0], [0, 1], [0, 0]], [[0, 0], [1, 0], [-1, 0], [1, -1]]])
        assert np.array_equal(_restrict(m3 + m21, span), _restrict(m3, span) + _restrict(m21, span))

    def test_restriction_matches_sympy(self):
        # zeta is the symbol z, reduced modulo z^2 - z + 1 by division in z,
        # the polynomials' main variable
        rng = random.Random(6)
        z, s, t = sympy.symbols("z s t")
        for _ in range(20):
            form = random_form(rng)
            span = np.array([[[rng.randint(-2, 2) for _ in range(2)] for _ in range(4)] for _ in range(2)])
            p, q = ([a + b * z for a, b in row] for row in span.tolist())
            restricted = evaluate(form, [sympy.Poly(s * u + t * v, z, s, t) for u, v in zip(p, q)])
            reduced = restricted.rem(sympy.Poly(z**2 - z + 1, z, s, t))
            expect = [
                [int(reduced.coeff_monomial(s ** (3 - k) * t**k * z**b)) for b in (0, 1)] for k in range(4)
            ]
            assert _restrict(form, span).tolist() == expect

    def test_gradient_of_product_rule_spot(self):
        # f = x^2 y: df/dx = 2 x y, df/dy = x^2, df/dz = df/dw = 0
        form = np.zeros(20, dtype=np.int64)
        form[MONOMIAL_EXPONENTS.index((2, 1, 0, 0))] = 1
        rng = random.Random(7)
        for _ in range(10):
            x, y, z, w = (rng.randint(-5, 5) for _ in range(4))
            grad, hessian = _derivatives(form, [x, y, z, w])
            assert grad.tolist() == [2 * x * y, x * x, 0, 0]
            assert hessian.tolist() == [[2 * y, 2 * x, 0, 0], [2 * x, 0, 0, 0], [0] * 4, [0] * 4]

    def test_derivatives_match_sympy(self):
        rng = random.Random(8)
        for _ in range(10):
            form = random_form(rng)
            point = [rng.randint(-3, 3) for _ in range(4)]
            f, at = to_sympy(form), dict(zip(X, point))
            grad, hessian = _derivatives(form, point)
            assert grad.tolist() == [int(f.diff(x).eval(at)) for x in X]
            assert hessian.tolist() == [[int(f.diff(x).diff(y).eval(at)) for y in X] for x in X]

    def test_serialize(self):
        m3, _, _ = symmetric_basis()
        terms = [(MONOMIAL_EXPONENTS[i], int(m3[i])) for i in np.flatnonzero(m3)]
        assert len(terms) == 4
        expo, coeff = terms[0]
        assert expo == (3, 0, 0, 0) and coeff == 1


# ---------------------------------------------------------------------------
# Field elimination and the Plucker pairing against a Leibniz oracle
# ---------------------------------------------------------------------------


def leibniz_det(m):
    """Sum over permutations of signed products (24 terms for a 4x4)."""
    n = len(m)
    total = 0
    for sigma in permutations(range(n)):
        inversions = sum(sigma[i] > sigma[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term = term * m[i][sigma[i]]
        total = total + term
    return total


def leibniz_rank(m):
    """Largest k with a nonzero k x k minor."""
    for k in range(min(len(m), len(m[0])), 0, -1):
        for rows in combinations(range(len(m)), k):
            for cols in combinations(range(len(m[0])), k):
                if leibniz_det([[m[r][c] for c in cols] for r in rows]) != 0:
                    return k
    return 0


def rand_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def random_matrix(rng, n, rank, entry):
    """n x n matrix of rank at most ``rank``: (n x rank) times (rank x n).

    Half the factors' entries are zero, so that zero pivots force row swaps."""
    zero = entry(rng) * 0
    b = [[entry(rng) if rng.random() < 0.5 else zero for _ in range(rank)] for _ in range(n)]
    c = [[entry(rng) if rng.random() < 0.5 else zero for _ in range(n)] for _ in range(rank)]
    return [[sum((b[i][k] * c[k][j] for k in range(rank)), zero) for j in range(n)] for i in range(n)]


class TestGaussJordan:
    @pytest.mark.parametrize("entry", [rand_fraction, lambda rng: rand_cyc(rng, small=True)],
                             ids=["fraction", "cyc"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_against_leibniz(self, entry, n):
        rng = random.Random(10 * n + (entry is rand_fraction))
        for trial in range(30):
            rank = trial % (n + 1)  # singular for all but every (n+1)-th trial
            m = random_matrix(rng, n, rank, entry)
            reduced, pivots, det = _gauss_jordan(m)
            assert det == leibniz_det(m)
            assert len(pivots) == leibniz_rank(m)
            assert pivots == sorted(set(pivots))
            for k, col in enumerate(pivots):
                assert all(x == 0 for x in reduced[k][:col]) and reduced[k][col] == 1
                assert all(reduced[i][col] == 0 for i in range(n) if i != k)
            assert all(x == 0 for row in reduced[len(pivots):] for x in row)
            # every input row is the combination of reduced rows read off at the pivots
            for row in m:
                combo = [sum((row[col] * reduced[k][j] for k, col in enumerate(pivots)), 0 * row[0])
                         for j in range(n)]
                assert combo == row

    def test_determinant_stays_in_the_field(self):
        assert isinstance(_gauss_jordan([[Cyc(0), ONE], [ONE, Cyc(0)]])[2], Cyc)
        assert _gauss_jordan([[Cyc(0), ONE], [Cyc(0), ZETA]])[2] == Cyc(0)
        assert _gauss_jordan([[Fraction(0)] * 2] * 2)[2] == 0

    def test_non_square_has_no_determinant(self):
        reduced, pivots, det = _gauss_jordan([[ONE, ZETA, ZERO], [ZETA, ZETA * ZETA, ONE]])
        assert det is None and pivots == [0, 2]
        assert reduced == [[ONE, ZETA, ZERO], [ZERO, ZERO, ONE]]


def cyc_span(span) -> list[list[Cyc]]:
    """A (2, 4, 2) Eisenstein-integer span as rows of Q(zeta) elements."""
    return [[Cyc(a, b) for a, b in row] for row in np.asarray(span).tolist()]


def eisenstein_span(rng, through=None):
    """A random rank-2 (2, 4, 2) span with entries a + b zeta, |a|, |b| <= 2;
    its second row on the line ``through`` if one is given."""
    while True:
        span = [[[rng.randint(-2, 2), rng.randint(-2, 2)] for _ in range(4)] for _ in range(2)]
        if through is not None:
            s, t = (Cyc(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2))
            r0, r1 = cyc_span(through)
            span[1] = [[int(x.a), int(x.b)] for x in (s * p + t * q for p, q in zip(r0, r1))]
        if len(_gauss_jordan(cyc_span(span))[1]) == 2:
            return np.array(span, dtype=np.int64)


def pairing_cyc(a, b) -> Cyc:
    return Cyc(*lines._pairing(lines._plucker(a), lines._plucker(b)).tolist())


class TestPluckerPairing:
    def test_catalog_pairs_match_the_stacked_determinant(self):
        cat = fermat_catalog()
        meeting = 0
        for i, j in combinations(range(27), 2):
            value = pairing_cyc(cat[i], cat[j])
            assert value == leibniz_det(cyc_span(cat[i]) + cyc_span(cat[j]))
            assert lines.incidence_graph()[i, j] == value.is_zero()
            meeting += value.is_zero()
        assert meeting == 27 * 10 // 2

    def test_random_spans_match_the_stacked_determinant(self):
        rng = random.Random(5)
        for trial in range(60):
            a = eisenstein_span(rng)
            b = eisenstein_span(rng, through=a if trial % 2 else None)  # odd: b meets a
            value = pairing_cyc(a, b)
            assert value == leibniz_det(cyc_span(a) + cyc_span(b))
            assert value == pairing_cyc(b, a)
            if trial % 2:
                assert value.is_zero()
