import math
import random
from itertools import permutations

import numpy as np
import pytest
import sympy
from sympy.combinatorics import Permutation

from cubic27 import lines
from cubic27.exact import (
    MONOMIAL_EXPONENTS,
    _derivatives,
    _det,
    _leibniz_table,
    _rank,
    _restrict,
    _substitute,
    _times,
    ZETA_COMPLEX,
    symmetric_basis,
)
from cubic27.lines import fermat_catalog

ZETA = np.array([0, 1])
ZETA5 = np.array([1, -1])  # zeta^5 = 1 - zeta


def embed(x) -> np.ndarray:
    """The complex values of (..., 2) Eisenstein pairs a + b zeta."""
    x = np.asarray(x)
    return x[..., 0] + x[..., 1] * ZETA_COMPLEX


def conjugate(x) -> np.ndarray:
    """conj(a + b zeta) = (a + b) - b zeta, on (..., 2) pairs."""
    x = np.asarray(x)
    return np.stack([x[..., 0] + x[..., 1], -x[..., 1]], axis=-1)


def random_pairs(rng, *shape, bound=20):
    return rng.integers(-bound, bound + 1, size=(*shape, 2))


class TestCyclotomic:
    def test_zeta_times_zeta5_is_one(self):
        assert _times(ZETA, ZETA5).tolist() == [1, 0]
        assert abs(ZETA_COMPLEX * (1 - ZETA_COMPLEX) - 1) < 1e-15

    def test_zeta_cubed_is_minus_one(self):
        assert _times(_times(ZETA, ZETA), ZETA).tolist() == [-1, 0]
        assert abs(ZETA_COMPLEX**3 + 1) < 1e-15

    def test_trace_of_zeta(self):
        assert (ZETA + conjugate(ZETA)).tolist() == [1, 0]
        assert abs(ZETA_COMPLEX + ZETA_COMPLEX.conjugate() - 1) < 1e-15

    def test_conjugation_formula(self):
        x = random_pairs(np.random.default_rng(0), 50)
        assert np.abs(embed(conjugate(x)) - embed(x).conj()).max() < 1e-12

    def test_field_axioms_randomized(self):
        # the ring axioms of the Eisenstein product, the embedding is a ring
        # homomorphism, and x conj(x) is the positive integer norm, so every
        # nonzero x is invertible in Q(zeta)
        x, y, z = random_pairs(np.random.default_rng(1), 3, 200)
        assert np.array_equal(_times(x, y + z), _times(x, y) + _times(x, z))
        assert np.array_equal(_times(x, y), _times(y, x))
        assert np.array_equal(_times(_times(x, y), z), _times(x, _times(y, z)))
        assert np.abs(embed(_times(x, y)) - embed(x) * embed(y)).max() < 1e-9
        norm = _times(x, conjugate(x))
        assert not norm[:, 1].any()
        assert (norm[x.any(axis=1), 0] > 0).all()

    def test_numeric_embedding(self):
        z = embed(ZETA)
        assert z == ZETA_COMPLEX
        assert abs(z**2 - z + 1) < 1e-15
        assert z.imag > 0
        # conj(a + b zeta) = (a + b) - b zeta embeds as the complex conjugate
        cat = fermat_catalog()
        assert np.abs(embed(conjugate(cat)) - embed(cat).conj()).max() < 1e-15

    def test_norm_positive(self):
        x = random_pairs(np.random.default_rng(2), 50)
        a, b = x[:, 0], x[:, 1]
        norm = a * a + a * b + b * b
        assert np.abs(np.abs(embed(x)) ** 2 - norm).max() < 1e-9
        assert (norm[x.any(axis=1)] > 0).all()

    def test_negative_power(self):
        assert abs(ZETA_COMPLEX**-1 - embed(ZETA5)) < 1e-15
        assert abs(ZETA_COMPLEX**-6 - 1) < 1e-15


def permutation_matrix(sigma):
    return [[1 if sigma[i] == j else 0 for j in range(4)] for i in range(4)]


def evaluate(form, point):
    """f(x) summed monomial by monomial, in the ring of the point's entries
    (integers or sympy polynomials)."""
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
            m = np.array([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
            for _ in range(5):
                v = [rng.randint(-3, 3) for _ in range(4)]
                assert evaluate(_substitute(form, m), v) == evaluate(form, (m @ v).tolist())

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
# Leibniz determinants and ranks, and the Plucker pairing against them
# ---------------------------------------------------------------------------

Z = sympy.symbols("z")


def sympy_det(m) -> list[int]:
    """The determinant of a square matrix of (a, b) pairs, as a polynomial in
    z reduced modulo z^2 - z + 1: [a, b] for a + b zeta."""
    dm = sympy.Matrix([[a + b * Z for a, b in row] for row in np.asarray(m).tolist()]).to_DM()
    det = dm.domain.to_sympy(dm.det())
    reduced = sympy.Poly(det, Z).rem(sympy.Poly(Z**2 - Z + 1, Z))
    return [int(reduced.coeff_monomial(Z**k)) for k in (0, 1)]


def random_matrix(rng, n, rank, eisenstein):
    """An n x n matrix over Z[zeta] of rank at most ``rank``: (n x rank)
    times (rank x n), a quarter of the factors' entries zero; integer
    entries unless ``eisenstein``."""
    b, c = (rng.integers(-3, 4, size=shape + (2,)) for shape in ((n, rank), (rank, n)))
    for f in (b, c):
        f[rng.random(f.shape[:2]) < 0.25] = 0
        if not eisenstein:
            f[..., 1] = 0
    return _times(b[:, :, None], c[None, :, :]).sum(axis=1)


class TestLeibniz:
    @pytest.mark.parametrize("eisenstein", [False, True], ids=["integer", "eisenstein"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_sympy(self, eisenstein, n):
        rng = np.random.default_rng(10 * n + eisenstein)
        matrices = np.stack([random_matrix(rng, n, trial % (n + 1), eisenstein) for trial in range(30)])
        ranks = [np.linalg.matrix_rank(embed(m)) for m in matrices]  # oracle: the complex embedding
        assert set(ranks) == set(range(n + 1))  # every rank occurs
        assert _det(matrices).tolist() == [sympy_det(m) for m in matrices]
        assert _rank(matrices).tolist() == ranks

    def test_determinant_is_an_integer_pair(self):
        one, zero = [1, 0], [0, 0]
        swap = np.array([[zero, one], [one, zero]])
        assert _det(swap).tolist() == [-1, 0]
        assert _det(np.array([[zero, one], [zero, ZETA]])).tolist() == [0, 0]
        dets = _det(np.stack([swap, np.zeros_like(swap), swap[::-1]]))
        assert dets.dtype == np.int64 and dets.tolist() == [[-1, 0], [0, 0], [1, 0]]
        assert _det(np.array([[ZETA]])).tolist() == [0, 1]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_permutation_table(self, k):
        perms, signs = _leibniz_table(k)
        assert _leibniz_table(k)[0] is perms  # one table per size
        assert perms.tolist() == [list(p) for p in permutations(range(k))]
        assert signs.tolist() == [Permutation(list(p)).signature() for p in perms.tolist()]

    def test_rank_of_a_stack(self):
        rng = np.random.default_rng(12)
        stack = rng.integers(-2, 3, size=(2, 3, 3, 5, 2))
        stack[0, 1] = 0
        stack[1, 2, 1] = stack[1, 2, 0]  # two equal rows
        ranks = _rank(stack)
        assert ranks.shape == (2, 3)
        assert ranks.tolist() == [[int(_rank(m)) for m in row] for row in stack]
        assert ranks[0, 1] == 0 and ranks[1, 2] <= 2

    def test_rank_of_a_non_square_matrix(self):
        one, zero = np.array([1, 0]), np.array([0, 0])
        zeta2 = _times(ZETA, ZETA)
        assert _rank(np.array([[one, ZETA, zero], [ZETA, zeta2, one]])) == 2
        assert _rank(np.array([[one, ZETA, zero], [ZETA, zeta2, zero]])) == 1
        assert _rank(np.array([[one, ZETA, zero], [ZETA, zeta2, zero]]).transpose(1, 0, 2)) == 1
        assert _rank(np.zeros((2, 3, 2), dtype=np.int64)) == 0


def eisenstein_span(rng, through=None):
    """A random rank-2 (2, 4, 2) span with entries a + b zeta, |a|, |b| <= 2;
    its second row on the line ``through`` if one is given."""
    while True:
        span = rng.integers(-2, 3, size=(2, 4, 2))
        if through is not None:
            s, t = rng.integers(-2, 3, size=(2, 2))
            span[1] = _times(s, through[0]) + _times(t, through[1])
        if _rank(span) == 2:
            return span


def pairing(a, b) -> np.ndarray:
    return lines._pairing(lines._plucker(a), lines._plucker(b))


class TestPluckerPairing:
    def test_catalog_pairs_match_the_stacked_determinant(self):
        cat = fermat_catalog()
        i, j = np.triu_indices(27, 1)
        values = pairing(cat[i], cat[j])
        assert np.array_equal(values, _det(np.concatenate([cat[i], cat[j]], axis=1)))
        meeting = ~values.any(axis=1)
        assert np.array_equal(lines.incidence_graph()[i, j], meeting)
        assert meeting.sum() == 27 * 10 // 2

    def test_random_spans_match_the_stacked_determinant(self):
        rng = np.random.default_rng(5)
        for trial in range(60):
            a = eisenstein_span(rng)
            b = eisenstein_span(rng, through=a if trial % 2 else None)  # odd: b meets a
            value = pairing(a, b)
            assert np.array_equal(value, _det(np.concatenate([a, b])))
            assert np.array_equal(value, pairing(b, a))
            if trial % 2:
                assert not value.any()
