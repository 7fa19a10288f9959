from fractions import Fraction

import sympy

from cubic27 import symverify
from cubic27.exact import symmetric_basis
from cubic27.symverify import (
    CUSP_CHANGE_OF_BASIS,
    check_cayley_nodes,
    check_normalizer_family,
    check_tricuspidal,
    check_tritangent_vanishing,
    run_all_checks,
    three_cusp_form,
)


class TestTricuspidal:
    def test_passes_with_unit_scalar(self):
        result = check_tricuspidal()
        assert result.passed
        assert result.details["scalar_forward"] == "1"
        assert result.details["scalar_backward"] == "1/64"
        assert result.details["exact_direction"] == "f(M z)"
        assert result.details["matrix_squares_to_4I"] is True

    def test_square_is_computed(self, monkeypatch):
        # a matrix that squares to 2I is refused by the computed identity
        swap = ((0, 1, 0, 0), (2, 0, 0, 0), (0, 0, 0, 1), (0, 0, 2, 0))
        monkeypatch.setattr(symverify, "CUSP_CHANGE_OF_BASIS", swap)
        result = check_tricuspidal()
        assert result.details["matrix_squares_to_4I"] is False
        assert not result.passed

    def test_direct_identity(self):
        _, m21, m111 = symmetric_basis()
        transformed = three_cusp_form().substitute(CUSP_CHANGE_OF_BASIS)
        assert transformed == (m21 + m111).scale(4)

    def test_result_is_coordinate_symmetric(self):
        from itertools import permutations

        transformed = three_cusp_form().substitute(CUSP_CHANGE_OF_BASIS)
        for sigma in permutations(range(4)):
            mat = [[1 if sigma[i] == j else 0 for j in range(4)] for i in range(4)]
            assert transformed.substitute(mat) == transformed

    def test_untransformed_form_is_not_symmetric(self):
        g = three_cusp_form()
        swap01 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        assert g.substitute(swap01) != g

    def test_matrix_squares_to_four_times_identity(self):
        m = CUSP_CHANGE_OF_BASIS
        sq = [
            [sum(m[i][k] * m[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
        assert sq == [[4 if i == j else 0 for j in range(4)] for i in range(4)]


class TestCayleyNodes:
    def test_four_nodes_nondegenerate(self):
        result = check_cayley_nodes()
        assert result.passed
        assert result.details["nodes"] == [True, True, True, True]
        assert all(d != "0" for d in result.details["hessian_dets"])
        assert result.details["smooth_control_point_nonsingular"]


class TestTritangentVanishing:
    def test_all_three_forms_vanish(self):
        result = check_tritangent_vanishing()
        assert result.passed
        for name in ("m3", "m21", "m111"):
            assert result.details[f"{name}_vanishes_on_tritangent"] == [True] * 3

    def test_negative_control(self):
        result = check_tritangent_vanishing()
        assert result.details["m3_vanishes_on_line1"] is True
        assert result.details["m21_vanishes_on_line1"] is False

    def test_coplanarity(self):
        assert check_tritangent_vanishing().details["tritangent_span_rank"] == 3


class TestNormalizerFamily:
    def test_determinant_and_commutation(self):
        result = check_normalizer_family()
        assert result.passed
        assert result.details["determinant_matches_(lam-1)^3(lam+3)"] is True
        assert result.details["commutes_with_permutation_matrices"] is True
        assert result.details["singular_at_1"]
        assert result.details["singular_at_-3"]

    def test_commutation_failure_is_not_a_determinant_mismatch(self, monkeypatch):
        # upper triangular with diagonal (lam-1, lam-1, lam-1, lam+3): the
        # determinant is right, but the ones above the diagonal break the
        # commutation with the permutation matrices
        from cubic27 import symverify

        def triangular(lam):
            diag = (lam - 1, lam - 1, lam - 1, lam + 3)
            return [
                [diag[i] if i == j else Fraction(int(j > i)) for j in range(4)]
                for i in range(4)
            ]

        monkeypatch.setattr(symverify, "_normalizer_matrix", triangular)
        result = check_normalizer_family()
        assert result.details["determinant_matches_(lam-1)^3(lam+3)"] is True
        assert result.details["commutes_with_permutation_matrices"] is False
        assert not result.passed

    def test_commutes_with_a_transposition_at_lambda_2(self):
        from cubic27.symverify import _normalizer_matrix

        c = sympy.Matrix(_normalizer_matrix(Fraction(2)))
        swap01 = sympy.Matrix(4, 4, lambda i, j: int(i == (1, 0, 2, 3)[j]))
        assert c * swap01 == swap01 * c


def test_run_all_checks_pass_and_have_details():
    results = run_all_checks()
    assert len(results) == 4
    for r in results:
        assert r.passed
        assert r.details  # pass implies details are recorded
