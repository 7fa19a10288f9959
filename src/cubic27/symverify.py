"""Exact polynomial-identity checks for the symmetric cubic geometry: the
three-cusp normal form, the four-node (Cayley) surface, tritangent
vanishing, and the diagonal-plus-ones normalizer matrix family.  All checks
are exact: cubic forms are integer vectors read through exact's integer
kernels, and lines are spans over Z[zeta]; a failure pinpoints the violated
identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exact import (
    MONOMIAL_EXPONENTS,
    N_MONOMIALS,
    _derivatives,
    _det,
    _leibniz_table,
    _substitute,
    symmetric_basis,
)
from . import lines as lines_mod


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "details": self.details}


def three_cusp_form() -> np.ndarray:
    """z0^3 - z1 z2 z3, the unique three-cusp normal form, as an integer form."""
    form = np.zeros(N_MONOMIALS, dtype=np.int64)
    form[MONOMIAL_EXPONENTS.index((3, 0, 0, 0))] = 1
    form[MONOMIAL_EXPONENTS.index((0, 1, 1, 1))] = -1
    return form


CUSP_CHANGE_OF_BASIS = (
    (1, 1, 1, 1),
    (1, 1, -1, -1),
    (1, -1, 1, -1),
    (1, -1, -1, 1),
)


def _ratio(form: np.ndarray, target: np.ndarray) -> Fraction | None:
    """The rational s with form == s * target (target nonzero), if one
    exists: cross-multiplied on target's leading coefficient."""
    lead = np.flatnonzero(target)[0]
    if (form * target[lead] != target * form[lead]).any():
        return None
    return Fraction(int(form[lead]), int(target[lead]))


def check_tricuspidal() -> CheckResult:
    """The three-cusp form is projectively equivalent to 4*m21 + 4*m111 via
    the +-1 change of basis; both substitution directions are evaluated and
    their scalars recorded.

    The matrix squares to 4I, so its inverse is M/4, and by homogeneity the
    backward direction f(M z/4) is f(M z)/64: both directions give a rational
    multiple, but only one reproduces the target with scalar exactly 1.
    """
    _, m21, m111 = symmetric_basis()
    target = 4 * (m21 + m111)
    g = three_cusp_form()
    m = np.array(CUSP_CHANGE_OF_BASIS, dtype=np.int64)
    squares_to_4i = bool((m @ m == 4 * np.eye(4, dtype=np.int64)).all())
    lam_fwd = _ratio(_substitute(g, m), target)
    lam_bwd = None if lam_fwd is None else lam_fwd / 64
    exact_dirs = [lam for lam in (lam_fwd, lam_bwd) if lam == 1]
    passed = (
        squares_to_4i
        and lam_fwd is not None
        and lam_bwd is not None
        and len(exact_dirs) == 1
        and lam_fwd == 1
    )
    # negative control: without the change of basis the form is asymmetric
    identity_sub = _ratio(g, target)
    return CheckResult(
        name="tricuspidal_equivalence",
        passed=passed and identity_sub is None,
        details={
            "scalar_forward": str(lam_fwd),
            "scalar_backward": str(lam_bwd),
            "exact_direction": "f(M z)",
            "matrix_squares_to_4I": squares_to_4i,
            "identity_substitution_matches": identity_sub is not None,
        },
    )


def check_cayley_nodes() -> CheckResult:
    """The elementary symmetric cubic is singular at each of the four
    coordinate vertices, each an ordinary node (nondegenerate affine Hessian
    in the chart z_k = 1), and smooth at the control point (1, 1, 1, 1).
    That these are its only singular points is not checked here.
    """
    _, _, m111 = symmetric_basis()
    derivatives = [_derivatives(m111, vertex) for vertex in np.eye(4, dtype=np.int64)]
    others = [[i for i in range(4) if i != k] for k in range(4)]
    dets = _determinants(np.stack([hess[np.ix_(o, o)] for (_, hess), o in zip(derivatives, others)]))
    nodes = [not grad.any() for grad, _ in derivatives]
    details: dict = {"nodes": nodes, "hessian_dets": [str(d) for d in dets.tolist()]}
    passed = all(nodes) and bool(dets.all())
    # smooth-point control away from the vertices
    control = bool(_derivatives(m111, [1, 1, 1, 1])[0].any())
    details["smooth_control_point_nonsingular"] = control
    return CheckResult("cayley_four_nodes", passed and control, details)


def check_tritangent_vanishing() -> CheckResult:
    """All three symmetric basis forms restrict to the zero binary cubic on
    each tritangent line 25, 26, 27 (exactly); a first-orbit line serves as
    the negative control; the tritangent spans a plane (rank 3)."""
    m3, m21, m111 = symmetric_basis()
    details: dict = {}
    passed = True
    for name, form in (("m3", m3), ("m21", m21), ("m111", m111)):
        vanishing = [lines_mod.line_restrictions_vanish(form, l) for l in (25, 26, 27)]
        details[f"{name}_vanishes_on_tritangent"] = vanishing
        passed = passed and all(vanishing)
    # line 1 lies on the Fermat but not on every symmetric cubic
    details["m3_vanishes_on_line1"] = lines_mod.line_restrictions_vanish(m3, 1)
    details["m21_vanishes_on_line1"] = lines_mod.line_restrictions_vanish(m21, 1)
    passed = passed and details["m3_vanishes_on_line1"] and not details["m21_vanishes_on_line1"]
    rank = lines_mod.tritangent_span_rank()
    details["tritangent_span_rank"] = rank
    return CheckResult("tritangent_vanishing", passed and rank == 3, details)


def _normalizer_matrix(lam: int) -> np.ndarray:
    """The int64 4x4 matrix with lam on the diagonal and 1 elsewhere."""
    c = np.ones((4, 4), dtype=np.int64)
    np.fill_diagonal(c, lam)
    return c


def _determinants(c: np.ndarray) -> np.ndarray:
    """Exact determinants of a stack of integer k x k matrices, read in
    Z[zeta] by exact's Leibniz sum."""
    return _det(np.stack([c, np.zeros_like(c)], axis=-1))[..., 0]


def check_normalizer_family() -> CheckResult:
    """The matrices with lambda on the diagonal and 1 elsewhere commute with
    all 24 permutation matrices, and their determinant is the quartic
    (lambda - 1)^3 (lambda + 3), singular exactly at lambda in {1, -3}.

    A matrix c commutes with the permutation matrix of sigma exactly when
    c[sigma(i)][sigma(j)] = c[i][j] for all i, j, which is checked entrywise
    for every sigma and sample in one compare.  Degree-4 agreement at five
    sample values pins the determinant polynomial.  All arithmetic is in
    integers.
    """
    samples = [0, 2, 3, -1, 5]
    lam = np.array(samples)
    # the samples, then the roots 1 and -3, in one determinant call
    c = np.stack([_normalizer_matrix(x) for x in samples + [1, -3]])
    dets = _determinants(c)
    dets_match = bool((dets[:5] == (lam - 1) ** 3 * (lam + 3)).all())
    perms, _ = _leibniz_table(4)  # the 24 permutations of the coordinates
    commutes = bool((c[:5, perms[:, :, None], perms[:, None, :]] == c[:5, None]).all())
    details = {
        "samples": [str(s) for s in samples],
        "determinant_matches_(lam-1)^3(lam+3)": dets_match,
        "commutes_with_permutation_matrices": commutes,
        "singular_at_1": bool(dets[5] == 0),
        "singular_at_-3": bool(dets[6] == 0),
    }
    ok = dets_match and commutes and details["singular_at_1"] and details["singular_at_-3"]
    return CheckResult("normalizer_matrix_family", ok, details)


def run_all_checks() -> list[CheckResult]:
    return [
        check_tricuspidal(),
        check_cayley_nodes(),
        check_tritangent_vanishing(),
        check_normalizer_family(),
    ]
