"""Exact polynomial-identity checks for the symmetric cubic geometry: the
three-cusp normal form, the four-node (Cayley) surface, tritangent
vanishing, and the diagonal-plus-ones normalizer matrix family.  All checks
are exact over Q(zeta); a failure pinpoints the violated identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from .exact import Cyc, Poly4, _gauss_jordan, symmetric_basis
from . import lines as lines_mod


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "details": self.details}


def three_cusp_form() -> Poly4:
    """z0^3 - z1 z2 z3, the unique three-cusp normal form."""
    return Poly4.monomial((3, 0, 0, 0)) - Poly4.monomial((0, 1, 1, 1))


CUSP_CHANGE_OF_BASIS = (
    (1, 1, 1, 1),
    (1, 1, -1, -1),
    (1, -1, 1, -1),
    (1, -1, -1, 1),
)


def check_tricuspidal() -> CheckResult:
    """The three-cusp form is projectively equivalent to 4*m21 + 4*m111 via
    the +-1 change of basis; both substitution directions are evaluated and
    their scalars recorded.

    The matrix squares to 4I, so its inverse is proportional to itself: both
    directions give a rational multiple, but only one reproduces the target
    with scalar exactly 1.
    """
    _, m21, m111 = symmetric_basis()
    target = (m21 + m111).scale(4)
    g = three_cusp_form()
    m = [[Fraction(x) for x in row] for row in CUSP_CHANGE_OF_BASIS]
    m_inv = [[x / 4 for x in row] for row in m]  # M^2 = 4I
    forward = g.substitute(m)
    backward = g.substitute(m_inv)
    lam_fwd = forward.rational_multiple_of(target)
    lam_bwd = backward.rational_multiple_of(target)
    exact_dirs = [lam for lam in (lam_fwd, lam_bwd) if lam == 1]
    passed = (
        lam_fwd is not None
        and lam_bwd is not None
        and len(exact_dirs) == 1
        and lam_fwd == 1
    )
    # negative control: without the change of basis the form is asymmetric
    identity_sub = g.rational_multiple_of(target)
    return CheckResult(
        name="tricuspidal_equivalence",
        passed=passed and identity_sub is None,
        details={
            "scalar_forward": str(lam_fwd),
            "scalar_backward": str(lam_bwd),
            "exact_direction": "f(M z)",
            "matrix_squares_to_4I": True,
            "identity_substitution_matches": identity_sub is not None,
        },
    )


def check_cayley_nodes() -> CheckResult:
    """The elementary symmetric cubic has exactly four singular points at the
    coordinate vertices, each an ordinary node (nondegenerate local Hessian).
    """
    _, _, m111 = symmetric_basis()
    grads = m111.gradient()
    details: dict = {"nodes": [], "hessian_dets": []}
    passed = True
    for k in range(4):
        point = [Cyc(1 if i == k else 0) for i in range(4)]
        grad_vals = [g.evaluate(point) for g in grads]
        is_node = all(v.is_zero() for v in grad_vals)
        details["nodes"].append(is_node)
        passed = passed and is_node
        hess = _affine_hessian(m111, chart=k)
        det = _gauss_jordan(hess)[2]
        details["hessian_dets"].append(str(det.a))
        passed = passed and not det.is_zero()
    # smooth-point control away from the vertices
    smooth_grad = [g.evaluate([Cyc(1)] * 4) for g in grads]
    control = not all(v.is_zero() for v in smooth_grad)
    details["smooth_control_point_nonsingular"] = control
    return CheckResult("cayley_four_nodes", passed and control, details)


def _affine_hessian(poly: Poly4, chart: int) -> list[list[Cyc]]:
    """3x3 Hessian of poly in the affine chart z_chart = 1, at the origin."""
    others = [i for i in range(4) if i != chart]
    grads = poly.gradient()
    second = [[None] * 3 for _ in range(3)]
    point = [Cyc(1 if i == chart else 0) for i in range(4)]
    for a in range(3):
        row_grad = grads[others[a]].gradient()
        for b in range(3):
            second[a][b] = row_grad[others[b]].evaluate(point)
    return second  # type: ignore[return-value]


def check_tritangent_vanishing() -> CheckResult:
    """All three symmetric basis forms restrict to the zero binary cubic on
    each tritangent line 25, 26, 27 (exactly); a first-orbit line serves as
    the negative control; the tritangent spans a plane (rank 3)."""
    m3, m21, m111 = symmetric_basis()
    details: dict = {}
    passed = True
    for name, poly in (("m3", m3), ("m21", m21), ("m111", m111)):
        vanishing = [lines_mod.line_restrictions_vanish(poly, l) for l in (25, 26, 27)]
        details[f"{name}_vanishes_on_tritangent"] = vanishing
        passed = passed and all(vanishing)
    # line 1 lies on the Fermat but not on every symmetric cubic
    details["m3_vanishes_on_line1"] = lines_mod.line_restrictions_vanish(m3, 1)
    details["m21_vanishes_on_line1"] = lines_mod.line_restrictions_vanish(m21, 1)
    passed = passed and details["m3_vanishes_on_line1"] and not details["m21_vanishes_on_line1"]
    rank = lines_mod.tritangent_span_rank()
    details["tritangent_span_rank"] = rank
    return CheckResult("tritangent_vanishing", passed and rank == 3, details)


def _normalizer_matrix(lam: Fraction) -> list[list[Fraction]]:
    return [
        [lam if i == j else Fraction(1) for j in range(4)] for i in range(4)
    ]


def check_normalizer_family() -> CheckResult:
    """The matrices with lambda on the diagonal and 1 elsewhere commute with
    all 24 permutation matrices, and their determinant is the quartic
    (lambda - 1)^3 (lambda + 3), singular exactly at lambda in {1, -3}.

    A matrix c commutes with the permutation matrix of sigma exactly when
    c[sigma(i)][sigma(j)] = c[i][j] for all i, j, which is checked entrywise.
    Degree-4 agreement at five sample values pins the determinant polynomial.
    """
    samples = [Fraction(x) for x in (0, 2, 3, -1, 5)]
    dets_match = commutes = True
    for lam in samples:
        c = _normalizer_matrix(lam)
        dets_match = dets_match and _gauss_jordan(c)[2] == (lam - 1) ** 3 * (lam + 3)
        commutes = commutes and all(
            c[s[i]][s[j]] == c[i][j]
            for s in permutations(range(4))
            for i in range(4)
            for j in range(4)
        )
    details = {
        "samples": [str(s) for s in samples],
        "determinant_matches_(lam-1)^3(lam+3)": dets_match,
        "commutes_with_permutation_matrices": commutes,
        "singular_at_1": _gauss_jordan(_normalizer_matrix(Fraction(1)))[2] == 0,
        "singular_at_-3": _gauss_jordan(_normalizer_matrix(Fraction(-3)))[2] == 0,
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
