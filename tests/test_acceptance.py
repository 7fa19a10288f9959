"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers once its assertions hold.  Criteria 9 and 10 consume the
session-scoped monodromy reports (seed 1, budgets 40 and 300)."""

import time
from collections import Counter

import numpy as np

from cubic27 import htrack, lattice, lines, monodromy, perm, symverify
from cubic27.htrack import TrackerConfig
from cubic27.perm import parse_cycles

# A full-family triangle Fermat -> p1 -> p2 -> Fermat whose permutation has
# order 3, as the vertex parameters (20 monomial coefficients each).  It is
# the third reversal pair's triangle of default_rng((1, 7002)), from before
# loops were drawn from Python's random, kept as literals so that the
# reversal check keeps a pair that is not an involution.
ORDER_3_TRIANGLE = (
    (
        1.5136625371855494+0.45171645131773674j, -0.4684219469110176+1.3750701802130212j,
        1.3343388424247038+0.4806203234421321j, -0.07131775630659247-0.6836103763998556j,
        -0.1866142162618539+0.8166250214769447j, 0.4735384609840464+0.9833218868526912j,
        -0.04598055703074428+0.37271594534920893j, -0.4487001713041571-0.4081196994863971j,
        -0.19795506262788312+0.3505342438959853j, -0.2655269171073902-1.089559128129659j,
        1.057406718560897+0.6061431286310025j, 0.08421112498294088+0.2928953493662477j,
        -0.4032433327353042-0.3773611888245422j, 0.34308876297832186+0.8910742187625827j,
        -0.11668405254363692-0.30527983535567804j, -0.7640961889762352-0.9271615541686916j,
        1.010440548940264-0.9454963176428349j, -0.22872260920109563+0.7833256952993607j,
        -0.7321563955973217-0.9209364588202953j, 1.2985903319893968+0.9462825477030448j,
    ),
    (
        1.9576918338817628+0.05523277980115779j, 0.7671413258876308-0.2397783248566101j,
        0.6974975457396808+0.5219012031032427j, -0.43872236147619587-0.4250001012657385j,
        0.07671187427095434-0.9350191117906271j, -0.9073203787662971-0.4203248274409419j,
        -0.8488087610988948-0.20391917243190083j, 0.4598637066444218-0.30355510999146595j,
        0.42369189913497635-0.5355426914043376j, -0.5108633847748348-0.06459663619118224j,
        0.9433550131663693+0.09081384849461437j, -0.44571597894543774-0.19527635132361856j,
        -0.15850900914081634-0.6228371945324545j, 0.25233313854841416+0.5036401357326191j,
        0.05287159304247736+0.23782829963610963j, -1.1009306960667897-0.11347306564978867j,
        0.4395152637786146+0.16593969855887872j, 0.8890123024429625+0.13908483007562641j,
        -0.0457435134173235-0.6810413592199621j, 1.111899187088963-1.0431711945944382j,
    ),
)


def report(criterion, message):
    print(f"ACCEPTANCE {criterion:02d} PASS: {message}")


def test_criterion_01_weyl_reconstruction(weyl):
    t0 = time.time()
    assert weyl.order == 51840
    autos = lines.graph_automorphisms()
    assert autos.order == 51840
    assert autos == weyl
    report(1, f"generated order 51840 equals automorphism search ({time.time()-t0:.1f}s)")


def test_criterion_02_s4_structure(s4):
    claim = monodromy._claim_s4_action()
    assert claim.passed, claim.details
    assert claim.details["orbits"] == [
        list(range(1, 13)), list(range(13, 25)), [25, 26, 27],
    ]
    assert claim.details["stabilizer_orders"] == [2, 2, 8]
    assert claim.details["line1_stabilizer"] == ("transposition", -1)
    assert claim.details["line13_stabilizer"] == ("double_transposition", 1)
    report(2, "coordinate action verbatim; orbits 12+12+3; odd/even stabilizers")


def test_criterion_03_subgroup_ladder(weyl, s4):
    claim = monodromy._claim_subgroup_ladder()
    assert claim.passed, claim.details
    report(
        3,
        "centralizer 4 (Klein), normalizer 96 = S4 x K4, tritangent stabilizer 192, "
        "intersection 16 = reference Klein product",
    )


def test_criterion_04_exceptional_isomorphism(reduction, marking, weyl):
    t0 = time.time()
    projective, signed = lattice.build_po_group(reduction, marking, weyl)
    assert len(projective) == 51840  # injective, hence bijective onto the image
    assert signed == 103680
    report(4, f"mod-3 image order 51840, pre-projectivization 103680 ({time.time()-t0:.1f}s)")


def test_criterion_05_presentation_and_double_sixes():
    claim = monodromy._claim_presentation_and_double_sixes()
    assert claim.passed, claim.details
    assert claim.details["skew_six_count"] == 72
    assert claim.details["double_six_count"] == 36
    assert claim.details["w_a5_orbit_sizes"] == [6, 6, 15]
    report(5, "printed presentation reproduced; Coxeter relations; 72 sixes / 36 double sixes")


def test_criterion_06_non_reflection_results(weyl, s4, w_a5, other_s6, klein):
    found, _ = perm.is_subconjugate(weyl, s4, w_a5)
    assert not found
    two_six = [
        p for p in klein.elements
        if not p.is_identity() and p.cycle_type().get(2, 0) == 6
    ]
    assert len(two_six) == 1
    assert other_s6.order == 720
    assert sorted(len(o) for o in perm.orbits(other_s6)) == [12, 15]
    found_other, _ = perm.is_subconjugate(weyl, s4, other_s6)
    assert found_other
    report(6, "S4 not subconjugate to W(A5); unique 2^6 Klein element; other S6 found with orbits 12+15")


def test_criterion_07_preferred_double_six():
    claim = monodromy._claim_preferred_double_six()
    assert claim.passed, claim.details
    assert claim.details["w_a5_centralizer_order"] == 2
    assert claim.details["double_sixes_with_both_halves_single_orbit"] == 1
    report(
        7,
        f"single-orbit sixes: {claim.details['single_orbit_six_count']}; "
        f"double sixes (one-half reading): {claim.details['double_sixes_with_a_single_orbit_half']}, "
        f"(both-halves reading): {claim.details['double_sixes_with_both_halves_single_orbit']}; "
        "S4-centralizer in the order-1440 maximal subgroup equals the monodromy Klein group",
    )


def test_criterion_08_exact_identities():
    results = symverify.run_all_checks()
    by_name = {r.name: r for r in results}
    assert by_name["tricuspidal_equivalence"].passed
    assert by_name["tricuspidal_equivalence"].details["scalar_forward"] == "1"
    assert by_name["cayley_four_nodes"].passed
    assert by_name["tritangent_vanishing"].passed
    assert by_name["normalizer_matrix_family"].passed
    report(8, "three-cusp scalar 1 in exactly one direction; 4 nodes; tritangent vanishing; det = (l-1)^3(l+3)")


def test_criterion_09_symmetric_monodromy(symmetric_report):
    rep = symmetric_report
    cfg = TrackerConfig()
    assert cfg.newton_tol == 1e-10 and cfg.match_margin >= 10
    assert rep.budget >= 40
    assert rep.conclusive
    assert set(rep.group_elements) == monodromy.expected_symmetric_monodromy()
    accepted = [r for r in rep.loops if r.accepted]
    assert accepted
    assert rep.bound_order == 4
    assert all(r.in_bound for r in accepted)
    assert all(r.revalidated for r in accepted)
    assert rep.invariant_violations == 0
    report(
        9,
        f"stabilized after {rep.stabilized_after} loops to the reference Klein group; "
        f"{len(accepted)} accepted loops all revalidated inside the bound C_W(S4) of order 4",
    )


def test_criterion_10_full_monodromy(full_report):
    rep = full_report
    assert rep.budget <= 300
    assert rep.group["order"] == 51840
    assert rep.bound_order == 51840
    assert rep.conclusive
    accepted = [r for r in rep.loops if r.accepted]
    assert all(r.in_bound for r in accepted)
    assert rep.invariant_violations == 0
    report(10, f"full family reached order 51840 after {len(rep.loops)} loops")


def test_criterion_11_component_structure(klein):
    comps = monodromy.component_structure(klein)
    sizes = Counter(len(orbit) for orbit, _, _ in comps)
    labels = Counter(label for _, _, label in comps)
    assert len(comps) == 12
    assert sizes == Counter({2: 6, 4: 3, 1: 3})
    assert labels == Counter({"[K4/C2]": 6, "[K4/e]": 3, "[K4/K4]": 3})
    assert sum(len(orbit) for orbit, _, _ in comps) == 27
    for orbit, stab, _ in comps:
        assert len(orbit) * stab == klein.order
    report(11, "12 components: 6 [K4/C2] + 3 [K4/e] + 3 [K4/K4]")


def finite_difference_jacobian(f, mat, gauge, h=1e-7):
    """The tracker's 4x4 Jacobian at one line, by central differences of the
    residual in the line's four free entries."""
    flat = mat.reshape(8)
    out = np.zeros((4, 4), dtype=complex)
    for k, pos in enumerate(htrack._Chart(gauge[None]).unknowns[0]):
        step = np.zeros(8)
        step[pos] = h
        plus, minus = ((flat + d).reshape(2, 4) for d in (step, -step))
        out[:, k] = (htrack.residual(f, plus) - htrack.residual(f, minus)) / (2 * h)
    return out


def test_criterion_12_numeric_hygiene(reversal_pairs):
    # the analytic Jacobian against central differences on 100 random forms
    rng = np.random.default_rng(1)
    cat = monodromy._catalog_fiber()
    worst = 0.0
    for _ in range(100):
        f = htrack.CubicForm((rng.standard_normal(20) + 1j * rng.standard_normal(20)) / np.sqrt(2))
        i = int(rng.integers(0, 27))
        jac = htrack.jacobian(f, cat.mats[i], cat.gauges[i])
        err = np.linalg.norm(jac - finite_difference_jacobian(f, cat.mats[i], cat.gauges[i]))
        worst = max(worst, float(err / max(np.linalg.norm(jac), 1e-30)))
    assert worst < 1e-6
    # loop reversal inverts the permutation, on 20 symmetric and 3
    # full-family pairs none of which fails; the symmetric monodromy is all
    # involutions, so the pinned full-family triangle of order 3 shows that a
    # reverse is not tracked forward
    for spec, count in ((None, 20), (monodromy.full_family(), 3)):
        results = reversal_pairs(spec, count, seed=1)
        assert not any(isinstance(r, htrack.TrackFailure) for r in results)
        assert all(fwd.inverse() == bwd for fwd, bwd in zip(results[::2], results[1::2]))
    full = monodromy.full_family()
    triangle = tuple(full.form_at(p) for p in (full.base, *ORDER_3_TRIANGLE, full.base))
    fwd, bwd = htrack.track_loop([triangle, triangle[::-1]], monodromy._catalog_fiber())
    assert fwd == parse_cycles("(1,10,19)(3,18,24)(4,20,12)(7,13,27)(8,22,25)(9,17,15)")
    assert bwd == fwd.inverse()
    assert fwd != fwd.inverse()
    # a fixed seed reproduces the report: one triangle and one meridian
    spec = monodromy.symmetric_family()
    first, second = (monodromy.compute_monodromy(spec, budget=2, seed=1).to_dict() for _ in range(2))
    assert first == second
    report(12, f"worst FD error {worst:.2e}; 20 + 3 + 1 reversal pairs inverse; deterministic reports")
