"""Monodromy orchestration: families of cubic forms, loop construction
(random triangles and meridian circles around empirically located
discriminant points), group accumulation inside each family's exact
upper-bound group, component structure of the line cover, and the full
claim-verification suite.
"""

from __future__ import annotations

import random as _random
from collections import Counter
from dataclasses import asdict, dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import fermat_data, htrack, lattice, lines as lines_mod, perm, symverify
from .exact import mat_mul
from .htrack import ChartedLine, CubicForm, TrackerConfig, TrackFailure
from .perm import FiniteGroup, Permutation, format_cycles


class SingularBasepoint(ValueError):
    """Basepoint form does not carry 27 separable Newton-stable lines."""


class FamilyKind(Enum):
    FULL = "full"
    SYMMETRIC = "symmetric"
    SLICE = "slice"


@lru_cache(maxsize=1)
def _symmetric_basis_forms() -> tuple[CubicForm, CubicForm, CubicForm]:
    from .exact import symmetric_basis

    return tuple(CubicForm.from_exact(p) for p in symmetric_basis())  # type: ignore[return-value]


def embed_symmetric(a: complex, b: complex, c: complex) -> CubicForm:
    """Coefficient vector of a*m3 + b*m21 + c*m111 in the fixed monomial
    order (m3 = sum of cubes, m21 = mixed quadratic-linear, m111 = products
    of distinct triples)."""
    if a == 0 and b == 0 and c == 0:
        raise ValueError("symmetric coefficients must not all vanish")
    f3, f21, f111 = _symmetric_basis_forms()
    return CubicForm(a * f3.coeffs + b * f21.coeffs + c * f111.coeffs)


def fermat_form() -> CubicForm:
    return _symmetric_basis_forms()[0]


def cayley_form() -> CubicForm:
    return _symmetric_basis_forms()[2]


@dataclass(frozen=True)
class FamilySpec:
    """A family of cubic forms with a distinguished smooth basepoint.

    Parameters are absolute coordinates: (a, b, c) for SYMMETRIC, the 20
    monomial coefficients for FULL, and offsets along the direction forms
    for SLICE.
    """

    kind: FamilyKind
    basepoint: CubicForm | None = None
    directions: tuple[CubicForm, ...] = ()

    def basepoint_form(self) -> CubicForm:
        return self.basepoint if self.basepoint is not None else fermat_form()

    def parameter_dim(self) -> int:
        if self.kind is FamilyKind.FULL:
            return 20
        if self.kind is FamilyKind.SYMMETRIC:
            return 3
        return len(self.directions)

    def basepoint_params(self) -> np.ndarray:
        if self.kind is FamilyKind.FULL:
            return self.basepoint_form().coeffs.copy()
        if self.kind is FamilyKind.SYMMETRIC:
            if self.basepoint is None:
                return np.array([1.0, 0.0, 0.0], dtype=complex)
            coeffs = self.basepoint.coeffs
            # read (a, b, c) off the z0^3, z0^2 z1 and z0 z1 z2 coefficients
            exps = htrack.MONOMIAL_EXPONENTS
            params = np.array(
                [
                    coeffs[exps.index((3, 0, 0, 0))],
                    coeffs[exps.index((2, 1, 0, 0))],
                    coeffs[exps.index((1, 1, 1, 0))],
                ],
                dtype=complex,
            )
            if not np.array_equal(embed_symmetric(*params).coeffs, coeffs):
                raise ValueError("basepoint is not a symmetric cubic form")
            return params
        return np.zeros(len(self.directions), dtype=complex)

    def form_at(self, params: Sequence[complex]) -> CubicForm:
        p = np.asarray(params, dtype=complex)
        if self.kind is FamilyKind.FULL:
            return CubicForm(p)
        if self.kind is FamilyKind.SYMMETRIC:
            return embed_symmetric(p[0], p[1], p[2])
        coeffs = self.basepoint_form().coeffs.copy()
        for x, form in zip(p, self.directions):
            coeffs = coeffs + x * form.coeffs
        return CubicForm(coeffs)


def symmetric_family() -> FamilySpec:
    return FamilySpec(kind=FamilyKind.SYMMETRIC)


def full_family() -> FamilySpec:
    return FamilySpec(kind=FamilyKind.FULL)


# ---------------------------------------------------------------------------
# Basepoint fiber
# ---------------------------------------------------------------------------


@lru_cache(maxsize=2)
def _catalog_lines(conjugate_embedding: bool = False) -> tuple[ChartedLine, ...]:
    return tuple(
        ChartedLine.from_exact(l, conjugate_embedding)
        for l in lines_mod.fermat_catalog()
    )


def basepoint_fiber(
    spec: FamilySpec, cfg: TrackerConfig | None = None
) -> list[ChartedLine]:
    """The 27 labeled numeric lines over the family's basepoint.

    Labels come from the exact catalog: for the Fermat basepoint this is the
    direct numeric embedding; any other basepoint must admit 27 separable
    Newton refinements of the catalog, each still uniquely nearest its own
    catalog label.
    """
    cfg = cfg or TrackerConfig()
    cat = list(_catalog_lines())
    base = spec.basepoint_form()
    if base == fermat_form():
        return cat
    refined = []
    for i, line in enumerate(cat):
        try:
            refined.append(htrack.newton_correct(base, line, cfg))
        except TrackFailure as exc:
            raise SingularBasepoint(
                f"line {i + 1} does not Newton-refine on the basepoint"
            ) from exc
    mats = np.stack([l.matrix for l in refined])
    if htrack._min_pairwise_distance(mats) < 1e-6:
        raise SingularBasepoint("refined basepoint lines are not separable")
    matched = htrack.match_to_base(refined, cat, cfg)
    if not matched.is_identity():
        raise SingularBasepoint("refined lines do not preserve catalog labels")
    return refined


# ---------------------------------------------------------------------------
# Loops
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Loop:
    """A closed polygon of cubic forms based at the family basepoint."""

    kind: str
    vertices: tuple[CubicForm, ...]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise ValueError("a loop needs at least two vertices")
        if not np.array_equal(self.vertices[0].coeffs, self.vertices[-1].coeffs):
            raise ValueError("loop must be closed (first vertex = last vertex)")


def random_loop(spec: FamilySpec, rng: np.random.Generator, scale: float = 0.3) -> Loop:
    """Random triangle basepoint -> p1 -> p2 -> basepoint; the p_i are the
    basepoint plus complex Gaussian parameter offsets of root-mean-square
    norm ``scale`` times the basepoint parameter norm."""
    base = spec.basepoint_params()
    n = spec.parameter_dim()
    sigma = scale * np.linalg.norm(base) if np.linalg.norm(base) > 0 else scale
    pts = []
    for _ in range(2):
        # unit-rms complex Gaussian offset direction
        g = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2 * n)
        pts.append(base + sigma * g)
    f0 = spec.form_at(base)
    return Loop(
        kind="triangle",
        vertices=(f0, spec.form_at(pts[0]), spec.form_at(pts[1]), f0),
        meta={"scale": scale},
    )


def circle_loop(
    spec: FamilySpec,
    center: Sequence[complex],
    radius: float = 0.05,
    segments: int = 16,
) -> Loop:
    """Polygonal circle around a parameter point, inside the complex line
    through the basepoint, entered and left along the straight segment from
    the basepoint."""
    base = spec.basepoint_params()
    c = np.asarray(center, dtype=complex)
    d = base - c
    nd = np.linalg.norm(d)
    if nd == 0:
        raise ValueError("circle center must differ from the basepoint")
    d = d / nd
    ring = [c + radius * np.exp(2j * np.pi * k / segments) * d for k in range(segments)]
    verts = [spec.form_at(base)]
    verts += [spec.form_at(p) for p in ring]
    verts.append(spec.form_at(ring[0]))
    verts.append(spec.form_at(base))
    return Loop(
        kind="circle",
        vertices=tuple(verts),
        meta={"radius": radius, "segments": segments, "center": [complex(x) for x in c]},
    )


def probe_discriminant(
    spec: FamilySpec,
    direction: Sequence[complex],
    cfg: TrackerConfig | None = None,
    t_max: float = 3.0,
    coarse_steps: int = 24,
    bisections: int = 6,
) -> float | None:
    """March the fiber along basepoint + t*direction and return the t where
    tracking first fails (Newton-failure clustering localizes the
    discriminant); None if the whole probe range tracks cleanly."""
    cfg = cfg or TrackerConfig()
    base = spec.basepoint_params()
    d = np.asarray(direction, dtype=complex)
    cur = basepoint_fiber(spec, cfg)
    t_prev = 0.0
    for k in range(1, coarse_steps + 1):
        t = t_max * k / coarse_steps
        try:
            res = htrack.track_segment(
                spec.form_at(base + t_prev * d), spec.form_at(base + t * d), cur, cfg
            )
            cur, t_prev = res.lines, t
        except TrackFailure:
            lo, hi = t_prev, t
            for _ in range(bisections):
                mid = (lo + hi) / 2
                try:
                    res = htrack.track_segment(
                        spec.form_at(base + lo * d), spec.form_at(base + mid * d), cur, cfg
                    )
                    cur, lo = res.lines, mid
                except TrackFailure:
                    hi = mid
            return (lo + hi) / 2
    return None


def _meridian_loop(
    spec: FamilySpec,
    rng: np.random.Generator,
    cfg: TrackerConfig,
    radius_factor: float = 0.1,
    scale: float = 0.3,
    angle_hint: float | None = None,
) -> Loop:
    """Probe a real parameter ray for its first discriminant crossing and
    wind a circle there; the opposite ray is probed before giving up, and a
    random triangle is the fallback when both directions are clean.

    For the symmetric family the ray lives in the affine (b, c) chart;
    ``angle_hint`` lets the caller stratify ray angles across loops so that
    consecutive meridians sweep different discriminant components.
    """
    n = spec.parameter_dim()
    base = spec.basepoint_params()
    if spec.kind is FamilyKind.SYMMETRIC:
        theta = (angle_hint if angle_hint is not None else rng.uniform(0, 2 * np.pi))
        theta += rng.uniform(-0.2, 0.2)
        direction = np.array([0.0, np.cos(theta), np.sin(theta)])
    else:
        v = rng.standard_normal(n)
        norm = np.linalg.norm(v)
        if norm == 0:
            return random_loop(spec, rng, scale)
        direction = v / norm
    for candidate in (direction, -direction):
        t_star = probe_discriminant(spec, candidate, cfg)
        if t_star is None:
            continue
        center = base + t_star * candidate
        radius = radius_factor * max(t_star, 0.3)
        loop = circle_loop(spec, center, radius=radius)
        loop.meta["probe_direction"] = [complex(x) for x in candidate]
        loop.meta["probe_t"] = t_star
        return loop
    return random_loop(spec, rng, scale)


# ---------------------------------------------------------------------------
# Monodromy computation
# ---------------------------------------------------------------------------


@dataclass
class LoopRecord:
    index: int
    kind: str
    accepted: bool
    permutation: str | None
    failure: str | None
    revalidated: bool
    # membership of the revalidated permutation in the family's upper bound
    in_bound: bool | None
    new_elements: bool
    # loop construction details: scale for triangles; center, radius and the
    # probed discriminant parameter for meridian circles
    meta: dict = field(default_factory=dict)


@dataclass
class MonodromyReport:
    family: str
    seed: int
    strategy: str
    budget: int
    stall_threshold: int
    scale: float
    config: dict
    loops: list[LoopRecord]
    group: dict
    group_elements: list[str]
    components: list[dict]
    bound_order: int
    conclusive: bool
    stabilized_after: int | None
    invariant_violations: int
    convention_note: str = (
        "permutations send start label to end label; compose(p, q) applies q "
        "first; zeta embeds as exp(i*pi/3)"
    )

    def to_dict(self) -> dict:
        return asdict(self)


_DEFAULT_SCALES = {FamilyKind.SYMMETRIC: 0.9, FamilyKind.FULL: 1.8, FamilyKind.SLICE: 0.9}


_GOLDEN_ANGLE = 2 * np.pi * 0.6180339887498949


def _build_loop(
    spec: FamilySpec,
    strategy: str,
    index: int,
    seed: int,
    cfg: TrackerConfig,
) -> Loop:
    rng = np.random.default_rng((seed, index))
    hint = (index * _GOLDEN_ANGLE) % (2 * np.pi)
    scale = _DEFAULT_SCALES[spec.kind]
    if strategy == "random":
        return random_loop(spec, rng, scale)
    if strategy == "mixed":
        if index % 2 == 1:
            return _meridian_loop(spec, rng, cfg, scale=scale, angle_hint=hint)
        return random_loop(spec, rng, scale * rng.uniform(0.6, 1.4))
    raise ValueError(f"unknown strategy {strategy!r}")


def _loop_meta(loop: Loop) -> dict:
    out = {}
    for key, value in loop.meta.items():
        if isinstance(value, list):
            out[key] = [str(x) for x in value]
        elif isinstance(value, complex):
            out[key] = str(value)
        else:
            out[key] = value
    return out


@lru_cache(maxsize=None)
def upper_bound(kind: FamilyKind) -> FiniteGroup:
    """The family's exact upper bound for its monodromy group.

    Every loop permutation is an automorphism of the incidence graph, so it
    lies in W(E6).  A family whose cubics all keep the coordinate symmetry
    (the symmetric family, and slices along S4-invariant directions) has
    monodromy commuting with the coordinate action, so it lies in the
    centralizer C_W(S4).
    """
    weyl = lines_mod.weyl_group()
    if kind is FamilyKind.FULL:
        return weyl
    return perm.centralizer(weyl, lines_mod.s4_group())


def compute_monodromy(
    spec: FamilySpec,
    strategy: str = "mixed",
    budget: int = 40,
    cfg: TrackerConfig | None = None,
    seed: int = 1,
    stall_threshold: int = 10,
) -> MonodromyReport:
    """Accumulate loop permutations until ``stall_threshold`` consecutive
    accepted loops add no new group elements, or the budget runs out.

    A loop is accepted iff its permutation revalidates at tightened
    tolerances and lies in the family's ``upper_bound``; a revalidated
    permutation outside the bound is counted as an invariant violation and
    rejected.  The run is conclusive only when the stall fired and the group
    found equals the bound, so the lower bound meets the upper one.
    """
    cfg = cfg or TrackerConfig()
    base_lines = basepoint_fiber(spec, cfg)
    bound = upper_bound(spec.kind)

    records: list[LoopRecord] = []
    group = perm.TRIVIAL_GROUP
    generators: list[Permutation] = []
    stall = 0
    violations = 0
    stabilized_after = None

    for i in range(budget):
        loop = _build_loop(spec, strategy, i, seed, cfg)
        p, failure = None, "revalidation mismatch"
        try:
            p = htrack.track_loop(loop.vertices, base_lines, cfg)
        except TrackFailure as exc:
            failure = f"{type(exc).__name__}: {exc}"
        revalidated = p is not None and htrack.revalidate(loop.vertices, p, base_lines, cfg)
        in_bound = (p in bound) if revalidated else None
        if in_bound is False:
            violations += 1
            failure = "permutation outside the upper bound"
        grew = bool(in_bound) and p not in group
        if grew:
            generators.append(p)
            group = perm.generate(generators)
        records.append(
            LoopRecord(
                index=i, kind=loop.kind, accepted=bool(in_bound),
                permutation=format_cycles(p) if p is not None else None,
                failure=None if in_bound else failure,
                revalidated=revalidated, in_bound=in_bound,
                new_elements=grew, meta=_loop_meta(loop),
            )
        )
        if not in_bound:
            continue
        stall = 0 if grew else stall + 1
        if stall >= stall_threshold:
            stabilized_after = i + 1
            break

    components = [
        {
            "orbit": orbit,
            "stabilizer_order": stab_order,
            "label": label,
        }
        for orbit, stab_order, label in component_structure(group)
    ]
    return MonodromyReport(
        family=spec.kind.value,
        seed=seed,
        strategy=strategy,
        budget=budget,
        stall_threshold=stall_threshold,
        scale=_DEFAULT_SCALES[spec.kind],
        config=asdict(cfg),
        loops=records,
        group=group.to_record(),
        group_elements=sorted(format_cycles(p) for p in group),
        components=components,
        bound_order=bound.order,
        conclusive=stabilized_after is not None and group.order == bound.order,
        stabilized_after=stabilized_after,
        invariant_violations=violations,
    )


def expected_symmetric_monodromy() -> set[str]:
    """Canonical cycle strings of the symmetric monodromy Klein group."""
    return {format_cycles(p) for p in lines_mod.monodromy_klein_elements().values()}


@lru_cache(maxsize=1)
def _order16_group() -> FiniteGroup:
    gens = lines_mod.tritangent_klein_generators()
    return perm.generate(list(gens.values()))


def component_structure(group: FiniteGroup) -> list[tuple[list[int], int, str]]:
    """Orbits of the group on the 27 labels with point-stabilizer orders and
    transitive-set labels [G/H]."""
    g_name = perm.identify(perm.fingerprint(group))
    if g_name == "unrecognized":
        g_name = f"G{group.order}"
    out = []
    for orbit in perm.orbits(group):
        stab = perm.pointwise_stabilizer(group, [orbit[0]])
        h_name = perm.identify(perm.fingerprint(stab))
        if h_name == "trivial":
            h_name = "e"
        elif h_name == "unrecognized":
            h_name = f"H{stab.order}"
        out.append((orbit, stab.order, f"[{g_name}/{h_name}]"))
    return out


def find_other_s6() -> FiniteGroup:
    """The non-reflection S6 of W(E6), written down as the twisted group
    <s_i c>.

    The s_i are the W(A5) reflections s1..s5 of the reference skew six and c
    is the reflection in the root 2h - e1 - ... - e6, which is orthogonal to
    every e_j - e_{j+1}, so c commutes with each s_i and lies outside W(A5).
    Hence w -> w c^(length of w) maps W(A5) isomorphically onto a second
    S6, which moves the lines in orbits 12 + 15 instead of 6 + 6 + 15.
    """
    v = lattice.marking_vectors(fermat_data.PRESENTATION_SIX)
    s = lattice.weyl_presentation_from_six(fermat_data.PRESENTATION_SIX)[1:]
    c = lattice.reflection_permutation(v, (2, -1, -1, -1, -1, -1, -1))
    return perm.generate([g * c for g in s])


@lru_cache(maxsize=1)
def _s6_fingerprint() -> perm.GroupFingerprint:
    six = fermat_data.PRESENTATION_SIX
    w_a5 = perm.generate(lattice.weyl_presentation_from_six(six)[1:])
    return perm.fingerprint(w_a5)


# ---------------------------------------------------------------------------
# Claim verification
# ---------------------------------------------------------------------------


@dataclass
class Claim:
    claim_id: str
    description: str
    passed: bool
    details: dict

    def to_dict(self) -> dict:
        return {
            "id": self.claim_id,
            "description": self.description,
            "pass": self.passed,
            "details": self.details,
        }


@dataclass
class ClaimsReport:
    seed: int
    claims: list[Claim]

    def all_passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "all_passed": self.all_passed(),
            "claims": [c.to_dict() for c in self.claims],
        }


def _claim_weyl_reconstruction() -> Claim:
    w = lines_mod.weyl_group()
    autos = lines_mod.graph_automorphisms()
    details = {
        "generated_order": w.order,
        "automorphism_count": autos.order,
        "element_sets_equal": w == autos,
    }
    ok = w.order == 51840 and details["element_sets_equal"]
    return Claim("weyl-reconstruction", "incidence-graph automorphism group has order 51840 and equals the generated group", ok, details)


def _claim_s4_action() -> Claim:
    table = lines_mod.coordinate_action_table()
    induced = set(table.values())
    printed = lines_mod.s4_generators()
    group = lines_mod.s4_group()
    orb = perm.orbits(group)
    stab_orders = [group.order // len(o) for o in orb]
    stab1 = perm.pointwise_stabilizer(group, [1])
    stab13 = perm.pointwise_stabilizer(group, [13])

    def stabilizer_parity(stab: FiniteGroup) -> tuple[str, int] | None:
        nontrivial = [p for p in stab if not p.is_identity()]
        if len(nontrivial) != 1:
            return None
        pre = lines_mod.coordinate_preimages(nontrivial[0])
        if not pre:
            return None
        sigma = pre[0]
        n_moved = sum(1 for i in range(4) if sigma[i] != i)
        return ("transposition" if n_moved == 2 else "double_transposition" if n_moved == 4 else "other",
                lines_mod.coordinate_parity(sigma))

    s1 = stabilizer_parity(stab1)
    s13 = stabilizer_parity(stab13)
    details = {
        "printed_generators_in_induced_set": all(p in induced for p in printed),
        "induced_group_order": group.order,
        "faithful": len(induced) == 24,
        "orbits": orb,
        "stabilizer_orders": sorted(stab_orders),
        "line1_stabilizer": s1,
        "line13_stabilizer": s13,
    }
    ok = (
        details["printed_generators_in_induced_set"]
        and group.order == 24
        and len(induced) == 24
        and orb == [list(range(1, 13)), list(range(13, 25)), [25, 26, 27]]
        and sorted(stab_orders) == [2, 2, 8]
        and s1 == ("transposition", -1)
        and s13 == ("double_transposition", 1)
    )
    return Claim("s4-action", "coordinate-permutation action matches the reference table with orbits 12+12+3 and odd/even point stabilizers", ok, details)


def _claim_subgroup_ladder() -> Claim:
    w = lines_mod.weyl_group()
    s4 = lines_mod.s4_group()
    cent = perm.centralizer(w, s4)
    norm = perm.normalizer(w, s4)
    tri = perm.pointwise_stabilizer(w, [25, 26, 27])
    inter = perm.intersect(tri, norm)
    gens16 = lines_mod.tritangent_klein_generators()
    g16 = _order16_group()
    sigma_part = perm.generate([gens16["sigma1"], gens16["sigma2"]])
    tau_part = perm.generate([gens16["tau1"], gens16["tau2"]])
    details = {
        "centralizer_order": cent.order,
        "centralizer_all_involutions": all(
            p.order() == 2 for p in cent if not p.is_identity()
        ),
        "normalizer_order": norm.order,
        "normalizer_direct_product": perm.direct_product_check(norm, s4, cent),
        "tritangent_stabilizer_order": tri.order,
        "intersection_order": inter.order,
        "intersection_elementary_abelian": all(p.order() <= 2 for p in inter),
        "intersection_equals_klein_product": inter == g16,
        "order16_direct_product": perm.direct_product_check(g16, sigma_part, tau_part),
    }
    ok = (
        cent.order == 4
        and details["centralizer_all_involutions"]
        and norm.order == 96
        and details["normalizer_direct_product"]
        and tri.order == 192
        and inter.order == 16
        and details["intersection_elementary_abelian"]
        and details["intersection_equals_klein_product"]
        and details["order16_direct_product"]
    )
    return Claim("subgroup-ladder", "centralizer 4, normalizer 96 = S4 x K4, tritangent stabilizer 192, intersection 16 = K4 x K4", ok, details)


def _claim_exceptional_isomorphism() -> Claim:
    red = lattice.mod3_reduction()
    v = lattice.marking_vectors(fermat_data.PRESENTATION_SIX)
    w = lines_mod.weyl_group()
    projective, signed = lattice.build_po_group(red, v, w)
    rng = _random.Random(90)
    homo = all(
        lattice.po_image(red, perm.compose(p, q), v)
        == lattice._canonical_sign(
            mat_mul(lattice.po_image(red, p, v), lattice.po_image(red, q, v))
        )
        for p, q in [(rng.choice(w), rng.choice(w)) for _ in range(25)]
    )
    details = {
        "projective_image_order": len(projective),
        "pre_projectivization_order": signed,
        "injective": len(projective) == w.order,
        "homomorphism_spot_check": homo,
        "elementary_divisors": list(red.divisors),
    }
    ok = (
        len(projective) == 51840
        and signed == 103680
        and homo
        and list(red.divisors) == [1, 3, 3, 3, 3, 3]
    )
    return Claim("exceptional-isomorphism", "mod-3 reduction is a bijection onto a projective orthogonal group of order 51840 (103680 before projectivization)", ok, details)


def _claim_presentation_and_double_sixes() -> Claim:
    six = fermat_data.PRESENTATION_SIX
    gens = lattice.weyl_presentation_from_six(six)
    printed = [perm.parse_cycles(s) for s in fermat_data.PRESENTATION_GENERATOR_CYCLES]
    exps = lattice.coxeter_exponents()

    def coxeter_ok(generators) -> bool:
        for i in range(6):
            for j in range(6):
                if (generators[i] * generators[j]).order() != exps[i][j]:
                    return False
        return True

    sixes = lines_mod.skew_sixes()
    rng = _random.Random(11)
    sampled = rng.sample(sixes, 10)
    sampled_ok = all(coxeter_ok(lattice.weyl_presentation_from_six(s)) for s in sampled)
    w_a5 = perm.generate(gens[1:])
    full = perm.generate(gens)
    # W(A5) of a six permutes its members, so it does not depend on their
    # order: close it once per sorted six
    closures: dict[tuple[int, ...], FiniteGroup] = {}

    def six_w_a5(six: Sequence[int]) -> FiniteGroup:
        key = tuple(sorted(six))
        if key not in closures:
            closures[key] = perm.generate(lattice.weyl_presentation_from_six(key)[1:])
        return closures[key]

    pairing_ok = True
    for s in sixes:
        partner = lines_mod.partner_six(s)
        if tuple(sorted(lines_mod.partner_six(partner))) != tuple(s):
            pairing_ok = False
        if six_w_a5(s) != six_w_a5(partner):
            pairing_ok = False
    subgroups = set(closures.values())
    details = {
        "reference_six_reproduces_printed_generators": gens == printed,
        "coxeter_relations_reference": coxeter_ok(gens),
        "coxeter_relations_10_random_sixes": sampled_ok,
        "skew_six_count": len(sixes),
        "double_six_count": len(lines_mod.double_sixes()),
        "partner_pairing_consistent": pairing_ok,
        "distinct_w_a5_subgroups": len(subgroups),
        "w_a5_order": w_a5.order,
        "w_a5_orbit_sizes": sorted(len(o) for o in perm.orbits(w_a5)),
        "full_presentation_order": full.order,
    }
    ok = (
        details["reference_six_reproduces_printed_generators"]
        and details["coxeter_relations_reference"]
        and sampled_ok
        and len(sixes) == 72
        and details["double_six_count"] == 36
        and pairing_ok
        and len(subgroups) == 36  # the 72 sixes fiber two-to-one over the subgroups
        and w_a5.order == 720
        and details["w_a5_orbit_sizes"] == [6, 6, 15]
        and full.order == 51840
    )
    return Claim("presentation-double-sixes", "skew sixes give Coxeter presentations; 72 sixes pair into 36 double sixes with identical order-720 subgroups of orbit type 6+6+15", ok, details)


def _claim_non_reflection() -> Claim:
    w = lines_mod.weyl_group()
    s4 = lines_mod.s4_group()
    w_a5 = perm.generate(
        lattice.weyl_presentation_from_six(fermat_data.PRESENTATION_SIX)[1:]
    )
    sub_a5, _ = perm.is_subconjugate(w, s4, w_a5)
    klein = lines_mod.monodromy_klein_group()
    six_transposition_count = sum(
        1 for p in klein if p.cycle_type().get(2, 0) == 6 and p.cycle_type().get(1, 0) == 15
    )
    other = find_other_s6()
    sub_other, witness = perm.is_subconjugate(w, s4, other)
    details = {
        "s4_subconjugate_to_w_a5": sub_a5,
        "klein_six_transposition_elements": six_transposition_count,
        "other_s6_order": other.order,
        "other_s6_orbit_sizes": sorted(len(o) for o in perm.orbits(other)),
        "other_s6_fingerprint_is_s6": perm.fingerprint(other) == _s6_fingerprint(),
        "s4_subconjugate_to_other_s6": sub_other,
        "witness": format_cycles(witness) if witness else None,
    }
    ok = (
        not sub_a5
        and six_transposition_count == 1
        and other.order == 720
        and details["other_s6_orbit_sizes"] == [12, 15]
        and details["other_s6_fingerprint_is_s6"]
        and sub_other
    )
    return Claim("non-reflection", "S4 is not subconjugate to the reflection S6 but is subconjugate to the other S6 (orbits 12+15); the monodromy Klein group has one 2^6 element", ok, details)


def _claim_preferred_double_six() -> Claim:
    w = lines_mod.weyl_group()
    s4 = lines_mod.s4_group()
    orbits_by_label = {}
    for orbit in perm.orbits(s4):
        for label in orbit:
            orbits_by_label[label] = tuple(orbit)
    sixes = lines_mod.skew_sixes()
    single_orbit_sixes = [
        s for s in sixes if len({orbits_by_label[l] for l in s}) == 1
    ]
    pair_counts = {"one_half": 0, "both_halves": 0}
    preferred = None
    seen = set()
    for s in sixes:
        partner = tuple(sorted(lines_mod.partner_six(s)))
        key = frozenset([s, partner])
        if key in seen:
            continue
        seen.add(key)
        in_single = [
            len({orbits_by_label[l] for l in half}) == 1 for half in (s, partner)
        ]
        if any(in_single):
            pair_counts["one_half"] += 1
        if all(in_single):
            pair_counts["both_halves"] += 1
            preferred = s
    w_a5 = perm.generate(lattice.weyl_presentation_from_six(preferred)[1:]) if preferred else None
    details: dict = {
        "single_orbit_six_count": len(single_orbit_sixes),
        "double_sixes_with_a_single_orbit_half": pair_counts["one_half"],
        "double_sixes_with_both_halves_single_orbit": pair_counts["both_halves"],
        "preferred_six": list(preferred) if preferred else None,
    }
    cent_a5 = perm.centralizer(w, w_a5) if w_a5 else None
    ok = w_a5 is not None and cent_a5 is not None
    if ok:
        maximal = perm.generate(list(w_a5.generators) + list(cent_a5.generators))
        contains_s4 = s4 <= maximal
        cent_in_max = perm.intersect(maximal, perm.centralizer(w, s4))
        klein = lines_mod.monodromy_klein_group()
        details.update(
            {
                "w_a5_centralizer_order": cent_a5.order,
                "maximal_order": maximal.order,
                "maximal_contains_s4": contains_s4,
                "centralizer_of_s4_in_maximal_is_monodromy_group": cent_in_max == klein,
            }
        )
        ok = (
            cent_a5.order == 2
            and maximal.order == 1440
            and contains_s4
            and details["centralizer_of_s4_in_maximal_is_monodromy_group"]
            and pair_counts["both_halves"] == 1
        )
    return Claim("preferred-double-six", "the unique single-orbit double six spans the order-1440 maximal subgroup whose S4-centralizer is the monodromy Klein group", ok, details)


def _claim_exact_identities() -> Claim:
    results = symverify.run_all_checks()
    details = {r.name: r.to_dict() for r in results}
    return Claim("exact-identities", "three-cusp equivalence, four nodes, tritangent vanishing and the normalizer determinant hold exactly", all(r.passed for r in results), details)


_MONODROMY_CLAIMS = {
    FamilyKind.SYMMETRIC: ("symmetric-monodromy", "symmetric-family monodromy meets its exact upper bound C_W(S4), the Klein 4-group, with every accepted loop revalidated inside the bound"),
    FamilyKind.FULL: ("full-monodromy", "full-family monodromy meets its exact upper bound W(E6) (order 51840) with every accepted loop revalidated inside the bound"),
}


def _claim_monodromy(spec: FamilySpec, seed: int, budget: int) -> Claim:
    report = compute_monodromy(spec, budget=budget, seed=seed)
    accepted = [r for r in report.loops if r.accepted]
    details = {
        "conclusive": report.conclusive,
        "group_order": report.group["order"],
        "bound_order": report.bound_order,
        "accepted_loops": len(accepted),
        "all_accepted_revalidated": all(r.revalidated for r in accepted),
        "all_accepted_in_bound": all(r.in_bound for r in accepted),
        "invariant_violations": report.invariant_violations,
    }
    ok = (
        report.conclusive
        and details["all_accepted_revalidated"]
        and details["all_accepted_in_bound"]
        and report.invariant_violations == 0
    )
    if spec.kind is FamilyKind.SYMMETRIC:
        expected = expected_symmetric_monodromy()
        details["group_elements"] = report.group_elements
        details["expected_elements"] = sorted(expected)
        ok = ok and set(report.group_elements) == expected
    claim_id, description = _MONODROMY_CLAIMS[spec.kind]
    return Claim(claim_id, description, ok, details)


def _claim_component_structure() -> Claim:
    klein = lines_mod.monodromy_klein_group()
    comps = component_structure(klein)
    sizes = Counter(len(orbit) for orbit, _, _ in comps)
    labels = Counter(label for _, _, label in comps)
    ok = (
        len(comps) == 12
        and sizes == Counter({2: 6, 4: 3, 1: 3})
        and labels == Counter({"[K4/C2]": 6, "[K4/e]": 3, "[K4/K4]": 3})
        and all(len(orbit) * stab == klein.order for orbit, stab, _ in comps)
        and sum(len(orbit) for orbit, _, _ in comps) == 27
    )
    return Claim("component-structure", "the Klein group splits the 27 lines into 6 two-line, 3 four-line and 3 fixed components", ok, {
        "component_count": len(comps),
        "size_histogram": dict(sizes),
        "label_histogram": dict(labels),
    })


def _claim_numeric_hygiene(seed: int) -> Claim:
    rng = np.random.default_rng(seed)
    cat = _catalog_lines()
    worst = 0.0
    for _ in range(100):
        coeffs = (rng.standard_normal(20) + 1j * rng.standard_normal(20)) / np.sqrt(2)
        f = CubicForm(coeffs)
        line = cat[int(rng.integers(0, 27))]
        jac = htrack.jacobian(f, line)
        fd = _finite_difference_jacobian(f, line)
        err = np.linalg.norm(jac - fd) / max(np.linalg.norm(jac), 1e-30)
        worst = max(worst, float(err))
    spec = symmetric_family()
    base_lines = list(cat)
    reversal_ok = True
    tested = 0
    i = 0
    while tested < 20 and i < 200:
        loop_rng = np.random.default_rng((seed, 7000 + i))
        i += 1
        loop = random_loop(spec, loop_rng, scale=0.9)
        reverse = Loop(kind="triangle", vertices=tuple(reversed(loop.vertices)))
        try:
            fwd = htrack.track_loop(loop.vertices, base_lines)
            bwd = htrack.track_loop(reverse.vertices, base_lines)
        except TrackFailure:
            continue
        tested += 1
        if fwd.inverse() != bwd:
            reversal_ok = False
    rep1 = compute_monodromy(spec, strategy="random", budget=4, seed=seed, stall_threshold=2)
    rep2 = compute_monodromy(spec, strategy="random", budget=4, seed=seed, stall_threshold=2)
    deterministic = rep1.to_dict() == rep2.to_dict()
    details = {
        "worst_jacobian_fd_error": worst,
        "reversal_pairs_tested": tested,
        "reversal_inverse_ok": reversal_ok,
        "deterministic_reports": deterministic,
    }
    ok = worst < 1e-6 and tested >= 20 and reversal_ok and deterministic
    return Claim("numeric-hygiene", "analytic Jacobian matches finite differences, loop reversal inverts permutations, fixed seeds reproduce reports", ok, details)


def _finite_difference_jacobian(f: CubicForm, line: ChartedLine, h: float = 1e-7) -> np.ndarray:
    free = htrack._free_indices(np.array([line.gauge], dtype=np.int64))[0]
    out = np.zeros((4, 4), dtype=complex)
    flat = line.matrix.reshape(8)
    for k, pos in enumerate(free):
        plus, minus = flat.copy(), flat.copy()
        plus[pos] += h
        minus[pos] -= h
        rp = htrack.residual(f, plus.reshape(2, 4))
        rm = htrack.residual(f, minus.reshape(2, 4))
        out[:, k] = (rp - rm) / (2 * h)
    return out


def verify_claims(
    seed: int = 1,
    sym_budget: int = 40,
    full_budget: int = 300,
    include_monodromy: bool = True,
) -> ClaimsReport:
    """Run the whole verification suite; monodromy claims can be skipped for
    a fast exact-only pass."""
    claims = [
        _claim_weyl_reconstruction(),
        _claim_s4_action(),
        _claim_subgroup_ladder(),
        _claim_exceptional_isomorphism(),
        _claim_presentation_and_double_sixes(),
        _claim_non_reflection(),
        _claim_preferred_double_six(),
        _claim_exact_identities(),
        _claim_component_structure(),
    ]
    if include_monodromy:
        claims.append(_claim_monodromy(symmetric_family(), seed, sym_budget))
        claims.append(_claim_monodromy(full_family(), seed, full_budget))
        claims.append(_claim_numeric_hygiene(seed))
    return ClaimsReport(seed=seed, claims=claims)
