"""Monodromy orchestration: linear families of cubic forms, loop construction
(random triangles, and meridian circles around the roots of a family's exact
discriminant components), group accumulation inside each family's exact
upper-bound group C_W(H), component structure of the line cover, and the full
claim-verification suite.
"""

from __future__ import annotations

import cmath
import math
import random as _random
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import fermat_data, htrack, lattice, lines as lines_mod, perm, symverify
from .exact import ZETA_COMPLEX, symmetric_basis
from .htrack import CubicForm, Fiber, TrackerConfig, TrackFailure
from .perm import FiniteGroup, format_cycles


class SingularBasepoint(ValueError):
    """Basepoint form does not carry 27 separable Newton-stable lines."""


def embed_symmetric(a: complex, b: complex, c: complex) -> CubicForm:
    """The symmetric family's form a*m3 + b*m21 + c*m111."""
    return symmetric_family().form_at((a, b, c))


def fermat_form() -> CubicForm:
    return CubicForm(symmetric_basis()[0])


def cayley_form() -> CubicForm:
    return CubicForm(symmetric_basis()[2])


@dataclass(frozen=True, eq=False)
class FamilySpec:
    """A linear family of cubic forms: the parameter vector p gives the form
    ``p @ basis``.

    ``basis`` is a k x 20 complex array and ``base`` the parameters of the
    smooth basepoint.  ``symmetry`` is the group H of coordinate symmetries
    that every form of the family keeps, as permutations of the 27 lines;
    a run tracks the lines of the frame it gives (htrack.Frame) and reads
    the others off them.  ``scale`` is the root-mean-square size of a
    random triangle's parameter offsets relative to |base|.  ``components``
    are the exact components of the family's discriminant that meridians
    circle, as forms in three parameters {(i, j, k): coefficient of
    p0^i p1^j p2^k}; a family without them is explored by random triangles
    alone.
    """

    name: str
    basis: np.ndarray
    symmetry: FiniteGroup
    base: np.ndarray
    scale: float
    components: dict[str, dict[tuple[int, int, int], int]] = field(default_factory=dict)

    def __post_init__(self):
        # the cached families are shared by every caller: keep them read-only
        for name in ("basis", "base"):
            arr = np.array(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def form_at(self, params: Sequence[complex]) -> CubicForm:
        return CubicForm(np.asarray(params, dtype=complex) @ self.basis)


@lru_cache(maxsize=1)
def symmetric_family() -> FamilySpec:
    """a*m3 + b*m21 + c*m111 (m3 = sum of cubes, m21 = mixed
    quadratic-linear, m111 = products of distinct triples), based at Fermat
    (a, b, c) = (1, 0, 0) and kept by the coordinate S4."""
    return FamilySpec(
        name="symmetric",
        basis=symmetric_basis(),
        symmetry=lines_mod.s4_group(),
        base=np.array([1, 0, 0]),
        scale=0.9,
        components=_SYMMETRIC_COMPONENTS,
    )


@lru_cache(maxsize=1)
def full_family() -> FamilySpec:
    """All cubic forms, by their 20 monomial coefficients, based at Fermat."""
    return FamilySpec(
        name="full",
        basis=np.eye(htrack.N_MONOMIALS),
        symmetry=perm.TRIVIAL_GROUP,
        base=fermat_form().coeffs,
        scale=1.8,
    )


# ---------------------------------------------------------------------------
# Basepoint fiber
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _catalog_fiber() -> Fiber:
    cat = lines_mod.fermat_catalog()
    fiber = Fiber.from_mats(cat[..., 0] + cat[..., 1] * ZETA_COMPLEX)
    # the cached fiber is shared by every caller: keep it read-only
    fiber.mats.setflags(write=False)
    fiber.gauges.setflags(write=False)
    return fiber


def basepoint_fiber(spec: FamilySpec) -> Fiber:
    """The 27 labeled numeric lines over the family's basepoint.

    Labels come from the exact catalog: for the Fermat basepoint this is the
    direct numeric embedding; any other basepoint must admit one Newton
    refinement of the whole catalog fiber whose 27 lines are separable and
    each still uniquely nearest its own catalog label.
    """
    cat = _catalog_fiber()
    base = spec.form_at(spec.base)
    if base == fermat_form():
        return cat
    cfg = TrackerConfig()
    mats, _, _, _, [failure] = htrack._newton_batch(
        htrack._polar(base.coeffs)[None], cat.mats[None], cat.chart, [cfg]
    )
    if failure is not None:
        raise SingularBasepoint("catalog lines do not Newton-refine on the basepoint") from failure
    refined = cat.moved(mats[0])
    if htrack._min_pairwise_distance(mats[0]) < 1e-6:
        raise SingularBasepoint("refined basepoint lines are not separable")
    try:
        preserved = htrack.match_to_base(refined, cat, cfg).is_identity()
    except TrackFailure:
        preserved = False
    if not preserved:
        raise SingularBasepoint("refined lines do not preserve catalog labels")
    return refined.recharted()


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


def _complex_gaussian(rng: _random.Random) -> complex:
    """A standard complex Gaussian (E|z|^2 = 2) by Box-Muller from two draws
    of ``rng.random()``."""
    u, v = rng.random(), rng.random()
    return math.sqrt(-2 * math.log1p(-u)) * cmath.exp(2j * math.pi * v)


def random_loop(spec: FamilySpec, rng: _random.Random, scale: float) -> Loop:
    """Random triangle basepoint -> p1 -> p2 -> basepoint; the p_i are the
    basepoint plus complex Gaussian parameter offsets of root-mean-square
    norm ``scale`` times the basepoint parameter norm.

    Each offset coordinate is one Box-Muller Gaussian sqrt(-2 log(1 - u))
    exp(2 pi i v) from two draws u, v of ``rng.random()``, divided by
    sqrt(2n).  Only ``random()`` is drawn: Python keeps its sequence for a
    given seed across releases, while numpy's NEP 19 promises no stable
    stream for its Gaussian samplers, so a seed names the same loops on
    every installation."""
    base = spec.base
    n = len(base)
    sigma = scale * np.linalg.norm(base) if np.linalg.norm(base) > 0 else scale
    pts = []
    for _ in range(2):
        # unit-rms complex Gaussian offset direction
        g = np.array([_complex_gaussian(rng) for _ in range(n)]) / np.sqrt(2 * n)
        pts.append(base + sigma * g)
    f0 = spec.form_at(base)
    return Loop(
        kind="triangle",
        vertices=(f0, spec.form_at(pts[0]), spec.form_at(pts[1]), f0),
        meta={"scale": scale},
    )


_CIRCLE_SEGMENTS = 16


def circle_loop(spec: FamilySpec, center: Sequence[complex], radius: float) -> Loop:
    """Polygonal circle around a parameter point, inside the complex line
    through the basepoint, entered and left along the straight segment from
    the basepoint."""
    base = spec.base
    c = np.asarray(center, dtype=complex)
    d = base - c
    nd = np.linalg.norm(d)
    if nd == 0:
        raise ValueError("circle center must differ from the basepoint")
    d = d / nd
    n = _CIRCLE_SEGMENTS
    ring = [c + radius * np.exp(2j * np.pi * k / n) * d for k in range(n)]
    verts = [spec.form_at(base)]
    verts += [spec.form_at(p) for p in ring]
    verts.append(spec.form_at(ring[0]))
    verts.append(spec.form_at(base))
    return Loop(
        kind="circle",
        vertices=tuple(verts),
        meta={"radius": radius, "segments": n, "center": [complex(x) for x in c]},
    )


# probe range 0 < t <= _PROBE_T_MAX
_PROBE_T_MAX = 3.0
# a root t of a restricted component counts as real when |Im t| is below
# this multiple of max(1, |t|)
_REAL_ROOT_RTOL = 1e-9


# The components of the symmetric family's discriminant that meridians
# circle, as forms in the parameters (a, b, c) of a*m3 + b*m21 + c*m111,
# each given as {(i, j, k): coefficient of a^i b^j c^k}.  A generic surface
# on L1 or C is nodal and one on L2 cuspidal (the 3A2 cubic).  The fourth
# component, the reducible cubics L3: 3a - 3b + c = 0, is left out: its
# local monodromy is the identity, so a circle around it adds nothing to
# the group.
_SYMMETRIC_COMPONENTS: dict[str, dict[tuple[int, int, int], int]] = {
    # a node (A1) at (1, 1, 1, 1)
    "L1": {(1, 0, 0): 1, (0, 1, 0): 3, (0, 0, 1): 1},
    # three cusps (A2): the S4-orbit of (1, 1, -1, -1)
    "L2": {(1, 0, 0): 3, (0, 1, 0): 1, (0, 0, 1): -1},
    # four nodes on the orbit of (s, 1, 1, 1); Cayley's cubic is a = b = 0
    "C": {
        (3, 0, 0): 9, (2, 1, 0): 9, (2, 0, 1): -3, (1, 2, 0): -9,
        (1, 1, 1): -6, (1, 0, 2): 4, (0, 3, 0): 7, (0, 2, 1): -3,
    },
}


def _restrict_to_line(
    form: dict[tuple[int, int, int], int], base: np.ndarray, direction: np.ndarray
) -> np.ndarray:
    """Coefficients of form(base + t*direction), highest power of t first."""
    deg = sum(next(iter(form)))
    powers = []
    for p, q in zip(base, direction):
        seq = [np.ones(1, dtype=complex)]
        for _ in range(deg):
            seq.append(np.convolve(seq[-1], [q, p]))
        powers.append(seq)
    out = np.zeros(deg + 1, dtype=complex)
    for (i, j, k), coeff in form.items():
        out += coeff * np.convolve(np.convolve(powers[0][i], powers[1][j]), powers[2][k])
    return out


def probe_discriminant(spec: FamilySpec, direction: Sequence[complex]) -> float | None:
    """The first t in (0, _PROBE_T_MAX] where basepoint + t*direction meets
    one of the family's discriminant components, or None: the least real
    root of the components restricted to the line, found exactly."""
    d = np.asarray(direction, dtype=complex)
    real_roots = [
        float(root.real)
        for form in spec.components.values()
        for root in np.roots(_restrict_to_line(form, spec.base, d))
        if abs(root.imag) <= _REAL_ROOT_RTOL * max(1.0, abs(root))
    ]
    return min((t for t in real_roots if 0 < t <= _PROBE_T_MAX), default=None)


def _meridian_loop(spec: FamilySpec, rng: _random.Random, angle_hint: float) -> Loop:
    """Probe a real parameter ray for its first crossing of a discriminant
    component and wind a circle there, of radius a tenth of the crossing
    parameter (at least 0.03); the opposite ray is probed before giving up,
    and a random triangle is the fallback when both directions are clean.

    The ray keeps the first parameter fixed (for the symmetric family, the
    affine (b, c) chart); ``angle_hint`` lets the caller stratify ray angles
    across loops so that consecutive meridians sweep different components,
    and one draw u of ``rng.random()`` jitters it by 0.4 * u - 0.2.
    """
    theta = angle_hint + (0.4 * rng.random() - 0.2)
    direction = np.array([0.0, np.cos(theta), np.sin(theta)])
    for candidate in (direction, -direction):
        t_star = probe_discriminant(spec, candidate)
        if t_star is None:
            continue
        center = spec.base + t_star * candidate
        radius = 0.1 * max(t_star, 0.3)
        loop = circle_loop(spec, center, radius=radius)
        loop.meta["probe_direction"] = [complex(x) for x in candidate]
        loop.meta["probe_t"] = t_star
        return loop
    return random_loop(spec, rng, spec.scale)


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


_GOLDEN_ANGLE = 2 * np.pi * 0.6180339887498949


def _build_loop(spec: FamilySpec, index: int, seed: int) -> Loop:
    """Loop ``index`` of a run: a probed meridian on odd indices when the
    family has discriminant components, otherwise a random triangle of
    scale ``spec.scale * (0.6 + 0.8 * u)``.  Every draw is ``random()`` of
    ``random.Random(f"{seed}:{index}")``, whose sequence Python keeps for a
    given seed; see ``random_loop``."""
    rng = _random.Random(f"{seed}:{index}")
    if index % 2 == 1 and spec.components:
        hint = (index * _GOLDEN_ANGLE) % (2 * np.pi)
        return _meridian_loop(spec, rng, hint)
    return random_loop(spec, rng, spec.scale * (0.6 + 0.8 * rng.random()))


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


@lru_cache(maxsize=2)
def _weyl_centralizer(symmetry: FiniteGroup) -> FiniteGroup:
    return perm.centralizer(lines_mod.weyl_group(), symmetry)


def upper_bound(spec: FamilySpec) -> FiniteGroup:
    """The family's exact upper bound for its monodromy group, C_W(H).

    Every loop permutation is an automorphism of the incidence graph, so it
    lies in W = W(E6).  Every form along a loop keeps the family's symmetry
    group H, so the loop permutation commutes with H.  For trivial H (the
    full family) the bound is W(E6) itself; for the coordinate S4 (the
    symmetric family) it is the Klein 4-group.
    """
    return _weyl_centralizer(spec.symmetry)


@lru_cache(maxsize=2)
def _frame(symmetry: FiniteGroup) -> htrack.Frame:
    """The tracker's frame for a family's symmetry group: its lines tracked
    and the coordinate permutations that give the others."""
    return htrack.Frame.of(symmetry, lines_mod.coordinate_action_table())


# a run stops once this many accepted loops in a row add no new element
_STALL_THRESHOLD = 10


def compute_monodromy(spec: FamilySpec, budget: int = 40, seed: int = 1) -> MonodromyReport:
    """Accumulate loop permutations until ``_STALL_THRESHOLD`` consecutive
    accepted loops add no new group elements, or the budget runs out.

    A loop is accepted iff its permutation revalidates at tightened
    tolerances and lies in the family's ``upper_bound``; a revalidated
    permutation outside the bound is counted as an invariant violation and
    rejected.  The run is conclusive only when the stall fired and the group
    found equals the bound, so the lower bound meets the upper one.  Loops
    are tracked and revalidated in the frame of the family's symmetry group,
    built on the first run of that group.
    """
    base = basepoint_fiber(spec)
    bound = upper_bound(spec)
    frame = _frame(spec.symmetry)

    records: list[LoopRecord] = []
    closure = perm.Closure()
    stall = 0
    violations = 0
    stabilized_after = None

    # Loops are tracked in chunks of the fewest loops after which the stall
    # counter could fire, so no loop is tracked past the point where the run
    # stops; each chunk is one ragged batch of its first tracks and their
    # tightened re-tracks.
    i = 0
    while i < budget and stabilized_after is None:
        size = min(budget - i, _STALL_THRESHOLD - stall)
        chunk = [_build_loop(spec, j, seed) for j in range(i, i + size)]
        tracked, confirmed = htrack.revalidate([loop.vertices for loop in chunk], base, frame=frame)
        for j, (loop, p, revalidated) in enumerate(zip(chunk, tracked, confirmed)):
            failure = "revalidation mismatch"
            if isinstance(p, TrackFailure):
                p, failure = None, f"{type(p).__name__}: {p}"
            in_bound = (p in bound) if revalidated else None
            if in_bound is False:
                violations += 1
                failure = "permutation outside the upper bound"
            grew = bool(in_bound) and closure.add_permutation(p)
            records.append(
                LoopRecord(
                    index=i + j, kind=loop.kind, accepted=bool(in_bound),
                    permutation=format_cycles(p) if p is not None else None,
                    failure=None if in_bound else failure,
                    revalidated=revalidated, in_bound=in_bound,
                    new_elements=grew, meta=_loop_meta(loop),
                )
            )
            if not in_bound:
                continue
            stall = 0 if grew else stall + 1
            if stall >= _STALL_THRESHOLD:
                stabilized_after = i + j + 1
        i += len(chunk)

    group = closure.group()
    components = [
        {
            "orbit": orbit,
            "stabilizer_order": stab_order,
            "label": label,
        }
        for orbit, stab_order, label in component_structure(group)
    ]
    return MonodromyReport(
        family=spec.name,
        seed=seed,
        budget=budget,
        stall_threshold=_STALL_THRESHOLD,
        scale=spec.scale,
        config=asdict(TrackerConfig()),
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
    transitive-set labels [G/H].  A stabilizer's order is the number of
    rows that fix the orbit's first point, and one stabilizer is built for
    each distinct set of such rows, not one per orbit."""
    g_name = perm.identify(perm.fingerprint(group))
    if g_name == "unrecognized":
        g_name = f"G{group.order}"
    orbs = perm.orbits(group)
    firsts = np.array([orbit[0] - 1 for orbit in orbs])
    fixes = group.table[:, firsts] == firsts  # row r fixes the first point of orbit k
    h_names: dict[bytes, str] = {}
    out = []
    for orbit, fixed in zip(orbs, fixes.T):
        key, order = np.packbits(fixed).tobytes(), int(fixed.sum())
        if key not in h_names:
            h_name = perm.identify(perm.fingerprint(perm.pointwise_stabilizer(group, orbit[:1])))
            h_names[key] = {"trivial": "e", "unrecognized": f"H{order}"}.get(h_name, h_name)
        out.append((orbit, order, f"[{g_name}/{h_names[key]}]"))
    return out


def find_other_s6() -> FiniteGroup:
    """The non-reflection S6 of W(E6), the twisted group <s_i c>, written
    down from the table of W(A5).

    The s_i are the W(A5) reflections s1..s5 of the reference skew six and c
    is the reflection in the root 2h - e1 - ... - e6, which is orthogonal to
    every e_j - e_{j+1}, so c commutes with each s_i and lies outside W(A5).
    Hence w -> w c^(length of w) maps W(A5) isomorphically onto a second
    S6, which moves the lines in orbits 12 + 15 instead of 6 + 6 + 15.  The
    length's parity is the sign of the permutation w makes of the six's
    slots (each s_i swaps two), so the rows that permute the slots oddly
    are composed with c and the others kept.
    """
    six = np.array(fermat_data.PRESENTATION_SIX) - 1
    v = lattice.marking_vectors(fermat_data.PRESENTATION_SIX)
    s = lattice.weyl_presentation_from_six(fermat_data.PRESENTATION_SIX)[1:]
    (c,) = lattice.reflection_permutations(v, [(2, -1, -1, -1, -1, -1, -1)])
    table = _presentation_w_a5().table
    slot = np.empty(lines_mod.N_LINES, dtype=np.intp)
    slot[six] = np.arange(6)
    slots = slot[table[:, six]]  # (720, 6): the slot each slot goes to
    odd = np.triu(slots[:, :, None] > slots[:, None, :]).sum(axis=(1, 2)) % 2 == 1
    twisted = np.where(odd[:, None], table[:, np.array(c.images) - 1], table)
    return FiniteGroup(generators=tuple(g * c for g in s), table=twisted)


@lru_cache(maxsize=1)
def _presentation_w_a5() -> FiniteGroup:
    """W(A5) of the reference skew six, the reflection S6."""
    return perm.generate(lattice.weyl_presentation_from_six(fermat_data.PRESENTATION_SIX)[1:])


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


# The order of the Coxeter group of type E6 (Humphreys, Reflection Groups and
# Coxeter Groups, 1990, 2.11-2.12): cited, not computed.
_E6_COXETER_ORDER = 51840


def _coxeter_ok(rows: np.ndarray) -> bool:
    """Whether the orders of the 36 products of six 0-based permutation rows
    are the E6 Coxeter matrix, in one (36, 27) table."""
    products = rows[:, rows].reshape(36, -1)  # row 6i + j is g[i][g[j]]
    return np.array_equal(perm._element_orders(products), lattice.coxeter_exponents().reshape(-1))


def _generates_weyl(gens: Sequence[perm.Permutation], w: FiniteGroup) -> bool:
    """Whether six reflections generate all of ``w``, with no closure.

    Computed: they lie in ``w``, their products have the E6 Coxeter orders
    and two of them do not commute, so they generate a non-abelian quotient
    of the Coxeter group of type E6.  Cited: that group has order
    _E6_COXETER_ORDER, and its only normal subgroups are 1, the index-2
    rotation subgroup W+, which is simple (W+ = U4(2), ATLAS of Finite
    Groups, 1985), and the whole group.  Its only non-abelian quotient is
    then itself, a subgroup of ``w`` of order 51840: all of ``w`` when ``w``
    has that order."""
    rows = np.array([g.images for g in gens], dtype=np.uint8) - 1
    products = rows[:, rows]
    return (
        bool(perm._member_mask(rows, w).all())
        and _coxeter_ok(rows)
        and bool((products != products.transpose(1, 0, 2)).any())
    )


def _claim_weyl_reconstruction() -> Claim:
    """W(E6) read two ways, with no closure and no search.

    Computed: ``automorphism_count``, the order of ``weyl_group()``, the
    incidence graph's automorphisms read off the ordered skew sixes (each is
    fixed by its image of the reference ordered six, and each row is a
    product of row-checked automorphisms); and that the reference
    presentation's six reflections lie in that table, have the E6 Coxeter
    orders and do not all commute (``_generates_weyl``).  Cited: the order
    51840 of the Coxeter group E6 and its normal subgroups, by which those
    reflections generate a group of order 51840, ``generated_order`` (0 when
    a computed premise fails).  That group lies in the table, so
    ``element_sets_equal`` holds exactly when the two orders agree."""
    w = lines_mod.weyl_group()
    gens = lattice.weyl_presentation_from_six(fermat_data.PRESENTATION_SIX)
    generated = _E6_COXETER_ORDER if _generates_weyl(gens, w) else 0
    details = {
        "generated_order": generated,
        "automorphism_count": w.order,
        "element_sets_equal": generated == w.order,
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
    cent = _weyl_centralizer(s4)
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
    """The mod-3 map phi of W(E6) is injective, read off W(A5) alone.

    phi is a homomorphism because each step of it is one: the extension of a
    line permutation to the lattice, the restriction to the root lattice Q,
    the quotient Q/3P and projectivization; ``homomorphism_spot_check``
    tests it on 25 random pairs of W(E6), with one ``po_image`` call for all
    75 elements.  Computed: the images of the 720 elements of the reference
    six's W(A5) (``build_po_group``).  When they are 720 distinct projective
    matrices, ker phi meets W(A5) trivially.  Cited: the normal subgroups of
    W(E6) are 1, the index-2 W+ and W(E6) (ATLAS of Finite Groups, 1985).
    Both W+ and W(E6) contain the even part A6 of W(A5), so ker phi = 1 and
    ``projective_image_order`` is the order of ``weyl_group()``.  Over F3 a
    nonzero M never equals -M, so ``pre_projectivization_order`` is twice
    that.  Both are 0 when the W(A5) images are not distinct.
    """
    red = lattice.mod3_reduction()
    v = lattice.marking_vectors(fermat_data.PRESENTATION_SIX)
    w = lines_mod.weyl_group()
    w_a5 = _presentation_w_a5()
    projective, _ = lattice.build_po_group(red, v, w_a5)
    image_order = w.order if len(projective) == w_a5.order else 0
    rng = _random.Random(90)
    pairs = [(rng.choice(w), rng.choice(w)) for _ in range(25)]
    firsts, seconds = zip(*pairs)
    images = lattice.po_image(red, [perm.compose(p, q) for p, q in pairs] + [*firsts, *seconds], v)
    left, right = np.array(images[25:50]), np.array(images[50:])
    homo = lattice._canonical_sign(left @ right) == images[:25]
    details = {
        "projective_image_order": image_order,
        "pre_projectivization_order": 2 * image_order,
        "injective": image_order == w.order,
        "homomorphism_spot_check": homo,
        "elementary_divisors": list(red.divisors),
    }
    ok = image_order == 51840 and homo and list(red.divisors) == [1, 3, 3, 3, 3, 3]
    return Claim("exceptional-isomorphism", "mod-3 reduction is a bijection onto a projective orthogonal group of order 51840 (103680 before projectivization)", ok, details)


def _claim_presentation_and_double_sixes() -> Claim:
    """The reference six's presentation, 10 random sixes' Coxeter relations
    and the 72 sixes paired into 36 double sixes.  ``full_presentation_order``
    is ``weyl_group().order`` when the six reference reflections generate it
    (``_generates_weyl``, no closure), or 0 when a computed premise fails."""
    six = fermat_data.PRESENTATION_SIX
    gens = lattice.weyl_presentation_from_six(six)
    printed = [perm.parse_cycles(s) for s in fermat_data.PRESENTATION_GENERATOR_CYCLES]
    sixes = lines_mod.skew_sixes()
    pairs = lines_mod.double_sixes()
    by_six = {s: k for k, s in enumerate(sixes)}
    # the reflections of all 72 sixes and of the 36 partners, in partner_six's
    # order, from one batched marking
    reflections = lattice.presentations(list(sixes) + [partner for _, partner in pairs])
    rng = _random.Random(11)
    sampled = rng.sample(sixes, 10)
    sampled_ok = all(_coxeter_ok(reflections[by_six[s]]) for s in sampled)
    w_a5 = _presentation_w_a5()
    w = lines_mod.weyl_group()
    coxeter_reference = _coxeter_ok(np.array([g.images for g in gens], dtype=np.uint8) - 1)
    full_order = w.order if _generates_weyl(gens, w) else 0
    # A six s and its partner b, in partner_six's order, have the same
    # reflections s1..s5 (b_i - b_j = e_i - e_j), so the same W(A5) with no
    # closure; the orbits {s, b, the other 15} tell the groups apart
    halves = sorted(half for s, partner in pairs for half in (s, tuple(sorted(partner))))
    firsts = np.array([by_six[s] for s, _ in pairs])
    seconds = np.array([by_six[tuple(sorted(partner))] for _, partner in pairs])
    a5_gens = reflections[firsts, 1:]
    pairing_ok = (
        halves == list(sixes)
        and np.array_equal(np.sort(lines_mod.partner_table()[seconds], axis=1), np.array(sixes)[firsts])
        and np.array_equal(reflections[len(sixes) :, 1:], a5_gens)
    )
    subgroups = set(map(tuple, perm.orbit_labels(a5_gens).tolist()))
    details = {
        "reference_six_reproduces_printed_generators": gens == printed,
        "coxeter_relations_reference": coxeter_reference,
        "coxeter_relations_10_random_sixes": sampled_ok,
        "skew_six_count": len(sixes),
        "double_six_count": len(pairs),
        "partner_pairing_consistent": pairing_ok,
        "distinct_w_a5_subgroups": len(subgroups),
        "w_a5_order": w_a5.order,
        "w_a5_orbit_sizes": sorted(len(o) for o in perm.orbits(w_a5)),
        "full_presentation_order": full_order,
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
        and full_order == 51840
    )
    return Claim("presentation-double-sixes", "skew sixes give Coxeter presentations; 72 sixes pair into 36 double sixes with identical order-720 subgroups of orbit type 6+6+15", ok, details)


def _claim_non_reflection() -> Claim:
    w = lines_mod.weyl_group()
    s4 = lines_mod.s4_group()
    w_a5 = _presentation_w_a5()
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
        "other_s6_fingerprint_is_s6": perm.fingerprint(other) == perm.fingerprint(w_a5),
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


def _six_w_a5(w: FiniteGroup, six: Sequence[int]) -> FiniteGroup:
    """W(A5) of an ordered skew six: the reference six's W(A5) conjugated by
    g, the one row of ``w`` that sends the reference six, in order, onto
    ``six``.  The marking by ``six`` is the reference marking moved by g, so
    the conjugated generators g s_i g^-1 are ``six``'s presentation
    reflections s1..s5."""
    ref = np.array(fermat_data.PRESENTATION_SIX) - 1
    (g,) = np.flatnonzero((w.table[:, ref] == np.array(six) - 1).all(axis=1))
    return perm.conjugate_subgroup(_presentation_w_a5(), w[int(g)])


def _times_centralizer(sub: FiniteGroup, cent: FiniteGroup) -> FiniteGroup:
    """The group that a subgroup and its centralizer generate, written down
    as the rows h z (h in ``sub``, z in ``cent``): the two commute, so these
    products are closed, and they are distinct when the two meet only in
    the identity (FiniteGroup rejects a repeated row)."""
    return FiniteGroup(
        generators=sub.generators + cent.generators,
        table=np.concatenate([sub.table[:, z] for z in cent.table]),
    )


def _claim_preferred_double_six() -> Claim:
    w = lines_mod.weyl_group()
    s4 = lines_mod.s4_group()
    orbit_of = {label: k for k, orbit in enumerate(perm.orbits(s4)) for label in orbit}

    def single_orbit(six) -> bool:
        return len({orbit_of[label] for label in six}) == 1

    pair_counts = {"one_half": 0, "both_halves": 0}
    preferred = None
    for s, partner in lines_mod.double_sixes():
        in_single = [single_orbit(s), single_orbit(partner)]
        if any(in_single):
            pair_counts["one_half"] += 1
        if all(in_single):
            pair_counts["both_halves"] += 1
            preferred = s
    w_a5 = _six_w_a5(w, preferred) if preferred else None
    details: dict = {
        "single_orbit_six_count": sum(map(single_orbit, lines_mod.skew_sixes())),
        "double_sixes_with_a_single_orbit_half": pair_counts["one_half"],
        "double_sixes_with_both_halves_single_orbit": pair_counts["both_halves"],
        "preferred_six": list(preferred) if preferred else None,
    }
    cent_a5 = perm.centralizer(w, w_a5) if w_a5 else None
    ok = w_a5 is not None and cent_a5 is not None
    if ok:
        maximal = _times_centralizer(w_a5, cent_a5)
        contains_s4 = s4 <= maximal
        cent_in_max = perm.intersect(maximal, _weyl_centralizer(s4))
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
    description = (
        f"{spec.name}-family monodromy meets its exact upper bound, the centralizer "
        f"in W(E6) of the family's symmetry group (order {report.bound_order}), with "
        "every accepted loop revalidated inside the bound"
    )
    return Claim(f"{spec.name}-monodromy", description, ok, details)


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


def verify_claims(seed: int = 1, include_monodromy: bool = True) -> ClaimsReport:
    """Run the whole verification suite; monodromy claims can be skipped for
    a fast exact-only pass.  The symmetric run gets 40 loops, the full run
    300."""
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
        claims.append(_claim_monodromy(symmetric_family(), seed, 40))
        claims.append(_claim_monodromy(full_family(), seed, 300))
    return ClaimsReport(seed=seed, claims=claims)
