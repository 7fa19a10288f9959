"""Exact permutation and finite-group engine on the point set {1..27}.

Permutations act on line labels 1..27.  A group is stored as one element table,
an ``(order, 27)`` uint8 array of 0-based image rows in lexicographic order
(the largest group in scope, the full Weyl group, has order 51840).  Closure is
Dimino's algorithm, grown one generator at a time (``Closure``), so a caller
that finds generators one by one never re-closes from scratch.  Centralizers,
normalizers and subconjugacy tests scan the table one generator of the
subgroup at a time, testing each later generator only on the rows that passed
the earlier ones; stabilizers and element orders are boolean masks over the
table.

Composition convention, fixed repo-wide: ``compose(p, q)`` applies ``q`` first,
then ``p`` (so ``compose(p, q)(x) == p(q(x))``); on table rows it is ``p[q]``.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

N_POINTS = 27

_IDENTITY_IMAGES = tuple(range(1, N_POINTS + 1))
_IDENTITY_ROW = np.arange(N_POINTS, dtype=np.uint8)


class GroupGenerationError(RuntimeError):
    """Closure blew past the configured cap; the generator set is wrong."""


class NotASubgroupError(ValueError):
    """The claimed subgroup is not contained in the ambient group."""


class Permutation:
    """A bijection of {1..27}; ``images[i-1]`` is the image of point ``i``."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(images)
        if len(imgs) != N_POINTS or sorted(imgs) != list(_IDENTITY_IMAGES):
            raise ValueError("images must be a bijection of 1..27")
        object.__setattr__(self, "images", imgs)

    @classmethod
    def identity(cls) -> "Permutation":
        return cls(_IDENTITY_IMAGES)

    def __call__(self, point: int) -> int:
        if not 1 <= point <= N_POINTS:
            raise ValueError(f"point {point} outside 1..{N_POINTS}")
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        return _from_row(np.argsort(_row(self)).tolist())

    def is_identity(self) -> bool:
        return self.images == _IDENTITY_IMAGES

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles in canonical order; fixed points omitted."""
        seen = [False] * N_POINTS
        out = []
        for i in range(N_POINTS):
            if seen[i] or self.images[i] == i + 1:
                seen[i] = True
                continue
            cyc = [i + 1]
            seen[i] = True
            j = self.images[i]
            while j != i + 1:
                cyc.append(j)
                seen[j - 1] = True
                j = self.images[j - 1]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> dict[int, int]:
        """Cycle-length multiset including fixed points (length 1)."""
        counts = Counter(map(len, self.cycles()))
        fixed = N_POINTS - sum(counts.elements())
        return {**counts, 1: fixed} if fixed else dict(counts)

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r})"


IDENTITY = Permutation.identity()


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Product applying ``q`` first, then ``p``."""
    return Permutation([p.images[x - 1] for x in q.images])


_CYCLE_TEXT_RE = re.compile(r"^\s*(\(\s*\d+\s*(?:,\s*\d+\s*)*\)\s*)+$|^\s*\(\s*\)\s*$")


def parse_cycles(text: str) -> Permutation:
    """Parse disjoint-cycle notation like ``(1,3)(2,4)``; ``()`` is the identity."""
    if not _CYCLE_TEXT_RE.match(text):
        raise ValueError(f"malformed cycle text: {text!r}")
    images = list(_IDENTITY_IMAGES)
    seen: set[int] = set()
    for body in re.findall(r"\(([^()]*)\)", text):
        if not body.strip():
            continue
        pts = [int(tok) for tok in body.split(",")]
        for pt in pts:
            if not 1 <= pt <= N_POINTS:
                raise ValueError(f"point {pt} outside 1..{N_POINTS}")
            if pt in seen:
                raise ValueError(f"point {pt} repeated across cycles")
            seen.add(pt)
        if len(pts) < 2:
            continue
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b
    return Permutation(images)


def format_cycles(p: Permutation) -> str:
    """Canonical cycle string: cycles sorted by smallest moved point, each
    rotated to start at its smallest point; identity prints as ``()``."""
    cycs = p.cycles()
    if not cycs:
        return "()"
    canon = []
    for cyc in cycs:
        k = cyc.index(min(cyc))
        canon.append(cyc[k:] + cyc[:k])
    canon.sort(key=lambda c: c[0])
    return "".join("(" + ",".join(map(str, c)) + ")" for c in canon)


def _row(p: Permutation) -> np.ndarray:
    return np.array(p.images, dtype=np.uint8) - 1


def _from_row(row: Sequence[int]) -> Permutation:
    return Permutation([x + 1 for x in row])


def _row_keys(table: np.ndarray) -> list[bytes]:
    """The bytes of each row of a uint8 table, for membership tests."""
    raw = table.tobytes()
    return [raw[i : i + N_POINTS] for i in range(0, len(raw), N_POINTS)]


@dataclass(frozen=True)
class GroupFingerprint:
    order: int
    element_orders: tuple[tuple[int, int], ...]  # sorted (order, count) pairs
    abelian: bool

    def orders_dict(self) -> dict[int, int]:
        return dict(self.element_orders)


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A subgroup of Sym({1..27}) stored as its element table.  The constructor
    sorts the rows, so row 0 is the identity, iteration and indexing follow
    ``sorted`` order, and equal groups have equal tables.  ``keys``, the
    bytes of the rows, may be handed over by a caller that already has them."""

    generators: tuple[Permutation, ...]
    table: np.ndarray = field(repr=False)
    keys: InitVar[frozenset[bytes] | None] = None

    def __post_init__(self, keys: frozenset[bytes] | None):
        table = np.asarray(self.table, dtype=np.uint8)
        table = table[np.lexsort(table.T[::-1])]
        table.setflags(write=False)
        object.__setattr__(self, "table", table)
        if keys is not None:
            self.__dict__["_keys"] = keys
        if not len(table) or not np.array_equal(table[0], _IDENTITY_ROW):
            raise ValueError("group must contain the identity")
        if not all(g in self for g in self.generators):
            raise ValueError("generators must belong to the element set")

    @property
    def order(self) -> int:
        return len(self.table)

    @cached_property
    def _keys(self) -> frozenset[bytes]:
        return frozenset(_row_keys(self.table))

    @property
    def elements(self) -> frozenset[Permutation]:
        """The elements as a set of Permutation objects (built on each access)."""
        return frozenset(self)

    def __contains__(self, p: Permutation) -> bool:
        return _row(p).tobytes() in self._keys

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, i: int) -> Permutation:
        return _from_row(self.table[i].tolist())

    def __iter__(self) -> Iterator[Permutation]:
        return map(_from_row, self.table.tolist())

    def __le__(self, other: "FiniteGroup") -> bool:
        return self._keys <= other._keys

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteGroup) and np.array_equal(self.table, other.table)

    def __hash__(self) -> int:
        return hash(self.table.tobytes())

    def to_record(self) -> dict:
        fp = fingerprint(self)
        return {
            "generators": [format_cycles(g) for g in self.generators],
            "order": self.order,
            "fingerprint": {
                "order": fp.order,
                "element_orders": {str(k): v for k, v in fp.element_orders},
                "abelian": fp.abelian,
                "name": identify(fp),
            },
        }

    @classmethod
    def from_elements(cls, elements: Iterable[Permutation]) -> "FiniteGroup":
        return cls.from_table(np.array([_row(p) for p in set(elements)]).reshape(-1, N_POINTS))

    @classmethod
    def from_table(cls, table: np.ndarray) -> "FiniteGroup":
        """Group on the distinct rows of a table that is closed under composition."""
        return cls(generators=small_generating_set(table), table=table)


TRIVIAL_GROUP = FiniteGroup(generators=(), table=_IDENTITY_ROW[None, :])


class Closure:
    """Dimino closure grown one generator row at a time.

    ``table`` holds the group generated so far and ``keys`` the bytes of its
    rows.  Each generator that falls outside grows the group as a union of
    left cosets ``c H`` of the previous group H, adding one whenever a
    generator times a representative falls outside.  Raises
    GroupGenerationError exactly when the order exceeds ``cap``, which signals
    a wrong generator set (nothing in scope is larger than 51840).
    """

    def __init__(self, cap: int = 200_000):
        self.cap = cap
        self.table = _IDENTITY_ROW[None, :]
        self.keys = {_IDENTITY_ROW.tobytes()}
        self.rows: list[np.ndarray] = []  # the generator rows that grew the group

    def add(self, row: np.ndarray) -> bool:
        """Close over one more generator row; False if it is already inside."""
        if row.tobytes() in self.keys:
            return False
        self.rows.append(row)
        prev = self.table
        blocks = [prev]
        reps = [_IDENTITY_ROW]
        for rep in reps:  # grows while it is walked
            for t in self.rows:
                c = t[rep]
                if c.tobytes() in self.keys:
                    continue
                coset = c[prev]
                self.keys.update(_row_keys(coset))
                if len(self.keys) > self.cap:
                    raise GroupGenerationError(f"closure exceeded cap of {self.cap} elements")
                reps.append(c)
                blocks.append(coset)
        self.table = np.concatenate(blocks)
        return True

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return tuple(_from_row(r.tolist()) for r in self.rows)

    def group(self, generators: Sequence[Permutation] | None = None) -> FiniteGroup:
        """The closure as a group, generated by ``generators`` or by default by
        the rows that grew it."""
        gens = self.generators if generators is None else tuple(generators)
        return FiniteGroup(generators=gens, table=self.table, keys=frozenset(self.keys))


def generate(gens: Sequence[Permutation], cap: int = 200_000) -> FiniteGroup:
    """Dimino closure (see Closure) of the subgroup the generators generate.

    Raises GroupGenerationError exactly when the order exceeds ``cap``.
    """
    if not gens:
        raise ValueError("generate requires at least one generator")
    closure = Closure(cap)
    for row in map(_row, gens):
        closure.add(row)
    return closure.group(gens)


def orbits(group: FiniteGroup | Sequence[Permutation]) -> list[list[int]]:
    """Orbits on the 27 points of a group, or of the group a generator list
    generates; each orbit sorted, orbit list sorted by smallest element."""
    gens = group.generators if isinstance(group, FiniteGroup) else group
    reach = np.eye(N_POINTS)
    for g in gens:
        reach[_IDENTITY_ROW, _row(g)] = 1
    for _ in range(5):  # paths of every length up to 2**5 > 27
        reach = np.minimum(reach @ reach, 1)
    smallest = reach.argmax(axis=1)  # each point's orbit, by its smallest point
    # bincount, not np.unique: np.unique imports numpy.ma on first use
    leaders = np.flatnonzero(np.bincount(smallest))
    return [(np.flatnonzero(smallest == m) + 1).tolist() for m in leaders]


def pointwise_stabilizer(group: FiniteGroup, points: Iterable[int]) -> FiniteGroup:
    pts = np.array([p - 1 for p in points], dtype=np.intp)
    t = group.table
    return FiniteGroup.from_table(t[np.all(t[:, pts] == pts, axis=1)])


def setwise_stabilizer(group: FiniteGroup, points: Iterable[int]) -> FiniteGroup:
    pts = np.array(sorted({p - 1 for p in points}), dtype=np.intp)
    t = group.table
    return FiniteGroup.from_table(t[np.all(np.isin(t[:, pts], pts), axis=1)])


def _require_subgroup(group: FiniteGroup, sub: FiniteGroup, what: str) -> None:
    if not sub <= group:
        raise NotASubgroupError(f"{what}: second argument is not a subgroup of the first")


def _member_mask(rows: np.ndarray, group: FiniteGroup) -> np.ndarray:
    return np.fromiter(map(group._keys.__contains__, _row_keys(rows)), dtype=bool, count=len(rows))


def _survivors(table: np.ndarray, gens: Sequence[Permutation], test) -> tuple[np.ndarray, np.ndarray]:
    """Indices (ascending) and rows of the table that pass ``test(rows, g)``
    for every generator row ``g``; each generator is tested only on the rows
    that passed the ones before."""
    idx, rows = np.arange(len(table)), table
    for g in map(_row, gens):
        keep = test(rows, g)
        idx, rows = idx[keep], rows[keep]
    return idx, rows


def _conjugating_rows(
    ambient: FiniteGroup, sub: FiniteGroup, target: FiniteGroup
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and rows of the ambient rows ``p`` with ``p g p^-1`` in ``target`` for
    every generator ``g`` of ``sub``, so that ``p`` conjugates ``sub`` into
    ``target``.  The conjugate is one scatter: ``(p g p^-1)[p] = p[g]``."""

    def conjugates_inside(rows: np.ndarray, g: np.ndarray) -> np.ndarray:
        conj = np.empty_like(rows)
        conj[np.arange(len(rows))[:, None], rows] = rows[:, g]
        return _member_mask(conj, target)

    return _survivors(ambient.table, sub.generators, conjugates_inside)


def centralizer(group: FiniteGroup, sub: FiniteGroup) -> FiniteGroup:
    """Elements of ``group`` commuting with every element of ``sub``; commuting
    with the generators suffices, since they generate ``sub``.  When every
    element commutes (for example, when ``sub`` is trivial) this is ``group``
    itself, not a rebuilt copy."""
    _require_subgroup(group, sub, "centralizer")
    _, rows = _survivors(
        group.table, sub.generators, lambda rows, g: np.all(rows[:, g] == g[rows], axis=1)
    )
    return group if len(rows) == group.order else FiniteGroup.from_table(rows)


def normalizer(group: FiniteGroup, sub: FiniteGroup) -> FiniteGroup:
    """Elements ``g`` with ``g sub g^-1 == sub``: conjugates of the generators
    inside ``sub`` force containment, and finiteness upgrades it to equality."""
    _require_subgroup(group, sub, "normalizer")
    return FiniteGroup.from_table(_conjugating_rows(group, sub, sub)[1])


def intersect(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    return FiniteGroup.from_table(g1.table[_member_mask(g1.table, g2)])


def conjugate_subgroup(sub: FiniteGroup, g: Permutation) -> FiniteGroup:
    ginv = g.inverse()
    rows = _row(g)[sub.table[:, _row(ginv)]]
    gens = tuple(compose(compose(g, h), ginv) for h in sub.generators)
    return FiniteGroup(generators=gens or (IDENTITY,), table=rows)


def is_subconjugate(
    ambient: FiniteGroup, sub: FiniteGroup, target: FiniteGroup
) -> tuple[bool, Permutation | None]:
    """Whether some ambient element conjugates ``sub`` into ``target``, by an
    exhaustive scan; returns the lexicographically smallest witness when true."""
    hits = _conjugating_rows(ambient, sub, target)[0]
    if not len(hits):
        return False, None
    return True, ambient[int(hits[0])]


def _element_orders(table: np.ndarray) -> np.ndarray:
    """Order of every row: the exponent of its first power equal to the identity."""
    orders = np.zeros(len(table), dtype=np.int64)
    power, k = table, 1
    while not orders.all():
        orders[(orders == 0) & np.all(power == _IDENTITY_ROW, axis=1)] = k
        power, k = np.take_along_axis(table, power, axis=1), k + 1
    return orders


def fingerprint(group: FiniteGroup) -> GroupFingerprint:
    # bincount, not np.unique: np.unique imports numpy.ma on first use
    counts = np.bincount(_element_orders(group.table))
    values = np.flatnonzero(counts)
    # Generator commutation decides abelianness for the whole group.
    abelian = all(a * b == b * a for a in group.generators for b in group.generators)
    orders = tuple(zip(values.tolist(), counts[values].tolist()))
    return GroupFingerprint(order=group.order, element_orders=orders, abelian=abelian)


# Fingerprints of the named groups that show up in the verification suite.
# K4 and C4 share order 4 but differ in element orders, which is how the
# lookup tells them apart (C4 is deliberately absent, hence "unrecognized").
_KNOWN_FINGERPRINTS: dict[tuple, str] = {
    (1, ((1, 1),), True): "trivial",
    (2, ((1, 1), (2, 1)), True): "C2",
    (4, ((1, 1), (2, 3)), True): "K4",
    (6, ((1, 1), (2, 3), (3, 2)), False): "S3",
    (8, ((1, 1), (2, 5), (4, 2)), False): "D8",
    (16, ((1, 1), (2, 15)), True): "K4xK4",
    (24, ((1, 1), (2, 9), (3, 8), (4, 6)), False): "S4",
    (96, ((1, 1), (2, 39), (3, 8), (4, 24), (6, 24)), False): "S4xK4",
    (720, ((1, 1), (2, 75), (3, 80), (4, 180), (5, 144), (6, 240)), False): "S6",
}


def identify(fp: GroupFingerprint) -> str:
    return _KNOWN_FINGERPRINTS.get((fp.order, fp.element_orders, fp.abelian), "unrecognized")


def direct_product_check(group: FiniteGroup, a: FiniteGroup, b: FiniteGroup) -> bool:
    """True iff ``group`` is the internal direct product of ``a`` and ``b``."""
    if not (a <= group and b <= group) or a.order * b.order != group.order:
        return False
    if len(a._keys & b._keys) != 1:  # only the identity
        return False
    for sub in (a, b):
        for g in group.generators:
            ginv = g.inverse()
            for h in sub.generators:
                if compose(compose(g, h), ginv) not in sub:
                    return False
    return True


def small_generating_set(table: np.ndarray) -> tuple[Permutation, ...]:
    """Greedy small generating set for the distinct rows of an element table:
    walk the elements in sorted order and keep each one the closure so far
    misses, growing one closure.  Rejects row sets that are not a group: the
    closure overshoots the input or misses one of its rows, or the input is
    empty or repeats a row."""
    rows = np.asarray(table, dtype=np.uint8)
    keys = _row_keys(rows)
    closure = Closure(cap=len(rows))
    try:
        for i in np.lexsort(rows.T[::-1]).tolist():
            if len(closure.keys) == len(rows):
                break
            if keys[i] not in closure.keys:
                closure.add(rows[i])
    except GroupGenerationError:
        raise ValueError("element set is not closed under composition") from None
    if len(closure.keys) != len(rows) or closure.keys != set(keys):
        raise ValueError("element set is not closed under composition")
    return closure.generators
