"""Exact permutation and finite-group engine on the point set {1..27}.

Permutations act on line labels 1..27.  A group is stored as one element table,
an ``(order, 27)`` uint8 array of 0-based image rows in lexicographic order
(the largest group in scope, the full Weyl group, has order 51840).

Membership reads the sorted table itself.  The columns where adjacent rows
first differ form a base of the group (points whose images fix an element, as
in Sims' stabilizer chain): rows are distinct on it, and their base-27 codes
over it ascend with the rows, so one ``np.searchsorted`` finds the one row a
query can equal, and an exact compare with that whole row decides.  The same
adjacent-row test rejects a table that repeats a row, and shows when rows
already ascend, so a table is sorted only when it is not.  27**13 is the
largest power of 27 in an int64, so a longer base is folded: after each chunk
of columns a key is replaced by its rank among the table's distinct keys, and
the codes of the next columns are appended to the rank.  W(E6)'s base is the
six points 1, 2, 3, 5, 6, 13, one chunk.

Closure is Dimino's algorithm, grown one generator at a time (``Closure``), so
a caller that finds generators one by one never re-closes from scratch.  The
group grown from H is the union of left cosets ``r H``, and an element ``c``
lies in it exactly when ``r^-1 c`` lies in H for one of the representatives
``r``: a lookup in H's index, so the closure keeps no key per element.
Greedy generating sets grow the same cosets inside a known table, marking its
rows.  Centralizers scan the table one generator of the subgroup at a time,
testing each later generator only on the rows that passed the earlier ones.
Normalizers and subconjugacy tests first prune by orbits, the first test of a
permutation-group backtrack search (Seress, Permutation Group Algorithms,
2003, ch. 9): an element conjugating a subgroup into a target maps each orbit
of the subgroup into one orbit of the target, which one compare of target
orbit labels per point tests, each on the rows that passed the points before;
only the rows that pass are conjugated, one generator at a time.  Stabilizers and element orders are
boolean masks over the table.

Composition convention, fixed repo-wide: ``compose(p, q)`` applies ``q`` first,
then ``p`` (so ``compose(p, q)(x) == p(q(x))``); on table rows it is ``p[q]``.
"""

from __future__ import annotations

import bisect
import math
import re
from collections import Counter
from dataclasses import dataclass, field
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


def _rows(perms: Sequence[Permutation]) -> np.ndarray:
    """The (len(perms), 27) uint8 0-based image rows of permutations."""
    return np.array([p.images for p in perms], dtype=np.uint8).reshape(-1, N_POINTS) - 1


def _from_row(row: Sequence[int]) -> Permutation:
    return Permutation([x + 1 for x in row])


_KEY_LIMIT = 2**63 - 1  # keys are int64
_POWERS = [N_POINTS**k for k in range(N_POINTS)]


class _BaseIndex:
    """Membership index of a table of distinct rows, in lexicographic order.

    ``levels`` holds, chunk by chunk of the base columns, the columns, their
    base-27 place values and the ascending distinct keys of the table over
    them.  A key is the rank of the row's key among the distinct keys of the
    level before (0 at the first level) followed by the base-27 digits of its
    chunk.  Each chunk is as wide as keeps every key, a query's too, below
    2**63: 13 columns at the first level, 9 for a rank below 10**6.  The keys
    of the last level are the table's rows, one each.  ``table`` is the input
    sorted, or the input itself when its rows already ascend (a mask over a
    sorted table does), which the adjacent-row test shows without a sort."""

    def __init__(self, table: np.ndarray):
        first = _first_differences(table)
        if first is None:  # the rows do not ascend: sort them
            table = table[np.lexsort(table.T[::-1])]
            first = _first_differences(table)
            if first is None:
                raise ValueError("element table repeats a row")
        base = np.flatnonzero(np.bincount(first, minlength=N_POINTS))
        self.table = table
        self.levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        rank, distinct, done = np.zeros(len(table), dtype=np.intp), 1, 0
        while done < len(base):
            # a query's rank runs up to ``distinct``, one past the last key's
            width = bisect.bisect_right(_POWERS, _KEY_LIMIT // (distinct + 1)) - 1
            cols = base[done : done + width]
            places = np.array(_POWERS[len(cols) - 1 :: -1], dtype=np.int64)
            code = rank
            for col in cols.tolist():  # one column at a time: no (rows, width) int64 copy
                code = code * N_POINTS + table[:, col]
            new = np.concatenate(([True], code[1:] != code[:-1]))
            self.levels.append((cols, places, code[new]))
            rank, distinct, done = np.cumsum(new) - 1, int(new.sum()), done + width

    def find(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each row, the one table index its key can sit at and whether
        the table row there is exactly that row.  The full-row compare alone
        decides: it rejects a row whose key is missing at some level as well
        as one that agrees with a member on every base column."""
        pos = np.zeros(len(rows), dtype=np.intp)
        for level, (cols, places, keys) in enumerate(self.levels):
            code = rows[:, cols].astype(np.int64) @ places
            if level:
                code += pos * _POWERS[len(cols)]
            pos = keys.searchsorted(code)
        np.minimum(pos, len(self.table) - 1, out=pos)
        return pos, (self.table.take(pos, axis=0) == rows).all(axis=1)


def _first_differences(table: np.ndarray) -> np.ndarray | None:
    """For each row after the first, the column where it first leaves the row
    before; None unless every row is larger than the one before."""
    if not (table[1:, 0] >= table[:-1, 0]).all():  # one column settles most unsorted tables
        return None
    differs = table[1:] != table[:-1]
    first = differs.argmax(axis=1)
    steps = np.arange(len(first))
    return first if (table[1:][steps, first] > table[:-1][steps, first]).all() else None


def _member_mask(rows: np.ndarray, group: FiniteGroup) -> np.ndarray:
    return group._index.find(rows)[1]


@dataclass(frozen=True)
class GroupFingerprint:
    order: int
    element_orders: tuple[tuple[int, int], ...]  # sorted (order, count) pairs
    abelian: bool


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A subgroup of Sym({1..27}) stored as its element table.  The constructor
    sorts the rows (unless they already ascend), so row 0 is the identity,
    iteration and indexing follow ``sorted`` order, and equal groups have
    equal tables; it builds the membership index over the sorted table (see
    the module docstring) and rejects a table that misses the identity or
    repeats a row."""

    generators: tuple[Permutation, ...]
    table: np.ndarray = field(repr=False)
    _index: _BaseIndex = field(init=False, repr=False)

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.uint8)
        if not len(table):
            raise ValueError("group must contain the identity")
        index = _BaseIndex(table)
        if index.table is table:  # the input already ascends: own a copy of it
            index.table = index.table.copy()
        index.table.setflags(write=False)
        object.__setattr__(self, "table", index.table)
        object.__setattr__(self, "_index", index)
        if not np.array_equal(self.table[0], _IDENTITY_ROW):
            raise ValueError("group must contain the identity")
        if not _member_mask(_rows(self.generators), self).all():
            raise ValueError("generators must belong to the element set")

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def elements(self) -> frozenset[Permutation]:
        """The elements as a set of Permutation objects (built on each access)."""
        return frozenset(self)

    def __contains__(self, p: Permutation) -> bool:
        return bool(_member_mask(_row(p)[None, :], self)[0])

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, i: int) -> Permutation:
        return _from_row(self.table[i].tolist())

    def __iter__(self) -> Iterator[Permutation]:
        return map(_from_row, self.table.tolist())

    def __le__(self, other: "FiniteGroup") -> bool:
        return self.order <= other.order and bool(_member_mask(self.table, other).all())

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
    def from_table(cls, table: np.ndarray) -> "FiniteGroup":
        """Group on the rows of a table that is closed under composition,
        generated by its ``small_generating_set``."""
        group = cls(generators=(), table=table)
        object.__setattr__(group, "generators", small_generating_set(group))
        return group


TRIVIAL_GROUP = FiniteGroup(generators=(), table=_IDENTITY_ROW[None, :])


class Closure:
    """Dimino closure grown one generator row at a time.

    ``table`` holds the group generated so far: the group H it was before its
    last generator, followed by the left cosets ``c H`` that generator opened,
    in the order their representatives ``c`` were found, each generator times
    a representative that falls outside giving the next one.  An element
    ``c`` lies in the table exactly when ``r^-1 c`` lies in H for a
    representative ``r``, a lookup in H's index, so the closure keeps no key
    per element.  Only the representatives whose coset has ``c``'s coset key
    are tried: the H-orbit labels as ``c`` moves them, which ``c h`` moves
    alike.  Raises GroupGenerationError exactly when the order exceeds
    ``cap``, which signals a wrong generator set (nothing in scope is larger
    than 51840).
    """

    def __init__(self, cap: int = 200_000):
        self.cap = cap
        self.table = _IDENTITY_ROW[None, :]
        self.rows: list[np.ndarray] = []  # the generator rows that grew the group
        self._cosets_of(self.table)

    def _cosets_of(self, sub: np.ndarray) -> None:
        """Start over with H the group of element table ``sub`` and the
        identity as its only representative."""
        self._sub = _BaseIndex(sub)
        self._orbit_min = sub.min(axis=0)  # each point's smallest H-orbit mate
        self._inverses = [_IDENTITY_ROW]  # r^-1 of each representative r
        self._cosets = {self._coset_keys(_IDENTITY_ROW[None, :])[0]: [0]}

    def _coset_keys(self, rows: np.ndarray) -> list[bytes]:
        """The coset key of each row: the H-orbit labels as it moves them."""
        moved = np.empty_like(rows)
        moved[np.arange(len(rows))[:, None], rows] = self._orbit_min
        raw = moved.tobytes()
        return [raw[i : i + N_POINTS] for i in range(0, len(raw), N_POINTS)]

    def _in_cosets(self, rows: np.ndarray, keys: list[bytes], since: int = 0) -> np.ndarray:
        """Which rows lie in the coset of a representative numbered ``since``
        or later, tested in one lookup."""
        pairs = [(i, r) for i, key in enumerate(keys) for r in self._cosets.get(key, ()) if r >= since]
        inside = np.zeros(len(rows), dtype=bool)
        if pairs:
            i, r = np.array(pairs).T
            inverses = np.array([self._inverses[k] for k in r.tolist()])
            conj = inverses[np.arange(len(r))[:, None], rows[i]]  # r^-1 c
            inside[i[self._sub.find(conj)[1]]] = True
        return inside

    def add(self, row: np.ndarray) -> bool:
        """Close over one more generator row; False if it is already inside."""
        if self._in_cosets(row[None, :], self._coset_keys(row[None, :]))[0]:
            return False
        prev = self.table
        self._cosets_of(prev)
        self.rows.append(row)
        gens = np.array(self.rows)
        reps: list[np.ndarray] = []  # but the identity
        self._open(row, self._coset_keys(row[None, :])[0], reps)
        for rep in reps:  # grows while it is walked
            known = len(self._inverses)
            cands = gens[:, rep]
            keys = self._coset_keys(cands)
            for j in np.flatnonzero(~self._in_cosets(cands, keys)).tolist():
                # a coset opened since this representative's turn began
                if len(self._inverses) > known and self._in_cosets(cands[j : j + 1], keys[j : j + 1], known)[0]:
                    continue
                self._open(cands[j], keys[j], reps)
        self.table = np.concatenate([prev] + [c[prev] for c in reps])
        return True

    def _open(self, c: np.ndarray, key: bytes, reps: list[np.ndarray]) -> None:
        """Append ``c`` to the representatives (``table`` is still H)."""
        if (len(self._inverses) + 1) * len(self.table) > self.cap:
            raise GroupGenerationError(f"closure exceeded cap of {self.cap} elements")
        self._cosets.setdefault(key, []).append(len(self._inverses))
        self._inverses.append(np.argsort(c).astype(np.uint8))
        reps.append(c)

    def add_permutation(self, p: Permutation) -> bool:
        """add() for a Permutation."""
        return self.add(_row(p))

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return tuple(_from_row(r.tolist()) for r in self.rows)

    def group(self, generators: Sequence[Permutation] | None = None) -> FiniteGroup:
        """The closure as a group, generated by ``generators`` or by default by
        the rows that grew it."""
        gens = self.generators if generators is None else tuple(generators)
        return FiniteGroup(generators=gens, table=self.table)


def generate(gens: Sequence[Permutation], cap: int = 200_000) -> FiniteGroup:
    """Dimino closure (see Closure) of the subgroup the generators generate.

    Raises GroupGenerationError exactly when the order exceeds ``cap``.
    """
    if not gens:
        raise ValueError("generate requires at least one generator")
    closure = Closure(cap)
    for g in gens:
        closure.add_permutation(g)
    return closure.group(gens)


def orbits(group: FiniteGroup | Sequence[Permutation]) -> list[list[int]]:
    """Orbits on the 27 points of a group, or of the group a generator list
    generates; each orbit sorted, orbit list sorted by smallest element."""
    gens = group.generators if isinstance(group, FiniteGroup) else group
    smallest = orbit_labels(np.array([_row(g) for g in gens], dtype=np.uint8).reshape(-1, N_POINTS))
    # bincount, not np.unique: np.unique imports numpy.ma on first use
    leaders = np.flatnonzero(np.bincount(smallest))
    return [(np.flatnonzero(smallest == m) + 1).tolist() for m in leaders]


def orbit_labels(gens: np.ndarray) -> np.ndarray:
    """Each point's smallest orbit mate (0-based) under the group generated
    by a stack of generator rows, (..., k, 27) -> (..., 27), for every
    leading index at once: the reachability matrix of the generators,
    squared until it covers paths of every length."""
    reach = np.broadcast_to(np.eye(N_POINTS), gens.shape[:-2] + (N_POINTS, N_POINTS)).copy()
    for k in range(gens.shape[-2]):
        np.put_along_axis(reach, gens[..., k, :, None].astype(np.intp), 1.0, axis=-1)
    for _ in range(5):  # paths of every length up to 2**5 > 27
        reach = np.minimum(reach @ reach, 1)
    return reach.argmax(axis=-1)


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


def _survivors(
    idx: np.ndarray, rows: np.ndarray, gens: Sequence[Permutation], test
) -> tuple[np.ndarray, np.ndarray]:
    """The indices ``idx`` (ascending) and rows ``rows`` of the table that
    pass ``test(rows, g)`` for every generator row ``g``; each generator is
    tested only on the rows that passed the ones before."""
    for g in map(_row, gens):
        keep = test(rows, g)
        idx, rows = idx[keep], rows[keep]
    return idx, rows


def _orbit_survivors(
    ambient: FiniteGroup, sub: FiniteGroup, target: FiniteGroup
) -> tuple[np.ndarray, np.ndarray]:
    """Indices (ascending) and rows of the ambient rows ``p`` that map each
    orbit of ``sub`` into a single orbit of ``target``, which every ``p``
    with ``p sub p^-1`` inside ``target`` does: ``p`` carries the orbit of
    ``x`` under ``sub`` onto the orbit of ``p(x)`` under ``p sub p^-1``.
    Each point is labelled by its target orbit: its smallest orbit mate, the
    column minimum of the target's table.  For each point ``x`` whose
    smallest mate ``m`` under ``sub`` is another point, the rows where
    ``p(x)`` and ``p(m)`` have one label are kept, tested only on the rows
    kept for the points before."""
    label = target.table.min(axis=0)
    mate = sub.table.min(axis=0)
    table = ambient.table
    idx = np.arange(len(table))
    for x in np.flatnonzero(mate != _IDENTITY_ROW).tolist():
        idx = idx[label.take(table[idx, x]) == label.take(table[idx, mate[x]])]
    return idx, table[idx]


def _conjugating_rows(
    ambient: FiniteGroup, sub: FiniteGroup, target: FiniteGroup
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and rows of the ambient rows ``p`` with ``p g p^-1`` in ``target`` for
    every generator ``g`` of ``sub``, so that ``p`` conjugates ``sub`` into
    ``target``.  Only the rows that pass the orbit test (``_orbit_survivors``)
    are tested, in table order.  The conjugate is one flat scatter:
    ``(p g p^-1)[p] = p[g]``."""

    def conjugates_inside(rows: np.ndarray, g: np.ndarray) -> np.ndarray:
        conj = np.empty_like(rows)
        offset = N_POINTS * np.arange(len(rows))[:, None]
        conj.reshape(-1)[rows + offset] = rows[:, g]
        return _member_mask(conj, target)

    return _survivors(*_orbit_survivors(ambient, sub, target), sub.generators, conjugates_inside)


def centralizer(group: FiniteGroup, sub: FiniteGroup) -> FiniteGroup:
    """Elements of ``group`` commuting with every element of ``sub``; commuting
    with the generators suffices, since they generate ``sub``.  When every
    element commutes (for example, when ``sub`` is trivial) this is ``group``
    itself, not a rebuilt copy."""
    _require_subgroup(group, sub, "centralizer")

    def commutes(rows: np.ndarray, g: np.ndarray) -> np.ndarray:
        # p commutes with g iff p[g] == g[p]; the column of one point g moves
        # (any point for the identity) rules out most rows before the full test
        x = int(np.argmax(g != np.arange(len(g))))
        keep = rows[:, g[x]] == g[rows[:, x]]
        candidates = rows[keep]
        keep[keep] = np.all(candidates[:, g] == g[candidates], axis=1)
        return keep

    _, rows = _survivors(np.arange(group.order), group.table, sub.generators, commutes)
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
    """Whether some ambient element conjugates ``sub`` into ``target``, by a
    scan of the ambient rows that pass the orbit test; returns the
    lexicographically smallest witness when true (the rows stay in table
    order)."""
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
    """True iff ``group`` is the internal direct product of ``a`` and ``b``.

    Each factor is normal when it holds every conjugate g h g^-1 of its
    generators h by the group's generators g: all of them are one stacked
    scatter, ``(g h g^-1)[g] = g[h]``, and one lookup in the factor."""
    if not (a <= group and b <= group) or a.order * b.order != group.order:
        return False
    if _member_mask(a.table, b).sum() != 1:  # only the identity
        return False
    g = _rows(group.generators)
    for sub in (a, b):
        h = _rows(sub.generators)
        conj = np.empty((len(g), len(h), N_POINTS), dtype=np.uint8)
        conj[np.arange(len(g))[:, None, None], np.arange(len(h))[:, None], g[:, None]] = g[:, h]
        if not _member_mask(conj.reshape(-1, N_POINTS), sub).all():
            return False
    return True


def small_generating_set(group: FiniteGroup) -> tuple[Permutation, ...]:
    """Greedy small generating set for the element table of a group (its
    generators are not read): walk the elements in sorted order and keep each
    one the group generated so far misses.  That group grows as in Closure,
    by left cosets ``c H`` of the group before, but inside the table: a mask
    over the sorted rows marks its elements, the products of one
    representative with every generator are looked up in the table's index at
    once, and so is each new coset.  Rejects a table that is not closed under
    composition."""
    rows = group.table

    def locate(found: np.ndarray) -> np.ndarray:
        pos, hit = group._index.find(found)
        if not hit.all():
            raise ValueError("element set is not closed under composition")
        return pos

    inside = np.zeros(len(rows), dtype=bool)
    inside[0] = True  # the identity
    gens: list[np.ndarray] = []
    while not inside.all():
        gens.append(rows[int(np.argmin(inside))])  # the first row not yet inside
        sub, stack = rows[inside], np.array(gens)
        inside[locate(gens[-1][sub])] = True
        reps = [gens[-1]]
        for rep in reps:  # grows while it is walked
            cands = stack[:, rep]
            for c, p in zip(cands, locate(cands).tolist()):
                if not inside[p]:
                    inside[locate(c[sub])] = True
                    reps.append(c)
    return tuple(_from_row(g.tolist()) for g in gens)
