"""Finite planar conditions: point sets whose order patterns are read off.

A finite condition is a set of points (x, y) over the naturals with

* all y-coordinates pairwise distinct (sections are disjoint),
* x < y for every point (everything sits above the diagonal),
* no value is both an x-coordinate and a y-coordinate.

Every n-element subset of a condition realizes exactly one n-pattern:
sort by y, read the interleaving of the x's and y's.  This module checks
the clauses, reads off realized patterns, hunts realizers, grows a
condition until every pattern of a given size occurs, classifies all
subsets by their pattern, and counts them per pattern by value-separated
blocks.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cached_property, lru_cache
from itertools import chain, product, repeat, starmap
from math import comb
from operator import add, lshift, mul, or_

from ._values import value
from .errors import NoRealizedTypeError, _natural, _naturals, check_subsets, check_work
from .typecalc import NType, Symbol, _check_n, _symbol, count_ntypes, enumerate_ntypes

CLAUSE_SECTIONS = "sections-disjoint"
CLAUSE_DIAGONAL = "above-diagonal"
CLAUSE_XY = "xy-disjoint"


@value(order=True)
class Point:
    x: int
    y: int

    def __post_init__(self):
        _natural(self.x, "x")
        _natural(self.y, "y")

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


@value
class ClauseViolation:
    clause: str
    witness: tuple[Point, ...]

    def describe(self) -> str:
        pts = ", ".join(map(str, self.witness))
        return f"{self.clause}: {pts}"


@value
class ConditionReport:
    ok: bool
    violations: tuple[ClauseViolation, ...]


def check_condition(points) -> ConditionReport:
    """Report every clause violation in a raw point set.  It raises only
    for an item that is neither a Point nor a pair of naturals.

    Witnesses are the first points in (x, y) order: the first point on a
    shared y against each later one, and for a value used as both an x
    and a y, the first point with that x and the first with that y.
    """
    pts = sorted({_as_point(p) for p in points})
    violations = []
    by_x: dict[int, Point] = {}
    by_y: dict[int, Point] = {}
    for p in pts:
        by_x.setdefault(p.x, p)
        if p.y in by_y:
            violations.append(
                ClauseViolation(CLAUSE_SECTIONS, (by_y[p.y], p))
            )
        else:
            by_y[p.y] = p
    for p in pts:
        if p.x >= p.y:
            violations.append(ClauseViolation(CLAUSE_DIAGONAL, (p,)))
    for v in sorted(by_x.keys() & by_y.keys()):
        violations.append(ClauseViolation(CLAUSE_XY, (by_x[v], by_y[v])))
    return ConditionReport(not violations, tuple(violations))


def _as_point(p) -> Point:
    if isinstance(p, Point):
        return p
    x, y = p
    return Point(x, y)


@value
class FiniteCondition:
    """A validated finite condition.  Construction rejects bad point sets."""

    points: frozenset[Point]

    def __post_init__(self):
        points = frozenset(_as_point(p) for p in self.points)
        object.__setattr__(self, "points", points)
        report = check_condition(points)
        if not report.ok:
            msgs = "; ".join(v.describe() for v in report.violations)
            raise ValueError(f"invalid condition: {msgs}")

    @cached_property
    def sorted_points(self) -> tuple[Point, ...]:
        return tuple(sorted(self.points, key=lambda p: p.y))

    def columns(self) -> dict[int, list[int]]:
        """Map each x-coordinate to its ascending list of y's."""
        out: dict[int, list[int]] = {}
        for p in self.sorted_points:
            out.setdefault(p.x, []).append(p.y)
        return out

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.sorted_points)

    def __contains__(self, p) -> bool:
        return _as_point(p) in self.points

    def issubset(self, other: "FiniteCondition") -> bool:
        return self.points <= other.points

    def union(self, points) -> "FiniteCondition":
        return FiniteCondition(self.points | {_as_point(p) for p in points})


def realized_type(subset) -> NType:
    """The unique pattern realized by a point set, read off by y-order.

    Raises NoRealizedTypeError naming the first failed clause when the
    points do not form a valid condition.
    """
    report = check_condition(subset)
    if not report.ok:
        first = report.violations[0]
        raise NoRealizedTypeError(
            first.clause, "no type realized: " + first.describe()
        )
    pts = sorted({_as_point(p) for p in subset}, key=lambda p: p.y)
    if not pts:
        raise NoRealizedTypeError("empty", "no type realized: empty point set")
    return _pattern_of(pts)


def _pattern_of(pts) -> NType:
    """The pattern of nonempty y-sorted points from a valid condition.

    Built without re-validation: the clauses already make the class
    sequence a valid pattern (distinct, increasing y's that no x meets,
    every x below its own y).
    """
    values: dict[int, list[Symbol]] = {}
    for i, p in enumerate(pts, start=1):
        values.setdefault(p.x, []).append(_symbol("x", i))
        values.setdefault(p.y, []).append(_symbol("y", i))
    classes = tuple(frozenset(values[v]) for v in sorted(values))
    return NType._trusted(len(pts), classes)


def subset_realizes(subset, t: NType) -> bool:
    """Does a point set realize the given pattern?

    The points must be distinct, exactly t.n of them, and form a valid
    condition; the pair-code scan then decides.  Its symbol-by-symbol
    reference is ``tests/oracles.py::subset_realizes_compare``.
    """
    pts = sorted({_as_point(p) for p in subset}, key=lambda p: p.y)
    if len(pts) != t.n:
        return False
    if not check_condition(pts).ok:
        return False
    return next(_realizers(pts, t), None) is not None


# The pair code.  For y-sorted points p_1, ..., p_k of a valid condition,
# every comparison between their symbols but two per pair a < b is fixed
# by the clauses: the y's are distinct and increase, x_a < y_a < y_b, and
# no x equals a y.  The two left are x_a against x_b and x_b against y_a,
# and together they say where x_b sits against x_a < y_a: below x_a (0),
# tied with it (1), between x_a and y_a (2) or above y_a (3).  So the
# pattern is fixed by these base-4 codes, and the key of a k-subset packs
# them: column t (0 <= t < k) holds code(s, t) in bits 2s, 2s + 1 for
# s < t, and sits at bit t * (t - 1).  A prefix of a subset owns the low
# bits of its key, so scans extend keys one point at a time.

def _type_key(t: NType) -> int:
    """The key every realizer of t has."""
    r = t.rank
    x = [r[_symbol("x", i)] for i in range(1, t.n + 1)]
    y = [r[_symbol("y", i)] for i in range(1, t.n + 1)]
    key = 0
    for b in range(1, t.n):
        for a in range(b):
            code = (x[b] >= x[a]) + (x[b] > x[a]) + (x[b] > y[a])
            key |= code << b * (b - 1) + 2 * a
    return key


def _keyed_subsets(pts, n: int, target: int | None = None, labels=None):
    """Yield (subset, key) for the n-subsets of y-sorted pts, in
    lexicographic y-sequence order; with a target key, only the subsets
    having it, skipping every prefix whose key already differs.  A subset
    is the concatenation of its points' entries in ``labels``, a sequence
    of tuples parallel to pts (default ``(p,)`` for each point p)."""
    m = len(pts)
    if not 1 <= n <= m:
        return
    xs = [p.x for p in pts]
    labels = [(p,) for p in pts] if labels is None else labels

    def walk(prefix, key, cols, lo, k):
        # cols[c - lo] is column k of the key for candidate c >= lo
        shift = k * (k - 1)
        want = None if target is None else target >> shift & ((1 << 2 * k) - 1)
        for b in range(lo, m - n + k + 1):
            col = cols[b - lo]
            if want is not None and col != want:
                continue
            if k == n - 1:
                yield prefix + labels[b], key | col << shift
            else:
                p = pts[b]
                xb, yb, up = p.x, p.y, 2 * k
                child = [u | ((x >= xb) + (x > xb) + (x > yb)) << up
                         for u, x in zip(cols[b - lo + 1:], xs[b + 1:])]
                yield from walk(prefix + labels[b], key | col << shift, child, b + 1, k + 1)

    yield from walk((), 0, [0] * m, 0, 0)


def _realizers(pts, t: NType, labels=None):
    """The t-realizers among y-sorted points pts of a valid condition, in
    lexicographic y-sequence order: the subsets whose key is t's, made of
    ``labels`` as in ``_keyed_subsets``."""
    return (subset for subset, _ in _keyed_subsets(pts, t.n, _type_key(t), labels))


def find_realizer(cond: FiniteCondition, t: NType):
    """Least subset of cond realizing t, by lexicographic y-sequence.

    Returns a tuple of points sorted by y, or None when no subset
    realizes t (in particular when t.n exceeds the condition size).
    """
    return next(_realizers(cond.sorted_points, t), None)


def classify_subsets(cond: FiniteCondition, n: int) -> dict[NType, list[tuple[Point, ...]]]:
    """Index every n-subset of cond under the pattern it realizes.

    Only patterns that occur appear as keys, in order of first
    occurrence; subsets are listed in lexicographic y-sequence order.
    More subsets than the "subsets" work bound raise LimitError before any
    work.
    """
    _check_n(n)
    check_subsets(len(cond), n, "classification")
    groups: dict[int, list[tuple[Point, ...]]] = {}
    for subset, key in _keyed_subsets(cond.sorted_points, n):
        group = groups.get(key)
        if group is None:
            groups[key] = group = []
        group.append(subset)
    return {_pattern_of(group[0]): group for group in groups.values()}


def _fresh_realizer(t: NType, base: int) -> list[Point]:
    """Points realizing t using fresh values base, base+1, ..."""
    r = t.rank
    return [Point(base + r[_symbol("x", i)], base + r[_symbol("y", i)])
            for i in range(1, t.n + 1)]


@lru_cache(maxsize=None)
def _lift(key: int, j: int, i: int) -> int:
    """The key bits of a j-subset with key ``key`` placed above i points
    whose values all lie below its own: each new column gets code 3
    against the i points, then the subset's own column."""
    out = 0
    for t in range(j):
        col = key >> t * (t - 1) & ((1 << 2 * t) - 1)
        out |= ((1 << 2 * i) - 1 | col << 2 * i) << (i + t) * (i + t - 1)
    return out


def extend_with_realizers(cond: FiniteCondition, n: int) -> FiniteCondition:
    """Grow cond until every n-pattern has a realizer.

    Patterns are visited in enumeration order; a pattern already realized
    (possibly by points added for an earlier one) is skipped, otherwise a
    fresh batch of points is appended with all values strictly above
    everything used so far.  The input is never mutated.

    The realized keys of each size k <= n are read as the block count
    reads them: each value-separated block of the base tallies the keys of
    its subsets of every size up to n, and the blocks are joined one by
    one with _lift.  A fresh batch lies above everything before it, so it
    is joined the same way, as more blocks.  Growth whose work exceeds the
    "steps" work bound raises LimitError before any work: _plan_work
    counts the base's in-block subsets and joins, plus at most one batch
    per pattern, each joining at most C(n, j) of its j-subsets to at most
    T(k - j) realized (k - j)-patterns below it.
    """
    _check_n(n)
    base = cond.sorted_points
    # later batches sit above every block of the base, so no size is cut
    plan = _block_plan(base, n, above=n)
    work = sum(_plan_work(plan, n, batches=count_ntypes(n)))
    check_work("steps", work, "growth",
               f"growing {len(base)} points for n={n} may take {work} steps")
    realized = [{0}] + [set() for _ in range(n)]

    def join(plan):
        for block, sizes, joins in plan:
            own = _block_key_counts(block, sizes)
            for k, j in joins:
                lifted = [_lift(key, j, k - j) for key in own[j]]
                realized[k].update(starmap(or_, product(realized[k - j], lifted)))

    join(plan)
    top = max((p.y for p in base), default=-1)
    added: list[Point] = []
    for t in enumerate_ntypes(n):
        if _type_key(t) in realized[n]:
            continue
        batch = _fresh_realizer(t, top + 1)
        top += len(t.classes)
        join(_block_plan(batch, n, below=len(base) + len(added), above=n))
        added.extend(batch)
    return cond.union(added) if added else cond


# Counting by value-separated blocks.  Cut the y-sorted points of a
# condition wherever every value before the cut lies below every value
# after it.  A subset that meets several of these blocks has, on each
# cross pair, code 3 (the higher x lies above the lower y), so its key is
# its parts' keys joined by _lift, and the per-key counts of the n-subsets
# follow from each block's own per-size key counts.

def _value_blocks(pts) -> list[tuple[Point, ...]]:
    """The maximal value-separated blocks of y-sorted points of a valid
    condition, in order.  A cut after point i needs y_i below the smallest
    x of all later points: a later point's x can reach back below an
    earlier y, so comparing each x with the y's before it is not enough."""
    blocks, end, low = [], len(pts), None
    for i in range(len(pts) - 1, -1, -1):
        if low is not None and pts[i].y < low:
            blocks.append(pts[i + 1:end])
            end = i + 1
        low = pts[i].x if low is None else min(low, pts[i].x)
    if end:
        blocks.append(pts[:end])
    blocks.reverse()
    return blocks


def _block_key_counts(pts, sizes: range) -> dict[int, Counter]:
    """For each k in sizes, the count of each key among the k-subsets of
    y-sorted pts.  The walk extends prefix keys as _keyed_subsets does but
    builds no subsets: it tallies the last column of every candidate at
    once, and extends a prefix only while the smallest size left can still
    be reached."""
    counts = {k: Counter() for k in sizes}
    if not sizes:
        return counts
    top = sizes[-1]
    xs = [p.x for p in pts]

    def codes(b, shift=0):
        p = pts[b]
        return [(x >= p.x) + (x > p.x) + (x > p.y) << shift for x in xs[b + 1:]]

    # rows[k](b)[d - b - 1] is the pair code of pts[b] below pts[d], placed
    # where it sits in the key when pts[b] is point k of the subset.  The
    # walk enters point 0 once, so row 0 is made when it is read; the rows
    # of later points are read once per prefix, so they are kept.
    rows = [codes] + [[codes(b, k * (k + 3)) for b in range(len(pts))].__getitem__
                      for k in range(1, top - 1)]

    def walk(k, key, cols, lo):
        # cols[i] is column k of the key for candidate lo + i, at its bits
        if k + 1 in counts:
            counts[k + 1].update(map(or_, repeat(key), cols))
        if k + 2 > top:
            return
        moved = list(map(lshift, cols, repeat(2 * k)))
        row = rows[k]
        if k + 2 == top:
            # the children would only tally their columns: do it here
            counts[top].update(chain.from_iterable(
                map(or_, repeat(key | cols[i]), map(or_, moved[i + 1:], row(lo + i)))
                for i in range(len(cols) - 1)))
            return
        need = max(sizes.start, k + 2) - k - 1
        for i in range(len(cols) - need):
            walk(k + 1, key | cols[i], list(map(or_, moved[i + 1:], row(lo + i))), lo + i + 1)

    try:
        walk(0, 0, [0] * len(pts), 0)
    finally:
        # walk holds itself through its cell, and with it counts and rows:
        # break that cycle so reference counting frees them
        del walk
    return counts


def _block_plan(pts, n: int, below: int = 0, above: int = 0):
    """(block, sizes, joins) per value-separated block of y-sorted pts,
    which lie above ``below`` points and below ``above`` more.  Sizes are
    those of the block's subsets to count: only sizes that can still reach
    n with the points outside the block, so a single block counts only its
    n-subsets.  Joins are the (k, j) that join its j-subsets onto the
    (k - j)-subsets below it, by descending k, for the k that can still
    reach n with the points above it."""
    plan, after = [], len(pts) + above
    for block in _value_blocks(pts):
        after -= len(block)
        sizes = range(max(1, n - below - after), min(n, len(block)) + 1)
        joins = [(k, j) for k in range(min(n, below + len(block)), max(0, n - after - 1), -1)
                 for j in sizes if j <= k and k - j <= below]
        plan.append((block, sizes, joins))
        below += len(block)
    return plan


def _plan_work(plan, n: int, batches: int = 0) -> tuple[int, int]:
    """(in-block subsets, join steps) of a block plan, both upper bounds
    counted without any work: the subsets the block walks visit, and the
    joins of distinct keys below times distinct keys of a block, each at
    most T(k).  A block's own k-subsets joined onto the empty subset below
    (j = k) are counted once, as in-block subsets.  Each of ``batches``
    fresh batches of n points joined above the plan adds C(n, j) of its
    j-subsets onto at most T(k - j) keys below, for every j <= k <= n."""
    types = [1] + [count_ntypes(k) for k in range(1, n + 1)]
    distinct, scanned, steps = [1] + [0] * n, 0, batches * sum(
        comb(n, j) * types[k - j] for k in range(1, n + 1) for j in range(1, k + 1))
    for block, sizes, joins in plan:
        scanned += sum(comb(len(block), j) for j in sizes)
        for k, j in joins:
            joined = distinct[k - j] * min(types[j], comb(len(block), j))
            steps += joined if j < k else 0
            distinct[k] = min(types[k], distinct[k] + joined)
    return scanned, steps


def _pattern_counts(cond: FiniteCondition, n: int) -> dict[NType, int]:
    """How many n-subsets of cond realize each pattern that occurs, in no
    particular order, counted by value-separated blocks.

    Before any work, _plan_work counts the in-block subsets the block
    walks visit against the "subsets" work bound, and an upper bound on
    the cross-block joins (distinct keys below times distinct keys of the
    block, at most T(k) each) against the "steps" bound; more raises
    LimitError.
    """
    _check_n(n)
    pts = cond.sorted_points
    plan = _block_plan(pts, n)
    scanned, steps = _plan_work(plan, n)
    check_work("subsets", scanned, "classification",
               f"{len(pts)} points have {scanned} in-block subsets to scan "
               f"({len(plan)} value-separated blocks)")
    check_work("steps", steps, "classification",
               f"joining {len(plan)} value-separated blocks for n={n} "
               f"may take {steps} steps")
    acc: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(n)]
    for block, sizes, joins in plan:
        own = _block_key_counts(block, sizes)
        for k, j in joins:
            into, lows, highs = acc[k], acc[k - j], own[j]
            # distinct (low, high) pairs give distinct joined keys, so the
            # counts are added to `into` at C speed
            lifted = [_lift(key, j, k - j) for key in highs]
            joined = list(starmap(or_, product(lows, lifted)))
            into.update(zip(joined, map(add, map(into.get, joined, repeat(0)),
                                        starmap(mul, product(lows.values(), highs.values())))))
    return {_key_type(key, n): count for key, count in acc[n].items()}


def _key_type(key: int, n: int) -> NType:
    """The n-pattern whose realizers have this key: the inverse of
    _type_key.  Code 3 against the first g points puts x_b in gap g, just
    below y_(g+1); inside a gap the x's are ranked by how many x's of the
    gap lie strictly below them, which codes 0 and 2 tell."""
    gap, below = [0] * n, [0] * n
    for b in range(1, n):
        codes = [key >> b * (b - 1) + 2 * a & 3 for a in range(b)]
        gap[b] = codes.count(3)
        for a, code in enumerate(codes):
            if gap[a] == gap[b]:
                if code == 0:
                    below[a] += 1
                elif code == 2:
                    below[b] += 1
    levels: dict[tuple, list[Symbol]] = {}
    for i in range(n):
        levels.setdefault((gap[i], 0, below[i]), []).append(_symbol("x", i + 1))
        levels[i, 1, 0] = [_symbol("y", i + 1)]
    return NType._trusted(n, tuple(frozenset(levels[v]) for v in sorted(levels)))


def random_condition(rng: random.Random, n_points: int, spread: int = 4) -> FiniteCondition:
    """A pseudo-random valid condition with n_points points.

    Columns are reused with probability ~1/2 so tied patterns occur.
    Deterministic for a fixed rng state.
    """
    points: list[Point] = []
    xs: list[int] = []
    top = 0
    for _ in range(n_points):
        if xs and rng.random() < 0.5:
            x = rng.choice(xs)
        else:
            x = top + rng.randrange(1, spread)
            xs.append(x)
        y = max(x, top) + rng.randrange(1, spread)
        top = max(top, x, y)
        points.append(Point(x, y))
    return FiniteCondition(frozenset(points))


def condition_to_json(cond: FiniteCondition) -> list[list[int]]:
    return [[p.x, p.y] for p in cond.sorted_points]


def points_from_json(doc, where: str = "") -> list[Point]:
    """Read a list of [x, y] pairs found at JSON path ``where``; malformed
    input raises ValueError naming its path, e.g. ``[1][0]``."""
    if not isinstance(doc, list):
        raise ValueError(f"{where or 'condition document'} must be a list of [x, y] pairs")
    return [Point(*_naturals(item, f"{where}[{i}]", 2)) for i, item in enumerate(doc)]


def condition_from_json(doc) -> FiniteCondition:
    return FiniteCondition(frozenset(points_from_json(doc)))
