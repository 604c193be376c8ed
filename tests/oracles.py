"""Independent brute-force reference implementations used by the tests.

Nothing here imports the enumeration, counting, or tail machinery it
checks: patterns are rebuilt from raw rank vectors filtered by the
defining clauses, planar membership is evaluated point by point, and
graph witnesses are found by scanning every vertex against adjacency
sets.  The condition scans read each subset's pattern from its sorted
coordinate levels and build it through the validating ``NType``
constructor; only the growth references take their visiting order from
``enumerate_ntypes``, whose output the enumeration tests check on their
own.  Slow on purpose; keep n, condition sizes and expression depth
small.

One growth reference, ``extend_key_sums``, is the key-sum growth the
library used before it read bases by value-separated blocks.  It reads
subset keys through ``pointsets._keyed_subsets``, which the tests hold
to ``realized_type``, and is itself held to ``extend_scan`` where that
scan can reach; it exists because ``extend_scan`` cannot reach n >= 4.

One block count reference, ``block_key_counts_walk``, is the list walk
``pointsets._block_key_counts`` used before its lanes: it keeps a list of
each later candidate's key column per prefix and tallies one ``Counter``
entry per subset.  Its tests hold it to ``classify_scan`` where that scan
can reach.

One verdict reference, ``verdict_set_scan``, is the route ``verdict_set``
took before it read tail verdicts off the tail form: it builds every
section up to past each principal point through ``_column`` and takes
only the verdict beyond them all from ``tail_analysis``, both of which
their own tests hold to ``point_in``.

One enumeration reference, ``enumerate_ntypes_scan``, is the pattern
scan the library used before its per-gap choice lists; it takes its weak
orders from the filtered rank vectors, not from the library.

The value classes are checked against the stdlib: ``dataclass_twin``
builds the ``dataclasses`` class a value class stands for.

The coloring reader references share the path-naming point reader
``points_from_json`` with the library, which its tests check on their
own, but neither its point cache nor its totality count.
"""

import csv
import dataclasses
import json
from collections import Counter
from itertools import chain, combinations, islice, permutations, product, repeat
from math import isfinite
from operator import lshift, or_

from ramseybench.errors import _natural
from ramseybench.homogeneity import Coloring
from ramseybench.omegatypes import ASSUMED_CLAUSES, XClass
from ramseybench.setalgebra import (
    AboveDiag,
    Column,
    Complement,
    FinCofin,
    FinitePoints,
    Frechet,
    Intersection,
    Principal,
    Rect,
    Union,
    _column,
    tail_analysis,
)
from ramseybench.pointsets import (
    CLAUSE_DIAGONAL,
    CLAUSE_SECTIONS,
    CLAUSE_XY,
    ClauseViolation,
    ConditionReport,
    FiniteCondition,
    Point,
    _as_point,
    _fresh_realizer,
    _keyed_subsets,
    _lift,
    _type_key,
    check_condition,
    points_from_json,
)
from ramseybench.typecalc import NType, Symbol, count_ntypes, enumerate_ntypes, list_form


def brute_force_ntypes(n: int) -> set[NType]:
    """Every n-pattern, by filtering rank vectors on the 2n symbols.

    A rank vector assigns each symbol a level; normalization (levels form
    an initial segment) makes vectors correspond one-to-one with weak
    orders.  Vectors are drawn with y-levels strictly increasing and each
    x below its y, which are two of the defining clauses; the rest are
    then checked literally: levels normalized and no y sharing a level
    with anything else.
    """
    xs = [Symbol("x", i) for i in range(1, n + 1)]
    ys = [Symbol("y", i) for i in range(1, n + 1)]
    found = set()
    for y_levels in combinations(range(2 * n), n):
        for x_levels in product(*(range(level) for level in y_levels)):
            rank = dict(zip(xs + ys, x_levels + y_levels))
            levels = sorted(set(rank.values()))
            if levels != list(range(len(levels))):
                continue
            if any(s != y and rank[s] == rank[y] for y in ys for s in rank):
                continue
            classes = tuple(
                frozenset(s for s in rank if rank[s] == level) for level in levels
            )
            found.add(NType(n, classes))
    return found


def point_in(expr, x: int, y: int) -> bool:
    """Direct membership of (x, y) in a planar expression, no sections."""
    if isinstance(expr, FinitePoints):
        return any(px == x and py == y for (px, py) in expr.points)
    if isinstance(expr, Rect):
        return expr.xs.contains(x) and expr.ys.contains(y)
    if isinstance(expr, AboveDiag):
        return y > x
    if isinstance(expr, Column):
        return x == expr.x and expr.content.contains(y)
    if isinstance(expr, Union):
        return any(point_in(a, x, y) for a in expr.args)
    if isinstance(expr, Intersection):
        return all(point_in(a, x, y) for a in expr.args)
    if isinstance(expr, Complement):
        return not point_in(expr.arg, x, y)
    raise TypeError(f"unknown expression node: {expr!r}")


def verdict_set_scan(expr, seq) -> FinCofin:
    """The verdict set as it was computed before tail verdicts were read
    off the tail form: every section below a cutoff that covers the
    horizon, each exception index and each principal point is built by
    ``_column`` and judged, with no work bound; past the cutoff the verdict
    is constant.  ``_column`` and ``tail_analysis`` are held to
    ``point_in`` by their own tests."""
    form = tail_analysis(expr)
    cutoff = form.horizon
    for i, _ in seq.exceptions:
        cutoff = max(cutoff, i + 1)
    for s in [seq.default] + [s for _, s in seq.exceptions]:
        if isinstance(s, Principal):
            cutoff = max(cutoff, s.point + 1)
    if isinstance(seq.default, Frechet):
        tail_true = form.upper.cofinite
    else:
        tail_true = form.lower.contains(seq.default.point)
    flips = frozenset(
        n for n in range(cutoff)
        if seq.at(n).holds(_column(expr, n)) != tail_true
    )
    return FinCofin(cofinite=tail_true, support=flips)


def population_problems_scan(n: int, classes) -> list[str]:
    """The symbol-population reports of ``typecalc._class_problems`` as
    they read when every expected symbol was built, every missing one
    named and repeats were counted symbol by symbol."""
    seen = [s for cls in classes for s in cls]
    expected = {Symbol(k, i) for k in "xy" for i in range(1, n + 1)}
    malformed = []
    if len(seen) != len(set(seen)):
        dupes = sorted({s for s in seen if seen.count(s) > 1})
        malformed.append("symbols repeated: " + ", ".join(map(str, dupes)))
    stray = set(seen) - expected
    if stray:
        malformed.append("dangling indices: " + ", ".join(map(str, sorted(stray))))
    missing = expected - set(seen)
    if missing and not malformed:
        malformed.append("symbols missing: " + ", ".join(map(str, sorted(missing))))
    return malformed


def rank_vectors_filter(k: int) -> list[tuple[int, ...]]:
    """Rank vectors of the weak orders on k positions, lexicographically:
    every vector of ``product(range(k), repeat=k)`` whose values form an
    initial segment {0..m-1}."""
    out = []
    for vec in product(range(max(k, 1)), repeat=k):
        levels = sorted(set(vec))
        if levels == list(range(len(levels))):
            out.append(vec)
    return out


def enumerate_ntypes_scan(n: int) -> list[NType]:
    """Every n-pattern in ``enumerate_ntypes``' documented order, by the
    scan the library used before its per-gap choice lists: for each gap
    assignment, each gap's weak orders are rebuilt as frozensets from the
    filtered rank vectors, the y closing the gap appended (none after the
    last gap), and the gaps combined with one product.  Patterns are
    built unvalidated, as the library builds them; the validation tests
    hold the library's patterns to the clauses."""
    vectors = {}
    out = []
    for assign in product(*(range(i) for i in range(1, n + 1))):
        gaps = [[] for _ in range(n + 1)]
        for i, g in enumerate(assign, 1):
            gaps[g].append(Symbol("x", i))
        per_gap = []
        for g, members in enumerate(gaps):
            k = len(members)
            if k not in vectors:
                vectors[k] = rank_vectors_filter(k)
            closing = (frozenset({Symbol("y", g + 1)}),) if g < n else ()
            per_gap.append([
                tuple(frozenset(members[i] for i in range(k) if vec[i] == r)
                      for r in range(len(set(vec)))) + closing
                for vec in vectors[k]])
        for choice in product(*per_gap):
            out.append(NType._trusted(n, tuple(chain.from_iterable(choice))))
    return out


def weak_order_count(k: int) -> int:
    """Number of weak orders on k labeled items, counted by brute force."""
    return len(rank_vectors_filter(k))


def full_schedule(palette: int, max_vertex=None, max_params=None):
    """(params, colours) in the documented order, by enumerating every
    parameter count per top vertex and filtering on ``max(params) ==
    top``.  When given, tops stop before ``max_vertex`` and counts at
    ``max_params``."""
    yield (), ()
    top = 0
    while max_vertex is None or top < max_vertex:
        most = top + 1 if max_params is None else min(top + 1, max_params)
        for count in range(1, most + 1):
            for params in permutations(range(top + 1), count):
                if max(params) != top:
                    continue
                for value in range(palette ** count):
                    yield params, tuple(
                        (value // palette ** i) % palette for i in range(count)
                    )
        top += 1


def walk_states(palette: int, max_vertex=None, max_params=None):
    """The witness walk as the definition reads, slow on purpose.

    Runs ``full_schedule``, capped at ``max_vertex`` and ``max_params``
    for coverings.  Each entry scans every vertex for a witness; without
    one, a fresh vertex gets the demanded colours.  After each entry it
    yields the vertex count and the colour of every pair recorded so far,
    colour 0 included, as ``{(u, v): colour}``: one dict, updated in place.
    """
    table = {}
    count = 1
    for params, colors in full_schedule(palette, max_vertex, max_params):
        if params:
            count = max(count, max(params) + 1)
        if not any(
            b not in params
            and all(table.get((min(a, b), max(a, b)), 0) == c
                    for a, c in zip(params, colors))
            for b in range(count)
        ):
            for a, c in zip(params, colors):
                table[(a, count)] = c
            count += 1
        yield count, table


def schedule_walk(palette: int, steps=None, max_vertex=None, max_params=None):
    """The vertex count and the pairs of colour >= 1 after the first
    ``steps`` entries of ``walk_states``, or after all of a covering's."""
    count, table = 1, {}
    for count, table in islice(walk_states(palette, max_vertex, max_params), steps):
        pass
    return count, {pair: c for pair, c in table.items() if c}


def least_witness(adj, params, targets):
    """Least vertex outside params adjacent exactly to the target positions."""
    for b in range(len(adj)):
        if b not in params and all(
            (a in adj[b]) == (i in targets) for i, a in enumerate(params)
        ):
            return b
    return None


def unsatisfied_configurations(adj, k: int, m: int):
    """(params, targets) with <= k params among the first m vertices that
    lack a witness, by parameter count, params lexicographically, then
    targets as an ascending bitmask.  Each vertex outside params realises
    one target mask; the missing masks are the unwitnessed targets."""
    out = []
    for count in range(k + 1):
        for params in permutations(range(m), count):
            met = {sum(1 << i for i, a in enumerate(params) if a in adj[b])
                   for b in range(len(adj)) if b not in params}
            out.extend((params, frozenset(i for i in range(count) if bits >> i & 1))
                       for bits in range(1 << count) if bits not in met)
    return out


def is_rich(adj, vertices, k: int) -> bool:
    """Some nonempty subset of vertices meets every demand on <= k of its
    own members by a witness inside itself."""
    vertices = sorted(set(vertices))
    for size in range(1, len(vertices) + 1):
        for inner in combinations(vertices, size):
            if all(
                any(b not in params
                    and all((a in adj[b]) == (i in targets)
                            for i, a in enumerate(params))
                    for b in inner)
                for count in range(k + 1)
                for params in permutations(inner, count)
                for targets in (frozenset(i for i in range(count) if bits >> i & 1)
                                for bits in range(1 << count))
            ):
                return True
    return False


# ---------------------------------------------------------------- conditions
# The per-subset signature scan the condition routines used before the
# pair code, kept as their reference.

def level_signature(pts) -> tuple:
    """Grouping of symbol ids (i for x_i, n+i for y_i) by coordinate level,
    for y-sorted points of a valid condition."""
    values = sorted({v for p in pts for v in (p.x, p.y)})
    level = {v: k for k, v in enumerate(values)}
    n = len(pts)
    buckets: list[list[int]] = [[] for _ in values]
    for i, p in enumerate(pts, start=1):
        buckets[level[p.x]].append(i)
        buckets[level[p.y]].append(n + i)
    return tuple(tuple(sorted(b)) for b in buckets)


def type_signature(t: NType) -> tuple:
    return tuple(
        tuple(sorted(s.index if s.kind == "x" else t.n + s.index for s in cls))
        for cls in t.classes
    )


def signature_type(n: int, sig) -> NType:
    """The validated pattern a level signature names."""
    return NType(n, tuple(
        frozenset(Symbol("x", i) if i <= n else Symbol("y", i - n) for i in ids)
        for ids in sig
    ))


def check_condition_scan(points) -> ConditionReport:
    """Every clause violation of a raw point set, each xy-disjointness
    witness found by rescanning all the points for its value."""
    pts = sorted({_as_point(p) for p in points})
    violations = []
    by_y: dict[int, Point] = {}
    for p in pts:
        if p.y in by_y and by_y[p.y] != p:
            violations.append(
                ClauseViolation(CLAUSE_SECTIONS, (by_y[p.y], p))
            )
        else:
            by_y[p.y] = p
    for p in pts:
        if p.x >= p.y:
            violations.append(ClauseViolation(CLAUSE_DIAGONAL, (p,)))
    xs = {p.x for p in pts}
    ys = {p.y for p in pts}
    for v in sorted(xs & ys):
        wx = next(p for p in pts if p.x == v)
        wy = next(p for p in pts if p.y == v)
        violations.append(ClauseViolation(CLAUSE_XY, (wx, wy)))
    return ConditionReport(not violations, tuple(violations))


def subset_realizes_compare(subset, t: NType) -> bool:
    """Clause-level check that a point set realizes the given pattern.

    Interprets each symbol by its point's coordinate and compares every
    symbol pair against the pattern's order.  Kept free of the sorting
    shortcut in realized_type so the two act as cross-checks.
    """
    pts = sorted({_as_point(p) for p in subset}, key=lambda p: p.y)
    if len(pts) != t.n:
        return False
    if not check_condition(pts).ok:
        return False
    value = {}
    for i, p in enumerate(pts, start=1):
        value[Symbol("x", i)] = p.x
        value[Symbol("y", i)] = p.y
    syms = list(value)
    for a in syms:
        for b in syms:
            if (value[a] <= value[b]) != t.leq(a, b):
                return False
    return True


def find_realizer_scan(cond: FiniteCondition, t: NType):
    """Least realizer of t by lexicographic y-sequence, or None."""
    target = type_signature(t)
    for combo in combinations(cond.sorted_points, t.n):
        if level_signature(combo) == target:
            return combo
    return None


def classify_scan(cond: FiniteCondition, n: int) -> dict:
    """Every n-subset indexed under its pattern, patterns in order of first
    occurrence, subsets in lexicographic y-sequence order."""
    index: dict[NType, list] = {}
    for combo in combinations(cond.sorted_points, n):
        t = signature_type(n, level_signature(combo))
        index.setdefault(t, []).append(combo)
    return index


def value_separated_blocks(points) -> list[list[Point]]:
    """Maximal runs of y-sorted points whose values all lie below every
    value of the points after them, each cut tested against all later
    points."""
    points = sorted((_as_point(p) for p in points), key=lambda p: p.y)
    blocks, start = [], 0
    for k in range(1, len(points) + 1):
        if k == len(points) or points[k - 1].y < min(p.x for p in points[k:]):
            blocks.append(points[start:k])
            start = k
    return blocks


def fans(*sizes) -> FiniteCondition:
    """A condition of value-separated blocks of the given sizes, in order:
    each block is a fan, all its x's below all its y's, so it is one
    block."""
    points, base = [], 0
    for size in sizes:
        points += [Point(base + i, base + size + i) for i in range(size)]
        base += 2 * size
    return FiniteCondition(frozenset(points))


def extend_scan(cond: FiniteCondition, n: int) -> FiniteCondition:
    """Find-and-append growth: per pattern in enumeration order, scan for a
    realizer and, without one, append a fresh batch of points whose values
    lie strictly above everything used so far."""
    current = cond
    for t in enumerate_ntypes(n):
        if find_realizer_scan(current, t) is not None:
            continue
        base = max((v for p in current for v in (p.x, p.y)), default=-1) + 1
        level = {s: base + k for k, cls in enumerate(t.classes) for s in cls}
        current = current.union(
            Point(level[Symbol("x", i)], level[Symbol("y", i)])
            for i in range(1, t.n + 1)
        )
    return current


def extend_key_sums(cond: FiniteCondition, n: int) -> FiniteCondition:
    """The growth that summed keys before the base was read by blocks: the
    base is scanned once per size k <= n for the keys of its k-subsets, and
    each fresh batch adds the sums of a key below and a batch subset's key
    lifted above it.  Same visiting order and batches as extend_scan, but
    it reaches n = 5, where scanning for realizers does not; unbounded."""
    realized = [{0}] + [{key for _, key in _keyed_subsets(cond.sorted_points, k)}
                        for k in range(1, n + 1)]
    top = max((p.y for p in cond), default=-1)
    added: list[Point] = []
    for t in enumerate_ntypes(n):
        if _type_key(t) in realized[n]:
            continue
        batch = _fresh_realizer(t, top + 1)
        top += len(t.classes)
        own = [{0}] + [{key for _, key in _keyed_subsets(batch, j)}
                       for j in range(1, n + 1)]
        for k in range(n, 0, -1):
            for j in range(1, k + 1):
                for key in own[j]:
                    lifted = _lift(key, j, k - j)
                    realized[k].update(low | lifted for low in realized[k - j])
        added.extend(batch)
    return cond.union(added) if added else cond


def block_key_counts_walk(pts, sizes: range) -> dict[int, Counter]:
    """For each k in sizes, the count of each key among the k-subsets of
    y-sorted pts, by the list walk: a prefix keeps column k of the key of
    each later candidate in a list, extends it by one map per child, and
    tallies one Counter entry per subset.  It extends a prefix only while
    the smallest size left can still be reached."""
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


def floor_scan(cond: FiniteCondition, n: int):
    """(classes_met, t_n, floor_holds, missing list forms), missing found
    by one realizer scan per pattern."""
    classes_met = len(classify_scan(cond, n))
    missing = tuple(
        list_form(t) for t in enumerate_ntypes(n) if find_realizer_scan(cond, t) is None
    )
    t_n = count_ntypes(n)
    return classes_met, t_n, not missing and classes_met == t_n, missing


# ---------------------------------------------------------------- homogeneity
# The per-subset realizer filter homogeneity used before it read realizers
# off the pair-code keys, with each subset's pattern read from its level
# signature.

def tau_realizer_table(coloring, tau: NType) -> list:
    """(bitmask over the (x, y)-sorted ground, color) per tau-realizer, in
    lexicographic order of the index tuples."""
    ground = tuple(sorted(coloring.ground.points))
    target = type_signature(tau)
    out = []
    for combo in combinations(range(len(ground)), tau.n):
        pts = tuple(sorted((ground[i] for i in combo), key=lambda p: p.y))
        if level_signature(pts) == target:
            out.append((sum(1 << i for i in combo), coloring.color_of(pts)))
    return out


def tau_check_scan(subset, coloring, tau: NType):
    """(homogeneous, color, realizers, vacuous) over the tau-realizers
    among the points of subset; the colour is that of the first coloured
    realizer in lexicographic y-sequence order, since a set keeps the
    first of its equal members (1, 1.0 and True among them)."""
    pts = sorted(set(subset), key=lambda p: p.y)
    target = type_signature(tau)
    realizers = [combo for combo in combinations(pts, tau.n)
                 if level_signature(combo) == target]
    colors = {coloring.color_of(combo) for combo in realizers} - {None}
    color = next(iter(colors)) if len(colors) == 1 else None
    return len(colors) <= 1, color, len(realizers), not colors


def exact_search_scan(coloring, tau: NType, min_size: int = 0):
    """(points, color, size, met_min_size, stats) of exact homogeneous
    search, by the scan exact search made before branch and bound: every
    subset of the (x, y)-sorted ground by descending size, each size in
    lexicographic order of index tuples, until one carries coloured
    realizers of one colour; the colour is that of its first coloured
    realizer in the table's order."""
    ground = tuple(sorted(coloring.ground.points))
    table = tau_realizer_table(coloring, tau)
    checked = 0
    for size in range(len(ground), -1, -1):
        for combo in combinations(range(len(ground)), size):
            checked += 1
            mask = sum(1 << i for i in combo)
            colors = [c for sub, c in table if sub & mask == sub and c is not None]
            if not any(c != colors[0] for c in colors[1:]):
                pts = tuple(sorted((ground[i] for i in combo), key=lambda p: p.y))
                return (pts, colors[0] if colors else None, size, size >= min_size,
                        {"mode": "exact", "subsets_checked": checked})
    raise AssertionError("unreachable: the empty subset is homogeneous")


def greedy_search_scan(coloring, tau: NType):
    """(points, color, removed) of greedy homogeneous search by the loop it
    ran before keeping a live list: each round rescans the whole table for
    the colours inside the kept set, stops when one is left (named by the
    first coloured realizer in table order), and else counts, per index,
    the realizers of another colour than the most common one (ties: the
    first seen) by testing every index; it drops the most conflicted
    index, the least on a tie, then re-adds the dropped ones in ascending
    order wherever the set stays monochromatic."""
    ground = tuple(sorted(coloring.ground.points))
    table = tau_realizer_table(coloring, tau)
    m = len(ground)

    def inside(keep):
        mask = sum(1 << i for i in keep)
        return [c for sub, c in table if sub & mask == sub and c is not None]

    keep = set(range(m))
    removed = []
    while True:
        colors = inside(keep)
        if all(c == colors[0] for c in colors):
            color = colors[0] if colors else None
            break
        tally = {}
        for c in colors:
            tally[c] = tally.get(c, 0) + 1
        majority = max(tally, key=tally.get)
        mask = sum(1 << i for i in keep)
        counts = [0] * m
        for sub, c in table:
            if sub & mask == sub and c is not None and c != majority:
                for i in range(m):
                    if sub >> i & 1:
                        counts[i] += 1
        worst = max(keep, key=lambda i: (counts[i], -i))
        keep.discard(worst)
        removed.append(worst)
    for i in sorted(removed):
        colors = inside(keep | {i})
        if all(c == colors[0] for c in colors):
            keep.add(i)
            color = colors[0] if colors else None
    pts = tuple(sorted((ground[i] for i in keep), key=lambda p: p.y))
    return pts, color, len(removed)


# ---------------------------------------------------------------- coloring readers
# The readers as they ran before they kept one point per coordinate pair
# and counted totality: every row builds validated points, the keys are
# rebuilt, and totality is a membership scan over every n-subset.

def _scanned_coloring(ground, n: int, table: dict, partial: bool):
    keyed = {frozenset(k): v for k, v in table.items()}
    if not partial:
        for combo in combinations(ground.sorted_points, n):
            if frozenset(combo) not in keyed:
                raise ValueError("coloring table is not total: no color for "
                                 + ", ".join(map(str, combo)))
    return Coloring(ground, n, lambda pts: keyed.get(frozenset(pts)))


def coloring_from_json_scan(doc, ground=None, partial: bool = False):
    """``coloring_from_json`` by a point per subset item."""
    if not isinstance(doc, dict) or "n" not in doc or "entries" not in doc:
        raise ValueError("coloring document needs 'n' and 'entries'")
    n = _natural(doc["n"], "n")
    if not isinstance(doc["entries"], list):
        raise ValueError(f"entries: expected a list, got {json.dumps(doc['entries'])}")
    table = {}
    pts = set()
    for i, entry in enumerate(doc["entries"]):
        where = f"entries[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: expected an object, got {json.dumps(entry)}")
        for key in ("subset", "color"):
            if key not in entry:
                raise KeyError(f"{where}.{key}")
        subset = frozenset(points_from_json(entry["subset"], f"{where}.subset"))
        if len(subset) != n:
            raise ValueError(f"{where}.subset: not a {n}-set: {json.dumps(entry['subset'])}")
        color = entry["color"]
        if not (color is None or isinstance(color, (str, int))
                or isinstance(color, float) and isfinite(color)):
            raise ValueError(f"{where}.color: expected a finite JSON scalar, "
                             f"got {json.dumps(color, default=repr)}")
        table[subset] = color
        pts |= subset
    if ground is None:
        ground = FiniteCondition(frozenset(pts))
    return _scanned_coloring(ground, n, table, partial)


def coloring_from_csv_scan(path, ground=None, partial: bool = False):
    """``coloring_from_csv`` by a point per coordinate pair of every row."""
    table = {}
    pts = set()
    n = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            if len(row) % 2 != 1 or len(row) < 3:
                raise ValueError(f"bad coloring row (want 2n coords + color): {row}")
            for col, v in enumerate(row[:-1], 1):
                if not (v.isascii() and v.isdigit()):
                    raise ValueError(f"row {reader.line_num}, column {col}: "
                                     f"expected a natural number, got {v!r}")
            coords = [int(v) for v in row[:-1]]
            if n is None:
                n = len(coords) // 2
            elif len(coords) != 2 * n:
                raise ValueError("coloring rows disagree on subset size")
            subset = frozenset(Point(coords[2 * i], coords[2 * i + 1]) for i in range(n))
            if len(subset) != n:
                raise ValueError(f"row {reader.line_num}: not a {n}-set: {row[:-1]}")
            table[subset] = row[-1]
            pts |= subset
    if n is None:
        raise ValueError("empty coloring file")
    if ground is None:
        ground = FiniteCondition(frozenset(pts))
    return _scanned_coloring(ground, n, table, partial)


def coloring_outcome(read, *args, **kwargs):
    """What a reader makes of its input: (ground, n, the colour and its
    type per n-subset of the ground in ``combinations`` order), or the
    (type, message) of the ValueError or KeyError it raises."""
    try:
        coloring = read(*args, **kwargs)
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc)
    colors = [coloring.rule(combo)
              for combo in combinations(coloring.ground.sorted_points, coloring.n)]
    return coloring.ground, coloring.n, [(c, type(c)) for c in colors]


# ---------------------------------------------------------------- omega prefixes
# The chain walk and the prefix realization as they ran before x positions
# were recorded: every step rescans the classes for x's position.

def x_position_scan(prefix, index: int):
    """Position of the x-class holding index, or None."""
    for pos, cls in enumerate(prefix.classes):
        if isinstance(cls, XClass) and index in cls.indices:
            return pos
    return None


def zchain_scan(prefix, z, za):
    """(ok, failed_at) of the chain walk, one step at a time: step n demands
    "U" at an x-class, else "V_v" for the value v the chain gave the class
    of x_j before position n; a missing label raises MissingLabelError."""
    vals = tuple(z)
    for n in range(len(vals)):
        cls = prefix.classes[n]
        if isinstance(cls, XClass):
            label = "U"
        else:
            label = f"V_{vals[:n][x_position_scan(prefix, cls.index)]}"
        if not za.lookup(label).contains(vals[n]):
            return False, n
    return True, None


def phi_scan(prefix, z) -> set:
    """The points (value of x_j's class, value of y_j's class) of every
    index with both classes in the prefix."""
    return {Point(z[x_position_scan(prefix, cls.index)], z[pos])
            for pos, cls in enumerate(prefix.classes)
            if not isinstance(cls, XClass)
            and x_position_scan(prefix, cls.index) is not None}



def judge_prefix_two_passes(seq) -> tuple:
    """(ok, malformed, violations, assumed) of coerced prefix classes as
    they were judged in two walks: the repeats first, and the y-order and
    housing only when there are none."""
    malformed, seen_x, seen_y = [], set(), set()
    for cls in seq:
        if isinstance(cls, XClass):
            dup = cls.indices & seen_x
            if dup:
                malformed.append("x-indices repeated across classes: "
                                 + ", ".join(map(str, sorted(dup))))
            seen_x |= cls.indices
        else:
            if cls.index in seen_y:
                malformed.append(f"y-index repeated: {cls.index}")
            seen_y.add(cls.index)
    if malformed:
        return False, tuple(malformed), (), ()
    violations, housed, last_y = [], set(), 0
    for cls in seq:
        if isinstance(cls, XClass):
            housed |= cls.indices
            continue
        if cls.index <= last_y:
            violations.append(f"y-indices must increase strictly: y{cls.index} after y{last_y}")
        if cls.index not in housed:
            violations.append(f"y{cls.index} present without x{cls.index} in an earlier class")
        last_y = max(last_y, cls.index)
    assumed = ASSUMED_CLAUSES if any(isinstance(c, XClass) for c in seq) else ASSUMED_CLAUSES[1:]
    return not violations, (), tuple(violations), assumed

# ---------------------------------------------------------------- value classes
# The package's value classes skip ``dataclasses`` for start-up time; each
# must behave as the frozen dataclass written from the same class body.

# What ``_values.value`` adds to a class, and the attribute descriptors
# every class with instance dicts carries.
_VALUE_MADE = frozenset({
    "__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__",
    "__lt__", "__le__", "__gt__", "__ge__",
    "__value_fields__", "__value_order__", "__dict__", "__weakref__",
})


def value_classes() -> list[type]:
    """Every class the value decorator made in the six area modules and
    ``cli``, found by the marker it leaves, in definition order."""
    from ramseybench import cli, homogeneity, omegatypes, pointsets, randomgraph, setalgebra, typecalc

    found = []
    for module in (typecalc, pointsets, homogeneity, randomgraph, setalgebra, omegatypes, cli):
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and "__value_fields__" in vars(obj)):
                found.append(obj)
    return found


def dataclass_twin(cls: type) -> type:
    """The frozen stdlib dataclass with cls's name, bases, annotations,
    methods and defaults, and its ``order`` and per-field ``compare`` and
    ``hash``."""
    namespace = {k: v for k, v in vars(cls).items() if k not in _VALUE_MADE}
    for name, spec in cls.__value_fields__.items():
        if not (spec.compare and spec.hash):
            namespace[name] = dataclasses.field(compare=spec.compare,
                                                hash=None if spec.hash else False)
    twin = type(cls.__name__, cls.__bases__, namespace)
    twin.__qualname__ = cls.__qualname__
    return dataclasses.dataclass(frozen=True, order=cls.__value_order__)(twin)
