"""Colorings of n-subsets, per-pattern homogeneity, and stabilization tools.

A coloring assigns an opaque color to n-subsets of a ground condition,
either through an explicit table or a lazily evaluated rule.  Colorings
may be domain-restricted (e.g. defined on tied pairs only); subsets
outside the domain are uncolored and skipped by the checks.

The second half of the module handles the order-theoretic bookkeeping
used by the falling-out demos: lexicographic stabilization of monotone
bit-vector sequences, and extraction of an eventually-stable binary
relation from a ternary one by reading trailing windows along columns.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, islice
from math import comb, isfinite
from operator import gt, lt

from . import _jsonio
from ._values import field, value
from .errors import LexOrderError, _natural, _naturals, check_subsets, check_work
from .pointsets import (FiniteCondition, Point, _as_point, _pattern_counts, _realizers,
                        points_from_json, realized_type)
from .typecalc import NType, count_ntypes, enumerate_ntypes, list_form

STABLE_1 = "stable-1"
STABLE_0 = "stable-0"
UNSTABLE = "unstable"
NO_DATA = "insufficient-data"


@value
class Coloring:
    """A coloring of the n-subsets of a ground condition.

    ``rule`` receives the subset as a tuple sorted by y and returns a
    color, or None for subsets outside the coloring's domain.  Colors
    are opaque; no order among them is assumed.
    """

    ground: FiniteCondition
    n: int
    rule: object = field(compare=False)

    def __post_init__(self):
        _natural(self.n, "n")

    def color_of(self, subset):
        pts = _normalize_subset(subset, self.ground)
        if len(pts) != self.n:
            raise ValueError(f"expected a {self.n}-subset, got {pts}")
        return self.rule(pts)

    @classmethod
    def from_table(cls, ground: FiniteCondition, n: int, table: dict,
                   partial: bool = False) -> "Coloring":
        """Table-backed coloring; totality is validated unless partial."""
        bits: dict = {}
        colors = {}
        for key, color in table.items():
            mask = 0
            for p in key:
                bit = bits.get(p)
                if bit is None:
                    bit = bits[p] = 1 << len(bits)
                mask |= bit
            colors[mask] = color
        return cls._from_masks(ground, n, bits, colors, partial)

    @classmethod
    def _from_masks(cls, ground: FiniteCondition, n: int, bits: dict, colors: dict,
                    partial: bool, inside: bool = False) -> "Coloring":
        """Coloring over ``colors``, a table keyed by point masks in which
        ``bits[p]`` stands for point p; ``bits`` is extended with a bit of
        its own for each ground point no key names.

        Totality is counted: the keys that are n-subsets of the ground
        against C(m, n); ``inside`` says every key is one, as when the
        ground was read off the table.  Only a table that falls short is
        scanned, in ``combinations`` order, for its first missing subset,
        which then lies among the first ``have + 1`` combinations.
        """
        pts = ground.sorted_points
        for p in pts:
            if p not in bits:
                bits[p] = 1 << len(bits)
        if not partial:
            ground_bits = [bits[p] for p in pts]
            whole = sum(ground_bits)
            have = len(colors) if inside else sum(
                1 for k in colors if k | whole == whole and k.bit_count() == n)
            if have != comb(len(pts), n):
                scan = zip(combinations(pts, n), combinations(ground_bits, n))
                for combo, combo_bits in islice(scan, have + 1):
                    if sum(combo_bits) not in colors:
                        raise ValueError(
                            "coloring table is not total: no color for "
                            + ", ".join(map(str, combo))
                        )
        return cls(ground, n, _MaskTable(bits, colors))

    @classmethod
    def from_rule(cls, ground: FiniteCondition, n: int, fn) -> "Coloring":
        return cls(ground, n, fn)


class _MaskTable:
    """The rule of a table coloring: colours keyed by point masks.

    ``bits`` gives a bit of its own to each point that a key names and to
    each ground point, and ``colors`` maps the mask of each listed subset
    to its colour.  Called on points, it answers as a table keyed by point sets
    would: the colour listed for the set they form, else None.
    """

    __slots__ = ("bits", "colors")

    def __init__(self, bits: dict, colors: dict):
        self.bits = bits
        self.colors = colors

    def __call__(self, pts):
        mask = 0
        for p in pts:
            bit = self.bits.get(p)
            if bit is None:
                return None
            mask |= bit
        return self.colors.get(mask)


def realized_type_coloring(cond: FiniteCondition, n: int) -> Coloring:
    """Color every n-subset by the list form of the pattern it realizes."""
    return Coloring.from_rule(cond, n, lambda pts: list_form(realized_type(pts)))


@value
class TauReport:
    homogeneous: bool
    color: object
    realizers: int
    vacuous: bool


def check_tau_homogeneous(subset, coloring: Coloring, tau: NType) -> TauReport:
    """Is the coloring constant on the tau-realizing n-subsets of subset?

    Constant means ``_one_color``: every colour other than None equals
    the first under ``==``, and the colour of the first coloured realizer
    in lexicographic y-sequence order is reported.
    Vacuously homogeneous (flagged, color None) when subset carries no
    colored realizer of tau.  The realizers are listed from the n-subsets
    of subset, so more of those than the "subsets" work bound raise
    LimitError before any colour is read.
    """
    pts = _normalize_subset(subset, coloring.ground)
    check_subsets(len(pts), coloring.n, "homogeneity check")
    rows = _realizer_rows(coloring, tau, pts)
    agree, first = _one_color(c for _, c in rows)
    return TauReport(
        homogeneous=agree,
        color=first if agree else None,
        realizers=len(rows),
        vacuous=first is None,
    )


def _realizer_rows(coloring: Coloring, tau: NType, pts) -> list[tuple[int, object]]:
    """(mask, colour) per tau-realizer among the y-sorted ground points pts,
    in lexicographic y-sequence order: bit i of the mask stands for the i-th
    point of the (x, y)-sorted ground.  A table coloring's colour is one
    lookup of the realizer's table mask; any other's is the rule's on the
    realizer's y-sorted points.  The walk labels each point with its bits
    (and a rule's point), so no point is hashed per row."""
    if tau.n != coloring.n:
        raise ValueError(
            f"pattern size {tau.n} does not match coloring arity {coloring.n}"
        )
    bit = {p: 1 << i for i, p in enumerate(sorted(coloring.ground.points))}
    rule = coloring.rule
    if isinstance(rule, _MaskTable):
        # one int label per point: its ground bit, and its table bit above
        # the ground's m bits (a point the table lacks gets one it never uses)
        m = len(bit)
        keys, spare = rule.bits, 1 << len(rule.bits)
        labels = [(bit[p] | keys.get(p, spare) << m,) for p in pts]
        ground, get = (1 << m) - 1, rule.colors.get
        return [(s & ground, get(s >> m)) for s in map(sum, _realizers(pts, tau, labels))]
    return [(sum(labelled[::2]), rule(labelled[1::2]))
            for labelled in _realizers(pts, tau, [(bit[p], p) for p in pts])]


def _normalize_subset(subset, ground: FiniteCondition) -> tuple[Point, ...]:
    if isinstance(subset, FiniteCondition):
        pts = subset.sorted_points
    else:
        pts = tuple(sorted({_as_point(p) for p in subset}, key=lambda p: p.y))
    for p in pts:
        if p not in ground:
            raise ValueError(f"{p} is not in the ground condition")
    return pts


def count_classes_met(subset, coloring: Coloring) -> int:
    """Number of distinct colors over the colored n-subsets of subset.

    It reads the colour of every n-subset, so more subsets than the
    "subsets" work bound raise LimitError before any colour is read.
    """
    pts = _normalize_subset(subset, coloring.ground)
    check_subsets(len(pts), coloring.n, "class count")
    rule = coloring.rule
    if isinstance(rule, _MaskTable):
        # a table coloring's colours are read by subset masks, so no point
        # is hashed per subset (a point the table lacks gets a bit no key has)
        spare = 1 << len(rule.bits)
        masks = [rule.bits.get(p, spare) for p in pts]
        colors = set(map(rule.colors.get, map(sum, combinations(masks, coloring.n))))
    else:
        colors = {rule(combo) for combo in combinations(pts, coloring.n)}
    return len(colors - {None})


@value
class SearchResult:
    points: tuple[Point, ...]
    color: object
    size: int
    met_min_size: bool
    exact: bool
    stats: dict = field(compare=False)


def search_homogeneous(coloring: Coloring, tau: NType, min_size: int = 0,
                       mode: str = "exact",
                       bound: int | None = None) -> SearchResult:
    """Find a large H in the ground with the tau-realizers monochromatic.

    Exact mode returns a maximum-size answer, ties broken by the
    lexicographically least sorted point list, found by branch and bound
    (``_max_homogeneous``); it refuses grounds larger than ``bound`` (None:
    the "points" work bound), and grounds with more n-subsets than the
    "subsets" work bound, before any work.  Its ``subsets_checked`` is
    the number of subsets a scan by descending size, each size in
    lexicographic order, checks up to and including the answer.  Greedy
    mode (``_greedy``) removes the most conflicted point until
    homogeneous, re-adds what it can, and makes no optimality claim; it
    refuses grounds with more n-subsets than the "subsets" work bound
    before any work.  Both modes judge colours by ``_one_color``, and the
    first coloured realizer inside the answer, in table order, names its
    colour.  ``min_size`` must be a natural number.
    """
    _natural(min_size, "min-size")
    if mode not in ("exact", "greedy"):
        raise ValueError(f"mode must be 'exact' or 'greedy', got {mode!r}")
    ground_pts = tuple(sorted(coloring.ground.points))
    m = len(ground_pts)
    if mode == "exact":
        check_work("points", m, "exact search", f"the ground has {m} points", bound)
    # every realizer is a row of either search
    check_subsets(m, coloring.n, f"{mode} search")
    rows = _realizer_rows(coloring, tau, coloring.ground.sorted_points)
    # table order (by index tuples; greedy breaks ties by it): for masks of
    # n bits each, their bit strings read from bit 0 up, in descending order
    rows.sort(key=lambda row: f"{row[0]:b}"[::-1], reverse=True)
    if mode == "exact":
        mask = _max_homogeneous(rows, m)
    else:
        mask, removed = _greedy(rows, m)
    combo = [i for i in range(m) if mask >> i & 1]
    _, color = _one_color(c for sub, c in rows if sub & mask == sub)
    return SearchResult(
        points=tuple(sorted((ground_pts[i] for i in combo), key=lambda p: p.y)),
        color=color,
        size=len(combo),
        met_min_size=len(combo) >= min_size,
        exact=mode == "exact",
        stats=({"mode": "exact", "subsets_checked": _scan_count(m, combo)}
               if mode == "exact" else {"mode": "greedy", "removed": removed}),
    )


def _one_color(colors) -> tuple[bool, object]:
    """(agree, first): whether the colours other than None all equal the
    first of them under ``==``, and that first colour (None if there is
    none).  It is the one homogeneity rule of check and both searches:
    1, 1.0 and True agree, and a NaN agrees with no colour, itself
    included."""
    rest = iter(colors)
    first = next((c for c in rest if c is not None), None)
    return all(c is None or c == first for c in rest), first


def _color_classes(colors) -> tuple[list, int]:
    """(class per colour, number of classes) under ``_one_color``'s rule:
    None is in no class, colours equal under ``==`` share one (1, 1.0 and
    True), and a colour unequal to itself (a NaN) is a class of its own,
    although a dict would let one NaN object find itself."""
    index: dict = {}
    loose: list = []  # (colour, class) of the unhashable colours, matched by ==
    out = []
    count = 0
    for c in colors:
        if c is None:
            out.append(None)
            continue
        if c != c:
            k = count
        else:
            try:
                k = index.setdefault(c, count)
            except TypeError:
                k = next((k for other, k in loose if other == c), count)
                if k == count:
                    loose.append((c, k))
        if k == count:
            count += 1
        out.append(k)
    return out, count


def _max_homogeneous(realizers, m: int) -> int:
    """Bitmask of the lexicographically least largest index set whose
    coloured realizers share one colour.

    Include-first depth-first search over the indices 0..m-1; a node
    carries the colour class (``_color_classes``) its set has fixed, if
    any, and index j may join only if the realizers with top index j
    inside the new set leave one class at most, the fixed one if any.  A
    class holding a quarter of the realizers or more tests only the
    other classes' realizers.  A branch is cut once it cannot beat the
    best set found (``_rooms``), and only a strictly larger set replaces
    it, so the first largest set found is the least.
    """
    classes, count = _color_classes(c for _, c in realizers)
    rows = [(sub, k) for (sub, _), k in zip(realizers, classes) if k is not None]
    # per top index: (realizer less the top bit, class), for every class
    # and, for each large class, for the others only
    tops: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for sub, k in rows:
        top = sub.bit_length() - 1
        tops[top].append((sub ^ 1 << top, k))
    sizes = Counter(k for _, k in rows)
    tests = [[[row for row in top if row[1] != c] for top in tops]
             if 4 * sizes[c] >= len(rows) else tops for c in range(count)]
    tests.append(tops)
    rooms = _rooms(rows, m, count)
    best_mask = best_size = 0
    # frames (next index to try, set, its size, its class or count for
    # none yet); a loop, not recursion, so a raised bound cannot exhaust
    # the interpreter's stack
    stack = [(0, 0, 0, count)]
    while stack:
        j, mask, size, c = stack.pop()
        if size > best_size:
            best_mask, best_size = mask, size
        room, test = rooms[c], tests[c]
        while j < m and size + room[j] > best_size:
            joined = c
            for rest, k in test[j]:
                if rest & mask == rest and k != joined:
                    if joined != count:  # a second class inside, or not the fixed one
                        break
                    joined = k
            else:
                stack.append((j + 1, mask, size, c))  # then without j
                stack.append((j + 1, mask | 1 << j, size + 1, joined))  # with j first
                break
            j += 1
    return best_mask


def _rooms(rows, m: int, count: int) -> list[list[int]]:
    """rooms[k][j] bounds how many of the indices j..m-1 a set of class k
    can still take: m - j less a greedy packing of pairwise disjoint
    realizers of the other classes inside j..m-1, each of which must lose
    a point; rooms[count], for a set with no class yet, is the most over
    the classes.  The packing takes, from index m-1 down, the first
    realizer in table order with that least index that is disjoint from
    those taken.  A class none of whose realizers the packing of all
    classes takes has the same packing, so at most m / n + 1 are run."""
    bottoms: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for sub, k in rows:
        bottoms[(sub & -sub).bit_length() - 1].append((sub, k))

    def room(skip):
        used = packed = 0
        out = [0] * m
        took = set()
        for j in range(m - 1, -1, -1):
            for sub, k in bottoms[j]:
                if k != skip and not sub & used:
                    used |= sub
                    packed += 1
                    took.add(k)
                    break
            out[j] = m - j - packed
        return out, took

    shared, took = room(None)
    own = {k: room(k)[0] for k in took}
    rooms = [own.get(k, shared) for k in range(count)]
    spread = list(own.values()) + ([shared] if len(own) < count else [])
    rooms.append([max(col) for col in zip(*spread)] if spread else list(range(m, 0, -1)))
    return rooms


def _greedy(realizers, m: int) -> tuple[int, int]:
    """(bitmask, removals) of greedy search: drop the point in the most
    realizers off the majority colour (ties: the lowest index; a majority
    tie goes to the colour seen first) until the rest is homogeneous, then
    re-add the dropped points in ascending order wherever it stays so."""
    keep = (1 << m) - 1
    removed: list[int] = []
    # the coloured realizers inside keep, in table order
    live = [(sub, c) for sub, c in realizers if c is not None]
    while not _one_color(c for _, c in live)[0]:
        majority = Counter(c for _, c in live).most_common(1)[0][0]
        counts = [0] * m
        for sub, c in live:
            if c != majority:
                while sub:
                    low = sub & -sub
                    counts[low.bit_length() - 1] += 1
                    sub ^= low
        worst = max((i for i in range(m) if keep >> i & 1), key=lambda i: (counts[i], -i))
        keep ^= 1 << worst
        removed.append(worst)
        live = [(sub, c) for sub, c in live if not sub >> worst & 1]
    for i in sorted(removed):
        trial = keep | 1 << i
        if _one_color(c for sub, c in realizers if sub & trial == sub)[0]:
            keep = trial
    return keep, len(removed)


def _scan_count(m: int, combo) -> int:
    """Subsets of range(m) a scan by descending size, each size in
    lexicographic order, visits up to and including the sorted ``combo``."""
    k = len(combo)
    count = sum(comb(m, s) for s in range(k + 1, m + 1)) + 1
    prev = -1
    for j, c in enumerate(combo):
        count += sum(comb(m - 1 - v, k - 1 - j) for v in range(prev + 1, c))
        prev = c
    return count


@value
class FloorReport:
    classes_met: int
    t_n: int
    floor_holds: bool
    missing: tuple[str, ...]


def weak_ramsey_floor_demo(cond: FiniteCondition, n: int) -> FloorReport:
    """Count pattern classes met by cond's n-subsets against the full tally.

    The floor holds exactly when the pattern coloring meets all count_ntypes(n)
    classes; any pattern absent from the per-pattern counts has no
    realizer and is reported missing.  The counts come from the
    value-separated blocks of cond, so growths far past the listing bound
    of classify_subsets are answered.
    """
    counts = _pattern_counts(cond, n)
    classes_met = len(counts)
    t_n = count_ntypes(n)
    missing = () if classes_met == t_n else tuple(
        list_form(t) for t in enumerate_ntypes(n) if t not in counts)
    return FloorReport(
        classes_met=classes_met,
        t_n=t_n,
        floor_holds=not missing,
        missing=missing,
    )


@value
class StabilizeReport:
    stable: tuple[int, ...]
    positions: tuple[int, ...]


def stabilize_lex(rows, direction: str = "increasing") -> StabilizeReport:
    """Per-column stable values of a lexicographically monotone row sequence.

    Rows must be equal-width 0/1 vectors, lexicographically non-decreasing
    (non-increasing for direction="decreasing").  Returns the final stable
    vector and, per column, the least row index from which that column is
    constant to the end.  Each row is judged as it is read, so the first
    bad bit is named by its path, e.g. ``[2][0]``.
    """
    table = []
    for i, row in enumerate(rows):
        row = tuple([_natural(b, f"[{i}][{j}]") for j, b in enumerate(row)])
        for j, b in enumerate(row):
            if b > 1:
                raise ValueError(f"[{i}][{j}]: expected 0 or 1, got {b}")
        table.append(row)
    if not table:
        raise ValueError("need at least one row")
    width = len(table[0])
    if any(len(r) != width for r in table):
        raise ValueError("rows must share a width")
    if direction not in ("increasing", "decreasing"):
        raise ValueError(f"direction must be 'increasing' or 'decreasing', got {direction!r}")
    out_of_order = gt if direction == "increasing" else lt
    for i in range(len(table) - 1):
        if out_of_order(table[i], table[i + 1]):
            raise LexOrderError(i, table[i], table[i + 1])

    stable = table[-1]
    positions = []
    for z in range(width):
        pos = len(table) - 1
        while pos > 0 and table[pos - 1][z] == stable[z]:
            pos -= 1
        positions.append(pos)
    return StabilizeReport(stable=stable, positions=tuple(positions))


@value
class TernaryRelationGrid:
    """Total 0/1 relation on [0,x_bound) x [0,y_bound) x [0,z_bound)."""

    x_bound: int
    y_bound: int
    z_bound: int
    triples: frozenset[tuple[int, int, int]]

    def __post_init__(self):
        for name in ("x_bound", "y_bound", "z_bound"):
            _natural(getattr(self, name), name)
        for (x, y, z) in self.triples:
            if not (0 <= x < self.x_bound and 0 <= y < self.y_bound
                    and 0 <= z < self.z_bound):
                raise ValueError(f"triple {(x, y, z)} outside grid bounds")

    def holds(self, x: int, y: int, z: int) -> bool:
        return (x, y, z) in self.triples

    @classmethod
    def from_function(cls, x_bound: int, y_bound: int, z_bound: int, fn) -> "TernaryRelationGrid":
        triples = frozenset(
            (x, y, z)
            for x in range(x_bound)
            for y in range(y_bound)
            for z in range(z_bound)
            if fn(x, y, z)
        )
        return cls(x_bound, y_bound, z_bound, triples)


def extract_S_from_R(grid: TernaryRelationGrid, cond: FiniteCondition,
                     window: int = 3) -> dict[tuple[int, int], str]:
    """Read an eventually-stable binary relation out of a ternary grid.

    For each x and z, look at R(x, y, z) along the last ``window`` y's of
    cond's column at x: constant windows give "stable-0"/"stable-1",
    mixed ones "unstable", short columns "insufficient-data".  Grids with
    more (x, z) statuses than the "values" work bound raise LimitError
    before any work.
    """
    _natural(window, "window", 1)
    work = grid.x_bound * grid.z_bound
    check_work("values", work, "extraction",
               f"a {grid.x_bound} x {grid.z_bound} grid has {work} statuses")
    columns = cond.columns()
    for x, ys in columns.items():
        if x >= grid.x_bound or any(y >= grid.y_bound for y in ys):
            raise ValueError(
                f"condition coordinates at column {x} fall outside grid bounds"
            )
    out: dict[tuple[int, int], str] = {}
    for x in range(grid.x_bound):
        ys = columns.get(x, [])
        for z in range(grid.z_bound):
            if len(ys) < window:
                out[(x, z)] = NO_DATA
                continue
            tail = [grid.holds(x, y, z) for y in ys[-window:]]
            if all(tail):
                out[(x, z)] = STABLE_1
            elif not any(tail):
                out[(x, z)] = STABLE_0
            else:
                out[(x, z)] = UNSTABLE
    return out


def coloring_from_json(doc: dict, ground: FiniteCondition | None = None,
                       partial: bool = False) -> Coloring:
    """Ingest {"n": ..., "entries": [{"subset": [[x,y],...], "color": ...}]}.

    Colors are finite JSON scalars.  Malformed input, a NaN or infinite
    colour included, raises ValueError naming its JSON path, e.g.
    ``entries[0].subset[1][0]`` or ``entries[1].color``; a missing key raises
    KeyError naming its path, e.g. ``entries[0].color``.
    """
    if not isinstance(doc, dict) or "n" not in doc or "entries" not in doc:
        raise ValueError("coloring document needs 'n' and 'entries'")
    n = _natural(doc["n"], "n")
    if not isinstance(doc["entries"], list):
        raise ValueError(f"entries: expected a list, "
                         f"got {_jsonio.dumps(doc['entries'], default=repr)}")
    colors = {}
    bits: dict[Point, int] = {}
    cache: dict[tuple[int, int], int] = {}  # coordinate pair -> its point's bit
    for i, entry in enumerate(doc["entries"]):
        # paths are spelt out only for a refusal
        if not isinstance(entry, dict):
            raise ValueError(f"entries[{i}]: expected an object, "
                             f"got {_jsonio.dumps(entry, default=repr)}")
        for key in ("subset", "color"):
            if key not in entry:
                raise KeyError(f"entries[{i}].{key}")
        mask = _json_subset(entry["subset"], i, cache, bits)
        if mask.bit_count() != n:
            raise ValueError(f"entries[{i}].subset: not a {n}-set: "
                             f"{_jsonio.dumps(entry['subset'], default=repr)}")
        color = entry["color"]
        if not (color is None or isinstance(color, (str, int))
                or isinstance(color, float) and isfinite(color)):
            raise ValueError(f"entries[{i}].color: expected a finite JSON scalar, "
                             f"got {_jsonio.dumps(color, default=repr)}")
        colors[mask] = color
    inside = ground is None
    if inside:
        ground = FiniteCondition(frozenset(bits))
    return Coloring._from_masks(ground, n, bits, colors, partial, inside)


def _json_subset(doc, i: int, cache: dict, bits: dict) -> int:
    """The mask of the subset document ``doc`` of entry ``i``: one bit per
    distinct point across the calls that share ``cache`` (keyed by
    coordinate pair) and ``bits`` (keyed by point).

    Pairs of plain non-negative ints are looked up by value; anything
    else goes through ``points_from_json``, which names its path.  The
    check is on the exact type: ``(True, 2) == (1, 2)``, so a key made
    from any pair would let a boolean through.
    """
    if type(doc) is list:
        mask = 0
        for item in doc:
            if type(item) is not list or len(item) != 2:
                break
            x, y = item
            if type(x) is not int or type(y) is not int or x < 0 or y < 0:
                break
            bit = cache.get((x, y))
            if bit is None:
                bit = cache[x, y] = bits[Point(x, y)] = 1 << len(bits)
            mask |= bit
        else:
            return mask
    mask = 0
    for p in points_from_json(doc, f"entries[{i}].subset"):
        bit = cache.get((p.x, p.y))
        if bit is None:
            bit = cache[p.x, p.y] = bits[p] = 1 << len(bits)
        mask |= bit
    return mask


def coloring_from_csv(path: str, ground: FiniteCondition | None = None,
                      partial: bool = False) -> Coloring:
    """Ingest CSV rows x1,y1,...,xn,yn,color (no header) from a UTF-8 file.

    A row that repeats a point, or a coordinate that is not a natural
    number in plain digits, raises ValueError naming its row (the file's
    line) and, for a coordinate, its column, both counted from 1.
    """
    import _csv  # csv.reader is _csv.reader; here, as only --csv calls need it

    colors = {}
    bits: dict[Point, int] = {}
    # raw text pair -> its point's bit, and (x, y) -> the same bit, so
    # that "007" and "7" are one point
    cache: dict[tuple, int] = {}
    get = cache.get
    n = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv.reader(fh)
        for row in reader:
            if not row:
                continue
            if len(row) % 2 != 1 or len(row) < 3:
                raise ValueError(f"bad coloring row (want 2n coords + color): {row}")
            cells = iter(row)  # pairs up the coordinates; the colour is left over
            mask = 0
            for pair in zip(cells, cells):
                bit = get(pair)
                if bit is None:
                    bit = _csv_bit(pair, row, reader.line_num, cache, bits)
                mask |= bit
            if n is None:
                n = len(row) // 2
            elif len(row) // 2 != n:
                raise ValueError("coloring rows disagree on subset size")
            if mask.bit_count() != n:
                raise ValueError(f"row {reader.line_num}: not a {n}-set: {row[:-1]}")
            colors[mask] = row[-1]
    if n is None:
        raise ValueError("empty coloring file")
    inside = ground is None
    if inside:
        ground = FiniteCondition(frozenset(bits))
    return Coloring._from_masks(ground, n, bits, colors, partial, inside)


def _csv_bit(pair: tuple, row: list, line: int, cache: dict, bits: dict) -> int:
    """The bit of ``pair``, a coordinate pair of CSV ``row`` (file line
    ``line``) that ``cache`` lacks, once both are judged natural; entered
    in ``cache`` under the pair and under its (x, y), and in ``bits``.
    Every pair before it in the row is in ``cache``, so its first
    occurrence in the row is this one, which names its columns."""
    for k, v in enumerate(pair):
        if not (v.isascii() and v.isdigit()):
            cells = iter(row)
            col = 2 * list(zip(cells, cells)).index(pair) + 1 + k
            raise ValueError(f"row {line}, column {col}: "
                             f"expected a natural number, got {v!r}")
    xy = int(pair[0]), int(pair[1])
    bit = cache.get(xy)
    if bit is None:
        bit = cache[xy] = bits[Point(*xy)] = 1 << len(bits)
    cache[pair] = bit
    return bit


def grid_from_json(doc: dict) -> TernaryRelationGrid:
    """Ingest {"bounds": [bx, by, bz], "triples": [[x, y, z], ...]}; malformed
    input raises ValueError naming its JSON path, e.g. ``triples[3][1]``."""
    if not isinstance(doc, dict) or "bounds" not in doc or "triples" not in doc:
        raise ValueError("grid document needs 'bounds' and 'triples'")
    bounds = _naturals(doc["bounds"], "bounds", 3)
    if not isinstance(doc["triples"], list):
        raise ValueError(f"triples: expected a list of [x, y, z] triples, "
                         f"got {_jsonio.dumps(doc['triples'], default=repr)}")
    triples = frozenset(tuple(_naturals(t, f"triples[{i}]", 3))
                        for i, t in enumerate(doc["triples"]))
    return TernaryRelationGrid(*bounds, triples)
