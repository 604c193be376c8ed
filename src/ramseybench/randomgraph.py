"""Deterministic finite engine for the countable universal graph.

A configuration lists distinct parameter vertices and the colour that the
edge from a demanded witness to each of them must carry; a witness is a
vertex outside the parameters whose edges match.  Unrecorded pairs carry
colour 0.  A graph is the palette-2 case: colour 1 is an edge, and a
graph configuration names the positions the witness must be adjacent to.

One witness engine builds every graph and every palette coloring.  It
walks a schedule of configurations and adds a fresh witness whenever none
exists, so the same inputs always give the same result.  The schedule
puts the lone empty configuration first, then sorts by (largest
parameter ``top``, parameter count, parameters lexicographically, colours
little-endian); at palette 2 the last key is the target set as an
ascending bitmask.  The engine keeps one int bitmask per vertex and
colour >= 1, plus their union.  The witnesses of a configuration are
``all & ~params & AND(mask(a, c))``, where colour 0 ("none of the
others") takes the complement of the union.  ``EdgeColoring.masks``
holds these rows for a finished colouring, and a ``Graph`` is the
palette-2 ``EdgeColoring`` whose colour-1 pairs are its edges.

The walk splits these witness pools one parameter at a time.  For a
parameter tuple, ``levels[d]`` holds the palette**d pools of its first d
parameters, pool j for the colours whose little-endian base-palette
number is j, so the last level lists the tuple's configurations in
schedule order.  The next tuple keeps the levels of the prefix it shares
and splits only past it; a fresh witness for pool b joins pool
``b % palette**d`` of every level d.  The extension and rich checks walk
``permutations`` the same way, over a fixed pool.

A covering walks a capped schedule: parameter counts stop at
``max_params`` and the walk stops at the first parameter that reaches
``max_vertex``, so it generates nothing that the covering would skip.
So the (m, k) covering walks exactly the configurations the extension
check tests, and ``_schedule_size`` counts both before any work, 1 + sum
over c <= min(m, k) of P(m, c) * palette**c; above the "configurations"
work bound (``errors.WORK_BOUNDS``) the builders raise ``LimitError``;
step counts share that bound.  The (8, 2) covering walks 241 configurations and
(8, 4) 29,809; (9, 9) would walk more than 3 * 10^8 and is refused.

Richness of a vertex set is approximated internally: a set is rich when
some subset satisfies the k-extension property using only witnesses
inside itself.  That check is exhaustive and bounded.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import combinations, permutations

from . import homogeneity, pointsets, typecalc
from ._values import field, value
from .errors import WORK_BOUNDS, _natural, _naturals, check_work


def _descend(levels: list, last: tuple, params: tuple, rows) -> list:
    """Move ``levels`` from parameter tuple ``last`` to ``params`` and
    return the pools of ``params``' configurations.  The levels of their
    shared prefix stay; each later parameter ``a`` splits the last level,
    pool j met with the vertices joined to ``a`` by colour c going to
    index j + c * len(level).  Vertex ``a`` is in none of its own ``rows``
    (``EdgeColoring.masks``), so only colour 0 has to clear its bit."""
    shared = 0
    for x, y in zip(last, params):
        if x != y:
            break
        shared += 1
    del levels[shared + 1:]
    for a in params[shared:]:
        row = rows[a]
        masks = (~(row[0] | 1 << a), *row[1:])
        pools = levels[-1]
        levels.append([p & m for m in masks for p in pools])
    return levels[-1]


@value
class EdgeColoring:
    """Total symmetric edge coloring of vertices 0..vertex_count-1 by the
    colours 0..palette-1; ``table`` maps sorted pairs to colours, and
    unrecorded pairs carry color 0.  Colourings are equal when their
    colours are; the hash reads only the vertex count and palette."""

    vertex_count: int
    palette: int
    table: dict = field(hash=False)

    def __post_init__(self):
        _natural(self.vertex_count, "vertex_count")
        _natural(self.palette, "palette", 1)
        for (u, v), c in self.table.items():
            if not (0 <= u < v < self.vertex_count):
                raise ValueError(f"bad pair {(u, v)} on {self.vertex_count} vertices")
            if not 0 <= c < self.palette:
                raise ValueError(f"color {c} outside palette")

    @cached_property
    def masks(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the witness engine's row: index c >= 1 holds the
        vertices joined to it by colour c, index 0 their union.  More
        rows than the "values" work bound raise LimitError first."""
        check_work("values", self.vertex_count, "witness rows",
                   f"the graph has {self.vertex_count} vertices, one row each")
        rows = [[0] * self.palette for _ in range(self.vertex_count)]
        for (u, v), c in self.table.items():
            if c:
                rows[u][c] |= 1 << v
                rows[v][c] |= 1 << u
                rows[u][0] |= 1 << v
                rows[v][0] |= 1 << u
        return tuple(map(tuple, rows))

    def color(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError("no color on a loop")
        if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
            raise ValueError(f"pair {(u, v)} outside the vertex range")
        return self.table.get((min(u, v), max(u, v)), 0)


class Graph(EdgeColoring):
    """Simple graph on vertices 0..vertex_count-1; edges as sorted pairs.

    It is the palette-2 edge colouring with colour 1 on each edge.
    """

    def __init__(self, vertex_count: int, edges):
        super().__init__(vertex_count, 2, dict.fromkeys(edges, 1))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.table)

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and (min(u, v), max(u, v)) in self.table

    def neighbors(self, v: int) -> set[int]:
        if not 0 <= v < self.vertex_count:
            return set()
        mask = self.masks[v][1]
        return {u for u in range(self.vertex_count) if mask >> u & 1}


@value
class Configuration:
    """Parameters a_0..a_{l-1} plus the positions demanding adjacency."""

    params: tuple[int, ...]
    targets: frozenset[int]

    def __post_init__(self):
        for p in self.params:
            _natural(p, "params")
        if len(set(self.params)) != len(self.params):
            raise ValueError(f"parameters must be distinct: {self.params}")
        if not self.targets <= set(range(len(self.params))):
            raise ValueError(
                f"targets {sorted(self.targets)} are not positions into {self.params}"
            )

    @classmethod
    def _trusted(cls, params: tuple, targets: frozenset) -> "Configuration":
        """Build without validation, for the distinct natural parameters
        and in-range targets that this module's walks produce by
        construction (the tests compare what they list with the public
        constructor's result)."""
        cfg = cls.__new__(cls)
        cfg.__dict__.update(params=params, targets=targets)
        return cfg


def _targets(count: int) -> list[frozenset[int]]:
    """The target sets of graph configurations on ``count`` parameters,
    by colour index: position i is a target when bit i of the index is."""
    return [frozenset(i for i in range(count) if b >> i & 1) for b in range(1 << count)]


def _schedule(max_vertex: int | None = None, max_params: int | None = None):
    """The parameter tuples of the schedule in the documented order, capped.

    A tuple of count parameters stands for its palette**count
    configurations, whose colours, read as a little-endian base-palette
    number, count up from 0; the tuples do not depend on the palette.
    Parameter counts stop at ``max_params`` and the walk stops before
    ``top`` reaches ``max_vertex``; None leaves that side open.  Only
    tuples that use ``top`` are generated, count * P(top, count - 1) per
    sorted list: at most 720 in step builds and 15,000 in coverings, but
    362,880 at top 8 of the unbounded ``configuration_schedule()``.
    Sorted lists keep the tuples that share a prefix together, so the
    walk splits only the pools past it.
    """
    yield ()
    if max_params == 0:
        return
    top = 0
    while max_vertex is None or top < max_vertex:
        counts = top + 1 if max_params is None else min(top + 1, max_params)
        yield (top,)
        for count in range(2, counts + 1):
            yield from sorted(
                rest[:i] + (top,) + rest[i:]
                for rest in permutations(range(top), count - 1) for i in range(count))
        top += 1


def _schedule_size(palette: int, max_vertex: int, max_params: int, bound: int) -> int:
    """1 + sum over c <= min(max_vertex, max_params) of P(max_vertex, c) *
    palette**c: the configurations a covering walks and, at palette 2,
    those the extension check tests.  The terms are positive, so the
    count stops once past ``bound``, one term beyond it at most."""
    size = term = 1
    for c in range(1, min(max_vertex, max_params) + 1):
        if size > bound:
            break
        term *= palette * (max_vertex - c + 1)
        size += term
    return size


def _walk(palette: int, steps: int | None = None,
          cap: tuple[int, int] | None = None) -> tuple[int, dict]:
    """The witness engine: run the schedule (its first ``steps`` entries,
    or the covering capped at ``cap`` = (max_vertex, max_params)) from the
    one-vertex seed.  Returns the vertex count and the pairs of colour
    >= 1 as ``{(u, v): colour}`` with u < v."""
    _natural(palette, "palette", 2)
    if cap is None:
        left = _natural(steps, "steps", 1)
        tuples = _schedule()
    else:
        max_vertex, max_params = cap
        _natural(max_vertex, "max_vertex")
        _natural(max_params, "max_params")
        # the capped schedule has exactly this many entries
        left = _schedule_size(palette, max_vertex, max_params,
                              WORK_BOUNDS["configurations"])
        tuples = _schedule(max_vertex, max_params)
    check_work("configurations", left, "build",
               f"the schedule walk takes at least {left} configurations")
    rows = [[0] * palette]
    table: dict = {}
    levels = [[1]]  # levels[d]: the palette**d pools of params[:d]
    last = ()
    for params in tuples:
        if len(params) == 1 and params[0] >= len(rows):
            # The vertex pool is conceptually all naturals: a parameter the
            # walk has not reached yet is simply an isolated vertex so far.
            # Only a (top,) tuple can reach it, and it shares no prefix.
            rows += ([0] * palette for _ in range(params[0] + 1 - len(rows)))
            levels[0][0] = (1 << len(rows)) - 1
        pools = _descend(levels, last, params, rows)
        last = params
        if left < len(pools):
            pools = pools[:left]
        left -= len(pools)
        for b, pool in enumerate(pools):
            if pool:
                continue
            fresh = len(rows)
            bit = 1 << fresh
            row = [0] * palette
            digits = b
            for a in params:
                digits, c = divmod(digits, palette)
                if c:
                    rows[a][c] |= bit
                    rows[a][0] |= bit
                    row[c] |= 1 << a
                    row[0] |= 1 << a
                    table[(a, fresh)] = c
            rows.append(row)
            for level in levels:
                level[b % len(level)] |= bit
        if not left:
            break
    return len(rows), table


def configuration_schedule():
    """The canonical infinite configuration order; see the module doc."""
    for params in _schedule():
        for targets in _targets(len(params)):
            yield Configuration(params, targets)


def realize_configuration(g: Graph, cfg: Configuration):
    """Least witness vertex for cfg in g, or None."""
    for p in cfg.params:
        if p >= g.vertex_count:
            raise ValueError(f"parameter {p} is not a vertex of the graph")
    found = (1 << g.vertex_count) - 1
    for i, a in enumerate(cfg.params):
        row = g.masks[a]
        found &= row[1] if i in cfg.targets else ~(row[0] | 1 << a)
    return (found & -found).bit_length() - 1 if found else None


def build_random_graph(steps: int) -> Graph:
    """Run the first ``steps`` schedule entries from the one-vertex seed."""
    count, table = _walk(2, steps=steps)
    return Graph(count, table)


def build_graph_covering(max_vertex: int, max_params: int) -> Graph:
    """Process every configuration with params inside [0, max_vertex) and
    at most max_params parameters, in schedule order."""
    count, table = _walk(2, cap=(max_vertex, max_params))
    return Graph(count, table)


def check_extension_property(g: Graph, k: int, m: int) -> list[Configuration]:
    """All configurations with <= k params among the first m vertices that
    lack a witness anywhere in g.  Empty list == property holds for (k, m).

    ``_schedule_size`` counts them, as it does an (m, k) covering; more
    than the "subsets" work bound raise LimitError before any work.
    """
    _natural(k, "k")
    if _natural(m, "m") > g.vertex_count:
        raise ValueError(f"m must be between 0 and {g.vertex_count}, got {m}")
    work = _schedule_size(2, m, k, WORK_BOUNDS["subsets"])
    check_work("subsets", work, "extension check",
               f"k={k} on {m} vertices gives at least {work} configurations")
    rows = g.masks  # refuses too many vertices before the pool is built
    everyone = (1 << g.vertex_count) - 1
    targets = [_targets(count) for count in range(min(k, m) + 1)]
    return [Configuration._trusted(params, targets[len(params)][b])
            for params, b in _unwitnessed(rows, everyone, range(m), k)]


def _unwitnessed(rows, pool: int, vertices, k: int):
    """Each graph configuration on at most k of ``vertices`` that no vertex
    of ``pool`` witnesses, as (params, colour index): by parameter count,
    then parameters, then colour index, whose bit i is the colour at
    params[i].  Consecutive permutations keep the pools of their shared
    prefix, as the build walk does."""
    levels = [[pool]]  # levels[d]: the 2**d pools of params[:d]
    last = ()
    for count in range(min(k, len(vertices)) + 1):
        for params in permutations(vertices, count):
            pools = _descend(levels, last, params, rows)
            last = params
            for b, found in enumerate(pools):
                if not found:
                    yield params, b


def check_rich(subset, g: Graph, k: int = 1) -> bool:
    """Does some subset of ``subset`` satisfy the k-extension property with
    all witnesses inside itself?  Exhaustive; refuses sets above the
    "vertices" work bound."""
    _natural(k, "k")
    vertices = tuple(sorted({_natural(v, "vertices") for v in subset}))
    for v in vertices:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"{v} is not a vertex of the graph")
    check_work("vertices", len(vertices), "rich check",
               f"the set has {len(vertices)} vertices")
    rows = g.masks
    for size in range(1, len(vertices) + 1):
        for inner in combinations(vertices, size):
            pool = sum(1 << v for v in inner)
            if next(_unwitnessed(rows, pool, inner, k), None) is None:
                return True
    return False


VERTICAL_PAIR = "x1=x2<y1<y2"


def color_vertical_pairs(cond: pointsets.FiniteCondition,
                         g: EdgeColoring) -> homogeneity.Coloring:
    """Color tied pairs of cond by the colour ``g.color`` gives their y's,
    which for a Graph is 1 on an edge and 0 off it.

    Pairs from different columns stay uncolored.  Every y-coordinate of
    cond must be a vertex of g.
    """
    for p in cond:
        if p.y >= g.vertex_count:
            raise ValueError(f"y-coordinate {p.y} is not a vertex")

    def rule(pts):
        a, b = pts
        if a.x != b.x:
            return None
        return g.color(a.y, b.y)

    return homogeneity.Coloring.from_rule(cond, 2, rule)


def build_coloring_covering(palette: int, max_vertex: int,
                            max_params: int) -> EdgeColoring:
    """Palette analogue of build_graph_covering."""
    count, table = _walk(palette, cap=(max_vertex, max_params))
    return EdgeColoring(count, palette, table)


@value
class ColumnVerdict:
    column: int
    points: int
    homogeneous: bool
    realizers: int


@value
class NoReverseReport:
    conditions: int
    columns_checked: int
    all_nonhomogeneous: bool
    failures: tuple[ColumnVerdict, ...]


def noreverse_demo(count: int = 50, seed: int = 0) -> NoReverseReport:
    """Adjacency coloring is never constant on a rich column.

    Builds the schedule graph, draws ``count`` conditions of one or two
    columns of 5 to 8 points each, the columns rich vertex sets (k = 1,
    verified by check_rich), colors tied pairs by adjacency, and checks
    each column for homogeneity.  All of them must fail.  Candidate
    columns are seeded with two disjoint edges so the rich check rarely
    rejects; the check still decides.  A count below 1 raises
    ValueError, since no column would be checked, and a count above the
    "conditions" work bound LimitError, before any work.
    """
    _natural(count, "count", 1)
    check_work("conditions", count, "noreverse demo", f"{count} conditions were asked for")
    g = build_graph_covering(6, 2)
    rng = random.Random(seed)
    tau = typecalc.parse_list_form(VERTICAL_PAIR)
    pool = list(range(3, g.vertex_count))
    edge_pool = [(u, v) for (u, v) in sorted(g.edges) if u >= 3 and v >= 3]
    verdicts: list[ColumnVerdict] = []
    conditions = 0
    while conditions < count:
        n_cols = rng.randint(1, 2)
        taken: set[int] = set()
        column_sets: list[list[int]] = []
        for _ in range(n_cols):
            free = [v for v in pool if v not in taken]
            pairs = [e for e in edge_pool if not (set(e) & taken)]
            disjoint = [(e1, e2) for e1 in pairs for e2 in pairs if not set(e1) & set(e2)]
            for _ in range(200):
                size = rng.randint(5, 8)
                if not disjoint or len(free) < size:
                    break
                e1, e2 = rng.choice(disjoint)
                core = set(e1) | set(e2)
                extras = [v for v in free if v not in core]
                if len(extras) < size - 4:
                    continue
                ys = core | set(rng.sample(extras, size - 4))
                if check_rich(ys, g, 1):
                    column_sets.append(sorted(ys))
                    taken |= ys
                    break
        if not column_sets:
            continue
        points = set()
        for x, ys in enumerate(column_sets):
            points |= {pointsets.Point(x, y) for y in ys}
        cond = pointsets.FiniteCondition(frozenset(points))
        coloring = color_vertical_pairs(cond, g)
        for x, ys in enumerate(column_sets):
            col_pts = [pointsets.Point(x, y) for y in ys]
            report = homogeneity.check_tau_homogeneous(col_pts, coloring, tau)
            verdicts.append(ColumnVerdict(
                column=x,
                points=len(col_pts),
                homogeneous=report.homogeneous,
                realizers=report.realizers,
            ))
        conditions += 1
    failures = tuple(v for v in verdicts if v.homogeneous)
    return NoReverseReport(
        conditions=conditions,
        columns_checked=len(verdicts),
        all_nonhomogeneous=not failures,
        failures=failures,
    )


@value
class PaletteDemoReport:
    palette: int
    classes_met: int
    all_colors: bool


def coloring_demo(palette: int, max_vertex: int = 4) -> PaletteDemoReport:
    """One column over the palette engine's vertices meets every color."""
    ec = build_coloring_covering(palette, max_vertex, 1)
    cond = pointsets.FiniteCondition(frozenset(
        pointsets.Point(0, v) for v in range(1, ec.vertex_count)
    ))
    coloring = color_vertical_pairs(cond, ec)
    met = homogeneity.count_classes_met(cond, coloring)
    return PaletteDemoReport(
        palette=palette, classes_met=met, all_colors=met == palette
    )


def graph_to_json(g: Graph) -> dict:
    return {
        "vertices": g.vertex_count,
        "edges": [[u, v] for (u, v) in sorted(g.edges)],
    }


def graph_from_json(doc: dict) -> Graph:
    """Read a graph document; malformed input raises ValueError naming
    its JSON path, e.g. ``edges[0][1]``."""
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise ValueError("graph document needs 'vertices' and 'edges'")
    count = _natural(doc["vertices"], "vertices")
    if not isinstance(doc["edges"], list):
        raise ValueError("edges: expected a list of vertex pairs")
    edges = set()
    for i, edge in enumerate(doc["edges"]):
        u, v = _naturals(edge, f"edges[{i}]", 2)
        if u == v or max(u, v) >= count:
            raise ValueError(f"edges[{i}]: bad edge {[u, v]} on {count} vertices")
        edges.add((min(u, v), max(u, v)))
    return Graph(count, edges)
