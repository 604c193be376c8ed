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
colour >= 1, plus their union.  The least witness is the lowest set bit
of ``all & ~params & AND(mask(a, c))``, where colour 0 ("none of the
others") takes the complement of the union.  ``EdgeColoring.masks``
holds these rows for a finished colouring, and a ``Graph`` is the
palette-2 ``EdgeColoring`` whose colour-1 pairs are its edges.

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
from itertools import combinations, islice, permutations, product

from ._values import field, value
from .errors import WORK_BOUNDS, _natural, _naturals, check_work
from .homogeneity import Coloring, check_tau_homogeneous, count_classes_met
from .pointsets import FiniteCondition, Point
from .typecalc import parse_list_form


def _witnesses(rows, pool: int, params, colors) -> int:
    """The vertices of ``pool`` outside ``params`` whose edge to each
    ``params[i]`` carries ``colors[i]``, as a bitmask.

    ``rows[a][c]`` for c >= 1 holds the vertices joined to ``a`` by colour
    c, and ``rows[a][0]`` their union, so colour 0 is its complement.
    """
    for a, c in zip(params, colors):
        row = rows[a]
        pool &= ~(1 << a) & (row[c] if c else ~row[0])
    return pool


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


def _targets(colors) -> frozenset[int]:
    """A palette-2 colour tuple as a graph configuration's target set."""
    return frozenset(i for i, c in enumerate(colors) if c)


def _schedule(palette: int, max_vertex: int | None = None,
              max_params: int | None = None):
    """(params, colours) pairs in the documented order, capped.

    Parameter counts stop at ``max_params`` and the walk stops before
    ``top`` reaches ``max_vertex``; None leaves that side open.  Only
    tuples that use ``top`` are generated, count * P(top, count - 1) per
    sorted list: at most 720 in step builds and 15,000 in coverings, but
    362,880 at top 8 of the unbounded ``configuration_schedule()``.
    """
    yield (), ()
    if max_params == 0:
        return
    top = 0
    while max_vertex is None or top < max_vertex:
        counts = top + 1 if max_params is None else min(top + 1, max_params)
        for count in range(1, counts + 1):
            # permutations(range(top), 0) would copy range(top) on every top
            tuples = [(top,)] if count == 1 else sorted(
                rest[:i] + (top,) + rest[i:]
                for rest in permutations(range(top), count - 1) for i in range(count))
            for params in tuples:
                for digits in product(range(palette), repeat=count):
                    yield params, digits[::-1]
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
        size = _natural(steps, "steps", 1)
        configs = islice(_schedule(palette), steps)
    else:
        max_vertex, max_params = cap
        _natural(max_vertex, "max_vertex")
        _natural(max_params, "max_params")
        size = _schedule_size(palette, max_vertex, max_params,
                              WORK_BOUNDS["configurations"])
        configs = _schedule(palette, max_vertex, max_params)
    check_work("configurations", size, "build",
               f"the schedule walk takes at least {size} configurations")
    rows = [[0] * palette]
    table: dict = {}
    for params, colors in configs:
        # The vertex pool is conceptually all naturals: a parameter the
        # walk has not reached yet is simply an isolated vertex so far.
        while params and len(rows) <= max(params):
            rows.append([0] * palette)
        if _witnesses(rows, (1 << len(rows)) - 1, params, colors):
            continue
        fresh = len(rows)
        row = [0] * palette
        for a, c in zip(params, colors):
            if c:
                rows[a][c] |= 1 << fresh
                rows[a][0] |= 1 << fresh
                row[c] |= 1 << a
                row[0] |= 1 << a
                table[(a, fresh)] = c
        rows.append(row)
    return len(rows), table


def configuration_schedule():
    """The canonical infinite configuration order; see the module doc."""
    for params, colors in _schedule(2):
        yield Configuration(params, _targets(colors))


def realize_configuration(g: Graph, cfg: Configuration):
    """Least witness vertex for cfg in g, or None."""
    for p in cfg.params:
        if p >= g.vertex_count:
            raise ValueError(f"parameter {p} is not a vertex of the graph")
    colors = [int(i in cfg.targets) for i in range(len(cfg.params))]
    found = _witnesses(g.masks, (1 << g.vertex_count) - 1, cfg.params, colors)
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
    return [Configuration(params, _targets(colors))
            for params, colors in _unwitnessed(rows, everyone, range(m), k)]


def _unwitnessed(rows, pool: int, vertices, k: int):
    """Each graph configuration on at most k of ``vertices`` that no vertex
    of ``pool`` witnesses, as (params, colours): by parameter count, then
    parameters, then colours little-endian."""
    for count in range(k + 1):
        for params in permutations(vertices, count):
            for digits in product((0, 1), repeat=count):
                if not _witnesses(rows, pool, params, digits[::-1]):
                    yield params, digits[::-1]


def check_rich(subset, g: Graph, k: int = 1) -> bool:
    """Does some subset of ``subset`` satisfy the k-extension property with
    all witnesses inside itself?  Exhaustive; refuses sets above the
    "vertices" work bound."""
    _natural(k, "k")
    vertices = tuple(sorted(set(subset)))
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


def color_vertical_pairs(cond: FiniteCondition, g: EdgeColoring) -> Coloring:
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

    return Coloring.from_rule(cond, 2, rule)


# the palette name of the same rule, kept for callers that use it
color_vertical_pairs_palette = color_vertical_pairs


def build_random_coloring(palette: int, steps: int) -> EdgeColoring:
    """Run the first ``steps`` palette-schedule entries from one vertex."""
    count, table = _walk(palette, steps=steps)
    return EdgeColoring(count, palette, table)


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
    tau = parse_list_form(VERTICAL_PAIR)
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
            points |= {Point(x, y) for y in ys}
        cond = FiniteCondition(frozenset(points))
        coloring = color_vertical_pairs(cond, g)
        for x, ys in enumerate(column_sets):
            col_pts = [Point(x, y) for y in ys]
            report = check_tau_homogeneous(col_pts, coloring, tau)
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
    cond = FiniteCondition(frozenset(
        Point(0, v) for v in range(1, ec.vertex_count)
    ))
    coloring = color_vertical_pairs(cond, ec)
    met = count_classes_met(cond, coloring)
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
