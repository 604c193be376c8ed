"""The benchmark's own reference model of every CLI answer it checks.

Nothing here imports ramseybench: patterns, planar-set membership, graph
extension properties and homogeneity are recomputed from their
definitions, pointwise or by brute force, so a defect in the program
under test cannot hide behind the same defect in its checker.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

# Number of n-patterns for n = 1..6, pinned from the paper's counting
# formula; the program's enumeration and count must both reproduce it.
PATTERN_COUNTS = {1: 1, 2: 4, 3: 26, 4: 236, 5: 2752, 6: 39208}


# ---------------------------------------------------------------- patterns

def pattern_of(points) -> str:
    """List form of the pattern a valid point set realizes.

    Sort by y, name x_i / y_i after the i-th point, group symbols by
    coordinate value, and write the groups in ascending value order.
    """
    pts = sorted(points, key=lambda p: p[1])
    by_value: dict[int, list[tuple[str, int]]] = {}
    for i, (x, y) in enumerate(pts, start=1):
        by_value.setdefault(x, []).append(("x", i))
        by_value.setdefault(y, []).append(("y", i))
    return "<".join(
        "=".join(f"{k}{i}" for k, i in sorted(by_value[v]))
        for v in sorted(by_value)
    )


def pattern_problems(text: str, n: int) -> list[str]:
    """Clause violations of a list-form string read as an n-pattern."""
    problems = []
    position: dict[tuple[str, int], int] = {}
    for rank, segment in enumerate(text.split("<")):
        names = segment.split("=")
        if len(names) > 1 and any(not name.startswith("x") for name in names):
            problems.append(f"only x symbols may tie: {segment}")
        for name in names:
            if len(name) < 2 or name[0] not in "xy" or not name[1:].isdigit():
                problems.append(f"bad symbol {name!r}")
                continue
            sym = (name[0], int(name[1:]))
            if sym in position:
                problems.append(f"repeated symbol {name}")
            position[sym] = rank
    expected = {(k, i) for k in "xy" for i in range(1, n + 1)}
    if set(position) != expected:
        problems.append(f"symbols are not x1..x{n}, y1..y{n}")
        return problems
    for i in range(1, n):
        if position[("y", i)] >= position[("y", i + 1)]:
            problems.append(f"y{i} must precede y{i + 1}")
    for i in range(1, n + 1):
        if position[("x", i)] >= position[("y", i)]:
            problems.append(f"x{i} must precede y{i}")
    return problems


def _weak_orders(items):
    """Every ordered set partition of items (as tuples of blocks)."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for order in _weak_orders(rest):
        for k in range(len(order)):
            yield order[:k] + (order[k] + (first,),) + order[k + 1:]
        for k in range(len(order) + 1):
            yield order[:k] + ((first,),) + order[k:]


@lru_cache(maxsize=None)
def all_patterns(n: int) -> tuple[str, ...]:
    """Every n-pattern, found by filtering all weak orders of 2n symbols."""
    symbols = tuple(f"{k}{i}" for k in "xy" for i in range(1, n + 1))
    out = set()
    for order in _weak_orders(symbols):
        text = "<".join(
            "=".join(sorted(block, key=lambda s: (s[0], int(s[1:]))))
            for block in order
        )
        if not pattern_problems(text, n):
            out.add(text)
    return tuple(sorted(out))


def fresh_realizer(pattern: str, base: int) -> list[list[int]]:
    """Points realizing a list-form pattern on values base, base+1, ..."""
    value = {}
    for offset, segment in enumerate(pattern.split("<")):
        for name in segment.split("="):
            value[name] = base + offset
    n = len(value) // 2
    return [[value[f"x{i}"], value[f"y{i}"]] for i in range(1, n + 1)]


def condition_problems(points) -> list[str]:
    """The three condition clauses, checked directly."""
    problems = []
    ys = [y for _, y in points]
    if len(set(ys)) != len(ys):
        problems.append("two points share a y")
    if any(x >= y for x, y in points):
        problems.append("a point is not above the diagonal")
    if {x for x, _ in points} & set(ys):
        problems.append("a value is both an x and a y")
    return problems


class ConditionScan:
    """All n-subsets of a condition in lexicographic y-sequence order,
    with the least realizer and the subset count of each pattern."""

    def __init__(self, points, n: int):
        pts = sorted((tuple(p) for p in points), key=lambda p: p[1])
        self.least: dict[str, list[list[int]]] = {}
        self.counts: dict[str, int] = {}
        for combo in combinations(pts, n):
            form = pattern_of(combo)
            if form not in self.least:
                self.least[form] = [list(p) for p in combo]
                self.counts[form] = 0
            self.counts[form] += 1


def grow(points, n: int) -> list[list[int]]:
    """Append a fresh realizer above everything for each missing pattern.

    Only subsets meeting the newest block can realize something new, so
    the realized set is updated from those alone.
    """
    current = [list(p) for p in points]
    realized = set(ConditionScan(current, n).least) if len(current) >= n else set()
    for pattern in all_patterns(n):
        if pattern in realized:
            continue
        used = [v for p in current for v in p]
        block = fresh_realizer(pattern, max(used) + 1 if used else 0)
        old = [tuple(p) for p in current]
        new = [tuple(p) for p in block]
        for k in range(1, n + 1):
            for tail in combinations(new, k):
                for head in combinations(old, n - k):
                    realized.add(pattern_of(head + tail))
        current.extend(block)
    return current


# ---------------------------------------------------------------- colorings

def homogeneity(subset, coloring: dict, pattern: str):
    """(homogeneous, color, realizers, vacuous) of subset for one pattern,
    colors read from a {frozenset of points: color} table."""
    n = (pattern.count("x") + pattern.count("y")) // 2
    pts = sorted((tuple(p) for p in subset), key=lambda p: p[1])
    colors = set()
    realizers = 0
    for combo in combinations(pts, n):
        if pattern_of(combo) != pattern:
            continue
        realizers += 1
        c = coloring.get(frozenset(combo))
        if c is not None:
            colors.add(c)
    color = next(iter(colors)) if len(colors) == 1 else None
    return len(colors) <= 1, color, realizers, not colors


# ---------------------------------------------------------------- graphs

def adjacency(vertices: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(vertices)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def unsatisfied_configurations(adj, k: int, m: int) -> list[tuple]:
    """Configurations (params, targets) with <= k params among the first
    m vertices that no vertex of the graph witnesses."""
    out = []
    for count in range(k + 1):
        for params in permutations(range(m), count):
            for bits in range(1 << count):
                targets = {i for i in range(count) if bits >> i & 1}
                if not any(
                    b not in params
                    and all((a in adj[b]) == (i in targets)
                            for i, a in enumerate(params))
                    for b in range(len(adj))
                ):
                    out.append((params, sorted(targets)))
    return out


def covering_graph(max_vertex: int, max_params: int):
    """A graph with the (max_params, max_vertex) extension property.

    Every configuration among the first max_vertex vertices lacking a
    witness gets a fresh vertex adjacent to exactly its targets; earlier
    witnesses survive because fresh vertices never touch old pairs.
    """
    adj: list[set[int]] = [set() for _ in range(max_vertex)]
    for count in range(max_params + 1):
        for params in permutations(range(max_vertex), count):
            for bits in range(1 << count):
                targets = {params[i] for i in range(count) if bits >> i & 1}
                if any(b not in params
                       and all((a in adj[b]) == (a in targets) for a in params)
                       for b in range(len(adj))):
                    continue
                fresh = len(adj)
                adj.append(set(targets))
                for a in targets:
                    adj[a].add(fresh)
    edges = sorted((u, v) for u in range(len(adj)) for v in adj[u] if u < v)
    return len(adj), edges


def is_rich(adj, vertices, k: int) -> bool:
    """Does some nonempty subset of vertices witness every configuration
    of <= k of its own members from inside itself?"""
    vertices = sorted(set(vertices))
    for size in range(1, len(vertices) + 1):
        for inner in combinations(vertices, size):
            if _extends_inside(adj, inner, k):
                return True
    return False


def _extends_inside(adj, inner, k: int) -> bool:
    for count in range(k + 1):
        for params in permutations(inner, count):
            for bits in range(1 << count):
                targets = {i for i in range(count) if bits >> i & 1}
                if not any(
                    b not in params
                    and all((a in adj[b]) == (i in targets)
                            for i, a in enumerate(params))
                    for b in inner
                ):
                    return False
    return True


# ---------------------------------------------------------------- set algebra

def fincofin_contains(doc: dict, v: int) -> bool:
    if "finite" in doc:
        return v in doc["finite"]
    return v not in doc["cofinite"]


def expr_member(doc: dict, x: int, y: int) -> bool:
    """Pointwise membership of (x, y) in a planar-set expression document."""
    if "op" in doc:
        args = doc["args"]
        if doc["op"] == "union":
            return any(expr_member(a, x, y) for a in args)
        if doc["op"] == "intersection":
            return all(expr_member(a, x, y) for a in args)
        return not expr_member(args[0], x, y)
    if "points" in doc:
        return [x, y] in doc["points"]
    if "rect" in doc:
        return (fincofin_contains(doc["rect"]["x"], x)
                and fincofin_contains(doc["rect"]["y"], y))
    if "aboveDiag" in doc:
        return y > x
    col = doc["column"]
    return col["x"] == x and fincofin_contains(col["content"], y)


def largest_constant(doc) -> int:
    """Largest integer anywhere in a JSON document (0 if none)."""
    if isinstance(doc, bool):
        return 0
    if isinstance(doc, int):
        return doc
    if isinstance(doc, dict):
        return max((largest_constant(v) for v in doc.values()), default=0)
    if isinstance(doc, list):
        return max((largest_constant(v) for v in doc), default=0)
    return 0


def section_matches(expr: dict, x: int, section: dict, bound: int) -> bool:
    """Does a finite/cofinite answer equal the column of expr at x?

    Beyond every constant of the expression and of the answer, a column
    is constant, so checking y < bound plus one far y decides it.
    """
    far = bound + x + 7
    return all(
        expr_member(expr, x, y) == fincofin_contains(section, y)
        for y in list(range(bound + x + 2)) + [far]
    )


def standin_holds(standin: dict, member_at) -> bool:
    """Apply a Frechet/principal stand-in to a set given by membership."""
    if "frechet" in standin:
        return member_at(None)
    return member_at(standin["principal"])


# ---------------------------------------------------------------- omega prefixes

def prefix_report(classes) -> tuple[bool, bool]:
    """(malformed, ok) of a class list under the prefix rules."""
    seen_x: set[int] = set()
    seen_y: set[int] = set()
    for cls in classes:
        if "x" in cls:
            if seen_x & set(cls["x"]):
                return True, False
            seen_x |= set(cls["x"])
        else:
            if cls["y"] in seen_y:
                return True, False
            seen_y.add(cls["y"])
    housed: set[int] = set()
    last_y = 0
    for cls in classes:
        if "x" in cls:
            housed |= set(cls["x"])
            continue
        if cls["y"] <= last_y or cls["y"] not in housed:
            return False, False
        last_y = cls["y"]
    return False, True


def x_position(classes, index: int):
    for pos, cls in enumerate(classes):
        if "x" in cls and index in cls["x"]:
            return pos
    return None


def phi_points(classes, z) -> list[list[int]]:
    points = []
    for pos, cls in enumerate(classes):
        if "y" in cls:
            xpos = x_position(classes, cls["y"])
            if xpos is not None:
                points.append([z[xpos], z[pos]])
    return sorted(points, key=lambda p: p[1])


def demanded_label(classes, s) -> str:
    cls = classes[len(s)]
    if "x" in cls:
        return "U"
    return f"V_{s[x_position(classes, cls['y'])]}"


# ---------------------------------------------------------------- tables

def flatten(value, path=""):
    """(path, leaf) rows of a payload, as ``--format table`` prints them."""
    if isinstance(value, dict) and value:
        rows = []
        for k, v in value.items():
            rows.extend(flatten(v, f"{path}.{k}" if path else str(k)))
        return rows
    if isinstance(value, list) and value:
        rows = []
        for i, v in enumerate(value):
            rows.extend(flatten(v, f"{path}.{i}" if path else str(i)))
        return rows
    return [(path or ".", value)]
