"""Independent brute-force reference implementations used by the tests.

Nothing here imports the enumeration, counting, or tail machinery it
checks: patterns are rebuilt from raw rank vectors filtered by the
defining clauses, planar membership is evaluated point by point, and
graph witnesses are found by scanning every vertex against adjacency
sets.  Slow on purpose; keep n and expression depth small.
"""

from itertools import combinations, permutations, product

from ramseybench.setalgebra import (
    AboveDiag,
    Column,
    Complement,
    FinitePoints,
    Intersection,
    Rect,
    Union,
)
from ramseybench.typecalc import NType, Symbol


def brute_force_ntypes(n: int) -> set[NType]:
    """Every n-pattern, by filtering all rank vectors on the 2n symbols.

    A rank vector assigns each symbol a level; normalization (levels form
    an initial segment) makes vectors correspond one-to-one with weak
    orders.  The defining clauses are then checked literally: y-levels
    strictly increasing, each x strictly below its y, and no y sharing a
    level with anything else.
    """
    syms = [Symbol("x", i) for i in range(1, n + 1)] + [
        Symbol("y", i) for i in range(1, n + 1)
    ]
    found = set()
    for vec in product(range(2 * n), repeat=2 * n):
        levels = sorted(set(vec))
        if levels != list(range(len(levels))):
            continue
        rank = dict(zip(syms, vec))
        if any(
            rank[Symbol("y", i)] >= rank[Symbol("y", i + 1)] for i in range(1, n)
        ):
            continue
        if any(rank[Symbol("x", i)] >= rank[Symbol("y", i)] for i in range(1, n + 1)):
            continue
        ok = True
        for i in range(1, n + 1):
            yi = Symbol("y", i)
            if any(s != yi and rank[s] == rank[yi] for s in syms):
                ok = False
                break
        if not ok:
            continue
        classes = []
        for level in range(len(levels)):
            classes.append(frozenset(s for s in syms if rank[s] == level))
        found.add(NType(n, tuple(classes)))
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


def weak_order_count(k: int) -> int:
    """Number of weak orders on k labeled items, counted by brute force."""
    total = 0
    for vec in product(range(k), repeat=k):
        levels = sorted(set(vec))
        if levels == list(range(len(levels))):
            total += 1
    return total if k else 1


def full_schedule(palette: int):
    """(params, colours) in the documented order, by enumerating every
    parameter count per top vertex and filtering on ``max(params) == top``."""
    yield (), ()
    top = 0
    while True:
        for count in range(1, top + 2):
            for params in permutations(range(top + 1), count):
                if max(params) != top:
                    continue
                for value in range(palette ** count):
                    yield params, tuple(
                        (value // palette ** i) % palette for i in range(count)
                    )
        top += 1


def schedule_walk(palette: int, steps=None, max_vertex=None, max_params=None):
    """The witness walk as the definition reads, slow on purpose.

    Runs ``full_schedule``.  Coverings skip entries with more than
    ``max_params`` parameters and stop at the first parameter reaching
    ``max_vertex``; step walks take the first ``steps`` entries.  Each
    entry scans every vertex for a witness; without one, a fresh vertex
    gets the demanded colours.  Returns the vertex count and the pairs of
    colour >= 1 as ``{(u, v): colour}``.
    """
    table = {}
    count = 1
    for step, (params, colors) in enumerate(full_schedule(palette)):
        if steps is not None and step >= steps:
            break
        if max_vertex is not None and params and max(params) >= max_vertex:
            break
        if max_params is not None and len(params) > max_params:
            continue
        if params:
            count = max(count, max(params) + 1)
        if any(
            b not in params
            and all(table.get((min(a, b), max(a, b)), 0) == c
                    for a, c in zip(params, colors))
            for b in range(count)
        ):
            continue
        for a, c in zip(params, colors):
            table[(a, count)] = c
        count += 1
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
    targets as an ascending bitmask."""
    out = []
    for count in range(k + 1):
        for params in permutations(range(m), count):
            for bits in range(1 << count):
                targets = frozenset(i for i in range(count) if bits >> i & 1)
                if least_witness(adj, params, targets) is None:
                    out.append((params, targets))
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
