"""Seeded call tables for the four workloads.

Each workload function writes its input documents into a directory and
returns the fixed list of ``ramseybench`` calls to run, one ``Call`` per
line of the table.  All inputs come from this file's own seeded generators, never
from the library's ``random_*`` helpers, so a change to the library
cannot change the workload.  Every call carries a check that judges its
output with ``model`` alone.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from math import comb

import model

SEARCH_LIMITS = json.dumps({"search": 18})


@dataclass
class Call:
    kind: str                 # call kind, the unit of the per-kind medians
    argv: list[str]           # arguments after the program name
    action: str               # schema ``$defs`` entry of the payload
    check: object = None      # payload -> list of problems (exit 0 only)
    exit_code: int = 0
    error_kind: str | None = None   # expected ``kind`` of an error payload
    table: bool = False       # ``--format table``: check against the JSON twin
    follows: bool = False     # must run right after the call before it
    env: dict = field(default_factory=dict)


class Inputs:
    """Writes numbered input documents into one directory."""

    def __init__(self, directory: str):
        self.directory = directory
        self.count = 0

    def write(self, doc, suffix: str = "json") -> str:
        self.count += 1
        path = os.path.join(self.directory, f"in{self.count:03d}.{suffix}")
        with open(path, "w") as fh:
            if suffix == "json":
                json.dump(doc, fh)
            else:
                fh.write(doc)
        return path


# ---------------------------------------------------------------- generators

def gen_condition(rng: random.Random, size: int, tie: float = 0.5) -> list[list[int]]:
    """A valid condition of ``size`` points; about ``tie`` of the points
    reuse an earlier column, so tied patterns occur."""
    value = 0
    xs: list[int] = []
    points = []
    for _ in range(size):
        if xs and rng.random() < tie:
            x = rng.choice(xs)
        else:
            value += rng.randint(1, 3)
            x = value
            xs.append(x)
        value += rng.randint(1, 3)
        points.append([x, value])
    return points


def gen_fincofin(rng: random.Random, bound: int = 12) -> dict:
    key = "cofinite" if rng.random() < 0.5 else "finite"
    return {key: sorted(rng.sample(range(bound), rng.randint(0, 5)))}


def gen_expression(rng: random.Random, depth: int, bound: int = 12) -> dict:
    """A planar-set expression whose deepest branch has ``depth`` operators."""
    if depth == 0:
        kind = rng.randrange(4)
        if kind == 0:
            return {"points": [list(p) for p in sorted(
                {(rng.randrange(bound), rng.randrange(bound)) for _ in range(rng.randint(0, 5))})]}
        if kind == 1:
            return {"rect": {"x": gen_fincofin(rng, bound), "y": gen_fincofin(rng, bound)}}
        if kind == 2:
            return {"aboveDiag": True}
        return {"column": {"x": rng.randrange(bound), "content": gen_fincofin(rng, bound)}}
    op = rng.choice(("union", "intersection", "complement"))
    if op == "complement":
        return {"op": op, "args": [gen_expression(rng, depth - 1, bound)]}
    args = [gen_expression(rng, depth - 1, bound)]
    args += [gen_expression(rng, rng.randrange(depth), bound)
             for _ in range(rng.randint(1, 2))]
    rng.shuffle(args)
    return {"op": op, "args": args}


def gen_prefix(rng: random.Random, classes: int) -> list[dict]:
    """A valid prefix: fresh x-classes, y-classes of housed indices rising."""
    out: list[dict] = []
    next_x = 1
    housed: list[int] = []
    last_y = 0
    while len(out) < classes:
        ready = [j for j in housed if j > last_y]
        if ready and rng.random() < 0.55:
            last_y = rng.choice(ready)
            out.append({"y": last_y})
        else:
            size = rng.randint(1, 3)
            out.append({"x": list(range(next_x, next_x + size))})
            housed.extend(range(next_x, next_x + size))
            next_x += size
    return out


def gen_chain(rng: random.Random, length: int) -> list[int]:
    return sorted(rng.sample(range(1, 4 * length + 4), length))


def planted_coloring(rng: random.Random, ground, n: int, colors: int, defects: int):
    """Color every n-subset 0, then recolor ``defects`` pairwise disjoint
    realizers of one pattern.  The largest homogeneous set then misses one
    point of each, which keeps exact search cost steady across seeds.  The
    pattern is the most frequent one that has enough disjoint realizers;
    each pattern gets twenty shuffles, and if none succeeds, one defect
    fewer is planted.

    Returns the table, the pattern and the number of defects planted."""
    pts = sorted(map(tuple, ground), key=lambda p: p[1])
    by_pattern: dict[str, list] = {}
    for combo in itertools.combinations(pts, n):
        by_pattern.setdefault(model.pattern_of(combo), []).append(combo)
    for pattern, _ in itertools.product(
            sorted(by_pattern, key=lambda t: (-len(by_pattern[t]), t)), range(20)):
        realizers = list(by_pattern[pattern])
        rng.shuffle(realizers)
        chosen: list = []
        used: set = set()
        for combo in realizers:
            if len(chosen) < defects and not used & set(combo):
                chosen.append(combo)
                used |= set(combo)
        if len(chosen) == defects:
            table = {frozenset(c): 0 for cs in by_pattern.values() for c in cs}
            for combo in chosen:
                table[frozenset(combo)] = rng.randint(1, colors - 1)
            return table, pattern, defects
    return planted_coloring(rng, ground, n, colors, defects - 1)


def coloring_json(table: dict, n: int) -> dict:
    entries = [{"subset": sorted(map(list, key), key=lambda p: p[1]), "color": c}
               for key, c in table.items()]
    return {"n": n, "entries": entries}


def coloring_csv(table: dict) -> str:
    lines = []
    for key, c in table.items():
        coords = [v for p in sorted(key, key=lambda p: p[1]) for v in p]
        lines.append(",".join(map(str, coords + [c])))
    return "\n".join(lines) + "\n"


def gen_graph(rng: random.Random, vertices: int, density: float = 0.5):
    edges = [[u, v] for u in range(vertices) for v in range(u + 1, vertices)
             if rng.random() < density]
    return {"vertices": vertices, "edges": edges}


# ---------------------------------------------------------------- checks

def expect(cond: bool, message: str) -> list[str]:
    return [] if cond else [message]


def check_count(n: int):
    return lambda p: expect(p["t"] == model.PATTERN_COUNTS[n], f"T({n}) = {p['t']}")


def check_enum(n: int):
    def check(p):
        problems = expect(p["n"] == n and p["count"] == model.PATTERN_COUNTS[n]
                          == len(p["types"]), f"enum n={n} count {p['count']}")
        problems += expect(len(set(p["types"])) == len(p["types"]), "repeated pattern")
        for text in p["types"]:
            if model.pattern_problems(text, n):
                return problems + [f"not a {n}-pattern: {text}"]
        return problems
    return check


def check_grow(base, n: int):
    def check(p):
        cond = p["condition"]
        problems = expect(p["before"] == len(base) and p["after"] == len(cond)
                          and p["added"] == len(cond) - len(base), "grow sizes")
        problems += model.condition_problems(cond)
        problems += expect({tuple(q) for q in base} <= {tuple(q) for q in cond},
                           "grown condition lost an input point")
        realized = set(model.ConditionScan(cond, n).least)
        problems += expect(realized == set(model.all_patterns(n)),
                           f"grown condition misses {len(model.all_patterns(n)) - len(realized)} patterns")
        return problems
    return check


def check_classify(scans, points, n: int):
    def check(p):
        scan = scans(points, n)
        problems = expect(p["subsets"] == comb(len(points), n), "classify subsets != C(N, n)")
        problems += expect(p["t_n"] == model.PATTERN_COUNTS[n], "classify t_n")
        problems += expect(p["classes_met"] == len(p["by_type"]), "classify classes_met")
        problems += expect(p["by_type"] == scan.counts, "classify by_type")
        return problems
    return check


def check_realize(scans, points, pattern: str):
    def check(p):
        least = scans(points, pattern.count("y")).least.get(pattern)
        problems = expect(p["type"] == pattern, "realize echoes another pattern")
        problems += expect(p["found"] == (least is not None), "realize found")
        problems += expect(p["realizer"] == least, f"realize {pattern}: not the least realizer")
        return problems
    return check


def check_floor(n: int):
    t = model.PATTERN_COUNTS[n]
    return lambda p: expect(p["floor_holds"] and p["classes_met"] == p["t_n"] == t,
                            f"floor n={n} does not hold on a grown condition")


# ---------------------------------------------------------------- tables

def touches(inputs: Inputs, rng: random.Random, *layers: str) -> list[Call]:
    """One cheap call into each named layer that a workload would otherwise
    leave idle, so every layer's span is live on every traced run."""
    calls = []
    if "randomgraph" in layers:
        calls.append(steps_call(rng.randint(20, 40)))
    if "setalgebra" in layers:
        calls += _sets_calls(inputs, rng, 1, ("column",))
    if "omegatypes" in layers:
        calls += _omega_calls(inputs, rng, 1, ("assignd",))
    return calls


def conditions(inputs: Inputs, rng: random.Random, scans) -> list[Call]:
    calls: list[Call] = []
    for n in range(1, 7):
        calls.append(Call(f"types.count.n{n}", ["types", "count", "--n", str(n)],
                          "types.count", check_count(n)))
    for n in (4, 5, 6):
        calls.append(Call(f"types.enum.n{n}", ["types", "enum", "--n", str(n)],
                          "types.enum", check_enum(n)))
    for n in (2, 3):
        calls.append(Call(f"cond.grow.n{n}.empty", ["cond", "grow", "--n", str(n)],
                          "cond.grow", check_grow([], n)))
    for n, size in ((2, 60), (3, 20), (3, 40)):
        base = gen_condition(rng, size)
        calls.append(Call(f"cond.grow.n{n}.seeded{size}",
                          ["cond", "grow", "--n", str(n), "--cond", inputs.write(base)],
                          "cond.grow", check_grow(base, n)))
    # Nine classify calls of nearly equal cost sit where the tail
    # percentile falls, so the tail reads a typical call, not a rank edge.
    for n, size in [(2, 20), (2, 60)] + [(3, size) for size in range(52, 61)]:
        points = gen_condition(rng, size)
        calls.append(Call(f"cond.classify.n{n}.seeded{size}",
                          ["cond", "classify", "--n", str(n), "--cond", inputs.write(points)],
                          "cond.classify", check_classify(scans, points, n)))
    for n, base_size in ((2, 10), (3, 0)):
        grown = model.grow(gen_condition(rng, base_size), n)
        path = inputs.write(grown)
        if n == 3:
            calls.append(Call("cond.classify.n3.grown",
                              ["cond", "classify", "--n", "3", "--cond", path],
                              "cond.classify", check_classify(scans, grown, 3)))
        calls.append(Call(f"homog.floor.n{n}.grown",
                          ["homog", "floor", "--n", str(n), "--cond", path],
                          "homog.floor", check_floor(n)))
    points = gen_condition(rng, 30)
    path = inputs.write(points)
    for pattern in model.all_patterns(3):
        calls.append(Call("cond.realize.n3.seeded30",
                          ["cond", "realize", "--cond", path, "--type", pattern],
                          "cond.realize", check_realize(scans, points, pattern)))
    return calls + touches(inputs, rng, "randomgraph", "setalgebra", "omegatypes")


def steps_call(steps: int) -> Call:
    return Call("graph.build.steps", ["graph", "build", "--steps", str(steps)],
                "graph.build", check_steps(steps))


def schedule(count: int) -> list[tuple]:
    """The first ``count`` configurations of the documented schedule: the
    empty one, then per top vertex t, by parameter count, the parameter
    tuples over 0..t that use t, each with every target bitmask."""
    out = [((), ())]
    top = 0
    while len(out) < count:
        for size in range(1, top + 2):
            for params in itertools.permutations(range(top + 1), size):
                if max(params) != top:
                    continue
                for bits in range(1 << size):
                    out.append((params, [i for i in range(size) if bits >> i & 1]))
        top += 1
    return out[:count]


def _graph_problems(p) -> tuple[list[str], list]:
    edges = p["edges"]
    problems = expect(p["edge_count"] == len(edges), "edge_count")
    problems += expect(edges == sorted(edges) and len({tuple(e) for e in edges}) == len(edges)
                       and all(0 <= u < v < p["vertices"] for u, v in edges), "bad edge list")
    return problems, model.adjacency(p["vertices"], edges)


def check_steps(steps: int):
    def check(p):
        problems, adj = _graph_problems(p)
        if problems:
            return problems
        for params, targets in schedule(steps):
            if not any(b not in params and all((a in adj[b]) == (i in targets)
                                               for i, a in enumerate(params))
                       for b in range(len(adj))):
                return [f"schedule entry {params}/{targets} has no witness"]
        return []
    return check


def check_covering(vertices: int, params: int):
    def check(p):
        problems, adj = _graph_problems(p)
        problems += expect(p["vertices"] >= vertices, "covering is too small")
        if not problems:
            problems += expect(not model.unsatisfied_configurations(adj, params, vertices),
                               f"covering ({vertices},{params}) lacks a witness")
        return problems
    return check


def check_extension(graph: dict, k: int, m: int, covered: bool):
    def check(p):
        own = model.unsatisfied_configurations(
            model.adjacency(graph["vertices"], graph["edges"]), k, m)
        want = [{"params": list(ps), "targets": ts} for ps, ts in own]
        problems = expect(p["k"] == k and p["m"] == m, "check echoes k, m")
        problems += expect(p["satisfied"] == (not own) and p["unsatisfied"] == want,
                           "extension property verdict")
        problems += expect(not covered or p["satisfied"],
                           "a covering fails the check within its bounds")
        return problems
    return check


def planted_graph(rng: random.Random):
    """Three regions on 44 vertices: a matching (rich for k = 1), a star and
    a clique (never rich); the two last vertices join everything at random."""
    edges = set()
    matching = list(range(0, 14))
    star = list(range(14, 28))
    clique = list(range(28, 42))
    for i in range(0, 14, 2):
        edges.add((i, i + 1))
    center = rng.choice(star)
    edges |= {(min(center, v), max(center, v)) for v in star if v != center}
    edges |= {(u, v) for u in clique for v in clique if u < v}
    for u in (42, 43):
        edges |= {(v, u) for v in range(u) if rng.random() < 0.5}
    return {"vertices": 44, "edges": sorted(map(list, edges))}, matching, star, clique


def graphs(inputs: Inputs, rng: random.Random, scans) -> list[Call]:
    calls: list[Call] = []
    for vertices, params in ((4, 1), (5, 1), (6, 1), (4, 2), (5, 2), (6, 2), (7, 2),
                             (4, 3), (5, 3), (6, 3)):
        calls.append(Call(f"graph.build.cover{vertices}x{params}",
                          ["graph", "build", "--cover-vertices", str(vertices),
                           "--cover-params", str(params)],
                          "graph.build", check_covering(vertices, params)))
    # Ten calls of nearly equal, seed-independent cost sit where the tail
    # percentile falls, so the tail reads a typical call.
    for steps in [rng.randint(200, 400)] + [rng.randint(3000, 3100) for _ in range(10)]:
        calls.append(steps_call(steps))
    for vertices, params in ((5, 2), (6, 2), (6, 3)):
        n_vertices, edges = model.covering_graph(vertices, params)
        graph = {"vertices": n_vertices, "edges": [list(e) for e in edges]}
        path = inputs.write(graph)
        for k in range(min(params, 2) + 1):
            calls.append(Call(f"graph.check.cover.k{k}",
                              ["graph", "check", "--in", path, "--k", str(k),
                               "--m", str(vertices)],
                              "graph.check", check_extension(graph, k, vertices, True)))
    for n_vertices in (16, 24, 32):
        graph = gen_graph(rng, n_vertices)
        path = inputs.write(graph)
        for k, m in ((1, 8), (2, 5)):
            calls.append(Call(f"graph.check.random{n_vertices}.k{k}",
                              ["graph", "check", "--in", path, "--k", str(k), "--m", str(m)],
                              "graph.check", check_extension(graph, k, m, False)))
    graph, matching, star, clique = planted_graph(rng)
    path = inputs.write(graph)
    adj = model.adjacency(graph["vertices"], graph["edges"])
    for label, region, sizes in (("rich", matching, (6, 9, 12)),
                                 ("star", star, (6, 8)), ("clique", clique, (6, 8))):
        for size in sizes:
            vertices = sorted(rng.sample(region, size))
            rich = model.is_rich(adj, vertices, 1)
            calls.append(Call(f"graph.rich.{label}{size}",
                              ["graph", "rich", "--in", path, "--vertices",
                               ",".join(map(str, vertices)), "--k", "1"],
                              "graph.rich",
                              lambda p, rich=rich: expect(p["rich"] == rich, "rich verdict")))
    for count, seed in ((50, 0), (rng.randint(2, 4), rng.randrange(1000))):
        calls.append(Call(f"graph.demo-noreverse.count{'50' if count == 50 else 'seeded'}",
                          ["graph", "demo-noreverse", "--count", str(count), "--seed", str(seed)],
                          "graph.demo-noreverse",
                          lambda p, c=count: expect(
                              p["conditions"] == c and p["all_nonhomogeneous"]
                              and not p["failures"], "noreverse demo failed")))
    for palette, max_vertex in ((2, 4), (3, 4), (4, 4), (5, 4), (4, 5), (5, 5)):
        calls.append(Call(f"graph.demo-coloring.p{palette}.v{max_vertex}",
                          ["graph", "demo-coloring", "--palette", str(palette),
                           "--max-vertex", str(max_vertex)],
                          "graph.demo-coloring",
                          lambda p, k=palette: expect(
                              p["palette"] == k and p["classes_met"] == k and p["all_colors"],
                              "palette demo misses a color")))
    return calls + touches(inputs, rng, "setalgebra", "omegatypes")


# ---------------------------------------------------------------- search

def check_search(ground, table, pattern, min_size, registry, key, exact, least):
    def check(p):
        subset = [tuple(q) for q in p["subset"]]
        problems = expect(set(subset) <= {tuple(q) for q in ground}, "subset leaves the ground")
        problems += expect(p["size"] == len(subset) == len(set(subset)), "search size")
        problems += expect(p["exact"] == exact and p["mode"] == ("exact" if exact else "greedy"),
                           "search mode")
        problems += expect(p["met_min_size"] == (p["size"] >= min_size), "met_min_size")
        homogeneous, color, _, _ = model.homogeneity(subset, table, pattern)
        problems += expect(homogeneous and p["color"] == color,
                           "search answer is not homogeneous")
        if exact:
            problems += expect(p["size"] >= least, "exact search below the planted bound")
            registry[key] = p["size"]
        else:
            problems += expect(p["size"] <= registry.get(key, len(ground)),
                               "greedy beat exact search")
        return problems
    return check


def check_homog(subset, table, pattern):
    homogeneous, color, realizers, vacuous = model.homogeneity(subset, table, pattern)
    return lambda p: expect(
        (p["homogeneous"], p["color"], p["realizers"], p["vacuous"])
        == (homogeneous, color, realizers, vacuous), "homogeneity verdict")


def _coloring_files(inputs: Inputs, rng: random.Random, m: int, n: int,
                    colors: int, defects: int, csv: bool):
    ground = gen_condition(rng, m)
    table, pattern, defects = planted_coloring(rng, ground, n, colors, defects)
    if csv:
        table = {k: str(c) for k, c in table.items()}
        args = ["--csv", inputs.write(coloring_csv(table), "csv")]
    else:
        args = ["--in", inputs.write(coloring_json(table, n))]
    return ground, table, pattern, args, defects


def search(inputs: Inputs, rng: random.Random, scans) -> list[Call]:
    env = {"NBT_WORKBENCH_LIMITS": SEARCH_LIMITS}
    calls: list[Call] = []
    registry: dict = {}
    # (ground size, n, colors, planted defects); exact search cost grows
    # with the defects, since it scans every larger subset first.
    slots = [(10, 2, 2, 3), (12, 3, 3, 3), (14, 2, 3, 5), (15, 3, 2, 4),
             (16, 2, 2, 7), (16, 3, 3, 4), (17, 2, 3, 7), (17, 3, 2, 5),
             (18, 2, 2, 8), (18, 3, 3, 5), (18, 2, 3, 8), (18, 3, 2, 5)]
    for i, (m, n, colors, defects) in enumerate(slots):
        fmt = "csv" if i % 2 else "json"
        ground, table, pattern, args, defects = _coloring_files(
            inputs, rng, m, n, colors, defects, fmt == "csv")
        min_size = rng.randint(m - defects - 2, m)
        key = args[1]
        for mode in ("exact", "greedy"):
            calls.append(Call(f"homog.search.{mode}.m{m}.n{n}.{fmt}",
                              ["homog", "search", *args, "--type", pattern, "--mode", mode,
                               "--min-size", str(min_size)],
                              "homog.search",
                              check_search(ground, table, pattern, min_size, registry, key,
                                           mode == "exact", m - defects),
                              env=env, follows=mode == "greedy"))
        if i % 4 < 2:
            calls.append(Call(f"homog.check.m{m}.n{n}.{fmt}",
                              ["homog", "check", *args, "--type", pattern],
                              "homog.check", check_homog(ground, table, pattern), env=env))
        else:
            part = rng.sample(ground, m // 2)
            calls.append(Call(f"homog.check.part.m{m}.n{n}.{fmt}",
                              ["homog", "check", *args, "--cond", inputs.write(part),
                               "--type", pattern],
                              "homog.check", check_homog(part, table, pattern), env=env))
    for m, n in ((24, 2), (24, 3), (30, 2), (30, 3)):
        ground, table, pattern, args, _ = _coloring_files(inputs, rng, m, n, 3, 4, False)
        calls.append(Call(f"homog.search.greedy.m{m}.n{n}.json",
                          ["homog", "search", *args, "--type", pattern, "--mode", "greedy"],
                          "homog.search",
                          check_search(ground, table, pattern, 0, registry, None, False, 0),
                          env=env))
    for m in (19, 20):
        _, _, pattern, args, _ = _coloring_files(inputs, rng, m, 2, 2, 2, False)
        calls.append(Call(f"homog.search.refused.m{m}",
                          ["homog", "search", *args, "--type", pattern],
                          "error", exit_code=1, error_kind="LimitError", env=env))
    return calls + touches(inputs, rng, "randomgraph", "setalgebra", "omegatypes")


# ---------------------------------------------------------------- set algebra

def _bound(*docs) -> int:
    return max(model.largest_constant(d) for d in docs) + 2


def check_column(expr, x):
    return lambda p: expect(
        p["x"] == x and model.section_matches(expr, x, p["column"], _bound(expr, p)),
        "column differs from pointwise membership")


def check_tail(expr):
    def check(p):
        bound = _bound(expr, p)
        for x in (p["horizon"], p["horizon"] + 1, p["horizon"] + 2, bound + 3):
            far = bound + x + 7
            for y in list(range(bound + x + 2)) + [far]:
                want = model.fincofin_contains(p["upper"] if y > x else p["lower"], y)
                if model.expr_member(expr, x, y) != want:
                    return [f"tail form wrong at ({x}, {y})"]
        return []
    return check


def check_far_character(expr, key):
    bound = _bound(expr)
    want = model.expr_member(expr, bound + 3, 3 * bound + 20)
    return lambda p: expect(p[key] == want, f"{key} differs from the far columns")


def _verdict(expr, seq, k, bound):
    standin = seq.get("exceptions", {}).get(str(k), seq["default"])
    return model.standin_holds(
        standin, lambda y: model.expr_member(expr, k, bound + k + 7 if y is None else y))


def check_sum(expr, u, seq):
    def check(p):
        bound = _bound(expr, u, seq, p)
        vs = p["verdict_set"]
        problems = []
        for k in list(range(bound + 2)) + [bound + 9]:
            if model.fincofin_contains(vs, k) != _verdict(expr, seq, k, bound):
                problems.append(f"verdict at {k}")
                break
        problems += expect(p["member"] == model.standin_holds(
            u, lambda y: "cofinite" in vs if y is None else model.fincofin_contains(vs, y)),
            "sum membership")
        return problems
    return check


def gen_standin(rng: random.Random) -> dict:
    return {"frechet": True} if rng.random() < 0.5 else {"principal": rng.randrange(10)}


def gen_sequence(rng: random.Random) -> dict:
    return {"default": gen_standin(rng),
            "exceptions": {str(k): gen_standin(rng)
                           for k in rng.sample(range(10), rng.randint(0, 3))}}


def _sets_calls(inputs: Inputs, rng: random.Random, count: int, actions) -> list[Call]:
    calls = []
    for action in actions:
        for _ in range(count):
            depth = rng.randint(2, 6)
            expr = gen_expression(rng, depth)
            path = inputs.write(expr)
            kind = f"sets.{action}"
            if action == "column":
                x = rng.randrange(14)
                calls.append(Call(kind, ["sets", "column", "--in", path, "--x", str(x)],
                                  "sets.column", check_column(expr, x)))
            elif action == "tail":
                calls.append(Call(kind, ["sets", "tail", "--in", path],
                                  "sets.tail", check_tail(expr)))
            elif action in ("fr2", "meets"):
                key = "in_fr2" if action == "fr2" else "meets_all_fr2"
                calls.append(Call(kind, ["sets", action, "--in", path],
                                  f"sets.{action}", check_far_character(expr, key)))
            elif action == "sum":
                u, seq = gen_standin(rng), gen_sequence(rng)
                calls.append(Call(kind, ["sets", "sum", "--in", path, "--u", inputs.write(u),
                                         "--seq", inputs.write(seq)],
                                  "sets.sum", check_sum(expr, u, seq)))
            else:
                b, u, seq = gen_fincofin(rng), gen_standin(rng), gen_sequence(rng)
                want = model.standin_holds(
                    u, lambda y: "cofinite" in b if y is None else model.fincofin_contains(b, y))
                calls.append(Call("sets.image", ["sets", "image", "--in", inputs.write(b),
                                                 "--u", inputs.write(u),
                                                 "--seq", inputs.write(seq)],
                                  "sets.image",
                                  lambda p, w=want: expect(p["member"] == w, "image membership")))
    return calls


# ---------------------------------------------------------------- omega prefixes

def gen_assignment(rng: random.Random, values) -> dict:
    """Labels U and V_v for each value, mostly cofinite so chains go far."""
    def fc():
        if rng.random() < 0.8:
            return {"cofinite": sorted(rng.sample(range(40), rng.randint(0, 4)))}
        return {"finite": sorted(rng.sample(range(40), rng.randint(5, 25)))}
    return {"U": fc(), **{f"V_{v}": fc() for v in sorted(set(values))}}


def check_zchain(classes, z, za):
    failed = None
    for n in range(len(z)):
        if not model.fincofin_contains(za[model.demanded_label(classes, z[:n])], z[n]):
            failed = n
            break
    return lambda p: expect((p["ok"], p["failed_at"]) == (failed is None, failed),
                            "chain walk")


def _omega_calls(inputs: Inputs, rng: random.Random, count: int, actions) -> list[Call]:
    calls = []
    for action in actions:
        for _ in range(count):
            classes = gen_prefix(rng, rng.randint(4, 12))
            kind = f"omega.{action}"
            if action == "validate":
                doc = [dict(c) for c in classes]
                flaw = rng.randrange(3)
                if flaw == 1:
                    doc.insert(0, {"y": max(c.get("y", 1) for c in doc) + 5})
                elif flaw == 2:
                    doc.append({"x": [1]})
                malformed, ok = model.prefix_report(doc)
                calls.append(Call(kind, ["omega", "validate", "--in",
                                         inputs.write({"classes": doc})],
                                  "omega.validate",
                                  lambda p, w=(malformed, ok): expect(
                                      (bool(p["malformed"]), p["ok"]) == w, "prefix verdict")))
                continue
            path = inputs.write({"classes": classes})
            if action == "phi":
                z = gen_chain(rng, len(classes))
                want = model.phi_points(classes, z)
                calls.append(Call(kind, ["omega", "phi", "--in", path,
                                         "--z", ",".join(map(str, z))],
                                  "omega.phi",
                                  lambda p, w=want: expect(p["points"] == w, "phi points")))
            elif action == "assignd":
                s = gen_chain(rng, rng.randrange(len(classes)))
                want = model.demanded_label(classes, s)
                calls.append(Call(kind, ["omega", "assignd", "--in", path,
                                         "--s", ",".join(map(str, s))],
                                  "omega.assignd",
                                  lambda p, w=want: expect(p["label"] == w, "demanded label")))
            elif action == "zchain":
                z = gen_chain(rng, rng.randint(1, len(classes)))
                za = gen_assignment(rng, z)
                calls.append(Call(kind, ["omega", "zchain", "--in", path,
                                         "--z", ",".join(map(str, z)),
                                         "--za", inputs.write(za)],
                                  "omega.zchain", check_zchain(classes, z, za)))
            else:
                x = rng.randrange(12)
                y = x + rng.randint(1, 30)
                za = gen_assignment(rng, range(12))
                want = (model.fincofin_contains(za["U"], x)
                        and model.fincofin_contains(za[f"V_{x}"], y))
                calls.append(Call(kind, ["omega", "hmember", "--za", inputs.write(za),
                                         "--point", f"{x},{y}"],
                                  "omega.hmember",
                                  lambda p, w=want: expect(p["member"] == w, "h membership")))
    return calls


# ---------------------------------------------------------------- cli-mix

def _rewrite(text: str, insert: bool) -> str:
    """Own append/insert extension of a list-form pattern."""
    classes = [seg.split("=") for seg in text.split("<")]
    n = sum(len(c) for c in classes) // 2
    if not insert:
        return text + f"<x{n + 1}<y{n + 1}"
    out = []
    for cls in classes:
        cls = [name[0] + "3" if name[1:] == "2" else name for name in cls]
        if "x1" in cls:
            cls = cls + ["x2"]
        out.append("=".join(sorted(cls, key=lambda s: (s[0], int(s[1:])))))
        if "y1" in cls:
            out.append("y2")
    return "<".join(out)


def _types_calls(inputs: Inputs, rng: random.Random) -> list[Call]:
    calls = []
    for action in ("extend", "insert"):
        for via_file in (False, True, False):
            n = 2 if action == "insert" else rng.randint(1, 3)
            text = rng.choice(model.all_patterns(n))
            if via_file:
                doc = {"n": n, "classes": [seg.split("=") for seg in text.split("<")]}
                source = ["--in", inputs.write(doc)]
            else:
                source = ["--type", text]
            want = {"input": text, "output": _rewrite(text, action == "insert"), "n": n + 1}
            calls.append(Call(f"types.{action}", ["types", action, *source],
                              f"types.{action}",
                              lambda p, w=want: expect(p == w, "pattern rewrite")))
    return calls


def _cond_check_calls(inputs: Inputs, rng: random.Random) -> list[Call]:
    calls = []
    for flaw in range(4):
        points = gen_condition(rng, rng.randint(5, 20))
        if flaw == 1:
            points.append([points[-1][1] + 5, points[-1][1] + 2])      # below the diagonal
        elif flaw == 2:
            points.append([points[-1][1] + 1, points[0][1]])           # shared y
        elif flaw == 3:
            points.append([points[0][1], points[-1][1] + 3])           # x reuses a y
        ok = not model.condition_problems(points)
        calls.append(Call("cond.check", ["cond", "check", "--in", inputs.write(points)],
                          "cond.check",
                          lambda p, w=ok: expect(p["ok"] == w and bool(p["violations"]) != w,
                                                 "condition verdict")))
    return calls


def _homog_small_calls(inputs: Inputs, rng: random.Random) -> list[Call]:
    calls = []
    for direction in ("increasing", "decreasing"):
        for _ in range(2):
            width = rng.randint(3, 8)
            rows = sorted([rng.randint(0, 1) for _ in range(width)]
                          for _ in range(rng.randint(3, 12)))
            if direction == "decreasing":
                rows.reverse()
            stable = rows[-1]
            positions = []
            for z in range(width):
                pos = len(rows) - 1
                while pos > 0 and rows[pos - 1][z] == stable[z]:
                    pos -= 1
                positions.append(pos)
            want = {"stable": stable, "positions": positions}
            calls.append(Call("homog.stabilize",
                              ["homog", "stabilize", "--in", inputs.write(rows),
                               "--direction", direction],
                              "homog.stabilize",
                              lambda p, w=want: expect(p == w, "stable bits")))
    for _ in range(2):
        bx, by, bz = 4, 30, 3
        points, value, used = [], 4, set()
        for x in range(bx):
            for _ in range(rng.randint(0, 5)):
                value += rng.randint(1, 2)
                if value < by:
                    points.append([x, value])
        triples = sorted([x, y, z] for x in range(bx) for y in range(by) for z in range(bz)
                         if rng.random() < 0.5)
        window = rng.randint(1, 3)
        grid = {"bounds": [bx, by, bz], "triples": triples}
        hits = {tuple(t) for t in triples}
        want = []
        for x in range(bx):
            ys = sorted(y for px, y in points if px == x)
            for z in range(bz):
                if len(ys) < window:
                    status = "insufficient-data"
                else:
                    tail = [(x, y, z) in hits for y in ys[-window:]]
                    status = ("stable-1" if all(tail) else
                              "stable-0" if not any(tail) else "unstable")
                want.append({"x": x, "z": z, "status": status})
        calls.append(Call("homog.extract-s",
                          ["homog", "extract-s", "--in", inputs.write(grid),
                           "--cond", inputs.write(points), "--window", str(window)],
                          "homog.extract-s",
                          lambda p, w={"window": window, "statuses": want}: expect(
                              p == w, "extracted relation")))
    return calls


def _malformed_calls(inputs: Inputs, rng: random.Random) -> list[Call]:
    """Malformed documents the program already refuses with the error payload."""
    pts = gen_condition(rng, rng.randint(3, 8))
    bad_cond = pts + [[pts[-1][1] + 9, pts[-1][1] + 4]]
    cases = [
        ("cond.check", ["cond", "check", "--in", inputs.write({"pts": pts})], "ValueError"),
        ("cond.classify", ["cond", "classify", "--n", "2", "--cond", inputs.write(bad_cond)],
         "ValueError"),
        ("sets.column", ["sets", "column", "--in",
                         inputs.write({"op": "xor", "args": [{"aboveDiag": True}]}),
                         "--x", "1"], "ValueError"),
        ("sets.tail", ["sets", "tail", "--in", inputs.write(pts)], "ValueError"),
        ("sets.sum", ["sets", "sum", "--in", inputs.write({"aboveDiag": True}),
                      "--u", inputs.write({"frechet": False}),
                      "--seq", inputs.write(gen_sequence(rng))], "ValueError"),
        ("omega.phi", ["omega", "phi", "--in", inputs.write({"prefix": []}), "--z", "1"],
         "ValueError"),
        ("omega.zchain", ["omega", "zchain", "--in",
                          inputs.write({"classes": [{"x": [1]}, {"y": 1}]}),
                          "--z", "1,5", "--za", inputs.write({"U": {"cofinite": []}})],
         "MissingLabelError"),
        ("types.extend", ["types", "extend", "--type", f"x1<x{rng.randint(2, 5)}"],
         "ValueError"),
        ("homog.stabilize", ["homog", "stabilize", "--in", inputs.write([[1, 1], [0, 1]])],
         "LexOrderError"),
        ("graph.check", ["graph", "check", "--in", inputs.write(gen_graph(rng, 6)),
                         "--k", "1", "--m", str(rng.randint(7, 20))], "ValueError"),
        ("homog.check", ["homog", "check", "--in",
                         inputs.write({"n": 2, "entries": [{"subset": pts[:2]}]}),
                         "--type", "x1<y1<x2<y2"], "KeyError"),
        ("cond.realize", ["cond", "realize", "--cond", inputs.write("[[1, 2],", "txt"),
                          "--type", "x1<y1"], "JSONDecodeError"),
    ]
    return [Call(f"error.{name}", argv, "error", exit_code=1, error_kind=kind)
            for name, argv, kind in cases]


# The four documents the program lets escape its error boundary today.
# They run as probes next to the cli-mix table, named and never resized.
ESCAPES = (
    ("escape.sets.tail.rect-list", ["sets", "tail"], {"rect": [1, 2]}),
    ("escape.cond.check.null-coordinate", ["cond", "check"], [[1, 2], [None, 3]]),
    ("escape.sets.tail.complement-3000", ["sets", "tail"],
     '{"op": "complement", "args": [' * 3000 + '{"aboveDiag": true}' + "]}" * 3000),
    ("escape.cond.check.bool-coordinate", ["cond", "check"], [[True, 3]]),
)


def escape_probes(inputs: Inputs) -> list[Call]:
    calls = []
    for name, argv, doc in ESCAPES:
        path = inputs.write(doc, "txt") if isinstance(doc, str) else inputs.write(doc)
        calls.append(Call(name, [*argv, "--in", path], "error", exit_code=1))
    return calls


def cli_mix(inputs: Inputs, rng: random.Random, scans) -> list[Call]:
    calls = (_sets_calls(inputs, rng, 4, ("column", "tail", "fr2", "meets", "sum", "image"))
             + _omega_calls(inputs, rng, 3, ("validate", "phi", "assignd", "zchain", "hmember"))
             + _homog_small_calls(inputs, rng)
             + _types_calls(inputs, rng)
             + _cond_check_calls(inputs, rng)
             + touches(inputs, rng, "randomgraph"))
    twins = []
    for call in calls[::8]:
        twins.append(call)
        twins.append(Call(call.kind + ".table", call.argv + ["--format", "table"],
                          call.action, table=True, follows=True))
    return calls + twins + _malformed_calls(inputs, rng)


def interleave(calls: list[Call], rng: random.Random) -> list[Call]:
    """Shuffle the table, keeping each call that ``follows`` right after its
    predecessor.  Calls of one kind then spread over the whole pass, so a
    slow spell of the shared host cannot fall on one kind alone."""
    units: list[list[Call]] = []
    for call in calls:
        if call.follows:
            units[-1].append(call)
        else:
            units.append([call])
    rng.shuffle(units)
    return [call for unit in units for call in unit]


WORKLOADS = {
    "conditions": conditions,
    "graphs": graphs,
    "search": search,
    "cli-mix": cli_mix,
}
