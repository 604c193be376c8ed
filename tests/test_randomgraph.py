import random
import time
from itertools import islice, product, takewhile

import pytest
from oracles import (
    full_schedule,
    is_rich,
    least_witness,
    schedule_walk,
    unsatisfied_configurations,
    walk_states,
)

from ramseybench.errors import WORK_BOUNDS, LimitError
from ramseybench.homogeneity import check_tau_homogeneous, count_classes_met
from ramseybench.pointsets import FiniteCondition, Point
from ramseybench.randomgraph import (
    VERTICAL_PAIR,
    Configuration,
    EdgeColoring,
    Graph,
    _schedule,
    _schedule_size,
    _unwitnessed,
    _walk,
    build_coloring_covering,
    build_graph_covering,
    build_random_graph,
    check_extension_property,
    check_rich,
    color_vertical_pairs,
    coloring_demo,
    configuration_schedule,
    graph_from_json,
    graph_to_json,
    noreverse_demo,
    realize_configuration,
)
from ramseybench.typecalc import parse_list_form


def test_graph_invariants():
    g = Graph(3, frozenset({(0, 2)}))
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(0, 1)
    assert g.neighbors(2) == {0}
    assert g.neighbors(1) == g.neighbors(3) == g.neighbors(-1) == set()
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        Graph(2, frozenset({(1, 0)}))  # pairs must be sorted
    with pytest.raises(ValueError):
        Graph(2, frozenset({(1, 1)}))  # no loops


def test_schedule_prefix_shape():
    first = list(islice(configuration_schedule(), 8))
    assert first[0] == Configuration((), frozenset())
    # vertex 0 alone: non-adjacent demand, then adjacent demand
    assert first[1] == Configuration((0,), frozenset())
    assert first[2] == Configuration((0,), frozenset({0}))
    # then the single-parameter configurations for vertex 1
    assert first[3] == Configuration((1,), frozenset())
    assert first[4] == Configuration((1,), frozenset({0}))
    # then the pairs drawing on vertices {0, 1}, S as ascending bitmask
    assert first[5].params in ((0, 1), (1, 0))
    masks = [tuple(sorted(c.targets)) for c in first[5:8]]
    assert masks[0] == ()


def test_schedule_is_deterministic():
    a = list(islice(configuration_schedule(), 40))
    b = list(islice(configuration_schedule(), 40))
    assert a == b


def test_build_monotone_in_steps():
    small = build_random_graph(10)
    large = build_random_graph(25)
    assert small.vertex_count <= large.vertex_count
    assert small.edges <= large.edges


def test_realize_configuration_least_witness():
    g = Graph(4, frozenset({(0, 2), (1, 2), (1, 3)}))
    # want a vertex adjacent to 1 and not to 0
    cfg = Configuration((1, 0), frozenset({0}))
    assert realize_configuration(g, cfg) == 3
    with pytest.raises(ValueError):
        realize_configuration(g, Configuration((9,), frozenset()))


def test_extension_property_after_covering():
    g = build_graph_covering(3, 2)
    assert check_extension_property(g, 2, 3) == []
    assert check_extension_property(g, 1, 3) == []


def test_extension_property_failure_is_reported():
    # K4: every pair is adjacent, so any "not adjacent to a" demand fails
    k4 = Graph(4, frozenset({(u, v) for u in range(4) for v in range(u + 1, 4)}))
    unsatisfied = check_extension_property(k4, 1, 4)
    assert unsatisfied == [
        Configuration((v,), frozenset()) for v in range(4)
    ]


def test_extension_property_argument_checks():
    g = build_random_graph(3)
    with pytest.raises(ValueError):
        check_extension_property(g, -1, 1)
    with pytest.raises(ValueError):
        check_extension_property(g, 1, g.vertex_count + 1)


def test_check_rich_examples():
    g = build_graph_covering(4, 1)
    vertices = range(g.vertex_count)
    assert check_rich(vertices, g, k=1)
    # an edgeless set cannot host internal witnesses
    isolated = [v for v in vertices if not g.neighbors(v)]
    if len(isolated) >= 2:
        assert not check_rich(isolated, g, k=1)
    assert not check_rich([0, 1], g, k=1)  # too small to be rich
    with pytest.raises(LimitError):
        check_rich(range(13), Graph(13, frozenset()), k=1)
    with pytest.raises(ValueError):
        check_rich([99], g, k=1)


def test_check_rich_refuses_a_negative_k_before_any_work():
    # as check_extension_property does; the set is too large for the
    # bound and names no vertex, yet the k is named first
    with pytest.raises(ValueError, match=r"^k: expected a natural number, got -1$"):
        check_rich(range(100, 200), Graph(1, frozenset()), k=-1)


def test_witness_rows_are_counted_against_the_values_bound(monkeypatch):
    # one row per vertex, counted before any is built, by both checks
    monkeypatch.setitem(WORK_BOUNDS, "values", 50)
    message = ("witness rows refused: the graph has 51 vertices, one row each, "
               "the bound is 50")
    with pytest.raises(LimitError, match=f"^{message}$"):
        check_extension_property(Graph(51, frozenset()), 0, 0)
    with pytest.raises(LimitError, match=f"^{message}$"):
        check_rich([0, 1], Graph(51, frozenset()), k=0)
    assert check_extension_property(Graph(50, frozenset()), 0, 0) == []
    assert check_rich([0, 1], Graph(50, frozenset()), k=0)


def test_configurations_refuse_bad_parameters_and_targets():
    with pytest.raises(ValueError, match=r"^params: expected a natural number, got -1$"):
        Configuration((0, -1), frozenset())
    with pytest.raises(ValueError, match=r"^targets \[1\] are not positions into \(0,\)$"):
        Configuration((0,), frozenset({1}))


def test_graph_json_round_trip():
    g = build_random_graph(12)
    assert graph_from_json(graph_to_json(g)) == g
    with pytest.raises(ValueError):
        graph_from_json({"edges": []})


def cond_on_column(x, ys):
    return FiniteCondition(frozenset(Point(x, y) for y in ys))


def test_color_vertical_pairs_is_adjacency_on_tied_pairs():
    g = Graph(7, frozenset({(3, 5), (4, 6)}))
    cond = cond_on_column(0, [3, 4, 5])
    coloring = color_vertical_pairs(cond, g)
    assert coloring.n == 2
    assert coloring.color_of([Point(0, 3), Point(0, 5)]) == 1
    assert coloring.color_of([Point(0, 3), Point(0, 4)]) == 0
    # non-tied pairs stay uncolored
    mixed = FiniteCondition(frozenset({Point(0, 3), Point(0, 4), Point(1, 5)}))
    c2 = color_vertical_pairs(mixed, g)
    assert c2.color_of([Point(0, 3), Point(1, 5)]) is None
    with pytest.raises(ValueError):
        color_vertical_pairs(cond_on_column(0, [3, 99]), g)


def test_vertical_pair_constant_matches_tied_pattern():
    assert parse_list_form(VERTICAL_PAIR).n == 2


def entries(palette, tuples):
    """The (params, colours) entries of schedule parameter tuples: each
    tuple's colourings by colour index, colours little-endian."""
    for params in tuples:
        for digits in product(range(palette), repeat=len(params)):
            yield params, digits[::-1]


def test_palette_two_schedule_matches_graph_schedule():
    graph_cfgs = list(islice(configuration_schedule(), 30))
    color_cfgs = list(islice(entries(2, _schedule()), 30))
    for gc, (params, colors) in zip(graph_cfgs, color_cfgs):
        assert gc.params == params
        mask = frozenset(i for i, c in enumerate(colors) if c == 1)
        assert mask == gc.targets


def test_palette_two_build_reduces_to_graph():
    g = build_random_graph(20)
    count, table = _walk(2, steps=20)
    ec = EdgeColoring(count, 2, table)
    assert ec.vertex_count == g.vertex_count
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            assert (ec.color(u, v) == 1) == g.has_edge(u, v)


def test_graph_color_is_the_palette_two_edge_coloring():
    g = build_random_graph(20)
    count, table = _walk(2, steps=20)
    ec = EdgeColoring(count, 2, table)
    for u in range(g.vertex_count):
        for v in range(g.vertex_count):
            if u != v:
                assert g.color(u, v) == ec.color(u, v) == int(g.has_edge(u, v))
    for pair in ((3, 3), (0, g.vertex_count), (-1, 2)):
        for view in (g, ec):
            with pytest.raises(ValueError):
                view.color(*pair)


def test_edge_coloring_defaults_and_validation():
    ec = EdgeColoring(3, 4, {(0, 1): 2})
    assert ec.color(0, 1) == 2 == ec.color(1, 0)
    assert ec.color(0, 2) == 0
    with pytest.raises(ValueError):
        EdgeColoring(3, 2, {(0, 1): 5})  # color outside palette
    with pytest.raises(ValueError):
        ec.color(0, 0)


def test_colourings_compare_by_their_colours():
    assert EdgeColoring(3, 2, {(0, 1): 1}) != EdgeColoring(3, 2, {})
    assert EdgeColoring(3, 3, {(0, 1): 1}) != EdgeColoring(3, 3, {(0, 1): 2})
    assert EdgeColoring(3, 2, {(0, 1): 1}) == EdgeColoring(3, 2, {(0, 1): 1})
    assert hash(EdgeColoring(3, 2, {(0, 1): 1})) == hash(EdgeColoring(3, 2, {}))
    g = Graph(3, {(0, 1)})
    assert isinstance(g, EdgeColoring) and g.palette == 2
    assert g != Graph(3, set())
    assert g == Graph(3, frozenset({(0, 1)})) and hash(g) == hash(Graph(3, set()))
    assert g.table == {(0, 1): 1} and g.masks == ((2, 2), (1, 1), (0, 0))


@pytest.mark.parametrize("palette", [3, 4, 5])
def test_coloring_demo_attains_all_colors(palette):
    report = coloring_demo(palette)
    assert report.palette == palette
    assert report.classes_met == palette
    assert report.all_colors


def test_coloring_demo_details_for_three():
    ec = build_coloring_covering(3, 4, 1)
    cond = FiniteCondition(frozenset(Point(0, v) for v in range(1, ec.vertex_count)))
    coloring = color_vertical_pairs(cond, ec)
    met = count_classes_met(cond, coloring)
    assert met == 3


def test_noreverse_demo_small_run():
    report = noreverse_demo(count=8, seed=5)
    assert report.conditions == 8
    assert report.columns_checked >= 8
    assert report.all_nonhomogeneous
    assert report.failures == ()


def test_the_conditions_bound_caps_the_noreverse_demo(monkeypatch):
    monkeypatch.setitem(WORK_BOUNDS, "conditions", 4)
    assert noreverse_demo(count=4, seed=9).conditions == 4
    monkeypatch.setitem(WORK_BOUNDS, "conditions", 3)
    with pytest.raises(LimitError, match="noreverse demo refused: 4 conditions "
                                         "were asked for, the bound is 3"):
        noreverse_demo(count=4, seed=9)


def test_noreverse_demo_refuses_a_negative_count():
    # a count below 1 would check nothing and report every column failed
    with pytest.raises(ValueError, match="count: expected a natural number >= 1, got -1"):
        noreverse_demo(count=-1)
    with pytest.raises(ValueError, match="count: expected a natural number >= 1, got 0"):
        noreverse_demo(count=0)


def test_noreverse_demo_is_seeded():
    a = noreverse_demo(count=4, seed=9)
    b = noreverse_demo(count=4, seed=9)
    assert a == b


def test_noreverse_columns_really_fail_homogeneity():
    # reproduce the demo's own verdict with the public pieces
    g = build_graph_covering(6, 2)
    ys = sorted(g.neighbors(0))[:2] + sorted(
        v for v in range(3, g.vertex_count) if v not in g.neighbors(0)
    )[:3]
    if len(ys) >= 5 and check_rich(ys, g, k=1):
        cond = cond_on_column(0, ys)
        coloring = color_vertical_pairs(cond, g)
        report = check_tau_homogeneous(cond, coloring, parse_list_form(VERTICAL_PAIR))
        assert not report.homogeneous


# ------------------------------------------------------------ engine vs oracle

def colour_table(ec):
    return {pair: c for pair, c in ec.table.items() if c}


@pytest.mark.parametrize("max_vertex", range(7))
@pytest.mark.parametrize("max_params", range(4))
def test_graph_covering_matches_walk_oracle(max_vertex, max_params):
    count, table = schedule_walk(2, max_vertex=max_vertex, max_params=max_params)
    g = build_graph_covering(max_vertex, max_params)
    assert (g.vertex_count, g.edges) == (count, frozenset(table))


@pytest.mark.parametrize("palette, max_vertex, max_params", [
    (p, v, m) for p in (2, 3, 4) for v, m in ((3, 3), (4, 1), (4, 2))
] + [(2, 5, 1), (3, 5, 1), (3, 5, 2), (2, 8, 3), (2, 8, 4), (3, 6, 3)])
def test_coloring_covering_matches_walk_oracle(palette, max_vertex, max_params):
    ec = build_coloring_covering(palette, max_vertex, max_params)
    assert (ec.vertex_count, colour_table(ec)) == schedule_walk(
        palette, max_vertex=max_vertex, max_params=max_params)


def test_step_builds_match_walk_oracle():
    # every step count, so builds that stop inside a parameter tuple's
    # colourings are among them, against the oracle's state after each entry
    for palette, first, last in ((2, 1, 400), (3, 1, 400), (4, 1, 400), (5, 1, 400),
                                 (2, 3000, 3100)):
        states = islice(walk_states(palette), first - 1, last)
        for steps, (count, table) in enumerate(states, start=first):
            table = {pair: c for pair, c in table.items() if c}
            built, pairs = _walk(palette, steps=steps)
            ec = EdgeColoring(built, palette, pairs)
            assert (ec.vertex_count, colour_table(ec)) == (count, table), (palette, steps)
            if palette == 2:
                g = build_random_graph(steps)
                assert (g.vertex_count, g.edges) == (count, frozenset(table)), steps


@pytest.mark.parametrize("palette", [2, 3])
def test_schedules_match_the_filtered_full_schedule(palette):
    want = list(islice(full_schedule(palette), 3000))
    assert list(islice(entries(palette, _schedule()), 3000)) == want
    if palette == 2:
        got = [(c.params, c.targets) for c in islice(configuration_schedule(), 3000)]
        assert got == [(ps, frozenset(i for i, c in enumerate(cs) if c)) for ps, cs in want]


@pytest.mark.parametrize("palette", [2, 3, 4])
def test_one_count_gives_the_length_of_the_capped_schedule(palette):
    for max_vertex in range(8):
        for max_params in range(5):
            walked = sum(palette ** len(ps) for ps in _schedule(max_vertex, max_params))
            assert _schedule_size(palette, max_vertex, max_params, 10**18) == walked


def test_one_count_gives_the_family_the_extension_check_walks():
    rows = Graph(7, []).masks
    for m in range(8):
        for k in range(5):
            # an empty pool witnesses nothing, so every configuration is listed
            listed = sum(1 for _ in _unwitnessed(rows, 0, range(m), k))
            assert _schedule_size(2, m, k, 10**18) == listed


@pytest.mark.parametrize("palette, widest, most", [(2, 6, 4), (3, 5, 3)])
def test_capped_schedules_match_the_capped_full_schedule(palette, widest, most):
    full = list(takewhile(lambda entry: not entry[0] or max(entry[0]) < widest,
                          full_schedule(palette)))
    for max_vertex in range(widest + 1):
        for max_params in range(most + 1):
            want = [(ps, cs) for ps, cs in full
                    if (not ps or max(ps) < max_vertex) and len(ps) <= max_params]
            assert list(entries(palette, _schedule(max_vertex, max_params))) == want


def test_the_widest_covering_answers_quickly():
    # one-parameter tuples skip permutations, which would copy range(top)
    # on every top of the 14,999: 2.4-2.6 s that way, about 0.1 s without
    # (Python 3.11 on an Intel Xeon)
    start = time.perf_counter()
    g = build_graph_covering(14999, 1)
    assert time.perf_counter() - start < 1.5
    assert g.vertex_count == 15000


def test_covering_size_is_bounded_before_any_work():
    with pytest.raises(LimitError):
        build_graph_covering(9, 9)
    with pytest.raises(LimitError):
        build_coloring_covering(5, 10**9, 1)
    with pytest.raises(LimitError):
        build_random_graph(WORK_BOUNDS["configurations"] + 1)
    g = build_graph_covering(8, 2)
    assert check_extension_property(g, 2, 8) == []


def random_graph(rng, n, density):
    return Graph(n, frozenset(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density))


def adjacency_sets(g):
    adj = [set() for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


@pytest.mark.parametrize("seed", range(40))
def test_mask_checks_match_oracle(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 14), rng.choice((0.2, 0.5, 0.8)))
    adj = adjacency_sets(g)
    assert [g.neighbors(v) for v in range(g.vertex_count)] == adj
    for k in range(5):
        m = rng.randint(0, min(g.vertex_count, 8))
        listed = check_extension_property(g, k, m)
        assert [(c.params, c.targets) for c in listed] == unsatisfied_configurations(adj, k, m)
        for c in listed:
            # built without the constructor's checks, yet the same value
            public = Configuration(c.params, c.targets)
            assert vars(c) == vars(public) and hash(c) == hash(public)
            assert (type(c.params), type(c.targets)) == (tuple, frozenset)
    for _ in range(30):
        count = rng.randint(0, min(3, g.vertex_count))
        params = tuple(rng.sample(range(g.vertex_count), count))
        targets = frozenset(i for i in range(count) if rng.random() < 0.5)
        assert realize_configuration(g, Configuration(params, targets)) == \
            least_witness(adj, params, targets)
    for _ in range(4):
        vertices = rng.sample(range(g.vertex_count), min(g.vertex_count, rng.randint(1, 7)))
        for k in range(3):
            assert check_rich(vertices, g, k) == is_rich(adj, vertices, k)


def test_check_rich_judges_each_vertex_before_the_range_check():
    g = build_graph_covering(3, 1)
    with pytest.raises(ValueError, match=r"^vertices: expected a natural number, got 1\.5$"):
        check_rich([1.5], g)
    # True is not taken as vertex 1
    with pytest.raises(ValueError, match=r"^vertices: expected a natural number, got true$"):
        check_rich([True, 2], g)
    with pytest.raises(ValueError, match=r"^vertices: expected a natural number, got -1$"):
        check_rich([99, -1], g)


def test_a_large_k_costs_no_more_than_the_vertices_allow():
    # parameter counts stop at the vertex count, as the work count does
    g = build_graph_covering(4, 2)
    assert check_extension_property(g, 10**12, 3) == check_extension_property(g, 3, 3)
    assert check_rich(range(5), g, 10**12) == check_rich(range(5), g, 5)
