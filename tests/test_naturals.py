"""One judge for naturals: every library constructor, function argument
and pair reader that takes a natural asks ``errors._natural``, which names
the field and quotes the value, and converts nothing."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_ntypes, is_rich, schedule_walk, unsatisfied_configurations
from ramseybench.errors import _natural
from ramseybench.homogeneity import (Coloring, TernaryRelationGrid, coloring_from_json,
                                     extract_S_from_R, grid_from_json, search_homogeneous,
                                     stabilize_lex)
from ramseybench.omegatypes import (OmegaTypePrefix, XClass, YClass, _check_chain, assign_D,
                                    grid_prefix, phi_prefix, random_prefix)
from ramseybench.pointsets import FiniteCondition, Point, points_from_json
from ramseybench.randomgraph import (Configuration, EdgeColoring, Graph, build_coloring_covering,
                                     build_graph_covering, build_random_coloring,
                                     build_random_graph, check_extension_property, check_rich,
                                     graph_from_json, noreverse_demo)
from ramseybench.setalgebra import (FULL, AboveDiag, Column, FinCofin, FinitePoints, Frechet,
                                    Principal, StandInSequence, column_of, tail_analysis)
from ramseybench.typecalc import (NType, Symbol, count_ntypes, ntype_from_json,
                                  ntype_from_relation, parse_list_form, validate_ntype)

X1 = OmegaTypePrefix((XClass(frozenset({1})),))
X1_Y1 = OmegaTypePrefix((XClass(frozenset({1})), YClass(1)))
GROUND = FiniteCondition(frozenset({Point(0, 2), Point(0, 3)}))
PATH = Graph(3, {(0, 1), (1, 2)})
EMPTY_GRID = TernaryRelationGrid(1, 1, 1, frozenset())
PAIRS = Coloring(GROUND, 2, len)  # its one pair, ((0,2), (0,3)), realizes TIED
TIED = parse_list_form("x1=x2<y1<y2")

# (path, least, the constructor with the natural in question set to v)
SITES = [
    ("x", 0, lambda v: Point(v, 5)),
    ("y", 0, lambda v: Point(0, v)),
    ("support", 0, lambda v: FinCofin.finite([v])),
    ("support", 0, lambda v: FinCofin.cofinite_except([v])),
    ("points", 0, lambda v: FinitePoints(frozenset({(v, 3)}))),
    ("points", 0, lambda v: FinitePoints(frozenset({(2, v)}))),
    ("column", 0, lambda v: Column(v, FULL)),
    ("principal", 0, lambda v: Principal(v)),
    ("exceptions", 0, lambda v: StandInSequence(Frechet(), ((v, Frechet()),))),
    ("chain", 0, lambda v: phi_prefix(X1, [v])),
    ("chain", 0, lambda v: assign_D(X1_Y1, [v])),
    ("x-indices", 1, lambda v: XClass(frozenset({v}))),
    ("y-index", 1, lambda v: YClass(v)),
    ("symbol index", 1, lambda v: Symbol("x", v)),
    ("n", 1, lambda v: NType(v, ())),
    ("n", 1, lambda v: ntype_from_json({"n": v, "classes": []})),
    ("params", 0, lambda v: Configuration((v,), frozenset())),
    ("[0][0]", 0, lambda v: stabilize_lex([[v]])),
    ("vertex_count", 0, lambda v: Graph(v, [])),
    ("vertex_count", 0, lambda v: EdgeColoring(v, 3, {})),
    ("palette", 1, lambda v: EdgeColoring(2, v, {})),
    ("n", 0, lambda v: Coloring(GROUND, v, len)),
    ("x_bound", 0, lambda v: TernaryRelationGrid(v, 2, 2, frozenset())),
    ("y_bound", 0, lambda v: TernaryRelationGrid(2, v, 2, frozenset())),
    ("z_bound", 0, lambda v: TernaryRelationGrid(2, 2, v, frozenset())),
    # function arguments, named as their CLI flags where they have one
    ("palette", 2, lambda v: build_random_coloring(v, 1)),
    ("palette", 2, lambda v: build_coloring_covering(v, 1, 1)),
    ("steps", 1, lambda v: build_random_graph(v)),
    ("max_vertex", 0, lambda v: build_graph_covering(v, 1)),
    ("max_params", 0, lambda v: build_graph_covering(1, v)),
    ("k", 0, lambda v: check_extension_property(PATH, v, 1)),
    ("m", 0, lambda v: check_extension_property(PATH, 1, v)),
    ("k", 0, lambda v: check_rich([0], PATH, v)),
    ("count", 1, lambda v: noreverse_demo(v)),
    ("window", 1, lambda v: extract_S_from_R(EMPTY_GRID, FiniteCondition(frozenset()), v)),
    ("x", 0, lambda v: column_of(AboveDiag(), v)),
    ("n_points", 1, lambda v: grid_prefix(v)),
    ("n_classes", 1, lambda v: random_prefix(random.Random(0), v)),
    ("n", 1, lambda v: count_ntypes(v)),
    # the pair readers judge each coordinate of a pair
    ("[0][0]", 0, lambda v: points_from_json([[v, 1]])),
    ("edges[0][1]", 0, lambda v: graph_from_json({"vertices": 3, "edges": [[1, v]]})),
    # appended here, so the ids of the rows above stay
    ("vertices", 0, lambda v: check_rich([v], PATH)),
    ("min-size", 0, lambda v: search_homogeneous(PAIRS, TIED, min_size=v)),
    ("min-size", 0, lambda v: search_homogeneous(PAIRS, TIED, min_size=v, mode="greedy")),
]

BAD = [1.5, True, "1", None, -1]
REFUSED = [(path, build, value) for path, least, build in SITES
           for value in BAD + ([0] if least else [])]


@pytest.mark.parametrize("path, build, value", REFUSED,
                         ids=[f"{path}#{i}-{value!r}" for i, (path, _, value) in enumerate(REFUSED)])
def test_every_site_refuses_what_is_not_a_natural(path, build, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: expected a natural number"):
        build(value)


@pytest.mark.parametrize("least, text", [(0, "a natural number"), (1, "a natural number >= 1")])
@pytest.mark.parametrize("value, shown", [(1.5, "1.5"), (True, "true"), ("1", '"1"'), (None, "null"),
                                          (-1, "-1"), (Frechet(), '"Frechet()"')])
def test_the_judge_names_its_path_and_quotes_the_value_as_json(least, text, value, shown):
    with pytest.raises(ValueError, match=rf"^at: expected {text}, got {re.escape(shown)}$"):
        _natural(value, "at", least)


@pytest.mark.parametrize("call, message", [
    # each of these answered as if the value were a natural
    (lambda: FinCofin.finite([1.7]), "support: expected a natural number, got 1.7"),
    (lambda: phi_prefix(X1_Y1, [0.5, 2.7]), "chain: expected a natural number, got 0.5"),
    (lambda: tail_analysis(FinitePoints(frozenset({(-3, 2)}))),
     "points: expected a natural number, got -3"),
    (lambda: Column(-5, FULL), "column: expected a natural number, got -5"),
    (lambda: stabilize_lex([["1", 0]]), '[0][0]: expected a natural number, got "1"'),
    (lambda: Principal(1.5), "principal: expected a natural number, got 1.5"),
    (lambda: Symbol("x", True), "symbol index: expected a natural number >= 1, got true"),
    (lambda: assign_D(X1_Y1, [True]), "chain: expected a natural number, got true"),
    (lambda: Graph(-3, []), "vertex_count: expected a natural number, got -3"),
    (lambda: Coloring(GROUND, 1.5, len), "n: expected a natural number, got 1.5"),
    (lambda: extract_S_from_R(TernaryRelationGrid(-1, 2, 2, frozenset()), FiniteCondition(frozenset())),
     "x_bound: expected a natural number, got -1"),
    (lambda: stabilize_lex([[0, 2]]), "[0][1]: expected 0 or 1, got 2"),
    (lambda: stabilize_lex([[0], [1, 2]]), "[1][1]: expected 0 or 1, got 2"),
    (lambda: search_homogeneous(PAIRS, TIED, min_size=-1),
     "min-size: expected a natural number, got -1"),
])
def test_silent_wrong_answers_are_refusals(call, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("value", BAD + [0], ids=repr)
def test_validate_reports_a_bad_n_as_the_judge_words_it(value):
    with pytest.raises(ValueError) as refused:
        _natural(value, "n", 1)
    assert validate_ntype(value, []).malformed == (str(refused.value),)


@pytest.mark.parametrize("item, shown", [
    ([0], "[0]"), ([0, 1, 2], "[0, 1, 2]"), ((0, 1), "[0, 1]"), ({0, 1}, '"{0, 1}"'),
    ("01", '"01"'), (None, "null"),
], ids=repr)
@pytest.mark.parametrize("read, path", [
    (lambda item: points_from_json([[0, 1], item]), "[1]"),
    (lambda item: graph_from_json({"vertices": 3, "edges": [[0, 1], item]}), "edges[1]"),
], ids=["points", "edges"])
def test_the_pair_readers_refuse_what_is_not_a_pair_of_naturals(read, path, item, shown):
    message = f"{path}: expected a list of 2 natural numbers, got {shown}"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        read(item)


@pytest.mark.parametrize("read, message", [
    (lambda: coloring_from_json({"n": 1, "entries": {1}}), 'entries: expected a list, got "{1}"'),
    (lambda: coloring_from_json({"n": 1, "entries": [{1}]}),
     'entries[0]: expected an object, got "{1}"'),
    (lambda: grid_from_json({"bounds": [1, 1, 1], "triples": {(0, 0, 0)}}),
     'triples: expected a list of [x, y, z] triples, got "{(0, 0, 0)}"'),
    (lambda: ntype_from_json({"n": 1, "classes": ({"x1"},)}),
     """classes: expected a list of symbol lists, got ["{'x1'}"]"""),
    (lambda: ntype_from_json({"n": 1, "classes": [{"x1"}]}),
     'classes[0]: expected a list of symbols, got "{\'x1\'}"'),
], ids=["entries", "entry", "triples", "classes", "class"])
def test_readers_quote_a_python_set_instead_of_failing_to(read, message):
    # a value JSON cannot hold is quoted by its repr, not left to raise TypeError
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        read()


def test_stabilize_judges_every_row_before_the_width():
    with pytest.raises(ValueError, match=r"^\[2\]\[0\]: expected a natural number, got null$"):
        stabilize_lex([[0, 1], [1], [None]])
    with pytest.raises(ValueError, match="^rows must share a width$"):
        stabilize_lex([[0, 1], [1]])


def _pattern(n):
    return tuple(frozenset({Symbol(kind, i)}) for i in range(1, n + 1) for kind in "xy")


# (least, build from a natural v, read v back)
KEEPERS = [
    (0, lambda v: Point(v, v + 1), lambda p: p.x),
    (0, lambda v: Point(0, v), lambda p: p.y),
    (0, lambda v: FinCofin.finite([v]), lambda s: min(s.support)),
    (0, lambda v: FinCofin.cofinite_except([v]), lambda s: min(s.support)),
    (0, lambda v: FinitePoints(frozenset({(v, v)})), lambda e: min(e.points)[0]),
    (0, lambda v: Column(v, FULL), lambda e: e.x),
    (0, lambda v: Principal(v), lambda s: s.point),
    (0, lambda v: StandInSequence(Frechet(), ((v, Frechet()),)), lambda s: s.exceptions[0][0]),
    (0, lambda v: _check_chain([v, v + 1]), lambda vals: vals[0]),
    (0, lambda v: phi_prefix(X1_Y1, [v, v + 1]), lambda c: min(c.points).x),
    (1, lambda v: XClass(frozenset({v})), lambda c: min(c.indices)),
    (1, lambda v: YClass(v), lambda c: c.index),
    (1, lambda v: Symbol("y", v), lambda s: s.index),
    (0, lambda v: Configuration((v,), frozenset({0})), lambda c: c.params[0]),
    (0, lambda v: Graph(v, []), lambda g: g.vertex_count),
    (1, lambda v: EdgeColoring(2, v, {}), lambda ec: ec.palette),
    (0, lambda v: Coloring(GROUND, v, len), lambda c: c.n),
    (0, lambda v: TernaryRelationGrid(v, 1, v, frozenset()), lambda grid: grid.z_bound),
    (0, lambda v: points_from_json([[v, v + 1]]), lambda pts: pts[0].x),
    (0, lambda v: graph_from_json({"vertices": v + 2, "edges": [[v + 1, v]]}),
     lambda g: min(g.edges)[0]),
]


@pytest.mark.parametrize("least, build, read", KEEPERS, ids=range(len(KEEPERS)))
@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**30))
def test_naturals_pass_through_every_site_unchanged(least, build, read, offset):
    v = least + offset
    got = read(build(v))
    assert type(got) is int and got == v


def _walked(g):
    return g.vertex_count, g.edges


def _oracle_walk(**caps):
    count, table = schedule_walk(2, **caps)
    return count, frozenset(table)


def _listed(configs):
    return [(c.params, c.targets) for c in configs]


def _adjacency(g):
    return [g.neighbors(v) for v in range(g.vertex_count)]


def _least_stable_z(statuses):
    return min(z for (_, z), status in statuses.items() if status == "stable-1")


def _relation(n):
    classes = _pattern(n)
    return {(a, b) for i, low in enumerate(classes) for high in classes[i:]
            for a in low for b in high}


COVERING = build_graph_covering(4, 2)
# a column of 10 points at x = 0 under which R(0, y, z) holds on the top z:
# the least z read as stable-1 is the window
WINDOW_GRID = TernaryRelationGrid(1, 11, 11, frozenset(
    (0, y, z) for z in range(11) for y in range(11 - z, 11)))
WINDOW_COLUMN = FiniteCondition(frozenset(Point(0, y) for y in range(1, 11)))

# (least, most, the call with the argument in question set to v, the same
# answer by another route); work grows with these, so they stay small
ARGUMENT_KEEPERS = [
    (2, 5, lambda v: build_random_coloring(v, 3).palette, lambda v: v),
    (1, 80, lambda v: _walked(build_random_graph(v)), lambda v: _oracle_walk(steps=v)),
    (0, 6, lambda v: _walked(build_graph_covering(v, 2)),
     lambda v: _oracle_walk(max_vertex=v, max_params=2)),
    (0, 3, lambda v: _walked(build_graph_covering(5, v)),
     lambda v: _oracle_walk(max_vertex=5, max_params=v)),
    (0, 3, lambda v: _listed(check_extension_property(COVERING, v, 4)),
     lambda v: unsatisfied_configurations(_adjacency(COVERING), v, 4)),
    (0, COVERING.vertex_count, lambda v: _listed(check_extension_property(COVERING, 2, v)),
     lambda v: unsatisfied_configurations(_adjacency(COVERING), 2, v)),
    (0, 2, lambda v: check_rich(range(7), COVERING, v),
     lambda v: is_rich(_adjacency(COVERING), range(7), v)),
    (1, 3, lambda v: noreverse_demo(v).conditions, lambda v: v),
    (1, 10, lambda v: _least_stable_z(extract_S_from_R(WINDOW_GRID, WINDOW_COLUMN, v)),
     lambda v: v),
    (0, 40, lambda v: column_of(AboveDiag(), v), lambda v: FinCofin.cofinite_except(range(v + 1))),
    (1, 40, lambda v: sum(isinstance(c, YClass) for c in grid_prefix(v).classes), lambda v: v),
    (1, 40, lambda v: len(random_prefix(random.Random(v), v).classes), lambda v: v),
    (1, 3, lambda v: count_ntypes(v), lambda v: len(brute_force_ntypes(v))),
    (1, 4, lambda v: ntype_from_relation(v, _relation(v)), lambda v: NType(v, _pattern(v))),
    (0, 3, lambda v: search_homogeneous(PAIRS, TIED, min_size=v).met_min_size,
     lambda v: v <= 2),
]


@pytest.mark.parametrize("least, most, call, want", ARGUMENT_KEEPERS,
                         ids=range(len(ARGUMENT_KEEPERS)))
def test_natural_arguments_pass_through_every_site_unchanged(least, most, call, want):
    for v in range(least, most + 1):
        assert call(v) == want(v), v


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=12))
def test_pattern_sizes_pass_unchanged(n):
    assert NType(n, _pattern(n)).n == n
    doc = {"n": n, "classes": [[str(s) for s in cls] for cls in _pattern(n)]}
    assert ntype_from_json(doc).n == n


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(0, 1), min_size=3, max_size=3), min_size=1, max_size=6))
def test_stabilize_takes_bits_unchanged(rows):
    rows.sort()
    assert stabilize_lex(rows).stable == tuple(rows[-1])
