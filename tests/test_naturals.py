"""One judge for naturals: every library constructor that takes a natural
asks ``errors._natural``, which names the field and quotes the value, and
converts nothing."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseybench.errors import _natural
from ramseybench.homogeneity import Coloring, TernaryRelationGrid, extract_S_from_R, stabilize_lex
from ramseybench.omegatypes import (OmegaTypePrefix, XClass, YClass, _check_chain, assign_D,
                                    phi_prefix)
from ramseybench.pointsets import FiniteCondition, Point
from ramseybench.randomgraph import Configuration, EdgeColoring, Graph
from ramseybench.setalgebra import (FULL, Column, FinCofin, FinitePoints, Frechet, Principal,
                                    StandInSequence, tail_analysis)
from ramseybench.typecalc import NType, Symbol, ntype_from_json

X1 = OmegaTypePrefix((XClass(frozenset({1})),))
X1_Y1 = OmegaTypePrefix((XClass(frozenset({1})), YClass(1)))
GROUND = FiniteCondition(frozenset({Point(0, 2), Point(0, 3)}))

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
])
def test_silent_wrong_answers_are_refusals(call, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        call()


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
]


@pytest.mark.parametrize("least, build, read", KEEPERS, ids=range(len(KEEPERS)))
@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**30))
def test_naturals_pass_through_every_site_unchanged(least, build, read, offset):
    v = least + offset
    got = read(build(v))
    assert type(got) is int and got == v


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
