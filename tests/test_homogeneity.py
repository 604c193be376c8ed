import json
import random
import re
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ramseybench import homogeneity
from ramseybench.errors import WORK_BOUNDS, LexOrderError, LimitError
from ramseybench.homogeneity import (
    NO_DATA,
    STABLE_0,
    STABLE_1,
    UNSTABLE,
    Coloring,
    TernaryRelationGrid,
    check_tau_homogeneous,
    coloring_from_csv,
    coloring_from_json,
    count_classes_met,
    extract_S_from_R,
    grid_from_json,
    grid_to_json,
    realized_type_coloring,
    search_homogeneous,
    stabilize_lex,
    weak_ramsey_floor_demo,
)
from ramseybench.pointsets import (
    FiniteCondition,
    Point,
    classify_subsets,
    extend_with_realizers,
    random_condition,
    realized_type,
)
from ramseybench.typecalc import count_ntypes, enumerate_ntypes, list_form, parse_list_form

EMPTY = FiniteCondition(frozenset())


def cond(*pairs):
    return FiniteCondition(frozenset(Point(x, y) for x, y in pairs))


GROUND = cond((0, 1), (0, 2), (3, 5), (4, 6))
TIED = parse_list_form("x1=x2<y1<y2")
SPLIT = parse_list_form("x1<x2<y1<y2")


def test_coloring_from_rule_and_table_agree():
    rule = Coloring.from_rule(GROUND, 2, lambda pts: len({p.x for p in pts}) % 2)
    table = {
        frozenset(sub): rule.color_of(sub)
        for sub in map(frozenset, __import__("itertools").combinations(GROUND.points, 2))
    }
    explicit = Coloring.from_table(GROUND, 2, table)
    for sub in table:
        assert explicit.color_of(sub) == rule.color_of(sub)


def test_coloring_totality_enforced_unless_partial():
    sub = frozenset({Point(0, 1), Point(0, 2)})
    with pytest.raises(ValueError):
        Coloring.from_table(GROUND, 2, {sub: "red"})
    partial = Coloring.from_table(GROUND, 2, {sub: "red"}, partial=True)
    assert partial.color_of(sub) == "red"
    assert partial.color_of(frozenset({Point(0, 1), Point(3, 5)})) is None


def test_color_of_outside_ground_or_wrong_size():
    c = realized_type_coloring(GROUND, 2)
    with pytest.raises(ValueError):
        c.color_of([Point(0, 1), Point(99, 100)])
    with pytest.raises(ValueError):
        c.color_of([Point(0, 1)])
    # None is reserved for in-ground subsets outside a restricted domain
    tied_only = Coloring.from_rule(
        GROUND, 2,
        lambda pts: "t" if len({p.x for p in pts}) == 1 else None,
    )
    assert tied_only.color_of([Point(0, 1), Point(3, 5)]) is None
    assert tied_only.color_of([Point(0, 1), Point(0, 2)]) == "t"


def test_check_tau_homogeneous_happy_and_vacuous():
    coloring = Coloring.from_rule(GROUND, 2, lambda pts: "c")
    report = check_tau_homogeneous(GROUND, coloring, TIED)
    assert report.homogeneous and report.color == "c" and not report.vacuous
    assert report.realizers == 1

    # a repeated point is one point, not a tied pair
    assert check_tau_homogeneous([(0, 1), (0, 1), (3, 5)], coloring, TIED).realizers == 0

    # no x2<x1<y1<y2 realizer in GROUND: vacuous
    report = check_tau_homogeneous(GROUND, coloring, parse_list_form("x2<x1<y1<y2"))
    assert report.homogeneous and report.vacuous and report.color is None


def test_check_tau_homogeneous_detects_split_colors():
    coloring = Coloring.from_rule(GROUND, 2, lambda pts: min(p.y for p in pts))
    report = check_tau_homogeneous(GROUND, coloring, parse_list_form("x1<y1<x2<y2"))
    assert not report.homogeneous
    assert report.color is None
    assert report.realizers >= 2


def test_check_tau_homogeneous_arity_mismatch():
    coloring = realized_type_coloring(GROUND, 2)
    with pytest.raises(ValueError):
        check_tau_homogeneous(GROUND, coloring, parse_list_form("x1<y1"))
    # search refuses the same way, before reading any color
    calls = []
    coloring = Coloring.from_rule(GROUND, 2, lambda pts: calls.append(pts) or 0)
    for mode in ("exact", "greedy"):
        with pytest.raises(ValueError, match="does not match coloring arity 2"):
            search_homogeneous(coloring, parse_list_form("x1<y1<x2<y2<x3<y3"), mode=mode)
    assert calls == []


def test_count_classes_met_on_pattern_coloring():
    grown = extend_with_realizers(EMPTY, 2)
    coloring = realized_type_coloring(grown, 2)
    assert count_classes_met(grown, coloring) == 4
    assert count_classes_met([], coloring) == 0


def test_count_classes_met_refuses_before_reading_any_color():
    # C(1415, 2) = 1,000,405 pairs, above the "subsets" work bound
    calls = []
    big = random_condition(random.Random(0), 1415)
    coloring = Coloring.from_rule(big, 2, lambda pts: calls.append(pts) or 0)
    with pytest.raises(LimitError, match="class count refused"):
        count_classes_met(big, coloring)
    with pytest.raises(LimitError, match="homogeneity check refused"):
        check_tau_homogeneous(big, coloring, TIED)
    assert calls == []


def test_the_subset_bound_moves_every_subset_refusal_together(monkeypatch):
    # C(11, 3) = 165 3-subsets: admitted at 165, refused at 164 by the
    # classification, both searches, the class count and the check alike
    ground = random_condition(random.Random(3), 11)
    coloring = realized_type_coloring(ground, 3)
    tau = realized_type(ground.sorted_points[:3])
    runs = (lambda: classify_subsets(ground, 3),
            lambda: search_homogeneous(coloring, tau, mode="exact"),
            lambda: search_homogeneous(coloring, tau, mode="greedy"),
            lambda: count_classes_met(ground, coloring),
            lambda: check_tau_homogeneous(ground, coloring, tau))
    monkeypatch.setitem(WORK_BOUNDS, "subsets", 165)
    for run in runs:
        run()
    monkeypatch.setitem(WORK_BOUNDS, "subsets", 164)
    for run in runs:
        with pytest.raises(LimitError, match="165 3-subsets, the bound is 164"):
            run()


def test_tables_read_colors_through_the_rule(monkeypatch):
    # the keyed scan already yields y-sorted ground points, so no colour
    # read goes through color_of's re-normalisation
    ground = random_condition(random.Random(4), 9)
    coloring = realized_type_coloring(ground, 2)
    tau = realized_type(ground.sorted_points[:2])
    monkeypatch.setattr(Coloring, "color_of", lambda *args: pytest.fail("color_of called"))
    assert check_tau_homogeneous(ground, coloring, tau).color == list_form(tau)
    for mode in ("exact", "greedy"):
        assert search_homogeneous(coloring, tau, mode=mode).size == 9
    assert count_classes_met(ground, coloring) == len(classify_subsets(ground, 2))


def test_search_exact_finds_maximum_and_is_lex_least():
    # tied pairs colored by least y parity; only one 4-subset avoids a clash
    ground = cond((0, 1), (0, 2), (3, 4), (3, 5), (3, 6))
    coloring = Coloring.from_rule(
        ground, 2,
        lambda pts: min(p.y for p in pts) % 2 if len({p.x for p in pts}) == 1 else None,
    )
    result = search_homogeneous(coloring, TIED, mode="exact")
    assert result.exact
    assert result.size == 4
    assert result.points == (Point(0, 1), Point(0, 2), Point(3, 5), Point(3, 6))


def test_search_exact_respects_min_size_flag():
    ground = cond((0, 1), (0, 2), (3, 4), (3, 5), (3, 6))
    coloring = Coloring.from_rule(
        ground, 2,
        lambda pts: min(p.y for p in pts) % 2 if len({p.x for p in pts}) == 1 else None,
    )
    result = search_homogeneous(coloring, TIED, min_size=5, mode="exact")
    assert result.size == 4 and not result.met_min_size


def test_search_exact_refuses_large_ground():
    rng = random.Random(0)
    big = random_condition(rng, WORK_BOUNDS["points"] + 1)
    coloring = realized_type_coloring(big, 2)
    with pytest.raises(LimitError):
        search_homogeneous(coloring, TIED, mode="exact")
    # explicit bound raise lets it through
    search_homogeneous(coloring, TIED, mode="exact",
                       bound=WORK_BOUNDS["points"] + 1)


def test_search_exact_refuses_before_reading_any_color():
    calls = []
    big = random_condition(random.Random(0), WORK_BOUNDS["points"] + 1)
    coloring = Coloring.from_rule(big, 2, lambda pts: calls.append(pts) or 0)
    with pytest.raises(LimitError):
        search_homogeneous(coloring, SPLIT, mode="exact")
    assert calls == []
    search_homogeneous(coloring, SPLIT, mode="greedy")
    assert calls


def test_search_exact_refuses_a_large_n_inside_the_point_bound_before_reading_any_color():
    # every 14-subset of a 29-point column realizes the tied 14-tuple: the
    # search would hold a row for each of C(29, 14) = 77,558,760
    calls = []
    m = WORK_BOUNDS["points"]
    column = cond(*((0, y) for y in range(1, m + 1)))
    coloring = Coloring.from_rule(column, 14, lambda pts: calls.append(pts) or 0)
    tied = realized_type(column.sorted_points[:14])
    with pytest.raises(LimitError, match=f"^exact search refused: {m} points have "
                                         f"{comb(m, 14)} 14-subsets"):
        search_homogeneous(coloring, tied, mode="exact", bound=m)
    assert calls == []


def test_search_exact_takes_a_raised_bound_past_the_recursion_limit():
    # one colour throughout: the whole ground is the answer, found on the
    # first path, one step per point
    big = random_condition(random.Random(0), 1100)
    coloring = Coloring.from_rule(big, 2, lambda pts: 0)
    result = search_homogeneous(coloring, TIED, mode="exact", bound=1100)
    assert result.size == 1100 and result.stats["subsets_checked"] == 1


def test_search_greedy_refuses_before_reading_any_color():
    # C(183, 3) = 1,004,731 3-subsets, above the "subsets" work bound
    calls = []
    big = random_condition(random.Random(0), 183)
    coloring = Coloring.from_rule(big, 3, lambda pts: calls.append(pts) or 0)
    with pytest.raises(LimitError, match="greedy search refused"):
        search_homogeneous(coloring, parse_list_form("x1<x2<x3<y1<y2<y3"), mode="greedy")
    assert calls == []


def test_search_exact_reports_the_scans_color_among_equal_colors():
    # a column of six points: every pair realizes TIED.  The realizer
    # (0, 5) comes first in table order but completes last in the search.
    ground = cond(*((0, y) for y in range(1, 7)))
    index = {p: i for i, p in enumerate(sorted(ground.points))}
    colors = {(0, 5): 1.0, (1, 2): 1}
    coloring = Coloring.from_rule(
        ground, 2, lambda pts: colors.get(tuple(sorted(index[p] for p in pts))))
    result = search_homogeneous(coloring, TIED, mode="exact")
    assert result.size == 6
    assert result.color == 1 and isinstance(result.color, float)


def test_search_greedy_always_returns_homogeneous_subset():
    rng = random.Random(42)
    for _ in range(20):
        ground = random_condition(rng, rng.randint(4, 12))
        coloring = Coloring.from_rule(
            ground, 2, lambda pts: (min(p.y for p in pts) + max(p.x for p in pts)) % 3
        )
        result = search_homogeneous(coloring, SPLIT, mode="greedy")
        assert not result.exact
        report = check_tau_homogeneous(result.points, coloring, SPLIT)
        assert report.homogeneous
        assert "removed" in result.stats


def test_search_greedy_agrees_with_exact_often_enough_to_matter():
    # not an optimality claim, just a sanity check that greedy is not trivial
    ground = cond((0, 1), (0, 2), (3, 4), (3, 5))
    coloring = Coloring.from_rule(
        ground, 2,
        lambda pts: min(p.y for p in pts) % 2 if len({p.x for p in pts}) == 1 else None,
    )
    exact = search_homogeneous(coloring, TIED, mode="exact")
    greedy = search_homogeneous(coloring, TIED, mode="greedy")
    assert len(greedy.points) >= 3
    assert check_tau_homogeneous(greedy.points, coloring, TIED).homogeneous
    assert exact.size >= greedy.size


def random_coloring(rng, size, n):
    """A seeded partial coloring: colors of mixed types, some subsets None."""
    ground = random_condition(rng, size)
    palette = [None, 0, 1, 1.0, True, "1", "red"]
    table = {frozenset(combo): rng.choice(palette)
             for combo in combinations(ground.sorted_points, n)}
    return Coloring.from_rule(ground, n, lambda pts: table[frozenset(pts)])


def typed(rows):
    # 1, 1.0 and True are one colour but print differently
    return [(mask, c, type(c)) for mask, c in rows]


def assert_tables_match_oracle(coloring, rng):
    part = rng.sample(coloring.ground.sorted_points, len(coloring.ground) // 2)
    ground = sorted(coloring.ground.points)
    index = {p: i for i, p in enumerate(ground)}
    for tau in enumerate_ntypes(coloring.n):
        oracle = oracles.tau_realizer_table(coloring, tau)
        # search reads the ground's rows in table order, by index tuples
        rows = homogeneity._realizer_rows(coloring, tau, coloring.ground.sorted_points)
        table = sorted(rows, key=lambda row: [i for i in range(len(ground)) if row[0] >> i & 1])
        assert typed(table) == typed(oracle)
        colored = dict(oracle)
        for subset in (coloring.ground, part):
            # check reads its subset's rows in walk order, the y-sequences'
            pts = tuple(sorted(subset, key=lambda p: p.y))
            masks = (sum(1 << index[p] for p in combo) for combo in combinations(pts, tau.n))
            walk = [(mask, colored[mask]) for mask in masks if mask in colored]
            assert typed(homogeneity._realizer_rows(coloring, tau, pts)) == typed(walk)
            report = check_tau_homogeneous(subset, coloring, tau)
            homogeneous, color, realizers, vacuous = oracles.tau_check_scan(subset, coloring, tau)
            assert (report.homogeneous, report.color, type(report.color), report.realizers,
                    report.vacuous) == (homogeneous, color, type(color), realizers, vacuous)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [2, 3])
def test_realizer_tables_match_per_subset_oracle(seed, n):
    rng = random.Random(seed)
    assert_tables_match_oracle(random_coloring(rng, rng.randint(n, 12), n), rng)


def test_check_and_search_name_their_colours_in_their_own_orders():
    # both pairs realize x1<x2<y1<y2.  By y-sequence (6,16),(10,27) comes
    # first; by index tuple over the (x, y)-sorted ground (2,18),(10,27)
    ground = cond((2, 18), (6, 16), (10, 27))
    tau = parse_list_form("x1<x2<y1<y2")
    first = oracles.find_realizer_scan(ground, tau)
    assert first == (Point(6, 16), Point(10, 27))
    coloring = Coloring.from_rule(ground, 2, lambda pts: 1.0 if pts == first else 1)
    report = check_tau_homogeneous(ground, coloring, tau)
    assert report.homogeneous and (report.color, type(report.color)) == (1.0, float)
    result = search_homogeneous(coloring, tau)
    assert result.size == 3 and (result.color, type(result.color)) == (1, int)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=12),
       st.sampled_from([2, 3]))
def test_realizer_tables_match_oracle_on_hypothesis_colorings(seed, size, n):
    rng = random.Random(seed)
    assert_tables_match_oracle(random_coloring(rng, size, n), rng)


SEARCH_COLORS = [None, 0, 1, 1.0, True, "a"]
UNCOLORED = object()  # no table entry: the subset is outside a partial coloring
NAN = float("nan")  # one object: a set or a Counter takes it as one colour, == does not
# the colour rule's hard cases: one class under three types, strings, no
# colour, and NaNs, each realizer of which is a class of its own
CLASS_PALETTES = [[1, 1.0, True], ["a", "b"], [None, 1], [NAN], [NAN, 1],
                  ["a", "b", "c", UNCOLORED]]


def assert_search_matches_scan(coloring, tau, min_size):
    result = search_homogeneous(coloring, tau, min_size=min_size, mode="exact")
    points, color, size, met, stats = oracles.exact_search_scan(coloring, tau, min_size)
    assert (result.points, result.size, result.met_min_size, result.stats) == (
        points, size, met, stats)
    # 1, 1.0 and True are one colour but print differently
    assert (result.color, type(result.color)) == (color, type(color))


def drawn_coloring(data, size, n, palette):
    """A partial coloring of a seeded random ground from ``palette``
    (UNCOLORED leaves a subset out), with a pattern drawn from those the
    ground realizes; a pattern it lacks is vacuous."""
    ground = random_condition(random.Random(data.draw(st.integers(0, 10_000))), size)
    combos = list(combinations(ground.sorted_points, n))
    colors = data.draw(st.lists(st.sampled_from(palette),
                                min_size=len(combos), max_size=len(combos)))
    table = {frozenset(c): color for c, color in zip(combos, colors) if color is not UNCOLORED}
    coloring = Coloring.from_table(ground, n, table, partial=True)
    tau = data.draw(st.sampled_from(list(classify_subsets(ground, n))
                                    or list(enumerate_ntypes(n))))
    return coloring, tau


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(min_value=0, max_value=12), st.sampled_from([2, 3]))
def test_exact_search_matches_scan_on_hypothesis_colorings(data, size, n):
    coloring, tau = drawn_coloring(data, size, n, SEARCH_COLORS + [UNCOLORED])
    assert_search_matches_scan(coloring, tau, data.draw(st.integers(0, size + 1)))


@pytest.mark.parametrize("palette", CLASS_PALETTES, ids=range(len(CLASS_PALETTES)))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), size=st.integers(min_value=0, max_value=12), n=st.sampled_from([2, 3]))
def test_exact_search_matches_scan_on_each_class_palette(palette, data, size, n):
    coloring, tau = drawn_coloring(data, size, n, palette)
    assert_search_matches_scan(coloring, tau, data.draw(st.integers(0, size + 1)))


def planted_coloring(rng, m, n, most=5, palette=(1, 1.0, True, "a")):
    """Every n-subset colored 0, then 1 to ``most`` pairwise disjoint
    realizers of the ground's most frequent pattern recolored from
    ``palette`` (fewer where not that many exist); returns it with the
    pattern."""
    ground = random_condition(rng, m)
    groups = classify_subsets(ground, n)
    tau = max(groups, key=lambda t: (len(groups[t]), list_form(t)))
    table = {frozenset(c): 0 for c in combinations(ground.sorted_points, n)}
    used: set = set()
    defects = rng.randint(1, most)
    for combo in rng.sample(groups[tau], len(groups[tau])):
        if len(used) < n * defects and not used & set(combo):
            table[frozenset(combo)] = rng.choice(palette)
            used |= set(combo)
    return Coloring.from_table(ground, n, table), tau


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("m", range(13, 19))
@pytest.mark.parametrize("n", [2, 3])
def test_exact_search_matches_scan_on_planted_colorings(m, n, seed):
    rng = random.Random(1000 * m + 10 * n + seed)
    coloring, tau = planted_coloring(rng, m, n)
    assert_search_matches_scan(coloring, tau, rng.randint(m - 6, m))


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("m", range(9, 15))
@pytest.mark.parametrize("n", [2, 3])
def test_exact_search_matches_scan_with_up_to_half_the_points_planted(m, n, seed):
    # up to m // 2 defects, so the packing cut has realizers of the other
    # classes to count; string and NaN defects are classes of their own
    rng = random.Random(1000 * m + 10 * n + seed + 500)
    coloring, tau = planted_coloring(rng, m, n, m // 2, [1, 1.0, True, "a", "b", NAN])
    assert_search_matches_scan(coloring, tau, rng.randint(0, m))


def test_off_colour_realizers_through_one_point_cost_that_point_once():
    # a column of six points, every pair a TIED realizer.  Colour 1 is on
    # the lowest pair, which the search meets first, and on every pair
    # with the top point; those share the top point, so the cut for
    # colour 0 may count only one of them.  The answer is the largest
    # colour-0 set, found only after the first colour-1 dive.
    ground = cond(*((0, y) for y in range(1, 7)))
    coloring = Coloring.from_rule(
        ground, 2, lambda pts: int(pts[0].y == 1 and pts[1].y == 2 or pts[1].y == 6))
    result = search_homogeneous(coloring, TIED)
    assert [p.y for p in result.points] == [1, 3, 4, 5] and result.color == 0
    assert_search_matches_scan(coloring, TIED, 0)


def test_colour_classes_follow_the_one_colour_rule():
    colors = [1, None, 1.0, True, "1", NAN, NAN, [1], [1], "1", float("nan"), (1,)]
    assert homogeneity._color_classes(colors) == (
        [0, None, 0, 0, 1, 2, 3, 4, 4, 1, 5, 6], 7)


def assert_greedy_matches_scan(coloring, tau):
    result = search_homogeneous(coloring, tau, mode="greedy")
    points, color, removed = oracles.greedy_search_scan(coloring, tau)
    assert (result.points, result.size, result.stats) == (
        points, len(points), {"mode": "greedy", "removed": removed})
    assert (result.color, type(result.color)) == (color, type(color))


@pytest.mark.parametrize("first, second", [(1, 0), (0, 1), ("a", True)])
def test_greedy_search_breaks_a_majority_tie_by_the_first_colour_seen(first, second):
    # a column of four points, every pair a TIED realizer: (0, 1) and
    # (2, 3) carry one colour each, so the majority is (0, 1)'s colour
    # and index 2 goes
    ground = cond(*((0, y) for y in range(1, 5)))
    colors = {(1, 2): first, (3, 4): second}
    coloring = Coloring.from_rule(
        ground, 2, lambda pts: colors.get(tuple(p.y for p in pts)))
    result = search_homogeneous(coloring, TIED, mode="greedy")
    assert result.points == (Point(0, 1), Point(0, 2), Point(0, 4))
    assert (result.color, result.stats["removed"]) == (first, 1)
    assert_greedy_matches_scan(coloring, TIED)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n", [2, 3])
def test_greedy_search_matches_scan_on_seeded_colorings(seed, n):
    rng = random.Random(seed)
    coloring = random_coloring(rng, rng.randint(n, 16), n)
    groups = classify_subsets(coloring.ground, n)
    for tau in sorted(groups, key=list_form)[:4]:
        assert_greedy_matches_scan(coloring, tau)
    planted, tau = planted_coloring(rng, rng.randint(8, 14), n)
    assert_greedy_matches_scan(planted, tau)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(min_value=0, max_value=13), st.sampled_from([2, 3]),
       st.sampled_from([[0, 1], [0, 1, "a"], SEARCH_COLORS + [UNCOLORED]]))
def test_greedy_search_matches_scan_on_hypothesis_colorings(data, size, n, palette):
    assert_greedy_matches_scan(*drawn_coloring(data, size, n, palette))



@pytest.mark.parametrize("seed, palette", enumerate(
    [[1, 1.0, True], ["a", "b"], [None, 1], [NAN], [NAN, 1]]))
def test_check_exact_and_greedy_share_one_colour_rule(seed, palette):
    # the whole ground is homogeneous exactly when exact search keeps every
    # point and greedy search removes none
    rng = random.Random(seed)
    for _ in range(80):
        n = rng.choice([2, 3])
        ground = random_condition(rng, rng.randint(3, 9))
        combos = combinations(ground.sorted_points, n)
        coloring = Coloring.from_table(ground, n, {c: rng.choice(palette) for c in combos})
        tau = rng.choice(sorted(classify_subsets(ground, n), key=list_form))
        homogeneous = check_tau_homogeneous(ground, coloring, tau).homogeneous
        assert (search_homogeneous(coloring, tau).size == len(ground)) == homogeneous
        greedy = search_homogeneous(coloring, tau, mode="greedy")
        assert (greedy.stats["removed"] == 0) == homogeneous


def test_floor_demo_exact_counts():
    for n in (2, 3):
        grown = extend_with_realizers(EMPTY, n)
        report = weak_ramsey_floor_demo(grown, n)
        assert report.classes_met == count_ntypes(n)
        assert report.t_n == count_ntypes(n)
        assert report.floor_holds
        assert report.missing == ()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=14),
       st.integers(min_value=1, max_value=3))
def test_floor_demo_matches_rescanning_oracle(seed, size, n):
    c = random_condition(random.Random(seed), size)
    report = weak_ramsey_floor_demo(c, n)
    assert (report.classes_met, report.t_n, report.floor_holds,
            report.missing) == oracles.floor_scan(c, n)


@pytest.mark.parametrize("n, keep", [(3, 5), (3, 12), (4, 6), (4, 10)])
def test_floor_demo_matches_the_listing_on_damaged_growths(n, keep):
    # a growth with most of its value-separated blocks removed misses
    # patterns; the floor must name exactly those absent from the listing
    grown = extend_with_realizers(EMPTY, n)
    blocks = oracles.value_separated_blocks(grown)
    kept = random.Random(keep).sample(blocks, keep)
    damaged = FiniteCondition(frozenset(p for block in kept for p in block))
    listed = classify_subsets(damaged, n)
    report = weak_ramsey_floor_demo(damaged, n)
    assert report.classes_met == len(listed) < count_ntypes(n)
    assert report.missing == tuple(
        list_form(t) for t in enumerate_ntypes(n) if t not in listed)
    assert not report.floor_holds


def test_floor_demo_reports_missing_patterns():
    report = weak_ramsey_floor_demo(GROUND, 2)
    assert not report.floor_holds
    assert "x2<x1<y1<y2" in report.missing
    assert report.classes_met == 3


def test_stabilize_lex_basic():
    rows = [[0, 0, 1], [0, 1, 0], [0, 1, 1]]
    report = stabilize_lex(rows)
    assert report.stable == (0, 1, 1)
    assert report.positions == (0, 1, 2)


def test_stabilize_lex_column_zero_never_moves():
    rows = [[0, 1], [1, 0], [1, 1]]
    report = stabilize_lex(rows)
    assert report.stable == (1, 1)
    assert report.positions[0] == 1


def test_stabilize_lex_rejects_disorder():
    with pytest.raises(LexOrderError) as err:
        stabilize_lex([[0, 1], [0, 0]])
    assert err.value.index == 0
    assert err.value.witness == ((0, 1), (0, 0))


def test_stabilize_lex_rejects_ragged_and_nonbinary():
    with pytest.raises(ValueError):
        stabilize_lex([[0, 1], [0]])
    with pytest.raises(ValueError):
        stabilize_lex([[0, 2]])
    with pytest.raises(ValueError):
        stabilize_lex([])


def test_stabilize_decreasing_is_bitwise_mirror():
    rows = [[1, 1, 0], [1, 0, 1], [1, 0, 0]]
    report = stabilize_lex(rows, direction="decreasing")
    mirrored = stabilize_lex([[1 - b for b in row] for row in rows])
    assert report.stable == tuple(1 - b for b in mirrored.stable)
    assert report.positions == mirrored.positions


def test_stabilize_decreasing_flags_disorder_on_original_rows():
    with pytest.raises(LexOrderError) as err:
        stabilize_lex([[0, 0], [0, 1]], direction="decreasing")
    assert err.value.witness == ((0, 0), (0, 1))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_stabilize_lex_property(width, seed):
    rng = random.Random(seed)
    rows = sorted(
        {tuple(rng.randint(0, 1) for _ in range(width)) for _ in range(rng.randint(1, 12))}
    )
    report = stabilize_lex(rows)
    assert len(report.stable) == width
    assert len(report.positions) == width
    # each column really is constant from its reported position on
    for j, pos in enumerate(report.positions):
        tail = {row[j] for row in rows[pos:]}
        assert tail == {report.stable[j]}
        if pos > 0:
            assert rows[pos - 1][j] != report.stable[j]


def grid_cond():
    return cond((0, 4), (0, 5), (0, 8), (1, 3), (1, 6), (2, 10))


def test_extract_s_statuses():
    grid = TernaryRelationGrid.from_function(
        3, 12, 2, lambda x, y, z: (y + z) % 2 == 0 if x < 2 else y < 3
    )
    statuses = extract_S_from_R(grid, grid_cond(), window=3)
    assert statuses[(0, 0)] == UNSTABLE
    assert statuses[(0, 1)] == UNSTABLE
    assert statuses[(1, 0)] == NO_DATA
    assert statuses[(2, 1)] == NO_DATA

    flat = TernaryRelationGrid.from_function(3, 12, 2, lambda x, y, z: z == 1)
    statuses = extract_S_from_R(flat, grid_cond(), window=1)
    assert statuses[(0, 0)] == STABLE_0
    assert statuses[(0, 1)] == STABLE_1
    assert statuses[(1, 1)] == STABLE_1


def test_extract_s_window_and_bounds_checks():
    grid = TernaryRelationGrid.from_function(1, 2, 1, lambda x, y, z: True)
    with pytest.raises(ValueError):
        extract_S_from_R(grid, grid_cond(), window=0)
    with pytest.raises(ValueError):
        extract_S_from_R(grid, cond((5, 9)), window=1)  # x=5 outside grid


def test_grid_json_round_trip():
    grid = TernaryRelationGrid.from_function(2, 3, 2, lambda x, y, z: (x + y + z) % 2 == 0)
    assert grid_from_json(grid_to_json(grid)) == grid
    with pytest.raises(ValueError):
        grid_from_json({"triples": []})


def test_coloring_json_round_trip_and_validation():
    doc = {
        "n": 2,
        "entries": [
            {"subset": [[0, 1], [0, 2]], "color": "red"},
            {"subset": [[0, 1], [3, 5]], "color": 7},
            {"subset": [[0, 2], [3, 5]], "color": 7},
        ],
    }
    coloring = coloring_from_json(doc)
    assert coloring.n == 2
    assert coloring.color_of([Point(0, 1), Point(0, 2)]) == "red"
    bad = {"n": 2, "entries": [{"subset": [[0, 1]], "color": 1}]}
    with pytest.raises(ValueError):
        coloring_from_json(bad)


def test_coloring_csv_ingestion(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("0,1,0,2,red\n0,1,3,5,blue\n0,2,3,5,blue\n")
    coloring = coloring_from_csv(str(path))
    assert coloring.color_of([Point(0, 1), Point(0, 2)]) == "red"
    assert coloring.color_of([Point(0, 2), Point(3, 5)]) == "blue"


READER_COLORS = [0, 1, 1.0, True, "a", None]


def reader_inputs(rng, size, n, full):
    """A seeded coloring of a random ground's n-subsets as a JSON document
    and as CSV text, plus grounds to pass with it: a sub-condition of the
    table's ground, the table's ground with points no entry names, and
    the sub-condition with those points.  Entries come in random order,
    with repeats, with the points of each subset shuffled and, in the
    CSV, some coordinates zero-padded; ``full`` lists every n-subset at
    least once."""
    cond = random_condition(rng, size)
    combos = list(combinations(cond.sorted_points, n))
    picks = [] if not combos else [rng.choice(combos)
                                   for _ in range(rng.randint(0, 2 * len(combos)))]
    if full:
        picks += combos
    rng.shuffle(picks)
    entries = [(rng.sample(combo, n), rng.choice(READER_COLORS)) for combo in picks]
    doc = {"n": n, "entries": [{"subset": [[p.x, p.y] for p in pts], "color": c}
                               for pts, c in entries]}
    text = "".join(",".join(["0" * rng.choice([0, 0, 1, 2]) + str(v)
                             for p in pts for v in (p.x, p.y)] + [str(c)]) + "\n"
                   for pts, c in entries)
    sub = FiniteCondition(frozenset(rng.sample(sorted(cond.points), rng.randint(0, size))))
    # points above every coordinate of the table's, so any union stays a condition
    top = max((p.y for p in cond.points), default=0) + 1
    extra = {Point(p.x + top, p.y + top) for p in random_condition(rng, rng.randint(1, 3))}
    return doc, text, (sub, cond.union(extra), sub.union(extra))


def assert_readers_match_scan(tmp_path_factory, doc, text, grounds):
    path = str(tmp_path_factory.mktemp("readers") / "coloring.csv")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    for ground in (None, *grounds):
        for partial in (False, True):
            assert (oracles.coloring_outcome(coloring_from_json, doc, ground, partial)
                    == oracles.coloring_outcome(oracles.coloring_from_json_scan,
                                                doc, ground, partial))
            assert (oracles.coloring_outcome(coloring_from_csv, path, ground, partial)
                    == oracles.coloring_outcome(oracles.coloring_from_csv_scan,
                                                path, ground, partial))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("size", [0, 1, 5, 9, 14])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_coloring_readers_match_the_scan_readers_on_seeded_colorings(
        tmp_path_factory, seed, size, n):
    rng = random.Random(100 * size + 10 * n + seed)
    assert_readers_match_scan(tmp_path_factory, *reader_inputs(rng, size, n, seed != 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 8), st.integers(0, 3), st.booleans())
def test_coloring_readers_match_the_scan_readers_on_hypothesis_colorings(
        tmp_path_factory, seed, size, n, full):
    assert_readers_match_scan(tmp_path_factory,
                              *reader_inputs(random.Random(seed), size, n, full))


@pytest.mark.parametrize("entries, text", [
    # a subset that repeats a point is one point short
    ([[[0, 1], [0, 1]]], "0,1,0,1,a\n"),
    # repeated, it still names two points: the JSON reader takes it, and
    # the CSV reader counts its size by pairs
    ([[[0, 1], [0, 2], [0, 1]], [[0, 1], [0, 3]]], "0,1,0,2,0,1,a\n0,1,0,3,b\n"),
    # "007" and "7" are one point, and a repeat keeps its last colour
    ([[[0, 7], [0, 9]], [[0, 9], [0, 7]]], "0,7,0,9,a\n0,009,0,007,b\n"),
    ([[[0, 1], [0, 7]]], "0,1,0,7,a\n0,01,0,007,b\n0,1,0,9,c\n"),
], ids=["short", "repeated", "padded", "padded-partial"])
def test_a_repeated_or_padded_point_is_read_as_the_scan_reads_it(tmp_path, entries, text):
    doc = {"n": 2, "entries": [{"subset": s, "color": i} for i, s in enumerate(entries)]}
    path = tmp_path / "c.csv"
    path.write_text(text)
    for partial in (False, True):
        assert (oracles.coloring_outcome(coloring_from_json, doc, partial=partial)
                == oracles.coloring_outcome(oracles.coloring_from_json_scan, doc,
                                            partial=partial))
        assert (oracles.coloring_outcome(coloring_from_csv, str(path), partial=partial)
                == oracles.coloring_outcome(oracles.coloring_from_csv_scan, str(path),
                                            partial=partial))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_colours_are_read_without_hashing_points_per_realizer(tmp_path, monkeypatch, fmt):
    # a table read from a file keys its subsets by point masks, so reading
    # it, checking it and both searches hash each point a few times, not
    # once or more per realizer
    rng = random.Random(7)
    m, n = 24, 3
    ground = random_condition(rng, m)
    groups = classify_subsets(ground, n)
    tau = max(groups, key=lambda t: (len(groups[t]), list_form(t)))
    rows = [(combo, int(rng.random() < 0.02)) for combo in combinations(ground.sorted_points, n)]
    path = tmp_path / f"coloring.{fmt}"
    if fmt == "json":
        path.write_text(json.dumps({"n": n, "entries": [
            {"subset": [[p.x, p.y] for p in combo], "color": c} for combo, c in rows]}))
    else:
        path.write_text("".join(",".join(str(v) for p in combo for v in (p.x, p.y))
                                + f",{c}\n" for combo, c in rows))
    hashes = []
    point_hash = Point.__hash__
    monkeypatch.setattr(Point, "__hash__", lambda p: hashes.append(p) or point_hash(p))
    if fmt == "json":
        coloring = coloring_from_json(json.loads(path.read_text()))
    else:
        coloring = coloring_from_csv(str(path))
    report = check_tau_homogeneous(coloring.ground, coloring, tau)
    exact = search_homogeneous(coloring, tau)
    greedy = search_homogeneous(coloring, tau, mode="greedy")
    monkeypatch.undo()
    assert len(hashes) <= 16 * m < report.realizers == len(groups[tau])
    assert not report.homogeneous and exact.size >= greedy.size


def test_a_cached_point_does_not_admit_a_boolean_or_a_float():
    for bad, shown in ((True, "true"), (1.0, "1.0")):
        doc = {"n": 2, "entries": [{"subset": [[1, 2], [1, 3]], "color": 0},
                                   {"subset": [[1, 3], [bad, 2]], "color": 0}]}
        with pytest.raises(ValueError) as exc:
            coloring_from_json(doc)
        assert str(exc.value) == (f"entries[1].subset[1][0]: expected a natural number, "
                                  f"got {shown}")
    # an int subclass leaves the cache to the path-naming reader, which takes it
    doc = {"n": 2, "entries": [{"subset": [[0, 1], [0, 2]], "color": 0},
                               {"subset": [[0, 2], [type("Nat", (int,), {})(0), 3]],
                                "color": 0}]}
    assert (oracles.coloring_outcome(coloring_from_json, doc, partial=True)
            == oracles.coloring_outcome(oracles.coloring_from_json_scan, doc, partial=True))
    assert len(coloring_from_json(doc, partial=True).ground) == 3


@pytest.mark.parametrize("text, shown", [("NaN", "NaN"), ("-Infinity", "-Infinity"),
                                         ("1e400", "Infinity")])
def test_a_colour_that_is_not_finite_is_refused_at_its_path(text, shown):
    doc = json.loads('{"n": 2, "entries": [{"subset": [[0, 1], [0, 2]], "color": 0}, '
                     '{"subset": [[0, 1], [0, 3]], "color": %s}]}' % text)
    message = f"entries[1].color: expected a finite JSON scalar, got {shown}"
    for read in (coloring_from_json, oracles.coloring_from_json_scan):
        assert oracles.coloring_outcome(read, doc, partial=True) == (ValueError, message)


def test_an_unknown_mode_or_direction_is_refused():
    coloring = realized_type_coloring(FiniteCondition(frozenset({Point(0, 1), Point(0, 2)})), 1)
    with pytest.raises(ValueError, match="^mode must be 'exact' or 'greedy', got 'fast'$"):
        search_homogeneous(coloring, parse_list_form("x1<y1"), mode="fast")
    with pytest.raises(ValueError, match="^direction must be 'increasing' or 'decreasing', "
                                         "got 'sideways'$"):
        stabilize_lex([[0, 1], [1, 0]], "sideways")


def test_csv_coordinates_are_read_as_numbers(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("0,7,0,007,c\n")
    with pytest.raises(ValueError) as exc:
        coloring_from_csv(str(path))
    assert str(exc.value) == "row 1: not a 2-set: ['0', '7', '0', '007']"
    path.write_text("0,1,0,2,a\n0,01,0,3,b\n0,2,0,03,c\n")
    coloring = coloring_from_csv(str(path))
    assert coloring.ground == cond((0, 1), (0, 2), (0, 3))
    assert coloring.color_of([(0, 1), (0, 3)]) == "b"


def test_a_repeated_subset_keeps_its_last_colour(tmp_path):
    entries = [([[0, 1], [0, 2]], "a"), ([[0, 2], [0, 1]], "b")]
    doc = {"n": 2, "entries": [{"subset": s, "color": c} for s, c in entries]}
    assert coloring_from_json(doc).color_of([(0, 1), (0, 2)]) == "b"
    path = tmp_path / "c.csv"
    path.write_text("0,1,0,2,a\n0,2,0,1,b\n")
    assert coloring_from_csv(str(path)).color_of([(0, 1), (0, 2)]) == "b"


def test_a_table_that_is_not_total_names_its_first_missing_subset(tmp_path):
    # (0,1) (0,2) (0,3) (0,4): the table lacks {(0,1), (0,4)} and {(0,2), (0,3)}
    pairs = [((0, 1), (0, 2)), ((0, 1), (0, 3)), ((0, 2), (0, 4)), ((0, 3), (0, 4))]
    doc = {"n": 2, "entries": [{"subset": [list(a), list(b)], "color": 0} for a, b in pairs]}
    path = tmp_path / "c.csv"
    path.write_text("".join(f"{a[0]},{a[1]},{b[0]},{b[1]},0\n" for a, b in pairs))
    message = "coloring table is not total: no color for (0,1), (0,4)"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        coloring_from_json(doc)
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        coloring_from_csv(str(path))


def test_entries_outside_the_ground_do_not_count_toward_totality(tmp_path):
    ground = cond((0, 1), (0, 2), (0, 3))
    # two of the ground's three pairs and one pair outside it
    doc = {"n": 2, "entries": [{"subset": s, "color": 0} for s in
                               ([[0, 1], [0, 2]], [[0, 2], [0, 3]], [[0, 1], [0, 4]])]}
    message = re.escape("coloring table is not total: no color for (0,1), (0,3)") + "$"
    with pytest.raises(ValueError, match=message):
        coloring_from_json(doc, ground)
    path = tmp_path / "c.csv"
    path.write_text("0,1,0,2,0\n0,2,0,3,0\n0,1,0,4,0\n")
    with pytest.raises(ValueError, match=message):
        coloring_from_csv(str(path), ground)
    # keys of the wrong size inside the ground do not count either
    table = {(Point(0, 1), Point(0, 2)): 0, (Point(0, 2), Point(0, 3)): 0}
    for wrong in ((Point(0, 1),), (Point(0, 1), Point(0, 2), Point(0, 3))):
        with pytest.raises(ValueError, match=message):
            Coloring.from_table(ground, 2, {**table, wrong: 0})
    table[(Point(0, 3), Point(0, 1))] = 1
    assert Coloring.from_table(ground, 2, table).color_of([(0, 1), (0, 3)]) == 1


def test_the_values_bound_counts_extracted_statuses(monkeypatch):
    grid = TernaryRelationGrid(2, 1, 3, frozenset())
    monkeypatch.setitem(WORK_BOUNDS, "values", 6)
    assert len(extract_S_from_R(grid, EMPTY)) == 6
    monkeypatch.setitem(WORK_BOUNDS, "values", 5)
    with pytest.raises(LimitError, match="extraction refused: a 2 x 3 grid has "
                                         "6 statuses, the bound is 5"):
        extract_S_from_R(grid, EMPTY)


def test_huge_grids_are_refused_before_any_status():
    grid = TernaryRelationGrid(100_000, 1, 100_000, frozenset())
    with pytest.raises(LimitError, match="10000000000 statuses"):
        extract_S_from_R(grid, EMPTY)
