import random
import time
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ramseybench.errors import WORK_BOUNDS, LimitError, NoRealizedTypeError
from ramseybench.pointsets import (
    CLAUSE_DIAGONAL,
    CLAUSE_SECTIONS,
    CLAUSE_XY,
    FiniteCondition,
    Point,
    check_condition,
    classify_subsets,
    condition_from_json,
    condition_to_json,
    extend_with_realizers,
    find_realizer,
    random_condition,
    realized_type,
    subset_realizes,
)
from ramseybench.pointsets import _keyed_subsets, _type_key
from ramseybench.typecalc import count_ntypes, enumerate_ntypes, list_form, parse_list_form

EMPTY = FiniteCondition(frozenset())


def cond(*pairs):
    return FiniteCondition(frozenset(Point(x, y) for x, y in pairs))


def test_point_rejects_negative():
    with pytest.raises(ValueError):
        Point(-1, 2)


def test_check_condition_accepts_good_sets():
    assert check_condition([]).ok
    assert check_condition([(0, 1)]).ok
    assert check_condition([(0, 1), (0, 2), (3, 5)]).ok


def test_check_condition_flags_shared_section_value():
    report = check_condition([(0, 3), (1, 3)])
    assert not report.ok
    assert {v.clause for v in report.violations} == {CLAUSE_SECTIONS}


def test_check_condition_flags_on_or_below_diagonal():
    report = check_condition([(2, 2)])
    assert {v.clause for v in report.violations} == {CLAUSE_XY, CLAUSE_DIAGONAL}
    report = check_condition([(5, 3)])
    assert CLAUSE_DIAGONAL in {v.clause for v in report.violations}


def test_check_condition_flags_x_meeting_y():
    report = check_condition([(0, 2), (2, 5)])
    assert not report.ok
    assert {v.clause for v in report.violations} == {CLAUSE_XY}


def test_violation_witnesses_are_reported():
    report = check_condition([(0, 3), (1, 3)])
    (violation,) = report.violations
    assert set(violation.witness) == {Point(0, 3), Point(1, 3)}
    assert "sections-disjoint" in violation.describe()


ALL_CLAUSES = {CLAUSE_SECTIONS, CLAUSE_DIAGONAL, CLAUSE_XY}


def test_check_condition_matches_the_rescanning_oracle():
    rng = random.Random(20261018)
    met = set()
    for _ in range(300):
        pts = [(rng.randrange(12), rng.randrange(12)) for _ in range(rng.randint(0, 14))]
        report = check_condition(pts)
        assert report == oracles.check_condition_scan(pts)
        met |= {v.clause for v in report.violations}
    assert met == ALL_CLAUSES


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=12),
       st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
def test_check_condition_matches_the_oracle_on_every_break(pts, a, b, c):
    # a shared y, then a point on the diagonal whose value is both an x and a y
    pts = pts + [(a, 13 + b), (a + 1, 13 + b), (c, c)]
    report = check_condition(pts)
    assert {v.clause for v in report.violations} == ALL_CLAUSES
    assert report == oracles.check_condition_scan(pts)


def test_check_condition_is_linear_on_long_chains():
    # (i, i + 1) makes every value but the ends both an x and a y
    chain = [(i, i + 1) for i in range(20_000)]
    start = time.perf_counter()
    report = check_condition(chain)
    assert time.perf_counter() - start < 1.0
    assert len(report.violations) == 19_999
    assert report.violations[0].witness == (Point(1, 2), Point(0, 1))


def test_finite_condition_rejects_invalid_input():
    with pytest.raises(ValueError):
        cond((0, 3), (1, 3))


def test_columns_and_ordering():
    c = cond((0, 1), (0, 4), (3, 5))
    assert c.columns() == {0: [1, 4], 3: [5]}
    assert [p.y for p in c.sorted_points] == [1, 4, 5]
    assert len(c) == 3
    assert Point(0, 4) in c


def test_realized_type_tied_and_split():
    assert list_form(realized_type([(0, 1), (0, 2)])) == "x1=x2<y1<y2"
    assert list_form(realized_type([(0, 2), (1, 3)])) == "x1<x2<y1<y2"
    assert list_form(realized_type([(1, 2), (0, 3)])) == "x2<x1<y1<y2"
    assert list_form(realized_type([(0, 1), (2, 3)])) == "x1<y1<x2<y2"


def test_realized_type_single_point():
    assert list_form(realized_type([(4, 9)])) == "x1<y1"


def test_realized_type_raises_with_clause():
    with pytest.raises(NoRealizedTypeError) as err:
        realized_type([(0, 3), (1, 3)])
    assert err.value.clause == CLAUSE_SECTIONS
    with pytest.raises(NoRealizedTypeError):
        realized_type([(0, 2), (2, 4)])


def test_subset_realizes_agrees_with_realized_type():
    c = cond((0, 1), (0, 2), (3, 5), (4, 6), (8, 9), (7, 10))
    for n in (1, 2, 3):
        all_types = enumerate_ntypes(n)
        for combo in combinations(c.sorted_points, n):
            t = realized_type(combo)
            assert subset_realizes(combo, t)
            assert oracles.subset_realizes_compare(combo, t)
            for other in all_types:
                if other != t:
                    assert not subset_realizes(combo, other)
                    assert not oracles.subset_realizes_compare(combo, other)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=8))
def test_random_conditions_realize_exactly_one_type(seed, n_points):
    rng = random.Random(seed)
    c = random_condition(rng, n_points)
    assert len(c) == n_points
    assert check_condition(c.points).ok
    n = 2 if n_points < 6 else 3
    all_types = enumerate_ntypes(n)
    for combo in combinations(c.sorted_points, n):
        t = realized_type(combo)
        matches = [u for u in all_types if subset_realizes(combo, u)]
        assert matches == [t]


def test_find_realizer_prefers_least_y_sequence():
    c = cond((0, 1), (0, 2), (3, 5), (4, 6))
    got = find_realizer(c, parse_list_form("x1=x2<y1<y2"))
    assert got == (Point(0, 1), Point(0, 2))
    got = find_realizer(c, parse_list_form("x1<x2<y1<y2"))
    assert got == (Point(3, 5), Point(4, 6))
    assert find_realizer(c, parse_list_form("x2<x1<y1<y2")) is None


def test_find_realizer_empty_and_too_small():
    assert find_realizer(EMPTY, parse_list_form("x1<y1")) is None
    assert find_realizer(cond((0, 1)), parse_list_form("x1<y1<x2<y2")) is None


def test_classify_subsets_partitions_everything():
    c = cond((0, 1), (0, 2), (3, 5), (4, 6), (8, 9), (7, 10))
    for n in (1, 2, 3):
        index = classify_subsets(c, n)
        total = sum(len(subs) for subs in index.values())
        from math import comb

        assert total == comb(len(c), n)
        for t, subs in index.items():
            for sub in subs:
                assert realized_type(sub) == t


def test_classify_subsets_refuses_above_its_bound(monkeypatch):
    monkeypatch.setitem(WORK_BOUNDS, "subsets", comb(10, 3))
    c = random_condition(random.Random(3), 11)
    at_bound = FiniteCondition(frozenset(c.sorted_points[:10]))
    assert sum(map(len, classify_subsets(at_bound, 3).values())) == comb(10, 3)
    with pytest.raises(LimitError, match="165 3-subsets, the bound is 120"):
        classify_subsets(c, 3)
    assert sum(map(len, classify_subsets(c, 2).values())) == comb(11, 2)


def test_extend_from_empty_covers_all_two_types():
    grown = extend_with_realizers(EMPTY, 2)
    assert check_condition(grown.points).ok
    assert len(grown) <= 7  # documented bound: at most 7 points suffice
    for t in enumerate_ntypes(2):
        assert find_realizer(grown, t) is not None


def test_extend_from_empty_covers_all_three_types():
    grown = extend_with_realizers(EMPTY, 3)
    assert check_condition(grown.points).ok
    for t in enumerate_ntypes(3):
        assert find_realizer(grown, t) is not None
    assert len(classify_subsets(grown, 3)) == count_ntypes(3)


def test_extend_is_monotone_and_idempotent():
    base = cond((0, 1), (2, 4))
    grown = extend_with_realizers(base, 2)
    assert base.issubset(grown)
    again = extend_with_realizers(grown, 2)
    assert again == grown  # nothing missing, nothing added


def test_extend_keeps_fresh_values_above_input():
    base = cond((0, 1), (2, 4))
    grown = extend_with_realizers(base, 2)
    new_points = set(grown.points) - set(base.points)
    top = 4
    assert all(p.x > top and p.y > top for p in new_points)


def test_json_round_trip():
    c = cond((0, 1), (0, 2), (3, 5))
    doc = condition_to_json(c)
    assert doc == [[0, 1], [0, 2], [3, 5]]
    assert condition_from_json(doc) == c
    assert condition_from_json([]) == EMPTY


def test_json_rejects_bad_documents():
    for bad in ({"pts": []}, [[1]], [[1, 2, 3]], "nope"):
        with pytest.raises(ValueError):
            condition_from_json(bad)


def test_pair_code_keys_agree_with_realized_type():
    # the scans compare pair-code keys; hold them to the real thing
    rng = random.Random(5)
    for _ in range(60):
        c = random_condition(rng, rng.randint(2, 7))
        for n in (1, 2, 3):
            for subset, key in _keyed_subsets(c.sorted_points, n):
                assert key == _type_key(realized_type(subset))
    for n in range(1, 5):
        assert len({_type_key(t) for t in enumerate_ntypes(n)}) == count_ntypes(n)


@st.composite
def conditions(draw, max_points=14):
    """Valid conditions on values below 40 whose x's come mostly from a
    few shared columns, so tied patterns are common."""
    size = draw(st.integers(0, max_points))
    ys = draw(st.lists(st.integers(1, 39), min_size=size, max_size=size, unique=True))
    columns = draw(st.lists(st.integers(0, 38), min_size=1, max_size=4))
    points = set()
    for y in ys:
        choices = [v for v in columns if v < y and v not in ys]
        if draw(st.booleans()) or not choices:
            choices = [v for v in range(y) if v not in ys]
        if choices:
            points.add(Point(draw(st.sampled_from(choices)), y))
    return FiniteCondition(frozenset(points))


def assert_scans_match_oracles(c, sizes):
    for n in sizes:
        index = classify_subsets(c, n)
        expected = oracles.classify_scan(c, n)
        assert list(index.items()) == list(expected.items())
        for t in enumerate_ntypes(n):
            assert find_realizer(c, t) == oracles.find_realizer_scan(c, t)


SEEDED = [random_condition(random.Random(seed), size)
          for seed, size in ((11, 9), (12, 12), (13, 14))]


@pytest.mark.parametrize("c", SEEDED, ids=lambda c: f"{len(c)} points")
def test_scans_match_signature_oracles_on_seeded_conditions(c):
    assert_scans_match_oracles(c, (1, 2, 3))


@settings(max_examples=40, deadline=None)
@given(conditions())
def test_scans_match_signature_oracles(c):
    assert_scans_match_oracles(c, (1, 2, 3))


@settings(max_examples=40, deadline=None)
@given(conditions(max_points=10), st.integers(1, 2))
def test_growth_matches_find_and_append_oracle(c, n):
    assert extend_with_realizers(c, n) == oracles.extend_scan(c, n)


@pytest.mark.parametrize("base", [EMPTY, SEEDED[0]], ids=["empty", "seeded"])
def test_growth_matches_find_and_append_oracle_at_three(base):
    assert extend_with_realizers(base, 3) == oracles.extend_scan(base, 3)


def test_growth_past_its_bound_is_refused_before_any_work():
    start = time.perf_counter()
    with pytest.raises(LimitError):
        extend_with_realizers(EMPTY, 6)
    with pytest.raises(LimitError):
        extend_with_realizers(random_condition(random.Random(1), 400), 3)
    assert time.perf_counter() - start < 0.5


def test_union_checks_validity():
    c = cond((0, 1))
    with pytest.raises(ValueError):
        c.union([Point(2, 1)])  # reuses section value 1
    bigger = c.union([Point(2, 3)])
    assert len(bigger) == 2
