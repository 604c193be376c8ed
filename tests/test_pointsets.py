import gc
import random
import re
import time
import tracemalloc
import types
from collections import Counter
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
    condition_to_json,
    extend_with_realizers,
    find_realizer,
    points_from_json,
    random_condition,
    realized_type,
    subset_realizes,
)
from ramseybench import pointsets
from ramseybench.pointsets import (_block_key_counts, _key_type, _keyed_subsets,
                                   _pattern_counts, _type_key, _value_blocks)
from ramseybench.typecalc import count_ntypes, enumerate_ntypes, list_form, parse_list_form

EMPTY = FiniteCondition(frozenset())


def cond(*pairs):
    return FiniteCondition(frozenset(Point(x, y) for x, y in pairs))


def test_point_rejects_negative():
    with pytest.raises(ValueError):
        Point(-1, 2)


@pytest.mark.parametrize("x, y, message", [
    pytest.param(1.5, 2, "x: expected a natural number, got 1.5", id="1.5-2-(1.5,2)"),
    pytest.param(1, 2.0, "y: expected a natural number, got 2.0", id="1-2.0-(1,2.0)"),
    pytest.param(True, 2, "x: expected a natural number, got true", id="True-2-(True,2)"),
    pytest.param("1", "2", 'x: expected a natural number, got "1"', id="1-2-(1,2)"),
    pytest.param(None, 3, "x: expected a natural number, got null", id="None-3-(None,3)"),
])
def test_point_refuses_what_is_not_a_natural(x, y, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        Point(x, y)


def test_point_takes_an_int_subclass():
    nat = type("Nat", (int,), {})
    assert Point(nat(1), nat(2)) == Point(1, 2)


def test_raw_points_are_not_converted():
    # int() would read (1, 2.9) and (0.5, 3) as the valid condition (1, 2), (0, 3)
    with pytest.raises(ValueError,
                       match=r"^(y: expected a natural number, got 2\.9|x: expected a natural number, got 0\.5)$"):
        FiniteCondition(frozenset({(1, 2.9), (0.5, 3)}))
    with pytest.raises(ValueError, match=r'^x: expected a natural number, got "1"$'):
        check_condition([("1", "2")])
    # int() would tie the two x's as x1=x2<y1<y2
    with pytest.raises(ValueError, match=r"^y: expected a natural number, got 2\.9$"):
        realized_type([(1, 2.9), (1.99, 3.5)])
    with pytest.raises(ValueError, match="too many values to unpack"):
        check_condition([(1, 2, 3)])


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


def test_the_empty_set_realizes_no_type():
    with pytest.raises(NoRealizedTypeError, match="^no type realized: empty point set$") as err:
        realized_type([])
    assert err.value.clause == "empty"


def test_subset_realizes_refuses_a_wrong_size_and_an_invalid_condition():
    tied = parse_list_form("x1=x2<y1<y2")
    assert subset_realizes([(0, 1), (0, 2)], tied)
    assert not subset_realizes([(0, 1)], tied)
    assert not subset_realizes([(0, 1), (0, 2), (0, 3)], tied)
    assert not subset_realizes([(0, 2), (0, 2)], tied)  # one point, not two
    assert not subset_realizes([(0, 2), (1, 2)], tied)  # a shared y
    assert not subset_realizes([(2, 1), (2, 3)], tied)  # below the diagonal


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
    assert FiniteCondition(frozenset(points_from_json(doc))) == c
    assert FiniteCondition(frozenset(points_from_json([]))) == EMPTY


def test_json_rejects_bad_documents():
    for bad in ({"pts": []}, [[1]], [[1, 2, 3]], "nope"):
        with pytest.raises(ValueError):
            points_from_json(bad)


def test_pair_code_keys_agree_with_realized_type():
    # the scans compare pair-code keys; hold them to the real thing
    rng = random.Random(5)
    for _ in range(60):
        c = random_condition(rng, rng.randint(2, 7))
        pts = c.sorted_points
        for n in (1, 2, 3):
            by_point = list(_keyed_subsets(pts, n))
            for subset, key in by_point:
                assert key == _type_key(realized_type(subset))
            # labelled by position, the walk yields the same subsets and keys
            assert list(_keyed_subsets(pts, n, labels=[(i,) for i in range(len(pts))])) == [
                (tuple(pts.index(p) for p in subset), key) for subset, key in by_point]
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
@given(st.one_of(conditions(max_points=10),
                 st.lists(conditions(max_points=4), min_size=2, max_size=3)
                 .map(lambda parts: stacked(*parts))),
       st.integers(1, 2))
def test_growth_matches_find_and_append_oracle(c, n):
    assert extend_with_realizers(c, n) == oracles.extend_scan(c, n)


@pytest.mark.parametrize("base", [EMPTY, SEEDED[0]], ids=["empty", "seeded"])
def test_growth_matches_find_and_append_oracle_at_three(base):
    assert extend_with_realizers(base, 3) == oracles.extend_scan(base, 3)


@pytest.mark.parametrize("n", range(1, 6))
def test_growth_from_empty_matches_the_key_sum_oracle(n):
    assert extend_with_realizers(EMPTY, n) == oracles.extend_key_sums(EMPTY, n)


def growth_bases():
    """(base, n) pairs: seeded single conditions, stacks of them (several
    value-separated blocks) and growths with blocks removed."""
    rng = random.Random(41)
    for _ in range(20):
        yield random_condition(rng, rng.randint(0, 14)), rng.randint(1, 4)
    for _ in range(20):
        yield stacked(*(random_condition(rng, rng.randint(0, 6))
                        for _ in range(rng.randint(2, 4)))), rng.randint(1, 4)
    grown = extend_with_realizers(EMPTY, 3)
    for keep in (1, 4, 8, 13):
        for n in (2, 3, 4):
            yield without_blocks(grown, rng, keep), n


def test_growth_matches_the_key_sum_oracle_on_bases():
    for base, n in growth_bases():
        assert extend_with_realizers(base, n) == oracles.extend_key_sums(base, n)


def test_growth_adds_a_batch_of_several_value_separated_blocks():
    # x1<y1<x2<y2 is the one 2-pattern this base misses, and its fresh
    # realizer is two blocks, joined onto the base one after the other
    base = cond((1, 2), (1, 3), (0, 4), (1, 5))
    grown = extend_with_realizers(base, 2)
    assert grown == base.union([Point(6, 7), Point(8, 9)])
    assert _value_blocks(grown.sorted_points) == [
        base.sorted_points, (Point(6, 7),), (Point(8, 9),)]
    assert grown == oracles.extend_key_sums(base, 2) == oracles.extend_scan(base, 2)


def test_growth_leaves_no_cycles_for_the_collector():
    # growth's tallies are freed by reference counting alone, so they do
    # not outlive a call made with the collector off
    gc.collect()
    enabled, flags, start = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        extend_with_realizers(EMPTY, 4)
        gc.collect()
        kept = [o for o in gc.garbage[start:] if isinstance(o, Counter)
                or isinstance(o, types.FunctionType) and o.__name__ == "walk"]
    finally:
        gc.set_debug(flags)
        del gc.garbage[start:]
        if enabled:
            gc.enable()
    assert kept == []

def key_sum_work(m, n):
    """The count the key-sum growth bounded: the base's subsets of size
    <= n, plus one batch per pattern, each joining at most C(n, j) of its
    j-subsets to at most T(k - j) realized (k - j)-patterns below it."""
    t = [1] + [count_ntypes(k) for k in range(1, n + 1)]
    return sum(comb(m, k) for k in range(1, n + 1)) + t[n] * sum(
        comb(n, j) * t[k - j] for k in range(1, n + 1) for j in range(1, k + 1))


@pytest.mark.parametrize("n, m", [(2, 3161), (3, 310), (4, 104), (5, 31)])
def test_growth_admits_every_base_the_key_sums_admitted(monkeypatch, n, m):
    # m is the most points the key-sum growth admitted; every split of them
    # into blocks is admitted, and one block of m + 1 points is refused,
    # both before any work.  One block counts exactly what the key sums
    # counted: its own subsets once each, and one batch per pattern.
    assert key_sum_work(m, n) <= WORK_BOUNDS["steps"] < key_sum_work(m + 1, n)
    monkeypatch.setattr(pointsets, "_block_key_counts", refuse_work)
    for split in fan_splits(m):
        with pytest.raises(Admitted):
            extend_with_realizers(oracles.fans(*split), n)
    with pytest.raises(LimitError, match=f"growing {m + 1} points for n={n} "
                                         f"may take {key_sum_work(m + 1, n)} steps"):
        extend_with_realizers(oracles.fans(m + 1), n)


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


# ---------------------------------------------------------------- counting
# _pattern_counts joins per-block key counts; classify_subsets and the
# per-subset signature scan count every subset themselves.

def stacked(*conds):
    """The conditions placed one above another, each on values above every
    value of the ones before it."""
    points, base = [], 0
    for c in conds:
        points += [Point(p.x + base, p.y + base) for p in c]
        base += max((p.y for p in c), default=-1) + 1
    return FiniteCondition(frozenset(points))


def one_block(c):
    """c with a point whose x lies below and whose y lies above all of
    c's values, which joins c into one value-separated block."""
    return c.union([Point(0, max((p.y for p in c), default=0) + 1)])


def without_blocks(c, rng, keep):
    """c with all but ``keep`` of its value-separated blocks removed."""
    blocks = oracles.value_separated_blocks(c)
    kept = rng.sample(range(len(blocks)), keep)
    return FiniteCondition(frozenset(p for i in kept for p in blocks[i]))


def fan_splits(m):
    """Block sizes summing to m: one block, the extremes and five seeded
    random splits."""
    rng = random.Random(m)
    splits = [[m], [m - 1, 1], [1, m - 1], [1] * m, [m // 2, m - m // 2]]
    for _ in range(5):
        cuts = sorted(rng.sample(range(1, m), rng.randint(1, m - 1)))
        splits.append([b - a for a, b in zip([0] + cuts, cuts + [m])])
    return splits


def assert_counts_match_oracles(c, sizes):
    for n in sizes:
        counts = _pattern_counts(c, n)
        assert sum(counts.values()) == comb(len(c), n)
        assert counts == {t: len(subs) for t, subs in classify_subsets(c, n).items()}
        if comb(len(c), n) <= 3000:
            assert counts == {t: len(subs)
                              for t, subs in oracles.classify_scan(c, n).items()}


def test_key_type_inverts_type_key():
    for n in range(1, 6):
        for t in enumerate_ntypes(n):
            back = _key_type(_type_key(t), n)
            assert back == t and list_form(back) == list_form(t)


def test_value_blocks_match_the_oracle_split():
    grown = extend_with_realizers(EMPTY, 3)
    blocks = _value_blocks(grown.sorted_points)
    assert len(blocks) == 19
    assert [list(b) for b in blocks] == oracles.value_separated_blocks(grown)
    # x3 = 1 reaches back below y1 = 2, so no cut falls after (0, 2) even
    # though x2 = 3 lies above it; (6, 7) is a block of its own
    reach_back = cond((0, 2), (3, 4), (1, 5), (6, 7))
    assert _value_blocks(reach_back.sorted_points) == [
        (Point(0, 2), Point(3, 4), Point(1, 5)), (Point(6, 7),)]
    assert [list(b) for b in _value_blocks(reach_back.sorted_points)] == \
        oracles.value_separated_blocks(reach_back)
    assert [len(b) for b in _value_blocks(oracles.fans(3, 1, 4).sorted_points)] == [3, 1, 4]
    rng = random.Random(21)
    for _ in range(50):
        c = stacked(*(random_condition(rng, rng.randint(0, 8)) for _ in range(3)))
        assert [list(b) for b in _value_blocks(c.sorted_points)] == \
            oracles.value_separated_blocks(c)


def test_counts_match_oracles_on_stacked_conditions():
    rng = random.Random(31)
    for _ in range(40):
        c = stacked(*(random_condition(rng, rng.randint(0, 6))
                      for _ in range(rng.randint(1, 4))))
        assert_counts_match_oracles(c, (1, 2, 3, 4))


def test_counts_match_oracles_on_single_blocks():
    rng = random.Random(32)
    for _ in range(20):
        c = one_block(random_condition(rng, rng.randint(0, 11)))
        assert len(_value_blocks(c.sorted_points)) == 1
        assert_counts_match_oracles(c, (1, 2, 3, 4))
    for c in SEEDED:
        assert_counts_match_oracles(c, (1, 2, 3, 4))


@pytest.mark.parametrize("n, keeps", [(3, (1, 4, 8, 13, 19)), (4, (2, 5, 9, 12))])
def test_counts_match_oracles_on_growths_with_blocks_removed(n, keeps):
    grown = extend_with_realizers(EMPTY, n)
    rng = random.Random(n)
    for keep in keeps:
        damaged = without_blocks(grown, rng, keep)
        assert len(_value_blocks(damaged.sorted_points)) == keep
        assert_counts_match_oracles(damaged, range(1, n + 1))


@settings(max_examples=40, deadline=None)
@given(st.lists(conditions(max_points=5), min_size=1, max_size=4))
def test_counts_match_oracles_on_hypothesis_stacks(parts):
    assert_counts_match_oracles(stacked(*parts), (1, 2, 3, 4))


@settings(max_examples=30, deadline=None)
@given(conditions(max_points=10))
def test_counts_match_oracles_on_hypothesis_single_blocks(c):
    c = one_block(c)
    assert len(_value_blocks(c.sorted_points)) == 1
    assert_counts_match_oracles(c, (1, 2, 3, 4))


class Admitted(Exception):
    pass


def refuse_work(*args):
    raise Admitted


@pytest.mark.parametrize("n, m", [(2, 1414), (3, 182), (4, 71), (5, 43), (6, 32)])
def test_counts_admit_every_input_that_listing_admits(monkeypatch, n, m):
    # m is the most points whose n-subsets classify_subsets may list; every
    # split of them into blocks passes both of the count's checks
    assert comb(m, n) <= WORK_BOUNDS["subsets"] < comb(m + 1, n)
    monkeypatch.setattr(pointsets, "_block_key_counts", refuse_work)
    for split in fan_splits(m):
        with pytest.raises(Admitted):
            _pattern_counts(oracles.fans(*split), n)


def test_pair_keys_are_tallied_without_a_table_of_pair_codes():
    # each pair code is read once when no size passes 2; a table of the
    # C(500, 2) codes would hold about 1 MB of pointers alone
    pts = oracles.fans(500).sorted_points
    tracemalloc.start()
    try:
        counts = _block_key_counts(pts, range(1, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000
    assert counts == {1: {0: 500}, 2: {_type_key(realized_type(oracles.fans(2))): comb(500, 2)}}


def test_triple_keys_keep_only_the_shifted_table_of_pair_codes():
    # the first point's row is read once, so only the second point's
    # shifted rows are kept: C(120, 2) pointers, about 57 kB; an unshifted
    # table next to it would double that
    pts = oracles.fans(120).sorted_points
    tracemalloc.start()
    try:
        counts = _block_key_counts(pts, range(3, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 120_000
    assert counts == {3: {_type_key(realized_type(oracles.fans(3))): comb(120, 3)}}


def block_cases():
    """(points, sizes) for the lane walk: n = 1..6, sizes starting above 1,
    fewer points than the sizes, one point, no point, fans, and blocks
    whose subsets pass the _FLUSH bytes a size holds before they are
    counted.  Lanes are 1 byte on small blocks up to n = 5, 2 bytes at
    n = 6 or past 128 distinct x's, and 4 bytes past 32,768."""
    rng = random.Random(41)
    cases = [((), range(1, 4)), (oracles.fans(1).sorted_points, range(1, 7)),
             (oracles.fans(3).sorted_points, range(2, 6)),
             (oracles.fans(130).sorted_points, range(1, 4)),
             (oracles.fans(33_000).sorted_points, range(1, 2)),
             (random_condition(rng, 90).sorted_points, range(3, 4)),
             (random_condition(rng, 300).sorted_points, range(1, 3)),
             (random_condition(rng, 28).sorted_points, range(4, 7))]
    for n in range(1, 7):
        for _ in range(12):
            pts = random_condition(rng, rng.randint(0, (40, 40, 30, 20, 14, 12)[n - 1])).sorted_points
            cases.append((pts, range(rng.randint(1, n), n + 1)))
    return cases


def test_lane_walk_matches_the_list_walk():
    for pts, sizes in block_cases():
        assert _block_key_counts(pts, sizes) == oracles.block_key_counts_walk(pts, sizes)


@settings(max_examples=60, deadline=None)
@given(conditions(max_points=12), st.integers(1, 6), st.integers(0, 5))
def test_lane_walk_matches_the_list_walk_on_hypothesis_blocks(c, n, below):
    pts, sizes = one_block(c).sorted_points, range(max(1, n - below), n + 1)
    assert _block_key_counts(pts, sizes) == oracles.block_key_counts_walk(pts, sizes)


def test_the_list_walk_counts_what_the_scan_classifies():
    rng = random.Random(43)
    for n in range(1, 6):
        for _ in range(4):
            pts = one_block(random_condition(rng, rng.randint(n, 11))).sorted_points
            counts = oracles.block_key_counts_walk(pts, range(n, n + 1))[n]
            expected = oracles.classify_scan(FiniteCondition(frozenset(pts)), n)
            assert {_key_type(key, n): count for key, count in counts.items()} == \
                {t: len(subs) for t, subs in expected.items()}


@pytest.mark.parametrize("n, m, limit", [(4, 71, 100_000), (5, 43, 80_000), (6, 32, 80_000)])
def test_lanes_are_counted_in_bounded_batches(n, m, limit):
    # C(71, 4), C(43, 5) and C(32, 6) keys pass through batches of about
    # 32 kB, in 1-byte lanes for n = 4, 5 and 2-byte lanes for n = 6; the
    # list walk peaks at about 144, 103 and 87 kB on these fans
    pts = oracles.fans(m).sorted_points
    tracemalloc.start()
    try:
        counts = _block_key_counts(pts, range(n, n + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit
    assert counts == {n: {_type_key(realized_type(oracles.fans(n))): comb(m, n)}}


@pytest.mark.parametrize("n, m", [(3, 182), (4, 71)])
def test_counts_at_the_listing_bound(n, m):
    assert _pattern_counts(oracles.fans(m), n) == {realized_type(oracles.fans(n)): comb(m, n)}
    c = one_block(random_condition(random.Random(m), m - 1))
    assert sum(_pattern_counts(c, n).values()) == comb(m, n)


def test_counts_name_patterns_without_enumerating_them(monkeypatch):
    monkeypatch.setattr(pointsets, "enumerate_ntypes", refuse_work)
    c = stacked(oracles.fans(4), random_condition(random.Random(6), 8))
    counts = _pattern_counts(c, 6)
    assert counts == {t: len(subs) for t, subs in classify_subsets(c, 6).items()}


def test_counts_refuse_before_any_work(monkeypatch):
    monkeypatch.setattr(pointsets, "_block_key_counts", refuse_work)
    start = time.perf_counter()
    with pytest.raises(LimitError, match="183 points have 1004731 in-block subsets"):
        _pattern_counts(oracles.fans(183), 3)
    with pytest.raises(LimitError, match="joining 2000 value-separated blocks for n=6"):
        _pattern_counts(oracles.fans(*[2] * 2000), 6)
    assert time.perf_counter() - start < 0.5
