import io
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseybench.typecalc import (
    MAX_N,
    NType,
    Symbol,
    TypeValidation,
    append_extension,
    count_ntypes,
    enumerate_ntypes,
    fubini,
    insert_extension,
    list_form,
    ntype_from_json,
    ntype_from_relation,
    ntype_to_json,
    parse_list_form,
    restrict_to_initial,
    validate_ntype,
)
from ramseybench import cli
from ramseybench.typecalc import _class_problems, _gap_choices, _list_forms, _rank_vectors

from oracles import (
    brute_force_ntypes,
    enumerate_ntypes_scan,
    population_problems_scan,
    rank_vectors_filter,
    weak_order_count,
)

KNOWN_COUNTS = {1: 1, 2: 4, 3: 26, 4: 236, 5: 2752, 6: 39208}

TWO_TYPES_IN_ORDER = [
    "x1=x2<y1<y2",
    "x1<x2<y1<y2",
    "x2<x1<y1<y2",
    "x1<y1<x2<y2",
]


def test_symbol_parse_and_order():
    assert Symbol.parse("x3") == Symbol("x", 3)
    assert Symbol.parse("y12") == Symbol("y", 12)
    assert Symbol("x", 1) < Symbol("x", 2) < Symbol("y", 1)
    with pytest.raises(ValueError):
        Symbol.parse("z1")
    with pytest.raises(ValueError):
        Symbol.parse("x0")


@pytest.mark.parametrize("text", ["x\u00b2", "y\u0661", 5, None, ["x1"]])
def test_symbol_parse_refuses_other_digits_and_non_strings(text):
    with pytest.raises(ValueError, match="cannot parse symbol"):
        Symbol.parse(text)


def test_fubini_small_values():
    # 1, 1, 3, 13, 75, 541: ordered set partition counts
    assert [fubini(k) for k in range(6)] == [1, 1, 3, 13, 75, 541]


def test_fubini_matches_brute_force():
    for k in range(6):
        assert fubini(k) == weak_order_count(k)


@pytest.mark.parametrize("k", range(8))
def test_rank_vectors_match_the_filter_in_order(k):
    assert _rank_vectors(k) == tuple(rank_vectors_filter(k))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_equals_brute_force(n):
    got = enumerate_ntypes(n)
    assert len(got) == len(set(got)), "enumeration repeated a pattern"
    assert set(got) == brute_force_ntypes(n)


@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_enumeration_equals_the_scan_in_order(n):
    got, want = enumerate_ntypes(n), enumerate_ntypes_scan(n)
    assert got == want
    assert [t.classes for t in got] == [t.classes for t in want]
    assert _list_forms(n) == [list_form(t) for t in got]


def test_types_enum_prints_list_forms_without_building_patterns(monkeypatch):
    def refuse(*args):
        raise AssertionError("types enum built an NType")

    monkeypatch.setattr(NType, "_trusted", refuse)
    out = io.StringIO()
    assert cli.run(["types", "enum", "--n", "6"], stdout=out, stderr=io.StringIO()).exit_code == 0
    assert '"count": 39208' in out.getvalue()


def test_list_forms_peak_memory():
    # building the NTypes as well peaks at 28 MB; the forms alone hold about 3 MB
    _gap_choices.cache_clear()
    tracemalloc.start()
    try:
        forms = _list_forms(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(forms) == KNOWN_COUNTS[6]
    assert peak < 12_000_000, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("n", range(1, 6))
def test_enumerated_patterns_pass_validation(n):
    # enumeration skips the constructor's checks; run them here instead
    for t in enumerate_ntypes(n):
        assert t.n == n and all(type(cls) is frozenset for cls in t.classes)
        assert _class_problems(n, t.classes) == ([], [])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=14), st.data())
def test_population_messages_name_at_most_twenty_missing_symbols(n, data):
    pool = [Symbol(k, i) for k in "xy" for i in range(1, n + 3)]
    seen = data.draw(st.lists(st.sampled_from(pool), max_size=2 * n + 2))
    classes = [frozenset([s]) for s in seen]
    malformed, _ = _class_problems(n, classes)
    want = population_problems_scan(n, classes)
    missing = 2 * n - len({s for s in seen if s.index <= n})
    if want and want[0].startswith("symbols missing") and missing > 20:
        want = [", ".join(want[0].split(", ")[:20]) + f" and {missing - 20} more"]
    assert malformed == want


@pytest.mark.parametrize("n", KNOWN_COUNTS)
def test_frozen_counts(n):
    assert count_ntypes(n) == KNOWN_COUNTS[n]


@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_count_agrees_with_enumeration(n):
    assert count_ntypes(n) == len(enumerate_ntypes(n))


def test_two_types_come_out_in_documented_order():
    assert [list_form(t) for t in enumerate_ntypes(2)] == TWO_TYPES_IN_ORDER


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        enumerate_ntypes(0)
    with pytest.raises(ValueError):
        enumerate_ntypes(MAX_N + 1)
    with pytest.raises(ValueError):
        count_ntypes(-3)


def test_validate_accepts_a_legal_relation():
    # x1 = x2 < y1 < y2 as explicit <= pairs
    syms = ["x1", "x2", "y1", "y2"]
    order = {"x1": 0, "x2": 0, "y1": 1, "y2": 2}
    rel = {(a, b) for a in syms for b in syms if order[a] <= order[b]}
    report = validate_ntype(2, rel)
    assert report.ok and not report.malformed and not report.violations
    t = ntype_from_relation(2, rel)
    assert list_form(t) == "x1=x2<y1<y2"


def test_validate_flags_each_clause():
    syms = ["x1", "x2", "y1", "y2"]

    def rel_from(order):
        return {(a, b) for a in syms for b in syms if order[a] <= order[b]}

    # y2 before y1
    report = validate_ntype(2, rel_from({"x1": 0, "x2": 1, "y2": 2, "y1": 3}))
    assert not report.ok
    assert any("y" in v and "increas" in v for v in report.violations)

    # x2 after y2
    report = validate_ntype(2, rel_from({"x1": 0, "y1": 1, "y2": 2, "x2": 3}))
    assert not report.ok

    # y1 tied to x2
    report = validate_ntype(2, rel_from({"x1": 0, "x2": 1, "y1": 1, "y2": 2}))
    assert not report.ok
    assert any("equivalent symbols must both be x's" in v for v in report.violations)

    # wrong symbol population is malformed, not a violation
    report = validate_ntype(2, {("x1", "x1")})
    assert not report.ok and report.malformed and not report.violations


def _total_preorders(n):
    """Every total pre-order of the 2n symbols as (list form, relation),
    one per rank vector of a weak order on them."""
    syms = sorted(Symbol(kind, i) for kind in "xy" for i in range(1, n + 1))
    for ranks in rank_vectors_filter(2 * n):
        levels = [sorted(s for s, r in zip(syms, ranks) if r == level)
                  for level in range(max(ranks) + 1)]
        form = "<".join("=".join(map(str, level)) for level in levels)
        yield form, {(str(a), str(b)) for a, ra in zip(syms, ranks)
                     for b, rb in zip(syms, ranks) if ra <= rb}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_relation_route_on_every_total_preorder(n):
    # a total pre-order is an n-pattern exactly when its list form is
    # enumerated, and then the relation builds that very pattern
    patterns = set(_list_forms(n))
    seen = 0
    for form, relation in _total_preorders(n):
        seen += 1
        report = validate_ntype(n, relation)
        assert report.ok == (form in patterns), form
        assert not report.malformed
        if report.ok:
            assert list_form(ntype_from_relation(n, relation)) == form
        else:
            with pytest.raises(ValueError):
                ntype_from_relation(n, relation)
    assert seen == {1: 3, 2: 75, 3: 4683}[n]


@pytest.mark.parametrize("ranks, dropped, violation", [
    ({"x1": 0, "x2": 0, "y1": 1, "y2": 2}, ("y2", "y2"), "not reflexive at y2"),
    ({"x1": 0, "x2": 0, "y1": 1, "y2": 2}, ("y1", "y2"), "not total: y1 vs y2 incomparable"),
    ({"x1": 0, "x2": 1, "y1": 1, "y2": 1}, ("y1", "x2"),
     "not transitive: y1<=y2<=x2 but not y1<=x2"),
])
def test_each_preorder_break_is_reported_alone(ranks, dropped, violation):
    # a relation that is no total pre-order gets its pre-order breaks and
    # no pattern clause, not even the tie of y's the third one holds
    relation = {(a, b) for a in ranks for b in ranks if ranks[a] <= ranks[b]}
    relation.discard(dropped)
    report = validate_ntype(2, relation)
    assert report == TypeValidation(False, (), (violation,))


def test_a_tie_holding_a_y_is_named_once_per_class():
    syms = ["x1", "x2", "y1", "y2"]
    report = validate_ntype(2, {(a, b) for a in syms for b in syms})
    assert report.violations == ("equivalent symbols must both be x's: x1=x2=y1=y2",
                                 "y symbols must increase strictly: y1 vs y2",
                                 "x1 must sit strictly before y1",
                                 "x2 must sit strictly before y2")


def test_ntype_constructor_rejects_garbage():
    with pytest.raises(ValueError):
        NType(1, (frozenset({Symbol("y", 1)}), frozenset({Symbol("x", 1)})))
    with pytest.raises(ValueError):
        NType(
            2,
            (
                frozenset({Symbol("x", 1)}),
                frozenset({Symbol("x", 2), Symbol("y", 1)}),
                frozenset({Symbol("y", 2)}),
            ),
        )


def test_list_form_round_trip_all_small_n():
    for n in (1, 2, 3):
        for t in enumerate_ntypes(n):
            assert parse_list_form(list_form(t)) == t


def test_json_round_trip():
    for t in enumerate_ntypes(3):
        doc = ntype_to_json(t)
        assert ntype_from_json(doc) == t
    doc = ntype_to_json(enumerate_ntypes(2)[0])
    assert doc == {"n": 2, "classes": [["x1", "x2"], ["y1"], ["y2"]]}


def test_append_extension_structure():
    t = parse_list_form("x1<y1")
    assert list_form(append_extension(t)) == "x1<y1<x2<y2"
    t = parse_list_form("x1=x2<y1<y2")
    assert list_form(append_extension(t)) == "x1=x2<y1<y2<x3<y3"


def test_append_then_restrict_is_identity():
    for n in (1, 2, 3):
        for t in enumerate_ntypes(n):
            assert restrict_to_initial(append_extension(t), n) == t


def test_insert_extension_fixed_outputs():
    # the three explicitly documented rewrites
    assert (
        list_form(insert_extension(parse_list_form("x1<x2<y1<y2")))
        == "x1=x2<x3<y1<y2<y3"
    )
    assert (
        list_form(insert_extension(parse_list_form("x2<x1<y1<y2")))
        == "x3<x1=x2<y1<y2<y3"
    )
    assert (
        list_form(insert_extension(parse_list_form("x1<y1<x2<y2")))
        == "x1=x2<y1<y2<x3<y3"
    )
    # and the recipe applied to the tied pattern
    assert (
        list_form(insert_extension(parse_list_form("x1=x2<y1<y2")))
        == "x1=x2=x3<y1<y2<y3"
    )


def test_insert_extension_outputs_validate_and_restrict_back():
    for t in enumerate_ntypes(2):
        out = insert_extension(t)
        assert out.n == 3
        assert out in set(enumerate_ntypes(3))
        # dropping index 3 recovers a 2-pattern with x1, x2 tied
        back = restrict_to_initial(out, 2)
        assert back.equivalent(Symbol("x", 1), Symbol("x", 2))


def test_insert_extension_rejects_other_sizes():
    with pytest.raises(ValueError):
        insert_extension(parse_list_form("x1<y1"))


def test_leq_and_equivalent_accessors():
    t = parse_list_form("x1=x2<y1<y2")
    assert t.leq(Symbol("x", 1), Symbol("x", 2))
    assert t.leq(Symbol("x", 2), Symbol("x", 1))
    assert t.equivalent(Symbol("x", 1), Symbol("x", 2))
    assert t.leq(Symbol("x", 1), Symbol("y", 2))
    assert not t.leq(Symbol("y", 1), Symbol("x", 1))
    assert not t.equivalent(Symbol("x", 1), Symbol("y", 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.randoms(use_true_random=False))
def test_random_member_round_trips(n, rnd):
    ts = enumerate_ntypes(n)
    t = ts[rnd.randrange(len(ts))]
    assert parse_list_form(list_form(t)) == t
    assert ntype_from_json(ntype_to_json(t)) == t


def test_restrict_drops_high_indices_only():
    t = parse_list_form("x1=x2<x3<y1<y2<y3")
    assert list_form(restrict_to_initial(t, 2)) == "x1=x2<y1<y2"
    assert list_form(restrict_to_initial(t, 1)) == "x1<y1"


def test_parse_list_form_rejects_bad_text():
    for bad in ("", "x1<", "x1<x1<y1", "x1=y1", "y1<x1", "x1<y2"):
        with pytest.raises(ValueError):
            parse_list_form(bad)


def test_enumeration_is_deterministic():
    rng = random.Random(7)  # noqa: F841  (symmetry with other suites)
    assert [list_form(t) for t in enumerate_ntypes(3)] == [
        list_form(t) for t in enumerate_ntypes(3)
    ]
