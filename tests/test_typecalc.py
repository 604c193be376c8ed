import io
import random
import subprocess
import sys
import time
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
from ramseybench.typecalc import _class_problems, _gap_choices, _list_forms, _weak_orders

from helpers import child_env
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
def test_weak_orders_match_the_filter_in_order(k):
    # _weak_orders(k) holds the blocks of the filter's rank vectors, in order
    want = []
    for vec in rank_vectors_filter(k):
        blocks = [[] for _ in range(max(vec, default=-1) + 1)]
        for pos, rank in enumerate(vec):
            blocks[rank].append(pos)
        want.append(tuple(map(tuple, blocks)))
    assert _weak_orders(k) == tuple(want)


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


def test_validate_ntype_reports_a_bad_n_and_bad_symbols_as_malformed():
    assert validate_ntype(0, []) == TypeValidation(
        False, ("n: expected a natural number >= 1, got 0",), ())
    assert validate_ntype(1, [("q1", "x1")]) == TypeValidation(
        False, ("cannot parse symbol 'q1'",), ())
    assert validate_ntype(1, [(5, 5)]) == TypeValidation(False, ("not a symbol: 5",), ())


def test_restrict_to_initial_refuses_n_zero():
    t = parse_list_form("x1<y1<x2<y2")
    with pytest.raises(ValueError, match="^cannot restrict an n=2 pattern to n=0$"):
        restrict_to_initial(t, 0)


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


def _draw_classes(rnd, n_max=4):
    """A sequence of nonempty symbol lists with at least two symbols: half
    the time a valid pattern's classes, mutated or not, else symbols drawn
    at random from x1..x5, y1..y5."""
    if rnd.random() < 0.5:
        ts = enumerate_ntypes(rnd.randint(1, n_max))
        classes = [sorted(cls) for cls in ts[rnd.randrange(len(ts))].classes]
        for _ in range(rnd.choice([0, 0, 1, 2])):
            i = rnd.randrange(len(classes))
            move = rnd.choice(["swap", "merge", "repeat", "drop", "rename"])
            if move == "swap":
                j = rnd.randrange(len(classes))
                classes[i], classes[j] = classes[j], classes[i]
            elif move == "merge" and i + 1 < len(classes):
                classes[i:i + 2] = [classes[i] + classes[i + 1]]
            elif move == "repeat":
                classes[rnd.randrange(len(classes))].append(rnd.choice(classes[i]))
            elif move == "drop" and len(classes) > 2:
                del classes[i]
            elif move == "rename":
                j = rnd.randrange(len(classes[i]))
                classes[i][j] = Symbol(rnd.choice("xy"), rnd.randint(1, n_max + 1))
    else:
        pool = [Symbol(k, i) for k in "xy" for i in range(1, n_max + 2)]
        classes = [[rnd.choice(pool) for _ in range(rnd.choice([1, 1, 1, 2, 3]))]
                   for _ in range(rnd.randint(1, 2 * n_max + 1))]
    if sum(map(len, classes)) < 2:
        classes.append([Symbol("y", 1)])
    return classes


def _outcome(build):
    """The pattern ``build()`` returns, or the text after ``invalid pattern: ``."""
    try:
        return build()
    except ValueError as exc:
        head, _, rest = str(exc).partition("invalid pattern: ")
        assert head == "" and rest, str(exc)
        return rest


def _readers_agree(classes):
    n = sum(map(len, classes)) // 2
    text = "<".join("=".join(map(str, cls)) for cls in classes)
    doc = {"n": n, "classes": [[str(s) for s in cls] for cls in classes]}
    got = _outcome(lambda: parse_list_form(text))
    assert _outcome(lambda: ntype_from_json(doc)) == got, text
    assert _outcome(lambda: NType(n, tuple(classes))) == got, text
    population = population_problems_scan(n, classes)
    if population:
        assert got == "; ".join(population), text
    syms = [s for cls in classes for s in cls]
    if len(syms) == len(set(syms)):
        # no symbol repeats, so the classes are a total pre-order of their symbols
        rank = {s: pos for pos, cls in enumerate(classes) for s in cls}
        relation = {(a, b) for a in syms for b in syms if rank[a] <= rank[b]}
        assert _outcome(lambda: ntype_from_relation(n, relation)) == got, text
    return got


def test_every_reader_hands_its_classes_to_one_judge_seeded():
    rnd = random.Random(23)
    outcomes = [_readers_agree(_draw_classes(rnd)) for _ in range(600)]
    valid = sum(isinstance(o, NType) for o in outcomes)
    assert 100 < valid < 500  # both sides of the judge are drawn
    # with n half the symbol count, a missing symbol comes with a repeat or a stray
    for start in ("symbols repeated", "dangling indices",
                  "equivalent symbols must both be x's", "y symbols must increase",
                  "must sit strictly before"):
        assert any(isinstance(o, str) and start in o for o in outcomes), start


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_every_reader_hands_its_classes_to_one_judge(rnd):
    _readers_agree(_draw_classes(rnd))


def test_a_repeat_inside_one_class_is_refused_by_every_reader():
    doc = {"n": 1, "classes": [["x1", "x1"], ["y1"]]}
    for build in (lambda: ntype_from_json(doc),
                  lambda: NType(1, ([Symbol("x", 1)] * 2, [Symbol("y", 1)]))):
        with pytest.raises(ValueError, match="^invalid pattern: symbols repeated: x1$"):
            build()


@pytest.mark.parametrize("n", [10**5, 10**9])
def test_relation_population_work_follows_the_symbols_given(n):
    start = time.perf_counter()
    report = validate_ntype(n, [("x1", "x1")])
    with pytest.raises(ValueError) as exc:
        ntype_from_relation(n, [("x1", "x1")])
    assert time.perf_counter() - start < 1.0
    names = ", ".join(f"x{i}" for i in range(2, 22))
    message = f"symbols missing: {names} and {2 * n - 21} more"
    assert report == TypeValidation(False, (message,), ())
    assert str(exc.value) == "invalid pattern: " + message
    assert len(message.encode()) < 1024


def test_relation_reports_do_not_depend_on_the_hash_seed():
    code = ("from ramseybench.typecalc import validate_ntype\n"
            "ranks = {'x1': 0, 'x2': 1, 'y1': 1, 'y2': 1}\n"
            "rel = {(a, b) for a in ranks for b in ranks if ranks[a] <= ranks[b]}\n"
            "rel -= {('y1', 'x2'), ('x2', 'y2')}\n"
            "print(validate_ntype(2, rel).violations)\n")
    reports = set()
    for seed in range(4):
        env = {**child_env(), "PYTHONHASHSEED": str(seed)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, check=True)
        reports.add(proc.stdout)
    assert len(reports) == 1, reports
    assert reports.pop().count("not transitive") == 2
