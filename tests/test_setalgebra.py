import json
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from helpers import OTHER_PYTHONS, REPO, child_env, other_python
from hypothesis import strategies as st

from ramseybench.errors import WORK_BOUNDS, LimitError
from ramseybench.setalgebra import (
    EMPTY,
    FULL,
    AboveDiag,
    Column,
    Complement,
    FinCofin,
    FinitePoints,
    Frechet,
    Intersection,
    Principal,
    Rect,
    StandInSequence,
    Union,
    _section_work,
    column_of,
    fincofin_from_json,
    fincofin_to_json,
    image_membership,
    in_fr2,
    meets_all_fr2,
    planar_set_from_json,
    sequence_from_json,
    standin_from_json,
    sum_membership,
    tail_analysis,
    verdict_set,
)

from fixtures import planar_set_to_json, random_fincofin, random_planar_set, standin_to_json
from oracles import point_in, verdict_set_scan
from set_cases import verdict_mismatches


# ---------------------------------------------------------------- FinCofin

def test_fincofin_membership_and_str():
    f = FinCofin.finite({1, 4})
    c = FinCofin.cofinite_except({0, 2})
    assert f.contains(1) and not f.contains(2)
    assert c.contains(1) and not c.contains(2)
    assert not f.cofinite and c.cofinite
    assert EMPTY == FinCofin.finite(()) and FULL == FinCofin.cofinite_except(())


def test_fincofin_algebra_cases():
    a = FinCofin.finite({0, 1, 5})
    b = FinCofin.finite({1, 2})
    ca = FinCofin.cofinite_except({0, 1, 5})
    cb = FinCofin.cofinite_except({1, 2})

    assert a.union(b) == FinCofin.finite({0, 1, 2, 5})
    assert a.intersection(b) == FinCofin.finite({1})
    assert ca.union(cb) == FinCofin.cofinite_except({1})
    assert ca.intersection(cb) == FinCofin.cofinite_except({0, 1, 2, 5})
    assert a.union(cb) == FinCofin.cofinite_except({2})
    assert a.intersection(cb) == FinCofin.finite({0, 5})
    assert a.complement() == ca
    assert ca.complement() == a


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_fincofin_algebra_pointwise(seed):
    rng = random.Random(seed)
    a = random_fincofin(rng)
    b = random_fincofin(rng)
    probe = list(range(0, 30))
    for v in probe:
        assert a.union(b).contains(v) == (a.contains(v) or b.contains(v))
        assert a.intersection(b).contains(v) == (a.contains(v) and b.contains(v))
        assert a.complement().contains(v) != a.contains(v)


def test_members_below():
    c = FinCofin.cofinite_except({0, 2})
    assert c.members_below(5) == [1, 3, 4]
    f = FinCofin.finite({1, 9})
    assert f.members_below(5) == [1]


# ---------------------------------------------------------------- sections

def test_column_of_each_leaf():
    pts = FinitePoints(frozenset({(0, 3), (0, 5), (2, 4)}))
    assert column_of(pts, 0) == FinCofin.finite({3, 5})
    assert column_of(pts, 1) == EMPTY

    rect = Rect(FinCofin.finite({1, 2}), FinCofin.cofinite_except({7}))
    assert column_of(rect, 1) == FinCofin.cofinite_except({7})
    assert column_of(rect, 3) == EMPTY

    assert column_of(AboveDiag(), 4) == FinCofin.cofinite_except(range(5))

    col = Column(6, FinCofin.finite({1}))
    assert column_of(col, 6) == FinCofin.finite({1})
    assert column_of(col, 5) == EMPTY

    with pytest.raises(ValueError):
        column_of(pts, -1)


def test_column_of_composites():
    e = Union((AboveDiag(), Column(0, FinCofin.finite({0}))))
    assert column_of(e, 0) == FULL
    e = Complement(AboveDiag())
    assert column_of(e, 3) == FinCofin.finite({0, 1, 2, 3})
    e = Intersection((AboveDiag(), Rect(FULL, FinCofin.finite({2, 9}))))
    assert column_of(e, 5) == FinCofin.finite({9})


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_column_of_matches_point_oracle(seed):
    rng = random.Random(seed)
    expr = random_planar_set(rng)
    for x in range(0, 18, 3):
        section = column_of(expr, x)
        for y in range(0, 20, 2):
            assert section.contains(y) == point_in(expr, x, y)


# ---------------------------------------------------------------- tail form

@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_tail_form_reproduces_far_sections(seed):
    rng = random.Random(seed)
    expr = random_planar_set(rng)
    form = tail_analysis(expr)
    for dx in (0, 3, 10):
        x = form.horizon + dx
        assert form.section(x) == column_of(expr, x)


def test_tail_form_rejects_early_columns():
    form = tail_analysis(Column(4, FinCofin.finite({1})))
    assert form.horizon == 5
    with pytest.raises(ValueError):
        form.section(2)


def test_tail_examples():
    assert tail_analysis(AboveDiag()) == __import__(
        "ramseybench"
    ).TailForm(0, FULL, EMPTY)
    band = Rect(FULL, FinCofin.finite({3, 4}))
    form = tail_analysis(band)
    assert form.upper == FinCofin.finite({3, 4}) == form.lower


def test_fr2_and_meets_examples():
    assert in_fr2(AboveDiag())
    assert not in_fr2(Complement(AboveDiag()))
    assert not in_fr2(Rect(FULL, FinCofin.finite({3})))
    assert in_fr2(Rect(FinCofin.cofinite_except({0}), FULL))
    assert meets_all_fr2(AboveDiag())
    assert not meets_all_fr2(FinitePoints(frozenset({(0, 1)})))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_fr2_equals_frechet_frechet_sum(seed):
    rng = random.Random(seed)
    expr = random_planar_set(rng)
    seq = StandInSequence(Frechet())
    assert in_fr2(expr) == sum_membership(expr, Frechet(), seq)
    assert meets_all_fr2(expr) == in_fr2(expr)


# ---------------------------------------------------------------- sums

def test_verdict_set_mixes_explicit_and_tail():
    # sections of AboveDiag are always cofinite: Frechet says yes
    seq = StandInSequence(Frechet(), ((2, Principal(1)),))
    verdicts = verdict_set(AboveDiag(), seq)
    # at n=2 the principal stand-in asks: is 1 > 2?  no
    assert not verdicts.contains(2)
    assert verdicts.contains(0) and verdicts.contains(3) and verdicts.cofinite


def test_principal_sum_unfolds_to_point_membership():
    # U principal at a, sequence principal at b everywhere: expr in sum
    # iff (a, b) in expr
    for a in (0, 2, 5):
        for b in (0, 1, 7):
            seq = StandInSequence(Principal(b))
            u = Principal(a)
            expr = AboveDiag()
            assert sum_membership(expr, u, seq) == point_in(expr, a, b)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_principal_sum_unfolds_on_random_expressions(seed):
    rng = random.Random(seed)
    expr = random_planar_set(rng)
    a, b = rng.randrange(10), rng.randrange(10)
    got = sum_membership(expr, Principal(a), StandInSequence(Principal(b)))
    assert got == point_in(expr, a, b)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_image_membership_agrees_with_direct(seed):
    rng = random.Random(seed)
    b = random_fincofin(rng)
    u = Principal(rng.randrange(8)) if rng.random() < 0.5 else Frechet()
    default = Principal(rng.randrange(8)) if rng.random() < 0.5 else Frechet()
    exceptions = tuple(
        (i, Principal(rng.randrange(8)) if rng.random() < 0.5 else Frechet())
        for i in rng.sample(range(12), rng.randrange(3))
    )
    seq = StandInSequence(default, exceptions)
    assert image_membership(b, u, seq) == u.holds(b)


def test_standin_sequence_exceptions():
    seq = StandInSequence(Frechet(), ((3, Principal(2)), (1, Principal(0))))
    assert seq.at(3) == Principal(2)
    assert seq.at(1) == Principal(0)
    assert seq.at(0) == Frechet()
    with pytest.raises(ValueError):
        StandInSequence(Frechet(), ((1, Frechet()), (1, Principal(0))))


# ---------------------------------------------------------------- json

def test_fincofin_json_round_trip():
    for s in (FinCofin.finite({1, 2}), FinCofin.cofinite_except({0}), EMPTY, FULL):
        assert fincofin_from_json(fincofin_to_json(s)) == s
    assert fincofin_to_json(FinCofin.finite({2, 1})) == {"finite": [1, 2]}
    with pytest.raises(ValueError):
        fincofin_from_json({"finite": [1], "cofinite": [2]})


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_planar_set_json_round_trip(seed):
    rng = random.Random(seed)
    expr = random_planar_set(rng)
    doc = planar_set_to_json(expr)
    back = planar_set_from_json(doc)
    # structural round trip
    assert planar_set_to_json(back) == doc
    # and semantic agreement on a probe grid
    for x in range(0, 12, 4):
        assert column_of(back, x) == column_of(expr, x)


def test_standin_and_sequence_json():
    assert standin_from_json({"frechet": True}) == Frechet()
    assert standin_from_json({"principal": 5}) == Principal(5)
    assert standin_to_json(Principal(5)) == {"principal": 5}
    seq = sequence_from_json(
        {"default": {"frechet": True}, "exceptions": {"3": {"principal": 1}}}
    )
    assert seq.at(3) == Principal(1) and seq.at(0) == Frechet()
    with pytest.raises(ValueError):
        standin_from_json({"frechet": False})
    with pytest.raises(ValueError):
        sequence_from_json({"exceptions": {}})


def test_the_values_bound_counts_section_values(monkeypatch):
    # AboveDiag at x holds x + 1 values plus its node: 10 at x = 8
    monkeypatch.setitem(WORK_BOUNDS, "values", 10)
    assert column_of(AboveDiag(), 8) == FinCofin.cofinite_except(range(9))
    with pytest.raises(LimitError, match="column refused: the section at x=9 "
                                         "may take 11 values, the bound is 10"):
        column_of(AboveDiag(), 9)
    # each node above a leaf copies its values once more: 2 + 2 * 4 at x = 3
    assert column_of(Complement(AboveDiag()), 3) == FinCofin.finite(range(4))
    with pytest.raises(LimitError, match="may take 12 values"):
        column_of(Complement(AboveDiag()), 4)


def test_the_values_bound_sums_the_sections_below_the_cutoff(monkeypatch):
    # principal(3) past AboveDiag's horizon 0: no section is read, and the
    # tail verdicts at 0, 1 and 2 (3 in upper, not in lower) are listed
    seq = StandInSequence(Principal(3))
    monkeypatch.setitem(WORK_BOUNDS, "values", 3)
    assert verdict_set(AboveDiag(), seq) == FinCofin.finite(range(3))
    monkeypatch.setitem(WORK_BOUNDS, "values", 2)
    with pytest.raises(LimitError, match="verdict set refused: 0 sections and 3 tail "
                                         "verdicts may take 3 values, the bound is 2"):
        verdict_set(AboveDiag(), seq)
    # an exception at 3 puts the cutoff at 4: 4 * (1 node + 1 exception)
    # plus 1 + 2 + 3 + 4 values, and no listed tail verdict
    seq = StandInSequence(Frechet(), ((3, Principal(1)),))
    monkeypatch.setitem(WORK_BOUNDS, "values", 18)
    assert verdict_set(AboveDiag(), seq) == FinCofin.cofinite_except({3})
    monkeypatch.setitem(WORK_BOUNDS, "values", 17)
    with pytest.raises(LimitError, match="verdict set refused: 4 sections and 0 tail "
                                         "verdicts may take 18 values, the bound is 17"):
        verdict_set(AboveDiag(), seq)


def test_far_sections_are_refused_before_any_is_read():
    # AboveDiag's verdict set under principal(10**9) lists 10**9 indices
    far = StandInSequence(Principal(10**9))
    runs = (lambda: sum_membership(AboveDiag(), Frechet(), far),
            lambda: column_of(AboveDiag(), 4 * 10**6))
    start = time.perf_counter()
    for run in runs:
        with pytest.raises(LimitError):
            run()
    assert time.perf_counter() - start < 1.0


def test_far_principal_points_are_answered_from_the_tail_form():
    far = StandInSequence(Principal(10**9))
    start = time.perf_counter()
    assert verdict_set(Rect(FULL, FULL), far) == FULL
    assert sum_membership(Rect(FULL, FULL), Frechet(), far)
    # the image of {1} reads the sections at 0 and 1, below the horizon
    assert verdict_set(Rect(FinCofin.finite({1}), FULL), far) == FinCofin.finite({1})
    assert not image_membership(FinCofin.finite({1}), Frechet(), far)
    assert time.perf_counter() - start < 1.0


def test_verdict_set_matches_the_explicit_route_on_seeded_cases():
    assert verdict_mismatches(2015, 600) == []


def _seeded_expr(seed):
    rng = random.Random(seed)
    expr = random_planar_set(rng, rng.randrange(6))
    # the explicit route reads about q sections of up to q values each on a
    # diagonal leaf, so q stays small there
    return rng, expr, tail_analysis(expr).horizon, 200 if _section_work(expr)[1] else 3000


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=0, max_value=3000))
def test_principal_defaults_past_the_horizon_match_the_explicit_route(seed, offset):
    _, expr, horizon, reach = _seeded_expr(seed)
    seq = StandInSequence(Principal(horizon + offset % reach))
    assert verdict_set(expr, seq) == verdict_set_scan(expr, seq)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.lists(st.tuples(st.integers(min_value=0, max_value=40),
                          st.one_of(st.none(), st.integers(min_value=0, max_value=60))),
                max_size=4, unique_by=lambda kv: kv[0]),
       st.integers(min_value=0, max_value=3000))
def test_exception_indices_match_the_explicit_route(seed, raw, point):
    rng, expr, _, reach = _seeded_expr(seed)
    exceptions = tuple((i, Frechet() if q is None else Principal(q)) for i, q in raw)
    default = Frechet() if rng.random() < 0.3 else Principal(point % reach)
    seq = StandInSequence(default, exceptions)
    assert verdict_set(expr, seq) == verdict_set_scan(expr, seq)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.lists(st.integers(min_value=0, max_value=40), max_size=3, unique=True))
def test_frechet_defaults_match_the_explicit_route(seed, indices):
    rng, expr, _, _ = _seeded_expr(seed)
    exceptions = tuple((i, Principal(rng.randrange(60))) for i in indices)
    seq = StandInSequence(Frechet(), exceptions)
    assert verdict_set(expr, seq) == verdict_set_scan(expr, seq)


@pytest.mark.parametrize("python", OTHER_PYTHONS)
def test_set_cases_hold_on_other_interpreters(python):
    exe = other_python(python)
    proc = subprocess.run([exe, str(REPO / "tests" / "set_cases.py"), "2015", "200"],
                          capture_output=True, text=True, env=child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["version"].startswith(python.removeprefix("python"))
    assert (report["verdicts"], report["bad"], report["failures"]) == (200, [], [])


def test_the_deepest_chains_read_are_answered():
    # run in a child, so the chains meet the stack depth of a console call
    proc = subprocess.run([sys.executable, str(REPO / "tests" / "set_cases.py"), "2015", "0"],
                          capture_output=True, text=True, env=child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["failures"] == []
    assert min(report["chains"].values()) > 300


def test_constructors_refuse_empty_arguments_and_negative_indices():
    with pytest.raises(ValueError, match="^intersection needs at least one argument$"):
        Intersection(())
    with pytest.raises(ValueError, match="^principal: expected a natural number, got -1$"):
        Principal(-1)
    with pytest.raises(ValueError, match="^exceptions: expected a natural number, got -1$"):
        StandInSequence(Frechet(), ((-1, Principal(2)),))
    assert standin_to_json(Frechet()) == {"frechet": True}


@pytest.mark.parametrize("call", [lambda e: column_of(e, 0), tail_analysis, planar_set_to_json])
@pytest.mark.parametrize("expr", [3, "a", None, FinCofin.finite([1])])
def test_a_non_expression_is_a_type_error(call, expr):
    with pytest.raises(TypeError, match=r"^not a planar set expression: "):
        call(expr)
