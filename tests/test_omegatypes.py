import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ramseybench import omegatypes
from ramseybench.errors import MissingLabelError
from ramseybench.omegatypes import (
    OmegaTypePrefix,
    XClass,
    YClass,
    ZAssignment,
    assign_D,
    grid_prefix,
    h_set_member,
    phi_prefix,
    prefix_from_json,
    prefix_to_json,
    random_prefix,
    validate_prefix,
    zassignment_from_json,
    zassignment_to_json,
    zchain_check,
)
from ramseybench.pointsets import Point, check_condition
from ramseybench.setalgebra import FinCofin, random_fincofin

PAIR_PREFIX = OmegaTypePrefix((XClass(frozenset({1, 2})), YClass(1), YClass(2)))


def test_class_constructors_validate():
    with pytest.raises(ValueError):
        YClass(0)
    with pytest.raises(ValueError):
        XClass(frozenset())
    with pytest.raises(ValueError):
        XClass(frozenset({0, 1}))


def test_validate_prefix_happy_path():
    report = validate_prefix([{"x": [1, 3]}, {"y": 1}, {"y": 3}])
    assert report.ok
    assert report.malformed == () and report.violations == ()
    assert len(report.assumed) == 3


def test_validate_prefix_assumed_drops_stub_clause_without_x_classes():
    report = validate_prefix([])
    assert report.ok
    assert len(report.assumed) == 2
    assert all("stub" not in line for line in report.assumed)


def test_validate_prefix_violations():
    report = validate_prefix([XClass(frozenset({1, 2})), YClass(2), YClass(1)])
    assert not report.ok
    assert any("increase" in v for v in report.violations)

    report = validate_prefix([YClass(1)])
    assert not report.ok
    assert any("without x1" in v for v in report.violations)


def test_validate_prefix_malformed_short_circuits():
    report = validate_prefix([XClass(frozenset({1})), XClass(frozenset({1, 2}))])
    assert not report.ok and report.malformed and not report.violations
    report = validate_prefix([{"x": [1]}, {"y": 1}, {"y": 1}])
    assert not report.ok and any("repeated" in m for m in report.malformed)
    report = validate_prefix([{"q": 1}])
    assert not report.ok and report.malformed


def test_prefix_constructor_rejects_invalid():
    with pytest.raises(ValueError):
        OmegaTypePrefix((YClass(1),))
    p = OmegaTypePrefix(({"x": [1]}, {"y": 1}))
    assert p.classes == (XClass(frozenset({1})), YClass(1))



def _judged_alike(classes) -> bool:
    """validate_prefix and the constructor agree on classes, and the report
    reads as the two-pass judge's; returns whether the prefix is valid."""
    report = validate_prefix(classes)
    try:
        seq = omegatypes._coerce_classes(classes)
    except ValueError as exc:
        assert report == omegatypes.PrefixReport(False, (str(exc),), (), ())
        message = str(exc)
    else:
        assert (report.ok, report.malformed, report.violations, report.assumed) == \
            oracles.judge_prefix_two_passes(seq)
        message = "invalid prefix: " + "; ".join(report.malformed + report.violations)
    try:
        built = OmegaTypePrefix(classes)
    except ValueError as exc:
        assert not report.ok and str(exc) == message
        return False
    assert report.ok and validate_prefix(built.classes) == report
    return True


def _broken(rng, classes: list) -> list:
    """classes with one class dropped, repeated, moved or replaced by a bad entry."""
    out = list(classes)
    i = rng.randrange(len(out))
    cut = rng.randrange(4)
    if cut == 0:
        del out[i]
    elif cut == 1:
        out.insert(rng.randrange(len(out) + 1), out[i])
    elif cut == 2:
        out.insert(rng.randrange(len(out) + 1), out.pop(i))
    else:
        out[i] = rng.choice([{"z": None}, {"x": 1}, {"y": True}, {"x": [0]}, {"x": []}, 3])
    return out


def test_the_constructor_refuses_exactly_what_validate_prefix_refuses():
    rng = random.Random(29)
    valid = [random_prefix(rng, rng.randint(1, 9)) for _ in range(150)]
    assert all(_judged_alike(p.classes) for p in valid)
    assert all(_judged_alike(prefix_to_json(p)["classes"]) for p in valid)
    judged = [_judged_alike(_broken(rng, list(p.classes))) for p in valid for _ in range(4)]
    # most changes break the prefix, some leave it valid
    assert judged.count(False) > 300 and judged.count(True) > 10
    assert not _judged_alike(5) and not _judged_alike({"x": [1]})


PREFIX_ENTRIES = st.one_of(
    st.builds(lambda xs: {"x": xs}, st.lists(st.integers(0, 5), max_size=3)),
    st.builds(lambda y: {"y": y}, st.integers(0, 5)),
    st.builds(lambda xs: XClass(frozenset(xs)), st.sets(st.integers(1, 5), min_size=1, max_size=3)),
    st.builds(YClass, st.integers(1, 5)),
    st.sampled_from([{"z": None}, {"x": 1}, {"y": True}, {"x": [1], "y": 1}, "x1"]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(PREFIX_ENTRIES, max_size=8))
def test_drawn_class_lists_are_judged_alike_by_validate_prefix_and_the_constructor(classes):
    _judged_alike(classes)


def test_prefix_from_json_coerces_its_classes_once(monkeypatch):
    coerce, calls = omegatypes._coerce_classes, []
    monkeypatch.setattr(omegatypes, "_coerce_classes",
                        lambda classes: calls.append(classes) or coerce(classes))
    assert prefix_from_json(prefix_to_json(PAIR_PREFIX)) == PAIR_PREFIX
    assert len(calls) == 1

def test_position_lookups():
    assert PAIR_PREFIX.position_of_x(2) == 0
    assert PAIR_PREFIX.position_of_y(2) == 2
    assert PAIR_PREFIX.position_of_x(9) is None


def test_phi_prefix_worked_example():
    cond = phi_prefix(PAIR_PREFIX, (0, 1, 2))
    assert {(p.x, p.y) for p in cond} == {(0, 1), (0, 2)}


def test_phi_prefix_incomplete_pairs_contribute_nothing():
    p = OmegaTypePrefix((XClass(frozenset({1, 2})), YClass(1)))
    cond = phi_prefix(p, (4, 9))
    assert {(q.x, q.y) for q in cond} == {(4, 9)}


def test_phi_prefix_argument_checks():
    with pytest.raises(ValueError):
        phi_prefix(PAIR_PREFIX, (0, 1))  # one value per class
    with pytest.raises(ValueError):
        phi_prefix(PAIR_PREFIX, (0, 2, 2))  # strictly increasing
    with pytest.raises(ValueError):
        phi_prefix(PAIR_PREFIX, (0, 2, -1))


def test_assign_d_cases():
    assert assign_D(PAIR_PREFIX, ()) == "U"
    assert assign_D(PAIR_PREFIX, (7,)) == "V_7"
    assert assign_D(PAIR_PREFIX, (7, 9)) == "V_7"
    with pytest.raises(ValueError):
        assign_D(PAIR_PREFIX, (7, 9, 11))  # no class at position 3


def test_assign_d_prefix_monotone():
    rng = random.Random(3)
    for _ in range(60):
        p = random_prefix(rng, rng.randint(2, 7))
        z = []
        v = rng.randint(0, 5)
        for _ in range(len(p)):
            z.append(v)
            v += rng.randint(1, 3)
        for k in range(len(p)):
            head = p.classes[: k + 1]
            try:
                sub = OmegaTypePrefix(head)
            except ValueError:
                continue
            assert assign_D(sub, tuple(z[:k])) == assign_D(p, tuple(z[:k]))


def test_zassignment_lookup_and_errors():
    za = ZAssignment({"U": FinCofin.cofinite_except({0})})
    assert za.lookup("U").contains(5)
    with pytest.raises(MissingLabelError) as err:
        za.lookup("V_3")
    assert err.value.label == "V_3"
    with pytest.raises(ValueError):
        ZAssignment({"U": {1, 2}})


def test_zchain_trivial_assignments():
    # everything cofinite-with-empty-support: any chain walks through
    za = ZAssignment({"U": FinCofin.cofinite_except(()),
                      "V_0": FinCofin.cofinite_except(()),
                      "V_12": FinCofin.cofinite_except(())})
    assert zchain_check(PAIR_PREFIX, (0, 5, 9), za).ok
    assert zchain_check(PAIR_PREFIX, (12, 15, 20), za).ok
    # empty U: the first U-step fails
    za_empty = ZAssignment({"U": FinCofin.finite(())})
    report = zchain_check(PAIR_PREFIX, (4,), za_empty)
    assert not report.ok and report.failed_at == 0


def test_zchain_first_failure_index_and_missing_label():
    za = ZAssignment({"U": FinCofin.cofinite_except(range(10)),
                      "V_12": FinCofin.finite({15})})
    report = zchain_check(PAIR_PREFIX, (12, 15, 20), za)
    assert not report.ok and report.failed_at == 2
    with pytest.raises(MissingLabelError):
        zchain_check(PAIR_PREFIX, (11, 15, 20), za)
    with pytest.raises(ValueError):
        zchain_check(PAIR_PREFIX, (12, 12, 20), za)
    with pytest.raises(ValueError):
        zchain_check(PAIR_PREFIX, (5, 8, 9, 11), za)  # longer than the prefix


def test_h_set_member():
    za = ZAssignment({"U": FinCofin.cofinite_except({0}),
                      "V_3": FinCofin.finite({8})})
    assert h_set_member(Point(3, 8), za)
    assert not h_set_member((3, 9), za)
    assert not h_set_member((0, 8), ZAssignment({"U": FinCofin.cofinite_except({0}),
                                                 "V_0": FinCofin.cofinite_except(())}))
    with pytest.raises(MissingLabelError):
        h_set_member((5, 8), za)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_accepted_chains_land_inside_h(seed):
    rng = random.Random(seed)
    prefix = random_prefix(rng, rng.randint(2, 7))
    v = rng.randint(0, 20)
    z = []
    for _ in range(len(prefix)):
        z.append(v)
        v += rng.randint(1, 4)
    labels = {"U"}
    for cls in prefix.classes:
        if isinstance(cls, YClass):
            labels.add(f"V_{z[prefix.position_of_x(cls.index)]}")
    za = ZAssignment({lab: random_fincofin(rng) for lab in labels})
    cond = phi_prefix(prefix, tuple(z))
    assert check_condition(cond.points).ok
    if zchain_check(prefix, tuple(z), za).ok:
        for pt in cond:
            assert h_set_member(pt, za)


def _seeded_walk(rng, prefix):
    """A chain through prefix and an assignment to most of its labels."""
    z, v = [], rng.randint(0, 20)
    for _ in range(rng.randint(0, len(prefix))):
        z.append(v)
        v += rng.randint(1, 4)
    labels = {"U"} | {f"V_{v}" for v in z}
    za = ZAssignment({lab: random_fincofin(rng, 30) for lab in labels
                      if rng.random() < 0.9})
    return tuple(z), za


def test_zchain_and_phi_match_the_per_step_oracles():
    rng = random.Random(20261018)
    outcomes = set()
    for trial in range(400):
        if trial % 4:
            prefix = random_prefix(rng, rng.randint(1, 12))
        else:
            prefix = grid_prefix(rng.randint(1, 8))
        z, za = _seeded_walk(rng, prefix)
        try:
            report = zchain_check(prefix, z, za)
            got = (report.ok, report.failed_at)
        except MissingLabelError as exc:
            got = exc.label
        try:
            want = oracles.zchain_scan(prefix, z, za)
        except MissingLabelError as exc:
            want = exc.label
        assert got == want
        outcomes.add(type(got) if isinstance(got, str) else got[0])
        full = tuple(range(0, 3 * len(prefix), 3))
        assert set(phi_prefix(prefix, full)) == oracles.phi_scan(prefix, full)
    assert outcomes == {True, False, str}


def test_zchain_and_phi_are_linear_on_long_grid_prefixes():
    g = grid_prefix(4_000)
    z = tuple(range(len(g)))
    za = ZAssignment({"U": FinCofin.cofinite_except(()),
                      **{f"V_{v}": FinCofin.cofinite_except(()) for v in z}})
    start = time.perf_counter()
    assert zchain_check(g, z, za).ok
    assert len(phi_prefix(g, z)) == 4_000
    assert time.perf_counter() - start < 1.0


def test_phi_injective_in_z_when_pairs_complete():
    seen = {}
    base = (0, 1, 2)
    for bump in range(4):
        z = (base[0], base[1] + bump + 1, base[2] + bump + 2)
        pts = frozenset(phi_prefix(PAIR_PREFIX, z).points)
        assert pts not in seen.values()
        seen[z] = pts


def test_grid_prefix_worked_example():
    g = grid_prefix(6)
    assert g.classes == (
        XClass(frozenset({1, 2, 4})),
        YClass(1),
        YClass(2),
        XClass(frozenset({3, 5})),
        YClass(3),
        YClass(4),
        YClass(5),
        XClass(frozenset({6})),
        YClass(6),
    )


def test_grid_prefix_realizes_the_grid():
    g = grid_prefix(6)
    cond = phi_prefix(g, tuple(range(len(g))))
    assert {(p.x, p.y) for p in cond} == {
        (0, 1), (0, 2), (0, 5), (3, 4), (3, 6), (7, 8),
    }
    assert check_condition(cond.points).ok


@pytest.mark.parametrize("n_points", [1, 2, 3, 7, 12])
def test_grid_prefix_always_validates(n_points):
    g = grid_prefix(n_points)
    report = validate_prefix(g.classes)
    assert report.ok
    ys = sum(isinstance(c, YClass) for c in g.classes)
    assert ys == n_points
    with pytest.raises(ValueError):
        grid_prefix(0)


def test_random_prefix_is_seeded_and_valid():
    a = random_prefix(random.Random(11), 6)
    b = random_prefix(random.Random(11), 6)
    assert a == b
    assert validate_prefix(a.classes).ok


def test_prefix_json_round_trip():
    doc = prefix_to_json(PAIR_PREFIX)
    assert doc == {"classes": [{"x": [1, 2]}, {"y": 1}, {"y": 2}]}
    assert prefix_from_json(doc) == PAIR_PREFIX
    with pytest.raises(ValueError):
        prefix_from_json({"cls": []})


def test_zassignment_json_round_trip():
    za = ZAssignment({
        "U": FinCofin.cofinite_except({0, 1}),
        "V_0": FinCofin.finite({2}),
    })
    doc = zassignment_to_json(za)
    assert doc == {"U": {"cofinite": [0, 1]}, "V_0": {"finite": [2]}}
    assert zassignment_from_json(doc) == za


def test_an_absent_y_has_no_position_and_a_prefix_needs_a_class():
    p = OmegaTypePrefix(({"x": [1]}, {"y": 1}))
    assert p.position_of_y(1) == 1
    assert p.position_of_y(2) is None
    with pytest.raises(ValueError, match="^n_classes: expected a natural number >= 1, got 0$"):
        random_prefix(random.Random(0), 0)
