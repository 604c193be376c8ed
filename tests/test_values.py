"""The value classes against the stdlib dataclasses they stand for.

Every class the value decorator made (found by its marker, so a new class
cannot skip this) is compared with ``oracles.dataclass_twin``: the frozen
``dataclasses`` class written from the same body.  Both are built from
the same arguments, the field values of seeded library results and
Hypothesis variations of them, and must agree on the outcome of
construction (positional, keyword, defaults, ``__post_init__`` errors and
bad calls), on ``repr``, the instance ``__dict__``, ``==``, ``hash``,
ordering and the errors of assignment and deletion.
"""

import io
import operator
import random
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ramseybench import cli
from ramseybench._values import value
from ramseybench.homogeneity import (
    TernaryRelationGrid,
    check_tau_homogeneous,
    realized_type_coloring,
    search_homogeneous,
    stabilize_lex,
    weak_ramsey_floor_demo,
)
from ramseybench.omegatypes import (
    ZAssignment,
    random_prefix,
    validate_prefix,
    zchain_check,
)
from ramseybench.pointsets import check_condition, random_condition
from ramseybench.randomgraph import (
    ColumnVerdict,
    EdgeColoring,
    Graph,
    build_random_coloring,
    build_random_graph,
    coloring_demo,
    configuration_schedule,
    noreverse_demo,
)
from ramseybench.setalgebra import (
    AboveDiag,
    FinCofin,
    StandInSequence,
    planar_set_from_json,
    random_planar_set,
    sequence_from_json,
    tail_analysis,
)
from ramseybench.typecalc import TypeValidation, enumerate_ntypes, validate_ntype

CLASSES = oracles.value_classes()
TWINS = {cls: oracles.dataclass_twin(cls) for cls in CLASSES}
ORDER_OPS = (operator.lt, operator.le, operator.gt, operator.ge)
EVERY_PLANAR_SET = {"op": "union", "args": [
    {"points": [[0, 1]]},
    {"rect": {"x": {"finite": [1]}, "y": {"cofinite": [2]}}},
    {"op": "intersection", "args": [{"aboveDiag": True},
                                    {"op": "complement", "args": [
                                        {"column": {"x": 2, "content": {"finite": [3]}}}]}]},
]}


def library_results(seed: int) -> list:
    """Seeded results of every area's routines, holding an instance of
    each value class somewhere inside."""
    rng = random.Random(seed)
    cond = random_condition(rng, 5)
    tau = rng.choice(enumerate_ntypes(2))
    coloring = realized_type_coloring(cond, 2)
    prefix = random_prefix(rng, 5)
    out = io.StringIO()
    return [
        validate_ntype(2, [("x1", "y1")]),
        tau,
        cond,
        check_condition([(0, 1), (2, 1), (1, 1)]),
        coloring,
        check_tau_homogeneous(cond, coloring, tau),
        search_homogeneous(coloring, tau),
        weak_ramsey_floor_demo(cond, 2),
        stabilize_lex([[0, 1], [1, 0]]),
        TernaryRelationGrid.from_function(2, 2, 2, lambda x, y, z: (x + y + z + seed) % 2),
        build_random_coloring(3, 6),
        list(islice(configuration_schedule(), 5)),
        noreverse_demo(count=1, seed=seed),
        ColumnVerdict(rng.randrange(5), rng.randrange(9), rng.random() < 0.5, rng.randrange(9)),
        coloring_demo(2),
        random_planar_set(rng, depth=3),
        planar_set_from_json(EVERY_PLANAR_SET),
        tail_analysis(planar_set_from_json(EVERY_PLANAR_SET)),
        sequence_from_json({"default": {"frechet": True},
                            "exceptions": {str(rng.randrange(5)): {"principal": seed}}}),
        prefix,
        validate_prefix(prefix.classes),
        zchain_check(prefix, sorted(rng.sample(range(6), 3)),
                     ZAssignment({"U": FinCofin.cofinite_except(()),
                                  **{f"V_{v}": FinCofin.finite(range(v)) for v in range(6)}})),
        cli.run(["types", "count", "--n", "2"], stdout=out, stderr=out),
    ]


def value_instances(obj, found: list) -> list:
    """Every value instance inside obj, fields and containers included."""
    if type(obj) in TWINS:
        found.append(obj)
        children = [getattr(obj, name) for name in type(obj).__value_fields__]
    elif isinstance(obj, dict):
        children = [*obj, *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = obj
    else:
        children = ()
    for child in children:
        value_instances(child, found)
    return found


SAMPLES = {cls: [] for cls in CLASSES}
for _seed in range(3):
    for _obj in value_instances(library_results(_seed), []):
        SAMPLES[type(_obj)].append(_obj)


def fields_of(obj) -> list:
    return [getattr(obj, name) for name in type(obj).__value_fields__]


def outcome(fn, *args, **kwargs):
    """("ok", result), or ("raised", exception name, message): the names
    match as the two frozen errors are both ``FrozenInstanceError``."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))


def assert_same_behaviour(cls, calls) -> int:
    """Build cls and its twin from each (args, kwargs) and compare them;
    the count of calls that built an instance."""
    twin = TWINS[cls]
    built = []
    for args, kwargs in calls:
        got, want = outcome(cls, *args, **kwargs), outcome(twin, *args, **kwargs)
        if want[0] == "raised":
            assert got == want
            continue
        assert got[0] == "ok", got
        a, b = got[1], want[1]
        assert repr(a) == repr(b)
        assert vars(a) == vars(b)
        assert outcome(hash, a) == outcome(hash, b)
        for name in (*cls.__value_fields__, "other"):
            assert outcome(setattr, a, name, 0) == outcome(setattr, b, name, 0)
            assert outcome(delattr, a, name) == outcome(delattr, b, name)
        built.append((a, b))
    ops = (operator.eq, operator.ne, *(ORDER_OPS if cls.__value_order__ else ()))
    for (a1, b1), (a2, b2) in product(built, repeat=2):
        for op in ops:
            assert outcome(op, a1, a2) == outcome(op, b1, b2)
    for a, b in built:
        for op in ops:
            assert outcome(op, a, 0) == outcome(op, b, 0)
    return len(built)


def test_the_walk_finds_every_value_class():
    # 36 at this writing; a class is found by the decorator's marker alone
    assert len(CLASSES) == len(set(CLASSES)) >= 36
    assert [cls for cls in CLASSES if not SAMPLES[cls]] == []
    assert cli.CommandResult in CLASSES and Graph not in CLASSES


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_seeded_instances_match_the_dataclass(cls):
    calls = []
    for obj in SAMPLES[cls][:6]:
        values = fields_of(obj)
        names = list(cls.__value_fields__)
        calls += [(values, {}), ((), dict(zip(names, values))),
                  (values[:1], dict(zip(names[1:], values[1:])))]
    assert assert_same_behaviour(cls, calls) == len(calls)


@st.composite
def calls_of(draw, cls):
    """Arguments for cls: a seeded instance's fields, each kept or swapped
    for a stray value, one short or one too many, split into positional
    and keyword arguments (sometimes a field given twice)."""
    stray = st.one_of(
        st.integers(-2, 5), st.sampled_from(["x", "y", "", "ok"]), st.booleans(), st.none(),
        st.tuples(st.integers(-1, 4), st.integers(-1, 4)),
        st.frozensets(st.integers(-1, 4), max_size=3), st.lists(st.integers(0, 3), max_size=2))
    base = fields_of(draw(st.sampled_from(SAMPLES[cls])))
    values = [draw(st.one_of(st.just(v), stray)) for v in base]
    count = draw(st.integers(max(0, len(values) - 1), len(values) + 1))
    values = (values + [draw(stray)])[:count]
    split = draw(st.integers(0, count))
    names = [*cls.__value_fields__, "extra"]
    kwargs = dict(zip(names[split:], values[split:]))
    if split and draw(st.booleans()):
        kwargs[names[0]] = values[0]
    return values[:split], kwargs


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_drawn_arguments_match_the_dataclass(cls, data):
    assert_same_behaviour(cls, [data.draw(calls_of(cls)) for _ in range(3)])


def test_defaults_and_empty_field_lists_match_the_dataclass():
    default = SAMPLES[StandInSequence][0].default
    assert assert_same_behaviour(StandInSequence, [((default,), {}),
                                                   ((), {"default": default})]) == 2
    assert assert_same_behaviour(AboveDiag, [((), {}), ((1,), {}), ((), {"x": 1})]) == 1


def test_a_subclass_keeps_only_the_fields_frozen():
    # as with dataclasses, a subclass may set attributes that are not fields
    class TwinGraph(TWINS[EdgeColoring]):
        pass

    g, twin = build_random_graph(4), TwinGraph(4, 2, {})
    for name in ("table", "note"):
        assert outcome(setattr, g, name, {}) == outcome(setattr, twin, name, {})
        assert outcome(delattr, g, name) == outcome(delattr, twin, name)


def test_the_decorator_refuses_what_it_does_not_support():
    with pytest.raises(TypeError, match="non-default field 'b' follows a default field"):
        @value
        class Late:
            a: int = 0
            b: int

    with pytest.raises(TypeError, match="defines its own __repr__"):
        @value
        class Shown:
            a: int

            def __repr__(self):
                return "a"


def test_three_missing_arguments_are_listed_as_the_dataclass_lists_them():
    # the "'a', 'b', and 'c'" form of the interpreter's missing-argument message
    assert assert_same_behaviour(TypeValidation, [((), {}), ((True,), {})]) == 0
    assert outcome(TypeValidation)[2].endswith(
        "missing 3 required positional arguments: 'ok', 'malformed', and 'violations'")
