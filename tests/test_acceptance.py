"""Acceptance gate: ten numbered criteria, one printed line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the pytest verdicts.  Every criterion carries
its own time budget where one is stated; budgets are asserted, not
advisory.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations

from ramseybench.homogeneity import (
    TernaryRelationGrid,
    extract_S_from_R,
    stabilize_lex,
    weak_ramsey_floor_demo,
)
from ramseybench.omegatypes import (
    ZAssignment,
    YClass,
    phi_prefix,
    h_set_member,
    random_prefix,
    zchain_check,
)
from ramseybench.pointsets import (
    FiniteCondition,
    check_condition,
    extend_with_realizers,
    random_condition,
    realized_type,
    subset_realizes,
)
from ramseybench.randomgraph import (
    build_graph_covering,
    check_extension_property,
    coloring_demo,
    noreverse_demo,
)
from ramseybench.setalgebra import (
    Frechet,
    StandInSequence,
    column_of,
    image_membership,
    in_fr2,
    random_fincofin,
    random_planar_set,
    sum_membership,
    tail_analysis,
)
from ramseybench.typecalc import (
    append_extension,
    count_ntypes,
    enumerate_ntypes,
    insert_extension,
    list_form,
    parse_list_form,
)

from oracles import brute_force_ntypes, subset_realizes_compare


@contextmanager
def criterion(number, label, budget=None):
    """Time a criterion body and print exactly one PASS/FAIL line."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"criterion {number:2d} FAIL  {label} "
              f"({elapsed:.2f}s, budget {budget}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s"
        )
    timing = f"  [{elapsed:.2f}s < {budget}s]" if budget is not None else ""
    print(f"criterion {number:2d} PASS  {label}{timing}")


def test_criterion_01_two_point_patterns():
    with criterion(1, "T(2) = 4 and the four 2-patterns, in order", budget=1.0):
        assert count_ntypes(2) == 4
        assert [list_form(t) for t in enumerate_ntypes(2)] == [
            "x1=x2<y1<y2",
            "x1<x2<y1<y2",
            "x2<x1<y1<y2",
            "x1<y1<x2<y2",
        ]


def test_criterion_02_count_routes_agree():
    with criterion(2, "gap formula == enumeration (n=1..5), brute force (n<=3)",
                   budget=30.0):
        for n in range(1, 6):
            assert count_ntypes(n) == len(enumerate_ntypes(n))
        # third, structurally unrelated route: filter all rank vectors
        for n, expected in ((1, 1), (2, 4), (3, 26)):
            brute = brute_force_ntypes(n)
            assert len(brute) == expected == count_ntypes(n)
            assert brute == set(enumerate_ntypes(n))


def test_criterion_03_realized_type_total_and_unique():
    with criterion(3, "500 random conditions: each subset has exactly one type",
                   budget=30.0):
        rng = random.Random(20260817)
        all_types = {n: enumerate_ntypes(n) for n in (2, 3)}
        valid = {n: set(ts) for n, ts in all_types.items()}
        for trial in range(500):
            n = 2 if trial % 2 == 0 else 3
            cond = random_condition(rng, rng.randint(4, 6))
            assert check_condition(cond.points).ok
            for subset in combinations(sorted(cond), n):
                t = realized_type(subset)
                assert t in valid[n]
                matches = [u for u in all_types[n] if subset_realizes(subset, u)]
                assert matches == [t]
                matches = [u for u in all_types[n]
                           if subset_realizes_compare(subset, u)]
                assert matches == [t]


def test_criterion_04_floor_is_exact():
    with criterion(4, "grown conditions meet exactly T(n) classes (n=2..5)",
                   budget=10.0):
        for n in (2, 3, 4, 5):
            cond = extend_with_realizers(FiniteCondition(frozenset()), n)
            report = weak_ramsey_floor_demo(cond, n)
            assert report.classes_met == report.t_n == count_ntypes(n)
            assert report.floor_holds and not report.missing


def test_criterion_05_extension_recipes():
    with criterion(5, "append/insert extensions match their fixed rewrites"):
        three = enumerate_ntypes(3)
        for t in enumerate_ntypes(2):
            appended = append_extension(t)
            assert appended in three
            assert list_form(appended) == list_form(t) + "<x3<y3"
        rewrites = {
            "x1<x2<y1<y2": "x1=x2<x3<y1<y2<y3",
            "x2<x1<y1<y2": "x3<x1=x2<y1<y2<y3",
            "x1<y1<x2<y2": "x1=x2<y1<y2<x3<y3",
            "x1=x2<y1<y2": "x1=x2=x3<y1<y2<y3",
        }
        for source, target in rewrites.items():
            out = insert_extension(parse_list_form(source))
            assert out in three
            assert list_form(out) == target


def test_criterion_06_extension_property_holds():
    with criterion(6, "covering schedule satisfies all (k<=2, m=3) demands",
                   budget=10.0):
        g = build_graph_covering(3, 2)
        assert check_extension_property(g, 2, 3) == []
        adjacency = {}
        for (u, v) in g.edges:
            assert u != v
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        for u, nbrs in adjacency.items():
            assert u not in nbrs
            assert all(u in adjacency[v] for v in nbrs)


def test_criterion_07_adjacency_coloring_demos():
    with criterion(7, "50 rich columns all non-homogeneous; palettes 3,4,5 full"):
        report = noreverse_demo(count=50, seed=0)
        assert report.conditions == 50
        assert report.columns_checked >= 50
        assert report.all_nonhomogeneous and report.failures == ()
        for t in (3, 4, 5):
            demo = coloring_demo(t)
            assert demo.palette == t
            assert demo.classes_met == t and demo.all_colors


def test_criterion_08_set_algebra_routes_agree():
    with criterion(8, "symbolic membership == stand-in sums on random inputs",
                   budget=60.0):
        rng = random.Random(8)
        frechet_everywhere = StandInSequence(Frechet(), ())
        for _ in range(1000):
            expr = random_planar_set(rng, depth=4)
            assert in_fr2(expr) == sum_membership(
                expr, Frechet(), frechet_everywhere
            )
            tail = tail_analysis(expr)
            for x in (tail.horizon, tail.horizon + 3, tail.horizon + 10):
                assert column_of(expr, x) == tail.section(x)
        for _ in range(500):
            b = random_fincofin(rng)
            u = Frechet() if rng.random() < 0.5 else _principal(rng)
            seq = StandInSequence(
                Frechet(),
                tuple((i, _principal(rng)) for i in range(rng.randint(0, 3))),
            )
            assert image_membership(b, u, seq) == u.holds(b)


def _principal(rng):
    from ramseybench.setalgebra import Principal

    return Principal(rng.randint(0, 12))


def test_criterion_09_stabilization_consistent():
    with criterion(9, "stabilize positions match direct column scans",
                   budget=10.0):
        rng = random.Random(99)
        for _ in range(200):
            length = rng.randint(1, 64)
            width = rng.randint(1, 16)
            rows = sorted(
                tuple(rng.randint(0, 1) for _ in range(width))
                for _ in range(length)
            )
            first_bits = [r[0] for r in rows]
            assert first_bits == sorted(first_bits)
            report = stabilize_lex(rows, direction="increasing")
            assert report.stable == rows[-1]
            for j in range(width):
                column = [r[j] for r in rows]
                direct = len(rows) - 1
                while direct > 0 and column[direct - 1] == column[-1]:
                    direct -= 1
                assert report.positions[j] == direct
        # windows: shrinking one never destabilizes a stable verdict
        for _ in range(40):
            cond = random_condition(rng, rng.randint(4, 7))
            xb = max(p.x for p in cond) + 1
            yb = max(p.y for p in cond) + 1
            grid = TernaryRelationGrid.from_function(
                xb, yb, 2, lambda x, y, z: rng.random() < 0.5
            )
            by_window = {
                w: extract_S_from_R(grid, cond, window=w) for w in (1, 2, 3)
            }
            for w in (2, 3):
                for key, status in by_window[w].items():
                    if status in ("stable-0", "stable-1"):
                        assert by_window[w - 1][key] == status


def test_criterion_10_omega_prefix_coherence():
    with criterion(10, "accepted chains realize conditions inside the carved set",
                   budget=10.0):
        rng = random.Random(10)
        accepted = 0
        for _ in range(200):
            prefix = random_prefix(rng, rng.randint(2, 8))
            value = rng.randint(0, 9)
            chain = []
            for _ in range(len(prefix)):
                chain.append(value)
                value += rng.randint(1, 4)
            chain = tuple(chain)
            labels = {"U"}
            for cls in prefix.classes:
                if isinstance(cls, YClass):
                    labels.add(f"V_{chain[prefix.position_of_x(cls.index)]}")
            za = ZAssignment({lab: random_fincofin(rng) for lab in labels})
            cond = phi_prefix(prefix, chain)
            assert check_condition(cond.points).ok
            if zchain_check(prefix, chain, za).ok:
                accepted += 1
                for point in cond:
                    assert h_set_member(point, za)
        assert accepted > 0
