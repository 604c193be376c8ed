"""Test fixtures: JSON writers the CLI never writes, which the tests use
to make input documents and to read them back, and seeded generators of
random inputs.

Stdlib only, so that ``set_cases.py`` runs them on other interpreters,
where pytest may be absent.
"""

from __future__ import annotations

import random

from ramseybench.errors import _natural
from ramseybench.homogeneity import TernaryRelationGrid
from ramseybench.omegatypes import OmegaTypePrefix, XClass, YClass, ZAssignment
from ramseybench.setalgebra import (
    AboveDiag,
    Column,
    Complement,
    FilterStandIn,
    FinCofin,
    FinitePoints,
    Frechet,
    Intersection,
    PlanarSet,
    Rect,
    Union,
    fincofin_to_json,
)
from ramseybench.typecalc import NType


def ntype_to_json(t: NType) -> dict:
    return {
        "n": t.n,
        "classes": [[str(s) for s in sorted(cls)] for cls in t.classes],
    }


def grid_to_json(grid: TernaryRelationGrid) -> dict:
    return {
        "bounds": [grid.x_bound, grid.y_bound, grid.z_bound],
        "triples": sorted([x, y, z] for (x, y, z) in grid.triples),
    }


def planar_set_to_json(expr: PlanarSet) -> dict:
    if isinstance(expr, FinitePoints):
        return {"points": [[x, y] for x, y in sorted(expr.points)]}
    if isinstance(expr, Rect):
        return {"rect": {"x": fincofin_to_json(expr.xs),
                         "y": fincofin_to_json(expr.ys)}}
    if isinstance(expr, AboveDiag):
        return {"aboveDiag": True}
    if isinstance(expr, Column):
        return {"column": {"x": expr.x, "content": fincofin_to_json(expr.content)}}
    if isinstance(expr, Union):
        return {"op": "union", "args": [planar_set_to_json(a) for a in expr.args]}
    if isinstance(expr, Intersection):
        return {"op": "intersection",
                "args": [planar_set_to_json(a) for a in expr.args]}
    if isinstance(expr, Complement):
        return {"op": "complement", "args": [planar_set_to_json(expr.arg)]}
    raise TypeError(f"not a planar set expression: {expr!r}")


def standin_to_json(s: FilterStandIn) -> dict:
    if isinstance(s, Frechet):
        return {"frechet": True}
    return {"principal": s.point}


def prefix_to_json(prefix: OmegaTypePrefix) -> dict:
    classes = []
    for cls in prefix.classes:
        if isinstance(cls, XClass):
            classes.append({"x": sorted(cls.indices)})
        else:
            classes.append({"y": cls.index})
    return {"classes": classes}


def zassignment_to_json(za: ZAssignment) -> dict:
    return {label: fincofin_to_json(za.lookup(label)) for label in za.labels()}


def random_fincofin(rng: random.Random, bound: int = 12) -> FinCofin:
    size = rng.randint(0, min(5, bound))
    return FinCofin(
        cofinite=rng.random() < 0.5,
        support=frozenset(rng.sample(range(bound), size)),
    )


def random_planar_set(rng: random.Random, depth: int = 4, bound: int = 12) -> PlanarSet:
    """Seeded random expression of at most the given operator depth."""
    if depth <= 0 or rng.random() < 0.35:
        kind = rng.randrange(4)
        if kind == 0:
            pts = frozenset(
                (rng.randrange(bound), rng.randrange(bound))
                for _ in range(rng.randint(0, 6))
            )
            return FinitePoints(pts)
        if kind == 1:
            return Rect(random_fincofin(rng, bound), random_fincofin(rng, bound))
        if kind == 2:
            return AboveDiag()
        return Column(rng.randrange(bound), random_fincofin(rng, bound))
    op = rng.randrange(3)
    if op == 2:
        return Complement(random_planar_set(rng, depth - 1, bound))
    args = tuple(
        random_planar_set(rng, depth - 1, bound)
        for _ in range(rng.randint(2, 3))
    )
    return Union(args) if op == 0 else Intersection(args)


def random_prefix(rng: random.Random, n_classes: int) -> OmegaTypePrefix:
    """Seeded valid prefix with the given class count."""
    _natural(n_classes, "n_classes", 1)
    classes: list = []
    next_x = 1
    housed: list[int] = []
    last_y = 0
    for _ in range(n_classes):
        ready = [j for j in housed if j > last_y]
        if ready and rng.random() < 0.55:
            j = rng.choice(ready)
            classes.append(YClass(j))
            last_y = j
        else:
            size = rng.randint(1, 3)
            indices = frozenset(range(next_x, next_x + size))
            next_x += size
            housed.extend(sorted(indices))
            classes.append(XClass(indices))
    return OmegaTypePrefix(tuple(classes))
