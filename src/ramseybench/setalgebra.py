"""Decidable algebra of planar sets with finite/cofinite structure.

``FinCofin`` represents a subset of the naturals that is finite or
cofinite, carrying its character and finite support (the set itself, or
its complement).  The class is closed under complement, union, and
intersection, and membership is decidable.

``column_of`` reads exact vertical sections out of symbolic planar-set
expressions built from four leaf shapes (finite point sets, products of
FinCofin sets, the strict above-diagonal region, single columns) under
union, intersection, and complement.  Every expression has a tail form:
beyond a computable horizon N, the section at x is

    (upper minus [0, x]) union (lower intersect [0, x])

for fixed FinCofin coefficients (upper, lower).  The combinators act on
coefficients pointwise, so the form falls out by recursion.  All the
asymptotic verdicts ride on it: the eventual section character equals
upper's character, which decides membership in the twice-iterated
cofinite filter and the meets-everything property alike.

Filter stand-ins (the cofinite filter, principal ultrafilters) evaluate
indexed sums: the verdict set {n : section at n lies in V_n} is itself
FinCofin.  Sections are read explicitly only below the horizon and the
exception indices; every later verdict comes from the tail form, so a
principal point, however far, costs no section.  Note the cofinite
filter is a filter, not an ultrafilter: a verdict set that is neither
cofinite nor avoided simply fails membership.
"""

from __future__ import annotations

from . import _jsonio
from ._values import value
from .errors import _natural, _naturals, check_work


@value
class FinCofin:
    """A finite or cofinite set of naturals.

    ``support`` is the set itself when finite, the complement when
    cofinite; the representation is canonical, so equality is structural.
    """

    cofinite: bool
    support: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "support",
                           frozenset(_natural(v, "support") for v in self.support))

    @classmethod
    def finite(cls, values) -> "FinCofin":
        return cls(False, frozenset(values))

    @classmethod
    def cofinite_except(cls, values) -> "FinCofin":
        return cls(True, frozenset(values))

    def contains(self, v: int) -> bool:
        return (v in self.support) != self.cofinite

    def complement(self) -> "FinCofin":
        return FinCofin(not self.cofinite, self.support)

    def union(self, other: "FinCofin") -> "FinCofin":
        if not self.cofinite and not other.cofinite:
            return FinCofin(False, self.support | other.support)
        if self.cofinite and other.cofinite:
            return FinCofin(True, self.support & other.support)
        cof, fin = (self, other) if self.cofinite else (other, self)
        return FinCofin(True, cof.support - fin.support)

    def intersection(self, other: "FinCofin") -> "FinCofin":
        return self.complement().union(other.complement()).complement()

    def members_below(self, bound: int) -> list[int]:
        return [v for v in range(bound) if self.contains(v)]

    def __str__(self) -> str:
        body = "{" + ",".join(map(str, sorted(self.support))) + "}"
        return f"co{body}" if self.cofinite else body


EMPTY = FinCofin.finite(())
FULL = FinCofin.cofinite_except(())


class PlanarSet:
    """Base class for symbolic planar-set expressions."""

    __slots__ = ()


@value
class FinitePoints(PlanarSet):
    points: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "points", frozenset(
            (_natural(x, "points"), _natural(y, "points")) for x, y in self.points))


@value
class Rect(PlanarSet):
    xs: FinCofin
    ys: FinCofin


@value
class AboveDiag(PlanarSet):
    """All (x, y) with y > x."""


@value
class Column(PlanarSet):
    x: int
    content: FinCofin

    def __post_init__(self):
        _natural(self.x, "column")


@value
class Union(PlanarSet):
    args: tuple[PlanarSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if not self.args:
            raise ValueError("union needs at least one argument")


@value
class Intersection(PlanarSet):
    args: tuple[PlanarSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if not self.args:
            raise ValueError("intersection needs at least one argument")


@value
class Complement(PlanarSet):
    arg: PlanarSet


def _section_work(expr: PlanarSet) -> tuple[int, int]:
    """(fixed, diagonal) such that a section of expr at x reads or builds
    at most fixed + diagonal * (x + 1) values.  A leaf's values (its points
    or supports, or AboveDiag's x + 1) are copied once by each node from
    the leaf up, so they count once per node on that path."""
    fixed = diagonal = 0
    stack = [(expr, 1)]
    while stack:
        e, depth = stack.pop()
        fixed += 1
        if isinstance(e, (Union, Intersection)):
            stack.extend((a, depth + 1) for a in e.args)
        elif isinstance(e, Complement):
            stack.append((e.arg, depth + 1))
        elif isinstance(e, AboveDiag):
            diagonal += depth
        elif isinstance(e, FinitePoints):
            fixed += depth * len(e.points)
        elif isinstance(e, Rect):
            fixed += depth * (len(e.xs.support) + len(e.ys.support))
        elif isinstance(e, Column):
            fixed += depth * len(e.content.support)
    return fixed, diagonal


def column_of(expr: PlanarSet, x: int) -> FinCofin:
    """Exact vertical section {y : (x, y) in expr} as a FinCofin set.

    A section that may take more values (``_section_work``) than the
    "values" work bound raises LimitError before any work.
    """
    _natural(x, "x")
    fixed, diagonal = _section_work(expr)
    work = fixed + diagonal * (x + 1)
    check_work("values", work, "column", f"the section at x={x} may take {work} values")
    return _column(expr, x)


def _column(expr: PlanarSet, x: int) -> FinCofin:
    if isinstance(expr, FinitePoints):
        return FinCofin.finite(y for (px, y) in expr.points if px == x)
    if isinstance(expr, Rect):
        return expr.ys if expr.xs.contains(x) else EMPTY
    if isinstance(expr, AboveDiag):
        return FinCofin.cofinite_except(range(x + 1))
    if isinstance(expr, Column):
        return expr.content if expr.x == x else EMPTY
    if isinstance(expr, (Union, Intersection)):
        fold = FinCofin.union if isinstance(expr, Union) else FinCofin.intersection
        # a loop, not reduce over a generator: one frame per nesting level
        section = _column(expr.args[0], x)
        for a in expr.args[1:]:
            section = fold(section, _column(a, x))
        return section
    if isinstance(expr, Complement):
        return _column(expr.arg, x).complement()
    raise TypeError(f"not a planar set expression: {expr!r}")


@value
class TailForm:
    """Sections beyond ``horizon``: (upper - [0,x]) | (lower & [0,x])."""

    horizon: int
    upper: FinCofin
    lower: FinCofin

    def section(self, x: int) -> FinCofin:
        if x < self.horizon:
            raise ValueError(f"tail form only applies from {self.horizon} on")
        cut = FinCofin.finite(range(x + 1))
        return self.upper.intersection(cut.complement()).union(
            self.lower.intersection(cut)
        )


def tail_analysis(expr: PlanarSet) -> TailForm:
    """Horizon and coefficients of the expression's eventual column shape."""
    if isinstance(expr, FinitePoints):
        xs = [x for (x, _) in expr.points]
        return TailForm(max(xs) + 1 if xs else 0, EMPTY, EMPTY)
    if isinstance(expr, Rect):
        horizon = max(expr.xs.support, default=-1) + 1
        coef = expr.ys if expr.xs.cofinite else EMPTY
        return TailForm(horizon, coef, coef)
    if isinstance(expr, AboveDiag):
        return TailForm(0, FULL, EMPTY)
    if isinstance(expr, Column):
        return TailForm(expr.x + 1, EMPTY, EMPTY)
    if isinstance(expr, (Union, Intersection)):
        fold = FinCofin.union if isinstance(expr, Union) else FinCofin.intersection
        # a loop, not a comprehension: one frame per nesting level
        form = tail_analysis(expr.args[0])
        horizon, upper, lower = form.horizon, form.upper, form.lower
        for a in expr.args[1:]:
            form = tail_analysis(a)
            horizon = max(horizon, form.horizon)
            upper, lower = fold(upper, form.upper), fold(lower, form.lower)
        return TailForm(horizon, upper, lower)
    if isinstance(expr, Complement):
        inner = tail_analysis(expr.arg)
        return TailForm(inner.horizon, inner.upper.complement(),
                        inner.lower.complement())
    raise TypeError(f"not a planar set expression: {expr!r}")


def in_fr2(expr: PlanarSet) -> bool:
    """Cofinitely many sections cofinite?  Decided by the tail coefficient:
    beyond the horizon every section shares upper's character, and the
    finitely many sections below it cannot tip the verdict either way.

    The same call answers ``meets_all_fr2``: infinitely many sections
    infinite?  A FinCofin section is infinite exactly when cofinite, and
    past the horizon all sections share upper's character."""
    return tail_analysis(expr).upper.cofinite


meets_all_fr2 = in_fr2


@value
class Frechet:
    """Stand-in for the cofinite filter."""

    def holds(self, s: FinCofin) -> bool:
        return s.cofinite

    def __str__(self) -> str:
        return "frechet"


@value
class Principal:
    """Stand-in for the principal ultrafilter at a point."""

    point: int

    def __post_init__(self):
        _natural(self.point, "principal")

    def holds(self, s: FinCofin) -> bool:
        return s.contains(self.point)

    def __str__(self) -> str:
        return f"principal({self.point})"


FilterStandIn = Frechet | Principal


@value
class StandInSequence:
    """An indexed family of stand-ins: a default plus finite exceptions."""

    default: FilterStandIn
    exceptions: tuple[tuple[int, FilterStandIn], ...] = ()

    def __post_init__(self):
        exceptions = tuple(self.exceptions)
        indices = [_natural(i, "exceptions") for i, _ in exceptions]
        object.__setattr__(self, "exceptions", tuple(sorted(exceptions, key=lambda kv: kv[0])))
        if len(set(indices)) != len(indices):
            raise ValueError("exception indices must be distinct")

    def at(self, n: int) -> FilterStandIn:
        for i, standin in self.exceptions:
            if i == n:
                return standin
        return self.default


def verdict_set(expr: PlanarSet, seq: StandInSequence) -> FinCofin:
    """The set {n : section of expr at n lies in seq's n-th stand-in}.

    Sections are read explicitly below a cutoff, the larger of the
    horizon and one past the last exception index; from the cutoff on,
    the default stand-in judges the tail form.  For the cofinite filter
    that verdict is upper's character.  For a principal stand-in at q it
    is ``q in upper`` for n < q and ``q in lower`` from q on, so the
    indices in [cutoff, q) are all flips when the two differ, and none
    otherwise.  The explicit sections, and a scan of the exceptions for
    each, may take ``cutoff * (fixed + exceptions) + diagonal * cutoff *
    (cutoff + 1) / 2`` values (``_section_work``), and the run of flips
    one value per index; more than the "values" work bound in all raise
    LimitError before any section is read.
    """
    form = tail_analysis(expr)
    cutoff = max(form.horizon, seq.exceptions[-1][0] + 1 if seq.exceptions else 0)
    if isinstance(seq.default, Frechet):
        tail_true, run = form.upper.cofinite, 0
    else:
        q = seq.default.point
        tail_true = form.lower.contains(q)
        run = max(q - cutoff, 0) if form.upper.contains(q) != tail_true else 0
    fixed, diagonal = _section_work(expr)
    work = (cutoff * (fixed + len(seq.exceptions))
            + diagonal * cutoff * (cutoff + 1) // 2 + run)
    check_work("values", work, "verdict set",
               f"{cutoff} sections and {run} tail verdicts may take {work} values")
    flips = [n for n in range(cutoff) if seq.at(n).holds(_column(expr, n)) != tail_true]
    flips.extend(range(cutoff, cutoff + run))
    return FinCofin(cofinite=tail_true, support=frozenset(flips))


def sum_membership(expr: PlanarSet, u: FilterStandIn, seq: StandInSequence) -> bool:
    """Does expr belong to the u-indexed sum of the seq stand-ins?"""
    return u.holds(verdict_set(expr, seq))


def image_membership(b: FinCofin, u: FilterStandIn, seq: StandInSequence) -> bool:
    """Membership of b in the first-coordinate image of the sum.

    Computed as sum membership of the cylinder over b; it must agree
    with asking u about b directly, which tests pin down.
    """
    return sum_membership(Rect(b, FULL), u, seq)


def fincofin_to_json(s: FinCofin) -> dict:
    key = "cofinite" if s.cofinite else "finite"
    return {key: sorted(s.support)}


# The readers below take the JSON path of the document they read as
# ``where`` ("" at the top) and name the path of a malformed value.

def _at(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _bad(where: str, what: str, doc) -> ValueError:
    return ValueError(f"{where + ': ' if where else ''}bad {what} document: "
                      f"{_jsonio.dumps(doc, default=repr)}")


def _fields(doc, where: str, keys: tuple[str, ...]) -> dict:
    if not isinstance(doc, dict) or not all(k in doc for k in keys):
        raise ValueError(f"{where}: expected an object with keys {', '.join(keys)}, "
                         f"got {_jsonio.dumps(doc, default=repr)}")
    return doc


def fincofin_from_json(doc: dict, where: str = "") -> FinCofin:
    if isinstance(doc, dict) and len(doc) == 1 and ("finite" in doc or "cofinite" in doc):
        [(key, values)] = doc.items()
        return FinCofin(key == "cofinite", frozenset(_naturals(values, _at(where, key))))
    raise _bad(where, "finite/cofinite", doc)


def planar_set_from_json(doc: dict, where: str = "") -> PlanarSet:
    """Read an expression; malformed input raises ValueError naming its
    JSON path, e.g. ``args[0].rect.x``."""
    if not isinstance(doc, dict):
        raise _bad(where, "planar set", doc)
    if "op" in doc:
        op = doc["op"]
        raw, at = doc.get("args", []), _at(where, "args")
        if not isinstance(raw, list):
            raise ValueError(f"{at}: expected a list, got {_jsonio.dumps(raw, default=repr)}")
        # a loop, not a comprehension: one frame per nesting level
        args = []
        for i, arg in enumerate(raw):
            args.append(planar_set_from_json(arg, f"{at}[{i}]"))
        if op == "union":
            return Union(tuple(args))
        if op == "intersection":
            return Intersection(tuple(args))
        if op == "complement":
            if len(args) != 1:
                raise ValueError(f"{at}: complement takes exactly one argument")
            return Complement(args[0])
        raise ValueError(f"{_at(where, 'op')}: unknown operator "
                         f"{_jsonio.dumps(op, default=repr)}")
    if "points" in doc:
        raw, at = doc["points"], _at(where, "points")
        if not isinstance(raw, list):
            raise ValueError(f"{at}: expected a list of [x, y] pairs, "
                             f"got {_jsonio.dumps(raw, default=repr)}")
        return FinitePoints(frozenset(tuple(_naturals(p, f"{at}[{i}]", 2))
                                      for i, p in enumerate(raw)))
    if "rect" in doc:
        rect = _fields(doc["rect"], _at(where, "rect"), ("x", "y"))
        return Rect(fincofin_from_json(rect["x"], _at(where, "rect.x")),
                    fincofin_from_json(rect["y"], _at(where, "rect.y")))
    if "aboveDiag" in doc:
        return AboveDiag()
    if "column" in doc:
        column = _fields(doc["column"], _at(where, "column"), ("x", "content"))
        return Column(_natural(column["x"], _at(where, "column.x")),
                      fincofin_from_json(column["content"], _at(where, "column.content")))
    raise _bad(where, "planar set", doc)


def standin_from_json(doc: dict, where: str = "") -> FilterStandIn:
    if isinstance(doc, dict) and set(doc) == {"frechet"} and doc["frechet"]:
        return Frechet()
    if isinstance(doc, dict) and set(doc) == {"principal"}:
        return Principal(_natural(doc["principal"], _at(where, "principal")))
    raise _bad(where, "stand-in", doc)


def sequence_from_json(doc: dict) -> StandInSequence:
    if not isinstance(doc, dict) or "default" not in doc:
        raise ValueError("stand-in sequence document needs 'default'")
    raw = doc.get("exceptions", {})
    if not isinstance(raw, dict):
        raise ValueError("exceptions: expected an object from indices to stand-ins, "
                         f"got {_jsonio.dumps(raw, default=repr)}")
    exceptions = []
    for key, value in raw.items():
        where = f"exceptions.{key}"
        if not (key.isascii() and key.isdigit()):
            raise ValueError(f"{where}: the index must be a natural number")
        exceptions.append((int(key), standin_from_json(value, where)))
    return StandInSequence(standin_from_json(doc["default"], "default"), tuple(exceptions))
