"""Finite prefixes of infinite order patterns and their chain discipline.

A prefix is an ordered sequence of classes: each class houses either a
single y-index or a nonempty finite set of x-indices.  Valid prefixes
have strictly increasing y-indices, and every y-index's x must already
sit in an earlier x-class.  The genuinely infinitary clauses (x-classes
are infinite, there are infinitely many of them, the class order has
type omega) cannot be judged on a prefix; validation records them as
assumed and flags every x-class as a stub.  Deliberately, nothing more
is enforced: in particular y-indices need not be consecutive, although
prefixes cut from full patterns would have them so.  One judge walks
the classes once for ``validate_prefix`` and the constructor alike.

``phi_prefix`` realizes a prefix as a planar condition by assigning one
strictly increasing value per class; each index j with both x_j and y_j
valued contributes the point (value of x_j, value of y_j).

``assign_D`` names the set a chain must enter next: position k of the
prefix demands the x-pool label "U" when class k is an x-class, and the
column label "V_v" when class k is the y of an index whose x got chain
value v.  ``zchain_check`` walks a chain through those demands, and
``h_set_member`` tests points against the resulting label assignment.
"""

from __future__ import annotations

import random
from functools import cached_property

from . import _jsonio
from ._values import value
from .errors import MissingLabelError, _natural, _naturals
from .pointsets import FiniteCondition, Point, _as_point
from .setalgebra import FinCofin, fincofin_from_json, fincofin_to_json


@value
class YClass:
    index: int

    def __post_init__(self):
        _natural(self.index, "y-index", 1)


@value
class XClass:
    indices: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "indices",
                           frozenset(_natural(i, "x-indices", 1) for i in self.indices))
        if not self.indices:
            raise ValueError("x-class must be nonempty")


@value
class PrefixReport:
    ok: bool
    malformed: tuple[str, ...]
    violations: tuple[str, ...]
    assumed: tuple[str, ...]


ASSUMED_CLAUSES = (
    "every x-class is a finite stub of an infinite class",
    "infinitely many x-classes follow",
    "the class order continues with type omega",
)


def _coerce_classes(classes):
    """Classes as given, or read from JSON entries; a malformed entry
    raises ValueError naming its path, e.g. ``classes[0].x``."""
    if not isinstance(classes, (list, tuple)):
        raise ValueError("classes: expected a list of class entries, "
                         f"got {_jsonio.dumps(classes, default=repr)}")
    out = []
    for i, cls in enumerate(classes):
        if isinstance(cls, (YClass, XClass)):
            out.append(cls)
        elif isinstance(cls, dict) and set(cls) == {"y"}:
            out.append(YClass(_natural(cls["y"], f"classes[{i}].y")))
        elif isinstance(cls, dict) and set(cls) == {"x"}:
            out.append(XClass(frozenset(_naturals(cls["x"], f"classes[{i}].x"))))
        else:
            raise ValueError(f"classes[{i}]: bad class entry: {_jsonio.dumps(cls, default=repr)}")
    return tuple(out)


def _judge(seq) -> PrefixReport:
    """The report on coerced classes, in one walk: repeats make a prefix
    malformed; only one without them reports y-order and housing breaks."""
    malformed: list[str] = []
    violations: list[str] = []
    housed: set[int] = set()
    seen_y: set[int] = set()
    last_y = 0
    for cls in seq:
        if isinstance(cls, XClass):
            dup = cls.indices & housed
            if dup:
                malformed.append("x-indices repeated across classes: "
                                 + ", ".join(map(str, sorted(dup))))
            housed |= cls.indices
            continue
        if cls.index in seen_y:
            malformed.append(f"y-index repeated: {cls.index}")
        seen_y.add(cls.index)
        if cls.index <= last_y:
            violations.append(f"y-indices must increase strictly: "
                              f"y{cls.index} after y{last_y}")
        if cls.index not in housed:
            violations.append(f"y{cls.index} present without x{cls.index} "
                              "in an earlier class")
        last_y = max(last_y, cls.index)
    if malformed:
        return PrefixReport(False, tuple(malformed), (), ())
    assumed = ASSUMED_CLAUSES if housed else ASSUMED_CLAUSES[1:]
    return PrefixReport(not violations, (), tuple(violations), assumed)


def validate_prefix(classes) -> PrefixReport:
    """Judge a candidate class sequence; never raises on content problems.
    The constructor of ``OmegaTypePrefix`` refuses by the same judge."""
    try:
        seq = _coerce_classes(classes)
    except (ValueError, TypeError) as exc:
        return PrefixReport(False, (str(exc),), (), ())
    return _judge(seq)


@value
class OmegaTypePrefix:
    """A validated prefix.  Construction rejects malformed or out-of-order
    class sequences; the infinitary clauses stay assumptions."""

    classes: tuple

    def __post_init__(self):
        seq = _coerce_classes(self.classes)
        object.__setattr__(self, "classes", seq)
        report = _judge(seq)
        if not report.ok:
            raise ValueError(
                "invalid prefix: " + "; ".join(report.malformed + report.violations)
            )

    def __len__(self) -> int:
        return len(self.classes)

    @cached_property
    def _x_positions(self) -> dict[int, int]:
        # validation leaves each x-index in exactly one class
        return {i: pos for pos, cls in enumerate(self.classes)
                if isinstance(cls, XClass) for i in cls.indices}

    def position_of_x(self, index: int):
        return self._x_positions.get(index)

    def position_of_y(self, index: int):
        for pos, cls in enumerate(self.classes):
            if isinstance(cls, YClass) and cls.index == index:
                return pos
        return None


def _check_chain(z) -> tuple[int, ...]:
    vals = tuple(_natural(v, "chain") for v in z)
    if any(vals[i] >= vals[i + 1] for i in range(len(vals) - 1)):
        raise ValueError(f"chain values must increase strictly: {vals}")
    return vals


def phi_prefix(prefix: OmegaTypePrefix, z) -> FiniteCondition:
    """Realize a prefix as the condition its class values spell out.

    ``z`` assigns one value per class, strictly increasing.  Every index
    with both its x-class and y-class inside the prefix contributes the
    point (x-class value, y-class value).
    """
    vals = _check_chain(z)
    if len(vals) != len(prefix):
        raise ValueError(
            f"need one value per class: {len(prefix)} classes, {len(vals)} values"
        )
    # a judged prefix houses every y's x in an earlier class
    return FiniteCondition(frozenset(
        Point(vals[prefix.position_of_x(cls.index)], vals[pos])
        for pos, cls in enumerate(prefix.classes) if isinstance(cls, YClass)))


def assign_D(prefix: OmegaTypePrefix, s) -> str:
    """Label of the set the chain must enter after the values in s.

    With k = len(s), class k of the prefix answers: an x-class demands
    the pool label "U"; the y-class of index j demands "V_v" where v is
    the value s gave to x_j's class.
    """
    vals = _check_chain(s)
    k = len(vals)
    if k >= len(prefix):
        raise ValueError(
            f"prefix has {len(prefix)} classes; no class at position {k}"
        )
    return _demand(prefix, vals, k)


def _demand(prefix: OmegaTypePrefix, vals: tuple[int, ...], k: int) -> str:
    """assign_D's label at position k < len(prefix), after the checked
    chain values vals[:k]."""
    cls = prefix.classes[k]
    if isinstance(cls, XClass):
        return "U"
    # a judged prefix houses every y's x in an earlier class, so it is valued
    return f"V_{vals[prefix.position_of_x(cls.index)]}"


class ZAssignment:
    """Finite table from labels ("U", "V_3", ...) to FinCofin sets."""

    def __init__(self, table: dict):
        self._table = dict(table)
        for label, s in self._table.items():
            if not isinstance(s, FinCofin):
                raise ValueError(f"label {label!r} must map to a FinCofin set")

    def lookup(self, label: str) -> FinCofin:
        if label not in self._table:
            raise MissingLabelError(label)
        return self._table[label]

    def labels(self) -> list[str]:
        return sorted(self._table)

    def __eq__(self, other):
        return isinstance(other, ZAssignment) and self._table == other._table


@value
class ChainReport:
    ok: bool
    failed_at: int | None


def zchain_check(prefix: OmegaTypePrefix, z, za: ZAssignment) -> ChainReport:
    """Walk the chain through the sets its own prefix demands.

    Step n requires z_n to lie in the set labeled by assign_D over the
    first n values.  Returns the least failing index, or a clean pass.
    A label absent from the assignment raises MissingLabelError.
    """
    vals = _check_chain(z)
    if len(vals) > len(prefix):
        raise ValueError(
            f"chain of length {len(vals)} exceeds the {len(prefix)}-class prefix"
        )
    for n, v in enumerate(vals):
        if not za.lookup(_demand(prefix, vals, n)).contains(v):
            return ChainReport(False, n)
    return ChainReport(True, None)


def h_set_member(point, za: ZAssignment) -> bool:
    """Is the point in the planar set the assignment carves out?

    Requires the x to lie in the pool set "U" and the y to lie in the
    column set "V_x"; both labels must be assigned.
    """
    p = _as_point(point)
    return za.lookup("U").contains(p.x) and za.lookup(f"V_{p.x}").contains(p.y)


def grid_prefix(n_points: int) -> OmegaTypePrefix:
    """Prefix of the pattern cut from a diagonally enumerated grid.

    Walk grid slots (column, slot) by ascending diagonal sum, columns
    first within a diagonal.  A column's first visit allocates its
    x-value; every visit allocates the next y-value.  The class sequence
    in value order is the prefix; x-classes hold the point indices (in
    y-order) their column received so far.
    """
    _natural(n_points, "n_points", 1)
    slots = []
    d = 0
    while len(slots) < n_points:
        for col in range(d + 1):
            slots.append(col)
            if len(slots) == n_points:
                break
        d += 1
    classes: list = []
    column_class: dict[int, int] = {}
    for j, col in enumerate(slots, start=1):
        if col not in column_class:
            column_class[col] = len(classes)
            classes.append(XClass(frozenset({j})))
        else:
            pos = column_class[col]
            classes[pos] = XClass(classes[pos].indices | {j})
        classes.append(YClass(j))
    return OmegaTypePrefix(tuple(classes))


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


def prefix_to_json(prefix: OmegaTypePrefix) -> dict:
    classes = []
    for cls in prefix.classes:
        if isinstance(cls, XClass):
            classes.append({"x": sorted(cls.indices)})
        else:
            classes.append({"y": cls.index})
    return {"classes": classes}


def prefix_from_json(doc: dict) -> OmegaTypePrefix:
    if not isinstance(doc, dict) or "classes" not in doc:
        raise ValueError("prefix document needs 'classes'")
    return OmegaTypePrefix(doc["classes"])


def zassignment_from_json(doc: dict) -> ZAssignment:
    if not isinstance(doc, dict):
        raise ValueError("assignment document must be an object")
    return ZAssignment({k: fincofin_from_json(v, k) for k, v in doc.items()})


def zassignment_to_json(za: ZAssignment) -> dict:
    return {label: fincofin_to_json(za.lookup(label)) for label in za.labels()}
