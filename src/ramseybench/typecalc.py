"""Order patterns on pair symbols: validation, enumeration, counting, transforms.

An n-pattern (``NType``) is a linear pre-order on the 2n formal symbols
x1..xn, y1..yn subject to three clauses, judged by ``_class_problems``
alone on the classes that every reader (constructor, list form, JSON)
hands it as given:

* the y's increase strictly: y1 < y2 < ... < yn;
* each xi sits strictly before its partner yi;
* only x-symbols may tie (every equivalence class is a single y or a
  nonempty set of x's).

Canonical form is the ordered tuple of equivalence classes.  Enumeration
walks gap assignments: the n y's cut the line into gaps, gap g being the
stretch just before y_{g+1}; each xi must land in a gap g < i, and the
x's sharing a gap carry a weak order (an ordered set partition).  For
each gap's x's, a per-gap choice list holds every weak order followed by
the y closing the gap, built once as classes or as list-form text; a
pattern is one choice per gap, so one product over the gaps yields the
NTypes (``enumerate_ntypes``) or their list forms (``_list_forms``)
without building the other.  Weak orders are built straight as blocks,
lexicographic in their rank vectors, so the whole enumeration is
lexicographic in (gap vector, rank vectors).  The count walks no gap
vector: a recurrence over the gaps cross-checks the enumeration.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, islice, product
from math import comb

from . import _jsonio
from ._values import value
from .errors import _natural

MAX_N = 6  # enumeration is exhaustive; counts explode well before this hurts
_MISSING_NAMED = 20  # missing symbols a message names before it counts the rest


@value(order=True)
class Symbol:
    """One formal symbol, e.g. x3 or y1.  kind is "x" or "y", index >= 1."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in ("x", "y"):
            raise ValueError(f"symbol kind must be 'x' or 'y', got {self.kind!r}")
        _natural(self.index, "symbol index", 1)

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"

    @classmethod
    def parse(cls, text: str) -> "Symbol":
        if not isinstance(text, str):
            raise ValueError(f"cannot parse symbol {text!r}")
        text = text.strip()
        kind, digits = text[:1], text[1:]
        if kind not in ("x", "y") or not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"cannot parse symbol {text!r}")
        return cls(kind, int(digits))


def _class_problems(n: int, classes) -> tuple[list[str], list[str]]:
    """Check a candidate class sequence.  Returns (malformed, violations)."""
    malformed: list[str] = []
    seen: list[Symbol] = []
    for cls in classes:
        if not cls:
            malformed.append("empty equivalence class")
            continue
        for sym in cls:
            if not isinstance(sym, Symbol):
                malformed.append(f"not a symbol: {sym!r}")
            else:
                seen.append(sym)
    distinct, dupes = set(), set()
    for sym in seen:
        (dupes if sym in distinct else distinct).add(sym)
    if dupes:
        malformed.append("symbols repeated: " + ", ".join(map(str, sorted(dupes))))
    stray = sorted(s for s in distinct if s.index > n)
    if stray:
        malformed.append("dangling indices: " + ", ".join(map(str, stray)))
    # n comes from the input: the work follows the symbols given, not n
    missing = 2 * n - (len(distinct) - len(stray))
    if missing and not malformed:
        expected = (Symbol(kind, i) for kind in ("x", "y") for i in range(1, n + 1))
        names = [str(s) for s in islice((s for s in expected if s not in distinct),
                                        _MISSING_NAMED)]
        rest = f" and {missing - len(names)} more" if missing > len(names) else ""
        malformed.append("symbols missing: " + ", ".join(names) + rest)
    if malformed:
        return malformed, []

    violations: list[str] = []
    position = {}
    for pos, cls in enumerate(classes):
        for sym in cls:
            position[sym] = pos
        kinds = {sym.kind for sym in cls}
        if "y" in kinds and len(cls) > 1:
            violations.append(
                "equivalent symbols must both be x's: "
                + "=".join(map(str, sorted(cls)))
            )
    for i in range(1, n):
        if position[Symbol("y", i)] >= position[Symbol("y", i + 1)]:
            violations.append(f"y symbols must increase strictly: y{i} vs y{i + 1}")
    for i in range(1, n + 1):
        if position[Symbol("x", i)] >= position[Symbol("y", i)]:
            violations.append(f"x{i} must sit strictly before y{i}")
    return [], violations


@value
class NType:
    """A validated n-pattern in canonical class-sequence form.

    ``classes`` is the ordered tuple of equivalence classes, least first;
    construction judges them as given, repeats included, and only then
    freezes each into a frozenset of Symbols, so an NType is well formed.
    """

    n: int
    classes: tuple[frozenset[Symbol], ...]

    def __post_init__(self):
        _natural(self.n, "n", 1)
        classes = tuple(self.classes)
        malformed, violations = _class_problems(self.n, classes)
        if malformed or violations:
            raise ValueError("invalid pattern: " + "; ".join(malformed + violations))
        object.__setattr__(self, "classes", tuple(map(frozenset, classes)))

    @classmethod
    def _trusted(cls, n: int, classes: tuple) -> "NType":
        """Build without validation, for class tuples that this package's
        own generators produce and that are valid by construction (the
        tests hold every enumerated pattern to ``_class_problems``)."""
        t = cls.__new__(cls)
        t.__dict__.update(n=n, classes=classes)
        return t

    @cached_property
    def rank(self) -> dict[Symbol, int]:
        return {sym: pos for pos, cls in enumerate(self.classes) for sym in cls}

    def leq(self, a: Symbol, b: Symbol) -> bool:
        return self.rank[a] <= self.rank[b]

    def equivalent(self, a: Symbol, b: Symbol) -> bool:
        return self.rank[a] == self.rank[b]

    def __str__(self) -> str:
        return list_form(self)


def _check_n(n: int):
    if _natural(n, "n", 1) > MAX_N:
        raise ValueError(f"n must be between 1 and {MAX_N}, got {n}")


@lru_cache(maxsize=None)
def fubini(k: int) -> int:
    """Number of weak orders (ordered set partitions) on k labeled items."""
    if k == 0:
        return 1
    return sum(comb(k, j) * fubini(k - j) for j in range(1, k + 1))


@lru_cache(maxsize=None)
def _weak_orders(k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Each weak order of k positions as its blocks of positions, least
    block first, lexicographic in rank vectors (position -> block index).

    Built depth first, one position at a time, block indices ascending:
    a position joins block v only while the blocks left empty below the
    highest used so far fit in the positions left.
    """
    out = []
    blocks: list[list[int]] = [[] for _ in range(k)]

    def extend(pos: int, used: int, top: int):
        left = k - pos
        if not left:
            out.append(tuple(map(tuple, blocks[:top + 1])))
            return
        for v in range(k):
            seen = used | 1 << v
            high = max(top, v)
            if high + 1 - seen.bit_count() < left:
                blocks[v].append(pos)
                extend(pos + 1, seen, high)
                blocks[v].pop()
            elif v > top:
                break  # above the highest block the empty ones only grow with v

    extend(0, 0, -1)
    return tuple(out)


# Shared Symbols for the patterns this package builds itself, so they
# skip a validated Symbol per use.
_symbol = lru_cache(maxsize=1024)(Symbol)


@lru_cache(maxsize=1024)
def _gap_choices(members: tuple[int, ...], g: int, text: bool) -> tuple:
    """Each weak order of the x's with the ascending indices ``members``,
    then y_{g+1} closing gap g: as its tuple of classes, or with ``text``
    as its list-form text.  Each distinct block is built once per gap;
    the members ascend, so a tied block's text needs no sorting."""
    orders = _weak_orders(len(members))
    blocks = set(chain.from_iterable(orders))
    if text:
        names = [f"x{i}" for i in members]
        part = {block: "=".join([names[p] for p in block]) for block in blocks}
        closing = f"y{g + 1}"
        return tuple("<".join([*map(part.__getitem__, order), closing]) for order in orders)
    xs = [_symbol("x", i) for i in members]
    part = {block: frozenset([xs[p] for p in block]) for block in blocks}
    closing = frozenset({_symbol("y", g + 1)})
    return tuple((*map(part.__getitem__, order), closing) for order in orders)


def _gap_products(n: int, text: bool):
    """Every n-pattern as one choice per gap 0..n-1, lexicographic in
    (gap vector, per-gap rank vectors).  Component i of a gap vector is
    xi's gap, one of 0..i-1; none is n, the stretch after yn."""
    _check_n(n)
    for assign in product(*(range(i) for i in range(1, n + 1))):
        gaps: list[list[int]] = [[] for _ in range(n)]
        for i, g in enumerate(assign, 1):
            gaps[g].append(i)
        yield from product(*(_gap_choices(tuple(members), g, text)
                             for g, members in enumerate(gaps)))


def enumerate_ntypes(n: int) -> list[NType]:
    """All n-patterns, lexicographic in (gap vector, per-gap rank vectors)."""
    return [NType._trusted(n, tuple(chain.from_iterable(choice)))
            for choice in _gap_products(n, text=False)]


def _list_forms(n: int) -> list[str]:
    """``[list_form(t) for t in enumerate_ntypes(n)]`` without an NType."""
    return ["<".join(choice) for choice in _gap_products(n, text=True)]


def count_ntypes(n: int) -> int:
    """Pattern count by a recurrence over the gaps, filled from n - 1
    down to 0; no enumeration involved.  ``ways[a]`` counts the fillings
    that leave a x's for the gaps below.  Before gap g, x_{g+1} joins the
    x's that may land there; the gap takes any j of the a available, in
    any weak order: comb(a, j) * fubini(j) ways.  O(n**3) steps; tests
    hold it to len(enumerate_ntypes(n)).
    """
    _check_n(n)
    ways = [1]
    for _ in range(n):
        ways = [0, *ways]  # x_{g+1} joins: a x's available become a + 1
        ways = [sum(w * comb(a, a - b) * fubini(a - b) for a, w in enumerate(ways[b:], b))
                for b in range(len(ways))]
    return ways[0]


def list_form(t: NType) -> str:
    """Render canonical list form, e.g. "x1=x2<y1<y2".

    Ties are joined by '=', consecutive classes by '<'; within a tied
    class the x's appear in ascending index order.
    """
    return "<".join(map(_class_form, t.classes))


@lru_cache(maxsize=1024)
def _class_form(cls: frozenset) -> str:
    return "=".join(str(s) for s in sorted(cls))


def parse_list_form(text: str) -> NType:
    """Split a list form on '<' and '=' and build the NType of half its
    symbol count (at least 1) from the classes as given; only an empty
    class is refused before the constructor judges them."""
    segments = text.strip().split("<")
    if any(not seg.strip() for seg in segments):
        raise ValueError(f"malformed list form {text!r}: empty class")
    classes = [[Symbol.parse(name) for name in seg.split("=")] for seg in segments]
    return NType(max(1, sum(map(len, classes)) // 2), tuple(classes))


def append_extension(t: NType) -> NType:
    """Extend by a fresh strictly-last pair: ... < x_{n+1} < y_{n+1}."""
    m = t.n + 1
    return NType(
        m,
        t.classes
        + (frozenset({Symbol("x", m)}), frozenset({Symbol("y", m)})),
    )


def insert_extension(t: NType) -> NType:
    """Turn a 2-pattern into a 3-pattern by the relabel-and-wedge recipe.

    Relabel index 2 to 3 throughout, tie a new x2 to x1's class, and slot
    y2 immediately after y1.  Defined for 2-patterns only.
    """
    if t.n != 2:
        raise ValueError(f"insert_extension takes a 2-pattern, got n={t.n}")

    def relabel(s: Symbol) -> Symbol:
        return Symbol(s.kind, 3) if s.index == 2 else s

    classes = [frozenset(relabel(s) for s in cls) for cls in t.classes]
    out: list[frozenset[Symbol]] = []
    for cls in classes:
        if Symbol("x", 1) in cls:
            cls = cls | {Symbol("x", 2)}
        out.append(cls)
        if Symbol("y", 1) in cls:
            out.append(frozenset({Symbol("y", 2)}))
    return NType(3, tuple(out))


def restrict_to_initial(t: NType, n: int) -> NType:
    """Induced pattern on the first n symbol pairs."""
    if not 1 <= n <= t.n:
        raise ValueError(f"cannot restrict an n={t.n} pattern to n={n}")
    classes = []
    for cls in t.classes:
        kept = frozenset(s for s in cls if s.index <= n)
        if kept:
            classes.append(kept)
    return NType(n, tuple(classes))


def ntype_from_json(doc: dict) -> NType:
    """Ingest {"n": 2, "classes": [["x1", "x2"], ["y1"], ["y2"]]}; malformed
    input raises ValueError naming its JSON path, e.g. ``classes[0][1]``."""
    if not isinstance(doc, dict) or "n" not in doc or "classes" not in doc:
        raise ValueError("pattern document needs 'n' and 'classes'")
    n = _natural(doc["n"], "n", 1)
    if not isinstance(doc["classes"], list):
        raise ValueError(f"classes: expected a list of symbol lists, "
                         f"got {_jsonio.dumps(doc['classes'], default=repr)}")
    classes = []
    for i, cls in enumerate(doc["classes"]):
        if not isinstance(cls, list):
            raise ValueError(f"classes[{i}]: expected a list of symbols, "
                             f"got {_jsonio.dumps(cls, default=repr)}")
        symbols = []
        for j, name in enumerate(cls):
            try:
                symbols.append(Symbol.parse(name))
            except ValueError as exc:
                raise ValueError(f"classes[{i}][{j}]: {exc}") from None
        classes.append(symbols)
    return NType(n, tuple(classes))
