"""Command-line front end: every module behind one binary.

Layout is two-level: an area (types, cond, homog, graph, sets, omega)
followed by an action.  Every action accepts ``--format json|table``
and ``--out <path>``; file inputs arrive via ``--in <path>`` (with
``--cond`` as an alias wherever the input is a planar condition).

Output discipline: stdout carries the payload, one JSON document or its
table flattening; diagnostics go to stderr; the exit code is 0 for a
completed command, 1 for a domain error (bad data, refused search,
missing label, a file that cannot be read or written), 2 for a usage
error (argparse; an empty path option is one).  ``--out`` persists the payload, except for the
artifact producers ``cond grow`` and ``graph build`` which persist the
bare condition/graph document so the file can be fed back through
``--in``; the file is written before anything goes to stdout.  When
stdout's reader goes away, ``main`` exits 1 with the ``error`` payload
on stderr.

The exit: ``run()`` returns the result and never exits; a usage error or
``--help`` raises argparse's ``SystemExit``.  The console entry ``main``
owns the process: once the payload is out it runs the ``atexit`` hooks,
flushes stdout and stderr and leaves with ``os._exit``, so the
interpreter does not free its modules and heap on the way out.  Usage
errors and ``--help`` still leave through ``SystemExit``.

Reading argv: each option of the command table is the plain ``(flags,
keywords)`` of its ``add_argument`` call.  ``_read_call`` reads a plain
action call (an area, one of its actions, then exact flags of that
action, each with one value not starting with ``-`` unless a
``store_true`` flag) by those specs; only argv it cannot read builds the
argparse tree from them, which answers help, usage errors and every other
spelling, and imports ``argparse``.  The table's shape (``--`` flags,
``store_true`` the only action) is held by the tests, not checked per call.

JSON in and out: input files are read as UTF-8 (RFC 8259), whatever the
locale, and every document is read and written through ``_jsonio``, on
the C module ``_json``, byte for byte as ``json`` would.  Only a call
that fails to read a document imports the ``json`` package, for the
error it raises.

The exact-search bound (``errors.WORK_BOUNDS["points"]``) can be set
only through the environment variable ``NBT_WORKBENCH_LIMITS``, a JSON
object such as ``{"search": 18}``.
"""

from __future__ import annotations

import atexit
import os
import sys
from functools import partial
from types import SimpleNamespace

from . import _jsonio, homogeneity, omegatypes, pointsets, randomgraph, setalgebra, typecalc
from ._values import value
from .errors import WorkbenchError, _natural, _naturals

LIMITS_ENV = "NBT_WORKBENCH_LIMITS"
# The bound this key sets is exact search's ``bound=`` argument; unset,
# search uses errors.WORK_BOUNDS.
_LIMIT_KEYS = ("search",)


@value
class CommandResult:
    status: str
    payload: dict
    diagnostics: list

    @property
    def exit_code(self) -> int:
        return 0 if self.status == "ok" else 1


def _limits() -> dict:
    """The bounds set in the environment."""
    raw = os.environ.get(LIMITS_ENV)
    limits = {}
    if not raw:
        return limits
    try:
        doc = _jsonio.loads(raw)
    except _jsonio.JSONDecodeError as exc:
        raise ValueError(f"{LIMITS_ENV} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{LIMITS_ENV} must be a JSON object")
    for key, value in doc.items():
        if key not in _LIMIT_KEYS:
            raise ValueError(
                f"{LIMITS_ENV}: unknown key {key!r} (known: {sorted(_LIMIT_KEYS)})"
            )
        limits[key] = _natural(value, f"{LIMITS_ENV}.{key}")
    return limits


def _read_json(path: str):
    """The JSON document in the UTF-8 file ``path``; errors name the path."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return _jsonio.loads(text, path)


def _condition_points(path: str) -> list[pointsets.Point]:
    """A condition file's [x, y] pairs, bare or under "points"."""
    doc = _read_json(path)
    if isinstance(doc, dict) and "points" in doc:
        doc = doc["points"]
    return pointsets.points_from_json(doc)


def _load_condition(path: str) -> pointsets.FiniteCondition:
    return pointsets.FiniteCondition(frozenset(_condition_points(path)))


def _int_list(text: str, option: str, size: int | None = None) -> tuple[int, ...]:
    """The integers of a comma-separated option; errors name the option."""
    text = text.strip()
    try:
        values = tuple(map(_ascii_int, text.split(","))) if text else ()
    except ValueError as exc:
        raise ValueError(f"{option}: {exc}") from None
    if size is not None and len(values) != size:
        raise ValueError(f"{option}: expected {size} comma-separated integers, "
                         f"got {len(values)}")
    return values


def _ascii_int(part: str) -> int:
    """``int`` of ASCII text without ``_``; ``int`` alone reads any Unicode
    digit.  Named ``int`` for argparse's ``invalid int value`` refusal."""
    if not part.isascii() or "_" in part:
        raise ValueError(f"invalid literal for int() with base 10: {part!r}")
    return int(part)


_ascii_int.__name__ = "int"


def _points_json(points) -> list:
    return [[p.x, p.y] for p in sorted(points, key=lambda p: (p.y, p.x))]


# ---------------------------------------------------------------- flattening

def _flatten(value, path=""):
    """Depth-first (path, leaf) rows; containers recurse, empties are leaves."""
    if isinstance(value, dict) and value:
        rows = []
        for k, v in value.items():
            rows.extend(_flatten(v, f"{path}.{k}" if path else str(k)))
        return rows
    if isinstance(value, (list, tuple)) and value:
        rows = []
        for i, v in enumerate(value):
            rows.extend(_flatten(v, f"{path}.{i}" if path else str(i)))
        return rows
    return [(path or ".", value)]


def render_table(payload: dict) -> str:
    rows = _flatten(payload)
    width = max(len(p) for p, _ in rows)
    return "\n".join(f"{p.ljust(width)}  {_jsonio.dumps(v)}" for p, v in rows)


# ---------------------------------------------------------------- handlers
# each returns (payload, diagnostics, artifact-or-None)

def _cmd_types_enum(args, limits):
    forms = typecalc._list_forms(args.n)
    return {"n": args.n, "count": len(forms), "types": forms}, [], None


def _cmd_types_count(args, limits):
    return {"t": typecalc.count_ntypes(args.n)}, [], None


def _load_ntype(args) -> typecalc.NType:
    if args.type is not None:
        return typecalc.parse_list_form(args.type)
    if args.infile is not None:
        return typecalc.ntype_from_json(_read_json(args.infile))
    raise ValueError("need a pattern: pass --type or --in")


def _cmd_types_transform(transform: str, args, limits):
    """``types extend`` and ``insert``: the table row names the typecalc
    transform, by name so that building the table loads no area."""
    tau = _load_ntype(args)
    out = getattr(typecalc, transform)(tau)
    return {
        "input": typecalc.list_form(tau),
        "output": typecalc.list_form(out),
        "n": out.n,
    }, [], None


def _cmd_cond_check(args, limits):
    report = pointsets.check_condition(_condition_points(args.infile))
    payload = {
        "ok": report.ok,
        "violations": [
            {"clause": v.clause, "witness": v.describe()} for v in report.violations
        ],
    }
    return payload, [], None


def _cmd_cond_realize(args, limits):
    cond = _load_condition(args.infile)
    tau = typecalc.parse_list_form(args.type)
    found = pointsets.find_realizer(cond, tau)
    return {
        "type": typecalc.list_form(tau),
        "found": found is not None,
        "realizer": _points_json(found) if found is not None else None,
    }, [], None


def _cmd_cond_classify(args, limits):
    cond = _load_condition(args.infile)
    counts = pointsets._pattern_counts(cond, args.n)
    by_type = dict(sorted(
        (typecalc.list_form(t), count) for t, count in counts.items()
    ))
    return {
        "n": args.n,
        "subsets": sum(by_type.values()),
        "classes_met": len(by_type),
        "t_n": typecalc.count_ntypes(args.n),
        "by_type": by_type,
    }, [], None


def _cmd_cond_grow(args, limits):
    base = (
        _load_condition(args.infile)
        if args.infile
        else pointsets.FiniteCondition(frozenset())
    )
    grown = pointsets.extend_with_realizers(base, args.n)
    artifact = pointsets.condition_to_json(grown)
    payload = {
        "n": args.n,
        "before": len(base),
        "after": len(grown),
        "added": len(grown) - len(base),
        "condition": artifact,
    }
    return payload, [], artifact


def _load_coloring(args) -> homogeneity.Coloring:
    ground = _load_condition(args.cond) if getattr(args, "cond", None) else None
    if args.csv:
        return homogeneity.coloring_from_csv(args.csv, ground, partial=args.partial)
    if args.infile:
        return homogeneity.coloring_from_json(
            _read_json(args.infile), ground, partial=args.partial
        )
    raise ValueError("need a coloring: pass --in or --csv")


def _cmd_homog_check(args, limits):
    # with --cond, the condition is the coloring's ground
    coloring = _load_coloring(args)
    tau = typecalc.parse_list_form(args.type)
    report = homogeneity.check_tau_homogeneous(coloring.ground, coloring, tau)
    return {
        "type": typecalc.list_form(tau),
        "homogeneous": report.homogeneous,
        "color": report.color,
        "realizers": report.realizers,
        "vacuous": report.vacuous,
    }, [], None


def _cmd_homog_search(args, limits):
    coloring = _load_coloring(args)
    tau = typecalc.parse_list_form(args.type)
    result = homogeneity.search_homogeneous(
        coloring, tau, min_size=args.min_size, mode=args.mode,
        bound=limits.get("search"),
    )
    return {
        "mode": args.mode,
        "size": result.size,
        "met_min_size": result.met_min_size,
        "exact": result.exact,
        "color": result.color,
        "subset": _points_json(result.points),
        "stats": dict(result.stats),
    }, [], None


def _cmd_homog_floor(args, limits):
    cond = _load_condition(args.infile)
    report = homogeneity.weak_ramsey_floor_demo(cond, args.n)
    diagnostics = [f"no realizer for {form}" for form in report.missing]
    return {
        "classes_met": report.classes_met,
        "t_n": report.t_n,
        "floor_holds": report.floor_holds,
    }, diagnostics, None


def _cmd_homog_stabilize(args, limits):
    doc = _read_json(args.infile)
    if not isinstance(doc, list):
        raise ValueError("rows document must be a JSON list of 0/1 rows")
    # stabilize_lex judges the bits; a row that is not a list is refused
    # here (by _naturals) when the judge reaches it, so the first fault is named
    rows = (row if isinstance(row, list) else _naturals(row, f"[{i}]")
            for i, row in enumerate(doc))
    report = homogeneity.stabilize_lex(rows, direction=args.direction)
    return {
        "stable": list(report.stable),
        "positions": list(report.positions),
    }, [], None


def _cmd_homog_extract_s(args, limits):
    grid = homogeneity.grid_from_json(_read_json(args.infile))
    cond = _load_condition(args.cond)
    statuses = homogeneity.extract_S_from_R(grid, cond, window=args.window)
    rows = [
        {"x": x, "z": z, "status": status}
        for (x, z), status in sorted(statuses.items())
    ]
    return {"window": args.window, "statuses": rows}, [], None


def _cmd_graph_build(args, limits):
    if args.steps is not None and args.cover_vertices is not None:
        raise ValueError("pass either --steps or --cover-vertices, not both")
    if args.cover_params is not None and args.cover_vertices is None:
        raise ValueError("pass --cover-params only with --cover-vertices")
    if args.steps is not None:
        g = randomgraph.build_random_graph(args.steps)
    elif args.cover_vertices is not None:
        max_params = 2 if args.cover_params is None else args.cover_params
        g = randomgraph.build_graph_covering(args.cover_vertices, max_params)
    else:
        raise ValueError("need --steps or --cover-vertices")
    artifact = randomgraph.graph_to_json(g)
    payload = {
        "vertices": g.vertex_count,
        "edge_count": len(g.edges),
        "edges": artifact["edges"],
    }
    return payload, [], artifact


def _cmd_graph_check(args, limits):
    g = randomgraph.graph_from_json(_read_json(args.infile))
    unsatisfied = randomgraph.check_extension_property(g, args.k, args.m)
    return {
        "k": args.k,
        "m": args.m,
        "satisfied": not unsatisfied,
        "unsatisfied": [
            {"params": list(cfg.params), "targets": sorted(cfg.targets)}
            for cfg in unsatisfied
        ],
    }, [], None


def _cmd_graph_rich(args, limits):
    vertices = _int_list(args.vertices, "--vertices")
    g = randomgraph.graph_from_json(_read_json(args.infile))
    rich = randomgraph.check_rich(vertices, g, k=args.k)
    return {"vertices": sorted(set(vertices)), "k": args.k, "rich": rich}, [], None


def _cmd_graph_demo_noreverse(args, limits):
    report = randomgraph.noreverse_demo(count=args.count, seed=args.seed)
    payload = {
        "conditions": report.conditions,
        "columns_checked": report.columns_checked,
        "all_nonhomogeneous": report.all_nonhomogeneous,
        "failures": [
            {"column": v.column, "points": v.points, "realizers": v.realizers}
            for v in report.failures
        ],
    }
    return payload, [], None


def _cmd_graph_demo_coloring(args, limits):
    report = randomgraph.coloring_demo(args.palette, max_vertex=args.max_vertex)
    return {
        "palette": report.palette,
        "classes_met": report.classes_met,
        "all_colors": report.all_colors,
    }, [], None


def _load_expr(args) -> setalgebra.PlanarSet:
    doc = _read_json(args.infile)
    # The reader and the evaluators recurse once per nesting level, but the
    # evaluators build a few more frames at the leaves: the reader gets 50
    # frames less room, so every expression it reads can be evaluated.
    # Where the scanner takes deeper documents than the interpreter's limit
    # (Python 3.13), a deeper expression is refused here.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit - 50)
    try:
        return setalgebra.planar_set_from_json(doc)
    except RecursionError:
        raise ValueError(f"{args.infile}: expression nested too deeply to read") from None
    finally:
        sys.setrecursionlimit(limit)


def _cmd_sets_column(args, limits):
    section = setalgebra.column_of(_load_expr(args), args.x)
    return {"x": args.x, "column": setalgebra.fincofin_to_json(section)}, [], None


def _cmd_sets_tail(args, limits):
    tail = setalgebra.tail_analysis(_load_expr(args))
    return {
        "horizon": tail.horizon,
        "upper": setalgebra.fincofin_to_json(tail.upper),
        "lower": setalgebra.fincofin_to_json(tail.lower),
    }, [], None


def _cmd_sets_fr2(args, limits):
    return {"in_fr2": setalgebra.in_fr2(_load_expr(args))}, [], None


def _cmd_sets_meets(args, limits):
    return {"meets_all_fr2": setalgebra.meets_all_fr2(_load_expr(args))}, [], None


def _cmd_sets_sum(args, limits):
    expr = _load_expr(args)
    u = setalgebra.standin_from_json(_read_json(args.u))
    seq = setalgebra.sequence_from_json(_read_json(args.seq))
    verdicts = setalgebra.verdict_set(expr, seq)
    return {
        "member": u.holds(verdicts),
        "verdict_set": setalgebra.fincofin_to_json(verdicts),
    }, [], None


def _cmd_sets_image(args, limits):
    b = setalgebra.fincofin_from_json(_read_json(args.infile))
    u = setalgebra.standin_from_json(_read_json(args.u))
    seq = setalgebra.sequence_from_json(_read_json(args.seq))
    return {"member": setalgebra.image_membership(b, u, seq)}, [], None


def _load_prefix(args) -> omegatypes.OmegaTypePrefix:
    return omegatypes.prefix_from_json(_read_json(args.infile))


def _cmd_omega_validate(args, limits):
    doc = _read_json(args.infile)
    classes = doc.get("classes") if isinstance(doc, dict) else doc
    report = omegatypes.validate_prefix(classes if classes is not None else doc)
    return {
        "ok": report.ok,
        "malformed": list(report.malformed),
        "violations": list(report.violations),
        "assumed": list(report.assumed),
    }, [], None


def _cmd_omega_phi(args, limits):
    z = _int_list(args.z, "--z")
    cond = omegatypes.phi_prefix(_load_prefix(args), z)
    return {"points": pointsets.condition_to_json(cond)}, [], None


def _cmd_omega_assignd(args, limits):
    s = _int_list(args.s, "--s")
    label = omegatypes.assign_D(_load_prefix(args), s)
    return {"label": label}, [], None


def _cmd_omega_zchain(args, limits):
    z = _int_list(args.z, "--z")
    prefix = _load_prefix(args)
    za = omegatypes.zassignment_from_json(_read_json(args.za))
    report = omegatypes.zchain_check(prefix, z, za)
    return {"ok": report.ok, "failed_at": report.failed_at}, [], None


def _cmd_omega_hmember(args, limits):
    x, y = _int_list(args.point, "--point", size=2)
    za = omegatypes.zassignment_from_json(_read_json(args.za))
    member = omegatypes.h_set_member(pointsets.Point(x, y), za)
    return {"member": member}, [], None


# ---------------------------------------------------------------- parser
# The command tree is one table: area -> (help, actions), each action a
# (name, help, handler, arguments) row, in the order the help lists them.
# An argument is the (flags, keywords) of its ``add_argument`` call, which
# ``_read_call`` reads and ``build_parser`` passes on as they are.

def _arg(*flags, **kwargs):
    return flags, kwargs


def _path(text: str) -> str:
    """The ``type`` of every path option: an empty path is a usage error."""
    if not text:
        import argparse
        raise argparse.ArgumentTypeError("expected a path, got an empty string")
    return text


def _in(help, required=True, cond_alias=False):
    """``--in``, with ``--cond`` as its alias where asked; a required one
    defaults to ``_NO_IN``, which ``_lacks_in`` refuses."""
    spec = {"dest": "infile", "metavar": "PATH", "type": _path,
            "default": _NO_IN if required else None}
    alias = (_arg("--cond", **spec, help="alias of --in"),) if cond_alias else ()
    return (_arg("--in", **spec, help=help), *alias)


_NO_IN = object()
_COMMON = (
    _arg("--format", choices=("json", "table"), default="json",
         help="payload rendering (default json)"),
    _arg("--out", metavar="PATH", type=_path, default=None,
         help="persist the result to a JSON file"),
)
_N = _arg("--n", type=_ascii_int, required=True)
_TYPE = _arg("--type", required=True, help="pattern in list form")
_PATTERN = (_arg("--type", default=None,
                 help="pattern in list form, e.g. 'x1<y1<x2<y2'"),
            *_in("pattern JSON file", required=False))
_CONDITION = _in("condition JSON file", cond_alias=True)
_COLORING = (*_in("coloring JSON file", required=False),
             _arg("--csv", type=_path, default=None, help="coloring CSV file"))
_GRAPH = _in("graph JSON file")
_EXPR = _in("planar set expression JSON file")
_STANDINS = (_arg("--u", type=_path, required=True, help="index stand-in JSON file"),
             _arg("--seq", type=_path, required=True, help="stand-in sequence JSON file"))
_PREFIX = _in("prefix JSON file")
_Z = _arg("--z", required=True, help="comma-separated increasing values")
_ZA = _arg("--za", type=_path, required=True, help="label assignment JSON file")

_AREAS = {
    "types": ("pattern enumeration and extension", (
        ("enum", "list all patterns of a size", _cmd_types_enum, (_N,)),
        ("count", "number of patterns of a size", _cmd_types_count, (_N,)),
        ("extend", "append a new pair strictly last",
         partial(_cmd_types_transform, "append_extension"), _PATTERN),
        ("insert", "tie a new pair into a 2-pattern",
         partial(_cmd_types_transform, "insert_extension"), _PATTERN),
    )),
    "cond": ("finite planar conditions", (
        ("check", "validate the three condition clauses", _cmd_cond_check,
         _in("condition JSON file ([[x,y],...])", cond_alias=True)),
        ("realize", "least subset realizing a pattern", _cmd_cond_realize,
         (*_CONDITION, _TYPE)),
        ("classify", "tally n-subsets by realized pattern", _cmd_cond_classify,
         (*_CONDITION, _N)),
        ("grow", "extend until every n-pattern is realized", _cmd_cond_grow,
         (*_in("starting condition (default empty)", required=False, cond_alias=True),
          _N)),
    )),
    "homog": ("colorings and homogeneity", (
        ("check", "is a set homogeneous for one pattern", _cmd_homog_check, (
            *_COLORING,
            _arg("--cond", type=_path, default=None,
                 help="condition JSON file (default: the coloring's ground)"),
            _TYPE,
            _arg("--partial", action="store_true",
                 help="accept colorings that skip some subsets"),
        )),
        ("search", "find a homogeneous subset", _cmd_homog_search, (
            *_COLORING,
            _arg("--cond", type=_path, default=None,
                 help="ground condition JSON file (optional)"),
            _TYPE,
            _arg("--mode", choices=("exact", "greedy"), default="exact"),
            _arg("--min-size", type=_ascii_int, default=0),
            _arg("--partial", action="store_true"),
        )),
        ("floor", "pattern classes met vs the full tally", _cmd_homog_floor,
         (*_CONDITION, _N)),
        ("stabilize", "stable bits of lex-monotone rows", _cmd_homog_stabilize, (
            *_in("JSON list of equal-width 0/1 rows"),
            _arg("--direction", choices=("increasing", "decreasing"),
                 default="increasing"),
        )),
        ("extract-s", "stable binary relation from a grid", _cmd_homog_extract_s, (
            *_in("ternary grid JSON file"),
            _arg("--cond", type=_path, required=True, help="condition JSON file"),
            _arg("--window", type=_ascii_int, default=3),
        )),
    )),
    "graph": ("deterministic extension-rich graphs", (
        ("build", "run the construction schedule", _cmd_graph_build, (
            _arg("--steps", type=_ascii_int, default=None,
                 help="number of schedule entries to process"),
            _arg("--cover-vertices", type=_ascii_int, default=None,
                 help="process all configurations inside this many vertices"),
            _arg("--cover-params", type=_ascii_int, default=None,
                 help="parameter-count cap for --cover-vertices (default 2)"),
        )),
        ("check", "verify the extension property", _cmd_graph_check, (
            *_GRAPH,
            _arg("--k", type=_ascii_int, required=True),
            _arg("--m", type=_ascii_int, required=True),
        )),
        ("rich", "does a vertex set contain a rich core", _cmd_graph_rich, (
            *_GRAPH,
            _arg("--vertices", required=True,
                 help="comma-separated vertex list, e.g. 0,2,5"),
            _arg("--k", type=_ascii_int, default=1),
        )),
        ("demo-noreverse", "adjacency coloring is never constant on rich columns",
         _cmd_graph_demo_noreverse, (
             _arg("--count", type=_ascii_int, default=50),
             _arg("--seed", type=_ascii_int, default=0),
         )),
        ("demo-coloring", "one column meets every color of a palette",
         _cmd_graph_demo_coloring, (
             _arg("--palette", type=_ascii_int, required=True),
             _arg("--max-vertex", type=_ascii_int, default=4),
         )),
    )),
    "sets": ("planar set algebra and filter sums", (
        ("column", "exact vertical section", _cmd_sets_column,
         (*_EXPR, _arg("--x", type=_ascii_int, required=True))),
        ("tail", "horizon and eventual section shape", _cmd_sets_tail, _EXPR),
        ("fr2", "cofinitely many cofinite sections?", _cmd_sets_fr2, _EXPR),
        ("meets", "infinitely many infinite sections?", _cmd_sets_meets, _EXPR),
        ("sum", "membership in an indexed filter sum", _cmd_sets_sum,
         (*_EXPR, *_STANDINS)),
        ("image", "membership in the sum's first projection", _cmd_sets_image,
         (*_in("finite/cofinite set JSON file"), *_STANDINS)),
    )),
    "omega": ("prefixes of infinite patterns", (
        ("validate", "judge a candidate prefix", _cmd_omega_validate, _PREFIX),
        ("phi", "realize a prefix as a condition", _cmd_omega_phi, (*_PREFIX, _Z)),
        ("assignd", "label demanded after a chain fragment", _cmd_omega_assignd,
         (*_PREFIX, _arg("--s", default="", help="comma-separated values so far"))),
        ("zchain", "walk a chain through its demanded sets", _cmd_omega_zchain,
         (*_PREFIX, _Z, _ZA)),
        ("hmember", "point membership in the carved set", _cmd_omega_hmember,
         (_ZA, _arg("--point", required=True, help="x,y"))),
    )),
}


def _lacks_in(args) -> bool:
    return getattr(args, "infile", None) is _NO_IN


def _read_call(argv):
    """The namespace the argparse tree gives a plain action call, or None.

    A plain call is an area, one of its actions, then exact flags of that
    action: a ``store_true`` flag alone, any other with one value that does
    not start with ``-``; of repeated flags the last wins.  Values pass the
    option's own ``type`` and ``choices``, every required option is given
    and a required ``--in`` is present.  For any other argv, help and every
    usage error included, the answer is None and the tree answers."""
    if len(argv) < 2 or argv[0] not in _AREAS:
        return None
    for action, _, handler, arguments in _AREAS[argv[0]][1]:
        if action == argv[1]:
            break
    else:
        return None
    values = {"area": argv[0], "action": argv[1]}
    options, required = {}, set()
    for flags, kwargs in (*arguments, *_COMMON):
        switch = "action" in kwargs
        dest = kwargs.get("dest") or flags[0].lstrip("-").replace("-", "_")
        options.update(dict.fromkeys(flags, (flags, dest, switch, kwargs)))
        if kwargs.get("required"):
            required.add(flags)
        values.setdefault(dest, kwargs.get("default", False if switch else None))

    tokens = iter(argv[2:])
    for flag in tokens:
        if flag not in options:
            return None
        flags, dest, switch, kwargs = options[flag]
        required.discard(flags)
        if switch:
            values[dest] = True
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = (kwargs.get("type") or str)(text)
        except Exception:
            # the tree calls the same type: argparse makes the error a usage
            # error, or lets it out
            return None
        if kwargs.get("choices") is not None and value not in kwargs["choices"]:
            return None
        values[dest] = value
    args = SimpleNamespace(**values, func=handler)
    return None if required or _lacks_in(args) else args


def build_parser():
    """The full argparse command tree."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="ramseybench",
        description="workbench for finite pattern combinatorics on the plane",
    )
    areas = parser.add_subparsers(dest="area", required=True, metavar="AREA")
    for name, (hlp, actions) in _AREAS.items():
        sub = areas.add_parser(name, help=hlp)
        subs = sub.add_subparsers(dest="action", required=True, metavar="ACTION")
        for act, act_hlp, handler, arguments in actions:
            p = subs.add_parser(act, help=act_hlp)
            for flags, kwargs in (*arguments, *_COMMON):
                p.add_argument(*flags, **kwargs)
            p.set_defaults(func=handler)
    return parser


def run(argv, stdout=None, stderr=None) -> CommandResult:
    """Parse, dispatch, print.  Raises SystemExit(2) on usage errors."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    args = _read_call(argv)
    if args is None:
        parser = build_parser()
        args = parser.parse_args(argv)
        if _lacks_in(args):
            parser.error(f"{args.area} {args.action}: --in is required")

    try:
        limits = _limits()
        payload, diagnostics, artifact = args.func(args, limits)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(_jsonio.dumps_indented(artifact if artifact is not None else payload))
                fh.write("\n")
        result = CommandResult("ok", payload, diagnostics)
    except (WorkbenchError, ValueError, OSError, KeyError) as exc:
        result = CommandResult("error", _error_payload(exc), [])

    for line in result.diagnostics:
        print(line, file=stderr)
    if result.status == "ok":
        if args.format == "table":
            print(render_table(result.payload), file=stdout)
        else:
            print(_jsonio.dumps_indented(result.payload), file=stdout)
    else:
        print(_jsonio.dumps_indented(result.payload), file=stderr)
    return result


def _error_payload(exc: Exception) -> dict:
    """The schema ``error`` payload for an exception."""
    message = str(exc) or type(exc).__name__
    if isinstance(exc, KeyError):
        message = f"missing key {message} in input document"
    return {"error": message, "kind": type(exc).__name__}


def main() -> None:
    """The ``ramseybench`` console entry.  It owns the process, so it alone
    sets the exit policy; ``run()`` never exits."""
    try:
        try:
            code = run(sys.argv[1:]).exit_code
        finally:
            sys.stdout.flush()
    except BrokenPipeError as exc:
        # stdout's reader is gone: send the rest, and the flush at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(_jsonio.dumps_indented(_error_payload(exc)), file=sys.stderr)
        code = 1
    # The payload is out and run() left no file open: run the atexit hooks
    # and flush as a normal exit would, but skip the interpreter teardown,
    # which only frees what the process is about to give back.
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
