"""Exception types shared across the workbench modules, the bounds on
exhaustive work with the one check that enforces them, and the checks
the JSON readers share to name the path of a malformed value."""

from math import comb

from . import _jsonio

# The bound on each quantity an exhaustive routine counts before it starts;
# check_work refuses a count above it.  Only "points" can be set, through
# the CLI's NBT_WORKBENCH_LIMITS key "search".
WORK_BOUNDS = {
    # Join steps: a few seconds at most.  Growth (extend_with_realizers) and
    # the block count (cond classify, homog floor) both count them with
    # pointsets._plan_work: cross-block joins, distinct keys below times
    # distinct keys of a block, each at most T(k).  For growth it adds the
    # base's in-block subsets of every size <= n and, for at most one fresh
    # batch per pattern, C(n, j) of its j-subsets joined to at most T(k - j)
    # patterns below.  It admits n = 5 from the empty condition (4,763,712
    # steps) and single blocks of up to 31 points at n = 5, 104 at n = 4,
    # 310 at n = 3 and 3,161 at n = 2, as many as the subset-by-subset count
    # it replaced, and every split of them into blocks; n = 6 (about 9 *
    # 10**8 steps from empty) is refused.  Growing one block of 310 points
    # at n = 3 takes 0.6-0.7 s in process, of 104 at n = 4 1.1-1.3 s and of
    # 3,161 at n = 2 1.5-1.8 s (2.5-3.3, 3.4-3.9 and 2.5-3.2 s when every
    # base subset was keyed one by one).  The block count's joins are 9,749
    # on the n = 4 growth and 972,382 on the n = 5 growth, whose 795,121
    # actual joins take about 0.55 s (Python 3.11 on an Intel Xeon).  n = 6
    # on the n = 5 growth (9,631,248) is refused; every input of at most
    # C(points, n) <= 10**6 n-subsets stays under 1.7 * 10**6.
    "steps": 5_000_000,
    # Subsets visited: C(points, n), one by one, for classify_subsets, both
    # searches, count_classes_met and check_tau_homogeneous; for the block
    # count (cond classify, homog floor), the subsets of the needed sizes
    # inside each value-separated block, tallied without being built; and
    # the configurations that check_extension_property tests, counted by
    # randomgraph._schedule_size as a covering's are.  Listing 10**6 subsets takes about 1 s
    # and 90 MB of peak memory (n = 3 on 183 points: 0.97 s, 86 MB peak RSS;
    # n = 4 on 72 points: 1.2 s, 104 MB; Python 3.11 on an Intel Xeon).
    # Exact search holds a row per realizer: on a one-colour 29-point
    # column at n = 6, 475,020 rows, a whole call takes 1.7 s and 178 MB
    # peak RSS.  The block count tallies them without building them: a
    # whole `cond classify` call on one block of 182 points at n = 3 takes 0.24 s, of
    # 71 at n = 4 0.33 s and of 1,414 at n = 2 0.54 s, at 15, 15 and 23 MB
    # peak RSS (1.17, 1.32 and 1.31 s, 83, 98 and 84 MB when listing).  It
    # admits n = 2 up to 1,414 points, n = 3 up to 182 and n = 4 up to 71 in
    # one block.  At the most points the listing admits for each n = 2..6,
    # no split into blocks counts more than C(points, n) + 1, still inside
    # the bound, so the block count admits whatever the listing admits.  The 716-point
    # n = 4 growth has 2,685 in-block subsets and the 10,915-point n = 5
    # growth 67,673.  The extension check splits its witness pools one
    # parameter at a time and lists its configurations unjudged: the
    # 201,193 on the 30-vertex (8, 2) covering at k = 4, m = 12 take
    # 0.19-0.25 s in process, and the 947,683 of the empty 17-vertex graph
    # at k = 4, 886,193 of them listed, 1.6-1.8 s and 245 MB peak RSS
    # (0.8-0.9 s and 5.0-5.8 s, 355 MB, when every configuration was
    # re-ANDed and judged).
    "subsets": 1_000_000,
    # Configurations one witness-engine build may walk.  A configuration
    # costs a few big-int operations on masks as wide as the vertex count,
    # and a walk adds at most one vertex per configuration, so this also
    # caps the mask width.  The widest builds inside it, the (14999, 1)
    # graph and the palette-5 (5999, 1) coverings (15,000 and 18,001
    # vertices), take 0.09-0.17 s as a process's first call and under
    # 70 MB on one core of a Xeon server.  Their one-parameter tuples share
    # no prefix, so splitting the pools per parameter saves them least:
    # best of five, 73-81 and 55-60 ms, against 107-109 and 88 ms when each
    # configuration re-ANDed its rows; the (8, 4) covering 8 against 45 ms.
    "configurations": 30_000,
    # Ground points of an exact homogeneous search, which is exponential in
    # them: the largest m whose worst whole search_homogeneous call stays
    # under 1 s for n = 2 and 3.  In process on an Intel Xeon (Python
    # 3.11), over seeds 0-5, 2 or 3 colours, uniform and planted with d in
    # {2, m//4, m//3, m//2} disjoint recoloured realizers, the worst call
    # took 0.43 s at 28 points, 0.53 s at 29 and 1.04 s at 30, each on a
    # planted colouring (CHANGES.md); a column with a colour per 3-subset
    # takes 0.10-0.17 s at 29.  Larger n is not held to 1 s by this bound:
    # a column with a colour per n-subset takes 1.0 s at 24 points and
    # 6.1-6.9 s at 29 for n = 4, and 1.7 s at 18 for n = 5.  The "subsets"
    # bound, which exact search also asks, caps its rows at any n.
    "points": 29,
    # Vertices of a richness check, which tries every subset of them.
    "vertices": 12,
    # Values built one by one: those a set-algebra section may read or copy
    # (setalgebra._section_work) in column_of; in verdict_set, the same
    # summed over the sections it reads explicitly, below the horizon and
    # the last exception index, plus one per tail verdict it lists (sets
    # column, sum and image); and the statuses extract_S_from_R emits,
    # x_bound * z_bound.  On an Intel Xeon (Python 3.11) 10**6 take about
    # 0.13 s in column_of(AboveDiag(), x), 0.15 s as the 499,999 sections of
    # a rectangle below an exception index, 0.14 s as the 10**6 listed
    # verdicts of AboveDiag under principal(10**6) and 0.5 s as statuses.  The
    # CLI then writes 80 MB of JSON for the statuses: `homog extract-s` on a
    # 1000 x 1000 x 1000 grid with no triples and an empty condition, stdout
    # to a file, takes 2.5 s in all and peaks at 0.63 GiB RSS (subprocess
    # wall time and the child's ru_maxrss from wait4, three runs each).  It
    # also counts the witness rows of a graph, one per vertex, that
    # EdgeColoring.masks builds for `graph check` and `graph rich`: at the
    # bound, an edgeless 10**6-vertex graph takes 1.35 s and 170 MB peak
    # RSS in either action (subprocess, same host).
    "values": 1_000_000,
    # Conditions noreverse_demo draws and checks, each about 0.7 ms in
    # process on the same host, so about 0.7 s at the bound.
    "conditions": 1_000,
}


class WorkbenchError(Exception):
    """Base class for domain errors raised by this package."""


class LimitError(WorkbenchError):
    """An input exceeds a documented size bound for exhaustive work."""


def check_work(key: str, work: int, what: str, detail: str,
               bound: int | None = None) -> None:
    """Refuse ``work`` above ``bound``, or above WORK_BOUNDS[key] when
    ``bound`` is None, with LimitError("<what> refused: <detail>, the bound
    is <bound>")."""
    if bound is None:
        bound = WORK_BOUNDS[key]
    if work > bound:
        raise LimitError(f"{what} refused: {detail}, the bound is {bound}")


def check_subsets(m: int, n: int, what: str) -> None:
    """Refuse visiting the n-subsets of m points one by one when there are
    more than the "subsets" work bound."""
    count = comb(m, n)
    check_work("subsets", count, what, f"{m} points have {count} {n}-subsets")


class NoRealizedTypeError(WorkbenchError):
    """A point set realizes no type; carries the first failed clause."""

    def __init__(self, clause: str, message: str):
        super().__init__(message)
        self.clause = clause


class MissingLabelError(WorkbenchError):
    """A demanded set label is absent from an assignment table."""

    def __init__(self, label: str):
        super().__init__(f"no set assigned to label {label!r}")
        self.label = label


class LexOrderError(WorkbenchError):
    """A row sequence is not lexicographically monotone; carries a witness."""

    def __init__(self, index: int, row: tuple, next_row: tuple):
        super().__init__(
            f"rows {index} and {index + 1} are out of lexicographic order: "
            f"{row} then {next_row}"
        )
        self.index = index
        self.witness = (row, next_row)


def _natural(value, path: str, least: int = 0) -> int:
    """``value`` if it is an int, not a bool, and at least ``least``; the
    one judge of naturals for readers and constructors alike."""
    # bool is an int subclass, but JSON true is not a number here
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        at_least = f" >= {least}" if least else ""
        raise ValueError(f"{path}: expected a natural number{at_least}, "
                         f"got {_jsonio.dumps(value, default=repr)}")
    return value


def _naturals(value, path: str, size: int | None = None) -> list[int]:
    """``value`` as a list of natural numbers, exactly ``size`` of them if given."""
    if not isinstance(value, list) or size not in (None, len(value)):
        what = "a list of" if size is None else f"a list of {size}"
        raise ValueError(f"{path}: expected {what} natural numbers, "
                         f"got {_jsonio.dumps(value, default=repr)}")
    return [_natural(v, f"{path}[{i}]") for i, v in enumerate(value)]
