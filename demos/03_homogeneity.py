"""Colorings of point subsets: homogeneity checks, searches, floors.

A coloring assigns colors to n-subsets of a condition.  A subset is
homogeneous for a pattern when all its realizers of that pattern get
one color.  The floor demo shows why "fewer than T(n) classes" is
impossible for the realized-type coloring; stabilization reads the
limit row out of a lex-monotone bit table.
"""

from ramseybench import (
    Coloring,
    FiniteCondition,
    Point,
    check_tau_homogeneous,
    count_classes_met,
    count_ntypes,
    extend_with_realizers,
    parse_list_form,
    realized_type_coloring,
    search_homogeneous,
    stabilize_lex,
    weak_ramsey_floor_demo,
)

ground = FiniteCondition(frozenset(
    {Point(0, 1), Point(0, 2), Point(3, 6), Point(3, 8), Point(4, 10)}
))
tied = parse_list_form("x1=x2<y1<y2")

# color pairs by the parity of their lower y-coordinate; the two tied
# columns then disagree (column 0 pairs get 1, column 3 pairs get 0)
coloring = Coloring.from_rule(
    ground, 2, lambda s: min(p.y for p in s) % 2
)

report = check_tau_homogeneous(ground, coloring, tied)
print("whole ground homogeneous for tied pairs:", report.homogeneous)

# exhaustive search for the largest subset that is homogeneous
result = search_homogeneous(coloring, tied, mode="exact")
print("largest homogeneous subset:",
      sorted((p.x, p.y) for p in result.points),
      "| color", result.color)

# the floor: grow a condition realizing every n-pattern, then color each
# n-subset by its realized pattern; all T(n) classes must appear.  The
# n = 4 growth has 716 points and about 10**10 4-subsets; the floor counts
# them by value-separated blocks instead of listing them.
print()
for n in (2, 3, 4):
    grown = extend_with_realizers(FiniteCondition(frozenset()), n)
    floor = weak_ramsey_floor_demo(grown, n)
    print(f"n={n}: realized-pattern coloring of {len(grown)} points meets"
          f" {floor.classes_met} of {count_ntypes(n)} classes;"
          f" floor holds: {floor.floor_holds}")

# the same coloring exists as a first-class object, here on pairs
grown = extend_with_realizers(FiniteCondition(frozenset()), 2)
rt = realized_type_coloring(grown, 2)
print("distinct colors in the realized-pattern coloring of pairs:",
      count_classes_met(grown, rt))

# stabilization: rows sorted lexicographically settle column by column
rows = [
    [0, 0, 0, 1],
    [0, 0, 1, 0],
    [0, 0, 1, 1],
    [0, 1, 0, 0],
    [0, 1, 0, 0],
]
st = stabilize_lex(rows, direction="increasing")
print("\nrows stabilize to", list(st.stable),
      "| stable from row", list(st.positions))
