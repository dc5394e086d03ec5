"""``build_problem``'s row and variable bounds against a reference: the
per-row and per-bound loops it used to run, in file order, on random
ROWS, RHS, RANGES and BOUNDS sections."""

import io
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hprlp import build_problem, parse_mps
from hprlp.mps import BOUND_KEYS

FLAG_KEYS = ("FR", "MI", "PL", "BV")


def reference_bounds(doc):
    """(l_con, u_con, l_var, u_var, obj_constant, notes) by one loop per
    section in file order: a repeated RHS or RANGES row keeps its last
    value, the last bound line on a column wins, and an UP below 0 sets
    the lower bound to -inf only if no earlier line set one.  The notes
    are the warnings those loops make, in order; obj_constant is in
    minimize form."""
    declared = list(doc.row_types)
    notes = []
    rhs: dict[str, float] = {}
    for r, value in zip(doc.rhs_rows.tolist(), doc.rhs_values.tolist()):
        row = declared[r]
        if row in rhs:
            notes.append(f"duplicate RHS entry for row {row!r}; keeping the last")
        rhs[row] = value
    ranges: dict[str, float] = {}
    for r, value in zip(doc.range_rows.tolist(), doc.range_values.tolist()):
        row = declared[r]
        if row in ranges:
            notes.append(f"duplicate RANGES entry for row {row!r}; keeping the last")
        ranges[row] = value

    obj_constant = 0.0
    if doc.objective_row is not None and doc.objective_row in rhs:
        obj_constant = -rhs[doc.objective_row]

    rows = [name for name, kind in doc.row_types.items() if kind != "N"]
    l_con = np.empty(len(rows))
    u_con = np.empty(len(rows))
    for i, name in enumerate(rows):
        r = rhs.get(name, 0.0)
        kind = doc.row_types[name]
        if kind == "L":
            lo, hi = -np.inf, r
        elif kind == "G":
            lo, hi = r, np.inf
        else:  # E
            lo, hi = r, r
        if name in ranges:
            rv = ranges[name]
            if kind == "L":
                lo = r - abs(rv)
            elif kind == "G":
                hi = r + abs(rv)
            else:
                lo, hi = (r, r + rv) if rv >= 0.0 else (r + rv, r)
        l_con[i], u_con[i] = lo, hi

    n = len(doc.column_order)
    l_var = np.zeros(n)
    u_var = np.full(n, np.inf)
    lower_set = np.zeros(n, dtype=bool)
    integer_marked = set(doc.integer_columns)
    for code, j, value in zip(doc.bound_keys.tolist(), doc.bound_cols.tolist(),
                              doc.bound_values.tolist()):
        key, col = BOUND_KEYS[code], doc.column_order[j]
        if key == "UP":
            u_var[j] = value
            if value < 0.0 and not lower_set[j]:
                l_var[j] = -np.inf
                notes.append(
                    f"UP bound {value} < 0 on column {col!r} without a lower bound; "
                    "lower bound set to -inf"
                )
        elif key == "LO":
            l_var[j] = value
            lower_set[j] = True
        elif key == "FX":
            l_var[j] = u_var[j] = value
            lower_set[j] = True
        elif key == "FR":
            l_var[j], u_var[j] = -np.inf, np.inf
            lower_set[j] = True
        elif key == "MI":
            l_var[j] = -np.inf
            lower_set[j] = True
        elif key == "PL":
            u_var[j] = np.inf
        elif key == "BV":
            l_var[j], u_var[j] = 0.0, 1.0
            lower_set[j] = True
            integer_marked.add(col)
        elif key == "LI":
            l_var[j] = value
            lower_set[j] = True
            integer_marked.add(col)
        elif key == "UI":
            u_var[j] = value
            integer_marked.add(col)
    if integer_marked:
        notes.append(f"integrality relaxed for {len(integer_marked)} column(s)")
    return l_con, u_con, l_var, u_var, obj_constant, notes


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64).tolist()


VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.5, 3.25, 1e-300, -1e308, 1e308]) | st.floats(
    allow_nan=False, allow_infinity=False)


@st.composite
def sections(draw):
    """The text of an MPS file: ROWS with one extra N row among the
    constraint rows, one COLUMNS entry per column, and random RHS, RANGES
    and BOUNDS lines over few rows and columns, so rows and columns
    repeat."""
    kinds = draw(st.lists(st.sampled_from("LGE"), min_size=1, max_size=5))
    n = draw(st.integers(1, 4))
    rows = [f"R{i}" for i in range(len(kinds))]
    declared = [f" {kind}  {row}" for kind, row in zip(kinds, rows)]
    declared.insert(draw(st.integers(0, len(rows))), " N  FREE")
    lines = ["NAME  DIFF"]
    if draw(st.booleans()):
        lines += ["OBJSENSE", "    MAX"]
    lines += ["ROWS", " N  OBJ", *declared, "COLUMNS"]
    lines += [f"    C{j}  {draw(st.sampled_from(rows + ['OBJ']))}  1.0" for j in range(n)]
    lines.append("RHS")
    for row, value in draw(st.lists(st.tuples(st.sampled_from(rows + ["OBJ", "FREE"]), VALUES),
                                    max_size=8)):
        lines.append(f"    RHS  {row}  {value!r}")
    lines.append("RANGES")
    for row, value in draw(st.lists(st.tuples(st.sampled_from(rows), VALUES), max_size=8)):
        lines.append(f"    RNG  {row}  {value!r}")
    lines.append("BOUNDS")
    bounds = st.tuples(st.sampled_from(BOUND_KEYS), st.integers(0, n - 1), VALUES, st.booleans(),
                       st.booleans())
    for key, j, value, lower, trailing in draw(st.lists(bounds, max_size=12)):
        key_token = key.lower() if lower else key
        if key in FLAG_KEYS and not trailing:
            lines.append(f" {key_token} BND  C{j}")
        else:  # a flag key may carry a number, which is skipped
            lines.append(f" {key_token} BND  C{j}  {value!r}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(sections())
@example("ROWS\n N  OBJ\n L  R0\nCOLUMNS\n    C0  R0  1.0\n    C1  R0  1.0\nBOUNDS\n"
         " UP BND  C0  -1.0\n MI BND  C0\n UP BND  C0  -2.0\n"
         " LO BND  C1  -3.0\n UP BND  C1  -1.0\n UP BND  C1  -0.5\nENDATA\n")
@example("ROWS\n N  OBJ\n E  R0\n N  FREE\n G  R1\nCOLUMNS\n    C0  R0  1.0\n"
         "RHS\n    RHS  R0  1.0\n    RHS  FREE  7.0\n    RHS  R0  2.0\n    RHS  OBJ  3.0\n"
         "RANGES\n    RNG  R0  -1.0\n    RNG  R1  4.0\n    RNG  R0  -0.0\n"
         "BOUNDS\n FR BND  C0  5.0\n PL BND  C0\n bv BND  C0\n UI BND  C0  3.0\nENDATA\n")
def test_build_matches_the_per_entry_loops(text):
    """The same row and variable bound bits, objective constant and
    warnings, in the same order, as the reference loops; where the
    variable bounds cross, the same error after the same warnings."""
    doc = parse_mps(io.StringIO(text))
    l_con, u_con, l_var, u_var, obj_constant, notes = reference_bounds(doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            prob = build_problem(doc)
        except ValueError as exc:
            bad = int(np.flatnonzero(l_var > u_var)[0])
            assert str(exc) == (f"column {doc.column_order[bad]!r}: lower bound "
                                f"{l_var[bad]} exceeds upper {u_var[bad]}")
            prob = None
    assert doc.warnings == notes
    assert [str(w.message) for w in caught] == notes
    assert all(w.filename == __file__ for w in caught)  # reported at the caller
    if prob is None:
        return
    assert not np.any(l_var > u_var)
    for got, want in ((prob.l_con, l_con), (prob.u_con, u_con),
                      (prob.l_var, l_var), (prob.u_var, u_var)):
        assert _bits(got) == _bits(want)
    sign = -1.0 if doc.obj_sense == "maximize" else 1.0
    assert prob.obj_constant.hex() == (sign * obj_constant).hex()
