import gzip
import io
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from hprlp import LpProblem, MpsParseError, SparseMatrix, build_problem, parse_mps

from conftest import random_lp

INF = np.inf


def load(fixtures_dir, name, expect_warnings=False):
    doc = parse_mps(fixtures_dir / name)
    if expect_warnings:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prob = build_problem(doc)
    else:
        prob = build_problem(doc)
        assert doc.warnings == []
    return doc, prob


def assert_same_entries(doc, ref):
    """The COLUMNS entry arrays of two documents are equal, dtype included."""
    for name in ("entry_cols", "entry_rows", "entry_values"):
        got, want = getattr(doc, name), getattr(ref, name)
        assert got.dtype == want.dtype
        npt.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# fixture corpus, bit-exact


def test_simple_l(fixtures_dir):
    doc, prob = load(fixtures_dir, "simple_l.mps")
    assert doc.name == "SIMPLE"
    assert doc.obj_sense == "minimize"
    assert doc.objective_row == "COST"
    npt.assert_array_equal(prob.c, [2.0, 1.0])
    npt.assert_array_equal(prob.A.to_dense(), [[1.0, 1.0]])
    npt.assert_array_equal(prob.l_con, [-INF])
    npt.assert_array_equal(prob.u_con, [4.0])
    npt.assert_array_equal(prob.l_var, [0.0, 0.0])
    npt.assert_array_equal(prob.u_var, [INF, INF])
    assert prob.obj_constant == 0.0


def test_rows_lge(fixtures_dir):
    doc, prob = load(fixtures_dir, "rows_lge.mps")
    assert doc.constraint_rows == ["CAP", "DEM", "BAL"]
    npt.assert_array_equal(prob.c, [1.0, -1.0])
    npt.assert_array_equal(
        prob.A.to_dense(), [[2.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    )
    npt.assert_array_equal(prob.l_con, [-INF, 0.5, 2.0])
    npt.assert_array_equal(prob.u_con, [8.0, INF, 2.0])


def test_ranges_on_l_rows(fixtures_dir):
    _, prob = load(fixtures_dir, "ranges_l.mps")
    # rhs 4 with range +-1: [4 - |R|, 4] either sign
    npt.assert_array_equal(prob.l_con, [3.0, 3.0])
    npt.assert_array_equal(prob.u_con, [4.0, 4.0])


def test_ranges_on_g_rows(fixtures_dir):
    _, prob = load(fixtures_dir, "ranges_g.mps")
    npt.assert_array_equal(prob.l_con, [2.0, 2.0])
    npt.assert_array_equal(prob.u_con, [5.0, 5.0])


def test_ranges_on_e_rows_sign_sensitive(fixtures_dir):
    _, prob = load(fixtures_dir, "ranges_e.mps")
    # E with R >= 0 gives [r, r + R]; R < 0 gives [r + R, r]
    npt.assert_array_equal(prob.l_con, [1.0, -1.0])
    npt.assert_array_equal(prob.u_con, [3.0, 1.0])


def test_bounds_all_plain_keys(fixtures_dir):
    _, prob = load(fixtures_dir, "bounds_all.mps")
    npt.assert_array_equal(prob.l_var, [0.0, -1.5, 0.25, -INF, -INF, 0.0])
    npt.assert_array_equal(prob.u_var, [2.5, INF, 0.25, INF, INF, INF])


def test_bounds_integer_keys(fixtures_dir):
    doc, prob = load(fixtures_dir, "bounds_int.mps", expect_warnings=True)
    npt.assert_array_equal(prob.l_var, [0.0, 1.0])
    npt.assert_array_equal(prob.u_var, [1.0, 3.0])
    assert any("integrality relaxed for 2" in w for w in doc.warnings)


def test_negative_upper_without_lower(fixtures_dir):
    doc, prob = load(fixtures_dir, "bounds_neg_up.mps", expect_warnings=True)
    # X: UP -2 alone pushes the default lower bound to -inf (flagged);
    # Y: explicit LO -5 is kept
    npt.assert_array_equal(prob.l_var, [-INF, -5.0])
    npt.assert_array_equal(prob.u_var, [-2.0, -2.0])
    assert any("UP bound" in w and "'X'" in w for w in doc.warnings)


def test_objsense_max(fixtures_dir):
    doc, prob = load(fixtures_dir, "objsense_max.mps")
    assert prob.obj_sense == "maximize"
    # stored in minimize form: coefficients negated
    npt.assert_array_equal(prob.c, [-3.0, -2.0])
    npt.assert_array_equal(prob.u_var, [3.0, 3.0])


def test_integer_markers(fixtures_dir):
    doc, prob = load(fixtures_dir, "int_markers.mps", expect_warnings=True)
    assert doc.integer_columns == ["X1"]
    npt.assert_array_equal(prob.c, [1.0, 2.0])
    assert any("integrality relaxed for 1" in w for w in doc.warnings)


def test_objective_constant_from_rhs(fixtures_dir):
    _, prob = load(fixtures_dir, "obj_const.mps")
    assert prob.obj_constant == -5.0
    npt.assert_array_equal(prob.l_con, [2.0])


def test_duplicate_entries_summed(fixtures_dir):
    doc, prob = load(fixtures_dir, "dup_entries.mps", expect_warnings=True)
    npt.assert_array_equal(prob.A.to_dense(), [[5.0]])
    npt.assert_array_equal(prob.l_con, [2.5])  # last RHS wins
    assert any("duplicate matrix" in w for w in doc.warnings)
    assert any("duplicate RHS" in w for w in doc.warnings)


def test_free_format_and_missing_endata(fixtures_dir):
    doc, prob = load(fixtures_dir, "free_format.mps", expect_warnings=True)
    assert doc.name == "FREEFORM"
    assert any("missing ENDATA" in w for w in doc.warnings)
    assert any("free row 'extra' dropped" in w for w in doc.warnings)
    npt.assert_array_equal(prob.c, [1.5])
    npt.assert_array_equal(prob.l_con, [3.5])
    npt.assert_array_equal(prob.u_con, [INF])


def test_fixed_format(fixtures_dir):
    _, prob = load(fixtures_dir, "fixed_format.mps")
    npt.assert_array_equal(prob.c, [1.0, 2.0])
    npt.assert_array_equal(prob.A.to_dense(), [[1.0, 1.0], [1.0, 0.0]])
    npt.assert_array_equal(prob.l_con, [2.0, 0.5])
    npt.assert_array_equal(prob.u_con, [4.0, INF])
    npt.assert_array_equal(prob.u_var, [3.0, INF])


def test_gzip_input(fixtures_dir, tmp_path):
    raw = (fixtures_dir / "simple_l.mps").read_bytes()
    gz = tmp_path / "simple_l.mps.gz"
    with gzip.open(gz, "wb") as fh:
        fh.write(raw)
    doc = parse_mps(gz)
    ref = parse_mps(fixtures_dir / "simple_l.mps")
    assert_same_entries(doc, ref)
    assert doc.rhs_entries == ref.rhs_entries


def test_stream_input(fixtures_dir):
    text = (fixtures_dir / "simple_l.mps").read_text()
    doc = parse_mps(io.StringIO(text))
    assert doc.name == "SIMPLE"
    with open(fixtures_dir / "simple_l.mps") as fh:
        doc2 = parse_mps(fh)
    assert_same_entries(doc2, doc)


# ---------------------------------------------------------------------------
# parse errors carry line numbers


def perr(text):
    with pytest.raises(MpsParseError) as ei:
        parse_mps(io.StringIO(text))
    return ei.value


def test_error_unknown_section():
    err = perr("NAME T\nGARBAGE\n")
    assert err.line_no == 2
    assert "unknown section" in str(err)


def test_error_data_before_section():
    err = perr("    X1 OBJ 1.0\n")
    assert err.line_no == 1


def test_error_data_in_name_section():
    err = perr("NAME\n    STRAY\n")
    assert err.line_no == 2
    assert "NAME" in str(err)


def test_error_unknown_row_type():
    err = perr("ROWS\n Q  R1\n")
    assert err.line_no == 2
    assert "row type" in str(err)


def test_error_duplicate_row():
    err = perr("ROWS\n N  OBJ\n L  R1\n L  R1\n")
    assert err.line_no == 4
    assert "duplicate row" in str(err)


def test_error_unknown_row_in_columns():
    err = perr("ROWS\n N  OBJ\nCOLUMNS\n    X1 NOPE 1.0\n")
    assert err.line_no == 4
    assert "unknown row" in str(err)


def test_error_even_token_columns_line():
    err = perr("ROWS\n N  OBJ\nCOLUMNS\n    X1 OBJ\n")
    assert err.line_no == 4


def test_error_malformed_number():
    err = perr("ROWS\n N  OBJ\nCOLUMNS\n    X1 OBJ abc\n")
    assert err.line_no == 4
    assert "malformed numeric" in str(err)


def test_error_unknown_row_in_rhs():
    err = perr("ROWS\n N  OBJ\nRHS\n    RHS NOPE 1.0\n")
    assert err.line_no == 4


def test_error_ranges_on_objective_row():
    err = perr("ROWS\n N  OBJ\nRANGES\n    RNG OBJ 1.0\n")
    assert err.line_no == 4
    assert "RANGES" in str(err)


def test_error_unknown_bound_key():
    text = "ROWS\n N  OBJ\nCOLUMNS\n    X1 OBJ 1.0\nBOUNDS\n XX BND X1 1.0\n"
    err = perr(text)
    assert err.line_no == 6
    assert "bound key" in str(err)


def test_error_unknown_column_in_bounds():
    text = "ROWS\n N  OBJ\nCOLUMNS\n    X1 OBJ 1.0\nBOUNDS\n UP BND NOPE 1.0\n"
    err = perr(text)
    assert err.line_no == 6


def test_error_unknown_marker():
    text = "ROWS\n N  OBJ\nCOLUMNS\n    M 'MARKER' 'INTWAT'\n"
    err = perr(text)
    assert err.line_no == 4
    assert "marker" in str(err)


def test_error_bad_objsense():
    err = perr("OBJSENSE\n    SIDEWAYS\n")
    assert err.line_no == 2


def test_build_rejects_crossed_bounds():
    text = (
        "ROWS\n N  OBJ\nCOLUMNS\n    X1 OBJ 1.0\n"
        "BOUNDS\n LO BND X1 5.0\n UP BND X1 1.0\nENDATA\n"
    )
    doc = parse_mps(io.StringIO(text))
    with pytest.raises(ValueError, match="exceeds"):
        build_problem(doc)


# ---------------------------------------------------------------------------
# write-then-read round trip


def emit_mps(prob: LpProblem) -> str:
    """Minimal writer used to close the loop on the reader."""
    out = ["NAME          ROUNDTRIP", "ROWS", " N  OBJ"]
    rows = []
    for i in range(prob.m):
        lo, hi = prob.l_con[i], prob.u_con[i]
        name = f"R{i}"
        if lo == hi:
            rows.append((name, "E", lo, None))
        elif np.isinf(hi):
            rows.append((name, "G", lo, None))
        elif np.isinf(lo):
            rows.append((name, "L", hi, None))
        else:
            rows.append((name, "L", hi, hi - lo))
        out.append(f" {rows[-1][1]}  {name}")
    out.append("COLUMNS")
    csc = prob.A.to_csc()
    ptr, rows_of, vals = csc.indptr, csc.indices.tolist(), csc.data.tolist()
    for j in range(prob.n):
        out.append(f"    C{j}  OBJ  {float(prob.c[j])!r}")
        for k in range(ptr[j], ptr[j + 1]):
            if vals[k] != 0.0:
                out.append(f"    C{j}  R{rows_of[k]}  {vals[k]!r}")
    out.append("RHS")
    for name, _, rhs, _ in rows:
        if rhs != 0.0:
            out.append(f"    RHS  {name}  {float(rhs)!r}")
    ranged = [(name, rng) for name, _, _, rng in rows if rng is not None]
    if ranged:
        out.append("RANGES")
        for name, rng in ranged:
            out.append(f"    RNG  {name}  {float(rng)!r}")
    out.append("BOUNDS")
    for j in range(prob.n):
        lo, hi = prob.l_var[j], prob.u_var[j]
        if lo == hi:
            out.append(f" FX BND  C{j}  {float(lo)!r}")
            continue
        if np.isinf(lo):
            out.append(f" MI BND  C{j}")
        elif lo != 0.0:
            out.append(f" LO BND  C{j}  {float(lo)!r}")
        if not np.isinf(hi):
            out.append(f" UP BND  C{j}  {float(hi)!r}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


def test_round_trip_random_instances():
    rng = np.random.default_rng(123)
    for trial in range(10):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        style = ("two_sided", "upper", "equality")[trial % 3]
        prob = random_lp(rng, n, m, style=style)
        back = build_problem(parse_mps(io.StringIO(emit_mps(prob))))
        npt.assert_array_equal(back.c, prob.c)
        npt.assert_array_equal(back.A.to_dense(), prob.A.to_dense())
        # two-sided rows rebuild the lower bound as rhs - range, which can
        # differ from the original by one rounding of the subtraction
        npt.assert_allclose(back.l_con, prob.l_con, rtol=1e-15, atol=1e-15)
        npt.assert_array_equal(back.u_con, prob.u_con)
        npt.assert_array_equal(back.l_var, prob.l_var)
        npt.assert_array_equal(back.u_var, prob.u_var)


def test_round_trip_infinite_bounds():
    prob = LpProblem(
        c=[1.0, -2.0],
        A=SparseMatrix.from_dense([[1.0, 0.5], [0.0, 1.0]]),
        l_con=[-np.inf, 1.0],
        u_con=[3.0, 1.0],
        l_var=[-np.inf, 0.5],
        u_var=[np.inf, 4.0],
    )
    back = build_problem(parse_mps(io.StringIO(emit_mps(prob))))
    npt.assert_array_equal(back.l_con, prob.l_con)
    npt.assert_array_equal(back.u_con, prob.u_con)
    npt.assert_array_equal(back.l_var, prob.l_var)
    npt.assert_array_equal(back.u_var, prob.u_var)


# ---------------------------------------------------------------------------
# block reader: format edges, entry layout, block boundaries, memory


def sparse_lp(rng, m: int, n: int, nnz: int) -> LpProblem:
    """A sparse LP whose rows are upper-bounded, lower-bounded or
    equalities and whose variables are boxed, free or one-sided, so that
    every bound survives the MPS round trip exactly."""
    A = sp.random(m, n, density=nnz / (m * n), random_state=rng, format="csc",
                  data_rvs=rng.standard_normal)
    act = rng.standard_normal(m)
    kind = rng.integers(0, 3, m)
    l_var = np.where(rng.uniform(size=n) < 0.2, -INF, -rng.uniform(0.0, 2.0, n))
    u_var = np.where(rng.uniform(size=n) < 0.2, INF, rng.uniform(0.0, 2.0, n))
    return LpProblem(
        c=rng.standard_normal(n),
        A=SparseMatrix(A),
        l_con=np.where(kind == 0, -INF, act),
        u_con=np.where(kind == 1, INF, act),
        l_var=l_var,
        u_var=u_var,
    )


def assert_same_problem(got: LpProblem, want: LpProblem):
    """Every array of the two problems bit for bit, dtype included."""
    a, b = got.A.to_csc(), want.A.to_csc()
    pairs = [(a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr)]
    pairs += [(getattr(got, k), getattr(want, k))
              for k in ("c", "l_con", "u_con", "l_var", "u_var")]
    for x, y in pairs:
        assert x.dtype == y.dtype
        assert np.array_equal(x.view(np.uint8), y.view(np.uint8))
    assert got.obj_constant == want.obj_constant
    assert got.obj_sense == want.obj_sense


EDGE_LINES = (
    "* comment in column 1 before NAME",
    "NAME\tEDGES",
    "ROWS",
    " N\tCOST",
    "",
    " L  LIM",
    "\tG\tDEM",
    " E  BAL",
    "COLUMNS",
    "* comment in column 1 inside COLUMNS",
    "    X1\tCOST\t1.5",
    "   * indented comment inside COLUMNS",
    "",
    "    X1  LIM  2.0",
    "    MARKER  'MARKER'  'INTORG'",
    "\tX2\tCOST\t-1.0",
    "    X2  DEM  1.0",
    "    MARKER  'MARKER'  'INTEND'",
    "    X3  BAL  4.0",
    "RHS",
    "* comment in column 1 inside RHS",
    "    RHS  LIM  10.0",
    "  \t* indented comment inside RHS",
    "    RHS  DEM  1.0",
    "\t \t",
    "    RHS  BAL  3.0",
    "BOUNDS",
    "* comment in column 1 inside BOUNDS",
    " UP BND  X1  8.0",
    "   * indented comment inside BOUNDS",
    " MI BND  X2",
    " LO\tBND\tX3\t-1.0",
    "ENDATA",
)


def test_format_edges_read_as_the_plain_file(tmp_path):
    """CRLF endings, tab separators, blank lines and '*' comments (in
    column 1 and indented) change nothing: the document and the problem
    equal those of the same file without them, bit for bit."""
    plain = [(" " if line[0].isspace() else "") + " ".join(line.split())
             for line in EDGE_LINES if line.strip() and not line.lstrip().startswith("*")]
    ref_doc = parse_mps(io.StringIO("\n".join(plain) + "\n"))
    with pytest.warns(UserWarning, match="integrality relaxed for 1"):
        ref = build_problem(ref_doc)
    npt.assert_array_equal(ref.c, [1.5, -1.0, 0.0])
    npt.assert_array_equal(ref.A.to_dense(), [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                              [0.0, 0.0, 4.0]])
    npt.assert_array_equal(ref.l_con, [-INF, 1.0, 3.0])
    npt.assert_array_equal(ref.u_con, [10.0, INF, 3.0])
    npt.assert_array_equal(ref.l_var, [0.0, -INF, -1.0])
    npt.assert_array_equal(ref.u_var, [8.0, INF, INF])

    crlf = ("\r\n".join(EDGE_LINES) + "\r\n").encode()
    path = tmp_path / "edges.mps"
    path.write_bytes(crlf)
    for source in (path, io.BytesIO(crlf)):
        doc = parse_mps(source)
        assert doc.name == "EDGES"
        assert list(doc.row_types.items()) == list(ref_doc.row_types.items())
        assert doc.column_order == ["X1", "X2", "X3"]
        assert doc.integer_columns == ["X2"]
        assert_same_entries(doc, ref_doc)
        assert doc.rhs_entries == ref_doc.rhs_entries
        assert doc.bound_entries == ref_doc.bound_entries
        with pytest.warns(UserWarning, match="integrality relaxed for 1"):
            assert_same_problem(build_problem(doc), ref)


def test_two_pairs_per_line_and_unnamed_sets():
    """COLUMNS, RHS and RANGES lines may carry two (row, value) pairs, and
    RHS and RANGES lines may leave out the set name."""
    text = (
        "ROWS\n N  OBJ\n L  R1\n G  R2\n E  R3\n"
        "COLUMNS\n"
        "    X1  OBJ  1.25  R1  2.5\n"
        "    X1  R2  -0.75  R3  3.0\n"
        "    X2  R1  1.0\n"
        "RHS\n"
        "    RHS  R1  4.0  R2  -1.5\n"
        "    R3  2.0  OBJ  6.0\n"
        "RANGES\n"
        "    RNG  R1  1.0  R2  2.5\n"
        "    R3  -0.5\n"
        "ENDATA\n"
    )
    doc = parse_mps(io.StringIO(text))
    npt.assert_array_equal(doc.entry_cols, [0, 0, 0, 0, 1])
    npt.assert_array_equal(doc.entry_rows, [0, 1, 2, 3, 1])
    npt.assert_array_equal(doc.entry_values, [1.25, 2.5, -0.75, 3.0, 1.0])
    assert doc.rhs_entries == [("R1", 4.0), ("R2", -1.5), ("R3", 2.0), ("OBJ", 6.0)]
    assert doc.range_entries == [("R1", 1.0), ("R2", 2.5), ("R3", -0.5)]
    prob = build_problem(doc)
    npt.assert_array_equal(prob.c, [1.25, 0.0])
    npt.assert_array_equal(prob.A.to_dense(), [[2.5, 1.0], [-0.75, 0.0], [3.0, 0.0]])
    npt.assert_array_equal(prob.l_con, [3.0, -1.5, 1.5])
    npt.assert_array_equal(prob.u_con, [4.0, 1.0, 2.0])
    assert prob.obj_constant == -6.0


def test_integer_markers_around_split_columns():
    """Columns first seen between INTORG and INTEND are integer; a later
    line of a column that began outside the markers does not make it so."""
    text = (
        "ROWS\n N  OBJ\n L  R1\nCOLUMNS\n"
        "    X1  OBJ  1.0\n"
        "    M1  'MARKER'  'INTORG'\n"
        "    X2  R1  1.0\n"
        "    X1  R1  2.0\n"
        "    M2  'MARKER'  'INTEND'\n"
        "    X3  R1  3.0\n"
        "ENDATA\n"
    )
    doc = parse_mps(io.StringIO(text))
    assert doc.column_order == ["X1", "X2", "X3"]
    assert doc.integer_columns == ["X2"]
    npt.assert_array_equal(doc.entry_cols, [0, 1, 0, 2])


def test_split_column_entries_merge():
    """A column whose lines are not adjacent is one column, and its
    entries from every line land in it."""
    text = (
        "ROWS\n N  OBJ\n L  R1\n L  R2\nCOLUMNS\n"
        "    X1  OBJ  1.0  R1  2.0\n"
        "    X2  R1  5.0\n"
        "    X1  R2  3.0\n"
        "    X2  OBJ  -1.0\n"
        "ENDATA\n"
    )
    doc = parse_mps(io.StringIO(text))
    assert doc.column_order == ["X1", "X2"]
    npt.assert_array_equal(doc.entry_cols, [0, 0, 1, 0, 1])
    prob = build_problem(doc)
    assert doc.warnings == []
    npt.assert_array_equal(prob.c, [1.0, -1.0])
    npt.assert_array_equal(prob.A.to_dense(), [[2.0, 5.0], [3.0, 0.0]])


def test_three_duplicates_sum_in_file_order():
    """Duplicates of one cell, and of one objective coefficient, are added
    one by one in file order: (1e16 + 1) + 1 rounds to 1e16 twice, where
    1e16 + (1 + 1) would give 1e16 + 2."""
    text = (
        "ROWS\n N  OBJ\n L  R1\nCOLUMNS\n"
        "    X1  R1  1e16  OBJ  1e16\n"
        "    X1  R1  1.0   OBJ  1.0\n"
        "    X1  R1  1.0   OBJ  1.0\n"
        "ENDATA\n"
    )
    doc = parse_mps(io.StringIO(text))
    with pytest.warns(UserWarning, match="4 duplicate matrix/objective entries summed"):
        prob = build_problem(doc)
    in_order = (1e16 + 1.0) + 1.0
    assert in_order == 1e16 != 1e16 + (1.0 + 1.0)
    npt.assert_array_equal(prob.A.to_csc().data, [in_order])
    npt.assert_array_equal(prob.c, [in_order])


def test_round_trip_across_read_blocks():
    """A file several read blocks long comes back bit for bit."""
    from hprlp.mps import _BLOCK_CHARS

    prob = sparse_lp(np.random.default_rng(7), 300, 500, 6_000)
    text = emit_mps(prob)
    assert len(text) > 3 * _BLOCK_CHARS
    assert_same_problem(build_problem(parse_mps(io.StringIO(text))), prob)


def test_error_past_the_first_block_has_its_line_number():
    from hprlp.mps import _BLOCK_CHARS

    lines = emit_mps(sparse_lp(np.random.default_rng(8), 200, 400, 6_000)).splitlines()
    ends = np.cumsum([len(line) + 1 for line in lines])
    # the first matrix entry that starts past two blocks
    at = next(i for i in range(1, len(lines)) if ends[i - 1] > 2 * _BLOCK_CHARS
              and lines[i].split()[0].startswith("C") and "R" in lines[i])
    tok = lines[at].split()
    lines[at] = f"    {tok[0]}  NOPE  {tok[2]}"
    err = perr("\n".join(lines) + "\n")
    assert err.line_no == at + 1
    assert str(err) == f"line {at + 1}: unknown row 'NOPE' in COLUMNS"


def test_error_malformed_number_in_rhs():
    text = (
        "ROWS\n N  OBJ\n L  R1\nCOLUMNS\n    X1 OBJ 1.0\n"
        "RHS\n    RHS R1 1.0\n    RHS R1 1..5\n"
    )
    err = perr(text)
    assert err.line_no == 8
    assert str(err) == "line 8: malformed numeric field '1..5'"


def test_error_malformed_number_in_bounds():
    text = (
        "ROWS\n N  OBJ\nCOLUMNS\n    X1 OBJ 1.0\n"
        "BOUNDS\n UP BND X1 1.0\n* comment\n LO BND X1 1e\n"
    )
    err = perr(text)
    assert err.line_no == 8
    assert str(err) == "line 8: malformed numeric field '1e'"


def test_reader_peak_memory_is_a_few_times_the_file(tmp_path):
    """Reading and building a 20,000-entry file allocates at its peak
    less than five times the file's size (tracemalloc counts numpy's
    buffers as well as Python objects)."""
    import tracemalloc

    prob = sparse_lp(np.random.default_rng(9), 1_000, 2_000, 20_000)
    path = tmp_path / "big.mps"
    path.write_text(emit_mps(prob))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        back = build_problem(parse_mps(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.A.nnz >= 20_000
    assert peak < 5 * size, f"peak {peak / size:.1f}x the file's {size} bytes"


class _ReadLog:
    """A stream wrapper that records the size of every ``read``."""

    def __init__(self, inner):
        self.inner = inner
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return self.inner.read(size)


def test_streams_read_in_blocks_as_the_path(tmp_path):
    """Text and bytes streams are read a block at a time and left open,
    and give the path's document bit for bit, also where a multi-byte
    character of a bytes stream is split between two reads."""
    import re

    from hprlp.mps import _BLOCK_CHARS

    prob = sparse_lp(np.random.default_rng(10), 300, 500, 6_000)
    body = re.sub(r"\bC(\d)", "€\\1", emit_mps(prob))  # 3-byte column names
    # a leading comment shifts the last euro sign of the first block onto
    # its boundary: its first byte is the block's last
    at = [i + 2 * k for k, i in enumerate(m.start() for m in re.finditer("€", body))]
    pad = _BLOCK_CHARS - 1 - max(b for b in at if b < _BLOCK_CHARS - 3)
    text = "*" + "-" * (pad - 2) + "\n" + body
    raw = text.encode("utf-8")
    assert raw[_BLOCK_CHARS - 1:_BLOCK_CHARS + 2] == "€".encode("utf-8")
    path = tmp_path / "euro.mps"
    path.write_bytes(raw)
    ref = parse_mps(path)
    want = build_problem(ref)
    for inner in (io.StringIO(text), io.BytesIO(raw)):
        stream = _ReadLog(inner)
        doc = parse_mps(stream)
        assert len(stream.sizes) > 3
        assert all(isinstance(s, int) and s > 0 for s in stream.sizes), stream.sizes
        assert not inner.closed
        assert doc.column_order == ref.column_order
        assert doc.column_order[0] == "€0"
        assert_same_entries(doc, ref)
        for name in ("name", "row_types", "rhs_entries", "range_entries",
                     "bound_entries", "warnings"):
            assert getattr(doc, name) == getattr(ref, name), name
        assert_same_problem(build_problem(doc), want)
