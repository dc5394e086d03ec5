"""Reader for the MPS linear-program interchange format.

Tolerant, whitespace tokenization: both fixed-column and free-form files
are split on whitespace, lines whose first token starts with '*' are
comments, and section headers start in column one.  Supported sections:
NAME, OBJSENSE, ROWS, COLUMNS (with INTORG/INTEND markers), RHS, RANGES,
BOUNDS, ENDATA.

The source is read in blocks of about 64K bytes (characters, from a text
stream), each cut after its last newline, so a block holds whole lines.
A path and a .gz path are read in binary mode.  A block is tokenized as
bytes, with one ``bytes.split``, and one numpy pass over its bytes gives
each token's line, from which come the per-line token counts and the
comment, blank and header lines; no token is decoded to ``str``.
``bytes.split`` splits on the six ASCII whitespace bytes only, where
``str.split`` also splits on U+001C-U+001F and on whitespace beyond
ASCII, and a path read as text would end a line at a lone carriage
return.  So a block that holds a byte above 0x7f or in 0x1c-0x1f, or,
from a path, a carriage return outside CRLF, is decoded first, its line
ends read as universal newlines read them (path sources only), the
separators ``bytes.split`` does not know replaced by spaces, and
encoded again (``_tokenizable``): its tokens and lines are those
``str.split`` finds in its text.  A text stream's block is encoded the
same way.  The data lines between two headers are then handled a section
at a time: every section but BOUNDS gathers its tokens with ``_take``
(BOUNDS, whose lines of three and four tokens alternate, indexes one
object array of its tokens); names map to indices through dicts keyed
by the raw tokens, each name decoded once, where it is declared, and
looked up once per line; bound keys map to small integer codes; and
the numeric fields of a block convert with one
``np.array(tokens, dtype=np.float64)``, which parses each ASCII token as
``float()`` parses its text (a block with any other is converted from
its text).  Every section but ROWS is kept as arrays of row or column
indices, key codes and values (see ``MpsDocument``), from which
``build_problem`` forms the objective, the CSC matrix and the row and
variable bounds with numpy, with no loop over entries, rows or bounds.
Every ``MpsParseError`` names the 1-based line of the first fault in the
file, with its tokens as text.

On the benchmark's 5.1 MB, 174,651-line mps-sparse-1e5 ``model.mps``
(seed 1), on one core of a 2-vCPU Xeon, parsing takes 156 ms (about
33 MB/s) against 164 ms when every block was decoded and split as text
(medians of 20 interleaved runs, lower in 17): tokenizing 52 ms against
58, ROWS 4 ms, COLUMNS 86 ms against 90, RHS and RANGES 6 ms, BOUNDS
16 ms for 31,826 lines (medians of 15 instrumented runs).  Building
takes 14-16 ms.  The traced heap of parsing and building peaks at 2.4x
the file's size.

Row types map to activity intervals (rhs r, default 0):

    L: (-inf, r]     G: [r, +inf)     E: [r, r]

and a RANGES value R refines them to

    L: [r - |R|, r]  G: [r, r + |R|]  E: [r, r + R] if R >= 0 else [r + R, r].

Variables default to [0, +inf).  An RHS entry on the objective row is
the negated objective constant.  Integer markers and bound keys are
recorded but relaxed: the built problem is the continuous relaxation.
"""

from __future__ import annotations

import contextlib
import gzip
import os
import re
import warnings as _warnings
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np
import scipy.sparse as sp

from .model import LpProblem
from .sparse import SparseMatrix, compress_entries

__all__ = ["MpsDocument", "MpsParseError", "parse_mps", "build_problem"]

_SECTIONS = ("NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA")
_ROW_TYPES = {kind: code for code, kind in enumerate("NLGE")}
# MpsDocument.bound_keys indexes this tuple; the first five keys take a value
BOUND_KEYS = ("UP", "LO", "FX", "LI", "UI", "FR", "MI", "PL", "BV")
_VALUED_KEYS = 5
_BOUND_CODES = {key: code for code, key in enumerate(BOUND_KEYS)}
# the MpsDocument arrays, collected block by block
_ARRAYS = ("entry_cols", "entry_rows", "entry_values", "rhs_rows", "rhs_values",
           "range_rows", "range_values", "bound_keys", "bound_cols", "bound_values")

# Characters (bytes, from a path or a bytes stream) read per block.
# Smaller blocks cost more numpy calls per line, larger ones hold more
# token objects at once.
_BLOCK_CHARS = 1 << 16
# bytes.split splits on these six ASCII bytes, as a bytes.translate table
_SPACE = bytes(bytes([i]).isspace() for i in range(256))
# str.split splits on these as well, bytes.split does not: U+001C-U+001F
# and the whitespace beyond ASCII
_UNIT_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_WIDE_SPACE = re.compile(r"[^\S \t\n\r\x0b\x0c]")
_NEWLINE, _STAR = ord("\n"), ord("*")
# the first bytes from which float() may read an ASCII token: a sign, a
# digit, '.' or inf/nan
_NUMBER_LEADS = frozenset(b"+-.0123456789iInN")


class MpsParseError(Exception):
    """Parse failure with the 1-based source line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class MpsDocument:
    """Raw sections of one MPS file, before numeric assembly.

    ``row_types`` keeps declaration order for all rows including the
    objective ('N') rows.  The other sections are arrays in file order,
    one entry per (row, value) pair or bound line; a row index counts the
    rows in ``row_types`` order (int32), a column index indexes
    ``column_order`` (int32), and values are float64:

    - COLUMNS: ``entry_cols``, ``entry_rows``, ``entry_values``;
    - RHS: ``rhs_rows``, ``rhs_values``;
    - RANGES: ``range_rows``, ``range_values``;
    - BOUNDS: ``bound_keys`` (int8 indices into ``BOUND_KEYS``),
      ``bound_cols`` and ``bound_values`` (NaN for the keys that take no
      value: FR, MI, PL, BV).

    ``warnings`` collects tolerated irregularities from both parsing and
    problem building.
    """

    name: str | None = None
    obj_sense: str = "minimize"
    objective_row: str | None = None
    row_types: dict[str, str] = field(default_factory=dict)
    column_order: list[str] = field(default_factory=list)
    entry_cols: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))
    entry_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))
    entry_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    rhs_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))
    rhs_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    range_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))
    range_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    bound_keys: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int8))
    bound_cols: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))
    bound_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    integer_columns: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _str(token: bytes) -> str:
    """A token as text; a text source's lone surrogates come back too."""
    return token.decode("utf-8", "surrogatepass")


def _strs(tokens: list[bytes]) -> list[str]:
    """``[_str(t) for t in tokens]`` in one decode: no token holds a space."""
    return _str(b" ".join(tokens)).split(" ") if tokens else []


def _numbers(tokens: list[bytes]) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The tokens as float64, parsed as ``float()`` parses their text,
    and ``None``; or ``None`` and the mask of the malformed tokens.
    ``float()`` reads a token of bytes as it reads its text where the
    token is ASCII, and fails on any other, whose text it may read (it
    takes digits beyond ASCII from text alone), so only a failure is
    parsed again from the text."""
    try:
        return np.array(tokens, dtype=np.float64), None
    except ValueError:
        pass
    text = _strs(tokens)
    try:
        return np.array(text, dtype=np.float64), None
    except ValueError:
        return None, np.array([not _is_number(t) for t in text], dtype=bool)


def _take(toks: list, at: np.ndarray) -> list:
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
    """The source read ``_BLOCK_CHARS`` characters or bytes at a time: a
    path or a .gz path, read as bytes, or an open text or bytes stream,
    which is left open."""
    if hasattr(source, "read"):
        stream = contextlib.nullcontext(source)
    elif os.fspath(source).endswith(".gz"):
        stream = gzip.open(source, "rb")
    else:
        stream = open(source, "rb")
    with stream as fh:
        while data := fh.read(_BLOCK_CHARS):
            yield data


def _blocks(chunks):
    """The text or bytes of ``chunks`` in blocks of whole lines; only the
    last block may lack a final newline."""
    parts = []
    for chunk in chunks:
        cut = chunk.rfind(b"\n" if isinstance(chunk, bytes) else "\n") + 1
        if not cut:
            parts.append(chunk)
            continue
        parts.append(chunk[:cut])
        yield chunk[:0].join(parts)
        parts = [chunk[cut:]]
    if any(parts):
        yield parts[0][:0].join(parts)


def _tokenizable(block: bytes | str, universal: bool) -> bytes:
    """``block`` as UTF-8 bytes that ``bytes.split`` splits into the
    tokens ``str.split`` finds in its text, line for line.

    A block of bytes, or of ASCII text, is that already unless it holds
    a byte above 0x7f (a character beyond ASCII, or a fault that
    decoding raises), a byte in 0x1c-0x1f, or, for a path
    (``universal``), a carriage return outside CRLF.  Those blocks, and
    text beyond ASCII, are decoded, a path's line ends read as universal
    newlines read them (CRLF and a lone CR end a line), each separator
    that only ``str.split`` splits on replaced by a space, and encoded."""
    if isinstance(block, str):
        if not block.isascii():
            return _WIDE_SPACE.sub(" ", block).encode("utf-8", "surrogatepass")
        block = block.encode("ascii")
    if block.isascii() and not any(sep in block for sep in _UNIT_SEPARATORS) and not (
            universal and b"\r" in block and block.count(b"\r") != block.count(b"\r\n")):
        return block
    text = block.decode("utf-8")
    if universal:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return _WIDE_SPACE.sub(" ", text).encode("utf-8", "surrogatepass")


class _Reader:
    """The parse state carried from block to block.  Rows and columns
    are keyed by their raw tokens; each name is decoded once, where it
    is declared."""

    def __init__(self):
        self.doc = MpsDocument()
        self.section: str | None = None
        self.done = False  # ENDATA seen
        self.lines = 0  # lines in the blocks already read
        self.in_integer_block = False
        self.row_pos: dict[bytes, int] = {}  # declaration index of each row
        self.n_rows: list[int] = []  # declaration indices of the N rows
        self.col_pos: dict[bytes, int] = {}
        self.parts: dict[str, list] = {name: [] for name in _ARRAYS}

    def feed(self, raw: bytes):
        """Parse one block of whole lines (see ``_tokenizable``), up to
        ENDATA."""
        toks = raw.split()
        codes = np.frombuffer(raw, dtype=np.uint8)
        space = np.frombuffer(raw.translate(_SPACE), dtype=bool)
        # a token starts at a non-space byte after a space, or at 0
        starts = np.flatnonzero(space[:-1] > space[1:])
        starts += 1
        if raw and not space[0]:
            starts = np.concatenate(([0], starts))
        # the tokens before each line's end: its newline, or the end of
        # a last line without one
        newlines = np.flatnonzero(codes == _NEWLINE)
        ends = np.searchsorted(starts, newlines)
        if not raw.endswith(b"\n"):
            ends = np.append(ends, starts.size)
        n_lines = ends.size
        count = np.diff(ends, prepend=0)
        first = ends - count
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
                           b"'" in raw and b"'MARKER'" in raw)
            lo = hi
            if h == n_lines:
                break
            self._header(_strs(toks[first[h]:first[h] + count[h]]), self.lines + h + 1)
            if self.done:
                return
        self.lines += n_lines

    def finish(self) -> MpsDocument:
        doc = self.doc
        for name, parts in self.parts.items():
            if parts:
                setattr(doc, name, np.concatenate(parts))
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
                self.doc.obj_sense = _parse_sense(_str(toks[f]), ln)
        elif section == "ROWS":
            self._rows(toks, first, count, line_no)
        elif section == "COLUMNS":
            self._columns(toks, first, count, line_no, has_marker)
        elif section == "BOUNDS":
            self._bounds(toks, first, count, line_no)
        else:  # RHS, RANGES
            rows, values = self._pairs(
                toks, first + (count & 1), count // 2, count == 1,
                f"malformed {section} line", line_no,
            )
            prefix = "rhs" if section == "RHS" else "range"
            self.parts[f"{prefix}_rows"].append(rows)
            self.parts[f"{prefix}_values"].append(values)

    def _rows(self, toks, first, count, line_no):
        doc, row_pos = self.doc, self.row_pos
        short = count < 2
        raw = _take(toks, first)
        # the type tokens are few distinct ones: each is decoded once
        kind_of = {kind: _str(kind).upper() for kind in set(raw)}
        kinds = list(map(kind_of.__getitem__, raw))
        # a short line's name is its own type token: the line faults first
        names = _take(toks, first + (count >= 2))
        codes = np.fromiter(map(_ROW_TYPES.get, kinds, repeat(-1)), np.int8, len(kinds))
        before = len(row_pos)
        row_pos.update(zip(names, range(before, before + len(names))))
        if short.any() or (codes < 0).any() or len(row_pos) < before + len(names):
            # find the first fault in file order (the raise drops the state)
            seen = set(list(row_pos)[:before])
            for k, kind, code, name, ln in zip(short.tolist(), raw, codes.tolist(), names,
                                               line_no.tolist()):
                if k:
                    raise MpsParseError("ROWS line needs a type and a name", ln)
                if code < 0:
                    raise MpsParseError(f"unknown row type {_str(kind)!r}", ln)
                if name in seen:
                    raise MpsParseError(f"duplicate row name {_str(name)!r}", ln)
                seen.add(name)
        names = _strs(names)
        doc.row_types.update(zip(names, kinds))
        objective = np.flatnonzero(codes == 0)
        self.n_rows.extend((before + objective).tolist())
        if doc.objective_row is None and objective.size:
            doc.objective_row = names[objective[0]]

    def _columns(self, toks, first, count, line_no, has_marker):
        """COLUMNS lines, split at the integer markers between them."""
        marks = []
        if has_marker:
            long = np.flatnonzero(count >= 3)
            marks = [p for p, t in zip(long.tolist(), (first[long] + 1).tolist())
                     if toks[t] == b"'MARKER'"]
        lo = 0
        for p in marks + [first.size]:
            if p > lo:
                self._column_entries(toks, first[lo:p], count[lo:p], line_no[lo:p])
            if p == first.size:
                break
            token = _str(toks[first[p] + count[p] - 1])
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
        rows, values = self._pairs(
            toks, first + 1, pairs, (count < 3) | (count % 2 == 0),
            "COLUMNS line needs a column name and row/value pairs", line_no,
        )
        names = _take(toks, first)
        col_pos = self.col_pos
        new = [name for name in dict.fromkeys(names) if name not in col_pos]
        col_pos.update(zip(new, range(len(col_pos), len(col_pos) + len(new))))
        new = _strs(new)
        self.doc.column_order.extend(new)
        if self.in_integer_block:
            self.doc.integer_columns.extend(new)
        cols = np.fromiter(map(col_pos.__getitem__, names), np.int32, len(names))
        self.parts["entry_cols"].append(np.repeat(cols, pairs))
        self.parts["entry_rows"].append(rows)
        self.parts["entry_values"].append(values)

    def _pairs(self, toks, start, pairs, bad_line, line_message, line_no):
        """The (row, value) pairs of each line, ``pairs[i]`` of them from
        token ``start[i]`` on: row declaration indices (int32) and values.

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
            name = _str(names[p])
            if rows[p] < 0:
                raise MpsParseError(f"unknown row {name!r} in {section}", ln)
            if malformed is not None and malformed[p]:
                raise MpsParseError(
                    f"malformed numeric field {_str(toks[row_tok[p] + 1])!r}", ln
                )
            raise MpsParseError(f"RANGES entry on objective/free row {name!r}", ln)
        return rows, values

    def _bounds(self, toks, first, count, line_no):
        # lines of three and four tokens alternate here, so no gather
        # steps evenly (``_take``): each indexes one object array of the
        # section's tokens instead
        lo = int(first[0])
        section = np.array(toks[lo:int(first[-1] + count[-1])], dtype=object)
        first = first - lo
        raw = section[first].tolist()
        # the key tokens are few distinct ones: each is decoded once
        code_of = {key: _BOUND_CODES.get(_str(key).upper(), -1) for key in set(raw)}
        keys = np.fromiter(map(code_of.__getitem__, raw), np.int8, len(raw))
        known = keys >= 0
        valued = known & (keys < _VALUED_KEYS)
        short = valued & (count < 3)
        last = first + count - 1
        value_at = np.flatnonzero(valued & ~short)
        values, malformed = _numbers(section[last[value_at]].tolist())
        # the column precedes the value; a flag bound may carry a
        # trailing number, which is skipped
        col_tok = last - (valued & ~short)
        flags = np.flatnonzero(known & ~valued & (count >= 3))
        # most column names are ruled out by their first byte
        trailing = [
            (tok[0] in _NUMBER_LEADS or not tok.isascii()) and _is_number(_str(tok))
            for tok in section[last[flags]].tolist()
        ]
        col_tok[flags[np.array(trailing, dtype=bool)]] -= 1
        cols = np.fromiter(
            map(self.col_pos.get, section[col_tok].tolist(), repeat(-1)),
            np.int32, len(raw),
        )
        bad_value = np.zeros(len(raw), dtype=bool)
        if malformed is not None:
            bad_value[value_at] = malformed
        fault = ~known | short | bad_value | (cols < 0)
        if fault.any():
            i = int(np.flatnonzero(fault)[0])
            ln = int(line_no[i])
            if not known[i]:
                raise MpsParseError(f"unknown bound key {_str(raw[i])!r}", ln)
            if short[i]:
                raise MpsParseError(f"bound {BOUND_KEYS[keys[i]]} needs a value", ln)
            if bad_value[i]:
                raise MpsParseError(f"malformed numeric field {_str(section[last[i]])!r}", ln)
            raise MpsParseError(f"unknown column {_str(section[col_tok[i]])!r} in BOUNDS", ln)
        bound = np.full(len(raw), np.nan)
        bound[value_at] = values
        self.parts["bound_keys"].append(keys)
        self.parts["bound_cols"].append(cols)
        self.parts["bound_values"].append(bound)


def parse_mps(source) -> MpsDocument:
    """Parse an MPS file (path, .gz path, or open stream) into sections.

    Raises MpsParseError with a line number for unknown sections,
    references to undeclared rows/columns, malformed numbers, duplicate
    row names, or RANGES entries on the objective row.  A missing
    ENDATA only warns.
    """
    reader = _Reader()
    universal = not hasattr(source, "read")
    with contextlib.closing(_chunks(source)) as chunks:
        for block in _blocks(chunks):
            reader.feed(_tokenizable(block, universal))
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
    relaxed (warning).  Of repeated RHS or RANGES entries for one row the
    last is kept (warning), and of bounds set twice on one column the
    last.  Raises ValueError for inconsistent bounds.
    """
    declared = list(doc.row_types)
    kinds = np.array(list(doc.row_types.values()), dtype=str)
    # constraint index of each declared row, -1 for the N rows
    is_con = kinds != "N"
    m, n = int(is_con.sum()), len(doc.column_order)
    con_of = np.full(len(declared), -1, dtype=np.int64)
    con_of[is_con] = np.arange(m)
    obj = -1 if doc.objective_row is None else declared.index(doc.objective_row)

    R, C, V = doc.entry_rows, doc.entry_cols, doc.entry_values
    on_obj = R == obj
    on_con = is_con[R]
    c = np.zeros(n)
    np.add.at(c, C[on_obj], V[on_obj])  # in file order, as c[j] += v
    dup_count = int(on_obj.sum()) - np.count_nonzero(np.bincount(C[on_obj], minlength=n))
    free_rows_dropped = [declared[r] for r in np.unique(R[~on_obj & ~on_con]).tolist()]

    # the matrix in CSC form, duplicates summed one by one in file order
    v = V[on_con]
    csc = compress_entries(C[on_con], con_of[R[on_con]], v, (n, m))
    dup_count += v.size - csc[0].size
    if dup_count:
        _note(doc, f"{dup_count} duplicate matrix/objective entries summed")
    for row in sorted(free_rows_dropped):
        _note(doc, f"non-objective free row {row!r} dropped")
    A = SparseMatrix(sp.csc_matrix(csc, shape=(m, n)))

    rhs, has_rhs, repeats = _last_entries(doc.rhs_rows, doc.rhs_values, len(declared))
    for r in repeats:
        _note(doc, f"duplicate RHS entry for row {declared[r]!r}; keeping the last")
    rng, ranged, repeats = _last_entries(doc.range_rows, doc.range_values, len(declared))
    for r in repeats:
        _note(doc, f"duplicate RANGES entry for row {declared[r]!r}; keeping the last")
    obj_constant = -float(rhs[obj]) if obj >= 0 and has_rhs[obj] else 0.0

    # row activity intervals, as the module docstring lists them
    r, rng, ranged, kinds = rhs[is_con], rng[is_con], ranged[is_con], kinds[is_con]
    is_l, is_g = kinds == "L", kinds == "G"
    is_e = ~(is_l | is_g)
    l_con = np.where(is_l, -np.inf, r)
    u_con = np.where(is_g, np.inf, r)
    width, up = np.abs(rng), rng >= 0.0
    with np.errstate(all="ignore"):  # a sum that overflows is inf, silently
        l_con = np.where(ranged & is_l, r - width, l_con)
        u_con = np.where(ranged & is_g, r + width, u_con)
        l_con = np.where(ranged & is_e & ~up, r + rng, l_con)
        u_con = np.where(ranged & is_e & up, r + rng, u_con)

    # variable bounds: each bound line sets what _KEY_EFFECTS lists for
    # its key, and of the lines that set a column's bound the last wins
    keys, cols, values = doc.bound_keys, doc.bound_cols, doc.bound_values
    at = np.arange(keys.size)
    first_lower = np.full(n, keys.size)
    sets_lower = _SETS_LOWER[keys]
    np.minimum.at(first_lower, cols[sets_lower], at[sets_lower])
    neg_up = (keys == _BOUND_CODES["UP"]) & (values < 0.0) & (first_lower[cols] > at)
    l_var = _last_bounds(np.zeros(n), cols, sets_lower | neg_up, _LOWER[keys], values)
    u_var = _last_bounds(np.full(n, np.inf), cols, _SETS_UPPER[keys], _UPPER[keys], values)
    for j, value in zip(cols[neg_up].tolist(), values[neg_up].tolist()):
        _note(
            doc,
            f"UP bound {value} < 0 on column {doc.column_order[j]!r} without a lower bound; "
            "lower bound set to -inf",
        )

    integer_marked = set(doc.integer_columns)
    integer_marked.update(map(doc.column_order.__getitem__,
                              np.unique(cols[_INTEGER[keys]]).tolist()))
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


# What each bound key sets: (lower bound, upper bound, marks its column
# integer), a bound None where the key leaves it and NaN where it takes
# the line's value.  UP sets the lower bound only when its value is below
# 0 and no earlier line on its column set one, which is decided per line.
_KEY_EFFECTS = {
    "UP": (-np.inf, np.nan, False),
    "LO": (np.nan, None, False),
    "FX": (np.nan, np.nan, False),
    "LI": (np.nan, None, True),
    "UI": (None, np.nan, True),
    "FR": (-np.inf, np.inf, False),
    "MI": (-np.inf, None, False),
    "PL": (None, np.inf, False),
    "BV": (0.0, 1.0, True),
}
# the same as arrays indexed by MpsDocument.bound_keys
_EFFECTS = [_KEY_EFFECTS[key] for key in BOUND_KEYS]
_SETS_LOWER = np.array([lo is not None and key != "UP"
                        for key, (lo, _, _) in zip(BOUND_KEYS, _EFFECTS)])
_SETS_UPPER = np.array([hi is not None for _, hi, _ in _EFFECTS])
_LOWER = np.array([np.nan if lo is None else lo for lo, _, _ in _EFFECTS])
_UPPER = np.array([np.nan if hi is None else hi for _, hi, _ in _EFFECTS])
_INTEGER = np.array([integer for _, _, integer in _EFFECTS])


def _last_entries(rows: np.ndarray, values: np.ndarray, size: int):
    """Each row's value from its last entry in file order (0 where it has
    none), the mask of the rows that have one, and the rows of the
    entries that repeat an earlier entry's row, in file order."""
    order = np.argsort(rows, kind="stable")
    ordered = rows[order]
    again = ordered[1:] == ordered[:-1]
    last = order[np.append(~again, True)] if rows.size else order
    out, has = np.zeros(size), np.zeros(size, dtype=bool)
    out[rows[last]] = values[last]
    has[rows[last]] = True
    return out, has, rows[np.sort(order[1:][again])].tolist()


def _last_bounds(out: np.ndarray, cols: np.ndarray, sets: np.ndarray,
                 fixed: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``out`` with the bound of the last line that ``sets`` for each
    column: ``fixed``, or the line's value where ``fixed`` is NaN."""
    at = np.flatnonzero(sets)
    last = np.full(out.size, -1)
    np.maximum.at(last, cols[at], at)
    hit = np.flatnonzero(last >= 0)
    line = last[hit]
    out[hit] = np.where(np.isnan(fixed[line]), values[line], fixed[line])
    return out


def _note(doc: MpsDocument, message: str):
    doc.warnings.append(message)
    _warnings.warn(message, stacklevel=3)
