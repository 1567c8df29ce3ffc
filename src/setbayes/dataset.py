"""CSV files and synthetic data generation.

Every CSV format of the package is read and written here: datasets,
``classify``'s query files and report of sets, and ``tune``'s rate
curves, each CSV report in one writer call; and every report file is
written through ``open_reports``, which lets it appear only complete.
A dataset file is a plain CSV with one or more numeric feature columns,
a ``label`` column, and an optional ``block`` column.  Labels may appear
in any order; ingestion numbers them 1..N so that each block occupies a
contiguous index range (blocks ordered by first appearance, labels within
a block likewise), because the classifiers expect contiguous blocks.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import CategorySpace, json_fields
from .errors import SchemaError
from .gaussian import MAX_SAMPLES, TrainingData


@dataclass(frozen=True)
class LoadedDataset:
    """A parsed dataset file with its category numbering."""

    data: TrainingData
    space: CategorySpace
    labels: tuple[str, ...]
    block_names: tuple[str, ...] | None
    feature_names: tuple[str, ...]

    @property
    def counts(self) -> tuple[int, ...]:
        return self.data.counts


def check_unique_columns(names: list[str]) -> None:
    """Raise ``SchemaError`` naming every column that ``names`` holds twice."""
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise SchemaError(f"duplicate header column(s): {', '.join(dupes)}")


def _parse_header(header: list[str]) -> tuple[tuple[str, ...], int, int | None]:
    names = [h.strip() for h in header]
    check_unique_columns(names)
    if "label" not in names:
        raise SchemaError("missing required column 'label'")
    label_col = names.index("label")
    block_col = names.index("block") if "block" in names else None
    features = tuple(
        n for idx, n in enumerate(names) if idx not in (label_col, block_col)
    )
    if not features:
        raise SchemaError("need at least one feature column besides label/block")
    return features, label_col, block_col


#: How every CSV input is decoded: UTF-8 less a leading byte-order mark,
#: which spreadsheets write and which would otherwise start the first name.
#: A byte that is not UTF-8 is decoded as a lone surrogate, U+DC80-U+DCFF,
#: which ``_records`` refuses, naming the line.
_ENCODING = "utf-8-sig"

#: Characters that ``np.loadtxt`` strips around a number as whitespace and
#: ``float()`` refuses; a block of query lines holding one is read row by row.
_SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f")


def _records(reader, before=0):
    """The rows of a ``csv.reader``; a ``csv.Error``, such as a field over
    the csv module's size limit, or a byte that is not UTF-8 is raised as
    a ``SchemaError`` naming its line, counted from the file's start when
    ``before`` lines of the file came before the reader's first."""
    try:
        for row in reader:
            text = "".join(row)
            bad = "" if text.isascii() else [c for c in text if "\udc80" <= c <= "\udcff"]
            if bad:
                raise SchemaError(f"line {before + reader.line_num}: "
                                  f"byte 0x{ord(bad[0]) - 0xdc00:02x} is not UTF-8")
            yield row
    except csv.Error as exc:
        raise SchemaError(f"line {before + reader.line_num}: {exc}") from None


def read_header(reader) -> list[str]:
    """The first row of a ``csv.reader`` that is not a ``#`` comment line;
    raises ``SchemaError`` if the reader ends first or a line is not CSV."""
    for row in _records(reader):
        if not (row and row[0].lstrip().startswith("#")):
            return row
    raise SchemaError("empty file; expected a header row")


def _data_rows(reader, width, cols, before=0):
    """Yield ``(line number, fields, values)`` for each row after the
    header of a ``csv.reader`` on a text file opened with ``newline=""``,
    whose first line is line ``before + 1`` of the file.  Blank rows are
    skipped; ``values`` holds the columns ``cols`` as floats, in order.

    Raises ``SchemaError``, naming the line, on a line the csv module
    refuses, a row of other than ``width`` fields, or a value that is not
    a finite number.
    """
    for row in _records(reader, before):
        lineno = before + reader.line_num
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != width:
            raise SchemaError(
                f"line {lineno}: expected {width} fields, got {len(row)}"
            )
        try:
            values = [float(row[c]) for c in cols]
        except ValueError as exc:
            raise SchemaError(f"line {lineno}: {exc}") from None
        if not all(math.isfinite(v) for v in values):
            raise SchemaError(f"line {lineno}: feature values must be finite")
        yield lineno, row, values


def load_dataset(path) -> LoadedDataset:
    """Read a dataset CSV and relabel categories to contiguous blocks.

    Comment lines starting with ``#`` before the header are skipped, so
    files written by this package (which embed their configuration there)
    read back without ceremony.

    Raises
    ------
    SchemaError
        On any malformed content, with the offending line number.
    """
    rows_by_label: dict[str, list[list[float]]] = {}
    block_of_label: dict[str, str] = {}
    block_order: list[str] = []
    with open(path, newline="", encoding=_ENCODING, errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        header = read_header(reader)
        features, label_col, block_col = _parse_header(header)
        cols = [idx for idx in range(len(header)) if idx not in (label_col, block_col)]
        for lineno, row, values in _data_rows(reader, len(header), cols):
            label = row[label_col].strip()
            if not label:
                raise SchemaError(f"line {lineno}: empty label")
            block = row[block_col].strip() if block_col is not None else ""
            if block_col is not None and not block:
                raise SchemaError(f"line {lineno}: empty block")
            if label in block_of_label:
                if block_of_label[label] != block:
                    raise SchemaError(
                        f"line {lineno}: label {label!r} appears in blocks "
                        f"{block_of_label[label]!r} and {block!r}"
                    )
            else:
                block_of_label[label] = block
                if block not in block_order:
                    block_order.append(block)
                rows_by_label[label] = []
            rows_by_label[label].append(values)
    if not rows_by_label:
        raise SchemaError("no data rows")

    label_order = [
        label for block in block_order
        for label in rows_by_label if block_of_label[label] == block
    ]
    groups = [np.asarray(rows_by_label[label]) for label in label_order]
    block_sizes = tuple(
        sum(1 for label in label_order if block_of_label[label] == block)
        for block in block_order
    )
    space = CategorySpace(len(label_order), block_sizes)
    return LoadedDataset(
        TrainingData(groups),
        space,
        tuple(label_order),
        tuple(block_order) if block_col is not None else None,
        features,
    )


def observation_blocks(path, feature_names, rows):
    """The named feature columns of a query CSV file, as float matrices
    of at most ``rows`` rows each, in file order.

    The file is decoded as ``load_dataset`` decodes it and read once, one
    block at a time, after the header, found as ``load_dataset`` finds it.
    Each block of ``rows`` lines goes through ``np.loadtxt``'s C
    tokenizer, which converts each number as ``float()`` does.  The lines
    are taken with ``itertools.islice``, not read by ``loadtxt`` from the
    open file with ``max_rows``, so that the row parser can be handed them
    again.  The table is used when it has a row, each as wide as the
    header, with finite feature values, and the block holds none of the
    ``_SEPARATORS``.  From the first block that fails these, the rest of
    the file, that block's lines included, goes through ``load_dataset``'s
    row parser on the same handle: it words every error with its line
    number in the file, and reads what loadtxt refuses, such as quoted
    numbers (a record may span blocks), ``1_0``, non-ASCII digits,
    whitespace-only rows and non-numeric columns.  A file with no data row
    raises ``SchemaError``.
    """

    def feature_columns(header):
        names = [h.strip() for h in header]
        check_unique_columns([n for n in names if n in feature_names])
        missing = sorted(set(feature_names) - set(names))
        if missing:
            raise SchemaError(f"missing feature column(s): {', '.join(missing)}")
        return [names.index(name) for name in feature_names]

    found = False
    with open(path, newline="", encoding=_ENCODING, errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        header = read_header(reader)
        cols = feature_columns(header)
        before = reader.line_num
        while lines := list(itertools.islice(fh, rows)):
            points = _loadtxt_block(lines, len(header), cols)
            if points is None:
                rest = csv.reader(itertools.chain(lines, fh))
                parsed = _data_rows(rest, len(header), cols, before)
                while block := [values for _, _, values in itertools.islice(parsed, rows)]:
                    found = True
                    yield np.asarray(block, dtype=float)
                break
            found = True
            yield points
            before += len(lines)
    if not found:
        raise SchemaError("no observation rows")


def _loadtxt_block(lines, width, cols):
    """The feature columns of ``lines`` through ``np.loadtxt``, or None
    where ``observation_blocks`` reads them row by row."""
    text = "".join(lines)
    if any(sep in text for sep in _SEPARATORS):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on lines of no rows
            table = np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)
    except (ValueError, Warning):
        return None
    if not table.shape[0] or table.shape[1] != width:
        return None
    points = table.take(cols, axis=1)  # C order, as np.asarray(rows) gives
    return points if np.isfinite(points).all() else None


def format_float(x: float) -> str:
    """Shortest exact decimal form, so files round-trip bit for bit."""
    return repr(float(x))


#: The byte in a ``format_floats`` row that is not part of the text; UTF-8
#: never uses it, so text with it deleted decodes unchanged.
FILL = b"\xff"
#: Columns of a ``format_floats`` row: a sign, the ``0`` of ``0.x``, 17
#: integer digits, the point, three leading fraction zeros, 17 fraction
#: digits, then ``e``, the exponent's sign and three exponent digits.
FLOAT_COLUMNS = 45
#: Floats converted per pass of ``format_floats``, 64 KB per uint64
#: scratch array.  Smaller passes pay numpy's per-call cost more often;
#: larger ones spill the scratch arrays out of the cache.  ``classify``'s
#: writer formats one pass per block of rows.
_FORMAT_CHUNK = 2**13
#: Each row's characters before the digits and the exponent are filled in.
_CANVAS = np.frombuffer(b"-0" + b"0" * 17 + b".000" + b"0" * 17 + b"e+000", dtype=np.uint8)
# Constants of the uint64 arithmetic: under numpy 1.24's casting rules an
# int64 beside a uint64 array promotes the result to float64.
_U = np.uint64
_0, _1, _2, _10, _32, _52, _63 = (_U(v) for v in (0, 1, 2, 10, 32, 52, 63))
_M32, _M52, _M63 = _U(2**32 - 1), _U(2**52 - 1), _U(2**63 - 1)
_EXP_MASK = _U(0x7FF)
_HIDDEN_BIT = _U(2**52)
#: The least decimal exponent of Schubfach's table, that of 2**-1074.
_K_MIN = -324
#: The place of each of ``_digits``'s rows, counting from 1.
_DIGIT_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]


def _floor_log10_pow2(q, quarter):
    """floor(log10(2**q)), or floor(log10(3/4 * 2**q)) where ``quarter``:
    Giulietti's integer forms, exact for every q a float64 has."""
    return (q * 661_971_961_083 - quarter * 274_743_187_321) >> 41


def _floor_log2_pow10(e):
    """floor(log2(10**e)), Giulietti's integer form, exact for every
    |e| <= 324, which covers the decimal exponents of float64."""
    return (e * 913_124_641_741) >> 38


@cache
def _schubfach_table() -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's table for float64 (Giulietti 2020, "The Schubfach way
    to render doubles"), built from exact integers on first use: one
    126-bit entry per decimal exponent k = ``_K_MIN``..292, 617 entries.

    Entry ``k - _K_MIN`` holds the high and low 63 bits of
    g = floor(10**-k * 2**-r) + 1, where r = floor(log2(10**-k)) - 125
    puts 10**-k * 2**-r in [2**125, 2**126).
    """
    g1, g0 = [], []
    for k in range(_K_MIN, 293):
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        r = _floor_log2_pow10(-k) - 125
        g = (num << -r) // den + 1 if r <= 0 else num // (den << r) + 1
        g1.append(g >> 63)
        g0.append(g & (2**63 - 1))
    return np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)


@cache
def _hidden() -> np.ndarray:
    """``FILL`` in the columns of a ``format_floats`` row that ``repr``
    does not show and 0 in the others, by ``(sign, significant digits - 1,
    layout)``.  Layouts 0-19 are positional with the point after digit
    p = layout - 3, and 20 and 21 exponential with a two- and a
    three-digit exponent."""
    shown = np.zeros((2, 17, 22, FLOAT_COLUMNS), dtype=bool)
    for neg in (0, 1):
        for m in range(1, 18):
            for layout in range(22):
                row = shown[neg, m - 1, layout]
                row[0] = neg
                if layout < 20:
                    p = layout - 3
                    row[1] = p <= 0  # the 0 of 0.x
                    row[2:2 + max(p, 0)] = True  # the integer digits
                    row[19] = True
                    row[20:20 - min(p, 0)] = True  # zeros after the point
                    row[23 + max(p, 0):23 + max(m, p + 1)] = True  # at least .0
                else:
                    row[2] = True
                    row[19] = m > 1
                    row[24:23 + m] = True
                    row[40:45] = True
                    row[42] = layout == 21
    return np.where(shown, 0, FILL[0]).astype(np.uint8).reshape(-1, FLOAT_COLUMNS)


def _mul128(g: np.ndarray, lo: np.ndarray, hi: np.ndarray, cp: np.ndarray):
    """(high, low) 64-bit words of the products g * cp, with ``lo`` and
    ``hi`` the 32-bit halves of ``cp``.  Five arrays at most are held,
    and the two returned are among them."""
    low, high = g & _M32, g >> _32
    p01, p10 = low * hi, high * lo
    low *= lo
    low >>= _32
    high *= hi
    for p in (p01, p10):
        high += p >> _32
        p &= _M32
        low += p
    del p, p01, p10
    low >>= _32
    high += low
    return high, np.multiply(g, cp, out=low)


def _add128(a: tuple, high: np.ndarray, low: np.ndarray, sign: int) -> tuple:
    """a + (high, low), or a - (high, low) when ``sign`` < 0, on (high,
    low) word pairs, written over ``high`` and ``low``."""
    if sign > 0:
        low += a[1]
        high += a[0]
        high += low < a[1]
    else:
        borrow = a[1] < low
        np.subtract(a[1], low, out=low)
        np.subtract(a[0], high, out=high)
        high -= borrow
    return high, low


def _round_odd(high0: np.ndarray, p1: tuple) -> np.ndarray:
    """Schubfach's rop: floor((p1 * 2**63 + p0) / 2**127), its lowest bit
    set when the bits dropped are not all zero, where ``p1`` is the
    (high, low) pair of the product of g1 and ``high0`` the high word of
    that of g0.  Written over ``p1``'s words; the result is its high word."""
    top, z = p1
    z >>= _1
    z += high0
    top += z >> _63
    z &= _M63
    z += _M63
    z >>= _63
    top |= z
    return top


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits ``f`` and decimal exponents ``k`` of the shortest decimals
    f * 10**k that round to the normal floats ``x``, the nearest of them
    where there are several, ties to even ``f``: the decimals ``repr``
    shows.  ``f`` has 16 or 17 digits, trailing zeros included.

    The uint64 steps write over arrays that are spent and release them
    once spent, so that a pass holds fewer at a time."""
    g1_table, g0_table = _schubfach_table()
    bits = x.view(np.uint64)
    q = ((bits >> _52) & _EXP_MASK).astype(np.intp)
    c = bits & _M52
    # a significand of 2**52 above the lowest binade has a rounding
    # interval half as wide below as above
    asym = (c == _0) & (q > 1)
    q -= 1075
    c |= _HIDDEN_BIT
    k = _floor_log10_pow2(q, asym)
    h = (q + _floor_log2_pow10(-k) + 2).astype(np.uint64)
    del q
    g1, g0 = g1_table[k - _K_MIN], g0_table[k - _K_MIN]
    odd = (c & _1).astype(bool)
    # vb, vbl, vbr: the float and the bounds of its rounding interval, as
    # 4 (c, c -/+ 1/2) * 2**q * 10**-k, rounded to odd
    c <<= _2
    c <<= h
    lo, hi = c & _M32, c >> _32
    p0 = _mul128(g0, lo, hi, c)
    p1 = _mul128(g1, lo, hi, c)
    del c, lo, hi
    h += _1
    bounds = []
    # a bound's cp is cp -/+ 2**(h + 1), or cp - 2**h below an asym
    # interval, so its products are vb's -/+ g0 and g1 shifted that far
    for shift, sign in ((h - asym, -1), (h, 1)):
        back = _U(64) - shift
        high0 = _add128(p0, g0 >> back, g0 << shift, sign)[0]
        bounds.append(_round_odd(high0, _add128(p1, g1 >> back, g1 << shift, sign)))
    del g0, g1, h, asym, shift, back, high0
    vb = _round_odd(p0[0], p1)
    del p0, p1
    # an odd significand's interval is open: its bounds round away
    vbl, vbr = bounds
    vbl += odd
    vbr -= odd
    del bounds, odd
    s = vb >> _2
    sp10 = (s // _10) * _10
    tp10 = sp10 + _10
    upin = vbl <= sp10 << _2
    wpin = tp10 << _2 <= vbr
    uin = vbl <= s << _2
    win = (s + _1) << _2 <= vbr
    del vbl, vbr, sp10
    mid = (s << _2) + _2
    # s when only s is in the interval, or both or neither are and s is
    # nearer, or as near and even; otherwise s + 1
    pick_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & _1) == _0)))
    # a multiple of 10 in the interval is shorter than s and s + 1
    return np.where(upin != wpin, tp10 - _10 * upin, s + ~pick_s), k


def _digits(f: np.ndarray) -> np.ndarray:
    """(17, n) ASCII digits of each f < 10**17, zero-padded on the left."""
    billion = _U(10**9)
    hi = f // billion
    # the 9 digits of the high and the low halves, taken together
    x = np.stack([hi, f - hi * billion]).astype(np.uint32)
    out = np.empty((2, 9, f.size), dtype=np.uint8)
    ten = np.uint32(10)
    tens = np.empty(x.shape, dtype=np.uint32)
    for j in range(8, -1, -1):
        q = x // ten
        np.multiply(q, ten, out=tens)
        np.subtract(x, tens, out=out[:, j], casting="unsafe")
        x = q
    out += ord("0")
    return out.reshape(18, -1)[1:]


@cache
def _exponents() -> np.ndarray:
    """``e``, the sign and three digits of each exponent from -400 up."""
    return np.frombuffer(
        b"".join(b"e%+04d" % e for e in range(-400, 400)), dtype=np.uint8
    ).reshape(-1, 5)


def format_floats(values) -> np.ndarray:
    """``format_float`` of every element of ``values``, as bytes.

    Returns a (size, ``FLOAT_COLUMNS``) uint8 matrix whose row i, with
    its ``FILL`` bytes deleted, is the ASCII of ``repr`` of the i-th
    element in C order.  Normal floats go through a vectorized Schubfach,
    which finds the shortest round-trip decimal exactly with 64-bit
    integer arithmetic, and are laid out as ``repr`` lays them out:
    positional when the point falls after digit p with -4 < p <= 16,
    otherwise ``d.ddde+XX``.  Zeros, subnormals and non-finite values go
    through ``repr`` one at a time.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    chars = np.empty((x.size, FLOAT_COLUMNS), dtype=np.uint8)
    for start in range(0, x.size, _FORMAT_CHUNK):
        part = slice(start, start + _FORMAT_CHUNK)
        _format_chunk(x[part], chars[part])
    return chars


def _format_chunk(x: np.ndarray, chars: np.ndarray) -> None:
    bits = x.view(np.uint64)
    biased = (bits >> _52) & _EXP_MASK
    special = (biased == _0) | (biased == _EXP_MASK)
    del biased
    f, k = _shortest(np.where(special, 1.0, x) if special.any() else x)
    big = f >= _U(10**16)
    point = k + 16 + big  # the point follows digit `point` of f
    digits = _digits(np.where(big, f, f * _10))
    sig = np.max((digits != ord("0")) * _DIGIT_PLACES, axis=0)
    chars[:] = _CANVAS
    chars[:, 2:19] = digits.T
    chars[:, 23:40] = digits.T
    exponent = point - 1
    positional = (point > -4) & (point <= 16)
    rows = np.flatnonzero(~positional)
    chars[rows, 40:45] = _exponents()[exponent[rows] + 400]
    layout = np.where(positional, point + 3, 20 + (np.abs(exponent) >= 100))
    key = ((bits >> _63).astype(np.intp) * 17 + sig - 1) * 22 + layout
    chars |= _hidden()[key]
    for i in np.flatnonzero(special).tolist():
        text = repr(float(x[i])).encode()
        chars[i] = np.frombuffer(text.ljust(FLOAT_COLUMNS, FILL), dtype=np.uint8)


def set_cells(members: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """The ``,set,set_size`` cells of each distinct row of ``members``, as
    ``csv.writer`` renders them, in UTF-8 padded with ``FILL``: one row of
    a byte matrix per distinct set, and the index of every row's cells.

    Rows are grouped by a stable sort of their packed membership bytes,
    so the sets come in byte order and each is rendered from its first
    row, as ``np.unique`` over the packed rows would give them.
    """
    packed = np.packbits(members, axis=1)
    order = np.lexsort(packed.T[::-1])
    ranked = packed[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = order[starts]
    which = np.empty_like(order)
    which[order] = np.cumsum(starts) - 1
    cells = []
    for r in first.tolist():
        chosen = np.flatnonzero(members[r])
        buf = io.StringIO()
        row = ["", ";".join(labels[i] for i in chosen), chosen.size]
        csv.writer(buf, lineterminator="\n").writerow(row)
        cells.append(buf.getvalue()[:-1].encode("utf-8"))
    width = max((len(c) for c in cells), default=0)
    chars = np.frombuffer(b"".join(c.ljust(width, FILL) for c in cells), dtype=np.uint8)
    return chars.reshape(len(cells), width), which


def _csv_writer(fh, metadata, header):
    """Write a report's first lines, ``metadata`` as a ``#`` line of its
    canonical JSON where given and the ``header`` row; return the writer."""
    if metadata is not None:
        fh.write("# " + json.dumps(metadata, sort_keys=True) + "\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    return writer


def write_sets(fh, labels, metadata, blocks, oracle: bool) -> int:
    """Write ``classify``'s report of sets, with the ``oracle_value``
    column where ``oracle``: a line per row of each ``(post, members,
    values, oracle values or None)`` block of ``blocks``, the rows
    numbered from 1 across the blocks.  Returns the number of rows."""
    _csv_writer(fh, metadata, ["row", *(f"p_{label}" for label in labels), "set", "set_size",
                               "value", *(["oracle_value"] if oracle else [])])
    done = 0
    for block in blocks:
        done += _write_set_lines(fh, labels, done, *block)
        del block  # released, as the writer's scratch is, before the next is decided
    return done


def _write_set_lines(fh, labels, before, post, members, values, oracle) -> int:
    """Write one block's lines of ``write_sets``, its rows numbered on from
    ``before``, and return its row count.  Its scratch is released on
    return, before ``blocks`` decides the next block.

    A pass over the block formats ``_FORMAT_CHUNK`` floats at most (and one
    row at least), so the scratch is set by the chunk, not by the rows.
    It fills a byte matrix, reused from pass to pass, with the row numbers,
    the floats, the set cells from ``set_cells`` and the separators, and
    writes the matrix with every ``FILL`` byte deleted.
    """
    tail = [values] if oracle is None else [values, oracle]
    cells, which = set_cells(members, labels)
    n_rows, n_post = post.shape
    n_floats = n_post + len(tail)
    per_pass = max(1, min(_FORMAT_CHUNK // n_floats, n_rows))
    powers = 10 ** np.arange(len(str(before + n_rows)) - 1, -1, -1)
    # a line: the row number, a comma and a float per posterior column,
    # the set's cells, a comma and a float per tail column, the newline
    field = FLOAT_COLUMNS + 1
    at_cells = powers.size + field * n_post
    at_tail = at_cells + cells.shape[1]
    lines = np.empty((per_pass, at_tail + field * len(tail) + 1), dtype=np.uint8)
    head_fields = lines[:, powers.size:at_cells].reshape(per_pass, n_post, field)
    tail_fields = lines[:, at_tail:-1].reshape(per_pass, len(tail), field)
    head_fields[:, :, 0] = tail_fields[:, :, 0] = ord(",")
    lines[:, -1] = ord("\n")
    floats = np.empty((per_pass, n_floats))
    for start in range(0, n_rows, per_pass):
        stop = min(start + per_pass, n_rows)
        m = stop - start
        floats[:m, :n_post] = post[start:stop]
        for j, column in enumerate(tail, start=n_post):
            floats[:m, j] = column[start:stop]
        chars = format_floats(floats[:m]).reshape(m, n_floats, FLOAT_COLUMNS)
        head_fields[:m, :, 1:] = chars[:, :n_post]
        tail_fields[:m, :, 1:] = chars[:, n_post:]
        rows = np.arange(before + start + 1, before + stop + 1)[:, None]
        # the row number, its leading zeros filled
        lines[:m, :powers.size] = np.where(rows >= powers, rows // powers % 10 + ord("0"), FILL[0])
        lines[:m, at_cells:at_tail] = cells[which[start:stop]]
        fh.write(lines[:m].tobytes().translate(None, FILL).decode("utf-8"))
    return n_rows


def write_curve(fh, metadata, rows) -> None:
    """Write ``tune``'s report of rate curves, a line per ``(cost,
    rate_R1..rate_R4)`` row of ``rows`` in ``format_float``'s form."""
    writer = _csv_writer(fh, metadata, ["b", "rate_R1", "rate_R2", "rate_R3", "rate_R4"])
    writer.writerows([format_float(v) for v in row] for row in rows)


def _standard_stream(path) -> int | None:
    """1 or 2 if ``path`` names the file that stdout or stderr writes to."""
    with contextlib.suppress(OSError):
        return next((fd for fd in (1, 2) if os.path.samestat(os.stat(path), os.fstat(fd))), None)


@contextlib.contextmanager
def open_reports(*paths):
    """Text handles, one per path of ``paths``, whose files appear only
    complete.

    Each path is written to a temporary file in its directory.  Once the
    ``with`` block ends without an exception the temporary files replace
    the paths, in order; on an exception they are removed, and every path
    keeps what it held.  So a path may also name an input that the block
    reads.  A symbolic link stays a link to the replaced file, and an
    existing file that is not a regular one, such as a pipe,
    ``/dev/null`` or ``/dev/stdout``, is written in place; stdout's or
    stderr's file through a copy of the stream, so one offset serves both.
    Opening is the check of the paths: one that cannot be opened so raises
    ``OSError("cannot write PATH: reason")`` before anything is written.
    """
    staged = []
    try:
        with contextlib.ExitStack() as stack:
            handles = []
            for path in paths:
                target = os.path.realpath(path)
                try:
                    if (stream := _standard_stream(path)) is not None:
                        temp, fh = None, open(os.dup(stream), "w", newline="", encoding="utf-8")
                    elif os.path.exists(path) and not os.path.isfile(path):
                        temp, fh = None, open(path, "w", newline="", encoding="utf-8")
                    else:
                        folder, name = os.path.split(target)
                        temp = os.path.join(folder, f".{name}.{os.urandom(4).hex()}.tmp")
                        fh = open(temp, "x", newline="", encoding="utf-8")
                except OSError as exc:
                    raise OSError(f"cannot write {path}: {exc.strerror}") from None
                staged.append((temp, target))
                handles.append(stack.enter_context(fh))
            yield handles
        for temp, target in staged:
            if temp:
                os.replace(temp, target)
    except BaseException:
        for temp, _ in staged:
            if temp:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(temp)
        raise


def write_dataset(fh, feature_names, rows, labels, blocks=None, metadata=None) -> None:
    """Write a dataset CSV in the format ``load_dataset`` reads to the text
    handle ``fh``, led by ``metadata``'s ``#`` line where given."""
    names = [labels] if blocks is None else [labels, blocks]
    header = [*feature_names, "label"] + ([] if blocks is None else ["block"])
    writer = _csv_writer(fh, metadata, header)
    for row, *text in zip(np.asarray(rows, dtype=float), *names, strict=True):
        writer.writerow([*map(format_float, row), *text])


@dataclass(frozen=True)
class GeneratorCategory:
    label: str
    block: str | None
    count: int
    mean: np.ndarray
    cov: np.ndarray


def parse_generator_spec(obj: dict) -> tuple[list[GeneratorCategory], tuple[str, ...]]:
    """Validate a synthetic-data specification.

    The JSON object carries a ``categories`` list; each entry has a label,
    an optional block, a count in 0..``MAX_SAMPLES``, a mean vector, and a
    covariance matrix that must be finite, symmetric and positive definite.
    An optional top-level ``feature_names`` list names the columns
    (default f1..fd).
    Returns the categories and the feature names.
    """
    entries, names = json_fields(obj, "generator spec", (
        ("categories", list[dict]), ("feature_names", list[str], None),
    ))
    fields = (("label", str), ("block", str, None), ("count", int),
              ("mean", list[float]), ("cov", list[list[float]]))
    cats = []
    dim = None
    for pos, entry in enumerate(entries, start=1):
        label, block, count, mean, cov = json_fields(entry, f"category {pos}", fields)
        if count < 0:
            raise SchemaError(f"category {pos}: negative count {count}")
        if count > MAX_SAMPLES:
            raise SchemaError(f"category {pos}: count {count} above {MAX_SAMPLES}")
        if dim is None:
            dim = len(mean)
        if len(mean) != dim or len(cov) != dim or any(len(row) != dim for row in cov):
            raise SchemaError(
                f"category {pos}: dimensions disagree with earlier categories"
            )
        mean, cov = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise SchemaError(f"category {pos}: mean and covariance must be finite")
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise SchemaError(f"category {pos}: covariance is not symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise SchemaError(
                f"category {pos}: covariance is not positive definite"
            ) from None
        cats.append(GeneratorCategory(label, block, count, mean, cov))
    if not cats:
        raise SchemaError("generator spec has no categories")
    if len({c.block is None for c in cats}) > 1:
        raise SchemaError("either every category has a block or none does")
    labels = [c.label for c in cats]
    if len(set(labels)) != len(labels):
        raise SchemaError("duplicate category labels in generator spec")
    if names is None:
        return cats, tuple(f"f{idx}" for idx in range(1, dim + 1))
    if len(names) != dim:
        raise SchemaError(f"{len(names)} feature names for dimension {dim}")
    if len(set(names)) != dim or {"label", "block"} & set(names):
        raise SchemaError("feature names must be unique and not 'label'/'block'")
    return cats, tuple(names)


def generate_rows(
    categories: list[GeneratorCategory], seed: int
) -> tuple[np.ndarray, list[str], list[str] | None]:
    """Draw Gaussian observations for every category of a generator spec.

    Category number i uses its own random stream keyed by (seed, i), so
    editing one category's count never changes another category's rows.
    Zero-count categories are skipped with a warning on stderr.
    """
    all_rows = []
    labels: list[str] = []
    blocks: list[str] | None = [] if categories[0].block is not None else None
    for idx, cat in enumerate(categories, start=1):
        if cat.count == 0:
            print(
                f"warning: category {cat.label!r} has count 0 and is omitted",
                file=sys.stderr,
            )
            continue
        rng = np.random.default_rng([int(seed), idx])
        chol = np.linalg.cholesky(cat.cov)
        eps = rng.standard_normal((cat.count, cat.mean.size))
        all_rows.append(cat.mean + eps @ chol.T)
        labels.extend([cat.label] * cat.count)
        if blocks is not None:
            blocks.extend([cat.block] * cat.count)
    if not all_rows:
        raise SchemaError("every category has count 0; nothing to write")
    return np.vstack(all_rows), labels, blocks
