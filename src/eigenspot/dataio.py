"""File ingestion, tensor schema application, and report serialization.

CSV ingestion is schema-driven: a :class:`RecordSchema` maps file columns
onto tensor modes, with multi-column attribute bundles merged into a
single mode whose categories are the Cartesian product of the component
category lists (joined with ``|``, last column varying fastest). Category
order is first-appearance order unless an explicit list is supplied,
so runs over differently sorted files are only reproducible with
explicit lists.

All JSON documents are written through a fixed-format emitter: keys keep
insertion order and floats are printed with 12 significant digits, which
makes output files byte-stable for identical inputs.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import operator
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence, TextIO

import csv

import numpy as np

from .errors import InputError
from .eigenmatch import (
    ClusterSet,
    DiffVector,
    HotspotReport,
    NeighborMatrix,
    SpatialPartition,
    TemporalResult,
)
from .tensors import CountTensor, ModeKind, ModeLabel

if TYPE_CHECKING:  # the scan is imported only to read a scan document back
    from .stscan import ScanCylinder, ScanResult


REPORT_SCHEMA = "hotspot-report/1"
SCAN_SCHEMA = "scan-result/1"
TENSOR_SCHEMA = "count-tensor/1"


# ---------------------------------------------------------------------------
# record schemas and CSV ingestion


@dataclass(frozen=True)
class ModeSpec:
    """One tensor mode and the file column(s) that feed it."""

    name: str
    kind: ModeKind
    columns: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        if not self.columns:
            raise InputError(f"mode {self.name!r} maps no columns", module="dataio")
        if self.kind in ("space", "time") and len(self.columns) != 1:
            raise InputError(
                f"{self.kind} mode {self.name!r} must map exactly one column",
                module="dataio",
            )


@dataclass(frozen=True)
class RecordSchema:
    """Column-to-mode mapping with optional explicit category lists."""

    modes: tuple[ModeSpec, ...]
    count_column: str | None = None
    categories: Mapping[str, tuple[str, ...]] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", tuple(self.modes))
        kinds = [m.kind for m in self.modes]
        if kinds.count("space") != 1 or kinds.count("time") != 1:
            raise InputError(
                "schema needs exactly one space mode and one time mode",
                module="dataio",
            )
        names = [m.name for m in self.modes]
        twice = sorted({n for n in names if names.count(n) > 1})
        if twice:
            raise InputError(f"schema names mode {twice[0]!r} twice", module="dataio")
        cols = self.flat_columns()
        if len(set(cols)) != len(cols):
            raise InputError("schema maps a column twice", module="dataio")
        if not isinstance(self.count_column, (str, type(None))):
            raise InputError(
                f"count column must be a string, not {type(self.count_column).__name__}",
                module="dataio",
            )
        if self.count_column in cols:
            # the column's values would be read both as categories and as counts
            raise InputError(
                f"count column {self.count_column!r} is also a mapped column", module="dataio"
            )
        if self.categories is not None:
            if not isinstance(self.categories, Mapping):
                raise InputError(
                    "explicit categories must map each column to a list", module="dataio"
                )
            # a string would split into characters and a number is no list at all
            for col, values in self.categories.items():
                if not isinstance(values, (list, tuple)):
                    raise InputError(
                        f"explicit categories for column {col!r} must be a list, "
                        f"not {type(values).__name__}",
                        module="dataio",
                    )
            cats = {k: tuple(v) for k, v in self.categories.items()}
            unknown = set(cats) - set(cols)
            if unknown:
                raise InputError(
                    f"explicit categories for unmapped columns: {sorted(unknown)}",
                    module="dataio",
                )
            # CSV values are strings, so any other category would match no row
            for col, values in cats.items():
                for v in values:
                    if not isinstance(v, str):
                        raise InputError(
                            f"explicit category {v!r} for column {col!r} is not a string",
                            module="dataio",
                        )
            object.__setattr__(self, "categories", cats)

    def flat_columns(self) -> tuple[str, ...]:
        return tuple(c for m in self.modes for c in m.columns)


@contextmanager
def malformed(kind: str) -> Iterator[None]:
    """Raise the errors that reading a parsed JSON document of the wrong shape
    raises (a missing key, a list where a mapping belongs, ...) as
    :class:`InputError`; works as a decorator too."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise InputError(f"malformed {kind} document: {exc}", module="dataio") from exc


@malformed("schema")
def load_schema(source: Any) -> RecordSchema:
    """Read a RecordSchema from a JSON file, path, or parsed dict."""
    doc = source if isinstance(source, Mapping) else read_json(source)
    modes = tuple(
        ModeSpec(name=m["name"], kind=m["kind"], columns=tuple(m["columns"]))
        for m in doc["modes"]
    )
    return RecordSchema(
        modes=modes,
        count_column=doc.get("count_column"),
        categories=doc.get("categories") or None,
    )


# the chunk bound: the file is read _BLOCK characters at a time, and no
# field string outlives its chunk
_BLOCK = 1 << 18

# _MASKS[k] keeps the first k bytes of a little-endian word, k = 0..8
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# the odd multiplier and the shift that mix a long field's words into its key
_MIX = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(29)

# a chunk's column: its distinct stripped values, and each record's index into them
Column = tuple[list[str], np.ndarray]


@dataclass(frozen=True)
class ParsedRecords:
    """One file's kept rows in row order: per mapped column, integer ``codes``
    into its ``categories`` (in first appearance over the kept rows), and a
    float64 ``counts`` array; ``rows`` also counts the rows excluded for an
    unknown category."""

    codes: dict[str, np.ndarray]
    categories: dict[str, tuple[str, ...]]
    counts: np.ndarray
    unknown: dict[str, tuple[str, ...]]
    rows: int


@contextmanager
def _open_text(source: Any, mode: str = "r") -> Iterator[TextIO]:
    if isinstance(source, (str, Path)):
        with open(source, mode, encoding="utf-8-sig" if "r" in mode else "utf-8", newline="") as fh:
            try:
                yield fh
            except UnicodeDecodeError as exc:
                try:  # the error counts from the start of one decoded chunk, not of the file
                    Path(source).read_bytes().decode("utf-8")
                except UnicodeDecodeError as whole:
                    exc = whole
                raise InputError(
                    f"{source} is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
                    f"at offset {exc.start}",
                    module="dataio",
                ) from None
    elif isinstance(source, io.TextIOBase) or hasattr(source, "read") or hasattr(source, "write"):
        yield source
    else:
        raise InputError(f"cannot open {type(source).__name__} as text", module="dataio")


def read_json(source: Any) -> Any:
    """Parse the JSON document in a path or text stream; text that is not
    UTF-8 or not JSON raises :class:`InputError` naming the source."""
    with _open_text(source) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            name = source if isinstance(source, (str, Path)) else getattr(fh, "name", "input")
            raise InputError(f"{name} is not valid JSON: {exc}", module="dataio") from None


def _numbering() -> defaultdict[str, int]:
    """A dict that gives each new key the next number, from 0."""
    numbers: defaultdict[str, int] = defaultdict()
    numbers.default_factory = numbers.__len__
    return numbers


def _stripped(raw: list[str], index: np.ndarray) -> Column:
    """A column of distinct values ``raw``, with every value stripped and
    the values that strip to one string merged."""
    values = list(map(str.strip, raw))
    if values == raw:
        return raw, index
    merged = _numbering()
    remap = np.fromiter(map(merged.__getitem__, values), np.intp, len(values))
    return list(merged), remap[index]


def _indexed(fields: list[str]) -> Column:
    """The column of ``fields``, from one dict pass."""
    seen = _numbering()
    index = np.fromiter(map(seen.__getitem__, fields), np.intp, len(fields))
    return _stripped(list(seen), index)


def _byte_columns(buf: bytes, starts: np.ndarray, stops: np.ndarray) -> list[Column] | None:
    """The columns of a plain chunk, whose UTF-8 bytes are ``buf`` and whose
    field ``j`` of record ``i`` is ``buf[starts[i, j]:stops[i, j]]``; None when
    two different fields of a column share a key.

    A field of at most 8 bytes is keyed on those bytes, read as one
    little-endian word, and a longer one on its length and the sum of its
    words, each mixed with its place. Each column's fields are grouped by
    key, and only one field of each group is decoded. A longer field is
    checked word by word against that field of its group, so the work on
    long fields grows with their bytes.
    """
    # words[i] is the word of the 8 bytes at offset i, read unaligned
    words = np.ndarray((len(buf) + 1,), "<u8", buf + bytes(8), strides=(1,))
    sizes = stops - starts
    keys = words[starts]
    keys &= _MASKS[np.minimum(sizes, 8)]
    columns = []
    for start, stop, size, key in zip(starts.T, stops.T, sizes.T, keys.T):
        long = np.flatnonzero(size > 8)
        if long.size:
            # the words of the long fields one after another: word k of a
            # field is at its start + offset, offset = 8k
            count = (size[long] + 7) // 8
            begin = np.cumsum(count) - count
            place = np.arange(begin[-1] + count[-1]) - np.repeat(begin, count)
            offset = 8 * place
            mask = _MASKS[np.minimum(np.repeat(size[long], count) - offset, 8)]
            part = words[np.repeat(start[long], count) + offset] & mask
            mixed = (part ^ place.astype(np.uint64) * _MIX) * _MIX
            mixed ^= mixed >> _SHIFT
            mixed = (np.add.reduceat(mixed, begin) ^ size[long].astype(np.uint64)) * _MIX
            key[long] = mixed ^ mixed >> _SHIFT
        distinct, group = np.unique(key, return_inverse=True)
        first = np.empty(distinct.size, dtype=np.intp)
        first[group] = np.arange(group.size)  # a field of each group
        if long.size:
            to = first[group]  # the decoded field with each field's key
            if (size[to] != size).any():
                return None
            # of equal size, so with the same words masked alike
            if ((words[np.repeat(start[to[long]], count) + offset] & mask) != part).any():
                return None
        raw = [
            buf[a:b].decode("utf-8", "surrogatepass")
            for a, b in zip(start[first].tolist(), stop[first].tolist())
        ]
        columns.append(_stripped(raw, group))
    return columns


def _csv_columns(rows: list[list[str]]) -> tuple[list[Column], np.ndarray]:
    """One chunk's records read by :mod:`csv` as ``(columns, lengths)``,
    padded to the chunk's longest record, and each column grouped in one
    dict pass."""
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    full = int(lengths.max())
    pad = full - lengths
    if pad.any():
        fill = map(operator.mul, itertools.repeat([""]), pad.tolist())
        rows = list(map(list.__add__, rows, fill))
    flat = list(itertools.chain.from_iterable(rows))
    del rows
    return [_indexed(flat[j::full]) for j in range(full)], lengths


def _tokenize(fh: TextIO) -> Iterator[tuple[list[Column], np.ndarray]]:
    """Split a file's records into columns of whole, stripped fields, a chunk at a time.

    Yields ``(columns, lengths)`` per chunk, the header being the first
    record of the first chunk: ``columns[j]`` is field ``j`` of each record
    as ``(values, index)``, the field of record ``i`` being
    ``values[index[i]]``, with ``values`` the chunk's distinct stripped
    values of the field and a record's missing trailing fields read as
    ``""`` up to the chunk's widest record; ``lengths`` is each record's
    own field count. LF, CRLF and a lone CR each end a line, so a stream
    reads alike whether it keeps or translates its line breaks.

    The file is read ``_BLOCK`` characters at a time, and a chunk is the
    text read so far up to its last LF, or up to a later CR that does not
    end the text (one that does may begin a CRLF): a record longer than a
    block waits for the blocks that end it. A chunk with no ``"``
    character, no NUL (which ``csv`` rejects before Python 3.11) and no
    lone CR, whose every line has the field count of the chunk's own first
    line, is plain: its fields are cut from its UTF-8 bytes at the commas
    and line ends and grouped by their bytes (see :func:`_byte_columns`),
    so that Python decodes and strips only each column's distinct values.
    Any other chunk is read by :mod:`csv` alone, whose records may quote
    commas and line breaks; when its cut lies inside a quoted field, the
    next block is read into the same chunk. Only the text not yet split
    passes from one chunk to the next, which is judged by its own lines.
    """
    text = ""  # the text read and not yet split
    while True:
        block = fh.read(_BLOCK)
        text += block
        if block:
            end = text.rfind("\n") + 1
            # or at a later CR, unless it ends the text: it may begin a CRLF
            end = text.rfind("\r", end, len(text) - 1) + 1 or end
        else:
            end = len(text)  # the last record may lack a line break
        if not end:
            if block:
                continue
            return  # every chunk was split
        lines, text = text[:end], text[end:]
        plain = '"' not in lines and "\0" not in lines
        if plain and "\r" in lines:  # only here: a quoted field keeps its CRLF
            lines = lines.replace("\r\n", "\n")
            plain = "\r" not in lines
        columns = None
        if plain:
            # the UTF-8 bytes of the lines, each ending in a line break
            buf = lines.encode("utf-8", "surrogatepass") + (b"" if block else b"\n")
            data = np.frombuffer(buf, np.uint8)
            stops = np.flatnonzero((data == ord(",")) | (data == ord("\n")))  # each field's end
            ends = data[stops] == ord("\n")
            del data
            width = int(ends.argmax()) + 1  # the field count of the chunk's first line
            height = stops.size // width
            # each line has width fields when every width-th field
            # ends a line and no other does
            if stops.size == height * width and ends[width - 1 :: width].all() and ends.sum() == height:
                shape = (height, width)
                starts = np.concatenate(([0], stops[:-1] + 1))
                columns = _byte_columns(buf, starts.reshape(shape), stops.reshape(shape))
            del buf, stops, ends
        if columns is not None:
            del lines
            yield columns, np.full(height, width)
            del columns  # before the next block is read
            continue
        # the line 'x"' after the cut is a record of its own when the cut
        # ends a record; inside a quoted field, its quote ends that field
        try:
            rows = list(csv.reader(io.StringIO(lines + ('x"\n' if block else ""), newline="")))
        except csv.Error as exc:
            raise InputError(f"malformed CSV: {exc}", module="dataio") from None
        if block and rows.pop() != ['x"']:
            text = lines + text  # read the next block into this chunk
            continue
        del lines
        columns, lengths = _csv_columns(rows)
        del rows
        yield columns, lengths
        del columns, lengths


def _blank_rows(columns: Sequence[Column], n: int) -> np.ndarray:
    """Mask of the ``n`` records whose every field is ``""``."""
    if not all("" in values for values, _ in columns):
        return np.zeros(n, dtype=bool)
    blank = np.ones(n, dtype=bool)
    for values, index in columns:
        blank &= index == values.index("")
    return blank


def _chunk_counts(
    raw: Column | None,
    lengths: np.ndarray,
    row_at: np.ndarray,
    last_col: int,
) -> np.ndarray:
    """The counts (``raw``, or 1.0 each when None) of a chunk's non-blank rows,
    numbered ``row_at``, of ``lengths`` fields each, or the chunk's first error.

    Each check runs over the distinct count values, and its result reaches
    the rows through their index; a check records its first failing row as
    (row, rank, message), and min() then takes the first row in file order
    and, within it, the lowest rank.
    """
    errors: list[tuple[int, int, str]] = []
    short = np.flatnonzero(lengths <= last_col)
    if short.size:
        errors.append((short[0], 0, f"row {row_at[short[0]]} is shorter than the header"))
    if raw is None:
        counts = np.ones(len(row_at))
    else:
        distinct, index = raw
        parsed = np.zeros(len(distinct))
        numeric = np.ones(len(distinct), dtype=bool)
        for i, v in enumerate(distinct):
            try:
                parsed[i] = float(v)
            except ValueError:
                numeric[i] = False
        failed = np.flatnonzero(~numeric[index])
        if failed.size:
            at = failed[0]
            errors.append(
                (at, 1, f"non-numeric count {distinct[index[at]]!r} at row {row_at[at]}")
            )
        counts = parsed[index]
        bad = np.flatnonzero(((parsed < 0) | ~np.isfinite(parsed))[index])
        if bad.size:
            errors.append(
                (bad[0], 2, f"count must be finite and non-negative at row {row_at[bad[0]]}")
            )
    if errors:
        raise InputError(min(errors)[2], module="dataio")
    return counts


def _codes(numbers: defaultdict[str, int], column: Column) -> np.ndarray:
    """A column's file-wide codes, ``numbers`` numbering its values in first
    appearance over the file."""
    values, index = column
    first = np.full(len(values), index.size)
    np.minimum.at(first, index, np.arange(index.size))
    seen = np.argsort(first)[: np.count_nonzero(first < index.size)]  # in first appearance
    lookup = np.zeros(len(values), dtype=np.intp)
    lookup[seen] = [numbers[values[i]] for i in seen.tolist()]
    return lookup[index]


def _header_columns(header: list[str], schema: RecordSchema) -> tuple[list[int], int | None]:
    """Field indices of the schema's mapped columns and of its count column."""
    seen: dict[str, int] = {}
    for i, h in enumerate(header):
        if h in seen:
            raise InputError(f"duplicate header column {h!r}", module="dataio")
        seen[h] = i
    missing = [c for c in schema.flat_columns() if c not in seen]
    if missing:
        raise InputError(f"missing mapped column(s): {missing}", module="dataio")
    count_idx = None
    if schema.count_column is not None:
        if schema.count_column not in seen:
            raise InputError(
                f"missing count column {schema.count_column!r}", module="dataio"
            )
        count_idx = seen[schema.count_column]
    return [seen[c] for c in schema.flat_columns()], count_idx


def parse_records(source: Any, schema: RecordSchema) -> ParsedRecords:
    """Parse a comma-separated file under a schema.

    Each kept row contributes its mapped column values plus a count (1.0
    when the schema names no count column). Blank rows are skipped. Rows
    whose value falls outside an explicit category list are excluded from
    the columns but collected in the unknown-category report rather than
    silently dropped. The first bad row in file order raises
    :class:`InputError`; within a row, a missing mapped field is reported
    before a non-numeric count, and that before a negative or non-finite one.
    The file is read a chunk at a time (see :func:`_tokenize`), and each
    chunk's values become integer codes before the next chunk is read.
    """
    cols = schema.flat_columns()
    explicit = {c: set(v).__contains__ for c, v in (schema.categories or {}).items()}
    numbers = {c: _numbering() for c in cols}  # value -> code, in first appearance
    codes: dict[str, list[np.ndarray]] = {c: [np.zeros(0, np.intp)] for c in cols}
    counts = [np.zeros(0)]
    outside: dict[str, set[str]] = {c: set() for c in explicit}
    rows = 0
    record = 0  # records read before the chunk; the header is record 1
    with _open_text(source) as fh:
        for columns, lengths in _tokenize(fh):
            if not record:  # the first chunk starts with the header
                col_idx, count_idx = _header_columns(
                    [values[index[0]] for values, index in columns[: lengths[0]]], schema
                )
                read = [i for i in (*col_idx, count_idx) if i is not None]
                columns = [(values, index[1:]) for values, index in columns]
                lengths, record = lengths[1:], 1
            if len(columns) <= max(read):  # a chunk is as wide as its widest record
                columns += [([""], np.zeros(len(lengths), np.intp))] * (max(read) + 1 - len(columns))
            live = ~_blank_rows(columns, len(lengths))
            row_at = np.flatnonzero(live) + record + 1
            # the columns read below, of the non-blank rows
            used = {i: columns[i] for i in read}
            if not live.all():
                used = {i: (values, index[live]) for i, (values, index) in used.items()}
            chunk_counts = _chunk_counts(
                None if count_idx is None else used[count_idx],
                lengths[live], row_at, max(col_idx),
            )
            kept = {c: used[i] for c, i in zip(cols, col_idx)}
            record += len(lengths)
            rows += len(row_at)

            excluded = np.zeros(len(row_at), dtype=bool)
            for c, allowed in explicit.items():
                values, index = kept[c]
                out = ~np.fromiter(map(allowed, values), bool, len(values))
                out_rows = out[index]
                if out_rows.any():
                    hit = np.zeros(len(values), dtype=bool)
                    hit[index[out_rows]] = True
                    outside[c].update(itertools.compress(values, hit.tolist()))
                    excluded |= out_rows
            if excluded.any():
                kept = {c: (values, index[~excluded]) for c, (values, index) in kept.items()}
            counts.append(chunk_counts[~excluded])
            for c, column in kept.items():
                codes[c].append(_codes(numbers[c], column))
            del columns, used, kept  # before the next chunk is read
    if not record:
        raise InputError("empty input: no header row", module="dataio")
    return ParsedRecords(
        codes={c: np.concatenate(codes.pop(c)) for c in cols},  # frees each column's parts
        categories={c: tuple(numbers[c]) for c in cols},
        counts=np.concatenate(counts),
        unknown={c: tuple(sorted(outside[c])) for c in sorted(outside) if outside[c]},
        rows=rows,
    )


BUNDLE_JOIN = "|"


def _column_categories(
    parsed_files: Sequence[ParsedRecords],
    schema: RecordSchema,
) -> dict[str, tuple[str, ...]]:
    """Explicit category lists where given, else first appearance over the files in turn."""
    explicit = schema.categories or {}
    out: dict[str, tuple[str, ...]] = {}
    for col in schema.flat_columns():
        if col in explicit:
            out[col] = tuple(explicit[col])
            continue
        out[col] = tuple(dict.fromkeys(itertools.chain(*(p.categories[col] for p in parsed_files))))
        if not out[col]:
            raise InputError(
                f"cannot infer categories for column {col!r} from empty input; "
                "supply an explicit list",
                module="dataio",
            )
    return out


def build_tensor(parsed: ParsedRecords, schema: RecordSchema) -> CountTensor:
    """Accumulate one file's parsed rows into a dense count tensor.

    Bundled modes enumerate the full Cartesian product of their component
    category lists (absent combinations stay zero), so the mode dim is the
    product of the component counts. Each cell adds its rows' counts in
    row order, starting from zero.
    """
    col_cats = _column_categories((parsed,), schema)

    labels = []
    for mode in schema.modes:
        if len(mode.columns) == 1:
            cats = col_cats[mode.columns[0]]
        else:
            cats = tuple(
                BUNDLE_JOIN.join(combo)
                for combo in itertools.product(*(col_cats[c] for c in mode.columns))
            )
        labels.append(ModeLabel(kind=mode.kind, categories=cats, name=mode.name))

    # each file category's place in the tensor's list; the last column varies
    # fastest, as in the bundle labels and the mode order
    flat = np.zeros(len(parsed.counts), dtype=np.intp)
    for c in schema.flat_columns():
        index = {v: i for i, v in enumerate(col_cats[c])}
        try:
            lookup = np.array([index[v] for v in parsed.categories[c]], dtype=np.intp)
        except KeyError as exc:
            # categories come in first appearance, so this is the first row's value
            raise InputError(
                f"category {exc.args[0]!r} not in the explicit list for column {c!r}",
                module="dataio",
            ) from None
        flat *= len(col_cats[c])
        flat += lookup[parsed.codes[c]]
    dims = tuple(l.dim for l in labels)
    values = np.bincount(flat, weights=parsed.counts, minlength=math.prod(dims))
    return CountTensor(tuple(labels), values.reshape(dims))


def _geometry_rows(source: Any, header: bool) -> Iterator[tuple[int, list[str]]]:
    """A geometry file's records as (record number, stripped cells), without
    the first record when ``header`` is set and without blank records; read
    by :func:`_tokenize`, as record files are."""
    record = 0  # records read before the chunk
    with _open_text(source) as fh:
        for columns, lengths in _tokenize(fh):
            rows = zip(*(map(values.__getitem__, index.tolist()) for values, index in columns))
            for lineno, length, row in zip(itertools.count(record + 1), lengths.tolist(), rows):
                if any(row) and not (header and lineno == 1):  # a padded cell is ""
                    yield lineno, list(row[:length])
            record += len(lengths)


def parse_adjacency(
    source: Any,
    regions: Sequence[str],
    header: bool = False,
) -> NeighborMatrix:
    """Read region pairs and close them symmetrically.

    Each row names two distinct regions; listing a pair once sets both
    directions. Unknown region ids and self-pairs are rejected, and the
    diagonal is always false.
    """
    regions = tuple(regions)
    index = {r: i for i, r in enumerate(regions)}
    adj = np.zeros((len(regions), len(regions)), dtype=bool)
    for lineno, row in _geometry_rows(source, header):
        if len(row) != 2:
            raise InputError(
                f"adjacency row {lineno} must have exactly two columns",
                module="dataio",
            )
        a, b = row
        for r in (a, b):
            if r not in index:
                raise InputError(
                    f"unknown region {r!r} at adjacency row {lineno}",
                    module="dataio",
                )
        if a == b:
            raise InputError(
                f"self-pair {a!r} rejected at adjacency row {lineno}",
                module="dataio",
            )
        adj[index[a], index[b]] = True
        adj[index[b], index[a]] = True
    return NeighborMatrix(adjacency=adj, regions=regions)


def parse_centroids(source: Any, regions: Sequence[str]) -> np.ndarray:
    """Read the region,x,y rows after the header into an (n, 2) array
    aligned with ``regions``."""
    regions = tuple(regions)
    index = {r: i for i, r in enumerate(regions)}
    coords = np.zeros((len(regions), 2))
    seen: set[str] = set()
    for lineno, row in _geometry_rows(source, header=True):
        if len(row) != 3:
            raise InputError(
                f"centroid row {lineno} must be region,x,y", module="dataio"
            )
        r = row[0]
        if r not in index:
            raise InputError(
                f"unknown region {r!r} at centroid row {lineno}", module="dataio"
            )
        if r in seen:
            raise InputError(
                f"region {r!r} listed twice in centroids", module="dataio"
            )
        seen.add(r)
        try:
            coords[index[r]] = (float(row[1]), float(row[2]))
        except ValueError:
            raise InputError(
                f"non-numeric coordinate at centroid row {lineno}", module="dataio"
            ) from None
        if not np.isfinite(coords[index[r]]).all():
            raise InputError(
                f"non-finite coordinate at centroid row {lineno}", module="dataio"
            )
    missing = [r for r in regions if r not in seen]
    if missing:
        raise InputError(f"missing centroids for region(s): {missing}", module="dataio")
    return coords


# ---------------------------------------------------------------------------
# fixed-format JSON emission


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        raise InputError("cannot serialize a non-finite number", module="dataio")
    return format(float(x), ".12g")


def _emit(value: Any, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_format_float(float(value)))
    elif isinstance(value, Mapping):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _emit(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)) or isinstance(value, np.ndarray):
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        raise InputError(
            f"cannot serialize {type(value).__name__}", module="dataio"
        )


def dumps_stable(value: Any) -> str:
    """Serialize to JSON with insertion-ordered keys and .12g floats.

    Identical inputs always produce identical bytes, which is what the
    determinism contract of the writers rests on.
    """
    out: list[str] = []
    _emit(value, out)
    return "".join(out) + "\n"


def write_json(doc: Any, destination: Any = None) -> None:
    """Write ``doc`` through :func:`dumps_stable` to a path or text stream, or
    to stdout when ``destination`` is None. A file gets LF line ends on every OS."""
    text = dumps_stable(doc)
    with _open_text(sys.stdout if destination is None else destination, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# report documents


def report_to_dict(report: HotspotReport) -> dict[str, Any]:
    return {
        "schema": REPORT_SCHEMA,
        "config": {
            "ranks": list(report.ranks),
            "order": report.order,
            "dims": list(report.dims),
            "likely_threshold": report.likely_threshold,
        },
        "fits": {
            "population": [float(f) for f in report.fits_population],
            "cases": [float(f) for f in report.fits_cases],
            "headline_population": min(report.fits_population),
            "headline_cases": min(report.fits_cases),
        },
        "space": {
            "categories": list(report.ds.categories),
            "ds": [float(x) for x in report.ds.entries],
            "std_all": report.ds.std_all,
            "std_st": report.spatial.std_st,
            "sl": list(report.spatial.sl),
            "sc": list(report.spatial.sc),
            "s1": list(report.spatial.s1),
            "s2": list(report.spatial.s2),
            "likely_cluster": list(report.spatial.likely_cluster),
        },
        "clusters": {
            kind: [{"center": c, "members": list(m)} for c, m in cs.clusters.items()]
            for kind, cs in (("first", report.clusters_first), ("second", report.clusters_second))
        },
        "time": {
            "categories": list(report.dt.categories),
            "dt": [float(x) for x in report.dt.entries],
            "std_all": report.dt.std_all,
            "tc": list(report.temporal.tc),
            "t1": list(report.temporal.t1),
            "first_intervals": [list(iv) for iv in report.temporal.t_first],
            "second_intervals": [list(iv) for iv in report.temporal.t_second],
        },
    }


@malformed("report")
def report_from_dict(doc: Mapping[str, Any]) -> HotspotReport:
    if doc.get("schema") != REPORT_SCHEMA:
        raise InputError(
            f"expected schema {REPORT_SCHEMA!r}, got {doc.get('schema')!r}",
            module="dataio",
        )
    space = doc["space"]
    time = doc["time"]
    ds = DiffVector(
        axis="space",
        categories=tuple(space["categories"]),
        entries=np.asarray(space["ds"], dtype=float),
        std_all=float(space["std_all"]),
    )
    dt = DiffVector(
        axis="time",
        categories=tuple(time["categories"]),
        entries=np.asarray(time["dt"], dtype=float),
        std_all=float(time["std_all"]),
    )
    spatial = SpatialPartition(
        ds=ds,
        sl=tuple(space["sl"]),
        sc=tuple(space["sc"]),
        st=tuple(s for s in space["sl"] if s not in space["sc"]),
        s1=tuple(space["s1"]),
        s2=tuple(space["s2"]),
        std_st=float(space["std_st"]),
        likely_cluster=tuple(space["likely_cluster"]),
    )
    first, second = (
        ClusterSet({c["center"]: tuple(c["members"]) for c in doc["clusters"][kind]}, kind)
        for kind in ("first", "second")
    )
    temporal = TemporalResult(
        tc=tuple(time["tc"]),
        t1=tuple(time["t1"]),
        t_first=tuple((a, b) for a, b in time["first_intervals"]),
        t_second=tuple((a, b) for a, b in time["second_intervals"]),
    )
    cfg = doc["config"]
    return HotspotReport(
        ranks=tuple(cfg["ranks"]),
        dims=tuple(cfg["dims"]),
        likely_threshold=cfg["likely_threshold"],
        fits_population=tuple(doc["fits"]["population"]),
        fits_cases=tuple(doc["fits"]["cases"]),
        ds=ds,
        dt=dt,
        spatial=spatial,
        clusters_first=first,
        clusters_second=second,
        temporal=temporal,
    )


def _cylinder_to_dict(
    cyl: ScanCylinder,
    regions: tuple[str, ...] | None,
    times: tuple[str, ...] | None,
) -> dict[str, Any]:
    center: Any = regions[cyl.center] if regions else cyl.center
    members: list[Any] = [regions[m] for m in cyl.members] if regions else list(cyl.members)
    window: list[Any] = [times[t] for t in cyl.window] if times else list(cyl.window)
    return {
        "center": center,
        "members": members,
        "window": window,
        "c": cyl.count,
        "b": cyl.baseline,
        "score": cyl.score,
        "p_value": cyl.p_value,
    }


def check_scan_options(alpha: float | None, top: int | None) -> None:
    """Reject a negative ``top`` or an ``alpha`` outside (0, 1], as :func:`scan_to_dict` does."""
    if top is not None and top < 0:
        raise InputError(f"top must be non-negative, got {top}", module="dataio")
    if alpha is not None and not 0 < alpha <= 1:
        raise InputError(f"alpha must lie in (0, 1], got {alpha}", module="dataio")


def scan_to_dict(
    result: ScanResult,
    alpha: float | None = None,
    top: int | None = None,
) -> dict[str, Any]:
    """Scan result as a document; ``top`` truncates the ranked list."""
    check_scan_options(alpha, top)
    cyls = result.cylinders if top is None else result.cylinders[:top]
    doc: dict[str, Any] = {
        "schema": SCAN_SCHEMA,
        "c_total": result.c_total,
        "b_total": result.b_total,
        "elevated_only": result.elevated_only,
        "replications": result.replications,
        "seed": result.seed,
        "regions": list(result.regions) if result.regions else None,
        "times": list(result.times) if result.times else None,
        "top": top,
        "cylinders": [
            _cylinder_to_dict(c, result.regions, result.times) for c in cyls
        ],
    }
    if alpha is not None:
        doc["alpha"] = alpha
        # a result of rows (read back, or from monte_carlo_scan) holds only a document's rows
        doc["significant_total"] = (
            len(result.significant(alpha)) if result.alpha is None else result.significant_total
        )
        doc["significant"] = [
            _cylinder_to_dict(c, result.regions, result.times)
            for c in result.significant_clusters(alpha)
        ]
    return doc


@malformed("scan")
def scan_from_dict(doc: Mapping[str, Any]) -> ScanResult:
    """Read a scan document back, with the ``significant`` clusters and the
    ``significant_total`` it recorded at its ``alpha`` if it has one."""
    from .stscan import ScanCylinder, ScanResult

    if doc.get("schema") != SCAN_SCHEMA:
        raise InputError(
            f"expected schema {SCAN_SCHEMA!r}, got {doc.get('schema')!r}",
            module="dataio",
        )
    regions = tuple(doc["regions"]) if doc.get("regions") else None
    times = tuple(doc["times"]) if doc.get("times") else None
    # labels when the document names regions and times, else the indices themselves
    region_id = {r: i for i, r in enumerate(regions)}.__getitem__ if regions else int
    time_id = {t: i for i, t in enumerate(times)}.__getitem__ if times else int

    def rows(key: str) -> tuple[ScanCylinder, ...]:
        return tuple(
            ScanCylinder(
                center=region_id(c["center"]),
                members=tuple(region_id(m) for m in c["members"]),
                window=(time_id(c["window"][0]), time_id(c["window"][1])),
                count=float(c["c"]),
                baseline=float(c["b"]),
                score=float(c["score"]),
                p_value=None if c["p_value"] is None else float(c["p_value"]),
            )
            for c in doc[key]
        )

    recorded = "alpha" in doc
    return ScanResult(
        cylinders=rows("cylinders"),
        c_total=float(doc["c_total"]),
        b_total=float(doc["b_total"]),
        elevated_only=bool(doc["elevated_only"]),
        replications=int(doc["replications"]),
        seed=doc["seed"],
        regions=regions,
        times=times,
        alpha=float(doc["alpha"]) if recorded else None,
        clusters=rows("significant") if recorded else (),
        significant_total=int(doc["significant_total"]) if recorded else None,
    )


def tensor_to_dict(t: CountTensor) -> dict[str, Any]:
    return {
        "schema": TENSOR_SCHEMA,
        "modes": [
            {"name": m.name, "kind": m.kind, "categories": list(m.categories)}
            for m in t.modes
        ],
        "values": [float(v) for v in t.flat_values()],
    }


@malformed("report")
def read_report(source: Any) -> HotspotReport | ScanResult:
    """Read back a hotspot report or scan result document."""
    doc = read_json(source)
    kind = doc.get("schema")
    if kind == REPORT_SCHEMA:
        return report_from_dict(doc)
    if kind == SCAN_SCHEMA:
        return scan_from_dict(doc)
    raise InputError(f"unrecognized document schema {kind!r}", module="dataio")


# ---------------------------------------------------------------------------
# GeoJSON


@dataclass(frozen=True)
class RegionGeometry:
    """Region polygons (GeoJSON geometry objects) by region id."""

    geometries: Mapping[str, Mapping[str, Any]]

    @classmethod
    @malformed("GeoJSON")
    def from_geojson(cls, source: Any) -> "RegionGeometry":
        doc = read_json(source)
        if doc.get("type") != "FeatureCollection":
            raise InputError("expected a GeoJSON FeatureCollection", module="dataio")
        geoms: dict[str, Mapping[str, Any]] = {}
        for feat in doc.get("features", []):
            props = feat.get("properties") or {}
            rid = props.get("region")
            if rid is None:
                raise InputError("feature without the 'region' property", module="dataio")
            geoms[str(rid)] = feat.get("geometry")
        return cls(geometries=geoms)


def write_geojson(
    report: HotspotReport,
    geometry: RegionGeometry,
    destination: Any,
) -> tuple[str, ...]:
    """Emit one feature per region with ds, role, and cluster membership.

    A region's role is the strongest of center, likely, first and second
    it holds, or "none". Regions without geometry are skipped so a partial
    geometry file still yields usable output; returns the skipped regions
    in report order.
    """
    second = report.clusters_second.clusters
    roles: dict[str, str] = {}
    for role, regions in (
        ("second", itertools.chain.from_iterable(second.values())),
        ("first", itertools.chain.from_iterable(report.clusters_first.clusters.values())),
        ("likely", report.spatial.likely_cluster),
        ("center", report.spatial.sc),
    ):
        roles.update(dict.fromkeys(regions, role))
    in_clusters: defaultdict[str, list[str]] = defaultdict(list)
    for center, members in second.items():
        for region in set(members):
            in_clusters[region].append(center)
    features = []
    skipped = []
    for region, value in zip(report.ds.categories, report.ds.entries.tolist()):
        geom = geometry.geometries.get(region)
        if geom is None:
            skipped.append(region)
            continue
        features.append(
            {
                "type": "Feature",
                "geometry": geom,
                "properties": {
                    "region": region,
                    "ds": value,
                    "role": roles.get(region, "none"),
                    "clusters": in_clusters.get(region, []),
                },
            }
        )
    write_json({"type": "FeatureCollection", "features": features}, destination)
    return tuple(skipped)


# ---------------------------------------------------------------------------
# paired ingestion used by the CLI


def ingest_pair(
    cases_source: Any,
    population_source: Any,
    schema: RecordSchema,
) -> tuple[CountTensor, CountTensor, dict[str, tuple[str, ...]]]:
    """Build cases and population tensors over one shared category space.

    Category lists are taken from the schema when explicit; otherwise they
    are established by first appearance over the population rows, then
    the case rows, and applied to both builds so the tensors always share
    mode labels. Returns (cases, population, unknown-report), the report
    merging both files' excluded values per column, sorted.
    """
    parsed_pop = parse_records(population_source, schema)
    parsed_cases = parse_records(cases_source, schema)
    cats = _column_categories((parsed_pop, parsed_cases), schema)
    full_schema = replace(schema, categories=cats)
    population = build_tensor(parsed_pop, full_schema)
    cases = build_tensor(parsed_cases, full_schema)
    unknown: dict[str, tuple[str, ...]] = {}
    for src in (parsed_pop, parsed_cases):
        for col, vals in src.unknown.items():
            unknown[col] = tuple(sorted({*unknown.get(col, ()), *vals}))
    return cases, population, unknown
