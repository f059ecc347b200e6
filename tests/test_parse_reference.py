"""``parse_records`` against a row-at-a-time reference parser.

``reference_parse_records`` is the per-row parser that ``parse_records``
replaced: ``csv.reader`` over the file's lines, every check made row by row
and the first failing row raising. The columnar parser must agree with it
on the decoded columns and their categories in first appearance, counts
(bit for bit), unknown-category reports, row counts and error messages.
"""

import csv
import io
import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import columns_of, records_from_columns
from eigenspot import InputError, ModeSpec, RecordSchema, parse_records
from eigenspot import dataio
from eigenspot.dataio import _open_text


def reference_parse_records(source, schema):
    with _open_text(source) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError("empty input: no header row", module="dataio") from None
        header = [h.strip() for h in header]
        seen = {}
        for i, h in enumerate(header):
            if h in seen:
                raise InputError(f"duplicate header column {h!r}", module="dataio")
            seen[h] = i

        cols = schema.flat_columns()
        missing = [c for c in cols if c not in seen]
        if missing:
            raise InputError(f"missing mapped column(s): {missing}", module="dataio")
        count_idx = None
        if schema.count_column is not None:
            if schema.count_column not in seen:
                raise InputError(
                    f"missing count column {schema.count_column!r}", module="dataio"
                )
            count_idx = seen[schema.count_column]
        col_idx = [seen[c] for c in cols]
        explicit = schema.categories or {}
        allowed = {c: set(explicit[c]) for c in cols if c in explicit}

        kept = []
        counts = []
        unknown = {}
        rows = 0
        for lineno, row in enumerate(reader, start=2):
            if not any(map(str.strip, row)):
                continue
            rows += 1
            try:
                values = tuple(row[i].strip() for i in col_idx)
            except IndexError:
                raise InputError(
                    f"row {lineno} is shorter than the header", module="dataio"
                ) from None
            if count_idx is not None:
                raw = row[count_idx].strip() if count_idx < len(row) else ""
                try:
                    count = float(raw)
                except ValueError:
                    raise InputError(
                        f"non-numeric count {raw!r} at row {lineno}", module="dataio"
                    ) from None
            else:
                count = 1.0
            if count < 0 or not math.isfinite(count):
                raise InputError(
                    f"count must be finite and non-negative at row {lineno}",
                    module="dataio",
                )
            bad = False
            for c, v in zip(cols, values):
                if c in allowed and v not in allowed[c]:
                    unknown.setdefault(c, set()).add(v)
                    bad = True
            if bad:
                continue
            kept.append(values)
            counts.append(count)

    return records_from_columns(
        dict(zip(cols, tuple(zip(*kept)) or ((),) * len(cols))),
        np.array(counts, dtype=float),
        unknown={c: tuple(sorted(v)) for c, v in sorted(unknown.items())},
        rows=rows,
    )


def outcome(parse, text, schema):
    # newline="" reads line breaks as a file opened by path does
    try:
        p = parse(io.StringIO(text, newline=""), schema)
    except Exception as exc:  # the error type and message are compared
        return ("error", type(exc).__name__, str(exc))
    return (
        "ok", columns_of(p), p.categories, p.counts.dtype.str, p.counts.tobytes(), p.unknown, p.rows
    )


# "\xa0", "\u3000" and "\x1c" are whitespace to str.strip too
PADDED = ["\xa0B", "A\u3000", "\x1cC"]
# values longer than 8 bytes that share their first 8, one padded, and
# multibyte UTF-8 values
WIDE = ["Bernalillo County", "Bernalillo Count", "Bernalillo County\xa0", "Zürich", "東京都", "東京都府"]
REGIONS = ["A", "B", " C ", "Z", "A, B", "x\ny", 'q"t', "", *PADDED, *WIDE]
YEARS = ["1990", "1991", "\t1992", "1993 ", "zz", "2014-01-05", "2014-01-12", " 2014-01-05"]
AGES = ["young", "old", "mid"]
COUNTS = ["1", "2.5", " 3 ", "0", "-0", "1e3", "1_0", "", "lots", "-1", "nan", "inf", "-inf", "0x1"]
# characters that make a field need quoting
NEEDS_QUOTES = (",", "\n", "\r")


def random_schema(rnd):
    bundle = rnd.random() < 0.4
    modes = [ModeSpec("region", "space", ("region",)), ModeSpec("year", "time", ("year",))]
    if bundle:
        modes.append(ModeSpec("demo", "attribute", ("age", "sex")))
    categories = {}
    if rnd.random() < 0.5:
        categories["region"] = ("A", "B", "C", "A, B")
    if rnd.random() < 0.3:
        categories["year"] = ("1990", "1991", "1992")
    if bundle and rnd.random() < 0.3:
        categories["age"] = ("young", "old")
    return RecordSchema(
        modes=tuple(modes),
        count_column="count" if rnd.random() < 0.8 else None,
        categories=categories or None,
    )


def cell(rnd, value, quote_all):
    if quote_all or any(ch in value for ch in NEEDS_QUOTES) or (value and rnd.random() < 0.05):
        return '"' + value.replace('"', '""') + '"'
    return value


def random_text(rnd):
    header = ["region", "year", "count", "age", "sex", "note"]
    rnd.shuffle(header)
    if rnd.random() < 0.1:  # drops a mapped column or two
        del header[rnd.randrange(3, 6):]
    if rnd.random() < 0.03:
        header.append(header[0])
    # about half the texts hold nothing that needs quoting, line breaks
    # other than LF or CRLF, or ragged rows
    messy = rnd.random() < 0.5
    quote_all = messy and rnd.random() < 0.3
    pools = {
        "region": REGIONS if messy else ["A", "B", " C ", "Z", "", *PADDED, *WIDE],
        "year": YEARS, "count": COUNTS,
        "age": AGES, "sex": ["f", "m"], "note": ["", "ok", "a, b", "n/a"] if messy else ["", "ok"],
    }
    lines = [",".join(cell(rnd, f" {h}" if rnd.random() < 0.05 else h, quote_all) for h in header)]
    for _ in range(rnd.randrange(0, 14)):
        kind = rnd.random() if messy else 0.5
        if kind < 0.06:
            lines.append("")
        elif kind < 0.10 or rnd.random() < 0.03:
            lines.append(",".join(" " * rnd.randrange(3) for _ in header))
        else:
            fields = []
            for h in header:
                pool = pools[h]
                # mostly clean values, so that most texts parse without error
                if h == "count":
                    value = rnd.choice(COUNTS) if rnd.random() < 0.1 else str(rnd.randrange(5))
                    if rnd.random() < 0.05:  # 12 digits
                        value = str(rnd.randrange(10**11, 10**12))
                elif h == "region":
                    value = rnd.choice(pool) if rnd.random() < 0.3 else rnd.choice("ABC")
                elif h == "year":
                    value = rnd.choice(pool) if rnd.random() < 0.2 else rnd.choice(YEARS[:2])
                else:
                    value = rnd.choice(pool)
                fields.append(cell(rnd, value, quote_all) if messy else value)
            if kind < 0.16:
                del fields[rnd.randrange(len(fields)):]
            elif kind < 0.22:
                fields += ["extra"] * rnd.randrange(1, 3)
            lines.append(",".join(fields))
    if messy and rnd.random() < 0.2:  # mixed line breaks
        return "".join(line + rnd.choice(["\n", "\r\n", "\r"]) for line in lines)
    eol = rnd.choice(["\n", "\r\n", "\r"] if messy else ["\n", "\r\n"])
    return eol.join(lines) + eol * rnd.choice([0, 1, 1, 1, 2 if messy else 1])


def test_random_texts_match_reference():
    rnd = random.Random(20261018)
    seen = {"ok": 0, "error": 0}
    for _ in range(2500):
        text = random_text(rnd)
        schema = random_schema(rnd)
        expected = outcome(reference_parse_records, text, schema)
        assert outcome(parse_records, text, schema) == expected, (text, schema)
        seen[expected[0]] += 1
    # both outcomes are well represented
    assert min(seen.values()) > 800, seen


def small_chunks(monkeypatch, records, chars):
    monkeypatch.setattr(dataio, "_CHUNK", records)
    monkeypatch.setattr(dataio, "_BLOCK", chars)


@pytest.mark.parametrize("chunk, block", [(1, 1), (2, 16), (5, 64)], ids=["1", "2", "5"])
def test_random_texts_match_reference_in_small_chunks(monkeypatch, chunk, block):
    # chunks this small put chunk ends inside quoted fields and CRLFs, make
    # records longer than a block, switch from the split path to csv mid-file,
    # mix chunks that need stripping with chunks that do not and leave whole
    # chunks blank, short or outside an explicit list
    small_chunks(monkeypatch, chunk, block)
    rnd = random.Random(chunk)
    for _ in range(800):
        text = random_text(rnd)
        schema = random_schema(rnd)
        expected = outcome(reference_parse_records, text, schema)
        assert outcome(parse_records, text, schema) == expected, (text, schema)


SCHEMA = RecordSchema(
    modes=(ModeSpec("region", "space", ("region",)), ModeSpec("year", "time", ("year",))),
    count_column="count",
    categories={"region": ("A", "B")},
)


EDGE_CASES = [
    # a bad count at row 5 is reported before a short row at row 9
    "region,year,count\nA,1,1\nA,1,1\nA,1,1\nA,1,x\nA,1,1\nA,1,1\nA,1,1\nA\n",
    # a short row wins over a bad count in a later row, and in its own row
    "region,year,count\nA,1,1\nA\nA,1,-1\n",
    "region,count,year\nA,1,1\nA,-1\n",
    # a negative count wins over an unknown category in the same row
    "region,year,count\nZ,1,-1\n",
    # non-finite counts and an underscore in a number
    "region,year,count\nA,1,1_0\nB,1,inf\n",
    "region,year,count\nA,1,nan\n",
    # blank and whitespace-only rows are skipped and still numbered, but
    # a field past the header's last one keeps a row from being blank
    "region,year,count\n\n , , \nA,1,2\n\nB,1,\n",
    "region,year,count\n \nA,1,2\n , , ,x\n",
    # a quoted field spanning two lines counts as one row
    'region,year,count\n"A\nB",1,1\nA,1,-2\n',
    # CRLF, lone CR and a trailing blank line
    "region,year,count\r\nA,1,1\r\nZ,2,1\r\n",
    "region,year,count\rA,1,1\rB,2,1\r",
    "region,year,count\nA,1,1\n\n\n",
    # header only, blank header, and nothing at all
    "region,year,count\n",
    "\nregion,year,count\n",
    "",
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_cases_match_reference(text):
    assert outcome(parse_records, text, SCHEMA) == outcome(reference_parse_records, text, SCHEMA)


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_cases_match_reference_in_chunks_of_two(monkeypatch, text):
    small_chunks(monkeypatch, 2, 16)
    assert outcome(parse_records, text, SCHEMA) == outcome(reference_parse_records, text, SCHEMA)


CLEAN = "region,year,count\nA,1,1\nB,1,2\n"
# (text, block size): without a size, the first block ends at the "|", which
# is not part of the text
BLOCK_CASES = [
    # a CRLF split across two blocks, and a file ending in a CR the next block
    # would pair with an LF
    ("region,year,count\r|\nA,1,1\r\nB,2,1\r\n", None),
    ("region,year,count\r\nA,1,1\r|\nB,2,1\r", None),
    # a record longer than one block, and one past several blocks
    ("region,year,count\nA,1,1\nB,19" + "9" * 40 + ",1\nA,1,2\n", 12),
    ("region,year,count\nA,1,1\nB,1,1" + " " * 90 + "\nA,1,2\n", 7),
    # no final line break, after a whole block and within one
    (CLEAN + "|A,1,3", None),
    ("region,year,count\nA,1,1\nB,|1,3", None),
    # a clean chunk, then one whose values are padded with whitespace
    (CLEAN + "|\xa0A\xa0,1,1\nB,1,2\n", None),
    (CLEAN + "|A,1,\u30003\nB\u3000,1,2\n", None),
    (CLEAN + "|\x1cA,1,1\nB,\x1c1\x1c,2\n", None),
    # a blank record inside a clean chunk, and a chunk of only blank records
    ("region,year,count\nA,1,1\n,,\nB,1,2\n|A,1,1\n", None),
    (CLEAN + "|,,\n , ,\u3000\n", None),
    # a quoted cell in the first record after a clean block, and in the
    # record a block cuts in two
    (CLEAN + '|"B",1,2\nA,1,3\n', None),
    (CLEAN + 'A,1|,"3"\nB,1,"x"\n', None),
    # a ragged record after a clean block
    (CLEAN + "|A,1,1,9\nB\n", None),
]


@pytest.mark.parametrize("case, chunk", [(c, k) for c in BLOCK_CASES for k in (1, 2)])
def test_block_boundaries_match_reference(monkeypatch, case, chunk):
    marked, block = case
    text = marked.replace("|", "")
    small_chunks(monkeypatch, chunk, block or marked.index("|"))
    assert outcome(parse_records, text, SCHEMA) == outcome(reference_parse_records, text, SCHEMA)


def decoded(columns):
    """A chunk's columns as lists of their fields."""
    return [[values[i] for i in index] for values, index in columns]


def test_tokenize_yields_the_whole_lines_of_each_block(monkeypatch):
    # the header comes in the first chunk; the second, padded with non-ASCII
    # whitespace, is stripped, and each column holds its distinct values once
    small_chunks(monkeypatch, 2, len(CLEAN))
    text = CLEAN + "\xa0A,1,1\nB,\u30001,2\n"
    chunks = list(dataio._tokenize(io.StringIO(text, newline="")))
    assert [decoded(columns) for columns, _ in chunks] == [
        [["region", "A", "B"], ["year", "1", "1"], ["count", "1", "2"]],
        [["A", "B"], ["1", "1"], ["1", "2"]],
    ]
    assert [sorted(values) for values, _ in chunks[1][0]] == [["A", "B"], ["1"], ["1", "2"]]


def test_fields_longer_than_a_word_stay_exact():
    # fields that share their first 8 bytes, multibyte fields and a padded
    # long field that strips to another, in one plain chunk
    text = (
        "region,year,count\n"
        "Bernalillo County,2014-01-05,1\nBernalillo Count,2014-01-12,2\n"
        "\u3000Bernalillo County,2014-01-05,3\n東京都,2014-01-05,4\nZürich,2014-01-12,5\n"
    )
    [(columns, _)] = dataio._tokenize(io.StringIO(text, newline=""))
    assert [sorted(values) for values, _ in columns[:2]] == [
        sorted(["region", "Bernalillo County", "Bernalillo Count", "東京都", "Zürich"]),
        ["2014-01-05", "2014-01-12", "year"],
    ]
    assert decoded(columns)[0][1:] == [
        "Bernalillo County", "Bernalillo Count", "Bernalillo County", "東京都", "Zürich"
    ]
    assert outcome(parse_records, text, SCHEMA) == outcome(reference_parse_records, text, SCHEMA)


def line_list(rnd, rows):
    """A clean line list: no quotes, no lone CR, every line of the header's width."""
    regions = ["r001", "Bernalillo County", "Bernalillo Count", "Zürich", "東京都", "\xa0r002"]
    weeks = ["2014-01-05", "2014-01-12", "w03 "]
    lines = ["region,week,sex,count"]
    for _ in range(rows):
        count = str(rnd.randrange(10**11, 10**12)) if rnd.random() < 0.1 else str(rnd.randrange(9))
        lines.append(",".join([rnd.choice(regions), rnd.choice(weeks), rnd.choice("FM"), count]))
    return "\r\n".join(lines)  # CRLF, and no line break after the last line


LINE_LIST = RecordSchema(
    modes=(ModeSpec("region", "space", ("region",)), ModeSpec("week", "time", ("week",)),
           ModeSpec("sex", "attribute", ("sex",))),
    count_column="count",
)


@pytest.mark.parametrize("block", [None, 7, 100])
def test_clean_line_list_never_reaches_csv(monkeypatch, block):
    text = line_list(random.Random(5), 300)
    expected = outcome(reference_parse_records, text, LINE_LIST)
    assert expected[0] == "ok"
    if block:
        small_chunks(monkeypatch, 2, block)

    def refuse(*args):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(dataio.csv, "reader", refuse)
    assert outcome(parse_records, text, LINE_LIST) == expected


# long regions of two lengths; then only long weeks, all of one length
COLLIDING = [
    line_list(random.Random(6), 300),
    "region,week,sex,count\n" + "".join(f"r{i},2014-01-{5 + i % 2 * 7:02},F,1\n" for i in range(50)),
]


@pytest.mark.parametrize("text", COLLIDING, ids=["sizes", "words"])
def test_a_key_collision_sends_the_chunk_to_csv(monkeypatch, text):
    # with a zero multiplier every field longer than 8 bytes keys to 0, so
    # two different long values collide, of different sizes or of one; the
    # chunk, and the rest of the file, then go through csv with the same result
    expected = outcome(reference_parse_records, text, LINE_LIST)
    monkeypatch.setattr(dataio, "_MIX", np.uint64(0))
    calls = []
    reader = dataio.csv.reader
    monkeypatch.setattr(dataio.csv, "reader", lambda *a: calls.append(a) or reader(*a))
    assert outcome(parse_records, text, LINE_LIST) == expected
    assert len(calls) == 1


def test_a_long_note_costs_memory_in_its_bytes(monkeypatch):
    # three 100 KB notes, two alike and one that differs in its last byte,
    # among 5,000 short rows of one plain chunk: keying and checking them
    # takes memory in their bytes, not in rows times the longest field
    rnd = random.Random(7)
    note = "".join(rnd.choice("abcdefgh ") for _ in range(100_000))
    lines = ["region,week,sex,count,note"]
    for i in range(5_000):
        text = {100: note, 2_000: note, 4_000: note[:-1] + "!"}.get(i, "n")
        lines.append(f"r{i % 50},w{i % 7},{'FM'[i % 2]},{i % 9},{text}")
    text = "\n".join(lines) + "\n"
    expected = outcome(reference_parse_records, text, LINE_LIST)

    def refuse(*args):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(dataio.csv, "reader", refuse)
    tracemalloc.start()
    try:
        got = outcome(parse_records, text, LINE_LIST)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 16 * 2**20, peak


def test_first_error_in_file_order_wins():
    text = "region,year,count\nA,1,1\nA,1,1\nA,1,1\nA,1,x\nA,1,1\nA,1,1\nA,1,1\nA\n"
    with pytest.raises(InputError, match=r"^non-numeric count 'x' at row 5$"):
        parse_records(io.StringIO(text), SCHEMA)
    with pytest.raises(InputError, match=r"^row 9 is shorter than the header$"):
        parse_records(io.StringIO(text.replace(",x", ",1")), SCHEMA)


def test_csv_reads_the_rest_of_the_file_as_it_goes(monkeypatch):
    # from the first block with a quote, csv parses each chunk before the
    # next is read, rather than the rest of the file at once
    small_chunks(monkeypatch, 10, 100)
    text = "region,year,count\n" + '"A",1,1\n' * 1000
    fh = io.StringIO(text, newline="")
    columns, lengths = next(dataio._tokenize(fh))
    assert decoded(columns)[0] == ["region"] + ["A"] * 9 and len(lengths) == 10
    assert columns[0][0] == ["region", "A"]
    assert fh.tell() < len(text) // 10


@pytest.mark.parametrize("quote", [False, True])
def test_rows_past_the_first_chunk(monkeypatch, quote):
    # three chunks' worth of rows: categories, unknown values and row numbers
    # carry over from chunk to chunk, on the split path (blocks of 50 rows of
    # 7 characters) and through csv (chunks of 50 records)
    small_chunks(monkeypatch, 50, 50 * 7)
    n = 2 * dataio._CHUNK + 20
    rows = [[("A", "B", "Z", "C")[i % 7 % 4], f"y{i % 3}", str(i % 5)] for i in range(n)]

    def text():
        cell = '"{}"'.format if quote else str
        return "region,year,count\n" + "".join(",".join(map(cell, r)) + "\n" for r in rows)

    assert outcome(parse_records, text(), SCHEMA) == outcome(reference_parse_records, text(), SCHEMA)
    parsed = parse_records(io.StringIO(text()), SCHEMA)
    assert parsed.unknown == {"region": ("C", "Z")} and parsed.rows == n
    assert parsed.categories == {"region": ("A", "B"), "year": ("y0", "y1", "y2")}
    bad = 2 * dataio._CHUNK + 7  # a data row in the third chunk
    rows[bad - 2][2] = "x"
    with pytest.raises(InputError, match=rf"^non-numeric count 'x' at row {bad}$"):
        parse_records(io.StringIO(text()), SCHEMA)
