"""``parse_records`` against a row-at-a-time reference parser.

``reference_parse_records`` is the per-row parser that ``parse_records``
replaced: ``csv.reader`` over the file's lines, every check made row by row
and the first failing row raising. The columnar parser must agree with it
on columns, counts (bit for bit), unknown-category reports, row counts and
error messages.
"""

import csv
import io
import math
import random

import numpy as np
import pytest

from eigenspot import InputError, ModeSpec, RecordSchema, parse_records
from eigenspot.dataio import ParsedRecords, _open_text


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

    return ParsedRecords(
        columns=dict(zip(cols, tuple(zip(*kept)) or ((),) * len(cols))),
        counts=np.array(counts, dtype=float),
        unknown={c: tuple(sorted(v)) for c, v in sorted(unknown.items())},
        rows=rows,
    )


def outcome(parse, text, schema):
    # newline="" reads line breaks as a file opened by path does
    try:
        p = parse(io.StringIO(text, newline=""), schema)
    except Exception as exc:  # the error type and message are compared
        return ("error", type(exc).__name__, str(exc))
    return ("ok", p.columns, p.counts.dtype.str, p.counts.tobytes(), p.unknown, p.rows)


REGIONS = ["A", "B", " C ", "Z", "A, B", "x\ny", 'q"t', ""]
YEARS = ["1990", "1991", "\t1992", "1993 ", "zz"]
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
        "region": REGIONS if messy else ["A", "B", " C ", "Z", ""],
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


SCHEMA = RecordSchema(
    modes=(ModeSpec("region", "space", ("region",)), ModeSpec("year", "time", ("year",))),
    count_column="count",
    categories={"region": ("A", "B")},
)


@pytest.mark.parametrize(
    "text",
    [
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
    ],
)
def test_edge_cases_match_reference(text):
    assert outcome(parse_records, text, SCHEMA) == outcome(reference_parse_records, text, SCHEMA)


def test_first_error_in_file_order_wins():
    text = "region,year,count\nA,1,1\nA,1,1\nA,1,1\nA,1,x\nA,1,1\nA,1,1\nA,1,1\nA\n"
    with pytest.raises(InputError, match=r"^non-numeric count 'x' at row 5$"):
        parse_records(io.StringIO(text), SCHEMA)
    with pytest.raises(InputError, match=r"^row 9 is shorter than the header$"):
        parse_records(io.StringIO(text.replace(",x", ",1")), SCHEMA)
