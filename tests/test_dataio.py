import gc
import io
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from eigenspot import (
    CountTensor,
    InputError,
    ModeLabel,
    ModeSpec,
    RecordSchema,
    RegionGeometry,
    build_tensor,
    dataio,
    dumps_stable,
    ingest_pair,
    load_schema,
    parse_adjacency,
    parse_centroids,
    parse_records,
    read_report,
    run_sst_hotspot,
    write_geojson,
    write_json,
)
from eigenspot.dataio import (
    report_from_dict,
    report_to_dict,
    scan_from_dict,
    scan_to_dict,
    tensor_to_dict,
)
from eigenspot import SynthConfig, enumerate_cylinders, generate, monte_carlo_p, scan
from eigenspot.stscan import expected_baseline, monte_carlo_scan
from conftest import columns_of, make_tensor, records_from_columns, ring_adjacency

SCHEMA_2D = RecordSchema(
    modes=(
        ModeSpec("region", "space", ("region",)),
        ModeSpec("year", "time", ("year",)),
    ),
    count_column="count",
)

HEADER_ONLY = "region,year,count\n"

SCHEMA_3D = RecordSchema(
    modes=(
        ModeSpec("region", "space", ("region",)),
        ModeSpec("year", "time", ("year",)),
        ModeSpec("demo", "attribute", ("age", "sex")),
    ),
    count_column="count",
)


# ---------------------------------------------------------------------------
# schemas


def test_schema_requires_space_and_time():
    with pytest.raises(InputError):
        RecordSchema(modes=(ModeSpec("a", "space", ("a",)),))
    with pytest.raises(InputError):
        RecordSchema(
            modes=(
                ModeSpec("a", "space", ("a",)),
                ModeSpec("b", "space", ("b",)),
            )
        )


def test_schema_rejects_duplicate_columns():
    with pytest.raises(InputError):
        RecordSchema(
            modes=(
                ModeSpec("a", "space", ("col",)),
                ModeSpec("b", "time", ("col",)),
            )
        )


def test_schema_rejects_count_column_that_is_also_mapped():
    modes = (ModeSpec("region", "space", ("region",)), ModeSpec("year", "time", ("year",)))
    message = r"^count column 'region' is also a mapped column$"
    with pytest.raises(InputError, match=message):
        RecordSchema(modes=modes, count_column="region")
    with pytest.raises(InputError, match=message):
        load_schema({"modes": SCHEMA_MODES, "count_column": "region"})


def test_schema_rejects_duplicate_mode_names():
    message = r"^schema names mode 'region' twice$"
    with pytest.raises(InputError, match=message):
        RecordSchema(
            modes=(
                ModeSpec("region", "space", ("region",)),
                ModeSpec("region", "time", ("year",)),
            )
        )
    doc = {"modes": SCHEMA_MODES + [{"name": "region", "kind": "attribute", "columns": ["age"]}]}
    with pytest.raises(InputError, match=message):
        load_schema(doc)


def test_schema_space_mode_single_column_only():
    with pytest.raises(InputError):
        ModeSpec("a", "space", ("x", "y"))


def test_schema_explicit_categories_must_be_mapped():
    with pytest.raises(InputError):
        RecordSchema(
            modes=(
                ModeSpec("a", "space", ("a",)),
                ModeSpec("b", "time", ("b",)),
            ),
            categories={"nope": ("x",)},
        )


def test_explicit_categories_must_be_strings():
    modes = (ModeSpec("region", "space", ("region",)), ModeSpec("time", "time", ("time",)))
    message = r"^explicit category 0 for column 'time' is not a string$"
    with pytest.raises(InputError, match=message):
        RecordSchema(modes=modes, categories={"time": ("t00", 0)})
    doc = {
        "modes": [
            {"name": "region", "kind": "space", "columns": ["region"]},
            {"name": "time", "kind": "time", "columns": ["time"]},
        ],
        "categories": {"region": ["r00"], "time": [0, 1, 2]},
    }
    with pytest.raises(InputError, match=r"explicit category 0 for column 'time'"):
        load_schema(doc)


SCHEMA_MODES = [
    {"name": "region", "kind": "space", "columns": ["region"]},
    {"name": "time", "kind": "time", "columns": ["time"]},
]


def test_load_schema_rejects_a_string_category_list():
    # a string would otherwise split into the categories ("t", "0", "0")
    message = r"^explicit categories for column 'time' must be a list, not str$"
    with pytest.raises(InputError, match=message):
        load_schema({"modes": SCHEMA_MODES, "categories": {"time": "t00"}})


def test_load_schema_rejects_a_number_for_a_category_list():
    message = r"^explicit categories for column 'time' must be a list, not int$"
    with pytest.raises(InputError, match=message):
        load_schema({"modes": SCHEMA_MODES, "categories": {"time": 5}})


def test_load_schema_rejects_categories_that_are_not_a_mapping():
    with pytest.raises(InputError, match="must map each column to a list"):
        load_schema({"modes": SCHEMA_MODES, "categories": ["t00", "t01"]})


def test_load_schema_roundtrip(tmp_path):
    doc = {
        "modes": [
            {"name": "region", "kind": "space", "columns": ["region"]},
            {"name": "year", "kind": "time", "columns": ["year"]},
        ],
        "count_column": "count",
        "categories": {"region": ["A", "B"]},
    }
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    schema = load_schema(path)
    assert schema.count_column == "count"
    assert schema.categories == {"region": ("A", "B")}
    with pytest.raises(InputError):
        load_schema({"modes": [{"name": "x"}]})


# ---------------------------------------------------------------------------
# parse_records


def test_parse_records_with_counts():
    text = "region,year,count\nA,1990,2\nB,1990,1\nA,1991,4\n"
    parsed = parse_records(io.StringIO(text), SCHEMA_2D)
    assert parsed.rows == 3
    assert parsed.counts.sum() == 7.0
    assert columns_of(parsed) == {"region": ("A", "B", "A"), "year": ("1990", "1990", "1991")}
    assert parsed.categories == {"region": ("A", "B"), "year": ("1990", "1991")}
    assert parsed.counts.dtype == np.float64 and parsed.counts[0] == 2.0


def test_parse_records_default_count_is_one():
    schema = RecordSchema(modes=SCHEMA_2D.modes)  # no count column
    text = "region,year\nA,1990\nA,1990\n"
    parsed = parse_records(io.StringIO(text), schema)
    assert parsed.counts.sum() == 2.0


def test_parse_records_missing_column():
    text = "region,count\nA,1\n"
    with pytest.raises(InputError) as exc:
        parse_records(io.StringIO(text), SCHEMA_2D)
    assert "year" in str(exc.value)


def test_files_that_are_not_utf8_are_input_errors(tmp_path):
    # byte 0xff starts a data row past a BOM and past the first chunk the
    # text reader decodes; the offset counts from the start of the file
    lead = "region,year,count\n" + "A,1990,1\n" * 2000
    records = tmp_path / "records.csv"
    records.write_bytes(b"\xef\xbb\xbf" + lead.encode() + b"\xffB,1990,1\n")
    at = 3 + len(lead)
    with pytest.raises(InputError, match=rf"records\.csv is not UTF-8 text: byte 0xff at offset {at}$"):
        parse_records(records, SCHEMA_2D)
    adjacency = tmp_path / "adjacency.csv"
    adjacency.write_bytes(b"A,B\n\xffC,B\n")
    with pytest.raises(InputError, match=r"adjacency\.csv is not UTF-8 text: byte 0xff at offset 4$"):
        parse_adjacency(adjacency, ("A", "B", "C"))


def test_parse_records_duplicate_header():
    text = "region,region,year,count\nA,A,1990,1\n"
    with pytest.raises(InputError):
        parse_records(io.StringIO(text), SCHEMA_2D)


def test_parse_records_non_numeric_count():
    text = "region,year,count\nA,1990,lots\n"
    with pytest.raises(InputError):
        parse_records(io.StringIO(text), SCHEMA_2D)


def test_parse_records_negative_count():
    text = "region,year,count\nA,1990,-3\n"
    with pytest.raises(InputError):
        parse_records(io.StringIO(text), SCHEMA_2D)


def test_parse_records_unknown_categories_reported_not_dropped_silently():
    schema = RecordSchema(
        modes=SCHEMA_2D.modes,
        count_column="count",
        categories={"region": ("A", "B")},
    )
    text = "region,year,count\nA,1990,1\nZ,1990,5\nB,1991,2\n"
    parsed = parse_records(io.StringIO(text), schema)
    assert parsed.unknown == {"region": ("Z",)}
    assert parsed.counts.sum() == 3.0
    assert len(parsed.counts) == 2 and columns_of(parsed)["region"] == ("A", "B")
    assert parsed.rows == 3


def test_parse_records_empty_input():
    with pytest.raises(InputError):
        parse_records(io.StringIO(""), SCHEMA_2D)


# ---------------------------------------------------------------------------
# build_tensor


def test_build_tensor_bundled_mode_is_cartesian_product():
    text = (
        "region,year,age,sex,count\n"
        "A,1990,young,m,1\n"
        "A,1990,old,f,2\n"
        "B,1991,young,f,3\n"
    )
    parsed = parse_records(io.StringIO(text), SCHEMA_3D)
    t = build_tensor(parsed, SCHEMA_3D)
    assert t.dims == (2, 2, 4)  # 2 ages x 2 sexes
    assert t.total == 6.0
    demo = t.modes[2]
    assert demo.kind == "attribute"
    assert demo.categories == ("young|m", "young|f", "old|m", "old|f")


def test_build_tensor_total_conservation_exact(rng):
    rows = ["region,year,count"]
    total = 0
    for i in range(200):
        c = int(rng.integers(0, 50))
        total += c
        rows.append(f"r{int(rng.integers(0, 7))},y{int(rng.integers(0, 5))},{c}")
    parsed = parse_records(io.StringIO("\n".join(rows)), SCHEMA_2D)
    t = build_tensor(parsed, SCHEMA_2D)
    assert t.total == float(total)


def test_build_tensor_first_appearance_order():
    text = "region,year,count\nB,2000,1\nA,1999,1\nB,1999,1\n"
    parsed = parse_records(io.StringIO(text), SCHEMA_2D)
    t = build_tensor(parsed, SCHEMA_2D)
    assert t.modes[0].categories == ("B", "A")
    assert t.modes[1].categories == ("2000", "1999")


def test_build_tensor_explicit_categories_and_zero_records():
    schema = RecordSchema(
        modes=SCHEMA_2D.modes,
        count_column="count",
        categories={"region": ("A", "B"), "year": ("1990", "1991")},
    )
    t = build_tensor(parse_records(io.StringIO(HEADER_ONLY), schema), schema)
    assert t.dims == (2, 2)
    assert t.total == 0.0


def test_build_tensor_zero_records_without_categories_fails():
    with pytest.raises(InputError):
        build_tensor(parse_records(io.StringIO(HEADER_ONLY), SCHEMA_2D), SCHEMA_2D)


def test_build_tensor_rejects_record_outside_explicit_list():
    schema = RecordSchema(
        modes=SCHEMA_2D.modes,
        count_column="count",
        categories={"region": ("A",), "year": ("1990",)},
    )
    # parse_records would exclude the row, so hand build_tensor the columns
    parsed = records_from_columns({"region": ("Z",), "year": ("1990",)}, [1.0])
    with pytest.raises(InputError, match="'Z'.*'region'"):
        build_tensor(parsed, schema)
    # the first offending value in row order is the one reported
    parsed = records_from_columns(
        {"region": ("A", "Y", "X", "Y"), "year": ("1990", "1991", "1990", "1990")}, [1.0] * 4
    )
    with pytest.raises(InputError, match=r"^category 'Y' not in the explicit list for column 'region'$"):
        build_tensor(parsed, schema)


def test_build_five_mode_tensor_and_decompose():
    schema = RecordSchema(
        modes=(
            ModeSpec("region", "space", ("region",)),
            ModeSpec("year", "time", ("year",)),
            ModeSpec("age", "attribute", ("age",)),
            ModeSpec("sex", "attribute", ("sex",)),
            ModeSpec("race", "attribute", ("race",)),
        ),
        count_column="count",
    )
    rows = ["region,year,age,sex,race,count"]
    rng = np.random.default_rng(3)
    total = 0
    for _ in range(300):
        c = int(rng.integers(1, 5))
        total += c
        rows.append(
            f"r{rng.integers(0, 3)},y{rng.integers(0, 3)},a{rng.integers(0, 2)},"
            f"s{rng.integers(0, 2)},q{rng.integers(0, 2)},{c}"
        )
    parsed = parse_records(io.StringIO("\n".join(rows)), schema)
    t = build_tensor(parsed, schema)
    assert t.order == 5
    assert t.total == float(total)
    from eigenspot import decompose

    model = decompose(t)
    assert model.ranks == (2, 2, 1, 1, 1)
    assert all(0.0 <= f <= 1.0 for f in model.fits)


def test_bundled_mode_dim_is_product_at_registry_cardinalities():
    # 32 regions x 19 years x (19 age groups, 2 sexes, 3 races): the
    # bundled attribute mode must enumerate all 19*2*3 = 114 combinations
    # even though the sampled records cover only a few of them
    import itertools

    regions = tuple(f"c{i:02d}" for i in range(32))
    years = tuple(str(y) for y in range(73, 92))
    ages = tuple(f"a{i:02d}" for i in range(19))
    sexes = ("f", "m")
    races = ("w", "b", "o")
    explicit = {
        "region": regions,
        "year": years,
        "age": ages,
        "sex": sexes,
        "race": races,
    }
    schema3 = RecordSchema(
        modes=(
            ModeSpec("region", "space", ("region",)),
            ModeSpec("year", "time", ("year",)),
            ModeSpec("demo", "attribute", ("age", "sex", "race")),
        ),
        count_column="count",
        categories=explicit,
    )
    schema5 = RecordSchema(
        modes=(
            ModeSpec("region", "space", ("region",)),
            ModeSpec("year", "time", ("year",)),
            ModeSpec("age", "attribute", ("age",)),
            ModeSpec("sex", "attribute", ("sex",)),
            ModeSpec("race", "attribute", ("race",)),
        ),
        count_column="count",
        categories=explicit,
    )
    rng = np.random.default_rng(17)
    rows = [
        (
            regions[rng.integers(32)],
            years[rng.integers(19)],
            ages[rng.integers(19)],
            sexes[rng.integers(2)],
            races[rng.integers(3)],
        )
        for _ in range(1175)
    ]
    records = records_from_columns(
        dict(zip(("region", "year", "age", "sex", "race"), zip(*rows))), np.ones(1175)
    )
    t3 = build_tensor(records, schema3)
    assert t3.dims == (32, 19, 114)
    assert t3.total == 1175.0
    # enumeration oracle for the bundled category list
    expected = tuple(
        "|".join(combo) for combo in itertools.product(ages, sexes, races)
    )
    assert t3.modes[2].categories == expected

    t5 = build_tensor(records, schema5)
    assert t5.dims == (32, 19, 19, 2, 3)
    assert t5.total == 1175.0
    # both layouts hold identical mass cell for cell
    assert np.array_equal(
        t3.values.reshape(32, 19, 19, 2, 3), t5.values
    )


def test_ingest_pair_shares_category_space():
    pop = "region,year,count\nA,1990,100\nB,1990,50\nA,1991,100\nB,1991,50\n"
    cases = "region,year,count\nA,1990,3\n"  # B never appears here
    c, p, unknown = ingest_pair(io.StringIO(cases), io.StringIO(pop), SCHEMA_2D)
    assert c.dims == p.dims == (2, 2)
    assert c.modes[0].categories == p.modes[0].categories == ("A", "B")
    assert c.total == 3.0
    assert unknown == {}


def test_ingest_pair_orders_case_only_categories_after_population():
    pop = "region,year,count\nB,1991,5\nA,1990,5\n"
    cases = "region,year,count\nC,1990,1\nA,1992,2\nB,1991,1\n"
    c, p, _ = ingest_pair(io.StringIO(cases), io.StringIO(pop), SCHEMA_2D)
    assert c.modes[0].categories == p.modes[0].categories == ("B", "A", "C")
    assert c.modes[1].categories == p.modes[1].categories == ("1991", "1990", "1992")
    assert c.values[2, 1] == 1.0 and c.values[1, 2] == 2.0
    assert p.values[2].sum() == 0.0 and p.values[:, 2].sum() == 0.0


def test_ingest_pair_merges_unknown_reports_sorted():
    schema = RecordSchema(
        modes=SCHEMA_2D.modes,
        count_column="count",
        categories={"region": ("A", "B"), "year": ("1990",)},
    )
    pop = "region,year,count\nZ,1990,5\nA,1990,5\nB,1991,5\n"
    cases = "region,year,count\nX,1990,1\nZ,1990,1\nA,1990,2\nY,1989,1\n"
    c, p, unknown = ingest_pair(io.StringIO(cases), io.StringIO(pop), schema)
    assert unknown == {"region": ("X", "Y", "Z"), "year": ("1989", "1991")}
    assert c.total == 2.0 and p.total == 5.0


LINELIST_SCHEMA = RecordSchema(
    modes=(
        ModeSpec("region", "space", ("region",)),
        ModeSpec("week", "time", ("week",)),
        ModeSpec("demo", "attribute", ("sex", "age")),
    ),
    count_column="count",
)


@pytest.mark.parametrize("quote", [False, True], ids=["plain", "quoted"])
def test_ingest_pair_memory_stays_near_the_file_size(tmp_path, quote):
    # a 100,000-case line list over a 200 x 20 x 8 population. Keeping one
    # string per field and row peaks near 15x the files' bytes plain and 11x
    # with every cell quoted; parsing chunks to integer codes near 4.6x and 3.3x.
    rng = np.random.default_rng(5)
    pop = [
        (f"r{r:03d}", f"w{w:02d}", sex, age, str(n))
        for r in range(200) for w in range(20) for sex in "FM"
        for age, n in zip(("00-19", "20-39", "40-59", "60+"), rng.integers(50, 500, 4).tolist())
    ]
    cases = [pop[i][:4] + ("1",) for i in rng.integers(0, len(pop), 100_000).tolist()]
    cell = '"{}"'.format if quote else str
    size = 0
    for name, rows in (("cases.csv", cases), ("population.csv", pop)):
        lines = [("region", "week", "sex", "age", "count"), *rows]
        text = "".join(",".join(map(cell, line)) + "\n" for line in lines)
        size += (tmp_path / name).write_text(text, encoding="utf-8")
    del pop, cases, text
    gc.collect()
    tracemalloc.start()
    try:
        c, p, _ = ingest_pair(tmp_path / "cases.csv", tmp_path / "population.csv", LINELIST_SCHEMA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.total == 100_000 and c.dims == p.dims == (200, 20, 8)
    assert peak < 6 * size, (peak, size)


def test_build_tensor_matches_per_row_accumulation_bit_for_bit():
    # non-integer counts make float sums depend on their order: every cell
    # must add its rows' counts in row order, starting from zero
    rng = np.random.default_rng(29)
    raw = [
        (
            f"r{rng.integers(0, 16)}",
            f"y{rng.integers(0, 6)}",
            f"a{rng.integers(0, 5)}",
            "mf"[rng.integers(0, 2)],
            float(rng.random() * 100.0),
        )
        for _ in range(20_000)
    ]
    text = "region,year,age,sex,count\n" + "".join(
        f"{r},{y},{a},{s},{c!r}\n" for r, y, a, s, c in raw
    )
    t = build_tensor(parse_records(io.StringIO(text), SCHEMA_3D), SCHEMA_3D)
    region, year, demo = ({v: i for i, v in enumerate(m.categories)} for m in t.modes)
    cells = [(region[r], year[y], demo[f"{a}|{s}"]) for r, y, a, s, _ in raw]
    expected = np.zeros(t.dims)
    for cell, (*_, c) in zip(cells, raw):
        expected[cell] += c
    assert t.values.tobytes() == expected.tobytes()
    # the oracle can tell the order apart: reversed rows change some cells
    backwards = np.zeros(t.dims)
    for cell, (*_, c) in zip(reversed(cells), reversed(raw)):
        backwards[cell] += c
    assert backwards.tobytes() != expected.tobytes()


# ---------------------------------------------------------------------------
# adjacency and centroids


def test_parse_adjacency_symmetric_closure():
    nb = parse_adjacency(io.StringIO("A,B\nB,C\n"), ("A", "B", "C"))
    assert nb.adjacency.sum() == 4
    assert nb.adjacency[0, 1] and nb.adjacency[1, 0]
    assert nb.adjacency[1, 2] and nb.adjacency[2, 1]
    assert not nb.adjacency.diagonal().any()


def test_parse_adjacency_empty_file():
    nb = parse_adjacency(io.StringIO(""), ("A", "B"))
    assert not nb.adjacency.any()


def test_parse_adjacency_invariants_checker(rng):
    # independent checker: symmetry and zero diagonal always hold post-parse
    pairs = []
    regions = tuple(f"r{i}" for i in range(8))
    for _ in range(12):
        i, j = rng.integers(0, 8, 2)
        if i != j:
            pairs.append(f"{regions[i]},{regions[j]}")
    nb = parse_adjacency(io.StringIO("\n".join(pairs)), regions)
    a = nb.adjacency
    for i in range(8):
        assert not a[i, i]
        for j in range(8):
            assert a[i, j] == a[j, i]


def test_parse_adjacency_unknown_region_named():
    with pytest.raises(InputError) as exc:
        parse_adjacency(io.StringIO("A,Q\n"), ("A", "B"))
    assert "Q" in str(exc.value)


def test_parse_adjacency_self_pair_rejected():
    with pytest.raises(InputError):
        parse_adjacency(io.StringIO("A,A\n"), ("A", "B"))


def test_parse_adjacency_header_flag():
    nb = parse_adjacency(io.StringIO("region_a,region_b\nA,B\n"), ("A", "B"), header=True)
    assert nb.adjacency[0, 1]
    with pytest.raises(InputError):
        parse_adjacency(io.StringIO("region_a,region_b\nA,B\n"), ("A", "B"))


def test_parse_centroids():
    coords = parse_centroids(
        io.StringIO("region,x,y\nA,0.5,1.5\nB,2.0,3.0\n"), ("A", "B")
    )
    assert np.array_equal(coords, [[0.5, 1.5], [2.0, 3.0]])
    with pytest.raises(InputError):
        parse_centroids(io.StringIO("region,x,y\nA,0,0\n"), ("A", "B"))
    with pytest.raises(InputError):
        parse_centroids(
            io.StringIO("region,x,y\nA,0,0\nA,1,1\nB,0,1\n"), ("A", "B")
        )


# Each reader's messages, in the order its checks run. The numbers are
# record numbers, counting the header, blank records and records that span
# lines as one each.
ADJACENCY_ERRORS = [
    ("A,B,C\n", False, "adjacency row 1 must have exactly two columns"),
    ("A,B\nC\n", False, "adjacency row 2 must have exactly two columns"),
    ("A,B\n,,\nQ,Q,Q\n", False, "adjacency row 3 must have exactly two columns"),
    ("A,B\nB,Q\n", False, "unknown region 'Q' at adjacency row 2"),
    ("Q,A\n", False, "unknown region 'Q' at adjacency row 1"),
    ("A,B\n\nC,C\n", False, "self-pair 'C' rejected at adjacency row 3"),
    ("Q,Q\n", False, "unknown region 'Q' at adjacency row 1"),
    ("a,b\nA,B\nB,Q\n", True, "unknown region 'Q' at adjacency row 3"),
    ("a,b\n", False, "unknown region 'a' at adjacency row 1"),
    # the header is the first record, even a blank one
    ("\na,b\n", True, "unknown region 'a' at adjacency row 2"),
    ('A,"B"\n" \n ",""\n\n  \nB,Q\n', False, "unknown region 'Q' at adjacency row 5"),
    ('"A,B",C\n', False, "unknown region 'A,B' at adjacency row 1"),
]


@pytest.mark.parametrize("text, header, message", ADJACENCY_ERRORS)
def test_parse_adjacency_messages(text, header, message):
    with pytest.raises(InputError, match="^" + re.escape(message) + "$"):
        parse_adjacency(io.StringIO(text), ("A", "B", "C"), header=header)


def test_parse_adjacency_csv_error_is_an_input_error(tmp_path):
    # LF, CRLF and a lone CR each end a line, whether a stream keeps them or not
    path = tmp_path / "adjacency.csv"
    path.write_bytes(b"A,B\rB,C\n")
    regions = ("A", "B", "C")
    from_path = parse_adjacency(path, regions).adjacency
    from_stream = parse_adjacency(io.StringIO("A,B\rB,C\n"), regions).adjacency
    assert from_stream.tolist() == from_path.tolist()
    assert from_stream.astype(int).tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    # a quoted cell is read by csv, whose field limit still holds
    text = 'A,"' + "B" * 200_000 + '"\n'
    with pytest.raises(InputError, match="^malformed CSV: field larger than field limit"):
        parse_adjacency(io.StringIO(text), regions)


def test_a_leading_blank_line_leaves_later_chunks_plain(monkeypatch):
    # each chunk is judged by its own lines: the chunk that starts with the
    # blank line is not plain by its own first line, so only it goes through
    # csv, and the later chunks stay plain
    monkeypatch.setattr(dataio, "_BLOCK", 64)
    calls = []
    csv_columns = dataio._csv_columns
    monkeypatch.setattr(dataio, "_csv_columns", lambda *args: calls.append(1) or csv_columns(*args))
    regions = tuple(f"r{i}" for i in range(200))
    text = "".join(f"r{i},r{i + 1}\n" for i in range(199))
    expected = parse_adjacency(io.StringIO(text), regions).adjacency
    assert not calls
    for lead in ("\n", '\n"r0",r1\n'):  # a plain or a quoted first chunk
        calls.clear()
        adj = parse_adjacency(io.StringIO(lead + text), regions).adjacency
        assert len(calls) <= 1 and adj.tolist() == expected.tolist()
    # record 1 is the blank line, 2 to 200 the pairs
    with pytest.raises(InputError, match="^unknown region 'q' at adjacency row 201$"):
        parse_adjacency(io.StringIO("\n" + text + "r0,q\n"), regions)


def test_parse_adjacency_strips_cells_and_skips_blank_rows(tmp_path):
    path = tmp_path / "adjacency.csv"
    texts = [
        ' A , B \n\n   \n , \n"C" ,"\tA"\r\n',
        # lone CR, CRLF and every cell quoted
        " A , B \r\r   \r , \rC ,\tA\r",
        " A , B \r\n\r\n   \r\n , \r\nC ,\tA\r\n",
        '" A "," B "\n\n"   "\n" "," "\n"C","\tA"\n',
    ]
    for text in texts:
        path.write_text(text, newline="")
        for source in (path, io.StringIO(text)):
            adj = parse_adjacency(source, ("A", "B", "C")).adjacency
            assert adj.astype(int).tolist() == [[0, 1, 1], [1, 0, 0], [1, 0, 0]], repr(text)
    adj = parse_adjacency(io.StringIO("x,y\nA,B\n"), ("A", "B", "C"), header=True).adjacency
    assert adj.sum() == 2 and adj[0, 1]


CENTROID_ERRORS = [
    ("region,x,y\nA,0\n", "centroid row 2 must be region,x,y"),
    ("region,x,y\nA,0,0\n\nB,1,1,1\n", "centroid row 4 must be region,x,y"),
    ("region,x,y\nQ,0,0\n", "unknown region 'Q' at centroid row 2"),
    ("region,x,y\nQ,x,y\n", "unknown region 'Q' at centroid row 2"),
    ("region,x,y\nA,0,0\n , \nB,1,y\n", "non-numeric coordinate at centroid row 4"),
    ("region,x,y\nA,0,0\nA,x,0\n", "region 'A' listed twice in centroids"),
    ("region,x,y\nA,0,0\nB,1,1\n", "missing centroids for region(s): ['C']"),
    ("region,x,y\nB,1,1\n", "missing centroids for region(s): ['A', 'C']"),
    ("", "missing centroids for region(s): ['A', 'B', 'C']"),
    # the header is the first record, even a blank one
    ("\nregion,x,y\n", "unknown region 'region' at centroid row 2"),
    ('region,x,y\n"A\n",0,0\nB,1,1\n"C",x,1\n', "non-numeric coordinate at centroid row 4"),
    ("region,x,y\nA,inf,0\n", "non-finite coordinate at centroid row 2"),
    ("region,x,y\nB,0,0\nA,nan,1\n", "non-finite coordinate at centroid row 3"),
    ("region,x,y\nA,nan,nan\nA,1,2\n", "non-finite coordinate at centroid row 2"),
]


@pytest.mark.parametrize("text, message", CENTROID_ERRORS)
def test_parse_centroids_messages(text, message):
    with pytest.raises(InputError, match="^" + re.escape(message) + "$"):
        parse_centroids(io.StringIO(text), ("A", "B", "C"))


def test_parse_centroids_strips_cells_and_skips_blank_rows(tmp_path):
    path = tmp_path / "centroids.csv"
    texts = [
        'region,x,y\n A , 0.5 ,1\n\n  \n , ,\n"C",-2, 3e1\r\n"B" ,"7",8\n',
        # lone CR, CRLF and every cell quoted
        "region,x,y\r A , 0.5 ,1\r\r  \r , ,\rC,-2, 3e1\rB ,7,8\r",
        "region,x,y\r\n A , 0.5 ,1\r\n\r\n  \r\n , ,\r\nC,-2, 3e1\r\nB ,7,8\r\n",
        '"region","x","y"\n" A "," 0.5 ","1"\n\n"  "\n" "," ",""\n"C","-2"," 3e1"\n'
        '"B ","7","8"\n',
    ]
    for text in texts:
        path.write_text(text, newline="")
        for source in (path, io.StringIO(text)):
            coords = parse_centroids(source, ("A", "B", "C"))
            assert coords.tolist() == [[0.5, 1.0], [7.0, 8.0], [-2.0, 30.0]], repr(text)
    coords = parse_centroids(io.StringIO("region,x,y\nA,1,2\n"), ("A",))
    assert coords.tolist() == [[1.0, 2.0]]


# ---------------------------------------------------------------------------
# stable JSON


def test_dumps_stable_formats():
    doc = {"a": 1, "b": 0.1 + 0.2, "c": [True, False, None], "d": "x\"y"}
    text = dumps_stable(doc)
    assert text == '{"a":1,"b":0.3,"c":[true,false,null],"d":"x\\"y"}\n'
    assert dumps_stable(doc) == text  # byte stable


def test_dumps_stable_twelve_significant_digits():
    assert dumps_stable(1 / 3).strip() == "0.333333333333"
    assert dumps_stable(123456789.123456789).strip() == "123456789.123"


def test_dumps_stable_rejects_non_finite():
    with pytest.raises(InputError):
        dumps_stable(float("nan"))
    with pytest.raises(InputError):
        dumps_stable({"x": float("inf")})


# ---------------------------------------------------------------------------
# report round trips


def example_report(rng):
    vals_p = rng.uniform(50.0, 150.0, size=(5, 4))
    vals_c = rng.poisson(vals_p * 0.1).astype(float) + 1.0
    p = make_tensor(vals_p, kinds=("space", "time"))
    c = CountTensor(p.modes, vals_c)
    return run_sst_hotspot(p, c, ring_adjacency(5))


def test_report_roundtrip_structural_and_byte_stable(tmp_path, rng):
    report = example_report(rng)
    path = tmp_path / "report.json"
    write_json(report_to_dict(report), path)
    back = read_report(path)
    assert report_to_dict(back) == json.loads(path.read_text())
    path2 = tmp_path / "report2.json"
    write_json(report_to_dict(back), path2)
    assert path.read_bytes() == path2.read_bytes()


def test_empty_report_serializes_validly(rng):
    vals = rng.uniform(50.0, 150.0, size=(4, 3))
    p = make_tensor(vals, kinds=("space", "time"))
    c = CountTensor(p.modes, vals * 2.0)  # exact multiple: nothing detected
    report = run_sst_hotspot(p, c, ring_adjacency(4))
    doc = report_to_dict(report)
    assert doc["space"]["sc"] == []
    assert doc["clusters"]["first"] == []
    assert doc["time"]["first_intervals"] == []
    rebuilt = report_from_dict(doc)
    assert report_to_dict(rebuilt) == doc


def test_scan_result_roundtrip_with_labels(tmp_path, rng):
    coords = rng.random((4, 2))
    pop = rng.integers(40, 90, size=(4, 3)).astype(float)
    cases = rng.poisson(pop * 0.2).astype(float)
    cands = enumerate_cylinders(times=3, coords=coords)
    res = scan(
        cases,
        pop,
        cands,
        regions=("A", "B", "C", "D"),
        times=("t0", "t1", "t2"),
    )
    res = monte_carlo_p(res, replications=9, seed=2).result(alpha=0.05, top=None)
    path = tmp_path / "scan.json"
    write_json(scan_to_dict(res, alpha=0.05, top=10), path)
    back = read_report(path)
    assert back.c_total == res.c_total
    assert len(back.cylinders) == 10
    for a, b in zip(res.cylinders[:10], back.cylinders):
        assert a.members == b.members and a.window == b.window
        assert a.score == pytest.approx(b.score, rel=1e-11)
        assert a.p_value == b.p_value


def test_scan_document_reads_back_with_its_recorded_clusters():
    # two hot blocks far apart: the second block's cluster ranks below --top 1
    coords = np.array([[float(i), 0.0] for i in range(8)])
    pop = np.full((8, 4), 100.0)
    cases = np.full((8, 4), 20.0)
    cases[1, :2] += 60.0
    cases[6, 2:] += 40.0
    fam = enumerate_cylinders(times=4, coords=coords)
    scored = monte_carlo_p(scan(cases, expected_baseline(cases, pop), fam), 99, seed=3)
    res = scored.result(alpha=0.05, top=None)
    clusters = [(c.members, c.window) for c in res.significant_clusters(0.05)]
    assert len(clusters) >= 2
    back = scan_from_dict(scan_to_dict(res, alpha=0.05, top=1))
    assert len(back.cylinders) == 1 and back.alpha == 0.05
    assert [(c.members, c.window) for c in back.significant_clusters(0.05)] == clusters
    for alpha in (0.01, 0.5):
        with pytest.raises(InputError, match="differs from the scan's alpha 0.05") as exc:
            back.significant_clusters(alpha)
        assert exc.value.module == "stscan"
    # without an alpha the document records no clusters; they come from its rows, at any alpha
    back = scan_from_dict(scan_to_dict(res))
    assert (back.alpha, back.clusters) == (None, ())
    for alpha in (0.01, 0.05):
        got = [(c.members, c.window) for c in back.significant_clusters(alpha)]
        at = scored.result(alpha=alpha, top=None)
        assert got == [(c.members, c.window) for c in at.significant_clusters(alpha)]


def test_cut_scan_document_writes_back_its_recorded_total():
    # the document keeps one row of many significant cylinders; read back and
    # written again, it records the same total, not a recount of its one row
    coords = np.array([[float(i), 0.0] for i in range(8)])
    pop = np.full((8, 4), 100.0)
    cases = np.full((8, 4), 20.0)
    cases[1, :2] += 60.0
    fam = enumerate_cylinders(times=4, coords=coords)
    scored = monte_carlo_p(scan(cases, expected_baseline(cases, pop), fam), 99, seed=3)
    res = scored.result(top=None)
    for top in (1, 0, None):
        doc = scan_to_dict(res, alpha=0.05, top=top)
        assert doc["significant_total"] > 1
        again = scan_to_dict(scan_from_dict(doc), alpha=doc["alpha"], top=doc["top"])
        assert dumps_stable(again) == dumps_stable(doc)
    with pytest.raises(InputError, match="differs from the scan's alpha"):
        scan_to_dict(scan_from_dict(doc), alpha=0.5)


def test_a_document_without_alpha_is_not_written_at_one():
    # cut to 10 rows and written without alpha, the document records no count
    # of significant cylinders; written again at an alpha it used to report
    # the count of its own rows, 10, where the scan found 2530
    data = generate(SynthConfig(
        regions=25, times=8, injected_regions=("r12", "r13"), window=(3, 5),
        relative_risk=4.0, seed=3,
    ))
    cases = data.cases.values
    baseline = expected_baseline(cases, data.population.values)
    fam = enumerate_cylinders(times=8, coords=data.coords, region_baseline=baseline.sum(axis=1))
    res = monte_carlo_scan(cases, baseline, fam, 99, 1)
    assert scan_to_dict(res, alpha=0.05)["significant_total"] == 2530
    back = scan_from_dict(scan_to_dict(res, top=10))
    assert back.alpha is None and len(back.cylinders) == 10
    with pytest.raises(InputError, match="alpha 0.05 differs from the scan's alpha None"):
        scan_to_dict(back, alpha=0.05)


def test_scan_result_roundtrip_without_labels():
    cyl_doc = scan_to_dict(
        scan(
            np.array([[2.0, 2.0]]),
            np.array([[2.0, 2.0]]),
            enumerate_cylinders(times=2, coords=np.zeros((1, 2))),
        ).result(top=None)
    )
    back = scan_from_dict(cyl_doc)
    assert back.cylinders[0].members == (0,)


def test_scan_document_rejects_negative_top_and_alpha_outside_unit_interval():
    one = enumerate_cylinders(times=2, coords=np.zeros((1, 2)))
    res = scan(np.ones((1, 2)), np.ones((1, 2)), one).result(alpha=1.0, top=None)
    assert scan_to_dict(res, alpha=1.0, top=0)["cylinders"] == []
    with pytest.raises(InputError, match="top"):
        scan_to_dict(res, top=-1)
    for alpha in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(InputError, match="alpha"):
            scan_to_dict(res, alpha=alpha)


def test_tensor_document_bytes_list_values_first_mode_fastest():
    modes = (
        ModeLabel("space", ("s0", "s1")),
        ModeLabel("time", ("t0", "t1")),
        ModeLabel("attribute", ("a0", "a1")),
    )
    # the value at (i, j, l) is 1 + i + 2j + 4l
    t = CountTensor(modes, np.array([[[1.0, 5.0], [3.0, 7.0]], [[2.0, 6.0], [4.0, 8.0]]]))
    assert dumps_stable(tensor_to_dict(t)) == (
        '{"schema":"count-tensor/1","modes":['
        '{"name":"space","kind":"space","categories":["s0","s1"]},'
        '{"name":"time","kind":"time","categories":["t0","t1"]},'
        '{"name":"attribute","kind":"attribute","categories":["a0","a1"]}],'
        '"values":[1,2,3,4,5,6,7,8]}\n'
    )


def test_read_report_unknown_schema(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"schema": "bogus/9"}')
    with pytest.raises(InputError):
        read_report(path)


@pytest.mark.parametrize("read", [read_report, RegionGeometry.from_geojson, load_schema])
def test_json_readers_reject_malformed_documents(tmp_path, read):
    path = tmp_path / "doc.json"
    path.write_text('{"schema": ')
    with pytest.raises(InputError, match="^" + re.escape(f"{path} is not valid JSON: Expecting value")):
        read(path)
    with pytest.raises(InputError, match=r"^input is not valid JSON: "):
        read(io.StringIO("[1,"))


@pytest.mark.parametrize(
    "read, doc, message",
    [
        (read_report, [], "malformed report document: 'list' object has no attribute 'get'"),
        (read_report, {"schema": "hotspot-report/1"}, "malformed report document: 'space'"),
        (read_report, {"schema": "scan-result/1", "regions": None}, "malformed scan document: 'cylinders'"),
        (report_from_dict, {"schema": "hotspot-report/1", "space": []}, "malformed report document: "),
        (scan_from_dict, "scan", "malformed scan document: 'str' object has no attribute 'get'"),
        (
            RegionGeometry.from_geojson,
            {"type": "FeatureCollection", "features": [{"properties": {"id": "A"}}]},
            "feature without the 'region' property",
        ),
        (RegionGeometry.from_geojson, [], "malformed GeoJSON document: 'list' object has no attribute 'get'"),
        (
            RegionGeometry.from_geojson,
            {"type": "FeatureCollection", "features": [{"properties": "A"}]},
            "malformed GeoJSON document: 'str' object has no attribute 'get'",
        ),
        (load_schema, {"modes": [{"name": "x"}]}, "malformed schema document: 'kind'"),
        (load_schema, [], "malformed schema document: list indices must be integers"),
        (
            load_schema,
            {"modes": [{"name": "r", "kind": "space", "columns": [["r"]]}, *SCHEMA_MODES[1:]]},
            "malformed schema document: unhashable type: 'list'",
        ),
        # a list count column is unhashable too, and would fail only when a file is parsed
        (load_schema, {"modes": SCHEMA_MODES, "count_column": ["count"]}, "count column must be a string, not list"),
    ],
)
def test_documents_of_the_wrong_shape_are_input_errors(read, doc, message):
    if read in (read_report, RegionGeometry.from_geojson, load_schema):
        doc = io.StringIO(json.dumps(doc))
    with pytest.raises(InputError, match="^" + re.escape(message)) as exc:
        read(doc)
    assert exc.value.module == "dataio"


def test_write_json_writes_to_stdout_by_default(capsys, tmp_path):
    write_json({"a": [1, 0.5]})
    assert capsys.readouterr().out == '{"a":[1,0.5]}\n'
    write_json({"a": "b\nc"}, tmp_path / "doc.json")
    assert (tmp_path / "doc.json").read_bytes() == b'{"a":"b\\nc"}\n'


# ---------------------------------------------------------------------------
# GeoJSON


def square(x, y):
    return {
        "type": "Polygon",
        "coordinates": [[[x, y], [x + 1, y], [x + 1, y + 1], [x, y + 1], [x, y]]],
    }


def test_write_geojson_roles_and_skip(tmp_path, rng):
    # engineered report: s2 is a hot center in a 6-region ring
    n = 6
    pop = np.full((n, 5), 100.0)
    cases = pop * 0.02
    cases[2, :] *= 3.0
    p = make_tensor(pop, kinds=("space", "time"))
    c = CountTensor(p.modes, cases)
    report = run_sst_hotspot(p, c, ring_adjacency(n))
    assert "s2" in report.spatial.sc

    geoms = {f"s{i}": square(i, 0) for i in range(n) if i != 5}  # s5 missing
    geometry = RegionGeometry(geometries=geoms)
    path = tmp_path / "out.geojson"
    assert write_geojson(report, geometry, path) == ("s5",)

    doc = json.loads(path.read_text())
    assert doc["type"] == "FeatureCollection"
    assert len(doc["features"]) == n - 1
    by_region = {f["properties"]["region"]: f["properties"] for f in doc["features"]}
    assert by_region["s2"]["role"] == "center"
    assert all(
        p_["role"] in ("center", "first", "second", "likely", "none")
        for p_ in by_region.values()
    )
    members_of_s2 = set(report.clusters_second.clusters["s2"])
    for region, props in by_region.items():
        assert ("s2" in props["clusters"]) == (region in members_of_s2)

    path2 = tmp_path / "out2.geojson"
    assert write_geojson(report, geometry, path2) == ("s5",)
    assert path.read_bytes() == path2.read_bytes()
    full = RegionGeometry(geometries={**geoms, "s5": square(5, 0)})
    assert write_geojson(report, full, tmp_path / "full.geojson") == ()


def test_region_geometry_from_geojson(tmp_path):
    doc = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "geometry": square(0, 0),
                "properties": {"region": "A", "centroid": [0.5, 0.5]},
            }
        ],
    }
    path = tmp_path / "geo.json"
    path.write_text(json.dumps(doc))
    geo = RegionGeometry.from_geojson(path)
    assert "A" in geo.geometries
    # a centroid property is not read, whatever it holds
    for centroid in ("here", [1]):
        doc["features"][0]["properties"]["centroid"] = centroid
        path.write_text(json.dumps(doc))
        assert RegionGeometry.from_geojson(path).geometries == {"A": square(0, 0)}
    path.write_text(json.dumps({"type": "Feature"}))
    with pytest.raises(InputError):
        RegionGeometry.from_geojson(path)
