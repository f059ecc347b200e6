import json
import shutil
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "eigenspot"]


def run_cli(args, **kwargs):
    return subprocess.run(
        CLI + args, capture_output=True, text=True, **kwargs
    )


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    res = run_cli(
        [
            "synth",
            "--regions", "16",
            "--times", "6",
            "--baseline", "500",
            "--case-rate", "0.04",
            "--risk", "3",
            "--inject", "r05,r06",
            "--window", "2:4",
            "--seed", "12",
            "--out-dir", str(out),
        ]
    )
    assert res.returncode == 0, res.stderr
    return out


def detect_args(data, extra=()):
    return [
        "detect",
        "--cases", str(data / "cases.csv"),
        "--population", str(data / "population.csv"),
        "--adjacency", str(data / "adjacency.csv"),
        "--schema", str(data / "schema.json"),
        *extra,
    ]


def test_synth_is_deterministic(tmp_path, synth_dir):
    again = tmp_path / "again"
    res = run_cli(
        [
            "synth",
            "--regions", "16",
            "--times", "6",
            "--baseline", "500",
            "--case-rate", "0.04",
            "--risk", "3",
            "--inject", "r05,r06",
            "--window", "2:4",
            "--seed", "12",
            "--out-dir", str(again),
        ]
    )
    assert res.returncode == 0, res.stderr
    for name in ("cases.csv", "population.csv", "adjacency.csv", "centroids.csv", "schema.json", "truth.json"):
        assert (again / name).read_bytes() == (synth_dir / name).read_bytes()


def test_synth_without_seed_uses_fixed_default(tmp_path):
    # omitting --seed must fall back to a constant, never the clock
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        res = run_cli(
            ["synth", "--regions", "4", "--times", "3", "--out-dir", str(out)]
        )
        assert res.returncode == 0, res.stderr
        outputs.append((out / "cases.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_detect_finds_injected_block(synth_dir, tmp_path):
    out = tmp_path / "report.json"
    res = run_cli(detect_args(synth_dir, ["--out", str(out)]))
    assert res.returncode == 0, res.stderr
    doc = json.loads(out.read_text())
    assert doc["schema"] == "hotspot-report/1"
    assert set(doc["space"]["sc"]) & {"r05", "r06"}


def test_detect_writes_to_stdout_when_no_out(synth_dir):
    res = run_cli(detect_args(synth_dir))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["schema"] == "hotspot-report/1"


def test_detect_identical_files_give_empty_report(synth_dir, tmp_path):
    cases = tmp_path / "cases.csv"
    shutil.copy(synth_dir / "population.csv", cases)
    res = run_cli(
        [
            "detect",
            "--cases", str(cases),
            "--population", str(synth_dir / "population.csv"),
            "--adjacency", str(synth_dir / "adjacency.csv"),
            "--schema", str(synth_dir / "schema.json"),
        ]
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["space"]["sc"] == []
    assert doc["space"]["sl"] == []
    assert doc["time"]["tc"] == []


def test_detect_unknown_adjacency_region_exits_2(synth_dir, tmp_path):
    bad = tmp_path / "adjacency.csv"
    bad.write_text("r05,r99\n")
    res = run_cli(
        [
            "detect",
            "--cases", str(synth_dir / "cases.csv"),
            "--population", str(synth_dir / "population.csv"),
            "--adjacency", str(bad),
            "--schema", str(synth_dir / "schema.json"),
        ]
    )
    assert res.returncode == 2
    err = json.loads(res.stderr.splitlines()[-1])
    assert err["error"]["module"] == "dataio"
    assert "r99" in err["error"]["message"]


def test_detect_unknown_category_warns_once_and_exits_0(synth_dir, tmp_path):
    schema = json.loads((synth_dir / "schema.json").read_text())
    schema["categories"] = {"region": [f"r{i:02d}" for i in range(16)]}
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    cases = tmp_path / "cases.csv"
    cases.write_text((synth_dir / "cases.csv").read_text() + "r99,t02,7\n")
    args = detect_args(synth_dir)
    args[args.index("--schema") + 1] = str(tmp_path / "schema.json")
    clean = run_cli(args)
    args[args.index("--cases") + 1] = str(cases)
    res = run_cli(args)
    assert res.returncode == 0, res.stderr
    assert res.stderr.splitlines() == ['{"warning": {"unknown_categories": {"region": ["r99"]}}}']
    # the excluded row leaves the report as it is without that row
    assert clean.returncode == 0 and clean.stderr == ""
    assert res.stdout == clean.stdout


def test_detect_numeric_explicit_categories_exit_2(synth_dir, tmp_path):
    # a year list written as JSON numbers would match no CSV value
    schema = json.loads((synth_dir / "schema.json").read_text())
    schema["categories"] = {"time": [0, 1, 2]}
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    args = detect_args(synth_dir)
    args[args.index("--schema") + 1] = str(tmp_path / "schema.json")
    res = run_cli(args)
    assert res.returncode == 2
    err = json.loads(res.stderr.splitlines()[-1])
    assert err["error"]["module"] == "dataio"
    assert err["error"]["message"] == "explicit category 0 for column 'time' is not a string"


def test_detect_string_category_list_exit_2(synth_dir, tmp_path):
    # a bare string in place of a list would split into one category per character
    schema = json.loads((synth_dir / "schema.json").read_text())
    schema["categories"] = {"time": "t00"}
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    args = detect_args(synth_dir)
    args[args.index("--schema") + 1] = str(tmp_path / "schema.json")
    res = run_cli(args)
    assert res.returncode == 2
    err = json.loads(res.stderr.splitlines()[-1])
    assert err["error"]["module"] == "dataio"
    assert err["error"]["message"] == "explicit categories for column 'time' must be a list, not str"


def test_line_breaks_quoting_and_bom_give_identical_outputs(synth_dir, tmp_path):
    # one data set written four ways; region r05 is renamed, and only the
    # quoted variant can carry a comma in its name, so that variant's
    # outputs must equal the others' with the name swapped
    plain, comma = "Do\u00f1a Ana NM", "Do\u00f1a Ana, NM"
    files = {}
    for name in ("cases.csv", "population.csv", "adjacency.csv"):
        rows = [line.split(",") for line in (synth_dir / name).read_text().splitlines()]
        files[name] = [[plain if v == "r05" else v for v in row] for row in rows]
    variants = {
        "lf": ("\n", False, ""),
        "crlf": ("\r\n", False, ""),
        "bom": ("\n", False, "\ufeff"),
        "quoted": ("\n", True, ""),
    }
    outputs = {}
    for variant, (eol, quoted, bom) in variants.items():
        data = tmp_path / variant
        data.mkdir()
        shutil.copy(synth_dir / "schema.json", data)
        for name, rows in files.items():
            if quoted:
                lines = [",".join('"%s"' % v.replace(plain, comma) for v in row) for row in rows]
            else:
                lines = [",".join(row) for row in rows]
            (data / name).write_text(bom + eol.join(lines) + eol, encoding="utf-8")
        build = run_cli(
            ["build", "--input", str(data / "cases.csv"), "--schema", str(data / "schema.json")]
        )
        detect = run_cli(detect_args(data))
        assert build.returncode == 0 and detect.returncode == 0, (build.stderr, detect.stderr)
        outputs[variant] = (build.stdout, detect.stdout)
    assert json.dumps(plain) in outputs["lf"][0] and json.dumps(plain) in outputs["lf"][1]
    assert outputs["crlf"] == outputs["lf"]
    assert outputs["bom"] == outputs["lf"]
    assert outputs["quoted"] == tuple(
        out.replace(json.dumps(plain), json.dumps(comma)) for out in outputs["lf"]
    )


def test_detect_geojson_needs_geometry(synth_dir, tmp_path):
    res = run_cli(detect_args(synth_dir, ["--geojson", str(tmp_path / "x.geojson")]))
    assert res.returncode == 2
    err = json.loads(res.stderr.splitlines()[-1])
    assert err["error"]["module"] == "cli"


def test_detect_geojson_output(synth_dir, tmp_path):
    geometry = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [[[i, 0], [i + 1, 0], [i + 1, 1], [i, 1], [i, 0]]],
                },
                "properties": {"region": f"r{i:02d}"},
            }
            for i in range(16)
        ],
    }
    geo_path = tmp_path / "regions.geojson"
    geo_path.write_text(json.dumps(geometry))
    out = tmp_path / "report.json"
    gj = tmp_path / "report.geojson"
    res = run_cli(
        detect_args(
            synth_dir,
            ["--out", str(out), "--geojson", str(gj), "--geometry", str(geo_path)],
        )
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(gj.read_text())
    roles = {f["properties"]["region"]: f["properties"]["role"] for f in doc["features"]}
    report = json.loads(out.read_text())
    for center in report["space"]["sc"]:
        assert roles[center] == "center"


def test_detect_geojson_reports_missing_geometry_on_stderr(synth_dir, tmp_path):
    geometry = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [i, 0]},
                "properties": {"region": f"r{i:02d}"},
            }
            for i in range(16)
            if i not in (3, 11)
        ],
    }
    geo_path = tmp_path / "regions.geojson"
    geo_path.write_text(json.dumps(geometry))
    gj = tmp_path / "report.geojson"
    res = run_cli(detect_args(synth_dir, ["--geojson", str(gj), "--geometry", str(geo_path)]))
    assert res.returncode == 0, res.stderr
    assert res.stderr.splitlines() == ['{"warning": {"geometry_missing": ["r03", "r11"]}}']
    assert len(json.loads(gj.read_text())["features"]) == 14
    # the report itself is the one written without GeoJSON
    assert res.stdout == run_cli(detect_args(synth_dir)).stdout


def test_scan_cylinder_combinatorics_single_region(tmp_path):
    (tmp_path / "cases.csv").write_text(
        "region,time,count\nA,t0,5\nA,t1,6\nA,t2,4\n"
    )
    (tmp_path / "population.csv").write_text(
        "region,time,count\nA,t0,100\nA,t1,100\nA,t2,100\n"
    )
    (tmp_path / "centroids.csv").write_text("region,x,y\nA,0,0\n")
    (tmp_path / "schema.json").write_text(
        json.dumps(
            {
                "modes": [
                    {"name": "region", "kind": "space", "columns": ["region"]},
                    {"name": "time", "kind": "time", "columns": ["time"]},
                ],
                "count_column": "count",
            }
        )
    )
    res = run_cli(
        [
            "scan",
            "--cases", str(tmp_path / "cases.csv"),
            "--population", str(tmp_path / "population.csv"),
            "--schema", str(tmp_path / "schema.json"),
            "--centroids", str(tmp_path / "centroids.csv"),
            "--replications", "9",
            "--seed", "1",
        ]
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert len(doc["cylinders"]) == 6
    windows = sorted(tuple(c["window"]) for c in doc["cylinders"])
    assert windows == [
        ("t0", "t0"), ("t0", "t1"), ("t0", "t2"),
        ("t1", "t1"), ("t1", "t2"), ("t2", "t2"),
    ]


def test_scan_requires_geometry_source(synth_dir):
    res = run_cli(
        [
            "scan",
            "--cases", str(synth_dir / "cases.csv"),
            "--population", str(synth_dir / "population.csv"),
            "--schema", str(synth_dir / "schema.json"),
        ]
    )
    assert res.returncode == 2


def test_scan_deterministic_and_finds_block(synth_dir, tmp_path):
    args = [
        "scan",
        "--cases", str(synth_dir / "cases.csv"),
        "--population", str(synth_dir / "population.csv"),
        "--schema", str(synth_dir / "schema.json"),
        "--centroids", str(synth_dir / "centroids.csv"),
        "--replications", "99",
        "--seed", "21",
    ]
    a = run_cli(args + ["--out", str(tmp_path / "a.json")])
    b = run_cli(args + ["--out", str(tmp_path / "b.json")])
    assert a.returncode == 0 and b.returncode == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    doc = json.loads((tmp_path / "a.json").read_text())
    top = doc["cylinders"][0]
    assert set(top["members"]) & {"r05", "r06"}
    assert top["p_value"] <= 0.05


def test_eval_end_to_end(synth_dir, tmp_path):
    report = tmp_path / "report.json"
    scan_out = tmp_path / "scan.json"
    assert run_cli(detect_args(synth_dir, ["--out", str(report)])).returncode == 0
    assert (
        run_cli(
            [
                "scan",
                "--cases", str(synth_dir / "cases.csv"),
                "--population", str(synth_dir / "population.csv"),
                "--schema", str(synth_dir / "schema.json"),
                "--centroids", str(synth_dir / "centroids.csv"),
                "--replications", "99",
                "--seed", "2",
                "--out", str(scan_out),
            ]
        ).returncode
        == 0
    )
    cmp_json = tmp_path / "cmp.json"
    cmp_csv = tmp_path / "cmp.csv"
    res = run_cli(
        [
            "eval",
            "--detect", str(report),
            "--scan", str(scan_out),
            "--truth", str(synth_dir / "truth.json"),
            "--out", str(cmp_json),
            "--out-csv", str(cmp_csv),
        ]
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(cmp_json.read_text())
    methods = {row["method"] for row in doc["rows"]}
    assert methods == {"sst-hotspot", "st-scan"}
    assert cmp_csv.read_text().startswith("method,level,precision,recall,f1")


def test_eval_empty_detection_yields_zero_row(synth_dir, tmp_path):
    cases = tmp_path / "cases.csv"
    shutil.copy(synth_dir / "population.csv", cases)
    report = tmp_path / "null_report.json"
    res = run_cli(
        [
            "detect",
            "--cases", str(cases),
            "--population", str(synth_dir / "population.csv"),
            "--adjacency", str(synth_dir / "adjacency.csv"),
            "--schema", str(synth_dir / "schema.json"),
            "--out", str(report),
        ]
    )
    assert res.returncode == 0
    scan_out = tmp_path / "scan.json"
    assert (
        run_cli(
            [
                "scan",
                "--cases", str(synth_dir / "cases.csv"),
                "--population", str(synth_dir / "population.csv"),
                "--schema", str(synth_dir / "schema.json"),
                "--centroids", str(synth_dir / "centroids.csv"),
                "--replications", "9",
                "--seed", "2",
                "--out", str(scan_out),
            ]
        ).returncode
        == 0
    )
    res = run_cli(
        [
            "eval",
            "--detect", str(report),
            "--scan", str(scan_out),
            "--truth", str(synth_dir / "truth.json"),
        ]
    )
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    centers = next(r for r in doc["rows"] if r["level"] == "centers")
    assert (centers["precision"], centers["recall"], centers["f1"]) == (0.0, 0.0, 0.0)


def test_eval_counts_significant_clusters_ranked_below_top(synth_dir, tmp_path):
    # a second hot spot in r15 ranks below the r05/r06 block; with --top 1
    # it is missing from the ranked list but not from the significant one
    lines = (synth_dir / "cases.csv").read_text().splitlines()
    hot = []
    for line in lines[1:]:
        region, time, count = line.split(",")
        if region == "r15" and time in ("t00", "t01"):
            count = str(int(float(count)) * 3)
        hot.append(f"{region},{time},{count}")
    cases = tmp_path / "cases.csv"
    cases.write_text("\n".join([lines[0], *hot]) + "\n")
    report, scan_out = tmp_path / "report.json", tmp_path / "scan.json"
    assert run_cli(detect_args(synth_dir, ["--out", str(report)])).returncode == 0
    res = run_cli(
        [
            "scan",
            "--cases", str(cases),
            "--population", str(synth_dir / "population.csv"),
            "--schema", str(synth_dir / "schema.json"),
            "--centroids", str(synth_dir / "centroids.csv"),
            "--replications", "99",
            "--seed", "1",
            "--top", "1",
            "--out", str(scan_out),
        ]
    )
    assert res.returncode == 0, res.stderr
    scan_doc = json.loads(scan_out.read_text())
    assert len(scan_doc["cylinders"]) == 1 and len(scan_doc["significant"]) == 2

    eval_args = [
        "eval",
        "--detect", str(report),
        "--scan", str(scan_out),
        "--truth", str(synth_dir / "truth.json"),
    ]
    res = run_cli(eval_args)
    assert res.returncode == 0, res.stderr
    row = next(r for r in json.loads(res.stdout)["rows"] if r["method"] == "st-scan")
    assert row["detected"] == sorted({m for c in scan_doc["significant"] for m in c["members"]})
    assert "r15" in row["detected"]

    res = run_cli(eval_args + ["--alpha", "0.01"])
    assert res.returncode == 2
    assert json.loads(res.stderr)["error"]["type"] == "InputError"


@pytest.fixture()
def attribute_data(tmp_path):
    """Tiny 3-mode dataset: region x year x bundled (age, sex)."""
    rng = __import__("numpy").random.default_rng(8)
    rows_c = ["region,year,age,sex,count"]
    rows_p = ["region,year,age,sex,count"]
    for r in ("A", "B", "C"):
        for y in ("y0", "y1", "y2"):
            for a in ("young", "old"):
                for s in ("f", "m"):
                    pop = 200
                    mean = 6.0 if (r, y) != ("B", "y1") else 18.0
                    rows_p.append(f"{r},{y},{a},{s},{pop}")
                    rows_c.append(f"{r},{y},{a},{s},{int(rng.poisson(mean))}")
    (tmp_path / "cases.csv").write_text("\n".join(rows_c) + "\n")
    (tmp_path / "population.csv").write_text("\n".join(rows_p) + "\n")
    (tmp_path / "adjacency.csv").write_text("A,B\nB,C\n")
    (tmp_path / "centroids.csv").write_text("region,x,y\nA,0,0\nB,1,0\nC,2,0\n")
    (tmp_path / "schema.json").write_text(
        json.dumps(
            {
                "modes": [
                    {"name": "region", "kind": "space", "columns": ["region"]},
                    {"name": "year", "kind": "time", "columns": ["year"]},
                    {"name": "demo", "kind": "attribute", "columns": ["age", "sex"]},
                ],
                "count_column": "count",
            }
        )
    )
    return tmp_path


def test_detect_and_scan_with_attribute_modes(attribute_data):
    data = attribute_data
    res = run_cli(
        [
            "detect",
            "--cases", str(data / "cases.csv"),
            "--population", str(data / "population.csv"),
            "--adjacency", str(data / "adjacency.csv"),
            "--schema", str(data / "schema.json"),
        ]
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["config"]["order"] == 3
    assert doc["config"]["dims"] == [3, 3, 4]  # bundled mode: 2 ages x 2 sexes
    # the scan marginalizes the attribute mode away
    res = run_cli(
        [
            "scan",
            "--cases", str(data / "cases.csv"),
            "--population", str(data / "population.csv"),
            "--schema", str(data / "schema.json"),
            "--centroids", str(data / "centroids.csv"),
            "--replications", "49",
            "--seed", "5",
            "--elevated-only", "off",
        ]
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert "B" in doc["cylinders"][0]["members"]


def test_build_command_roundtrip(synth_dir):
    res = run_cli(
        [
            "build",
            "--input", str(synth_dir / "cases.csv"),
            "--schema", str(synth_dir / "schema.json"),
        ]
    )
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["schema"] == "count-tensor/1"
    assert len(doc["values"]) == 16 * 6
    kinds = [m["kind"] for m in doc["modes"]]
    assert kinds == ["space", "time"]


def test_missing_input_file_is_a_clean_error(tmp_path):
    res = run_cli(
        [
            "build",
            "--input", str(tmp_path / "nope.csv"),
            "--schema", str(tmp_path / "schema.json"),
        ]
    )
    assert res.returncode == 2


def test_numerical_failure_exits_3(synth_dir, tmp_path):
    # an all-zero cases file has no eigen-direction in any mode
    lines = ["region,time,count"]
    pop_lines = (synth_dir / "population.csv").read_text().splitlines()[1:]
    for line in pop_lines:
        region, t, _ = line.split(",")
        lines.append(f"{region},{t},0")
    zeros = tmp_path / "cases.csv"
    zeros.write_text("\n".join(lines) + "\n")
    res = run_cli(
        [
            "detect",
            "--cases", str(zeros),
            "--population", str(synth_dir / "population.csv"),
            "--adjacency", str(synth_dir / "adjacency.csv"),
            "--schema", str(synth_dir / "schema.json"),
        ]
    )
    assert res.returncode == 3
    err = json.loads(res.stderr.splitlines()[-1])
    assert err["error"]["module"] == "tensors"
    assert err["error"]["type"] == "DegenerateModeError"


def test_convergence_failure_exits_3(synth_dir, tmp_path):
    # two disjoint blocks of cases whose masses differ by 1e-4 leave the
    # leading eigenvalues nearly tied, and power iteration runs out of steps
    header = "region,time,count\n"
    cells = [(r, t) for r in range(4) for t in range(4)]
    blocks = {(0, 0): 10000, (1, 1): 10001}  # (r // 2, t // 2) -> count per cell
    cases = tmp_path / "cases.csv"
    cases.write_text(
        header
        + "".join(f"r{r:02d},t{t:02d},{blocks.get((r // 2, t // 2), 0)}\n" for r, t in cells)
    )
    population = tmp_path / "population.csv"
    population.write_text(header + "".join(f"r{r:02d},t{t:02d},1000\n" for r, t in cells))
    adjacency = tmp_path / "adjacency.csv"
    adjacency.write_text("r00,r01\nr00,r02\nr01,r03\nr02,r03\n")
    res = run_cli(
        [
            "detect",
            "--cases", str(cases),
            "--population", str(population),
            "--adjacency", str(adjacency),
            "--schema", str(synth_dir / "schema.json"),
        ]
    )
    assert res.returncode == 3
    err_lines = res.stderr.splitlines()
    assert len(err_lines) == 1
    err = json.loads(err_lines[0])
    assert err["error"]["module"] == "tensors"
    assert err["error"]["type"] == "ConvergenceError"


def test_bad_ranks_flag(synth_dir):
    res = run_cli(detect_args(synth_dir, ["--ranks", "2,two"]))
    assert res.returncode == 2
    err = json.loads(res.stderr.splitlines()[-1])
    assert err["error"]["module"] == "cli"
