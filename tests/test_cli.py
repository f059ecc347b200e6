import argparse
import ast
import gc
import importlib
import json
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import eigenspot
from eigenspot import cli
from eigenspot.dataio import dumps_stable, read_report, scan_from_dict, scan_to_dict
from eigenspot.errors import InputError
from eigenspot.evalsynth import scan_detected

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


@pytest.mark.parametrize("option, value", [("--risk", "nan"), ("--case-rate", "1e300")])
def test_synth_with_a_parameter_it_cannot_draw_from_exits_2(tmp_path, option, value):
    res = run_cli([
        "synth", "--regions", "4", "--times", "3", "--inject", "r00", "--window", "0:1",
        option, value, "--out-dir", str(tmp_path / "out"),
    ])
    assert res.returncode == 2 and "Traceback" not in res.stderr, res.stderr
    err = json.loads(res.stderr.splitlines()[-1])
    assert err["error"]["module"] == "evalsynth"


@pytest.mark.parametrize("window", ["0:9", "2:1"], ids=["past-the-end", "reversed"])
def test_synth_with_a_bad_window_exits_2_and_writes_nothing(tmp_path, window):
    # the window goes into truth.json whether or not a region is injected
    out = tmp_path / "out"
    res = run_cli(["synth", "--regions", "4", "--times", "3", "--window", window, "--out-dir", str(out)])
    err = one_line_error(res)
    assert (err["type"], err["module"]) == ("InputError", "evalsynth")
    assert err["message"].startswith(f"window ({window.replace(':', ', ')}) ")
    assert not out.exists()


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


@pytest.mark.parametrize(
    "change, message",
    [
        ({"count_column": "region"}, "count column 'region' is also a mapped column"),
        (
            {"modes": [{"name": "region", "kind": "space", "columns": ["region"]},
                       {"name": "region", "kind": "time", "columns": ["time"]}]},
            "schema names mode 'region' twice",
        ),
    ],
    ids=["count-column-mapped", "mode-named-twice"],
)
@pytest.mark.parametrize("command", ["detect", "build"])
def test_schema_collisions_exit_2(synth_dir, tmp_path, change, message, command):
    schema = {**json.loads((synth_dir / "schema.json").read_text()), **change}
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    if command == "detect":
        args = detect_args(synth_dir)
        args[args.index("--schema") + 1] = str(tmp_path / "schema.json")
    else:
        args = ["build", "--input", str(synth_dir / "cases.csv"),
                "--schema", str(tmp_path / "schema.json")]
    res = run_cli(args)
    assert res.returncode == 2 and res.stdout == ""
    err = json.loads(res.stderr.splitlines()[-1])
    assert err["error"]["module"] == "dataio"
    assert err["error"]["message"] == message


def one_line_error(res):
    """The single JSON error line a failed run writes, with no traceback."""
    assert res.returncode == 2 and res.stdout == "", res.stderr
    (line,) = res.stderr.splitlines()
    return json.loads(line)["error"]


@pytest.mark.parametrize(
    "text, message",
    [
        (b'{"modes": [', "{schema} is not valid JSON: Expecting value: line 1 column 12 (char 11)"),
        (b'\xff\xfe{"modes": []}', "{schema} is not UTF-8 text: byte 0xff at offset 0"),
        (
            b'{"modes": [{"name": "region", "kind": "space", "columns": ["region"]}, '
            b'{"name": "time", "kind": "time", "columns": ["time"]}], "count_column": ["count"]}',
            "count column must be a string, not list",
        ),
    ],
    ids=["truncated", "utf-16-mark", "count-column-list"],
)
@pytest.mark.parametrize("command", ["detect", "build"])
def test_malformed_schema_exits_2(synth_dir, tmp_path, text, message, command):
    schema = tmp_path / "schema.json"
    schema.write_bytes(text)
    if command == "detect":
        args = detect_args(synth_dir)
        args[args.index("--schema") + 1] = str(schema)
    else:
        args = ["build", "--input", str(synth_dir / "cases.csv"), "--schema", str(schema)]
    err = one_line_error(run_cli(args))
    assert err["module"] == "dataio" and err["message"] == message.format(schema=schema)


@pytest.fixture(scope="module")
def eval_inputs(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("eval")
    files = {"detect": out / "report.json", "scan": out / "scan.json",
             "truth": synth_dir / "truth.json"}
    assert run_cli(detect_args(synth_dir, ["--out", str(files["detect"])])).returncode == 0
    res = run_cli(
        [
            "scan",
            "--cases", str(synth_dir / "cases.csv"),
            "--population", str(synth_dir / "population.csv"),
            "--schema", str(synth_dir / "schema.json"),
            "--centroids", str(synth_dir / "centroids.csv"),
            "--replications", "9",
            "--out", str(files["scan"]),
        ]
    )
    assert res.returncode == 0, res.stderr
    return files


@pytest.mark.parametrize("flag", ["detect", "scan", "truth"])
def test_eval_truncated_document_exits_2(eval_inputs, tmp_path, flag):
    files = dict(eval_inputs)
    truncated = tmp_path / f"{flag}.json"
    truncated.write_bytes(files[flag].read_bytes()[:40])
    files[flag] = truncated
    res = run_cli(["eval", *(a for k, path in files.items() for a in (f"--{k}", str(path)))])
    err = one_line_error(res)
    assert err["module"] == "dataio"
    assert err["message"].startswith(f"{truncated} is not valid JSON: ")


@pytest.mark.parametrize(
    "flag, reshape, message",
    [
        ("detect", lambda doc: [], "malformed report document: 'list' object has no attribute 'get'"),
        ("detect", lambda doc: {"schema": doc["schema"]}, "malformed report document: 'space'"),
        ("scan", lambda doc: {**doc, "cylinders": [{}]}, "malformed scan document: 'center'"),
        (
            "scan",
            lambda doc: {k: v for k, v in doc.items() if k != "significant"},
            "malformed scan document: 'significant'",
        ),
    ],
)
def test_eval_malformed_document_exits_2(eval_inputs, tmp_path, flag, reshape, message):
    files = dict(eval_inputs)
    files[flag] = tmp_path / f"{flag}.json"
    files[flag].write_text(json.dumps(reshape(json.loads(eval_inputs[flag].read_text()))))
    res = run_cli(["eval", *(a for k, path in files.items() for a in (f"--{k}", str(path)))])
    err = one_line_error(res)
    assert (err["module"], err["type"], err["message"]) == ("dataio", "InputError", message)


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
    out = tmp_path / "report.json"
    gj = tmp_path / "x.geojson"
    res = run_cli(detect_args(synth_dir, ["--out", str(out), "--geojson", str(gj)]))
    assert res.returncode == 2
    err = json.loads(res.stderr.splitlines()[-1])
    assert err["error"]["module"] == "cli"
    # the flags are checked before any input is read, so nothing is written
    assert not out.exists() and not gj.exists()


@pytest.mark.parametrize(
    "geometry",
    [
        '{"type": "Feature"}',
        '{"type": "FeatureCollection", "features": [{"properties": {"id": "r00"}}]}',
        '{"type": "FeatureCollection", "features": [',
    ],
    ids=["not-a-collection", "no-region-property", "truncated"],
)
def test_detect_malformed_geometry_writes_nothing(synth_dir, tmp_path, geometry):
    geo_path = tmp_path / "regions.geojson"
    geo_path.write_text(geometry)
    out = tmp_path / "report.json"
    gj = tmp_path / "report.geojson"
    res = run_cli(
        detect_args(synth_dir, ["--out", str(out), "--geojson", str(gj), "--geometry", str(geo_path)])
    )
    assert res.returncode == 2, res.stderr
    assert json.loads(res.stderr.splitlines()[-1])["error"]["module"] == "dataio"
    assert not out.exists() and not gj.exists()


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


def scan_args(data, extra=()):
    return [
        "scan",
        "--cases", str(data / "cases.csv"),
        "--population", str(data / "population.csv"),
        "--schema", str(data / "schema.json"),
        "--centroids", str(data / "centroids.csv"),
        *extra,
    ]


def write_single_region(tmp_path, counts):
    """Region A over t0-t2 with the given case counts, population 100 each."""
    (tmp_path / "cases.csv").write_text(
        "region,time,count\n" + "".join(f"A,t{t},{c}\n" for t, c in enumerate(counts))
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


def test_scan_cylinder_combinatorics_single_region(tmp_path):
    write_single_region(tmp_path, ["5", "6", "4"])
    res = run_cli(scan_args(tmp_path, ["--replications", "9", "--seed", "1"]))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert len(doc["cylinders"]) == 6
    windows = sorted(tuple(c["window"]) for c in doc["cylinders"])
    assert windows == [
        ("t0", "t0"), ("t0", "t1"), ("t0", "t2"),
        ("t1", "t1"), ("t1", "t2"), ("t2", "t2"),
    ]


@pytest.mark.parametrize("command", ["scan", "synth"])
def test_negative_seed_exits_2_and_writes_nothing(synth_dir, tmp_path, command):
    out = tmp_path / "out"
    if command == "scan":
        args = scan_args(synth_dir, ["--replications", "9", "--seed", "-1", "--out", str(out)])
    else:
        args = ["synth", "--regions", "4", "--times", "3", "--seed", "-1", "--out-dir", str(out)]
    res = run_cli(args)
    assert res.returncode == 2, res.stderr
    (line,) = res.stderr.splitlines()
    assert "seed" in json.loads(line)["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra, module, message",
    [
        ("scan", ["--top", "-1"], "stscan", "top must be non-negative, got -1"),
        ("scan", ["--alpha", "2"], "stscan", "alpha must lie in (0, 1], got 2.0"),
        ("scan", ["--replications", "0"], "stscan", "need at least one replication"),
        ("scan", ["--seed", "-1"], "stscan", "seed must be non-negative, got -1"),
        ("scan", ["--max-fraction", "0.7"], "stscan", "max_fraction must lie in (0, 0.5]"),
        ("scan", None, "cli", "supply --centroids or --adjacency"),
        ("detect", ["--ranks", "0"], "cli", "ranks must be positive"),
        ("detect", ["--ranks", "2,two"], "cli", "ranks must be a comma list of integers: '2,two'"),
        ("detect", ["--geojson", "TMP/out.geojson"], "cli", "--geojson needs --geometry"),
        ("scan", ["--adjacency", "TMP/adjacency.csv"], "cli", "supply --centroids or --adjacency, not both"),
        # an output path is checked as it is parsed, so these are usage errors
        ("scan", ["--out", "TMP/no/s.json"], None, "argument --out: directory 'TMP/no' does not exist"),
        ("scan", ["--out", "TMP"], None, "argument --out: path 'TMP' is a directory"),
        ("detect", ["--geojson", "TMP/no/x.geojson", "--geometry", "TMP/adjacency.csv"], None,
         "argument --geojson: directory 'TMP/no' does not exist"),
        ("eval", ["--out-csv", "TMP/no/x.csv"], None, "argument --out-csv: directory 'TMP/no' does not exist"),
        # and an input path that is a directory
        ("detect", ["--adjacency", "TMP"], None, "argument --adjacency: path 'TMP' is a directory"),
    ],
)
def test_bad_options_are_rejected_before_input_is_read(
    synth_dir, tmp_path, command, extra, module, message
):
    # the cases file is bad too, and its error would come first were it read first
    for name in ("population.csv", "centroids.csv", "adjacency.csv", "schema.json"):
        shutil.copy(synth_dir / name, tmp_path)
    lines = (synth_dir / "cases.csv").read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",many"
    (tmp_path / "cases.csv").write_text("\n".join(lines) + "\n")
    out, gj = tmp_path / "out.json", tmp_path / "out.geojson"
    extra = [a.replace("TMP", str(tmp_path)) for a in extra or ()]
    if command == "detect":
        args = detect_args(tmp_path, extra)
    elif command == "eval":  # any existing files: the options fail first
        cases = str(tmp_path / "cases.csv")
        args = ["eval", "--detect", cases, "--scan", cases, "--truth", cases, *extra]
    elif not extra:  # no --centroids and no --adjacency
        args = scan_args(tmp_path)[:7]
    else:
        args = scan_args(tmp_path, ["--replications", "9", *extra])
    # --out comes first, so that an --out among the extra options wins
    res = run_cli([args[0], "--out", str(out), *args[1:]])
    assert res.returncode == 2, res.stderr
    if module is None:
        assert res.stderr.startswith("usage: ") and '{"error"' not in res.stderr
        assert res.stderr.splitlines()[-1].endswith(message.replace("TMP", str(tmp_path)))
    else:
        (line,) = res.stderr.splitlines()
        err = json.loads(line)["error"]
        assert (err["type"], err["module"], err["message"]) == ("InputError", module, message)
    assert not out.exists() and not gj.exists()


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


@pytest.mark.parametrize("top", ["0", "1", "100"])
def test_a_scan_document_read_back_is_written_in_its_own_bytes(synth_dir, tmp_path, top):
    # a result is written as it was recorded, so a document read back needs
    # no alpha or top of its own to be written again
    out = tmp_path / "s.json"
    res = run_cli(scan_args(synth_dir, ["--top", top, "--replications", "19", "--out", str(out)]))
    assert res.returncode == 0, res.stderr
    text = out.read_text()
    doc = json.loads(text)
    assert doc["top"] == int(top) and len(doc["cylinders"]) == int(top) and doc["significant_total"] > 0
    assert dumps_stable(scan_to_dict(scan_from_dict(doc))) == text


def test_scan_with_the_time_mode_first_writes_the_same_document(synth_dir, tmp_path):
    schema = json.loads((synth_dir / "schema.json").read_text())
    schema["modes"].reverse()
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    args = scan_args(synth_dir, ["--replications", "19"])
    first = run_cli(args)
    reversed_modes = run_cli(args + ["--schema", str(tmp_path / "schema.json")])
    assert first.returncode == reversed_modes.returncode == 0, reversed_modes.stderr
    assert [m["kind"] for m in schema["modes"]] == ["time", "space"]
    assert reversed_modes.stdout == first.stdout


def loaded_modules(args):
    """The modules a ``python -m eigenspot`` run of ``args`` imports, past those of start-up."""
    code = (
        "import runpy, sys\n"
        "before = set(sys.modules)\n"
        "try:\n"
        "    runpy.run_module('eigenspot', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "print(' '.join(set(sys.modules) - before))\n"
    )
    res = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return set(res.stdout.splitlines()[-1].split())


def test_scan_does_not_import_numpy_ma(synth_dir, tmp_path):
    # np.unique imports numpy.ma on first use, about 17 ms of every scan run
    args = scan_args(synth_dir, ["--replications", "9", "--out", str(tmp_path / "scan.json")])
    assert "numpy.ma" not in loaded_modules(args)


COMMON = {"eigenspot", "eigenspot.cli", "eigenspot.dataio", "eigenspot.eigenmatch",
          "eigenspot.errors", "eigenspot.tensors"}


@pytest.mark.parametrize(
    "make_args, modules",
    [
        (lambda data, out: detect_args(data, ["--out", str(out)]), COMMON),
        (lambda data, out: scan_args(data, ["--replications", "9", "--out", str(out)]),
         COMMON | {"eigenspot.stscan"}),
        (lambda data, out: [
            "scan",
            "--cases", str(data / "cases.csv"),
            "--population", str(data / "population.csv"),
            "--schema", str(data / "schema.json"),
            "--adjacency", str(data / "adjacency.csv"),
            "--replications", "9",
            "--out", str(out),
        ], COMMON | {"eigenspot.stscan"}),
        (lambda data, out: ["--help"], COMMON),
    ],
    ids=["detect", "scan-centroids", "scan-adjacency", "help"],
)
def test_a_command_imports_only_the_modules_it_runs(synth_dir, tmp_path, make_args, modules):
    # detect never needs the scan or the synth harness, nor scan the harness
    loaded = loaded_modules(make_args(synth_dir, tmp_path / "out.json"))
    assert {m for m in loaded if m.split(".")[0] == "eigenspot"} == modules
    # and no command loads a third-party package but numpy; the Cython
    # runtime registers its own modules for numpy's extension modules
    tops = {m.split(".")[0] for m in loaded} - set(sys.stdlib_module_names)
    assert {m for m in tops if not re.fullmatch(r"cython_runtime|_cython_[\d_]+", m)} == {
        "eigenspot", "numpy"
    }


@pytest.mark.parametrize("command", ["detect", "scan"])
def test_a_command_runs_where_click_cannot_be_imported(synth_dir, command):
    # a None entry in sys.modules makes any import of click raise ImportError
    args = detect_args(synth_dir) if command == "detect" else scan_args(synth_dir, ["--replications", "9"])
    script = (
        "import runpy, sys\n"
        "sys.modules['click'] = None\n"
        "runpy.run_module('eigenspot', run_name='__main__', alter_sys=True)\n"
    )
    res = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True)
    assert res.returncode == 0 and res.stderr == "", res.stderr
    assert res.stdout == run_cli(args).stdout


def test_scan_rejects_fractional_case_counts(tmp_path):
    # the Poisson scan counts cases: a whole total (0.5 + 1.5) is not enough
    write_single_region(tmp_path, ["0.5", "1.5", "0"])
    res = run_cli(scan_args(tmp_path, ["--replications", "9", "--out", str(tmp_path / "s.json")]))
    assert res.returncode == 2
    err = json.loads(res.stderr)["error"]
    assert (err["type"], err["module"]) == ("InputError", "stscan")
    assert "whole numbers" in err["message"]
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("flag", [("--top", "-1"), ("--alpha", "1.5"), ("--alpha", "0")])
def test_scan_rejects_negative_top_and_alpha_outside_unit_interval(synth_dir, tmp_path, flag):
    res = run_cli(scan_args(synth_dir, [*flag, "--replications", "1", "--out", str(tmp_path / "s.json")]))
    assert res.returncode == 2
    err = json.loads(res.stderr)["error"]
    assert (err["type"], err["module"]) == ("InputError", "stscan")
    assert not (tmp_path / "s.json").exists()


def test_scan_with_more_replications_than_an_array_holds_exits_2(synth_dir, tmp_path):
    # 2**62 float64 maxima are past numpy's largest array on any machine
    out = tmp_path / "s.json"
    res = run_cli(scan_args(synth_dir, ["--replications", str(2**62), "--out", str(out)]))
    err = one_line_error(res)
    assert (err["type"], err["module"]) == ("InputError", "stscan")
    assert err["message"] == f"cannot hold {2**62} replica maxima"
    assert not out.exists()


@pytest.mark.parametrize(
    "regions, times, message",
    [(100000, 3, "Unable to allocate 9.31 GiB"), (4, 100000000, "Unable to allocate 763. MiB")],
    ids=["numpy-array", "python-objects"],
)
def test_running_out_of_memory_exits_2_with_one_json_line(tmp_path, regions, times, message):
    # a 512 MiB address-space cap fails the allocation alike on any machine:
    # numpy refuses the 9.31 GiB adjacency at once, and the 10**8 time steps
    # fail at their first numeric array, before the time labels (Python
    # objects, which would grow until a MemoryError without a message) are made
    cap = 512 * 2**20
    out = tmp_path / "out"
    res = run_cli(
        ["synth", "--regions", str(regions), "--times", str(times), "--out-dir", str(out)],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    err = one_line_error(res)
    assert (err["type"], err["module"]) == ("InputError", "cli")
    assert err["message"].startswith(message)
    assert not out.exists()


def test_a_memory_error_without_a_message_exits_2_with_out_of_memory(monkeypatch, capsys, tmp_path):
    from eigenspot import evalsynth

    def generate(cfg):
        raise MemoryError()

    monkeypatch.setattr(evalsynth, "generate", generate)
    with pytest.raises(SystemExit) as exc:
        cli.main(["synth", "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == {"module": "cli", "type": "InputError", "message": "out of memory"}
    assert not (tmp_path / "out").exists()


def test_scan_of_a_case_file_without_cases_names_that_file(tmp_path):
    data = tmp_path / "data"
    synth = ["synth", "--regions", "9", "--times", "4", "--baseline", "1e-300", "--out-dir", str(data)]
    assert run_cli(synth).returncode == 0
    out = tmp_path / "scan.json"
    err = one_line_error(run_cli(scan_args(data, ["--replications", "9", "--out", str(out)])))
    assert (err["type"], err["module"]) == ("InputError", "cli")
    assert err["message"] == f"cases file {str(data / 'cases.csv')!r} holds no cases"
    assert not out.exists()
    # the detector names the all-zero mode instead
    res = run_cli(detect_args(data))
    assert res.returncode == 3
    assert json.loads(res.stderr)["error"]["type"] == "DegenerateModeError"


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

    # a document read back answers with the clusters it recorded, so the
    # benchmark's reading (read_report, then scan_detected) agrees with eval
    back = read_report(scan_out)
    recorded = back.significant_clusters(scan_doc["alpha"])
    assert [(c.center, c.members, c.window) for c in recorded] == [
        (back.regions.index(c["center"]), tuple(map(back.regions.index, c["members"])),
         tuple(map(back.times.index, c["window"])))
        for c in scan_doc["significant"]
    ]
    assert sorted(scan_detected(back, scan_doc["alpha"])) == row["detected"]
    with pytest.raises(InputError, match="differs from the scan's alpha"):
        back.significant_clusters(0.01)


def test_eval_scan_without_cylinders_gives_zero_row(synth_dir, tmp_path):
    # --top 0 keeps no ranked cylinder, and with 19 replicas no p-value
    # reaches alpha 0.001, so the document holds no cylinder at all
    report, scan_out = tmp_path / "report.json", tmp_path / "scan.json"
    assert run_cli(detect_args(synth_dir, ["--out", str(report)])).returncode == 0
    extra = ["--top", "0", "--alpha", "0.001", "--replications", "19", "--out", str(scan_out)]
    res = run_cli(scan_args(synth_dir, extra))
    assert res.returncode == 0, res.stderr
    scan_doc = json.loads(scan_out.read_text())
    assert scan_doc["cylinders"] == [] and scan_doc["significant"] == []
    res = run_cli(
        [
            "eval",
            "--detect", str(report),
            "--scan", str(scan_out),
            "--truth", str(synth_dir / "truth.json"),
            "--alpha", "0.001",
        ]
    )
    assert res.returncode == 0, res.stderr
    row = next(r for r in json.loads(res.stdout)["rows"] if r["method"] == "st-scan")
    assert (row["detected"], row["f1"]) == ([], 0.0)


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


@pytest.mark.parametrize(
    "command, name", [("build", "cases"), ("detect", "cases"), ("detect", "adjacency")]
)
def test_input_that_is_not_utf8_exits_2(synth_dir, tmp_path, command, name):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    lines = (data / f"{name}.csv").read_bytes().splitlines(keepends=True)
    (data / f"{name}.csv").write_bytes(b"".join(lines[:2]) + b"\xff" + b"".join(lines[2:]))
    if command == "build":
        args = ["build", "--input", str(data / "cases.csv"), "--schema", str(data / "schema.json")]
    else:
        args = detect_args(data)
    res = run_cli(args)
    assert res.returncode == 2, res.stderr
    err = json.loads(res.stderr.splitlines()[-1])["error"]
    assert err["module"] == "dataio"
    at = len(lines[0]) + len(lines[1])
    assert err["message"].endswith(f"{name}.csv is not UTF-8 text: byte 0xff at offset {at}")


def test_a_csv_error_exits_2(synth_dir, tmp_path):
    # csv refuses a quoted field over its field size limit; the same field
    # unquoted would parse
    cases = tmp_path / "cases.csv"
    cases.write_text('region,time,count\n"' + "r" * 200_000 + '",t0,1\n', encoding="utf-8")
    res = run_cli(["build", "--input", str(cases), "--schema", str(synth_dir / "schema.json")])
    assert res.returncode == 2, res.stderr
    [line] = res.stderr.splitlines()
    err = json.loads(line)["error"]
    assert (err["type"], err["module"]) == ("InputError", "dataio")
    assert err["message"].startswith("malformed CSV: field larger than field limit")


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


def test_ranks_flag_sets_the_ranks(synth_dir):
    default = run_cli(detect_args(synth_dir))
    same = run_cli(detect_args(synth_dir, ["--ranks", "2,2"]))
    lower = run_cli(detect_args(synth_dir, ["--ranks", "1,1"]))
    assert default.returncode == same.returncode == lower.returncode == 0, lower.stderr
    assert '"ranks":[2,2]' in default.stdout
    assert same.stdout == default.stdout
    assert '"ranks":[1,1]' in lower.stdout


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("command", ["detect", "scan"])
def test_stdout_holds_the_bytes_out_writes(synth_dir, tmp_path, command):
    args = (detect_args if command == "detect" else scan_args)(synth_dir)
    if command == "scan":
        args += ["--replications", "19"]
    printed = subprocess.run(CLI + args, capture_output=True)
    written = subprocess.run(CLI + args + ["--out", str(tmp_path / "out.json")], capture_output=True)
    assert printed.returncode == written.returncode == 0, printed.stderr
    assert written.stdout == b""
    assert printed.stdout == (tmp_path / "out.json").read_bytes()


def dangling(path):
    """``path``, made a symlink to a file in a directory that does not exist."""
    path.symlink_to(path.parent / "no" / path.name)
    return path


@pytest.mark.parametrize(
    "make_args, code, module",
    [
        (lambda data, out: ["--help"], 0, None),
        (lambda data, out: ["scan", "--no-such-option"], 2, None),  # a usage error
        (lambda data, out: detect_args(data, ["--ranks", "2,two"]), 2, "cli"),  # _fail
        (lambda data, out: detect_args(data, ["--out", str(out)]), 0, None),
        # an OSError, here from writing through a symlink into a missing directory
        (lambda data, out: detect_args(data, ["--out", str(dangling(out))]), 2, "cli"),
    ],
    ids=["help", "usage", "input-error", "detect", "os-error"],
)
def test_program_entry_freezes_the_collector_however_it_ends(
    synth_dir, tmp_path, make_args, code, module
):
    # an exit handler registered before the program runs after its exit
    # path, and sees the run's objects frozen
    args = make_args(synth_dir, tmp_path / "report.json")
    script = (
        "import atexit, gc, runpy\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
        "runpy.run_module('eigenspot', run_name='__main__', alter_sys=True)\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True
    )
    assert res.returncode == code, res.stderr
    assert res.stdout.splitlines()[-1] == "True"
    if module is not None:  # _fail's one JSON line
        (line,) = res.stderr.splitlines()
        assert json.loads(line)["error"]["module"] == module


def test_in_process_main_keeps_the_collector(tmp_path):
    before = gc.get_freeze_count()
    args = ["synth", "--regions", "4", "--times", "3", "--out-dir", str(tmp_path)]
    assert cli.main(args) is None
    assert gc.get_freeze_count() == before


def test_version_needs_no_installed_metadata():
    # a source checkout run through PYTHONPATH has no package metadata
    script = (
        "import importlib.metadata as metadata, runpy\n"
        "def missing(name):\n"
        "    raise metadata.PackageNotFoundError(name)\n"
        "metadata.version = metadata.distribution = missing\n"
        "runpy.run_module('eigenspot', run_name='__main__', alter_sys=True)\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", script, "--version"], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == f"eigenspot, version {eigenspot.__version__}\n"


HELP = {
    "build": {"--input": None, "--schema": None, "--out": None},
    "detect": {
        "--cases": None, "--population": None, "--schema": None, "--adjacency": None,
        "--adjacency-header": "False", "--no-adjacency-header": "False", "--ranks": None,
        "--likely-threshold": "st", "--out": None, "--geojson": None, "--geometry": None,
    },
    "scan": {
        "--cases": None, "--population": None, "--schema": None, "--adjacency": None,
        "--adjacency-header": "False", "--no-adjacency-header": "False", "--centroids": None,
        "--max-fraction": "0.5", "--elevated-only": "on", "--replications": "199",
        "--seed": "1729", "--alpha": "0.05", "--top": "100", "--out": None,
    },
    "synth": {
        "--regions": "25", "--times": "12", "--adjacency-model": "grid", "--baseline": "1000.0",
        "--case-rate": "0.02", "--risk": "1.0", "--inject": None, "--window": "0:0",
        "--growth": "0.0", "--seed": "1729", "--out-dir": None,
    },
    "eval": {
        "--detect": None, "--scan": None, "--truth": None, "--alpha": "0.05", "--out": None,
        "--out-csv": None,
    },
}


def help_entries(text):
    """Option string -> its entry (whitespace collapsed) in a command's ``--help`` text."""
    entries = {}
    for block in re.split(r"\n(?=  -)", text.split("\noptions:\n", 1)[1]):
        head = re.split(r"\s{2,}|\n", block.strip(), maxsplit=1)[0]
        for option in re.findall(r"--[a-z-]+", head):
            entries[option] = " ".join(block.split())
    return entries


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_names_every_option_and_its_default(command):
    res = run_cli([command, "--help"])
    assert res.returncode == 0 and res.stderr == "", res.stderr
    assert res.stdout.startswith(f"usage: eigenspot {command} ")
    entries = help_entries(res.stdout)
    assert set(entries) == {"--help", *HELP[command]}
    for option, default in HELP[command].items():
        if default is not None:
            assert f"(default: {default})" in entries[option], entries[option]
        else:
            assert "(default:" not in entries[option], entries[option]


@pytest.mark.parametrize(
    "make_args",
    [
        lambda data, out: [],
        lambda data, out: [*detect_args(data)[:-2], "--out", out],  # no --schema
        lambda data, out: detect_args(data, ["--cases", str(data / "nope.csv"), "--out", out]),
        lambda data, out: detect_args(data, ["--likely-threshold", "mean", "--out", out]),
        lambda data, out: scan_args(data, ["--elevated-only", "yes", "--out", out]),
        lambda data, out: scan_args(data, ["--replications", "9.5", "--out", out]),
    ],
    ids=["no-command", "missing-required", "missing-path", "likely-threshold", "elevated-only",
         "replications"],
)
def test_a_usage_error_exits_2_with_the_usage(synth_dir, tmp_path, make_args):
    out = tmp_path / "out.json"
    res = run_cli(make_args(synth_dir, str(out)))
    assert res.returncode == 2 and res.stdout == "", res.stderr
    assert res.stderr.startswith("usage: eigenspot") and "Traceback" not in res.stderr
    assert ": error: " in res.stderr.splitlines()[-1]
    assert not out.exists()



class ReadRecorder(argparse.Namespace):
    """A namespace that, once ``reads`` is set, records each attribute read."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


def test_every_option_a_command_parses_is_read(tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    out.mkdir()
    geometry = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "geometry": None, "properties": {"region": f"r{i:02d}"}}
            for i in range(9)
        ],
    }
    (out / "regions.geojson").write_text(json.dumps(geometry))
    scan = scan_args(data, ["--replications", "9", "--out", str(out / "scan.json")])
    runs = [
        ["synth", "--regions", "9", "--times", "4", "--inject", "r04", "--window", "1:2",
         "--risk", "3", "--growth", "0.1", "--out-dir", str(data)],
        ["build", "--input", str(data / "cases.csv"), "--schema", str(data / "schema.json"),
         "--out", str(out / "tensor.json")],
        detect_args(data, ["--ranks", "2,2", "--out", str(out / "report.json"),
                           "--geojson", str(out / "report.geojson"),
                           "--geometry", str(out / "regions.geojson")]),
        scan,
        [*scan[:7], "--adjacency", str(data / "adjacency.csv"), *scan[9:]],
        ["eval", "--detect", str(out / "report.json"), "--scan", str(out / "scan.json"),
         "--truth", str(data / "truth.json"), "--out", str(out / "eval.json"),
         "--out-csv", str(out / "eval.csv")],
    ]
    parsed, read = {}, {}
    for argv in runs:
        opts = cli._parser("eigenspot").parse_args(argv, namespace=ReadRecorder())
        parsed.setdefault(argv[0], set()).update(vars(opts))
        opts.reads = set()
        opts.run(opts)
        read.setdefault(argv[0], set()).update(opts.reads)
    assert set(parsed) == {"build", "detect", "scan", "synth", "eval"}
    assert (out / "eval.csv").exists() and (out / "report.geojson").exists()
    for command, options in parsed.items():
        unread = options - {"command", "run"} - read[command]
        assert not unread, (command, unread)


def test_either_adjacency_header_form_parses(synth_dir, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    (data / "adjacency.csv").write_text("from,to\n" + (synth_dir / "adjacency.csv").read_text())
    plain = run_cli(detect_args(synth_dir))
    without = run_cli(detect_args(synth_dir, ["--no-adjacency-header"]))
    headed = run_cli(detect_args(data, ["--adjacency-header"]))
    assert plain.returncode == without.returncode == headed.returncode == 0, headed.stderr
    assert without.stdout == headed.stdout == plain.stdout


def test_pyproject_version_is_the_package_version():
    # read as text: tomllib is new in Python 3.11
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    [version] = re.findall(r'^version = "([^"]+)"$', text, re.M)
    assert version == eigenspot.__version__


def test_console_script_calls_the_program_entry():
    # pyproject.toml is read as text: tomllib is new in Python 3.11
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    module, name = re.search(r'^eigenspot = "([\w.]+):(\w+)"$', text, re.M).groups()
    target = getattr(importlib.import_module(module), name)
    # the function the main guard of __main__.py calls
    source = (ROOT / "src" / "eigenspot" / "__main__.py").read_text(encoding="utf-8")
    [guard] = [node for node in ast.parse(source).body if isinstance(node, ast.If)]
    [call] = [node.value for node in guard.body if isinstance(node, ast.Expr)]
    main_module = importlib.import_module("eigenspot.__main__")
    assert target is getattr(main_module, call.func.id) is cli.run
