"""Command-line front end: ingestion -> detection -> evaluation -> files.

Exit codes: 0 on success, 2 on input validation errors, 3 on numerical
failures. Errors are emitted as one-line JSON documents on stderr with
the originating module named. All randomness flows from --seed, which
defaults to a fixed constant rather than the clock.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import sys
from pathlib import Path

import click
import numpy as np

# stscan and evalsynth are imported inside the commands that run them, so
# that detect compiles neither; run_sst_hotspot stays a module attribute,
# which bench/tracer.py patches
from . import __version__, dataio
from .eigenmatch import run_sst_hotspot
from .errors import EigenspotError, InputError, NumericalError

#: Used whenever --seed is omitted; fixed so runs are reproducible by default.
DEFAULT_SEED = 1729

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _fail(exc: EigenspotError) -> None:
    doc = {
        "error": {
            "module": exc.module,
            "type": type(exc).__name__,
            "message": str(exc),
        }
    }
    click.echo(json.dumps(doc), err=True)
    code = EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_VALIDATION
    sys.exit(code)


def _guarded(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except EigenspotError as exc:
            _fail(exc)
        except OSError as exc:
            _fail(InputError(str(exc), module="cli"))

    return wrapper


def _parse_ranks(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        ranks = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputError(f"ranks must be a comma list of integers: {text!r}", module="cli")
    if any(r < 1 for r in ranks):
        raise InputError("ranks must be positive", module="cli")
    return ranks


def _warn(kind: str, detail: object) -> None:
    """Report a non-fatal condition as one JSON line on stderr, if there is one."""
    if detail:
        click.echo(json.dumps({"warning": {kind: detail}}), err=True)


def _space_time_matrix(tensor) -> np.ndarray:
    """Marginalize attribute modes down to a space-by-time matrix."""
    axes = tuple(
        i
        for i, m in enumerate(tensor.modes)
        if m.kind not in ("space", "time")
    )
    values = tensor.values.sum(axis=axes) if axes else tensor.values
    if tensor.space_axis < tensor.time_axis:
        return values
    return values.T


@click.group()
@click.version_option(__version__, prog_name="eigenspot")
def main() -> None:
    """Spatiotemporal hotspot detection from labeled count data."""


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--schema", "schema_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", default=None, type=click.Path())
@_guarded
def build(input_path: str, schema_path: str, out_path: str | None) -> None:
    """Ingest one CSV file and write the resulting count tensor as JSON."""
    schema = dataio.load_schema(schema_path)
    parsed = dataio.parse_records(input_path, schema)
    _warn("unknown_categories", parsed.unknown)
    tensor = dataio.build_tensor(parsed, schema)
    dataio.write_json(dataio.tensor_to_dict(tensor), out_path)


@main.command()
@click.option("--cases", required=True, type=click.Path(exists=True))
@click.option("--population", required=True, type=click.Path(exists=True))
@click.option("--adjacency", required=True, type=click.Path(exists=True))
@click.option("--schema", "schema_path", required=True, type=click.Path(exists=True))
@click.option("--adjacency-header/--no-adjacency-header", default=False)
@click.option("--ranks", default=None, help="Comma list, one rank per mode.")
@click.option(
    "--likely-threshold",
    type=click.Choice(["st", "ds"]),
    default="st",
    show_default=True,
    help="Spread bound for the likely cluster: non-center tier std or full vector std.",
)
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--geojson", "geojson_path", default=None, type=click.Path())
@click.option("--geometry", "geometry_path", default=None, type=click.Path(exists=True))
@_guarded
def detect(
    cases: str,
    population: str,
    adjacency: str,
    schema_path: str,
    adjacency_header: bool,
    ranks: str | None,
    likely_threshold: str,
    out_path: str | None,
    geojson_path: str | None,
    geometry_path: str | None,
) -> None:
    """Run the eigenvector-matching detector and write its report."""
    if geojson_path is not None and geometry_path is None:
        raise InputError("--geojson needs --geometry", module="cli")
    parsed_ranks = _parse_ranks(ranks)
    geometry = None if geojson_path is None else dataio.RegionGeometry.from_geojson(geometry_path)
    schema = dataio.load_schema(schema_path)
    cases_t, population_t, unknown = dataio.ingest_pair(cases, population, schema)
    _warn("unknown_categories", unknown)
    space_cats = cases_t.modes[cases_t.space_axis].categories
    neighbors = dataio.parse_adjacency(adjacency, space_cats, header=adjacency_header)
    report = run_sst_hotspot(
        population_t,
        cases_t,
        neighbors,
        ranks=parsed_ranks,
        likely_threshold=likely_threshold,
    )
    dataio.write_json(dataio.report_to_dict(report), out_path)
    if geometry is not None:
        _warn("geometry_missing", dataio.write_geojson(report, geometry, geojson_path))


@main.command("scan")
@click.option("--cases", required=True, type=click.Path(exists=True))
@click.option("--population", required=True, type=click.Path(exists=True))
@click.option("--schema", "schema_path", required=True, type=click.Path(exists=True))
@click.option("--adjacency", default=None, type=click.Path(exists=True))
@click.option("--adjacency-header/--no-adjacency-header", default=False)
@click.option("--centroids", default=None, type=click.Path(exists=True))
@click.option("--max-fraction", default=0.5, show_default=True)
@click.option(
    "--elevated-only",
    type=click.Choice(["on", "off"]),
    default="on",
    show_default=True,
    help="Score only cylinders whose inside rate exceeds the outside rate.",
)
@click.option("--replications", default=199, show_default=True)
@click.option("--seed", default=DEFAULT_SEED, show_default=True)
@click.option("--alpha", default=0.05, show_default=True)
@click.option("--top", default=100, show_default=True, help="Ranked cylinders to serialize.")
@click.option("--out", "out_path", default=None, type=click.Path())
@_guarded
def scan_cmd(
    cases: str,
    population: str,
    schema_path: str,
    adjacency: str | None,
    adjacency_header: bool,
    centroids: str | None,
    max_fraction: float,
    elevated_only: str,
    replications: int,
    seed: int,
    alpha: float,
    top: int,
    out_path: str | None,
) -> None:
    """Run the space-time scan baseline and write ranked cylinders."""
    from . import stscan

    # every option is checked before any input is read
    if centroids is None and adjacency is None:
        raise InputError("supply --centroids or --adjacency", module="cli")
    stscan.check_max_fraction(max_fraction)
    stscan.check_replications(replications, seed)
    dataio.check_scan_options(alpha, top)
    schema = dataio.load_schema(schema_path)
    cases_t, population_t, unknown = dataio.ingest_pair(cases, population, schema)
    _warn("unknown_categories", unknown)
    space_cats = cases_t.modes[cases_t.space_axis].categories
    time_cats = cases_t.modes[cases_t.time_axis].categories

    cases_m = _space_time_matrix(cases_t)
    baseline_m = stscan.expected_baseline(cases_m, _space_time_matrix(population_t))

    coords = neighbors = None
    if centroids is not None:
        coords = dataio.parse_centroids(centroids, space_cats)
    else:
        neighbors = dataio.parse_adjacency(adjacency, space_cats, header=adjacency_header)

    candidates = stscan.enumerate_cylinders(
        times=len(time_cats),
        coords=coords,
        neighbors=neighbors,
        max_fraction=max_fraction,
        region_baseline=baseline_m.sum(axis=1),
    )
    result = stscan.scan(
        cases_m,
        baseline_m,
        candidates,
        elevated_only=elevated_only == "on",
        regions=space_cats,
        times=time_cats,
    )
    result = stscan.monte_carlo_p(result, replications=replications, seed=seed)
    dataio.write_json(dataio.scan_to_dict(result, alpha=alpha, top=top), out_path)


@main.command()
@click.option("--regions", default=25, show_default=True)
@click.option("--times", default=12, show_default=True)
@click.option(
    "--adjacency-model",
    type=click.Choice(["grid", "random-geometric"]),
    default="grid",
    show_default=True,
)
@click.option("--baseline", default=1000.0, show_default=True)
@click.option("--case-rate", default=0.02, show_default=True)
@click.option("--risk", default=1.0, show_default=True)
@click.option("--inject", default="", help="Comma list of injected region ids.")
@click.option("--window", default="0:0", show_default=True, help="t0:t1 time indices.")
@click.option("--growth", default=0.0, show_default=True)
@click.option("--seed", default=DEFAULT_SEED, show_default=True)
@click.option("--out-dir", required=True, type=click.Path())
@_guarded
def synth(
    regions: int,
    times: int,
    adjacency_model: str,
    baseline: float,
    case_rate: float,
    risk: float,
    inject: str,
    window: str,
    growth: float,
    seed: int,
    out_dir: str,
) -> None:
    """Generate a synthetic scenario and write its input files."""
    from . import evalsynth

    try:
        t0, t1 = (int(part) for part in window.split(":"))
    except ValueError:
        raise InputError(f"window must look like 3:5, got {window!r}", module="cli")
    cfg = evalsynth.SynthConfig(
        regions=regions,
        times=times,
        adjacency=adjacency_model,  # type: ignore[arg-type]
        baseline=baseline,
        case_rate=case_rate,
        injected_regions=tuple(r for r in inject.split(",") if r),
        window=(t0, t1),
        relative_risk=risk,
        growth=growth,
        seed=seed,
    )
    data = evalsynth.generate(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    region_names = data.population.modes[0].categories
    time_names = data.population.modes[1].categories

    def write_counts(path: Path, matrix: np.ndarray) -> None:
        cells = zip(itertools.product(region_names, time_names), matrix.ravel().tolist())
        lines = ["region,time,count", *(f"{r},{t},{format(v, '.12g')}" for (r, t), v in cells)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    write_counts(out / "population.csv", data.population.values)
    write_counts(out / "cases.csv", data.cases.values)

    pair_lines = [
        f"{region_names[i]},{region_names[j]}"
        for i, j in np.argwhere(np.triu(data.neighbors.adjacency))
    ]
    (out / "adjacency.csv").write_text(
        "\n".join(pair_lines) + ("\n" if pair_lines else ""), encoding="utf-8"
    )

    centroid_lines = ["region,x,y"] + [
        f"{r},{format(data.coords[i, 0], '.12g')},{format(data.coords[i, 1], '.12g')}"
        for i, r in enumerate(region_names)
    ]
    (out / "centroids.csv").write_text("\n".join(centroid_lines) + "\n", encoding="utf-8")

    schema_doc = {
        "modes": [
            {"name": "region", "kind": "space", "columns": ["region"]},
            {"name": "time", "kind": "time", "columns": ["time"]},
        ],
        "count_column": "count",
    }
    dataio.write_json(schema_doc, out / "schema.json")

    truth_doc = {
        "regions": list(data.truth.regions),
        "window": list(data.truth.window),
        "window_labels": [time_names[data.truth.window[0]], time_names[data.truth.window[1]]],
        "relative_risk": data.truth.relative_risk,
        "seed": seed,
    }
    dataio.write_json(truth_doc, out / "truth.json")


@main.command("eval")
@click.option("--detect", "detect_path", required=True, type=click.Path(exists=True))
@click.option("--scan", "scan_path", required=True, type=click.Path(exists=True))
@click.option("--truth", "truth_path", required=True, type=click.Path(exists=True))
@click.option("--alpha", default=0.05, show_default=True)
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--out-csv", "csv_path", default=None, type=click.Path())
@_guarded
def eval_cmd(
    detect_path: str,
    scan_path: str,
    truth_path: str,
    alpha: float,
    out_path: str | None,
    csv_path: str | None,
) -> None:
    """Compare a detector report and a scan result against a truth file."""
    from . import evalsynth

    report = dataio.read_report(detect_path)
    if not isinstance(report, dataio.HotspotReport):
        raise InputError("--detect must point at a hotspot report", module="cli")
    scan_result = dataio.scan_from_dict(dataio.read_json(scan_path))
    truth_doc = dataio.read_json(truth_path)
    try:
        reference = tuple(truth_doc["regions"])
    except (KeyError, TypeError):
        raise InputError("truth file needs a 'regions' list", module="cli")
    table = evalsynth.compare(report, scan_result, reference, alpha=alpha)
    doc = evalsynth.comparison_to_dict(table)
    dataio.write_json(doc, out_path)
    if csv_path is not None:
        evalsynth.write_comparison(table, csv_destination=csv_path)


def run() -> None:
    """The program entry of ``python -m eigenspot`` and the ``eigenspot`` script.

    Runs :func:`main` as a command line, then freezes the objects the run
    made, however it ended (click exits on success, on a usage error and
    after ``--help``; :func:`_fail` exits 2 or 3), so that interpreter exit
    skips the collector's passes over what the OS is about to reclaim. Exit
    handlers, stream flushes and reference-count teardown still run, and
    every output file is closed before ``main`` returns. In-process callers
    of ``main`` keep the default collector.
    """
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
