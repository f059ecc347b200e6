"""Command-line front end: ingestion -> detection -> evaluation -> files.

Exit codes: 0 on success, 2 on input validation errors, 3 on numerical
failures. Errors are emitted as one-line JSON documents on stderr with
the originating module named. All randomness flows from --seed, which
defaults to a fixed constant rather than the clock.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import sys
from pathlib import Path

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
    print(json.dumps(doc), file=sys.stderr)
    code = EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_VALIDATION
    sys.exit(code)


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
        print(json.dumps({"warning": {kind: detail}}), file=sys.stderr)


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


def build(input_path: str, schema_path: str, out_path: str | None) -> None:
    """Ingest one CSV file and write the resulting count tensor as JSON."""
    schema = dataio.load_schema(schema_path)
    parsed = dataio.parse_records(input_path, schema)
    _warn("unknown_categories", parsed.unknown)
    tensor = dataio.build_tensor(parsed, schema)
    dataio.write_json(dataio.tensor_to_dict(tensor), out_path)


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
    if centroids is not None and adjacency is not None:
        raise InputError("supply --centroids or --adjacency, not both", module="cli")
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


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Names the default of every option that has one."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        if action.default is None or action.default == "":
            return action.help
        return super()._get_help_string(action)


def _existing(text: str) -> str:
    """An input path, which must exist before the command reads anything."""
    if not os.path.exists(text):  # Path("") would be the working directory
        raise argparse.ArgumentTypeError(f"path {text!r} does not exist")
    return text


def _parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Spatiotemporal hotspot detection from labeled count data.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"eigenspot, version {__version__}")
    # the dest names the command in argparse's error when none is given
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(name: str, func):
        sub = commands.add_parser(
            name,
            help=func.__doc__,
            description=func.__doc__,
            formatter_class=_HelpFormatter,
            allow_abbrev=False,
        )
        sub.set_defaults(run=func)
        return sub.add_argument

    def source(add, flag: str, what: str, dest: str | None = None, required: bool = True) -> None:
        add(flag, dest=dest, required=required, type=_existing, metavar="PATH", help=what)

    def count_files(add) -> None:
        source(add, "--cases", "CSV of case counts.")
        source(add, "--population", "CSV of population counts.")
        source(add, "--schema", "JSON schema that maps columns to modes.", dest="schema_path")

    adjacency_header = {
        "action": argparse.BooleanOptionalAction,
        "default": False,
        "help": "The adjacency file starts with a header line.",
    }
    stdout = "Write to this file rather than stdout."

    add = command("build", build)
    source(add, "--input", "CSV of labeled counts.", dest="input_path")
    source(add, "--schema", "JSON schema that maps columns to modes.", dest="schema_path")
    add("--out", dest="out_path", metavar="PATH", help=stdout)

    add = command("detect", detect)
    count_files(add)
    source(add, "--adjacency", "CSV of neighbouring region pairs.")
    add("--adjacency-header", **adjacency_header)
    add("--ranks", help="Comma list, one rank per mode.")
    add(
        "--likely-threshold",
        choices=["st", "ds"],
        default="st",
        help="Spread bound for the likely cluster: non-center tier std or full vector std.",
    )
    add("--out", dest="out_path", metavar="PATH", help=stdout)
    add("--geojson", dest="geojson_path", metavar="PATH", help="Also write region roles as GeoJSON.")
    source(add, "--geometry", "GeoJSON of region shapes, for --geojson.", dest="geometry_path",
           required=False)

    add = command("scan", scan_cmd)
    count_files(add)
    source(add, "--adjacency", "CSV of neighbouring region pairs: ring disks.", required=False)
    add("--adjacency-header", **adjacency_header)
    source(add, "--centroids", "CSV of region centroids: nearest-neighbour disks.", required=False)
    add("--max-fraction", type=float, default=0.5, help="Largest share of the baseline in a disk.")
    add(
        "--elevated-only",
        choices=["on", "off"],
        default="on",
        help="Score only cylinders whose inside rate exceeds the outside rate.",
    )
    add("--replications", type=int, default=199, help="Monte Carlo replicas.")
    add("--seed", type=int, default=DEFAULT_SEED, help="Seed of the replicas.")
    add("--alpha", type=float, default=0.05, help="Significance level.")
    add("--top", type=int, default=100, help="Ranked cylinders to serialize.")
    add("--out", dest="out_path", metavar="PATH", help=stdout)

    add = command("synth", synth)
    add("--regions", type=int, default=25, help="Number of regions.")
    add("--times", type=int, default=12, help="Number of time steps.")
    add("--adjacency-model", choices=["grid", "random-geometric"], default="grid",
        help="Region layout.")
    add("--baseline", type=float, default=1000.0, help="Population per cell.")
    add("--case-rate", type=float, default=0.02, help="Cases per head outside the hotspot.")
    add("--risk", type=float, default=1.0, help="Relative risk inside the hotspot.")
    add("--inject", default="", help="Comma list of injected region ids.")
    add("--window", default="0:0", help="t0:t1 time indices.")
    add("--growth", type=float, default=0.0, help="Population growth per time step.")
    add("--seed", type=int, default=DEFAULT_SEED, help="Seed of the scenario.")
    add("--out-dir", required=True, metavar="PATH", help="Directory for the input files.")

    add = command("eval", eval_cmd)
    source(add, "--detect", "Detector report.", dest="detect_path")
    source(add, "--scan", "Scan document.", dest="scan_path")
    source(add, "--truth", "The truth.json of the scenario.", dest="truth_path")
    add("--alpha", type=float, default=0.05, help="Significance level of the scan.")
    add("--out", dest="out_path", metavar="PATH", help=stdout)
    add("--out-csv", dest="csv_path", metavar="PATH", help="Also write the table as CSV.")
    return parser


def main(args: list[str] | None = None, prog_name: str = "eigenspot") -> None:
    """Run the command that ``args`` (``sys.argv[1:]`` when omitted) names.

    ``prog_name`` heads the usage and help text. A usage error exits 2 with
    the usage on stderr, ``--help`` and ``--version`` exit 0, and an input
    or numerical error exits through :func:`_fail`.
    """
    opts = vars(_parser(prog_name).parse_args(args))
    del opts["command"]
    command = opts.pop("run")
    try:
        command(**opts)
    except EigenspotError as exc:
        _fail(exc)
    except OSError as exc:
        _fail(InputError(str(exc), module="cli"))


def run() -> None:
    """The program entry of ``python -m eigenspot`` and the ``eigenspot`` script.

    Runs :func:`main` as a command line, then freezes the objects the run
    made, however it ended (``main`` returns on success, argparse exits
    after a usage error, ``--help`` or ``--version``, and :func:`_fail`
    exits 2 or 3), so that interpreter exit skips the collector's passes
    over what the OS is about to reclaim. Exit handlers, stream flushes and
    reference-count teardown still run, and every output file is closed
    before ``main`` returns. In-process callers of ``main`` keep the
    default collector.
    """
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
