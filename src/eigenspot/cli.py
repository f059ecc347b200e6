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


def build(opts: argparse.Namespace) -> None:
    """Ingest one CSV file and write the resulting count tensor as JSON."""
    schema = dataio.load_schema(opts.schema)
    parsed = dataio.parse_records(opts.input, schema)
    _warn("unknown_categories", parsed.unknown)
    tensor = dataio.build_tensor(parsed, schema)
    dataio.write_json(dataio.tensor_to_dict(tensor), opts.out)


def _ingest(opts: argparse.Namespace):
    """Read the case and population files; return both tensors and the space categories."""
    schema = dataio.load_schema(opts.schema)
    cases_t, population_t, unknown = dataio.ingest_pair(opts.cases, opts.population, schema)
    _warn("unknown_categories", unknown)
    return cases_t, population_t, cases_t.modes[cases_t.space_axis].categories


def detect(opts: argparse.Namespace) -> None:
    """Run the eigenvector-matching detector and write its report."""
    if opts.geojson is not None and opts.geometry is None:
        raise InputError("--geojson needs --geometry", module="cli")
    ranks = _parse_ranks(opts.ranks)
    geometry = None if opts.geojson is None else dataio.RegionGeometry.from_geojson(opts.geometry)
    cases_t, population_t, space_cats = _ingest(opts)
    neighbors = dataio.parse_adjacency(opts.adjacency, space_cats, header=opts.adjacency_header)
    report = run_sst_hotspot(
        population_t,
        cases_t,
        neighbors,
        ranks=ranks,
        likely_threshold=opts.likely_threshold,
    )
    dataio.write_json(dataio.report_to_dict(report), opts.out)
    if geometry is not None:
        _warn("geometry_missing", dataio.write_geojson(report, geometry, opts.geojson))


def scan_cmd(opts: argparse.Namespace) -> None:
    """Run the space-time scan baseline and write ranked cylinders."""
    from . import stscan

    # every option is checked before any input is read
    if opts.centroids is None and opts.adjacency is None:
        raise InputError("supply --centroids or --adjacency", module="cli")
    if opts.centroids is not None and opts.adjacency is not None:
        raise InputError("supply --centroids or --adjacency, not both", module="cli")
    stscan.check_max_fraction(opts.max_fraction)
    stscan.check_replications(opts.replications, opts.seed)
    dataio.check_scan_options(opts.alpha, opts.top)
    cases_t, population_t, space_cats = _ingest(opts)
    time_cats = cases_t.modes[cases_t.time_axis].categories

    cases_m = _space_time_matrix(cases_t)
    # the baseline is scaled to the case total, so no cases leave no baseline
    if cases_m.sum() == 0:
        raise InputError(f"cases file {opts.cases!r} holds no cases", module="cli")
    baseline_m = stscan.expected_baseline(cases_m, _space_time_matrix(population_t))

    coords = neighbors = None
    if opts.centroids is not None:
        coords = dataio.parse_centroids(opts.centroids, space_cats)
    else:
        neighbors = dataio.parse_adjacency(opts.adjacency, space_cats, header=opts.adjacency_header)

    candidates = stscan.enumerate_cylinders(
        times=len(time_cats),
        coords=coords,
        neighbors=neighbors,
        max_fraction=opts.max_fraction,
        region_baseline=baseline_m.sum(axis=1),
    )
    result = stscan.monte_carlo_scan(
        cases_m,
        baseline_m,
        candidates,
        replications=opts.replications,
        seed=opts.seed,
        elevated_only=opts.elevated_only == "on",
        alpha=opts.alpha,
        top=opts.top,
        regions=space_cats,
        times=time_cats,
    )
    dataio.write_json(dataio.scan_to_dict(result, alpha=opts.alpha, top=opts.top), opts.out)


def synth(opts: argparse.Namespace) -> None:
    """Generate a synthetic scenario and write its input files."""
    from . import evalsynth

    try:
        t0, t1 = (int(part) for part in opts.window.split(":"))
    except ValueError:
        raise InputError(f"window must look like 3:5, got {opts.window!r}", module="cli")
    cfg = evalsynth.SynthConfig(
        regions=opts.regions,
        times=opts.times,
        adjacency=opts.adjacency_model,
        baseline=opts.baseline,
        case_rate=opts.case_rate,
        injected_regions=tuple(r for r in opts.inject.split(",") if r),
        window=(t0, t1),
        relative_risk=opts.risk,
        growth=opts.growth,
        seed=opts.seed,
    )
    data = evalsynth.generate(cfg)
    out = Path(opts.out_dir)
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
        "seed": opts.seed,
    }
    dataio.write_json(truth_doc, out / "truth.json")


def eval_cmd(opts: argparse.Namespace) -> None:
    """Compare a detector report and a scan result against a truth file."""
    from . import evalsynth

    report = dataio.read_report(opts.detect)
    if not isinstance(report, dataio.HotspotReport):
        raise InputError("--detect must point at a hotspot report", module="cli")
    scan_result = dataio.scan_from_dict(dataio.read_json(opts.scan))
    truth_doc = dataio.read_json(opts.truth)
    try:
        reference = tuple(truth_doc["regions"])
    except (KeyError, TypeError):
        raise InputError("truth file needs a 'regions' list", module="cli")
    table = evalsynth.compare(report, scan_result, reference, alpha=opts.alpha)
    doc = evalsynth.comparison_to_dict(table)
    dataio.write_json(doc, opts.out)
    if opts.out_csv is not None:
        evalsynth.write_comparison(table, csv_destination=opts.out_csv)


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Names the default of every option that has one."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        if action.default is None or action.default == "":
            return action.help
        return super()._get_help_string(action)


def _existing(text: str) -> str:
    """An input path, which must exist and not be a directory before the
    command reads anything."""
    if not os.path.exists(text):  # Path("") would be the working directory
        raise argparse.ArgumentTypeError(f"path {text!r} does not exist")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"path {text!r} is a directory")
    return text


def _writable(text: str) -> str:
    """An output path, whose directory must exist before the command reads anything."""
    if os.path.isdir(text or os.curdir):  # Path("") would be the working directory
        raise argparse.ArgumentTypeError(f"path {text!r} is a directory")
    folder = os.path.dirname(text) or os.curdir
    if not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"directory {folder!r} does not exist")
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

    def source(add, flag: str, what: str, required: bool = True) -> None:
        add(flag, required=required, type=_existing, metavar="PATH", help=what)

    def target(add, flag: str, what: str = "Write to this file rather than stdout.") -> None:
        add(flag, type=_writable, metavar="PATH", help=what)

    def count_files(add) -> None:
        source(add, "--cases", "CSV of case counts.")
        source(add, "--population", "CSV of population counts.")
        source(add, "--schema", "JSON schema that maps columns to modes.")

    adjacency_header = {
        "action": argparse.BooleanOptionalAction,
        "default": False,
        "help": "The adjacency file starts with a header line.",
    }

    add = command("build", build)
    source(add, "--input", "CSV of labeled counts.")
    source(add, "--schema", "JSON schema that maps columns to modes.")
    target(add, "--out")

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
    target(add, "--out")
    target(add, "--geojson", "Also write region roles as GeoJSON.")
    source(add, "--geometry", "GeoJSON of region shapes, for --geojson.", required=False)

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
    target(add, "--out")

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
    source(add, "--detect", "Detector report.")
    source(add, "--scan", "Scan document.")
    source(add, "--truth", "The truth.json of the scenario.")
    add("--alpha", type=float, default=0.05, help="Significance level of the scan.")
    target(add, "--out")
    target(add, "--out-csv", "Also write the table as CSV.")
    return parser


def main(args: list[str] | None = None, prog_name: str = "eigenspot") -> None:
    """Run the command that ``args`` (``sys.argv[1:]`` when omitted) names.

    ``prog_name`` heads the usage and help text. A usage error exits 2 with
    the usage on stderr, ``--help`` and ``--version`` exit 0, and an input
    or numerical error, or running out of memory, exits through :func:`_fail`.
    """
    opts = _parser(prog_name).parse_args(args)
    try:
        opts.run(opts)
    except EigenspotError as exc:
        _fail(exc)
    except MemoryError as exc:  # numpy's message names the allocation; a bare one has none
        _fail(InputError(str(exc) or "out of memory", module="cli"))
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
