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
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence, TextIO

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
from .stscan import ScanCylinder, ScanResult
from .tensors import CountTensor, ModeKind, ModeLabel


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
        cols = self.flat_columns()
        if len(set(cols)) != len(cols):
            raise InputError("schema maps a column twice", module="dataio")
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


def load_schema(source: Any) -> RecordSchema:
    """Read a RecordSchema from a JSON file, path, or parsed dict."""
    if isinstance(source, (str, Path)):
        doc = json.loads(Path(source).read_text(encoding="utf-8"))
    elif isinstance(source, Mapping):
        doc = source
    else:
        doc = json.load(source)
    try:
        modes = tuple(
            ModeSpec(name=m["name"], kind=m["kind"], columns=tuple(m["columns"]))
            for m in doc["modes"]
        )
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed schema document: {exc}", module="dataio") from exc
    return RecordSchema(
        modes=modes,
        count_column=doc.get("count_column"),
        categories=doc.get("categories") or None,
    )


@dataclass(frozen=True)
class ParsedRecords:
    """One file's kept rows as value columns and a count array, both in row
    order; ``rows`` also counts the rows excluded for an unknown category."""

    columns: dict[str, tuple[str, ...]]
    counts: np.ndarray
    unknown: dict[str, tuple[str, ...]]
    rows: int


@contextmanager
def _open_text(source: Any, mode: str = "r") -> Iterator[TextIO]:
    if isinstance(source, (str, Path)):
        with open(source, mode, encoding="utf-8-sig" if "r" in mode else "utf-8", newline="") as fh:
            yield fh
    elif isinstance(source, io.TextIOBase) or hasattr(source, "read") or hasattr(source, "write"):
        yield source
    else:
        raise InputError(f"cannot open {type(source).__name__} as text", module="dataio")


def _tokenize(fh: TextIO) -> tuple[list[str], list[Sequence[str]], np.ndarray]:
    """Read a file's text and split it into a header and whole fields.

    Returns ``(header, fields, lengths)``: ``fields[j]`` holds field ``j`` of
    every record after the header, in file order, with a record's missing
    trailing fields read as ``""``, and ``lengths`` each record's own field
    count. Text without quote characters, NULs (which ``csv`` rejects before
    Python 3.11) or line breaks other than LF and CRLF, whose lines all have
    the header's field count, is split on commas in one pass; anything else
    is read by :mod:`csv`, whose records may quote commas and line breaks.
    """
    # each whole-file copy is freed before the next one is made
    text = fh.read()
    plain = text.replace("\r\n", "\n")
    if '"' in plain or "\0" in plain or "\r" in plain:
        # read back as a file opened with newline="" is; the UTF-8 bytes take
        # a quarter of the memory of an io.StringIO copy
        data = io.BytesIO(text.encode("utf-8", "surrogatepass"))
        del text, plain
        lines = io.TextIOWrapper(data, "utf-8", "surrogatepass", newline="")
    else:
        del text
        lines = plain.split("\n")
        del plain
        if not lines[-1]:
            lines.pop()
        if not lines:
            raise InputError("empty input: no header row", module="dataio")
        width = lines[0].count(",") + 1
        if set(map(str.count, lines, itertools.repeat(","))) == {width - 1}:
            joined = ",".join(lines)
            del lines
            flat = joined.split(",")
            del joined
            fields = [flat[width + j :: width] for j in range(width)]
            return flat[:width], fields, np.full(len(fields[0]), width)
    records = csv.reader(lines)
    del lines
    header = next(records)
    rows = list(records)
    del records
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    width = max(len(header), int(lengths.max(initial=0)))
    pad = width - lengths
    if pad.any():
        fill = map(operator.mul, itertools.repeat([""]), pad.tolist())
        rows = list(map(list.__add__, rows, fill))
    flat = list(itertools.chain.from_iterable(rows))
    del rows
    return header, [flat[j::width] for j in range(width)], lengths


def _blank_rows(fields: Sequence[Sequence[str]]) -> np.ndarray:
    """Mask of the records whose every field strips to ``""``."""
    blank = np.ones(len(fields[0]), dtype=bool)
    for field in fields:
        if not blank.any():
            break
        cells = itertools.compress(field, blank.tolist())
        blank[blank] = np.fromiter(map(operator.not_, map(str.strip, cells)), dtype=bool)
    return blank


def parse_records(source: Any, schema: RecordSchema) -> ParsedRecords:
    """Parse a comma-separated file under a schema.

    Each kept row contributes its mapped column values plus a count (1.0
    when the schema names no count column). Blank rows are skipped. Rows
    whose value falls outside an explicit category list are excluded from
    the columns but collected in the unknown-category report rather than
    silently dropped. The first bad row in file order raises
    :class:`InputError`; within a row, a missing mapped field is reported
    before a non-numeric count, and that before a negative or non-finite one.
    """
    with _open_text(source) as fh:
        header, fields, lengths = _tokenize(fh)
    header = [h.strip() for h in header]
    seen: dict[str, int] = {}
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

    # every check runs over whole columns of the non-blank rows and records
    # its first failure as (row, rank, message); min() then takes the first
    # row in file order and, within it, the lowest rank
    live = ~_blank_rows(fields)
    row_at = np.flatnonzero(live) + 2  # record number of each non-blank row; the header is 1
    select = live.tolist()
    values = {
        c: tuple(map(str.strip, itertools.compress(fields[i], select)))
        for c, i in zip(cols, col_idx)
    }
    rows = len(row_at)
    errors: list[tuple[int, int, str]] = []
    short = np.flatnonzero(lengths[live] <= max(col_idx))
    if short.size:
        errors.append((short[0], 0, f"row {row_at[short[0]]} is shorter than the header"))
    if count_idx is None:
        counts = np.ones(rows)
    else:
        raw = tuple(map(str.strip, itertools.compress(fields[count_idx], select)))
        parsed: list[float] = []  # on a failure, holds the counts before the failing one
        try:
            parsed.extend(map(float, raw))
        except ValueError:
            at = len(parsed)
            errors.append((at, 1, f"non-numeric count {raw[at]!r} at row {row_at[at]}"))
        counts = np.array(parsed, dtype=float)
        bad = np.flatnonzero((counts < 0) | ~np.isfinite(counts))
        if bad.size:
            errors.append(
                (bad[0], 2, f"count must be finite and non-negative at row {row_at[bad[0]]}")
            )
    if errors:
        raise InputError(min(errors)[2], module="dataio")

    explicit = schema.categories or {}
    excluded = np.zeros(rows, dtype=bool)
    unknown: dict[str, tuple[str, ...]] = {}
    for c in sorted(explicit):
        allowed = set(explicit[c]).__contains__
        outside = ~np.fromiter(map(allowed, values[c]), dtype=bool, count=rows)
        if outside.any():
            unknown[c] = tuple(sorted(set(itertools.compress(values[c], outside.tolist()))))
            excluded |= outside
    if excluded.any():
        keep = (~excluded).tolist()
        values = {c: tuple(itertools.compress(v, keep)) for c, v in values.items()}
        counts = counts[~excluded]
    return ParsedRecords(columns=values, counts=counts, unknown=unknown, rows=rows)


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
        out[col] = tuple(dict.fromkeys(itertools.chain(*(p.columns[col] for p in parsed_files))))
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
    cols = schema.flat_columns()
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

    codes = []
    for c in cols:
        index = {v: i for i, v in enumerate(col_cats[c])}
        try:
            codes.append(np.fromiter(map(index.__getitem__, parsed.columns[c]), dtype=np.intp))
        except KeyError as exc:
            raise InputError(
                f"category {exc.args[0]!r} not in the explicit list for column {c!r}",
                module="dataio",
            ) from None
    # last column varies fastest, as in the bundle labels and the mode order
    flat = np.ravel_multi_index(codes, [len(col_cats[c]) for c in cols])
    dims = tuple(l.dim for l in labels)
    values = np.bincount(flat, weights=parsed.counts, minlength=math.prod(dims))
    return CountTensor(tuple(labels), values.reshape(dims))


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
    with _open_text(source) as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if header and lineno == 1:
                continue
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise InputError(
                    f"adjacency row {lineno} must have exactly two columns",
                    module="dataio",
                )
            a, b = row[0].strip(), row[1].strip()
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


def parse_centroids(
    source: Any,
    regions: Sequence[str],
    header: bool = True,
) -> np.ndarray:
    """Read region,x,y rows into an (n, 2) array aligned with ``regions``."""
    regions = tuple(regions)
    index = {r: i for i, r in enumerate(regions)}
    coords = np.full((len(regions), 2), np.nan)
    with _open_text(source) as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if header and lineno == 1:
                continue
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise InputError(
                    f"centroid row {lineno} must be region,x,y", module="dataio"
                )
            r = row[0].strip()
            if r not in index:
                raise InputError(
                    f"unknown region {r!r} at centroid row {lineno}", module="dataio"
                )
            if not np.isnan(coords[index[r]]).all():
                raise InputError(
                    f"region {r!r} listed twice in centroids", module="dataio"
                )
            try:
                coords[index[r]] = (float(row[1]), float(row[2]))
            except ValueError:
                raise InputError(
                    f"non-numeric coordinate at centroid row {lineno}", module="dataio"
                ) from None
    missing = [r for r in regions if np.isnan(coords[index[r]]).any()]
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


def scan_to_dict(
    result: ScanResult,
    alpha: float | None = None,
    top: int | None = None,
) -> dict[str, Any]:
    """Scan result as a document; ``top`` truncates the ranked list."""
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
        doc["significant_total"] = len(result.significant(alpha))
        doc["significant"] = [
            _cylinder_to_dict(c, result.regions, result.times)
            for c in result.significant_clusters(alpha)
        ]
    return doc


def scan_from_dict(doc: Mapping[str, Any]) -> ScanResult:
    if doc.get("schema") != SCAN_SCHEMA:
        raise InputError(
            f"expected schema {SCAN_SCHEMA!r}, got {doc.get('schema')!r}",
            module="dataio",
        )
    regions = tuple(doc["regions"]) if doc.get("regions") else None
    times = tuple(doc["times"]) if doc.get("times") else None
    r_index = {r: i for i, r in enumerate(regions)} if regions else None
    t_index = {t: i for i, t in enumerate(times)} if times else None

    def region_id(v: Any) -> int:
        return r_index[v] if r_index else int(v)

    def time_id(v: Any) -> int:
        return t_index[v] if t_index else int(v)

    cyls = tuple(
        ScanCylinder(
            center=region_id(c["center"]),
            members=tuple(region_id(m) for m in c["members"]),
            window=(time_id(c["window"][0]), time_id(c["window"][1])),
            count=float(c["c"]),
            baseline=float(c["b"]),
            score=float(c["score"]),
            p_value=None if c["p_value"] is None else float(c["p_value"]),
        )
        for c in doc["cylinders"]
    )
    return ScanResult(
        cylinders=cyls,
        c_total=float(doc["c_total"]),
        b_total=float(doc["b_total"]),
        elevated_only=bool(doc["elevated_only"]),
        replications=int(doc["replications"]),
        seed=doc["seed"],
        regions=regions,
        times=times,
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


def tensor_from_dict(doc: Mapping[str, Any]) -> CountTensor:
    if doc.get("schema") != TENSOR_SCHEMA:
        raise InputError(
            f"expected schema {TENSOR_SCHEMA!r}, got {doc.get('schema')!r}",
            module="dataio",
        )
    modes = tuple(
        ModeLabel(kind=m["kind"], categories=tuple(m["categories"]), name=m["name"])
        for m in doc["modes"]
    )
    return CountTensor.from_flat(doc["values"], modes)


def write_report(
    report: HotspotReport | ScanResult,
    destination: Any,
    alpha: float | None = None,
    top: int | None = None,
) -> None:
    """Write a detector report or scan result as fixed-format JSON."""
    if isinstance(report, HotspotReport):
        doc = report_to_dict(report)
    elif isinstance(report, ScanResult):
        doc = scan_to_dict(report, alpha=alpha, top=top)
    else:
        raise InputError(
            f"cannot serialize {type(report).__name__}", module="dataio"
        )
    with _open_text(destination, "w") as fh:
        fh.write(dumps_stable(doc))


def read_report(source: Any) -> HotspotReport | ScanResult:
    """Read back a document written by :func:`write_report`."""
    with _open_text(source) as fh:
        doc = json.load(fh)
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
    """Region polygons (GeoJSON geometry objects) and optional centroids."""

    geometries: Mapping[str, Mapping[str, Any]]
    centroids: Mapping[str, tuple[float, float]] | None = None

    @classmethod
    def from_geojson(cls, source: Any, id_property: str = "region") -> "RegionGeometry":
        with _open_text(source) as fh:
            doc = json.load(fh)
        if doc.get("type") != "FeatureCollection":
            raise InputError("expected a GeoJSON FeatureCollection", module="dataio")
        geoms: dict[str, Mapping[str, Any]] = {}
        centroids: dict[str, tuple[float, float]] = {}
        for feat in doc.get("features", []):
            props = feat.get("properties") or {}
            rid = props.get(id_property)
            if rid is None:
                raise InputError(
                    f"feature without the {id_property!r} property", module="dataio"
                )
            geoms[str(rid)] = feat.get("geometry")
            if "centroid" in props:
                x, y = props["centroid"]
                centroids[str(rid)] = (float(x), float(y))
        return cls(geometries=geoms, centroids=centroids or None)


def _region_role(report: HotspotReport, region: str) -> str:
    if region in report.spatial.sc:
        return "center"
    if region in report.spatial.likely_cluster:
        return "likely"
    if any(region in m for m in report.clusters_first.clusters.values()):
        return "first"
    if any(region in m for m in report.clusters_second.clusters.values()):
        return "second"
    return "none"


def write_geojson(
    report: HotspotReport,
    geometry: RegionGeometry,
    destination: Any,
) -> tuple[str, ...]:
    """Emit one feature per region with ds, role, and cluster membership.

    Regions without geometry are skipped so a partial geometry file still
    yields usable output; returns the skipped regions in report order.
    """
    features = []
    skipped = []
    for region in report.ds.categories:
        geom = geometry.geometries.get(region)
        if geom is None:
            skipped.append(region)
            continue
        clusters = [
            center
            for center, members in report.clusters_second.clusters.items()
            if region in members
        ]
        features.append(
            {
                "type": "Feature",
                "geometry": geom,
                "properties": {
                    "region": region,
                    "ds": report.ds.value(region),
                    "role": _region_role(report, region),
                    "clusters": clusters,
                },
            }
        )
    doc = {"type": "FeatureCollection", "features": features}
    with _open_text(destination, "w") as fh:
        fh.write(dumps_stable(doc))
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
