"""Traced eigenspot CLI run: one span per call into each layer.

Run as a script, this module imports the CLI, wraps the public functions
listed in ``PATCHES`` under the name their caller looks them up by, runs
the command given after ``--`` and writes one JSON line per span when
the command ends::

    python3 bench/tracer.py --spans spans.jsonl --run-id ID -- detect --cases ...

A span has a name (``<defining module>.<function>``), start and end in
seconds from process start, the id of its parent span, the run id, the
growth of the process's peak RSS during the call, and a few counts read
off the call's arguments or result. The functions at the bottom turn a
span list into per-layer self times and the per-layer benchmark metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
from typing import Any, Callable

LAYERS = ("cli", "dataio", "tensors", "eigenmatch", "stscan")

# (module the caller looks the name up in, attribute name)
PATCHES = (
    ("cli", "run_sst_hotspot"),
    ("dataio", "ingest_pair"),
    ("dataio", "parse_records"),
    ("dataio", "build_tensor"),
    ("dataio", "parse_adjacency"),
    ("dataio", "parse_centroids"),
    ("dataio", "report_to_dict"),
    ("dataio", "scan_to_dict"),
    ("dataio", "dumps_stable"),
    ("eigenmatch", "decompose"),
    ("eigenmatch", "partition_spatial"),
    ("eigenmatch", "grow_first_priority"),
    ("eigenmatch", "grow_second_priority"),
    ("eigenmatch", "partition_temporal"),
    ("eigenmatch", "temporal_intervals"),
    ("tensors", "unfold"),
    ("tensors", "gram_eigen"),
    ("tensors", "top_eigenpairs"),
    ("stscan", "enumerate_cylinders"),
    ("stscan", "scan"),
    ("stscan", "monte_carlo_p"),
)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Collects spans in memory; ``write`` saves them as JSON lines."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = time.perf_counter()
        self.spans: list[dict[str, Any]] = []
        self.stack: list[int] = []
        self.mode = None  # kind of the mode decompose last unfolded
        self.pending: list[tuple[dict[str, Any], Callable[[Any], dict], Any]] = []

    def span(self, name: str, func: Callable, args: tuple, kwargs: dict) -> Any:
        record: dict[str, Any] = {
            "run": self.run_id, "id": len(self.spans), "name": name,
            "parent": self.stack[-1] if self.stack else None,
        }
        self.spans.append(record)
        self.stack.append(record["id"])
        rss0 = _peak_rss_mb()
        record["start"] = time.perf_counter() - self.origin
        try:
            result = func(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter() - self.origin
            record["rss_growth_mb"] = _peak_rss_mb() - rss0
            self.stack.pop()
        self._annotate(record, args, result)
        return result

    def _annotate(self, record: dict[str, Any], args: tuple, result: Any) -> None:
        """Counts for the span; those needing a walk over the result are
        deferred to ``finish`` so they do not add to the parent's time."""
        name = record["name"]
        if name == "tensors.unfold":
            self.mode = args[0].modes[args[1]].kind
        elif name in ("tensors.gram_eigen", "tensors.top_eigenpairs"):
            values = result[0]
            record["mode"] = self.mode
            record["dim"] = int(args[0].shape[0])
            if len(values) > 1 and values[0] > 0:
                record["lambda2_over_lambda1"] = float(values[1] / values[0])
        elif name == "dataio.parse_records":
            record["rows"] = result.rows
        elif name == "stscan.monte_carlo_p":
            record["replications"] = result.replications
        elif name in ("dataio.dumps_stable", "stscan.enumerate_cylinders"):
            self.pending.append((record, _DEFERRED[name], result))

    def finish(self) -> None:
        for record, count, result in self.pending:
            record.update(count(result))
        self.pending.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


_DEFERRED: dict[str, Callable[[Any], dict]] = {
    "dataio.dumps_stable": lambda text: {"bytes": len(text.encode("utf-8"))},
    "stscan.enumerate_cylinders": lambda cyls: {
        "cylinders": len(cyls), "member_refs": sum(len(c.members) for c in cyls),
    },
}


def install(tracer: Tracer, modules: dict[str, Any]) -> None:
    """Replace each patched name with a wrapper that records a span."""
    for where, attr in PATCHES:
        func = getattr(modules[where], attr)
        name = f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"

        def wrapper(*args, __func=func, __name=name, **kwargs):
            return tracer.span(__name, __func, args, kwargs)

        setattr(modules[where], attr, functools.wraps(func)(wrapper))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON-lines output path")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    command = opts.command[1:] if opts.command[:1] == ["--"] else opts.command

    tracer = Tracer(opts.run_id)
    start = time.perf_counter() - tracer.origin
    from eigenspot import cli, dataio, eigenmatch, stscan, tensors

    tracer.spans.append({
        "run": tracer.run_id, "id": 0, "name": "cli.import", "parent": None,
        "start": start, "end": time.perf_counter() - tracer.origin, "rss_growth_mb": 0.0,
    })
    install(tracer, {"cli": cli, "dataio": dataio, "eigenmatch": eigenmatch,
                     "stscan": stscan, "tensors": tensors})
    code = 0
    try:
        tracer.span("cli.main", cli.main, (), {"args": command, "prog_name": "eigenspot"})
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.finish()
        tracer.write(opts.spans)
    return code


# ---------------------------------------------------------------------------
# span analysis, used by the benchmark process


def read_spans(path: str) -> list[dict[str, Any]]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics from one traced run (0 where a layer is not called)."""
    own = self_times(spans)

    def select(*names: str, mode: str | None = None) -> list[dict[str, Any]]:
        return [s for s in spans if s["name"] in names and (mode is None or s.get("mode") == mode)]

    def total(*names: str, mode: str | None = None) -> float:
        return sum(s["end"] - s["start"] for s in select(*names, mode=mode))

    def own_total(*names: str) -> float:
        return sum(own[s["id"]] for s in select(*names))

    def attr(name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in select(name))

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    space = select("tensors.top_eigenpairs", mode="space")
    cases_space = space[-1] if space else {}  # decompose runs population, then cases
    m = {f"{layer}.self_s": sum(own[s["id"]] for s in spans
                                if s["name"].split(".")[0] == layer and s["name"] != "cli.import")
         for layer in LAYERS}
    rows = attr("dataio.parse_records", "rows")
    parse_s = total("dataio.parse_records")
    cylinders = attr("stscan.enumerate_cylinders", "cylinders")
    scan_s = total("stscan.scan")
    mc_s = total("stscan.monte_carlo_p")
    replications = attr("stscan.monte_carlo_p", "replications")
    m.update({
        "cli.import_s": total("cli.import"),
        "dataio.parse_records.s": parse_s,
        "dataio.parse_records.rows_per_s": ratio(rows, parse_s),
        "dataio.build_tensor.s": total("dataio.build_tensor"),
        "dataio.ingest_pair.self_s": own_total("dataio.ingest_pair"),
        "dataio.ingest_pair.rss_growth_mb": attr("dataio.ingest_pair", "rss_growth_mb"),
        "dataio.geometry.s": total("dataio.parse_adjacency", "dataio.parse_centroids"),
        "dataio.emit.s": total("dataio.report_to_dict", "dataio.scan_to_dict", "dataio.dumps_stable"),
        "dataio.rows": rows,
        "dataio.emit.bytes": attr("dataio.dumps_stable", "bytes"),
        "tensors.decompose.s": total("tensors.decompose"),
        "tensors.top_eigenpairs.space.s": total("tensors.top_eigenpairs", mode="space"),
        "tensors.top_eigenpairs.time.s": total("tensors.top_eigenpairs", mode="time"),
        "tensors.top_eigenpairs.attribute.s": total("tensors.top_eigenpairs", mode="attribute"),
        "tensors.gram_eigen.self_s": own_total("tensors.gram_eigen"),
        "tensors.decompose.rss_growth_mb": attr("tensors.decompose", "rss_growth_mb"),
        "tensors.gram_dim.space": cases_space.get("dim", 0),
        "tensors.lambda2_over_lambda1.space": cases_space.get("lambda2_over_lambda1", 0.0),
        "eigenmatch.run_sst_hotspot.self_s": own_total("eigenmatch.run_sst_hotspot"),
        "eigenmatch.grow.s": total("eigenmatch.grow_first_priority", "eigenmatch.grow_second_priority"),
        "eigenmatch.partition.s": total("eigenmatch.partition_spatial", "eigenmatch.partition_temporal",
                                        "eigenmatch.temporal_intervals"),
        "stscan.enumerate_cylinders.s": total("stscan.enumerate_cylinders"),
        "stscan.enumerate_cylinders.rss_growth_mb": attr("stscan.enumerate_cylinders", "rss_growth_mb"),
        "stscan.scan.s": scan_s,
        "stscan.scan.cylinders_per_s": ratio(cylinders, scan_s),
        "stscan.monte_carlo_p.s": mc_s,
        "stscan.replica_s": ratio(mc_s, replications),
        "stscan.monte_carlo_p.rss_growth_mb": attr("stscan.monte_carlo_p", "rss_growth_mb"),
        "stscan.cylinders": cylinders,
        "stscan.member_refs": attr("stscan.enumerate_cylinders", "member_refs"),
    })
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
