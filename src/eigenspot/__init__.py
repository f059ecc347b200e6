"""Spatiotemporal hotspot detection from labeled count tensors.

Two complementary detectors over the same inputs (a population tensor, a
cases tensor, and a region adjacency): an eigenvector-element-matching
detector that works on tensors of any order, and a space-time scan
statistic baseline with Monte Carlo significance. A synthesis and
evaluation harness compares the two.

The public names below, and the submodules, are imported on first use
(PEP 562), so a command imports only the modules it runs.
"""

import importlib
from typing import Any

__version__ = "0.1.0"

#: Each public name and the submodule that defines it, in ``__all__`` order.
_SOURCES = {
    "EigenspotError": "errors",
    "InputError": "errors",
    "NumericalError": "errors",
    "ConvergenceError": "errors",
    "DegenerateModeError": "errors",
    "CountTensor": "tensors",
    "ModeLabel": "tensors",
    "EigenModel": "tensors",
    "unfold": "tensors",
    "gram_eigen": "tensors",
    "top_eigenpairs": "tensors",
    "decompose": "tensors",
    "default_ranks": "tensors",
    "canonicalize_sign": "tensors",
    "NeighborMatrix": "eigenmatch",
    "DiffVector": "eigenmatch",
    "SpatialPartition": "eigenmatch",
    "ClusterSet": "eigenmatch",
    "TemporalResult": "eigenmatch",
    "HotspotReport": "eigenmatch",
    "population_std": "eigenmatch",
    "sign_correct": "eigenmatch",
    "element_diff": "eigenmatch",
    "partition_spatial": "eigenmatch",
    "grow_first_priority": "eigenmatch",
    "grow_second_priority": "eigenmatch",
    "partition_temporal": "eigenmatch",
    "temporal_intervals": "eigenmatch",
    "run_sst_hotspot": "eigenmatch",
    "CylinderFamily": "stscan",
    "ScanCylinder": "stscan",
    "ScanResult": "stscan",
    "score": "stscan",
    "enumerate_cylinders": "stscan",
    "scan": "stscan",
    "monte_carlo_p": "stscan",
    "ModeSpec": "dataio",
    "RecordSchema": "dataio",
    "RegionGeometry": "dataio",
    "load_schema": "dataio",
    "parse_records": "dataio",
    "build_tensor": "dataio",
    "parse_adjacency": "dataio",
    "parse_centroids": "dataio",
    "write_json": "dataio",
    "read_report": "dataio",
    "write_geojson": "dataio",
    "dumps_stable": "dataio",
    "ingest_pair": "dataio",
    "Metrics": "evalsynth",
    "SynthConfig": "evalsynth",
    "SynthData": "evalsynth",
    "InjectedTruth": "evalsynth",
    "ComparisonTable": "evalsynth",
    "precision_recall_f1": "evalsynth",
    "generate": "evalsynth",
    "compare": "evalsynth",
    "write_comparison": "evalsynth",
}
_SUBMODULES = frozenset({"cli", *_SOURCES.values()})

__all__ = list(_SOURCES)


def __getattr__(name: str) -> Any:
    """Import a public name's module, or a submodule, on first access."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCES[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
