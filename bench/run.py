"""Benchmark of the eigenspot CLI, end to end and per layer.

Run from the root of an eigenspot source checkout::

    python3 bench/run.py --workload scan-centroid --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 32 --trace 1

Each invocation is one fresh ``python3 -m eigenspot`` process running
the checkout's ``src/``, and invocations run one at a time (a closed
loop with one client) for about ``--seconds``. Inputs are
generated from ``--seed`` before timing starts and cached per
(workload, seed) under ``.bench_work/``. Every output is checked (see
``checks.py``); an invocation that exits nonzero or fails a check counts
as failed. At the pinned seed the output bytes must also match the
digest recorded in ``digests.json``.

``setup_s`` is the median time of a fresh ``import eigenspot.cli``, one
timed just before each invocation, so the samples span the whole run.

Timings are given in reference seconds: seconds on a core that runs the
reference loop in ``REF_LOOP_S``. On a shared VM each virtual CPU flips,
every few seconds, between running at full speed and running up to 1.7
times slower, as other tenants come and go; that, not the program,
would set the spread of a raw wall time. So before each
invocation a short fixed pure-Python loop (``reference_loop``) is timed
on every CPU, and the benchmark, with the processes it starts, is pinned
to the fastest. The loop is timed again on that CPU after the
invocation; the host speed is ``REF_LOOP_S`` over the mean of the two
loop times. The invocation's wall time and set-up sample are multiplied
by the square root of the host speed (``SPEED_EXPONENT``): the CLI runs
more C code than the loop, and over ten runs of each workload its time
moved with the host speed to a power of 0.43 to 0.53, so the square root
left the least spread between runs. The raw medians and the measured
host speed are reported with the per-layer metrics and in the result
record.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` adds one
traced invocation (``tracer.py``) after the untraced loop and
reports the per-layer metrics, including the tracing overhead. If that
invocation fails, or is killed before it writes its spans, it counts as
failed and no per-layer metrics are reported. Metric units are those
listed in ``BENCHMARK.json``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable summary goes to
standard error and the full record, with the environment, to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # the checks read outputs with the program's own reader

try:
    import checks
except ModuleNotFoundError as exc:
    sys.exit(f"cannot import the program under test ({exc}): "
             "run from the root of an eigenspot checkout")
import tracer
import workloads
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
REF_LOOP_ITERATIONS = 50_000
REF_LOOP_S = 0.036  # about the loop's fastest time on one core of a 2-vCPU Xeon VM
SPEED_EXPONENT = 0.5
CPUS = sorted(os.sched_getaffinity(0))  # the CPUs the benchmark may run on
MIN_INVOCATIONS = 2
INVOCATION_TIMEOUT_S = 60.0  # a hung invocation is killed after this long
# The workloads make little use of BLAS, and a second BLAS thread makes
# every start-up wait on a second core: it adds about a quarter to
# ``import eigenspot.cli`` on a 2-core VM, and that cost swings with
# whatever else runs on the host.
BLAS_THREADS = 1


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    code: int
    problems: list[str]
    digest: str | None = None
    setup_s: float | None = None  # an import timed just before it
    speed: float = 1.0  # host speed around it: see the module docstring

    def scaled(self, seconds: float) -> float:
        """``seconds``, measured around this invocation, in reference seconds."""
        return seconds * self.speed ** SPEED_EXPONENT


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(cmd: list[str], env: dict[str, str], stderr: Path) -> tuple[float, float, int]:
    """Run one process; return (wall seconds, peak RSS in MB, exit code)."""
    with open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def reference_loop() -> float:
    """Seconds taken by a fixed loop of string formatting and dict updates.

    The loop does the kind of work the CLI does most (interpreted Python,
    as in CSV parsing and the Monte Carlo replica loop), so its time tracks how
    fast the host runs the program at that moment.
    """
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(REF_LOOP_ITERATIONS):
        key = f"r{i % 400:03d},w{i % 24:02d}"
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def pin_fastest_cpu() -> float:
    """Pin this process, and so the children it starts, to the CPU on which
    the reference loop now runs fastest; return that loop's time."""
    times = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        times[cpu] = reference_loop()
    best = min(times, key=times.get)
    os.sched_setaffinity(0, {best})
    return times[best]


def environment() -> dict[str, object]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy older than 1.26
        blas = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    return {"nproc": len(CPUS), "blas_threads": BLAS_THREADS,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__, "blas": blas, "git_commit": commit}


def prepare_inputs(w: Workload, seed: int, env: dict[str, str]) -> tuple[Path, float | None]:
    """Generate (or reuse) the inputs; return their directory and generation time."""
    params = hashlib.sha256(repr((w.synth, w.linelist)).encode()).hexdigest()[:8]
    inputs = WORK / "inputs" / f"{w.name}-{seed}-{params}"  # new inputs when the sizes change
    done = inputs / ".done"
    gen_s = None
    if not done.exists():
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        workloads.generate(w, seed, inputs, sys.executable, env)
        gen_s = time.perf_counter() - start
        done.write_text("")
    return inputs, gen_s


def csv_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def verify(w: Workload, inputs: Path, out: Path, code: int, stderr: Path) -> tuple[list[str], str | None, bytes]:
    if code != 0:
        tail = stderr.read_text(encoding="utf-8", errors="replace").strip()[-300:]
        return [f"exit code {code}: {tail}"], None, b""
    if not out.is_file():
        return ["exit code 0 but no output file"], None, b""
    data = out.read_bytes()
    if w.kind == "scan":
        problems = checks.check_scan(data, inputs, w.replications)
    else:
        problems = checks.check_detect(data, w.dims)
    return problems, hashlib.sha256(data).hexdigest(), data


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    env = child_env()
    for sub in ("out", "logs", "spans", "results"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    inputs, gen_s = prepare_inputs(w, seed, env)
    rows = csv_rows(inputs / "cases.csv") + csv_rows(inputs / "population.csv")
    log = WORK / "logs" / f"{name}.stderr"
    pinned = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))

    import_cmd = [sys.executable, "-c", "import eigenspot.cli"]
    spawn(import_cmd, env, log)  # warm-up: byte-compiles src/ on a fresh checkout
    runs: list[Invocation] = []
    first: tuple[str, bytes] | None = None

    def invoke(cmd: list[str], out: Path, time_setup: bool) -> Invocation:
        """Pin to the fastest CPU, time the set-up and the command, and check the output."""
        nonlocal first
        before = pin_fastest_cpu()
        setup = spawn(import_cmd, env, log)[0] if time_setup else None
        out.unlink(missing_ok=True)
        wall, rss, code = spawn(cmd, env, log)
        speed = 2 * REF_LOOP_S / (before + reference_loop())
        problems, digest, data = verify(w, inputs, out, code, log)
        if digest is not None:
            if first is not None and digest != first[0]:
                problems.append("output bytes differ from the first correct output's")
            if seed == pinned["seed"] and digest != pinned["sha256"].get(name):
                problems.append(f"sha256 {digest} != pinned digest at seed {seed}")
            if first is None and not problems:
                first = (digest, data)
        return Invocation(wall, rss, code, problems, digest, setup, speed)

    # Start another invocation only while a typical one still fits in the
    # window, so a run's length stays close to --seconds.
    out = WORK / "out" / f"{name}.json"
    cmd = [sys.executable, "-m", "eigenspot", *w.command(inputs, seed, out)]
    start = time.perf_counter()
    try:
        while len(runs) < MIN_INVOCATIONS or (
            (time.perf_counter() - start) * (1 + 1 / len(runs)) <= seconds
        ):
            runs.append(invoke(cmd, out, time_setup=True))
        wall = statistics.median(r.scaled(r.wall_s) for r in runs)
        metrics: dict[str, float] = {
            "setup_s": statistics.median(r.scaled(r.setup_s) for r in runs),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
            "rows_per_s": rows / wall,
        }
        raw = {
            "wall_raw_s": statistics.median(r.wall_s for r in runs),
            "setup_raw_s": statistics.median(r.setup_s for r in runs),
            "host_speed": statistics.median(r.speed for r in runs),
        }
        quality = checks.quality(w.kind, first[1], inputs / "truth.json") if first else {}
        sizes = {"dims": list(w.dims), "rows": rows, "replications": w.replications}
        if trace:
            out = WORK / "out" / f"{name}-traced.json"
            spans_path = WORK / "spans" / f"{name}-seed{seed}.jsonl"
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans_path),
                   "--run-id", f"{name}:{seed}", "--", *w.command(inputs, seed, out)]
            traced = invoke(cmd, out, time_setup=False)
            runs.append(traced)
            if not spans_path.is_file():  # e.g. the child was killed
                traced.problems.append("the traced run wrote no spans")
            metrics = {}  # per-layer figures come only from a traced run that passed
            if not traced.problems:
                layer = tracer.layer_metrics(tracer.read_spans(str(spans_path)))
                cylinders = sizes["cylinders"] = layer["stscan.cylinders"]
                layer.update(raw)
                layer.update({
                    "traced_wall_s": traced.scaled(traced.wall_s),
                    "trace_overhead_s": traced.scaled(traced.wall_s) - wall,
                    "cylinder_evals_per_s": cylinders * (1 + w.replications) / wall,
                    "f1_pct": quality.get("f1_pct", 0.0),
                    "stscan.significant_ratio":
                        quality.get("significant_total", 0) / cylinders if cylinders else 0.0,
                    "stscan.significant_clusters": quality.get("significant_clusters", 0),
                    "eigenmatch.centers": quality.get("centers", 0),
                    "eigenmatch.clusters_first": quality.get("clusters_first", 0),
                    "evalsynth.pruning_fraction": quality.get("pruning_fraction", 0.0),
                })
                metrics = layer
    finally:
        os.sched_setaffinity(0, CPUS)

    failed = sum(1 for r in runs if r.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "sizes": sizes,
        "inputs": os.path.relpath(inputs, ROOT), "generation_s": gen_s,
        "ref_loop_s": REF_LOOP_S, **raw, "error_rate": failed / len(runs), "quality": quality,
        "invocations": [r.__dict__ for r in runs], **result,
    }
    (WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(details, indent=2) + "\n", encoding="utf-8")
    summarize(details)
    return result


def summarize(d: dict) -> None:
    """Readable summary on standard error."""
    def say(text: str = "") -> None:
        print(text, file=sys.stderr)

    say(f"== {d['workload']}  seed {d['seed']}  {d['seconds']} s  trace {int(d['trace'])}")
    say(f"environment  {json.dumps(d['environment'])}")
    gen = "cached" if d["generation_s"] is None else f"generated in {d['generation_s']:.2f} s"
    say(f"inputs       {d['inputs']} ({gen}); sizes {json.dumps(d['sizes'])}")
    for i, r in enumerate(d["invocations"]):
        status = "; ".join(r["problems"]) or "ok"
        say(f"  #{i:<3} wall {r['wall_s']:8.3f} s  speed {r['speed']:5.2f}  peak {r['peak_rss_mb']:7.1f} MB  {status}")
    say(f"  host speed {d['host_speed']:.3f} x reference; raw medians: wall "
        f"{d['wall_raw_s']:.3f} s, setup {d['setup_raw_s']:.3f} s")
    say(f"  error_rate {d['error_rate']:.3f} ({d['failed']} of {d['attempted']} failed)  "
        f"quality {json.dumps(d['quality'])}")
    for k, m in d["metrics"].items():
        say(f"  {k:40s} {m['value']:>16.6g} {m['unit']}")
    if d["trace"]:
        selfs = {k: m["value"] for k, m in d["metrics"].items()
                 if k.count(".") == 1 and k.endswith(".self_s")}
        total = sum(selfs.values()) or 1.0
        say("  layer self time: " + ", ".join(
            f"{k.split('.')[0]} {v:.3f} s ({100 * v / total:.0f}%)" for k, v in selfs.items()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="eigenspot CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not (SRC / "eigenspot" / "__init__.py").is_file():
        print(f"no eigenspot sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    results = {n: run_workload(n, opts.seed, opts.seconds, bool(opts.trace)) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
