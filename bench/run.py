"""Benchmark for gladcf: one workload per process, timed end to end.

Usage, from the repository root::

    python3 bench/run.py --workload cv_bzr --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45 --trace 0

A run builds the workload's inputs from ``--seed`` several times (the median
is ``setup_s``), checks a tiny fixed-seed case against ``reference.json``,
then repeats the workload's main call for ``--seconds`` and checks every
output. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced calls and reports the
per-layer metrics from the traced ones. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Each run also writes a JSON record with the machine facts, every metric and
an output digest to ``bench/results/``.

``--workload all`` runs every workload in its own process, one after the
other. ``--write-reference`` regenerates ``reference.json``; do that only
for a change that is meant to alter the program's output, and say so.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
RESULTS_DIR = BENCH_DIR / "results"
WORK_ROOT = BENCH_DIR / "_work"

WORKLOAD_NAMES = ("cv_bzr", "augment_skewed")
SETUP_REPEATS = 5
MIN_CALLS = 3          # per kind of call: untraced, and traced with --trace 1
DIGEST_TOLERANCE = 1e-6  # largest allowed |value - reference| in a digest


def load_program() -> None:
    """Put the checkout's ``src`` on the path; refuse to run without it.

    The benchmark's own modules import gladcf, so they are imported only
    after this has run.
    """
    package = ROOT / "src" / "gladcf" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"bench: {package} not found; run the benchmark "
                         "from a gladcf source checkout")
    sys.path.insert(0, str(ROOT / "src"))


# -- machine facts ------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that NumPy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower()
                     and line.split()[-1].startswith("/")}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def machine_facts(workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


# -- digests ------------------------------------------------------------------


def digest_summary(values) -> dict:
    values = np.asarray(values, dtype=np.float64)
    rounded = np.round(values, 9).tobytes()
    return {"count": int(values.size), "sum": float(values.sum()),
            "sum_sq": float((values * values).sum()),
            "sha256_1e-9": hashlib.sha256(rounded).hexdigest()[:16]}


def reference_problems(name: str, digest) -> list[str]:
    reference = json.loads(REFERENCE.read_text("utf-8"))["workloads"].get(name)
    if reference is None:
        return [f"no reference digest for {name}"]
    if len(reference) != len(digest):
        return [f"reference digest has {len(reference)} values, "
                f"run gave {len(digest)}"]
    worst = max((abs(a - b) for a, b in zip(reference, digest)), default=0.0)
    if not worst <= DIGEST_TOLERANCE:
        return [f"digest differs from reference by {worst:.3g} "
                f"(tolerance {DIGEST_TOLERANCE})"]
    return []


# -- one workload in this process ---------------------------------------------


def run_reference(workload, workdir: Path):
    from workloads import fresh_dir
    state = workload.setup(0, fresh_dir(workdir), workload.tiny)
    return workload.outcome(state, workload.run(state))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from instrument import instrument, layer_metrics
    from spans import Tracer
    from workloads import WORKLOADS, fresh_dir

    workload = WORKLOADS[name]
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        setup_tracer = Tracer()
        setup_s = []
        for repeat in range(SETUP_REPEATS):
            directory = fresh_dir(work / f"setup{repeat}")
            gc.collect()
            restore = (instrument(setup_tracer) if trace and repeat == 0
                       else None)
            start = time.perf_counter()
            try:
                state = workload.setup(seed, directory, workload.full)
            finally:
                setup_s.append(time.perf_counter() - start)
                if restore:
                    restore()

        attempted, failed = 1, 0
        reference = run_reference(workload, work / "reference")
        digest_problems = reference_problems(name, reference.digest)
        for problem in reference.problems + digest_problems:
            print(f"reference check failed: {problem}", file=sys.stderr)
        failed += bool(reference.problems + digest_problems)

        # The first call is checked but not timed: it pays for page faults
        # and allocator growth once, where a long training run amortizes them.
        tracer = Tracer()
        walls: dict[str, list[float]] = {"warmup": [], "untraced": [],
                                         "traced": []}
        kinds = ("untraced", "traced") if trace else ("untraced",)
        first = None
        started = time.perf_counter()
        while not walls["warmup"] or (
                time.perf_counter() - started < seconds
                or min(len(walls[kind]) for kind in kinds) < MIN_CALLS):
            if not walls["warmup"]:
                kind = "warmup"
            elif trace and len(walls["untraced"]) > len(walls["traced"]):
                kind = "traced"
            else:
                kind = "untraced"
            gc.collect()
            restore = instrument(tracer) if kind == "traced" else None
            attempted += 1
            start = time.perf_counter()
            try:
                output = workload.run(state)
            except Exception:
                # a call that raises ends the measurement: it would again
                traceback.print_exc()
                failed += 1
                break
            finally:
                wall = time.perf_counter() - start
                if restore:
                    restore()
            walls[kind].append(wall)
            outcome = workload.outcome(state, output)
            problems = list(outcome.problems)
            if first is None:
                first = outcome
            elif outcome.digest != first.digest:
                problems.append("output differs between repeated calls")
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)
            failed += bool(problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if any(not walls[kind] for kind in kinds):
        raise SystemExit(f"bench: no timed call of {name} completed")

    untraced = statistics.median(walls["untraced"])
    items = first.items
    record = {
        "facts": machine_facts(name, seed),
        "walls_s": walls,
        "setup_walls_s": setup_s,
        "items": {workload.items_name: items},
        "quality": {"mean_auc": first.quality},
        "digest": digest_summary(first.digest),
        "reference_digest_ok": not digest_problems,
    }
    if trace:
        traced_wall = statistics.median(walls["traced"])
        metrics = layer_metrics(tracer, len(walls["traced"]))
        for key, value in layer_metrics(setup_tracer, 1).items():
            if key.startswith("tu."):
                metrics[f"setup.{key}"] = value
        unattributed = ((sum(walls["traced"]) - tracer.self_time_sum())
                        / len(walls["traced"]))
        overhead = traced_wall - untraced
        record["spans"] = {span: vars(totals)
                           for span, totals in sorted(tracer.totals.items())}
        record["counters"] = dict(sorted(tracer.counters.items()))
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = overhead
        metrics["trace.unattributed_s"] = unattributed
        # outermost spans must cover the traced call, up to the tracing cost
        if not 0.0 <= unattributed <= max(abs(overhead), 0.01 * traced_wall):
            print(f"check failed: spans leave {unattributed:.4f} s of a "
                  f"{traced_wall:.4f} s traced call unattributed",
                  file=sys.stderr)
            failed += 1
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": untraced,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "work_items_per_s": items / untraced,
        }
    record["metrics"] = metrics
    record["attempted"], record["failed"] = attempted, failed
    record["failed_frac"] = failed / attempted
    return record


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    kind = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def result_line(record: dict, units: dict[str, str]) -> dict:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }


def print_record(name: str, record: dict, units: dict[str, str]) -> None:
    facts = record["facts"]
    calls = {kind: len(walls) for kind, walls in record["walls_s"].items()}
    print(f"workload {name}  seed {facts['seed']}  calls {calls}")
    print("machine " + json.dumps(facts, sort_keys=True))
    for metric, value in sorted(record["metrics"].items()):
        print(f"  {metric:44s} {value:14.6g} {units[metric]}")
    for label, value in record["items"].items():
        print(f"  {'items per call (' + label + ')':44s} {value:14.6g}")
    if record["quality"]["mean_auc"] is not None:
        print(f"  {'mean_auc':44s} {record['quality']['mean_auc']:14.6g}")
    print(f"  {'failed_frac':44s} {record['failed_frac']:14.6g}")
    print("digest " + json.dumps(record["digest"], sort_keys=True))


def run_all(args) -> int:
    """Each workload in a fresh process; prints one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            print(f"bench: workload {name} exited with "
                  f"{completed.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0


def write_reference() -> int:
    from workloads import WORKLOADS
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    digests = {}
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as scratch:
        for name in WORKLOAD_NAMES:
            outcome = run_reference(WORKLOADS[name], Path(scratch) / name)
            if outcome.problems:
                raise SystemExit(f"bench: {name} reference fails its checks: "
                                 f"{outcome.problems}")
            digests[name] = outcome.digest
    REFERENCE.write_text(json.dumps(
        {"tolerance": DIGEST_TOLERANCE, "workloads": digests},
        indent=1) + "\n", "utf-8")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    load_program()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    units = declared_units(bool(args.trace))
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    if set(record["metrics"]) != set(units):
        raise SystemExit("bench: measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(record['metrics']) ^ set(units))}")
    print_record(args.workload, record, units)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / (f"{args.workload}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                   "utf-8")
    print(json.dumps(result_line(record, units), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
