#!/usr/bin/env python3
"""End-to-end benchmark of ``repro report``.

Every measured run is the real CLI in a fresh process, because users pay the
import and the proxy calibration on every run::

    python3 perfbench/run.py --workload report_cold --seed 1 --seconds 35 --trace 0

Workloads (closed loop, one client; see README.md for why each exists):

* ``report_cold``     ``repro report --json``, no store;
* ``report_warm``     ``repro --store S report --json`` on a store filled in set-up;
* ``report_workers2`` ``repro --store <fresh> report --workers 2 --json``.

Set-up runs a serial cold ``repro report --json`` (filling the store for
``report_warm``) and keeps its bytes as the reference; every measured run
must reproduce them exactly, and the reference must match
``tests/golden/report_golden.json`` within the golden suite's tolerances.
With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced runs (``hook/`` wraps the layer
functions in the CLI process and in every spawned worker).  Report inputs
are fixed by the paper's harnesses: the seed orders the traced and untraced
runs and names the store directories.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HOOK = HERE / "hook"
GOLDEN = ROOT / "tests" / "golden" / "report_golden.json"
WORK = ROOT / ".perfbench"

#: The store each workload runs against (none, the one set-up filled, or a
#: fresh one per run) and its ``--workers`` count (0: the flag is not given).
WORKLOADS = {
    "report_cold": {"store": None, "workers": 0},
    "report_warm": {"store": "setup", "workers": 0},
    "report_workers2": {"store": "fresh", "workers": 2},
}
EXPERIMENTS = ("table1", "fig6", "fig7", "fig8", "fig9", "robustness", "layer_families")
#: Spans reported as ``<name>.calls`` and ``<name>.s`` (self seconds).
TIMED_LAYERS = (
    "engine.cache.fingerprint",
    "backend.svd",
    "imc.noise.apply",
    "engine.kernels.program",
    "backend.tiled_mvm",
    "mapping.cycles.select_lowrank_window",
    "training.proxy.mean_relative_error",
)
SETUP_REPEATS = 3
#: Every run ends well inside the 180 s a benchmark run may take.
RUN_DEADLINE_S = 170.0
RSS_POLL_S = 0.1


class BenchError(Exception):
    """A run that cannot produce a trustworthy result."""


# ----------------------------------------------------------------------
# Running the CLI
# ----------------------------------------------------------------------
def child_env(trace_dir=None):
    """The CLI's environment: no inherited ``REPRO_*`` settings, the source
    tree on the path, and the start-up hook only for traced runs."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.pop("PERFBENCH_TRACE_DIR", None)
    env["PYTHONPATH"] = str(SRC)
    if trace_dir is not None:
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HOOK)])
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    return env


def _rss_kb(pid):
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _tree(root):
    """``root`` and every live descendant, from the parent links in /proc."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    tree, frontier = [root], [root]
    while frontier:
        frontier = [child for pid in frontier for child in children.get(pid, ())]
        tree.extend(frontier)
    return tree


class TreeMemory(threading.Thread):
    """Samples the summed resident memory of a process and its descendants."""

    def __init__(self, pid):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb = 0
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(RSS_POLL_S):
            self.peak_kb = max(self.peak_kb, sum(_rss_kb(pid) for pid in _tree(self.pid)))


def run_cli(repro_args, deadline, log_path, trace_dir=None):
    """One ``python -m repro`` process; returns its wall time, exit code and
    peak memory (the exact peak of the CLI process, or the sampled peak of
    the CLI plus its workers when that is larger)."""
    argv = [sys.executable, "-m", "repro", *repro_args]
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        process = subprocess.Popen(
            argv,
            cwd=str(WORK),
            env=child_env(trace_dir),
            stdout=subprocess.DEVNULL,
            stderr=log,
            start_new_session=True,
        )
        memory = TreeMemory(process.pid)
        memory.start()
        killer = threading.Timer(max(deadline - time.perf_counter(), 0.0), _kill_group, [process.pid])
        killer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
            memory.done.set()
            memory.join()
            _kill_group(process.pid)
    process.returncode = os.waitstatus_to_exitcode(status)
    if time.perf_counter() >= deadline:
        raise BenchError(f"`repro {' '.join(repro_args)}` overran the run deadline")
    return {
        "wall_s": wall,
        "returncode": process.returncode,
        "peak_rss_mb": max(usage.ru_maxrss, memory.peak_kb) / 1024.0,
        "pid": process.pid,
        "log": Path(log_path).read_text(encoding="utf-8", errors="replace"),
    }


def _kill_group(pid):
    """Stop whatever the CLI left behind (its workers share its session)."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def tree_bytes(path):
    if path is None or not path.exists():
        return 0
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def golden_mismatches(report_bytes):
    """Compare a report with the committed golden snapshot, read-only,
    through the golden suite's own per-metric tolerances."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        from tests.golden import test_golden_report as golden
    finally:
        del sys.path[:2]
    mismatches = []
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    golden._compare(expected, json.loads(report_bytes), "report", mismatches)
    return mismatches


def verdict(sample, reference, out_path):
    """Why a measured run is wrong, or None when it reproduced the reference."""
    if "parallel sweep incomplete" in sample["log"]:
        return "parallel sweep incomplete"
    if sample["returncode"] != 0:
        return f"exit code {sample['returncode']}: {sample['log'].strip()[-300:]}"
    if not out_path.exists() or out_path.read_bytes() != reference:
        return "report bytes differ from the serial cold reference"
    return None


# ----------------------------------------------------------------------
# Host facts
# ----------------------------------------------------------------------
def host_facts():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                "",
            )
    except OSError:
        pass
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var, "unset") for var in thread_vars},
        "extras": {
            module: importlib.util.find_spec(module) is not None
            for module in ("numba", "fastapi", "uvicorn")
        },
    }
    facts["fingerprint"] = hashlib.sha256(
        json.dumps(facts, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    return facts


# ----------------------------------------------------------------------
# Per-layer metrics from the trace files of one traced run
# ----------------------------------------------------------------------
def layer_metrics(trace_dir, sample):
    records = [json.loads(path.read_text(encoding="utf-8")) for path in trace_dir.glob("trace-*.json")]
    parents = [record for record in records if record["pid"] == sample["pid"]]
    if len(parents) != 1:
        raise BenchError("the traced CLI process wrote no trace file")
    for record in records:
        if record["missing"]:
            raise BenchError(f"layer functions not found, trace incomplete: {record['missing']}")
    # Besides the CLI and its workers, multiprocessing's resource tracker
    # writes a trace file too; it runs no repro code.
    workers = [record for record in records if "parallel.worker" in record["spans"]]
    if len(workers) != sample["workers"]:
        raise BenchError(f"expected {sample['workers']} traced workers, found {len(workers)}")

    def span(name, field, pool=records):
        return sum(record["spans"].get(name, (0, 0.0, 0.0))[field] for record in pool)

    def counter(name):
        return sum(record["counters"].get(name, 0) for record in records)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    metrics = {"import.s": span("import", 2)}
    for name in EXPERIMENTS:
        metrics[f"experiments.{name}.s"] = span(f"experiments.{name}", 1)
    for name in TIMED_LAYERS:
        metrics[f"{name}.calls"] = span(name, 0)
        metrics[f"{name}.s"] = span(name, 2)
    svd_calls = span("engine.cache.svd", 0)
    store_hits = counter("engine.cache.svd.store_hits")
    metrics["engine.cache.svd.calls"] = svd_calls
    metrics["engine.cache.svd.hit_ratio"] = ratio(
        counter("engine.cache.svd.memory_hits") + store_hits, svd_calls
    )
    metrics["engine.cache.svd.store_hits"] = store_hits
    loaded = counter("engine.sweep.cells_loaded")
    metrics["engine.sweep.cells_computed"] = counter("engine.sweep.cells_computed")
    metrics["engine.sweep.cells_loaded"] = loaded
    metrics["engine.sweep.cell_hit_ratio"] = ratio(loaded, counter("engine.sweep.load_calls"))
    for op in ("get", "put"):
        metrics[f"store.{op}.calls"] = span(f"store.{op}", 0)
        metrics[f"store.{op}.s"] = span(f"store.{op}", 2)
        metrics[f"store.{op}.bytes"] = counter(f"store.{op}.bytes")
    cells_phase = span("parallel.cells_phase", 1)
    busy = sum(span(f"experiments.{name}", 1, workers) for name in EXPERIMENTS)
    metrics["parallel.cells_phase.s"] = cells_phase
    metrics["parallel.assembly.s"] = span("parallel.run", 1) - cells_phase
    metrics["parallel.worker_busy.s"] = busy
    metrics["parallel.worker_idle.s"] = span("parallel.worker", 1, workers) - busy
    for name in ("shards_stolen", "shards_abandoned", "lost_races", "svd_refills"):
        metrics[f"parallel.{name}"] = counter(f"parallel.{name}")
    for name in ("claim.calls", "claim.failed", "beat.calls"):
        metrics[f"store.leases.{name}"] = counter(f"store.leases.{name}")
    metrics["other.s"] = sample["wall_s"] - parents[0]["covered_s"]
    return metrics, {
        "per_pid": {
            record["pid"]: {"argv": record["argv"], "spans": record["spans"]} for record in records
        },
        "worker_stats": parents[0]["worker_stats"],
    }


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in declared["per_layer" if trace else "end_to_end"]}


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
class Bench:
    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.work = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.attempted = 0
        self.failures = []
        self.reference = None
        self.warm_store = None

    def cli(self, repro_args, label, trace_dir=None):
        return run_cli(repro_args, self.deadline, self.work / f"{label}.log", trace_dir)

    def set_up(self, index):
        """A serial cold ``report``: the reference bytes and, for
        ``report_warm``, the store its measured runs read."""
        store = self.work / f"store-seed{self.seed}-setup{index}" if self.spec["store"] == "setup" else None
        out = self.work / f"setup{index}.json"
        store_args = ["--store", str(store)] if store else []
        sample = self.cli([*store_args, "report", "--json", str(out)], f"setup{index}")
        if sample["returncode"] != 0 or not out.exists():
            raise BenchError(f"set-up report failed: {sample['log'].strip()[-300:]}")
        reference = out.read_bytes()
        if self.reference is None:
            mismatches = golden_mismatches(reference)
            if mismatches:
                raise BenchError(f"reference differs from the golden snapshot: {mismatches[:5]}")
            self.reference = reference
        elif reference != self.reference:
            raise BenchError("set-up reports are not byte-identical")
        return sample["wall_s"], store

    def measure_once(self, index, trace_dir=None):
        """One measured CLI run of the workload, checked against the reference."""
        label = f"{'traced' if trace_dir else 'run'}{index}"
        out = self.work / f"{label}.json"
        store = None
        if self.spec["store"] == "setup":
            store = self.warm_store
        elif self.spec["store"] == "fresh":
            store = self.work / f"store-seed{self.seed}-{label}"
        before = tree_bytes(store)
        workers = self.spec["workers"]
        repro_args = (["--store", str(store)] if store else []) + ["report"]
        repro_args += ["--workers", str(workers)] if workers else []
        sample = self.cli(repro_args + ["--json", str(out)], label, trace_dir)
        sample["workers"] = workers
        store_growth = tree_bytes(store) - before
        sample["store_written_mb"] = store_growth / 1e6
        sample["written_mb"] = ((out.stat().st_size if out.exists() else 0) + store_growth) / 1e6
        problem = verdict(sample, self.reference, out)
        self.attempted += 1
        if problem:
            self.failures.append(f"{label}: {problem}")
        sample.pop("log")
        if self.spec["store"] == "fresh":
            shutil.rmtree(store, ignore_errors=True)
        return sample

    def run(self):
        self.work.mkdir(parents=True)
        setups = []
        for index in range(1 if self.trace else SETUP_REPEATS):
            wall, store = self.set_up(index)
            setups.append(wall)
            if self.warm_store is not None:
                shutil.rmtree(self.warm_store)
            self.warm_store = store
        return self.traced(setups) if self.trace else self.measured(setups)

    def measured(self, setups):
        samples, end = [], time.perf_counter() + self.seconds
        while not samples or time.perf_counter() < end:
            samples.append(self.measure_once(len(samples)))
        walls = sorted(sample["wall_s"] for sample in samples)
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(sample["peak_rss_mb"] for sample in samples),
            "written_mb": statistics.median(sample["written_mb"] for sample in samples),
        }
        return metrics, {
            "setups_s": setups,
            "samples": samples,
            "wall_tail": tail_percentile(walls),
            "store_written_mb": statistics.median(s["store_written_mb"] for s in samples),
        }

    def traced(self, setups):
        """Untraced and traced runs in pairs, in an order drawn from the seed."""
        order = random.Random(self.seed)
        untraced, traced, layers, extra = [], [], [], []
        end = time.perf_counter() + self.seconds
        while not traced or time.perf_counter() < end:
            index = len(traced)
            trace_dir = self.work / f"trace{index}"
            trace_dir.mkdir()
            for tracing in sorted((False, True), key=lambda _: order.random()):
                if tracing:
                    sample = self.measure_once(index, trace_dir)
                    traced.append(sample)
                    metrics, detail = layer_metrics(trace_dir, sample)
                    layers.append(metrics)
                    extra.append(detail)
                else:
                    untraced.append(self.measure_once(index))
        traced_wall = statistics.median(sample["wall_s"] for sample in traced)
        metrics = {name: statistics.median(run[name] for run in layers) for name in layers[0]}
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(s["wall_s"] for s in untraced)
        return metrics, {"setups_s": setups, "untraced": untraced, "traced": traced, "layers": extra}


def tail_percentile(walls):
    """The highest percentile with at least ten samples beyond it: the
    eleventh-slowest of the sorted ``walls``, when there are eleven."""
    count = len(walls)
    if count < 11:
        return {"samples": count, "percentile": None, "value_s": None}
    return {"samples": count, "percentile": 100 * (count - 11) // (count - 1), "value_s": walls[-11]}


def print_summary(bench, metrics, units, detail, host):
    print(f"host {json.dumps(host, sort_keys=True)}")
    print(f"workload {bench.workload} seed {bench.seed} trace {int(bench.trace)}")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    if not bench.trace:
        tail = detail["wall_tail"]
        if tail["percentile"] is None:
            print(f"  wall tail: {tail['samples']} samples, too few for ten beyond any percentile")
        else:
            print(f"  wall p{tail['percentile']}: {tail['value_s']:.4f} s over {tail['samples']} samples")
        print(f"  {'store_written_mb':<48} {detail['store_written_mb']:>14.6g} MB")
    print(f"  {'failed_ratio':<48} {detail['failed_ratio']:>14.6g} ratio "
          f"({len(bench.failures)} of {bench.attempted})")
    for failure in bench.failures:
        print(f"  FAILED {failure}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not GOLDEN.is_file():
        print(f"error: {SRC / 'repro'} and {GOLDEN} are required; run from a checkout", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        host = host_facts()
        metrics, detail = bench.run()
        units = declared_units(bench.trace)
        if set(metrics) != set(units):
            raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    detail["failed_ratio"] = len(bench.failures) / bench.attempted
    record = {
        "workload": bench.workload,
        "seed": bench.seed,
        "seconds": bench.seconds,
        "trace": bench.trace,
        "host": host,
        "metrics": metrics,
        "failures": bench.failures,
        **detail,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{bench.workload}-seed{bench.seed}-trace{int(bench.trace)}.json"
    (results / name).write_text(json.dumps(record, indent=2, default=str), encoding="utf-8")
    print_summary(bench, metrics, units, detail, host)
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
