"""Spans and counters around the public layer functions of ``repro``.

``install`` puts a finder first on ``sys.meta_path``.  It times the
execution of every ``repro`` module as an ``import`` span and, as soon as a
module has executed, wraps the layer functions it defines (``TARGETS``).
Wrapping happens before any other module can bind the names, so
``from .cache import matrix_fingerprint`` picks up the wrapped function.

A span records calls, inclusive seconds and self seconds (inclusive minus
the time of spans nested inside it).  At exit every process writes
``trace-<pid>.json`` into the trace directory; ``run.py`` merges the files.
Nothing here changes what a wrapped function receives or returns.
"""

import atexit
import dataclasses
import functools
import importlib.machinery
import json
import os
import sys
import threading
import time

_LOCK = threading.Lock()
_LOCAL = threading.local()
SPANS = {}  # name -> [calls, inclusive seconds, self seconds]
COUNTERS = {}
STATE = {"covered_s": 0.0, "missing": [], "worker_stats": []}


def count(name, amount=1):
    with _LOCK:
        COUNTERS[name] = COUNTERS.get(name, 0) + amount


def wrap(fn, name=None, before=None, after=None):
    """``fn`` with a span called ``name`` (a string, or a function of the
    call's positional arguments; ``None`` records no span).  ``before(*args)``
    runs first, ``after(result, token, *args)`` last, ``token`` being what
    ``before`` returned."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(*args) if before else None
        if name is None:
            result = fn(*args, **kwargs)
        else:
            label = name(*args) if callable(name) else name
            stack = getattr(_LOCAL, "stack", None)
            if stack is None:
                stack = _LOCAL.stack = []
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                with _LOCK:
                    record = SPANS.setdefault(label, [0, 0.0, 0.0])
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += elapsed - nested
                    if stack:
                        stack[-1] += elapsed
                    else:
                        STATE["covered_s"] += elapsed
        if after:
            after(result, token, *args)
        return result

    return wrapper


# ----------------------------------------------------------------------
# Observers: counters taken at the layer boundaries
# ----------------------------------------------------------------------
def _svd_counters(cache, *_):
    return cache.hits, cache.store_hits


def _svd_outcome(result, token, cache, *_):
    hits, store_hits = token
    if cache.hits > hits:
        count("engine.cache.svd.memory_hits")
    elif cache.store_hits > store_hits:
        count("engine.cache.svd.store_hits")


def _read_bytes(suffix):
    def after(result, _, store, kind, fingerprint, *rest):
        if result is not None:
            count("store.get.bytes", store.path_for(kind, fingerprint, suffix).stat().st_size)

    return after


def _written_bytes(path, *_):
    count("store.put.bytes", path.stat().st_size)


def _cell_loaded(result, _, cache, *rest):
    count("engine.sweep.load_calls")
    if result is not type(cache)._MISS:
        count("engine.sweep.cells_loaded")


def _cell_saved(*_):
    count("engine.sweep.cells_computed")


def _lease_claimed(claimed, *_):
    count("store.leases.claim.calls")
    if not claimed:
        count("store.leases.claim.failed")


def _lease_beat(*_):
    count("store.leases.beat.calls")


def _worker_stats(stats, *_):
    for worker in stats:
        count("parallel.shards_stolen", worker.stolen)
        count("parallel.shards_abandoned", worker.abandoned)
        count("parallel.lost_races", worker.lost_races)
        count("parallel.svd_refills", worker.svd_store_hits)
        STATE["worker_stats"].append(dataclasses.asdict(worker))


#: module -> [(qualified attribute, wrap() keyword arguments)]
TARGETS = {
    "repro.engine.sweep": [
        ("ExperimentSpec.run", {"name": lambda spec, *_: "experiments." + spec.name}),
        ("SweepCache.load", {"after": _cell_loaded}),
        ("SweepCache.save", {"after": _cell_saved}),
    ],
    "repro.engine.cache": [
        ("matrix_fingerprint", {"name": "engine.cache.fingerprint"}),
        (
            "DecompositionCache.svd",
            {"name": "engine.cache.svd", "before": _svd_counters, "after": _svd_outcome},
        ),
    ],
    "repro.backend.core": [
        ("Backend.svd", {"name": "backend.svd"}),
        ("Backend.tiled_mvm", {"name": "backend.tiled_mvm"}),
    ],
    "repro.imc.noise": [("NoiseModel.apply", {"name": "imc.noise.apply"})],
    "repro.engine.kernels": [
        ("BatchedTiledMatrix.__post_init__", {"name": "engine.kernels.program"}),
        ("MonteCarloTiledMatrix.__post_init__", {"name": "engine.kernels.program"}),
    ],
    "repro.mapping.cycles": [
        ("select_lowrank_window", {"name": "mapping.cycles.select_lowrank_window"}),
    ],
    "repro.training.proxy": [
        ("AccuracyProxy.mean_relative_error", {"name": "training.proxy.mean_relative_error"}),
    ],
    "repro.store.store": [
        ("ExperimentStore.get", {"name": "store.get", "after": _read_bytes(".json")}),
        ("ExperimentStore.get_arrays", {"name": "store.get", "after": _read_bytes(".npz")}),
        ("ExperimentStore.put", {"name": "store.put", "after": _written_bytes}),
        ("ExperimentStore.put_arrays", {"name": "store.put", "after": _written_bytes}),
    ],
    "repro.store.leases": [
        ("LeaseBoard.claim", {"after": _lease_claimed}),
        ("LeaseBoard.beat", {"after": _lease_beat}),
    ],
    "repro.parallel": [
        ("run_cells_parallel", {"name": "parallel.cells_phase", "after": _worker_stats}),
        ("run_experiments_parallel", {"name": "parallel.run"}),
        ("_worker_main", {"name": "parallel.worker"}),
    ],
}


def _patch(module):
    for qualname, options in TARGETS.get(module.__name__, ()):
        *owners, attribute = qualname.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part, None)
        original = getattr(owner, "__dict__", {}).get(attribute)
        if not callable(original):
            STATE["missing"].append(f"{module.__name__}.{qualname}")
            continue
        setattr(owner, attribute, wrap(original, **options))


class _Loader:
    """Delegates to the real loader; times ``exec_module`` and patches."""

    def __init__(self, inner):
        self._inner = inner
        self._exec = wrap(inner.exec_module, name="import")

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)

    def create_module(self, spec):
        return self._inner.create_module(spec)

    def exec_module(self, module):
        self._exec(module)
        _patch(module)


class _Finder:
    def find_spec(self, fullname, path=None, target=None):
        if fullname != "repro" and not fullname.startswith("repro."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None and spec.loader is not None:
            spec.loader = _Loader(spec.loader)
        return spec


def _dump(directory, started):
    record = {
        "pid": os.getpid(),
        "ppid": os.getppid(),
        "argv": sys.argv,
        "started": started,
        "ended": time.time(),
        "spans": SPANS,
        "counters": COUNTERS,
        **STATE,
    }
    path = os.path.join(directory, f"trace-{os.getpid()}.json")
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    os.replace(path + ".tmp", path)


def install(directory):
    sys.meta_path.insert(0, _Finder())
    atexit.register(_dump, directory, time.time())
