"""Experiment layer: sweep registry and the one sweep driver.

Every paper artefact (Table I, Figs. 6–9, robustness, layer families) is a
sweep over a grid of cells.  Its harness registers an :class:`ExperimentSpec`
declaring that grid — the cell function, the cell's store key schema and a
plan that turns the domain parameters into sweep points plus an assembler —
and :meth:`ExperimentSpec.run` executes it, the same way for every
experiment: serially, incrementally against a store, as one shard of a wider
partition, or across worker processes (:mod:`repro.parallel`).
:func:`run_experiments` runs any subset of the registry and
:func:`to_jsonable` turns any result dataclass tree into machine-readable
JSON for the report emitter.

With a :class:`SweepCache` (an :class:`repro.store.ExperimentStore` plus the
cell key schema of one sweep), :func:`map_sweep` becomes *incremental*: each
grid cell is fingerprinted, cells already materialized in the store are
decoded instead of recomputed, and fresh results are persisted as they
complete — so an interrupted run resumes where it stopped.  A shard spec
``(k, n)`` restricts execution to the cells a shard owns (ownership is a pure
function of the fingerprint, so any number of processes partition a sweep
without coordinating beyond the shared store).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..backend import using_backend
from ..store import ExperimentStore, decode, encode, experiment_fingerprint

__all__ = [
    "ExperimentSpec",
    "register_experiment",
    "experiment_registry",
    "SweepCache",
    "ShardStats",
    "parse_shard",
    "shard_owns",
    "map_sweep",
    "run_experiments",
    "to_jsonable",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered paper artefact: its grid, how to format and serialize it.

    The cell schema is what the store keys and decodes one grid cell with:
    ``kind`` names the artifact family (e.g. ``table1/row``), ``cell(*point)``
    computes the cell of one sweep point, ``cell_config(*point)`` is its
    canonical configuration and ``result_type`` the type its stored payload
    decodes back into.  ``plan(**params)`` validates the harness's domain
    parameters (raising on bad ones) and returns ``(points, assemble)``: the
    grid's sweep points and the function that turns their cell results, in
    order, into the experiment's result.  ``formatter`` renders a result to
    the plain-text report block (``formatter(result, include_plots=False)``);
    ``serializer`` converts a result to a JSON-able structure (defaults to
    :func:`to_jsonable`).
    """

    name: str
    title: str
    kind: str
    cell: Callable[..., Any]
    cell_config: Callable[..., Mapping[str, Any]]
    result_type: Any
    plan: Callable[..., Tuple[Sequence[Any], Callable[[List[Any]], Any]]]
    formatter: Callable[..., str]
    serializer: Optional[Callable[[Any], Any]] = None

    def run(
        self,
        *,
        store: Optional[ExperimentStore] = None,
        shard: Optional[Tuple[int, int]] = None,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        lease_ttl: Optional[float] = None,
        **params: Any,
    ) -> Any:
        """Execute the experiment's grid; the one sweep driver of every harness.

        ``params`` are the harness's domain parameters (validated by
        ``plan`` before anything runs).  With ``store`` the sweep is
        incremental: cells already materialized are decoded, fresh ones
        persisted.  With ``shard=(k, n)`` (requires ``store``) only the cells
        shard ``k`` owns are computed and a :class:`ShardStats` summary is
        returned instead of the result.  ``backend`` scopes the execution
        backend of the sweep (store fingerprint salting included); ``None``
        keeps the active default.  ``workers > 1`` (default
        ``$REPRO_WORKERS``, else 1) computes the cells in worker processes
        with store-shard work stealing (:mod:`repro.parallel`), ``lease_ttl``
        overriding the shard-lease TTL of such a run (an explicit value beats
        ``$REPRO_LEASE_TTL``).
        """
        points, assemble = self.plan(**params)
        if shard is None:
            from ..parallel import resolve_workers, run_experiments_parallel

            count = resolve_workers(workers)
            if count > 1:
                results = run_experiments_parallel(
                    [self.name],
                    {self.name: params},
                    store=store,
                    workers=count,
                    backend=backend,
                    lease_ttl=lease_ttl,
                )
                return results[self.name]
        cache = (
            SweepCache(store, self.kind, self.cell_config, self.result_type)
            if store is not None
            else None
        )
        with using_backend(backend):
            cells = map_sweep(self.cell, points, cache=cache, shard=shard)
        return cells if shard is not None else assemble(cells)

    def format(self, result: Any, include_plots: bool = False) -> str:
        return self.formatter(result, include_plots=include_plots)

    def serialize(self, result: Any) -> Any:
        serializer = self.serializer if self.serializer is not None else to_jsonable
        return serializer(result)


#: Registration order doubles as report order.
_REGISTRY: Dict[str, ExperimentSpec] = {}


def register_experiment(spec: ExperimentSpec) -> ExperimentSpec:
    """Add (or replace) an experiment in the registry; returns the spec."""
    _REGISTRY[spec.name] = spec
    return spec


def experiment_registry() -> Dict[str, ExperimentSpec]:
    """The registered experiments, in registration (= report) order.

    Importing :mod:`repro.experiments` populates the registry; callers that
    want the standard paper artefacts should import that package first (the
    experiment modules self-register at import time).
    """
    return dict(_REGISTRY)


class SweepCache:
    """Binds one sweep's cell key schema to an :class:`~repro.store.ExperimentStore`.

    ``kind`` names the artifact family (e.g. ``table1/row``), ``config_fn``
    maps a sweep point's positional arguments to the canonical configuration
    mapping that fingerprints the cell, and ``result_type`` is the annotated
    type the stored payload decodes back into (a dataclass, or a typing
    generic like ``List[RobustnessPoint]``).
    """

    _MISS = object()

    def __init__(
        self,
        store: ExperimentStore,
        kind: str,
        config_fn: Callable[..., Mapping[str, Any]],
        result_type: Any,
    ) -> None:
        self.store = store
        self.kind = kind
        self.config_fn = config_fn
        self.result_type = result_type
        self.hits = 0
        self.computed = 0

    def fingerprint(self, args: Tuple[Any, ...]) -> str:
        return experiment_fingerprint(self.kind, self.config_fn(*args))

    def load(self, fingerprint: str) -> Any:
        """The decoded cell result, or :data:`SweepCache._MISS`.

        A checksum-valid artifact whose payload no longer matches the current
        result dataclass (a structural change shipped without a salt bump) is
        dropped and treated as a miss — never served, never a crash.
        """
        payload = self.store.get(self.kind, fingerprint)
        if payload is None:
            return self._MISS
        try:
            result = decode(self.result_type, payload)
        except (TypeError, KeyError, ValueError, AttributeError):
            self.store.drop(self.kind, fingerprint)
            return self._MISS
        self.hits += 1
        return result

    def save(self, fingerprint: str, result: Any) -> None:
        """Persist a computed cell; a NaN/inf anywhere in it raises instead."""
        payload = encode(result)
        where = _non_finite(payload, "result")
        if where is not None:
            raise ValueError(
                f"refusing to store a non-finite {self.kind} cell {fingerprint}: {where}"
            )
        self.computed += 1
        self.store.put(self.kind, fingerprint, payload)


def _non_finite(value: Any, path: str) -> Optional[str]:
    """``"<path> = <value>"`` of the first NaN/inf float in an encoded payload."""
    if isinstance(value, float):
        return None if math.isfinite(value) else f"{path} = {value}"
    if isinstance(value, dict):
        items = ((f"{path}.{key}", item) for key, item in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{index}]", item) for index, item in enumerate(value))
    else:
        return None
    for item_path, item in items:
        where = _non_finite(item, item_path)
        if where is not None:
            return where
    return None


@dataclass
class ShardStats:
    """What one shard of a sweep did (returned instead of an assembled result)."""

    kind: str
    shard: Tuple[int, int]
    total_cells: int = 0
    computed: int = 0
    resumed: int = 0
    foreign: int = 0

    @property
    def owned(self) -> int:
        return self.computed + self.resumed


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a ``K/N`` shard spec into ``(k, n)`` with ``1 <= k <= n``."""
    try:
        k_text, n_text = text.split("/", 1)
        k, n = int(k_text), int(n_text)
    except ValueError as error:
        raise ValueError(f"shard spec must look like K/N, got {text!r}") from error
    if not 1 <= k <= n:
        raise ValueError(f"shard index must satisfy 1 <= K <= N, got {text!r}")
    return k, n


def shard_owns(fingerprint: str, k: int, n: int) -> bool:
    """Whether shard ``k`` of ``n`` owns a cell — a pure function of its key.

    Ownership hashes the fingerprint, not the enumeration index, so it is
    stable across processes and across sweeps enumerated in different orders
    or restricted to different subsets.
    """
    return int(fingerprint[:8], 16) % n == k - 1


def map_sweep(
    fn: Callable[..., Any],
    points: Sequence[Any],
    cache: Optional[SweepCache] = None,
    shard: Optional[Tuple[int, int]] = None,
) -> Any:
    """Apply ``fn`` to every sweep point, in order.

    Sweep points are tuples of positional arguments (bare values are treated
    as 1-tuples).  Results keep the order of ``points``.

    With ``cache`` the sweep is incremental: cells whose fingerprint is
    already materialized in the store are decoded instead of recomputed, and
    every fresh result is persisted the moment it completes.  With ``shard``
    (requires ``cache``) only the cells the shard owns are computed — nothing
    is assembled — and a :class:`ShardStats` summary is returned instead of
    the result list; cells the store already holds are skipped, which is what
    makes an interrupted sharded run resumable.
    """
    args_list: List[Tuple[Any, ...]] = [
        point if isinstance(point, tuple) else (point,) for point in points
    ]
    if cache is None:
        if shard is not None:
            raise ValueError("sharded execution requires a sweep cache (a store)")
        return [fn(*args) for args in args_list]

    fingerprints = [cache.fingerprint(args) for args in args_list]
    if shard is not None:
        k, n = shard
        stats = ShardStats(kind=cache.kind, shard=(k, n), total_cells=len(args_list))
        todo: List[Tuple[Tuple[Any, ...], str]] = []
        for args, fingerprint in zip(args_list, fingerprints):
            if not shard_owns(fingerprint, k, n):
                stats.foreign += 1
            elif cache.store.contains(cache.kind, fingerprint):
                stats.resumed += 1
            else:
                todo.append((args, fingerprint))
        for args, fingerprint in todo:
            cache.save(fingerprint, fn(*args))
        stats.computed = len(todo)
        return stats

    results = [cache.load(fingerprint) for fingerprint in fingerprints]
    for index, (args, fingerprint) in enumerate(zip(args_list, fingerprints)):
        if results[index] is SweepCache._MISS:
            results[index] = fn(*args)
            cache.save(fingerprint, results[index])
    return results


def run_experiments(
    names: Optional[Sequence[str]] = None,
    overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> Dict[str, Any]:
    """Execute registered experiments and return ``{name: result}``.

    ``overrides`` maps experiment names to keyword arguments of
    :meth:`ExperimentSpec.run` (e.g. ``{"fig6": {"array_sizes": (64, 128)}}``,
    a ``store`` or a ``shard``).  ``backend`` scopes the execution backend
    every experiment (and its fingerprint salting) runs under; ``None`` keeps
    the active default.

    ``workers`` (default: ``$REPRO_WORKERS``, else 1) scales the run across
    worker *processes*: the grids of all selected experiments are partitioned
    into fingerprint-hash shards, workers claim shards through store leases
    (:mod:`repro.parallel`), and the results are assembled from the shared
    store — byte-identical to a serial run.
    """
    registry = experiment_registry()
    if names is None:
        selected = list(registry)
    else:
        unknown = [name for name in names if name not in registry]
        if unknown:
            raise KeyError(f"unknown experiments {unknown}; registered: {sorted(registry)}")
        selected = list(names)
    overrides = overrides or {}

    from ..parallel import resolve_workers, run_experiments_parallel

    # An embedded shard means the caller is one shard of a wider partition
    # (``repro report --shard K/N``) — explicitly single-process work that a
    # global $REPRO_WORKERS must not re-partition.
    sharded = any(dict(overrides.get(name, {})).get("shard") for name in selected)
    if not sharded and resolve_workers(workers) > 1:
        return run_experiments_parallel(
            selected, overrides, workers=resolve_workers(workers), backend=backend
        )
    # The serial decision is made for the whole run: an experiment without an
    # explicit ``workers`` override must not re-read $REPRO_WORKERS.
    with using_backend(backend):
        return {
            name: registry[name].run(**{"workers": 1, **dict(overrides.get(name, {}))})
            for name in selected
        }


def to_jsonable(value: Any) -> Any:
    """Recursively convert dataclasses / numpy values to JSON-able structures.

    Dict keys become strings (JSON objects require it — Table I keys its cycle
    maps by integer array size), numpy scalars become Python scalars and
    numpy arrays become nested lists.  This is the same lowering the store
    persists artifacts with (:func:`repro.store.encode`), which is what makes
    a warm-store report byte-identical to a cold one.
    """
    return encode(value)
