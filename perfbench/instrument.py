"""Wrap the public functions of each simulator layer in timing spans.

Nothing under ``src/`` changes: :func:`install` replaces functions and
methods at run time, in this process only.  A function imported by name
into other modules (``from repro.harness import run_cell``) is replaced
in every ``repro.*`` module that holds it, so each call site is timed.

Forked harness workers inherit the wrappers.  The wrapped worker entry
point writes the spans recorded in the worker to ``<spool>/w<pid>-<n>
.json`` just before the worker exits; the parent joins the worker
before it returns, so the file is complete by the time the window
closes and :func:`collect` reads every spool file back.
:func:`missing_worker_spans` checks that every isolated cell's worker
spans did arrive.
"""

from __future__ import annotations

import functools
import glob
import itertools
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import Record, Tracer, load_spool

Info = Optional[Callable[[tuple, dict, Any], Dict[str, Any]]]


def _warmup_info(args, kwargs, result):
    sim, ops = args[0], args[1] if len(args) > 1 else kwargs["ops_per_thread"]
    return {"ops": ops * len(sim.threads)}


def _run_info(args, kwargs, stats):
    return {
        "cycles": stats.cycles,
        "retired": stats.retired,
        "fetched": sum(thread.fetched for thread in stats.threads),
    }


def _cell_info(args, kwargs, outcome):
    return {
        "ok": outcome.ok,
        "cached": outcome.cached,
        "attempts": outcome.attempts,
    }


def _get_info(args, kwargs, result):
    return {"hit": result is not None}


#: (module, attribute path, layer, info) for every wrapped callable.
TARGETS: List[Tuple[str, str, str, Info]] = [
    ("repro.experiments.runner", "run_campaign", "experiments", None),
    ("repro.harness.executor", "execute_cells", "harness.execute", None),
    ("repro.harness.executor", "run_cell", "harness.run_cell", _cell_info),
    ("repro.harness.executor", "_run_isolated", "harness.isolation", None),
    ("repro.harness.cache", "ResultCache.get", "harness.cache.get", _get_info),
    ("repro.harness.cache", "ResultCache.put", "harness.cache.put", None),
    ("repro.harness.cache", "ResultCache.put_metrics", "harness.cache.put",
     None),
    ("repro.obs.export", "result_snapshot", "obs.snapshot", None),
    ("repro.core.simulator", "simulate", "core.simulate", None),
    ("repro.core.backend", "ReferenceBackend.build", "core.build", None),
    ("repro.core.backend", "OptimizedBackend.build", "core.build", None),
    ("repro.core.pipeline", "Simulator.functional_warmup", "warmup",
     _warmup_info),
    ("repro.core.backend", "KernelBackend.run", "core.run", _run_info),
    ("repro.verify.runner", "Verifier.attach", "verify.attach", None),
    ("repro.verify.runner", "Verifier.finish", "verify.finish", None),
    ("repro.explore.engine", "run_exploration", "explore", None),
    ("repro.explore.scheduler", "run_search", "explore.search", None),
    ("repro.explore.prune", "AnalyticalPruner.filter", "explore.prune", None),
    ("repro.explore.prune", "AnalyticalPruner.record", "explore.prune", None),
    ("repro.explore.store", "ExplorationStore.append", "explore.store", None),
    ("repro.explore.store", "ExplorationStore.latest", "explore.store", None),
    ("repro.explore.store", "ExplorationStore.frontier_series",
     "explore.store", None),
    ("repro.serve.journal", "Journal.append", "serve.journal", None),
    ("repro.serve.protocol", "build_cell", "serve.protocol", None),
    ("repro.serve.protocol", "result_to_wire", "serve.protocol", None),
    ("repro.serve.protocol", "encode", "serve.protocol", None),
    ("repro.serve.protocol", "decode", "serve.protocol", None),
]


def wrap(fn: Callable, tracer: Tracer, layer: str, info: Info = None,
         wait: bool = False) -> Callable:
    """``fn`` inside a span of ``layer``."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = tracer.begin(layer, wait)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(token)
            raise
        tracer.end(token, info(args, kwargs, result) if info else None)
        return result

    return traced


def replace_everywhere(original: Callable, replacement: Callable) -> None:
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


#: Modules that import a target by name; loaded before wrapping so the
#: replacement reaches their copy too.
HOLDERS = ("repro", "repro.harness", "repro.experiments", "repro.explore",
           "repro.verify", "repro.serve.server")


def install(tracer: Tracer, spool: Optional[str] = None) -> None:
    """Wrap every target; forked workers spool their spans to ``spool``."""
    import importlib

    for module_name in HOLDERS:
        importlib.import_module(module_name)
    for module_name, path, layer, info in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = vars(owner)[attr]
        replacement = wrap(original, tracer, layer, info)
        if owner_name:
            setattr(owner, attr, replacement)
        else:
            replace_everywhere(original, replacement)
    if spool is not None:
        _install_worker_spool(tracer, spool)


def _install_worker_spool(tracer: Tracer, spool: str) -> None:
    from repro.harness import executor

    original = executor._worker_main
    sequence = itertools.count()

    @functools.wraps(original)
    def worker_main(*args, **kwargs):
        # runs in the forked worker: keep only the spans made here
        mark = len(tracer.records)
        token = tracer.begin("harness.isolation")
        try:
            original(*args, **kwargs)
        finally:
            tracer.end(token, {"worker": True})
            path = os.path.join(
                spool, f"w{os.getpid()}-{next(sequence)}.json"
            )
            tracer.dump(path, tracer.records[mark:])

    executor._worker_main = worker_main


def missing_worker_spans(records: List[Record], pid: int) -> List[str]:
    """One line for each parent-side ``harness.isolation`` span (made in
    process ``pid``) that does not have exactly one worker-side span
    under it.  A worker whose spool file never reached the trace (killed,
    crashed, a missed dump) would otherwise hand its whole run to the
    parent-side span and inflate ``harness.isolation.s`` unseen."""
    workers: Dict[Any, int] = {}
    for rec in records:
        if rec[2] == "harness.isolation" and rec[6] and rec[6].get("worker"):
            workers[rec[1]] = workers.get(rec[1], 0) + 1
    problems = []
    for rec in records:
        if (rec[2] == "harness.isolation" and rec[0][0] == pid
                and not (rec[6] and rec[6].get("worker"))):
            found = workers.get(rec[0], 0)
            if found != 1:
                problems.append(
                    f"isolated cell span {rec[0]} has {found} worker spans "
                    "in the trace, not 1")
    return problems


def collect(tracer: Tracer, spool: Optional[str]) -> Tuple[List[Record],
                                                            Dict[str, Any]]:
    """This process's spans plus every spooled worker or server span."""
    records = list(tracer.records)
    meta: Dict[str, Any] = {}
    if spool is not None:
        for path in sorted(glob.glob(os.path.join(spool, "*.json"))):
            more, extra = load_spool(path)
            records.extend(more)
            meta.update(extra)
    return records, meta
