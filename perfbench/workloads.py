"""The four benchmark workloads, each run once through a public entry point.

Each workload function takes an :class:`Outcome`, the benchmark seed
(the simulation seed of every cell) and a fresh temporary directory for
anything it writes.  It does its set-up, then returns the callable whose
run is the timed window.  The run fills the outcome: the ops it attempted
(a cell, or a submit for ``serve_mixed``), their latencies, and each
cell's exact simulated values for the output check.  Sizes are chosen
for a 2-vCPU host: one repetition takes a few seconds.
"""

from __future__ import annotations

import os
import select
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

NAMES = ("fig8_detail", "explore_mechanisms", "verified_campaign",
         "serve_mixed")

#: fig8_detail: long detailed windows, short functional warmup.
FIG8 = dict(instructions=12_000, warmup=5_000, detailed_warmup=1_500)
#: explore_mechanisms: the CI-sized mechanisms exploration.
EXPLORE = dict(rungs=2, base_instructions=500, growth=3, warmup=10_000,
               detailed_warmup=200)
EXPLORE_WORKLOADS = ("int_test",)
EXPLORE_JOBS = 2
#: verified_campaign: every cell under the golden model and checkers.
VERIFIED = dict(instructions=4_000, warmup=5_000, detailed_warmup=500)
#: serve_mixed: 12 unique cells, two closed-loop clients.
SERVE = dict(instructions=2_000, warmup=5_000, detailed_warmup=500)
SERVE_WORKLOADS = ("swim", "compress", "go", "gcc")
SERVE_WORKERS = 2  # the server default: cells run inline on 2 threads

#: the backend whose first build counts as set-up, per workload
BACKEND = {
    "fig8_detail": "reference",
    "explore_mechanisms": "optimized",
    "verified_campaign": "reference",
    "serve_mixed": "reference",
}


#: the exact simulated values of a cell, in :func:`cell_values` order
CELL_FIELDS = ("cycles", "retired", "reissues", "operand_misses",
               "port_stalls", "operand_reads", "ipc")


def cell_values(result) -> List[Any]:
    """The exact simulated integers of one result, then its IPC."""
    stats = result.stats
    return [stats.cycles, stats.retired, stats.total_reissues,
            stats.operand_miss_events, stats.port_stalls,
            stats.total_operand_reads, result.ipc]


@dataclass
class Op:
    """One attempted operation."""

    name: str
    ms: float
    ok: bool
    #: answered by a fresh simulation (False: a cache read)
    fresh: bool = True
    #: phase of a serve_mixed submit: "first" or "resubmit"
    phase: str = ""
    sheds: int = 0
    reconnects: int = 0


@dataclass
class Outcome:
    ops: List[Op] = field(default_factory=list)
    #: cell id -> cell_values (first seen); conflicts are recorded apart
    cells: Dict[str, List[Any]] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)
    #: cells executed, for sim_kips and the generator estimate
    executed: List[Tuple[str, Any, Any]] = field(default_factory=list)

    def record(self, cell_id: str, values: List[Any]) -> None:
        seen = self.cells.setdefault(cell_id, values)
        if seen != values:
            self.mismatches.append(f"{cell_id}: {values} != {seen}")


# --------------------------------------------------------------------------
# campaigns and exploration: the op boundary is harness.run_cell
# --------------------------------------------------------------------------

def _probe_run_cell(outcome: Outcome, name_of: Callable) -> Callable:
    """Time every ``run_cell`` call in this process and keep its result."""
    from instrument import replace_everywhere
    from repro.harness import executor

    original = executor.run_cell
    lock = threading.Lock()

    def probed(cell, *args, **kwargs):
        start = time.perf_counter()
        result = original(cell, *args, **kwargs)
        ms = (time.perf_counter() - start) * 1e3
        with lock:
            outcome.ops.append(Op(cell.label, ms, result.ok,
                                  fresh=not result.cached))
            if result.ok:
                outcome.record(name_of(cell), cell_values(result.result))
                if not result.cached:
                    outcome.executed.append(
                        (cell.workload, cell.config, cell.settings))
        return result

    replace_everywhere(original, probed)
    return probed


def _campaign(outcome: Outcome, pairs, settings,
              harness) -> Callable[[], None]:
    from repro.experiments import runner

    _probe_run_cell(
        outcome, lambda cell: f"{cell.workload}/{cell.config.label}")

    def run() -> None:
        runner.run_campaign(pairs, settings, harness)
    return run


def fig8_detail(outcome: Outcome, seed: int, tmp: str) -> Callable[[], None]:
    from repro import CoreConfig
    from repro.experiments.runner import ExperimentSettings
    from repro.harness import HarnessSettings

    pairs = [(w, c) for w in ("swim", "compress")
             for c in (CoreConfig.base(7), CoreConfig.with_dra(7))]
    settings = ExperimentSettings(seeds=(seed,), backend="reference", **FIG8)
    return _campaign(outcome, pairs, settings,
                     HarnessSettings(jobs=1, isolate="inline"))


def verified_campaign(outcome: Outcome, seed: int, tmp: str,
                      verify: bool = True) -> Callable[[], None]:
    from repro import CoreConfig
    from repro.experiments.runner import ExperimentSettings
    from repro.harness import HarnessSettings

    pairs = [("swim", CoreConfig.with_dra(7)),
             ("compress@bursty", CoreConfig.with_dra(5)),
             ("go+su2cor", CoreConfig.base(5))]
    settings = ExperimentSettings(seeds=(seed,), backend="reference",
                                  **VERIFIED)
    return _campaign(outcome, pairs, settings,
                     HarnessSettings(jobs=1, isolate="inline", verify=verify))


def explore_mechanisms(outcome: Outcome, seed: int,
                       tmp: str) -> Callable[[], None]:
    from repro.explore import HalvingSettings, engine, mechanisms_space
    from repro.harness import HarnessSettings

    space = mechanisms_space()
    labels = {c.config: c.label for c in space.grid()}
    halving = HalvingSettings(seeds=(seed,), backend="optimized", **EXPLORE)
    harness = HarnessSettings(jobs=EXPLORE_JOBS,
                              cache_dir=os.path.join(tmp, "cache"))

    _probe_run_cell(outcome, lambda cell: (
        f"{labels[cell.config]}/{cell.workload}"
        f"/i{cell.settings.instructions}"))

    def run() -> None:
        result = engine.run_exploration(
            space, workloads=EXPLORE_WORKLOADS, halving=halving,
            harness=harness, prune=True,
            store_dir=os.path.join(tmp, "store"),
        )
        outcome.extra.update(
            frontier=sorted(p.label for p in result.frontier.frontier),
            ordering_ok=result.ordering_ok(),
            spent=result.spent_instructions,
            exhaustive=result.exhaustive_instructions,
            failures=len(result.search.failures),
        )
    return run


# --------------------------------------------------------------------------
# serve_mixed: a real `loopsim serve` subprocess and two clients
# --------------------------------------------------------------------------

def serve_cells(seed: int) -> List[Dict[str, Any]]:
    """The 12 unique cell specs, in client A's order."""
    from repro.serve.protocol import make_cell_spec

    configs = [dict(dra=False, rf=5), dict(dra=True, rf=5),
               dict(dra=True, rf=7)]
    return [make_cell_spec(w, seed=seed, backend="reference", **c, **SERVE)
            for w in SERVE_WORKLOADS for c in configs]


def spec_id(spec: Dict[str, Any]) -> str:
    from repro.serve.protocol import build_cell

    cell = build_cell(spec)
    return f"{cell.workload}/{cell.config.label}"


class Server:
    """A served subprocess: spawned, awaited until listening, drained
    and reaped on every exit path (use as a context manager)."""

    def __init__(self, argv: List[str], env: Dict[str, str], log: str,
                 timeout: float = 60.0):
        self.argv, self.env, self.log_path = argv, env, log
        self.timeout = timeout
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.setup_s = 0.0

    def __enter__(self) -> "Server":
        self._log = open(self.log_path, "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, env=self.env, stdout=subprocess.PIPE,
            stderr=self._log,
        )
        deadline = start + self.timeout
        line = b""
        while b"listening on" not in line:
            left = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(left, 0))
            if not ready:
                raise RuntimeError("server did not start listening")
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server exited before listening")
        self.setup_s = time.perf_counter() - start
        self.port = int(line.strip().rsplit(b":", 1)[1])
        return self

    def drain(self) -> None:
        from repro.serve import CampaignClient, ServiceError

        try:
            with CampaignClient(port=self.port, timeout=30.0) as client:
                client.drain()
        except ServiceError:
            pass  # the connection dies with the draining server
        self.proc.wait(timeout=60)

    def __exit__(self, *exc) -> None:
        try:
            if self.proc.poll() is None:
                try:
                    self.drain()
                except Exception:
                    self.proc.terminate()
                    try:
                        self.proc.wait(timeout=10)
                    except subprocess.TimeoutExpired:
                        self.proc.kill()
                        self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._log.close()


def serve_mixed(outcome: Outcome, seed: int, port: int,
                wrap_submit: Optional[Callable] = None) -> Callable[[], None]:
    """Two clients against the server listening on ``port``."""
    from repro.serve.protocol import build_cell

    specs = serve_cells(seed)
    ids = [spec_id(spec) for spec in specs]

    lock = threading.Lock()

    def client(order: List[int]) -> None:
        from repro.serve import CampaignClient

        with CampaignClient(port=port, timeout=120.0) as conn:
            submit = conn.submit_spec
            if wrap_submit is not None:
                submit = wrap_submit(submit)
            for phase in ("first", "resubmit"):
                for index in order:
                    start = time.perf_counter()
                    try:
                        reply = submit(specs[index])
                    except Exception as error:  # counted as a failed op
                        reply = None
                        failure = repr(error)
                    ms = (time.perf_counter() - start) * 1e3
                    with lock:
                        if reply is None:
                            outcome.ops.append(Op(ids[index], ms, False,
                                                  phase=phase))
                            outcome.mismatches.append(
                                f"{ids[index]}: submit failed: {failure}")
                            continue
                        ok = reply.ok and reply.result is not None
                        outcome.ops.append(Op(
                            ids[index], ms, ok, fresh=not reply.cached,
                            phase=phase, sheds=reply.sheds,
                            reconnects=reply.reconnects))
                        if ok:
                            values = cell_values(reply.result)
                            outcome.record(ids[index], values)
                            if reply.ipc != values[-1]:
                                outcome.mismatches.append(
                                    f"{ids[index]}: reply ipc {reply.ipc} "
                                    f"!= result ipc {values[-1]}")

    def run() -> None:
        order = list(range(len(specs)))
        threads = [threading.Thread(target=client, args=(o,))
                   for o in (order, order[::-1])]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    for spec in specs:  # every unique cell runs once on the server
        cell = build_cell(spec)
        outcome.executed.append((cell.workload, cell.config, cell.settings))
    return run
