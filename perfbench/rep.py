"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --tmp DIR [--trace]
                             [--verify-off]

Run from the repository root with ``src`` on ``PYTHONPATH``; ``run.py``
does that.  Prints one JSON object: set-up and wall times, the ops and
their latencies, every cell's exact simulated integers, peak RSS, and
with ``--trace`` the per-layer breakdown of the timed window.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List, Optional

import instrument
import workloads as wl
from instrument import TARGETS
from spans import Tracer, attribute, busy, layer_sum_error

#: every layer that owns self time in the window (the ledger), in order
LEDGER = tuple(dict.fromkeys(target[2] for target in TARGETS)) + (
    "serve.client",)


def _setup(workload: str, seed: int) -> Dict[str, float]:
    """``import repro`` plus the first ``KernelBackend.build``."""
    start = time.perf_counter()
    import repro
    imported = time.perf_counter()
    from repro.core.backend import parse_backend
    from repro.workloads import workload_profiles

    parse_backend(wl.BACKEND[workload]).build(
        repro.CoreConfig.base(), workload_profiles("swim"), seed=seed)
    built = time.perf_counter()
    return {"setup_s": built - start, "import_s": imported - start,
            "setup_build_s": built - imported}


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def _generator_rate(executed) -> float:
    """Ops/s of each executed cell's own engines, timed alone."""
    from repro.core.backend import parse_backend
    from repro.workloads import workload_profiles

    seen = set()
    ops = 0
    seconds = 0.0
    for workload, config, settings in executed:
        key = (workload, settings.seeds[0], settings.backend)
        if key in seen:
            continue
        seen.add(key)
        sim = parse_backend(settings.backend).build(
            config, workload_profiles(workload), seed=settings.seeds[0])
        count = max(settings.warmup, 1000)
        for thread in sim.threads:
            next_op = thread.generator.next_op
            start = time.perf_counter()
            for _ in range(count):
                next_op()
            seconds += time.perf_counter() - start
            ops += count
    return ops / seconds if seconds else 0.0


def _layers(records, root, outcome: wl.Outcome, jobs: int,
            cache_dir: Optional[str]) -> Dict[str, Any]:
    self_s, unaccounted, wall = attribute(records, root)
    for layer in self_s:
        if layer not in LEDGER:
            raise RuntimeError(f"span layer {layer!r} is not in the ledger")
    ledger = {layer: self_s.get(layer, 0.0) for layer in LEDGER}
    inside = [r for r in records if r[3] >= root[3] and r[4] <= root[4]]
    run_busy, run_infos = busy(inside, "core.run")
    warm_busy, warm_infos = busy(inside, "warmup")
    run_infos = [i for i in run_infos if i]
    warm_infos = [i for i in warm_infos if i]
    cycles = sum(i["cycles"] for i in run_infos)
    retired = sum(i["retired"] for i in run_infos)
    fetched = sum(i["fetched"] for i in run_infos)
    warm_ops = sum(i["ops"] for i in warm_infos)
    gen_rate = _generator_rate(outcome.executed)
    cell_busy, cell_infos = busy(inside, "harness.run_cell")
    worker_busy = sum(r[4] - r[3] for r in inside if r[2] ==
                      "harness.isolation" and r[6] and r[6].get("worker"))
    if worker_busy:
        worker_busy /= 1e9
    else:
        worker_busy = sum(r[4] - r[3] for r in inside
                          if r[2] == "core.simulate") / 1e9
    _, gets = busy(inside, "harness.cache.get")
    gets = [g for g in gets if g]
    explore_busy, _ = busy(inside, "explore")
    execute_busy, _ = busy(inside, "harness.execute")

    def share(seconds: float) -> float:
        return seconds / wall if wall else 0.0

    metrics = {
        "core.build.s": ledger["core.build"],
        "warmup.s": ledger["warmup"],
        "warmup.share": share(ledger["warmup"]),
        "warmup.kops": warm_ops / warm_busy / 1e3 if warm_busy else 0.0,
        "workloads.gen_kops": gen_rate / 1e3,
        "workloads.gen_share_warmup":
            warm_ops / gen_rate / warm_busy if warm_busy and gen_rate else 0.0,
        "workloads.gen_share_run":
            fetched / gen_rate / run_busy if run_busy and gen_rate else 0.0,
        "core.run.s": ledger["core.run"],
        "core.run.share": share(ledger["core.run"]),
        "core.run.kips": retired / run_busy / 1e3 if run_busy else 0.0,
        "core.run.us_per_cycle": run_busy * 1e6 / cycles if cycles else 0.0,
        "core.simulate.s": ledger["core.simulate"],
        "verify.attach.s": ledger["verify.attach"],
        "verify.finish.s": ledger["verify.finish"],
        "harness.execute.s": ledger["harness.execute"],
        "harness.run_cell.s": ledger["harness.run_cell"],
        "harness.isolation.s": ledger["harness.isolation"],
        "harness.cache.get.s": ledger["harness.cache.get"],
        "harness.cache.put.s": ledger["harness.cache.put"],
        "harness.cache.bytes": _dir_bytes(cache_dir) if cache_dir else 0,
        "harness.cache.hit_ratio":
            sum(g["hit"] for g in gets) / len(gets) if gets else 0.0,
        "harness.retries": sum(max(i["attempts"] - 1, 0)
                               for i in cell_infos if i and not i["cached"]),
        "harness.parallel_eff": worker_busy / (wall * jobs) if wall else 0.0,
        "obs.snapshot.s": ledger["obs.snapshot"],
        "experiments.self.s": ledger["experiments"],
        "explore.prune.s": ledger["explore.prune"],
        "explore.search.s": ledger["explore.search"],
        "explore.store.s": ledger["explore.store"],
        "explore.self.s":
            max(explore_busy - execute_busy, 0.0) if explore_busy else 0.0,
        "serve.journal.s": ledger["serve.journal"],
        "serve.protocol.s": ledger["serve.protocol"],
        "serve.client.s": ledger["serve.client"],
        "unaccounted.s": unaccounted,
        "trace.wall_s": wall,
    }
    return {
        "metrics": metrics,
        "ledger": ledger,
        "layer_sum_error_s": layer_sum_error(self_s, unaccounted, wall),
        "negative_self": sorted(k for k, v in self_s.items() if v < 0),
        "cells_run": len(cell_infos),
        "run_busy_s": run_busy,
    }


def _inprocess(args, out: Dict[str, Any]) -> None:
    out.update(_setup(args.workload, args.seed))
    tracer = spool = None
    if args.trace:
        tracer = Tracer()
        spool = os.path.join(args.tmp, "spool")
        os.makedirs(spool)
        instrument.install(tracer, spool)
    outcome = wl.Outcome()
    factory = getattr(wl, args.workload)
    if args.workload == "verified_campaign":
        run = factory(outcome, args.seed, args.tmp,
                      verify=not args.verify_off)
    else:
        run = factory(outcome, args.seed, args.tmp)
    root = tracer.begin("window") if tracer else None
    start = time.perf_counter()
    run()
    out["wall_s"] = time.perf_counter() - start
    jobs = wl.EXPLORE_JOBS if args.workload == "explore_mechanisms" else 1
    if tracer is not None:
        tracer.end(root)
        out["wall_s"] = (root[4] - root[3]) / 1e9
        records, _ = instrument.collect(tracer, spool)
        cache = os.path.join(args.tmp, "cache")
        out["trace"] = _layers(records, root, outcome, jobs,
                               cache if os.path.isdir(cache) else None)
        out["trace"]["span_problems"] = instrument.missing_worker_spans(
            records, os.getpid())
    _finish(outcome, out)


def _serve(args, out: Dict[str, Any]) -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    spool = os.path.join(args.tmp, "spool")
    journal = os.path.join(args.tmp, "journal.jsonl")
    cache = os.path.join(args.tmp, "cache")
    serve_args = ["serve", "--port", "0", "--journal", journal,
                  "--cache-dir", cache]
    if args.trace:
        os.makedirs(spool)
        argv = [sys.executable, os.path.join(here, "serve_shim.py"), spool]
    else:
        argv = [sys.executable, "-m", "repro"]
    outcome = wl.Outcome()
    tracer = root = None
    with wl.Server(argv + serve_args, dict(os.environ),
                   os.path.join(args.tmp, "server.log")) as server:
        out["setup_s"] = server.setup_s
        from repro.serve import CampaignClient

        wrap_submit = None
        if args.trace:
            tracer = Tracer()

            def wrap_submit(submit):
                return instrument.wrap(submit, tracer, "serve.client",
                                       wait=True)
        run = wl.serve_mixed(outcome, args.seed, server.port, wrap_submit)
        root = tracer.begin("window") if tracer else None
        start = time.perf_counter()
        run()
        out["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.end(root)
            out["wall_s"] = (root[4] - root[3]) / 1e9
        with CampaignClient(port=server.port, timeout=30.0) as client:
            stats = client.stats()["metrics"]
        server.drain()
    if server.proc.returncode != 0:
        outcome.mismatches.append(
            f"server exited with code {server.proc.returncode}")
    out["serve"] = {
        "service_ms": stats.get("serve.service_ms.p50", 0.0),
        "executed": stats.get("serve.executed", 0),
        "cache_hits": stats.get("serve.cache_hits", 0),
        "dedup_coalesced": stats.get("serve.dedup_coalesced", 0),
        "journal_bytes": os.path.getsize(journal),
    }
    if tracer is not None:
        records, meta = instrument.collect(tracer, spool)
        out["import_s"] = meta.get("import_s", 0.0)
        out["trace"] = _layers(records, root, outcome, wl.SERVE_WORKERS,
                               cache)
        problems = instrument.missing_worker_spans(records, server.proc.pid)
        if not os.path.isfile(os.path.join(spool, "server.json")):
            problems.append("the server's spans (server.json) are missing")
        out["trace"]["span_problems"] = problems
    _finish(outcome, out)


def _finish(outcome: wl.Outcome, out: Dict[str, Any]) -> None:
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out.update(
        peak_rss_mb=usage / 1024.0,
        ops=[[op.name, op.ms, op.ok, op.fresh, op.phase, op.sheds,
              op.reconnects] for op in outcome.ops],
        cells=outcome.cells,
        mismatches=outcome.mismatches,
        extra=outcome.extra,
        retired=sum(values[1] for values in outcome.cells.values()),
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--verify-off", action="store_true",
                        help="verified_campaign without the verifier "
                             "(the base of verify.run_overhead)")
    parser.add_argument("--setup-only", action="store_true",
                        help="measure set-up alone and stop")
    args = parser.parse_args(argv)
    out: Dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                           "trace": None}
    if args.setup_only and args.workload == "serve_mixed":
        with wl.Server([sys.executable, "-m", "repro", "serve", "--port", "0",
                        "--cache-dir", os.path.join(args.tmp, "cache")],
                       dict(os.environ),
                       os.path.join(args.tmp, "server.log")) as server:
            out["setup_s"] = server.setup_s
    elif args.setup_only:
        out.update(_setup(args.workload, args.seed))
    elif args.workload == "serve_mixed":
        _serve(args, out)
    else:
        _inprocess(args, out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
