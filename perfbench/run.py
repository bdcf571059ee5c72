"""The repository benchmark: four entry-point workloads, timed from outside.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  Each repetition runs in a fresh
interpreter (``rep.py``) with fresh temporary cache, store and journal
directories under ``.perfbench_tmp/``, which is removed afterwards.
Repetitions run until ``--seconds`` is used up (at least three).

``--trace 0`` prints every end-to-end metric (medians over the
repetitions).  ``--trace 1`` alternates untraced and traced repetitions
and prints every per-layer metric.  Either way the output check runs:
every cell's exact simulated integers must repeat in every repetition
and equal the values recorded in ``expected.json``; a mismatch counts as
a failed op and makes the command exit 1.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from workloads import CELL_FIELDS, NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_REPS = 3
#: extra fresh interpreters that only set up, for a steadier setup_s
SETUP_PROBES = 2
#: a repetition that runs longer than this is a failure
REP_TIMEOUT = 120.0
#: the paper's DRA speedups at register-file read latency 3/5/7
PAPER_DRA_SPEEDUP = {3: 0.04, 5: 0.09, 7: 0.15}


def load_manifest(root: str) -> Dict[str, Any]:
    """``BENCHMARK.json``: the declared metrics and their units."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)


def tail(values: List[float]) -> Tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten
    samples beyond it, never below the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# --------------------------------------------------------------------------
# repetitions
# --------------------------------------------------------------------------

def clean_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    for name in ("REPRO_FAULTS", "REPRO_CACHE_DIR"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_rep(root: str, tmp_root: str, index: int, workload: str, seed: int,
            trace: bool, verify_off: bool = False,
            setup_only: bool = False) -> Dict[str, Any]:
    tmp = os.path.join(tmp_root, f"rep{index}")
    os.makedirs(tmp)
    argv = [sys.executable, os.path.join(HERE, "rep.py"),
            "--workload", workload, "--seed", str(seed), "--tmp", tmp]
    if trace:
        argv.append("--trace")
    if verify_off:
        argv.append("--verify-off")
    if setup_only:
        argv.append("--setup-only")
    # own session: a repetition that overruns is killed with every
    # process it started (server, forked workers)
    proc = subprocess.Popen(argv, cwd=root, env=clean_env(root),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"repetition {index} exceeded {REP_TIMEOUT:.0f}s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # anything left behind
        except ProcessLookupError:
            pass
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"repetition {index} exited {proc.returncode}:\n{stderr[-3000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_reps(root: str, workload: str, seed: int, seconds: float,
             trace: bool) -> Tuple[List[Dict[str, Any]], List[float]]:
    """Repetitions until ``seconds`` is used up (at least MIN_REPS
    untraced ones, or one cycle of each kind when tracing), and the
    set-up times of SETUP_PROBES more interpreters (untraced runs)."""
    cycle: List[Tuple[bool, bool]] = [(False, False)]
    if trace:
        cycle.append((True, False))
        if workload == "verified_campaign":
            cycle.append((True, True))
    min_reps = len(cycle) if trace else MIN_REPS
    tmp_root = os.path.join(root, ".perfbench_tmp", f"run{os.getpid()}")
    shutil.rmtree(tmp_root, ignore_errors=True)
    os.makedirs(tmp_root)
    reps: List[Dict[str, Any]] = []
    setups: List[float] = []
    start = time.perf_counter()
    durations: List[float] = []
    try:
        for index in range(0 if trace else SETUP_PROBES):
            setups.append(run_rep(root, tmp_root, -1 - index, workload, seed,
                                  False, setup_only=True)["setup_s"])
        while True:
            elapsed = time.perf_counter() - start
            expected = statistics.median(durations) if durations else 0.0
            if len(reps) >= min_reps and (
                    len(reps) % len(cycle) == 0
                    and elapsed + expected * len(cycle) > seconds):
                break
            traced, verify_off = cycle[len(reps) % len(cycle)]
            began = time.perf_counter()
            rep = run_rep(root, tmp_root, len(reps), workload, seed, traced,
                          verify_off)
            rep["kind"] = ("noverify" if verify_off
                           else "traced" if traced else "plain")
            reps.append(rep)
            setups.append(rep["setup_s"])
            durations.append(time.perf_counter() - began)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp_root))
        except OSError:
            pass  # another run still uses it
    return reps, setups


# --------------------------------------------------------------------------
# output check
# --------------------------------------------------------------------------

def check_outputs(workload: str, seed: int, reps: List[Dict[str, Any]],
                  notes: List[str]) -> List[str]:
    """Every mismatch, one line each (empty when the outputs are right)."""
    problems: List[str] = []
    for rep in reps:
        problems.extend(rep["mismatches"])
    first = reps[0]
    for rep in reps[1:]:
        if rep["cells"] != first["cells"]:
            for cell in sorted(set(rep["cells"]) | set(first["cells"])):
                if rep["cells"].get(cell) != first["cells"].get(cell):
                    problems.append(
                        f"{cell}: {rep['cells'].get(cell)} differs from an "
                        f"earlier repetition's {first['cells'].get(cell)}")
        for key in ("frontier", "ordering_ok"):
            if rep["extra"].get(key) != first["extra"].get(key):
                problems.append(f"explore {key} differs between repetitions")
    with open(os.path.join(HERE, "expected.json")) as handle:
        expected = json.load(handle)
    record = expected.get(workload, {}).get(str(seed))
    if record is None:
        notes.append(f"no recorded values for seed {seed}: outputs checked "
                     "for run-to-run identity only")
        return problems
    for cell in sorted(set(record["cells"]) | set(first["cells"])):
        want = record["cells"].get(cell)
        got = first["cells"].get(cell)
        if want != got:
            problems.append(f"{cell}: got {got}, recorded {want}")
    for key, want in record.get("extra", {}).items():
        if first["extra"].get(key) != want:
            problems.append(
                f"explore {key}: got {first['extra'].get(key)}, "
                f"recorded {want}")
    notes.append(f"outputs equal the values recorded for seed {seed}")
    return problems


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def fresh_latencies(reps: List[Dict[str, Any]]) -> List[float]:
    """Latency of every op answered by a fresh simulation: a submit's
    send to reply on ``serve_mixed``, a cell's ``run_cell`` call on the
    others."""
    return [op[1] for rep in reps for op in rep["ops"] if op[2] and op[3]]


def end_to_end(reps: List[Dict[str, Any]],
               setups: List[float]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "sim_kips": statistics.median(
            r["retired"] / r["wall_s"] / 1e3 for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "miss_p50_ms": statistics.median(fresh_latencies(reps)),
    }


def simulated(workload: str, cells: Dict[str, List[Any]],
              notes: List[str]) -> Dict[str, float]:
    """Modelled-hardware outputs: exact, moved only by model changes."""
    values = {name: [cell[i] for cell in cells.values()]
              for i, name in enumerate(CELL_FIELDS)}
    metrics = {
        "sim.ipc": statistics.fmean(values["ipc"]),
        "sim.cycles": sum(values["cycles"]),
        "sim.retired": sum(values["retired"]),
        "sim.reissues": sum(values["reissues"]),
        "sim.operand_miss_rate": (
            sum(values["operand_misses"]) / sum(values["operand_reads"])
            if sum(values["operand_reads"]) else 0.0),
        "sim.port_stalls": sum(values["port_stalls"]),
        "sim.dra_speedup": 0.0,
    }
    if workload == "fig8_detail":
        ratios = []
        for bench in ("swim", "compress"):
            base = cells[f"{bench}/Base:5_9"][-1]
            dra = cells[f"{bench}/DRA:9_3"][-1]
            ratios.append(dra / base)
            notes.append(f"sim.dra_speedup {bench} rf 7: {dra / base - 1:+.1%}"
                         f" (paper, all benchmarks: "
                         f"+{PAPER_DRA_SPEEDUP[7]:.0%})")
        metrics["sim.dra_speedup"] = math.prod(ratios) ** (1 / len(ratios))
        notes.append("the simulated machine is not validated against "
                     "hardware: these are model outputs, with no error "
                     "figure")
    return metrics


def per_layer(workload: str, reps: List[Dict[str, Any]],
              notes: List[str]) -> Dict[str, float]:
    plain = [r for r in reps if r["kind"] == "plain"]
    traced = [r for r in reps if r["kind"] == "traced"]
    noverify = [r for r in reps if r["kind"] == "noverify"]

    def med(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    metrics: Dict[str, float] = {}
    for name in traced[0]["trace"]["metrics"]:
        metrics[name] = med(r["trace"]["metrics"][name] for r in traced)
    base_run = med(r["trace"]["run_busy_s"] for r in noverify)
    metrics["verify.run_overhead"] = (
        med(r["trace"]["run_busy_s"] for r in traced) / base_run
        if base_run else 0.0)
    metrics["import.s"] = med(r["import_s"] for r in traced)
    metrics["setup.build.s"] = med(r.get("setup_build_s", 0.0)
                                   for r in traced)
    metrics["trace.overhead"] = (
        med(r["wall_s"] for r in traced) / med(r["wall_s"] for r in plain)
        - 1.0)
    extra = traced[0]["extra"]
    metrics["explore.cells"] = med(r["trace"]["cells_run"] for r in traced) \
        if workload == "explore_mechanisms" else 0
    metrics["explore.spent_frac"] = (
        extra["spent"] / extra["exhaustive"] if extra.get("exhaustive")
        else 0.0)
    serve = dict.fromkeys((
        "serve.miss_p50_ms", "serve.miss_tail_ms", "serve.service_ms",
        "serve.wait_ms", "serve.hit_ms", "serve.hit_tail_ms",
        "serve.executed", "serve.cache_hits", "serve.dedup_coalesced",
        "serve.sheds", "serve.reconnects", "serve.journal_bytes"), 0)
    if workload == "serve_mixed":
        # client-side figures come from the untraced repetitions
        misses = fresh_latencies(plain)
        hits = [op[1] for r in plain for op in r["ops"]
                if op[2] and op[4] == "resubmit"]
        miss_tail, miss_pct = tail(misses)
        hit_tail, hit_pct = tail(hits)
        notes.append(f"serve.miss_tail_ms is p{miss_pct:.1f} of "
                     f"{len(misses)} fresh submits; serve.hit_tail_ms is "
                     f"p{hit_pct:.1f} of {len(hits)} resubmits")
        service = med(r["serve"]["service_ms"] for r in plain)
        serve.update({
            "serve.miss_p50_ms": statistics.median(misses),
            "serve.miss_tail_ms": miss_tail,
            "serve.service_ms": service,
            "serve.wait_ms": statistics.median(misses) - service,
            "serve.hit_ms": statistics.median(hits),
            "serve.hit_tail_ms": hit_tail,
            "serve.sheds": sum(op[5] for r in plain for op in r["ops"]),
            "serve.reconnects": sum(op[6] for r in plain for op in r["ops"]),
        })
        for name in ("executed", "cache_hits", "dedup_coalesced",
                     "journal_bytes"):
            serve[f"serve.{name}"] = med(r["serve"][name] for r in plain)
    metrics.update(serve)
    return metrics


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    manifest = load_manifest(root)
    try:
        reps, setups = run_reps(root, args.workload, args.seed,
                                args.seconds, bool(args.trace))
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    notes: List[str] = []
    problems = check_outputs(args.workload, args.seed, reps, notes)
    attempted = sum(len(r["ops"]) for r in reps)
    failed = sum(1 for r in reps for op in r["ops"] if not op[2])
    failed = min(attempted, failed + len(problems))

    if args.trace:
        metrics = per_layer(args.workload, reps, notes)
        metrics.update(simulated(args.workload, reps[0]["cells"], notes))
        metrics["failed_frac"] = failed / attempted
        errors = [r["trace"]["layer_sum_error_s"] for r in reps
                  if r["trace"]]
        negative = [n for r in reps if r["trace"]
                    for n in r["trace"]["negative_self"]]
        notes.append(f"layer-sum rule: max |sum(self) + unaccounted - wall| "
                     f"= {max(errors):.2e} s over {len(errors)} traced "
                     "repetitions")
        if max(errors) > 1e-6 or negative:
            problems.append(f"layer-sum rule broken: {max(errors):.2e} s, "
                            f"negative self times {negative}")
        problems.extend(p for r in reps if r["trace"]
                        for p in r["trace"]["span_problems"])
        ledger = [r["trace"]["ledger"] for r in reps if r["kind"] == "traced"]
        wall = statistics.median(r["trace"]["metrics"]["trace.wall_s"]
                                 for r in reps if r["kind"] == "traced")
        print(f"layer ledger (median self seconds, share of {wall:.3f}s):")
        for layer in ledger[0]:
            value = statistics.median(entry[layer] for entry in ledger)
            if value:
                print(f"  {layer:22s} {value:9.4f}  {value / wall:6.1%}")
        declared = manifest["per_layer"]
    else:
        metrics = end_to_end(reps, setups)
        declared = manifest["end_to_end"]

    units = {m["name"]: m["unit"] for m in declared}
    missing = set(units) ^ set(metrics)
    if missing:
        problems.append(f"metric set differs from the manifest: {missing}")
    for name in sorted(units):
        print(f"{name:30s} {metrics.get(name, float('nan')):14.6g} "
              f"{units[name]}")
    for cell, values in sorted(reps[0]["cells"].items()):
        print("cell " + cell + " " + " ".join(
            f"{k}={v}" for k, v in zip(CELL_FIELDS, values)))
    for note in notes:
        print(f"note: {note}")
    for problem in problems:
        print(f"MISMATCH: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(units) if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
