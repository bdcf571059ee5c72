"""Workload/configuration fuzzer with a delta-debugging shrinker.

The fuzzer drives the full verification stack (golden retire model +
event-stream invariant checkers, :mod:`repro.verify.runner`) over
randomly generated machine configurations and workload profiles, then
*shrinks* any failing case — fewer instructions, fewer non-default
knobs, a simpler profile — until it is minimal, and writes a replayable
JSON reproducer.

Every case is fully deterministic: a :class:`FuzzCase` serialises the
complete workload profile and every configuration override, so
``python -m repro verify --replay case.json`` rebuilds the identical
micro-op stream and timing.  The reproducer also embeds the first
micro-ops of the stream; replay cross-checks them against the
regenerated stream so a stale reproducer fails loudly instead of
silently testing a different program.

Fault injections (``--inject``) plant known bugs to prove the checkers
and the shrinker actually work:

* ``skip-reissue`` — the first operand fault is swallowed: the
  instruction executes with a stale source instead of reissuing
  (a broken load-resolution loop).  Caught by the dataflow checker
  and the event/stat reconciliation.
* ``stale-crc`` — one register re-allocation skips the §5.5 CRC
  invalidation, leaving a stale copy a later consumer can hit.
  Caught by the CRC coherence checker.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

from repro.core.config import CoreConfig, DRAConfig, LoadRecovery
from repro.errors import ReproError
from repro.isa import OpClass
from repro.obs.bus import EventBus
from repro.verify.runner import Verifier
from repro.workloads import WorkloadProfile
from repro.workloads.generator import build_engine_for
from repro.workloads.mix import InstructionMix
from repro.workloads.profiles import (
    SMOKE_PROFILES,
    BranchModel,
    DependencyModel,
    MemoryModel,
)

#: Reproducer file format version.
REPRODUCER_VERSION = 1

#: Cycle budget per simulated instruction before a case counts as
#: making no progress (well under the pipeline's deadlock window, so a
#: livelocked case fails fast instead of hanging the fuzz loop).
_CYCLES_PER_INST = 100
_MIN_CYCLES = 2_000


# ---------------------------------------------------------------------------
# Case representation and (de)serialisation
# ---------------------------------------------------------------------------


def profile_to_dict(profile: WorkloadProfile) -> Dict[str, Any]:
    """Serialise a profile to plain JSON types."""
    return {
        "name": profile.name,
        "mix": {
            opclass.value: frac for opclass, frac in profile.mix.items()
        },
        "branches": asdict(profile.branches),
        "memory": asdict(profile.memory),
        "deps": asdict(profile.deps),
    }


def profile_from_dict(data: Dict[str, Any]) -> WorkloadProfile:
    """Rebuild a :class:`WorkloadProfile` serialised by
    :func:`profile_to_dict`.

    The mix entries are sorted by op-class name before constructing the
    :class:`InstructionMix`: its sampling depends on entry order, and a
    JSON round-trip (``sort_keys=True``) would otherwise change the
    generated stream between a fuzzed case and its reproducer.
    """
    return WorkloadProfile(
        name=data["name"],
        mix=InstructionMix(
            {
                OpClass(key): frac
                for key, frac in sorted(data["mix"].items())
            }
        ),
        branches=BranchModel(**data["branches"]),
        memory=MemoryModel(**data["memory"]),
        deps=DependencyModel(**data["deps"]),
    )


@dataclass
class FuzzCase:
    """One self-contained, replayable fuzz input."""

    seed: int
    instructions: int
    #: ``"base"`` or ``"dra"`` — which CoreConfig factory to start from.
    kind: str
    #: RF read latency fed to the factory.
    rf_read_latency: int
    #: CoreConfig field overrides applied on top of the factory output.
    config: Dict[str, Any] = field(default_factory=dict)
    #: DRAConfig field overrides (``kind == "dra"`` only).
    dra: Dict[str, Any] = field(default_factory=dict)
    profile: Dict[str, Any] = field(default_factory=dict)
    #: Optional dynamic-workload wrapper: ``{"pattern": ..., "period": ...}``
    #: turns the profile into a phase-varying schedule (empty = static).
    scenario: Dict[str, Any] = field(default_factory=dict)

    def build_config(self) -> CoreConfig:
        overrides = dict(self.config)
        if "load_recovery" in overrides:
            overrides["load_recovery"] = LoadRecovery(
                overrides["load_recovery"]
            )
        if self.kind == "dra":
            return CoreConfig.with_dra(
                self.rf_read_latency,
                dra=replace(DRAConfig(), **self.dra),
                **overrides,
            )
        return CoreConfig.base(self.rf_read_latency, **overrides)

    def build_profile(self) -> WorkloadProfile:
        return profile_from_dict(self.profile)

    def build_entry(self):
        """The workload entry handed to the simulator: the plain profile,
        or — when ``scenario`` is set — a phase-varying engine spec over
        it, so the fuzzer exercises the dynamic supply path too."""
        profile = self.build_profile()
        if not self.scenario:
            return profile
        from repro.scenarios.dynamic import DynamicSpec, PhaseSchedule

        return DynamicSpec(PhaseSchedule.from_pattern(
            profile,
            self.scenario["pattern"],
            period=int(self.scenario.get("period", 1024)),
        ))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "instructions": self.instructions,
            "kind": self.kind,
            "rf_read_latency": self.rf_read_latency,
            "config": dict(self.config),
            "dra": dict(self.dra),
            "profile": dict(self.profile),
            "scenario": dict(self.scenario),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzCase":
        return cls(
            seed=int(data["seed"]),
            instructions=int(data["instructions"]),
            kind=data["kind"],
            rf_read_latency=int(data["rf_read_latency"]),
            config=dict(data.get("config", {})),
            dra=dict(data.get("dra", {})),
            profile=dict(data["profile"]),
            scenario=dict(data.get("scenario", {})),
        )


@dataclass
class FuzzFailure:
    """Why a case failed: checker violations, an exception, or no
    forward progress."""

    kind: str                      # "violations" | "error" | "no_progress"
    detail: str
    violations: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "violations": list(self.violations),
        }


# ---------------------------------------------------------------------------
# Fault injections (planted bugs for checker/shrinker validation)
# ---------------------------------------------------------------------------


def _inject_skip_reissue(simulator) -> None:
    """Swallow the first operand fault: execute with a stale source.

    Marks the unavailable sources ``payload_valid`` so the DRA's
    operand-location step cannot independently catch the miss — the
    instruction genuinely executes with a value that was never
    computed, exactly the bug a broken load-resolution loop causes.
    """
    original = simulator._operand_fault
    state = {"armed": True}

    def wrapped(inst, cycle):
        fault = original(inst, cycle)
        if fault is not None and state["armed"]:
            state["armed"] = False
            avail = simulator.regfile.avail
            for idx, preg in enumerate(inst.src_pregs):
                value_time = avail[preg]
                if value_time is None or value_time > cycle:
                    if idx < len(inst.payload_valid):
                        inst.payload_valid[idx] = True
            return None
        return fault

    simulator._operand_fault = wrapped


def _inject_stale_crc(simulator) -> None:
    """Skip one §5.5 CRC invalidation on register re-allocation."""
    dra = simulator.dra
    if dra is None:
        return
    original = dra.on_allocate
    state = {"armed": True}

    def wrapped(preg):
        if state["armed"] and any(crc.contains(preg) for crc in dra.crcs):
            state["armed"] = False
            # the non-buggy parts of re-allocation still happen
            dra.rpft.on_allocate(preg)
            for table in dra.tables:
                table.clear(preg)
            return
        original(preg)

    dra.on_allocate = wrapped


INJECTIONS: Dict[str, Callable] = {
    "skip-reissue": _inject_skip_reissue,
    "stale-crc": _inject_stale_crc,
}


# ---------------------------------------------------------------------------
# Case execution
# ---------------------------------------------------------------------------


def run_case(
    case: FuzzCase,
    inject: Optional[str] = None,
    backend: str = "reference",
) -> Optional[FuzzFailure]:
    """Run one case under the full verifier; ``None`` means it passed."""
    from repro.core.backend import parse_backend

    kernel = parse_backend(backend)
    if not kernel.exact:
        raise ReproError(
            f"fuzz cases verify retire streams and need an exact kernel "
            f"backend (got {kernel.token!r})"
        )
    try:
        config = case.build_config()
        entry = case.build_entry()
    except (ValueError, KeyError) as error:
        # an invalid case is a generator bug, not a simulator bug
        raise ReproError(f"unbuildable fuzz case: {error}") from error
    simulator = kernel.build(config, [entry], seed=case.seed)
    bus = EventBus()
    verifier = Verifier()
    verifier.attach(simulator, bus)
    simulator.attach_obs(bus)
    if inject is not None:
        INJECTIONS[inject](simulator)
    max_cycles = max(_MIN_CYCLES, case.instructions * _CYCLES_PER_INST)
    try:
        simulator.run(case.instructions, warmup=0, max_cycles=max_cycles)
    except ReproError as error:
        return FuzzFailure(
            kind="error", detail=f"{type(error).__name__}: {error}"
        )
    verifier.finish(simulator.stats)
    if not verifier.passed:
        return FuzzFailure(
            kind="violations",
            detail=verifier.violations[0].describe()
            if verifier.violations
            else f"{verifier.violation_count} violation(s)",
            violations=[v.to_dict() for v in verifier.violations],
        )
    if simulator.stats.retired < case.instructions:
        return FuzzFailure(
            kind="no_progress",
            detail=(
                f"retired {simulator.stats.retired}/{case.instructions} "
                f"within {max_cycles} cycles"
            ),
        )
    return None


# ---------------------------------------------------------------------------
# Random case generation
# ---------------------------------------------------------------------------


def _random_profile(rng: random.Random) -> Dict[str, Any]:
    """A random — but always valid — workload profile, serialised."""
    branch = round(rng.uniform(0.02, 0.20), 3)
    load = round(rng.uniform(0.10, 0.35), 3)
    store = round(rng.uniform(0.03, 0.15), 3)
    fp = round(rng.uniform(0.0, 0.3), 3)
    alu = max(0.02, 1.0 - branch - load - store - fp)
    mix = {
        OpClass.INT_ALU.value: alu,
        OpClass.LOAD.value: load,
        OpClass.STORE.value: store,
        OpClass.BRANCH.value: branch,
    }
    if fp > 0.005:
        mix[OpClass.FP_ADD.value] = fp * 0.5
        mix[OpClass.FP_MUL.value] = fp * 0.5
    hot = round(rng.uniform(0.45, 0.92), 3)
    warm = round(rng.uniform(0.02, min(0.3, 0.97 - hot)), 3)
    cold = round(rng.uniform(0.0, min(0.2, 0.99 - hot - warm)), 3)
    stream = 1.0 - hot - warm - cold
    return {
        "name": "fuzz",
        "mix": mix,
        "branches": asdict(
            BranchModel(
                num_sites=rng.choice([8, 32, 128, 512]),
                loop_site_frac=round(rng.uniform(0.2, 0.95), 2),
                loop_trip=rng.choice([2, 8, 32]),
                random_bias_lo=0.6,
                random_bias_hi=round(rng.uniform(0.6, 0.99), 2),
                indirect_frac=round(rng.uniform(0.0, 0.15), 2),
            )
        ),
        "memory": asdict(
            MemoryModel(
                hot_frac=hot,
                warm_frac=warm,
                cold_frac=cold,
                stream_frac=stream,
                hot_bytes=rng.choice([4, 16, 64]) * 1024,
                warm_bytes=rng.choice([128, 512]) * 1024,
                cold_pages=rng.choice([64, 1024]),
                page_dwell=rng.choice([2, 64]),
                stream_stride=rng.choice([8, 16, 64]),
                alias_site_frac=round(rng.uniform(0.0, 0.2), 2),
            )
        ),
        "deps": asdict(
            DependencyModel(
                strands=rng.choice([1, 2, 8, 24]),
                chain_frac=round(rng.uniform(0.1, 0.9), 2),
                near_mean=float(rng.choice([1.5, 4.0, 8.0])),
                far_frac=round(rng.uniform(0.0, 0.3), 2),
                far_lo=30,
                far_hi=rng.choice([60, 120, 240]),
                two_src_frac=round(rng.uniform(0.3, 0.8), 2),
                global_frac=round(rng.uniform(0.0, 0.2), 2),
                num_globals=rng.choice([1, 4, 8]),
                fanout_burst_frac=round(rng.uniform(0.0, 0.1), 2),
                fanout_burst_len=rng.choice([2, 8, 64]),
            )
        ),
    }


#: Randomisable CoreConfig knobs and their value pools.  Geometry knobs
#: that must move together (issue_width == num_clusters,
#: num_pregs >= 128 + rob_entries) are handled explicitly.
_CONFIG_POOLS: Dict[str, List[Any]] = {
    "fetch_width": [4, 8],
    "retire_width": [4, 8],
    "iq_entries": [32, 64, 128],
    "fb_depth": [4, 9, 14],
    "iq_feedback_delay": [1, 3, 5],
    "iq_clear_cycles": [0, 1],
    "branch_feedback_delay": [1, 3],
    "load_fill_wake_lead": [0, 2],
    "load_recovery": [
        LoadRecovery.REISSUE.value,
        LoadRecovery.REFETCH.value,
        LoadRecovery.STALL.value,
    ],
    "slotting": ["dependence", "round_robin"],
}

_DRA_POOLS: Dict[str, List[Any]] = {
    "crc_entries": [4, 16, 64],
    "counter_bits": [1, 2, 4],
    "payload_transit": [0, 2],
    "frontend_stall": [0, 1],
    "centralized": [False, True],
    "shadow_fb_decrement": [False, True],
    "oracle_crc": [False, True],
}


def random_case(
    rng: random.Random, max_instructions: int = 400
) -> FuzzCase:
    """Draw one random case (valid by construction)."""
    kind = rng.choice(["base", "dra"])
    config: Dict[str, Any] = {}
    for knob, pool in _CONFIG_POOLS.items():
        if rng.random() < 0.35:
            config[knob] = rng.choice(pool)
    if rng.random() < 0.35:
        clusters = rng.choice([4, 8])
        config["num_clusters"] = clusters
        config["issue_width"] = clusters
    if rng.random() < 0.35:
        rob = rng.choice([64, 128, 256])
        config["rob_entries"] = rob
        config["num_pregs"] = rng.choice([rob + 128, rob + 512])
    dra: Dict[str, Any] = {}
    if kind == "dra":
        for knob, pool in _DRA_POOLS.items():
            if rng.random() < 0.35:
                dra[knob] = rng.choice(pool)
    scenario: Dict[str, Any] = {}
    if rng.random() < 0.25:
        from repro.scenarios.dynamic import PATTERNS

        # short periods so even small cases cross phase boundaries
        scenario = {
            "pattern": rng.choice(sorted(PATTERNS)),
            "period": rng.choice([256, 512, 2048]),
        }
    return FuzzCase(
        seed=rng.randrange(1 << 30),
        instructions=rng.randrange(50, max_instructions + 1),
        kind=kind,
        rf_read_latency=rng.choice([1, 3, 5, 7]),
        config=config,
        dra=dra,
        profile=_random_profile(rng),
        scenario=scenario,
    )


def canonical_cases(max_instructions: int = 400) -> List[FuzzCase]:
    """Deterministic seed cases tried before random exploration.

    The smoke profile on the default base and DRA machines: cheap,
    covers both pipelines, and (running cold-cache) provokes load
    misses — so planted load-loop bugs trip on case one or two instead
    of depending on the random draw.
    """
    profile = profile_to_dict(SMOKE_PROFILES["int_test"])
    count = min(300, max_instructions)
    return [
        FuzzCase(
            seed=7, instructions=count, kind="base",
            rf_read_latency=3, profile=dict(profile),
        ),
        FuzzCase(
            seed=7, instructions=count, kind="dra",
            rf_read_latency=3, profile=dict(profile),
        ),
    ]


# ---------------------------------------------------------------------------
# Shrinking (delta debugging)
# ---------------------------------------------------------------------------


def _shrink_instructions(
    case: FuzzCase,
    inject: Optional[str],
    deadline: Optional[float],
) -> FuzzCase:
    """Binary-search the smallest failing instruction count."""
    best = case
    lo, hi = 1, case.instructions
    while lo < hi:
        if deadline is not None and time.monotonic() > deadline:
            break
        mid = (lo + hi) // 2
        candidate = replace(best, instructions=mid)
        if run_case(candidate, inject) is not None:
            best, hi = candidate, mid
        else:
            lo = mid + 1
    return best


def _shrink_mapping(
    case: FuzzCase,
    which: str,
    inject: Optional[str],
    deadline: Optional[float],
) -> FuzzCase:
    """Greedily drop override knobs (reset toward defaults)."""
    best = case
    changed = True
    passes = 0
    while changed and passes < 3:
        changed = False
        passes += 1
        for knob in list(getattr(best, which)):
            if deadline is not None and time.monotonic() > deadline:
                return best
            reduced = dict(getattr(best, which))
            del reduced[knob]
            candidate = replace(best, **{which: reduced})
            try:
                failed = run_case(candidate, inject) is not None
            except ReproError:
                # dropping one half of a coupled knob pair can make the
                # config invalid; keep the knob
                continue
            if failed:
                best = candidate
                changed = True
    return best


def _shrink_profile(
    case: FuzzCase,
    inject: Optional[str],
    deadline: Optional[float],
) -> FuzzCase:
    """Replace the profile (or its sub-models) with simple defaults."""
    best = case
    reference = profile_to_dict(SMOKE_PROFILES["int_test"])
    # whole-profile swap first — the biggest simplification
    if best.profile != reference:
        candidate = replace(best, profile=dict(reference))
        try:
            if run_case(candidate, inject) is not None:
                return candidate
        except ReproError:
            pass
    for part in ("branches", "memory", "deps", "mix"):
        if deadline is not None and time.monotonic() > deadline:
            return best
        if best.profile.get(part) == reference[part]:
            continue
        simplified = dict(best.profile)
        simplified[part] = reference[part]
        candidate = replace(best, profile=simplified)
        try:
            if run_case(candidate, inject) is not None:
                best = candidate
        except ReproError:
            continue
    return best


def _shrink_scenario(
    case: FuzzCase,
    inject: Optional[str],
    deadline: Optional[float],
) -> FuzzCase:
    """Try dropping the dynamic-workload wrapper (static is simpler)."""
    if not case.scenario:
        return case
    if deadline is not None and time.monotonic() > deadline:
        return case
    candidate = replace(case, scenario={})
    try:
        if run_case(candidate, inject) is not None:
            return candidate
    except ReproError:
        pass
    return case


def shrink(
    case: FuzzCase,
    inject: Optional[str] = None,
    deadline: Optional[float] = None,
) -> FuzzCase:
    """Shrink a failing case to a (locally) minimal failing case.

    Every intermediate candidate is re-run under the same injection;
    the returned case is guaranteed to still fail.
    """
    if run_case(case, inject) is None:
        raise ValueError("shrink() requires a failing case")
    best = _shrink_instructions(case, inject, deadline)
    best = _shrink_mapping(best, "config", inject, deadline)
    best = _shrink_mapping(best, "dra", inject, deadline)
    best = _shrink_scenario(best, inject, deadline)
    best = _shrink_profile(best, inject, deadline)
    best = _shrink_instructions(best, inject, deadline)
    return best


# ---------------------------------------------------------------------------
# Reproducers
# ---------------------------------------------------------------------------


def _micro_ops(case: FuzzCase) -> List[Dict[str, Any]]:
    """The case's first micro-ops, serialised for the reproducer."""
    generator = build_engine_for(case.build_entry(), seed=case.seed, thread=0)
    ops = []
    for _ in range(min(case.instructions, 200)):
        op = generator.next_op()
        ops.append({
            "pc": op.pc,
            "opclass": op.opclass.value,
            "srcs": list(op.srcs),
            "dst": op.dst,
            "address": op.address,
            "taken": op.taken,
            "target": op.target,
        })
    return ops


def make_reproducer(
    case: FuzzCase,
    failure: FuzzFailure,
    inject: Optional[str] = None,
) -> Dict[str, Any]:
    """The JSON document ``repro verify --replay`` consumes."""
    return {
        "version": REPRODUCER_VERSION,
        "inject": inject,
        "case": case.to_dict(),
        "failure": failure.to_dict(),
        "micro_ops": _micro_ops(case),
    }


def write_reproducer(path: str, reproducer: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reproducer, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_reproducer(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("version") != REPRODUCER_VERSION:
        raise ReproError(
            f"unsupported reproducer version {data.get('version')!r} "
            f"(expected {REPRODUCER_VERSION})"
        )
    return data


def replay(path: str) -> Optional[FuzzFailure]:
    """Re-run a reproducer; ``None`` means the failure no longer occurs.

    Cross-checks the stored micro-op prefix against the regenerated
    stream first, so a reproducer from an incompatible generator
    version fails loudly rather than silently replaying a different
    program.
    """
    data = load_reproducer(path)
    case = FuzzCase.from_dict(data["case"])
    stored = data.get("micro_ops", [])
    if stored:
        regenerated = _micro_ops(case)
        for index, (want, got) in enumerate(zip(stored, regenerated)):
            if want != got:
                raise ReproError(
                    f"reproducer stream diverges at op {index}: stored "
                    f"{want} but the generator now emits {got} — the "
                    f"workload generator has changed; re-fuzz"
                )
    return run_case(case, inject=data.get("inject"))


# ---------------------------------------------------------------------------
# The fuzz loop
# ---------------------------------------------------------------------------


@dataclass
class FuzzResult:
    """Outcome of one :func:`fuzz` run."""

    found: bool
    cases_run: int
    case: Optional[FuzzCase] = None
    failure: Optional[FuzzFailure] = None
    reproducer_path: Optional[str] = None

    def describe(self) -> str:
        if not self.found:
            return f"no failures in {self.cases_run} case(s)"
        where = (
            f"; reproducer: {self.reproducer_path}"
            if self.reproducer_path
            else ""
        )
        detail = self.failure.detail if self.failure else ""
        return (
            f"FAIL after {self.cases_run} case(s), shrunk to "
            f"{self.case.instructions} instruction(s): {detail}{where}"
        )


def fuzz(
    budget: float = 30.0,
    seed: int = 0,
    inject: Optional[str] = None,
    out_path: Optional[str] = None,
    max_instructions: int = 400,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzResult:
    """Fuzz until a failure is found and shrunk, or the budget expires.

    ``budget`` is wall-clock seconds for the whole run, shrinking
    included (the shrinker may overshoot by at most one simulation).
    On failure the shrunk case is written to ``out_path`` (when given)
    as a replayable reproducer.
    """
    if inject is not None and inject not in INJECTIONS:
        raise ReproError(
            f"unknown injection {inject!r}; known: "
            f"{', '.join(sorted(INJECTIONS))}"
        )
    rng = random.Random(seed)
    deadline = time.monotonic() + budget
    queue = canonical_cases(max_instructions)
    cases_run = 0
    while time.monotonic() < deadline:
        case = queue.pop(0) if queue else random_case(rng, max_instructions)
        cases_run += 1
        failure = run_case(case, inject)
        if failure is None:
            continue
        if log is not None:
            log(
                f"case {cases_run} failed ({failure.kind}): "
                f"{failure.detail}; shrinking"
            )
        shrunk = shrink(case, inject, deadline=deadline)
        final = run_case(shrunk, inject)
        assert final is not None  # shrink() preserves failure
        path = None
        if out_path is not None:
            write_reproducer(
                out_path, make_reproducer(shrunk, final, inject=inject)
            )
            path = out_path
        return FuzzResult(
            found=True,
            cases_run=cases_run,
            case=shrunk,
            failure=final,
            reproducer_path=path,
        )
    return FuzzResult(found=False, cases_run=cases_run)
