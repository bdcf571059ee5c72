"""The recipe behind ``tests/golden/generator_streams.json``.

Shared by ``tests/test_generator_streams.py``, which checks the pins,
and ``scripts/update_golden.py``, the only thing that writes them, so
the two can never disagree about what an entry means.

Each entry pins one synthetic stream by a SHA-256 of its first
:data:`STREAM_OPS` ops' ``(pc, opclass, srcs, dst, address, taken,
target)`` plus a SHA-256 of the final ``random.getstate()`` of every
generator behind the engine.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, Tuple

from repro.scenarios import build_engine_for, resolve_dynamic
from repro.workloads import SCENARIO_PROFILES, SMOKE_PROFILES, SPEC95_PROFILES

#: Ops digested per entry: three rounds of the generator's
#: every-2 000-op global-register refresh.
STREAM_OPS = 6_000

#: The phase-varying engine pinned beside the plain profiles.
DYNAMIC_WORKLOAD = "compress@bursty"


def stream_cases() -> Iterator[Tuple[str, object, int, int, int]]:
    """``(key, entry, seed, thread, page_bytes)`` for every pinned stream."""
    profiles = {**SPEC95_PROFILES, **SMOKE_PROFILES, **SCENARIO_PROFILES}
    for name in sorted(profiles):
        for thread in (0, 1):
            for seed in (0, 7):
                for page_bytes in (8192, 4096):
                    key = f"{name}/t{thread}/s{seed}/p{page_bytes}"
                    yield key, profiles[name], seed, thread, page_bytes
    (spec,) = resolve_dynamic(DYNAMIC_WORKLOAD)
    yield f"{DYNAMIC_WORKLOAD}/t0/s0/p8192", spec, 0, 0, 8192


def build(entry, seed: int, thread: int, page_bytes: int):
    """The engine one case pins."""
    return build_engine_for(
        entry, seed=seed, thread=thread, page_bytes=page_bytes
    )


def op_fields(op) -> tuple:
    """The pinned fields of one op."""
    return (op.pc, op.opclass.value, op.srcs, op.dst, op.address,
            op.taken, op.target)


def rng_states(engine) -> list:
    """``getstate()`` of every generator behind ``engine``."""
    phases = getattr(engine, "_generators", None)
    generators = phases if phases is not None else [engine]
    return [generator._rng.getstate() for generator in generators]


def digest(engine, count: int = STREAM_OPS) -> Dict[str, str]:
    """Advance ``engine`` by ``count`` ops and digest them and its RNG."""
    ops = hashlib.sha256()
    for _ in range(count):
        ops.update(repr(op_fields(engine.next_op())).encode("ascii"))
    rng = hashlib.sha256(repr(rng_states(engine)).encode("ascii"))
    return {"ops": ops.hexdigest(), "rng": rng.hexdigest()}


def collect() -> Dict[str, Dict[str, str]]:
    """Every pinned entry, keyed as in the golden file."""
    return {
        key: digest(build(entry, seed, thread, page_bytes))
        for key, entry, seed, thread, page_bytes in stream_cases()
    }
