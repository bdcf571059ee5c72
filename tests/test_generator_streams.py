"""Stream pins for the synthetic workload generator.

Every profile in ``SPEC95_PROFILES``, ``SMOKE_PROFILES`` and
``SCENARIO_PROFILES`` (threads 0/1, seeds 0/7, ``page_bytes``
8192/4096) plus the ``compress@bursty`` engine must reproduce the
digests in ``tests/golden/generator_streams.json`` exactly: the first
6 000 ops and the final RNG state.  An intended workload-model change
regenerates the file with::

    PYTHONPATH=src python scripts/update_golden.py

and the diff of the JSON becomes part of the review.
"""

import dataclasses
import json
import os

import pytest

from repro.isa import MicroOp
from repro.scenarios import resolve_dynamic
from repro.workloads import SMOKE_PROFILES, SPEC95_PROFILES, SCENARIO_PROFILES
from tests import stream_pins

STREAMS_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "generator_streams.json"
)

with open(STREAMS_PATH, "r", encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)

CASES = {case[0]: case[1:] for case in stream_pins.stream_cases()}


def test_pins_cover_every_case():
    assert GOLDEN["ops"] == stream_pins.STREAM_OPS
    assert sorted(GOLDEN["streams"]) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_stream_matches_pin(key):
    entry, seed, thread, page_bytes = CASES[key]
    engine = stream_pins.build(entry, seed, thread, page_bytes)
    assert stream_pins.digest(engine) == GOLDEN["streams"][key], (
        f"the {key} stream drifted; if the change is intentional run "
        f"scripts/update_golden.py and review the diff"
    )


def _engines():
    (spec,) = resolve_dynamic(stream_pins.DYNAMIC_WORKLOAD)
    return {
        "swim": lambda: stream_pins.build(SPEC95_PROFILES["swim"], 7, 1, 4096),
        stream_pins.DYNAMIC_WORKLOAD: lambda: stream_pins.build(spec, 0, 0, 8192),
    }


@pytest.mark.parametrize("name", sorted(_engines()))
@pytest.mark.parametrize("skip", [1_999, 2_000, 4_097])
def test_clone_fast_forward_continues_stream(name, skip):
    """``clone().fast_forward(k)`` resumes the stream across the
    every-2 000-op refresh, as the golden retire model requires."""
    original = _engines()[name]()
    for _ in range(skip):
        original.next_op()
    resumed = original.clone()
    resumed.fast_forward(skip)
    assert resumed.emitted == original.emitted == skip
    for _ in range(2_100):
        assert original.next_op() == resumed.next_op()
    assert stream_pins.rng_states(original) == stream_pins.rng_states(resumed)


FIELD_NAMES = [field.name for field in dataclasses.fields(MicroOp)]

#: One profile per family, plus a phase-varying engine.
VALIDITY_CASES = {
    "spec95-int": SPEC95_PROFILES["compress"],
    "spec95-fp": SPEC95_PROFILES["swim"],
    "smoke": SMOKE_PROFILES["int_test"],
    **{f"scenario-{name}": profile
       for name, profile in SCENARIO_PROFILES.items()},
}


@pytest.mark.parametrize("family", sorted(VALIDITY_CASES) + ["dynamic"])
def test_ops_pass_the_validating_constructor(family):
    """The generator builds ops without ``MicroOp.__post_init__``; every
    op must still be one the validating constructor accepts unchanged."""
    if family == "dynamic":
        (entry,) = resolve_dynamic(stream_pins.DYNAMIC_WORKLOAD)
    else:
        entry = VALIDITY_CASES[family]
    engine = stream_pins.build(entry, 0, 0, 8192)
    for _ in range(20_000):
        op = engine.next_op()
        assert type(op) is MicroOp
        assert list(vars(op)) == FIELD_NAMES
        assert MicroOp(**vars(op)) == op
