"""Unit tests for the generator's address walks and branch sites.

Each test drives the public generator with a profile that isolates one
mechanism: a single locality region for the address walks, a single
branch site for the site models.
"""

import itertools

import pytest

from repro.isa import OpClass
from repro.workloads import (
    BranchModel,
    InstructionMix,
    MemoryModel,
    SyntheticTraceGenerator,
    WorkloadProfile,
)

#: Where thread 0's data regions start (hot, warm, cold, stream follow
#: at 1 GB spacing).
_ADDR_BASE = 1 << 34
_COLD_BASE = _ADDR_BASE + (2 << 30)
_STREAM_BASE = _ADDR_BASE + (3 << 30)


def _addresses(count, **memory):
    """The first ``count`` load addresses of a loads-only stream."""
    profile = WorkloadProfile(
        name="walk",
        mix=InstructionMix({OpClass.LOAD: 1.0}),
        memory=MemoryModel(alias_site_frac=0.0, **memory),
    )
    ops = SyntheticTraceGenerator(profile, seed=0).stream()
    loads = (op.address for op in ops if op.opclass is OpClass.LOAD)
    return list(itertools.islice(loads, count))


def _hot(count, hot_bytes):
    return _addresses(count, hot_frac=1.0, warm_frac=0.0, cold_frac=0.0,
                      stream_frac=0.0, hot_bytes=hot_bytes)


def _cold_pages(count, pages, dwell):
    addresses = _addresses(count, hot_frac=0.0, warm_frac=0.0, cold_frac=1.0,
                           stream_frac=0.0, cold_pages=pages, page_dwell=dwell)
    return [(addr - _COLD_BASE) // 8192 for addr in addresses]


def _stream(count, stride):
    return _addresses(count, hot_frac=0.0, warm_frac=0.0, cold_frac=0.0,
                      stream_frac=1.0, stream_stride=stride)


def _branch_outcomes(count, **branches):
    """Directions of the first ``count`` conditional branches of a
    one-site, branches-only stream."""
    profile = WorkloadProfile(
        name="site",
        mix=InstructionMix({OpClass.BRANCH: 1.0}),
        branches=BranchModel(num_sites=1, indirect_frac=0.0, **branches),
    )
    ops = SyntheticTraceGenerator(profile, seed=0).stream()
    outcomes = (op.taken for op in ops if op.opclass is OpClass.BRANCH)
    return list(itertools.islice(outcomes, count))


class TestRegionWalker:
    def test_addresses_stay_in_pool(self):
        for addr in _hot(500, hot_bytes=4096):
            assert _ADDR_BASE <= addr < _ADDR_BASE + 4096

    def test_addresses_are_word_aligned(self):
        # word-granular addresses: load/store conflict checks are 8-byte
        mixed = _addresses(400, hot_frac=0.4, warm_frac=0.3, cold_frac=0.2,
                           stream_frac=0.1, stream_stride=8)
        assert all(addr % 8 == 0 for addr in mixed)

    def test_small_pool_is_one_line(self):
        lines = {addr // 64 for addr in _hot(50, hot_bytes=32)}
        assert lines == {_ADDR_BASE // 64}


class TestPagedWalker:
    def test_dwell_controls_page_changes(self):
        pages = _cold_pages(100, pages=1000, dwell=10)
        changes = sum(a != b for a, b in zip(pages, pages[1:]))
        # ~1 page hop per 10 accesses
        assert changes <= 15

    def test_dwell_one_hops_every_access(self):
        pages = set(_cold_pages(200, pages=10_000, dwell=1))
        assert len(pages) > 150

    def test_addresses_span_the_footprint(self):
        pages = set(_cold_pages(2000, pages=64, dwell=1))
        assert len(pages) > 48
        assert min(pages) >= 0 and max(pages) < 64


class TestStreamWalker:
    def test_monotone_addresses(self):
        addrs = _stream(10, stride=16)
        assert addrs == [_STREAM_BASE + 16 * (i + 1) for i in range(10)]

    def test_one_line_per_stride_group(self):
        lines = [addr // 64 for addr in _stream(64, stride=16)]
        # 4 accesses per 64B line at stride 16
        assert len(set(lines)) == pytest.approx(16, abs=1)


class TestBranchSite:
    def test_loop_site_pattern(self):
        outcomes = _branch_outcomes(200, loop_site_frac=1.0, loop_trip=3)
        # taken ``trip`` times, then one not-taken exit, every time round
        runs = "".join("T" if t else "N" for t in outcomes).split("N")[:-1]
        assert len(runs) > 10
        assert len(set(runs)) == 1 and runs[0]

    def test_random_site_respects_bias(self):
        outcomes = _branch_outcomes(
            2000, loop_site_frac=0.0, random_bias_lo=0.9, random_bias_hi=0.9,
        )
        # the site is biased 0.9 towards one direction (either polarity)
        taken = sum(outcomes) / len(outcomes)
        assert 0.85 < max(taken, 1 - taken) < 0.95
