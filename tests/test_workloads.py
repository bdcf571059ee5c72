"""Unit tests for the synthetic workload substrate."""

import itertools

import pytest

from repro.isa import OpClass, ZERO_REG
from repro.workloads import (
    ALL_WORKLOADS,
    FP_WORKLOADS,
    INT_WORKLOADS,
    InstructionMix,
    SMT_PAIRS,
    SPEC95_PROFILES,
    SyntheticTraceGenerator,
    workload_profiles,
)


class TestInstructionMix:
    def test_fractions_normalise(self):
        mix = InstructionMix({OpClass.INT_ALU: 3, OpClass.LOAD: 1})
        assert mix.fraction(OpClass.INT_ALU) == pytest.approx(0.75)
        assert mix.fraction(OpClass.LOAD) == pytest.approx(0.25)
        assert mix.fraction(OpClass.STORE) == 0.0

    def test_cumulative_table(self):
        mix = InstructionMix({OpClass.INT_ALU: 3, OpClass.LOAD: 1})
        assert mix.cumulative == ((0.75, OpClass.INT_ALU), (1.0, OpClass.LOAD))

    def test_sampling_matches_fractions(self):
        import random
        mix = InstructionMix({OpClass.INT_ALU: 0.7, OpClass.LOAD: 0.3})
        rng = random.Random(42)
        samples = []
        for _ in range(5000):
            x = rng.random()
            samples.append(next(c for cum, c in mix.cumulative if x <= cum))
        load_frac = samples.count(OpClass.LOAD) / len(samples)
        assert 0.27 < load_frac < 0.33

    def test_rejects_empty_or_negative(self):
        with pytest.raises(ValueError):
            InstructionMix({})
        with pytest.raises(ValueError):
            InstructionMix({OpClass.LOAD: -1.0})
        with pytest.raises(ValueError):
            InstructionMix({OpClass.LOAD: 0.0})


class TestSuites:
    def test_all_thirteen_workloads(self):
        assert len(ALL_WORKLOADS) == 13
        assert len(INT_WORKLOADS) == 4
        assert len(FP_WORKLOADS) == 6
        assert len(SMT_PAIRS) == 3

    def test_single_workload_resolution(self):
        profiles = workload_profiles("swim")
        assert len(profiles) == 1
        assert profiles[0].name == "swim"

    def test_pair_resolution(self):
        profiles = workload_profiles("go+su2cor")
        assert [p.name for p in profiles] == ["go", "su2cor"]

    def test_unknown_workload(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            workload_profiles("doom")

    def test_profiles_are_registered_for_every_suite_entry(self):
        for name in INT_WORKLOADS + FP_WORKLOADS:
            assert name in SPEC95_PROFILES


class TestGeneratorDeterminism:
    def test_same_seed_same_stream(self):
        profile = SPEC95_PROFILES["gcc"]
        a = SyntheticTraceGenerator(profile, seed=3)
        b = SyntheticTraceGenerator(profile, seed=3)
        ops_a = list(itertools.islice(a.stream(), 500))
        ops_b = list(itertools.islice(b.stream(), 500))
        assert ops_a == ops_b

    def test_different_seeds_differ(self):
        profile = SPEC95_PROFILES["gcc"]
        a = SyntheticTraceGenerator(profile, seed=3)
        b = SyntheticTraceGenerator(profile, seed=4)
        ops_a = list(itertools.islice(a.stream(), 200))
        ops_b = list(itertools.islice(b.stream(), 200))
        assert ops_a != ops_b

    def test_threads_use_disjoint_address_spaces(self):
        profile = SPEC95_PROFILES["swim"]
        t0 = SyntheticTraceGenerator(profile, seed=0, thread=0)
        t1 = SyntheticTraceGenerator(profile, seed=0, thread=1)
        addrs0 = {op.address for op in itertools.islice(t0.stream(), 2000)
                  if op.address is not None}
        addrs1 = {op.address for op in itertools.islice(t1.stream(), 2000)
                  if op.address is not None}
        assert addrs0 and addrs1
        assert addrs0.isdisjoint(addrs1)


class TestGeneratedStreamShape:
    @pytest.fixture(scope="class")
    def ops(self):
        gen = SyntheticTraceGenerator(SPEC95_PROFILES["gcc"], seed=1)
        return list(itertools.islice(gen.stream(), 20_000))

    def test_mix_fractions_respected(self, ops):
        profile = SPEC95_PROFILES["gcc"]
        branch_frac = sum(op.opclass is OpClass.BRANCH for op in ops) / len(ops)
        load_frac = sum(op.opclass is OpClass.LOAD for op in ops) / len(ops)
        assert abs(branch_frac - profile.mix.fraction(OpClass.BRANCH)) < 0.02
        assert abs(load_frac - profile.mix.fraction(OpClass.LOAD)) < 0.02

    def test_memory_ops_have_addresses(self, ops):
        for op in ops:
            if op.opclass.is_memory:
                assert op.address is not None

    def test_branches_have_targets(self, ops):
        for op in ops:
            if op.opclass.is_control:
                assert op.target is not None

    def test_branch_sites_recur(self, ops):
        """Static branch sites must repeat for predictors to learn."""
        pcs = [op.pc for op in ops if op.opclass is OpClass.BRANCH]
        assert len(set(pcs)) <= SPEC95_PROFILES["gcc"].branches.num_sites + 32
        assert len(pcs) > 4 * len(set(pcs))

    def test_calls_and_returns_balance_through_stack(self, ops):
        depth = 0
        for op in ops:
            if op.opclass is OpClass.CALL:
                depth += 1
            elif op.opclass is OpClass.RETURN:
                depth -= 1
                assert depth >= 0, "return without matching call"

    def test_sources_reference_written_registers(self, ops):
        """Non-global sources should mostly be recently written registers."""
        written = set()
        dangling = 0
        checked = 0
        for op in ops:
            for src in op.real_srcs:
                if src < 8:  # globals and link register are long-lived
                    continue
                checked += 1
                if src not in written:
                    dangling += 1
            if op.dst is not None:
                written.add(op.dst)
        assert checked > 0
        # only the stream prefix (before first writes) may dangle
        assert dangling < 100

    def test_loads_split_across_locality_regions(self, ops):
        addresses = [op.address for op in ops if op.opclass is OpClass.LOAD]
        regions = {addr >> 30 for addr in addresses}
        assert len(regions) >= 3  # hot, warm, and cold/stream present
