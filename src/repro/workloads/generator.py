"""Seeded synthetic instruction-stream generator.

Turns a :class:`~repro.workloads.WorkloadProfile` into an infinite,
deterministic stream of :class:`~repro.isa.MicroOp`.  All randomness
comes from one ``random.Random`` seeded from ``(profile name, seed,
thread)``, so a given workload/seed pair always produces the identical
stream — required for reproducible experiments, for replay after
pipeline squashes and for the verification oracle's
``clone().fast_forward(n)``.

The generator sets the cost of functional warmup and of fetch, so its
per-op path is written flat:

* The RNG is drawn directly.  A uniform index below ``n`` is
  ``getrandbits(n.bit_length())`` redrawn while ``>= n``, which is how
  CPython's ``Random.choice``, ``randrange`` and ``randint`` draw it;
  the bit lengths of fixed-size pools are precomputed.  A near producer
  distance is ``-log(1 - random()) / lambd``, as ``expovariate`` draws
  it.
* The round-robin destination pick consumes no randomness, so it is
  precomputed into ``cursor -> (register, next cursor)`` tables.
* Ops are built without re-running ``MicroOp.__post_init__``; the
  generator builds only valid ops.

``tests/test_generator_streams.py`` pins every profile's stream and
final RNG state against ``tests/golden/generator_streams.json`` and
checks every op against the validating ``MicroOp`` constructor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import log
from typing import Iterator, List, Optional, Tuple

from repro.isa import MicroOp, OpClass, ZERO_REG
from repro.isa.registers import FIRST_FP_REG, NUM_ARCH_REGS
from repro.workloads.profiles import WorkloadProfile

#: Architectural register reserved as the call/return link register.
LINK_REG = 7

_LINE_BYTES = 64
_LINE_WORDS = _LINE_BYTES // 8
#: Every this many ops one global register is rewritten, so globals are
#: not eternally "completed" operands.
_GLOBAL_REFRESH = 2000
#: Static call, jump and return sites (each).
_CONTROL_SITES = 16
#: Static load sites.
_LOAD_SITES = 128
#: Recently written registers kept for producer-distance picks.
_RECENT_DSTS = 4096
#: Recently stored addresses kept for store-to-load aliasing.
_RECENT_STORES = 16

_INT_ALU = OpClass.INT_ALU
_BRANCH = OpClass.BRANCH
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_CALL = OpClass.CALL
_RETURN = OpClass.RETURN
_JUMP = OpClass.JUMP
_MEM_BARRIER = OpClass.MEM_BARRIER
_NOP = OpClass.NOP
_FP_CLASSES = (OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV)

_new_op = MicroOp.__new__
#: frozen-dataclass ``__setattr__`` blocks even ``__dict__`` rebinding,
#: so ops get their fields through ``object.__setattr__`` directly
_set_dict = object.__setattr__


def _pool(size: int) -> Tuple[int, int]:
    """``(size, bit length)``: what a uniform index draw below ``size``
    needs."""
    return size, size.bit_length()


def _dst_table(regs: List[int], fp: bool) -> List[Tuple[int, int]]:
    """``cursor -> (register, next cursor)`` for the round-robin pick.

    From each cursor the pick takes the next register of the wanted bank
    and leaves the cursor just past it; with no register of that bank it
    falls back to ``regs[0]`` after a full lap.
    """
    n = len(regs)
    table = []
    for start in range(n):
        for step in range(n):
            cursor = (start + step) % n
            if (regs[cursor] >= FIRST_FP_REG) == fp:
                table.append((regs[cursor], (cursor + 1) % n))
                break
        else:
            table.append((regs[0], start))
    return table


_WORD_POOL = _pool(_LINE_WORDS)


@dataclass
class _BranchSite:
    """One static conditional branch site."""

    pc: int
    target: int
    is_loop: bool
    bias: float
    trip: int
    count: int = 0


class SyntheticTraceGenerator:
    """Deterministic synthetic instruction stream for one thread.

    Parameters
    ----------
    profile:
        The workload profile to synthesise.
    seed:
        Stream seed; same (profile, seed, thread) -> same stream.
    thread:
        Hardware thread identifier; offsets the PC and address spaces so
        SMT pairs do not trivially share cache lines or predictor entries.
    page_bytes:
        Page size assumed for TLB-pressure address generation (should
        match the simulated TLB's page size).
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        seed: int = 0,
        thread: int = 0,
        page_bytes: int = 8192,
    ):
        self.profile = profile
        self.seed = seed
        self.thread = thread
        self.page_bytes = page_bytes
        self._rng = rng = random.Random(f"{profile.name}/{seed}/{thread}")
        self._random = rng.random
        self._getrandbits = rng.getrandbits
        self._emitted = 0
        self._mix = profile.mix.cumulative
        self._pc_base = pc_base = (thread + 1) << 28
        self._next_pc = pc_base
        self._code_limit = pc_base + profile.branches.code_bytes

        # --- control ---------------------------------------------------------
        # the constructor's draws are part of the stream: branch sites
        # first, then load sites
        br = profile.branches
        self._indirect_frac = br.indirect_frac
        self._sites: List[_BranchSite] = []
        for i in range(br.num_sites):
            is_loop = rng.random() < br.loop_site_frac
            bias = rng.uniform(br.random_bias_lo, br.random_bias_hi)
            # half the data-dependent sites are biased not-taken: real
            # code has both polarities, so "predict taken" is no free
            # lunch (a trained predictor learns either direction)
            if rng.random() < 0.5:
                bias = 1.0 - bias
            trip = max(1, round(rng.gauss(br.loop_trip, br.loop_trip / 4)))
            self._sites.append(_BranchSite(
                pc=pc_base + 0x100000 + i * 4,
                target=pc_base + 0x200000 + i * 4,
                is_loop=is_loop, bias=bias, trip=trip,
            ))
        self._site_pool = _pool(len(self._sites))
        # static indirect-control sites: stable PCs and targets so the
        # BTB and RAS see realistic, learnable behaviour
        self._call_sites = [
            (pc_base + 0x300000 + i * 4, pc_base + 0x310000 + i * 64)
            for i in range(_CONTROL_SITES)
        ]
        self._jump_sites = [
            (pc_base + 0x320000 + i * 4, pc_base + 0x330000 + i * 64)
            for i in range(_CONTROL_SITES)
        ]
        self._return_pcs = [
            pc_base + 0x340000 + i * 4 for i in range(_CONTROL_SITES)
        ]
        self._control_pool = _pool(_CONTROL_SITES)
        #: ground-truth call stack so RETURN targets match CALL sites
        self._call_stack: List[int] = []

        # --- memory ----------------------------------------------------------
        mem = profile.memory
        # static load sites: stable PCs so the store-wait predictor can
        # learn; a fraction of the sites read recently stored data
        self._load_sites = [
            (pc_base + 0x360000 + i * 4, rng.random() < mem.alias_site_frac)
            for i in range(_LOAD_SITES)
        ]
        self._load_pool = _pool(_LOAD_SITES)
        self._recent_store_addrs: List[int] = []
        # four locality regions: random words in a hot and a warm pool; a
        # page-dwelling walk over a cold footprint far larger than the L2
        # (a new random page every ``page_dwell`` accesses, so TLB misses
        # come about once per hop while cache misses stay high); and a
        # sequential stream (one compulsory miss per line)
        addr_base = (thread + 1) << 34
        self._hot = (addr_base, *_pool(max(1, mem.hot_bytes // _LINE_BYTES)))
        self._warm = (
            addr_base + (1 << 30), *_pool(max(1, mem.warm_bytes // _LINE_BYTES))
        )
        self._cold_base = addr_base + (2 << 30)
        self._cold_pages = _pool(max(1, mem.cold_pages))
        self._cold_lines = _pool(max(1, page_bytes // _LINE_BYTES))
        self._cold_dwell = max(1, mem.page_dwell)
        self._cold_page = self._cold_base
        self._cold_left = 0
        self._stream_addr = addr_base + (3 << 30)
        self._stream_stride = mem.stream_stride
        self._hot_cum = mem.hot_frac
        self._warm_cum = self._hot_cum + mem.warm_frac
        self._cold_cum = self._warm_cum + mem.cold_frac

        # --- dependencies ----------------------------------------------------
        deps = profile.deps
        self._strand_pool = _pool(deps.strands)
        #: latest architectural destination of each independent strand
        self._strand_last: List[Optional[int]] = [None] * deps.strands
        self._recent_dsts: List[int] = []
        self._globals = list(range(1, 1 + deps.num_globals))
        self._global_pool = _pool(len(self._globals))
        dst_regs = [
            r for r in range(8, NUM_ARCH_REGS)
            if r not in self._globals and r != LINK_REG
        ]
        self._dst_int = _dst_table(dst_regs, fp=False)
        self._dst_fp = _dst_table(dst_regs, fp=True)
        self._dst_cursor = 0
        self._global_frac = deps.global_frac
        self._chain_cum = deps.global_frac + deps.chain_frac
        self._far_frac = deps.far_frac
        self._far_lo = deps.far_lo
        self._far_pool = _pool(deps.far_hi - deps.far_lo + 1)
        self._near_lambd = 1.0 / deps.near_mean
        self._two_src_frac = deps.two_src_frac
        self._burst_frac = deps.fanout_burst_frac
        self._burst_len = deps.fanout_burst_len
        self._burst_reg: Optional[int] = None
        self._burst_left = 0

    # ------------------------------------------------------------ the engine

    @property
    def emitted(self) -> int:
        """Micro-ops generated so far.  A generator built with the same
        ``(profile, seed, thread, page_bytes)`` and fast-forwarded by this
        count continues the stream exactly (the verification oracle
        relies on this)."""
        return self._emitted

    @property
    def name(self) -> str:
        """The engine name (the profile it synthesises)."""
        return self.profile.name

    def clone(self) -> "SyntheticTraceGenerator":
        """A fresh generator with the same identity, at stream start.

        ``clone().fast_forward(self.emitted)`` reproduces this
        generator's position exactly — the determinism contract every
        :class:`~repro.scenarios.base.WorkloadEngine` implements and the
        verification oracle relies on.
        """
        return SyntheticTraceGenerator(
            self.profile,
            seed=self.seed,
            thread=self.thread,
            page_bytes=self.page_bytes,
        )

    def fast_forward(self, count: int) -> None:
        """Advance the stream by ``count`` ops, discarding them."""
        next_op = self.next_op
        for _ in range(count):
            next_op()

    def stream(self) -> Iterator[MicroOp]:
        """An infinite iterator over the instruction stream."""
        next_op = self.next_op
        while True:
            yield next_op()

    def __iter__(self) -> Iterator[MicroOp]:
        return self.stream()

    # --------------------------------------------------------------- next op

    def next_op(self) -> MicroOp:
        """Generate the next micro-op of the stream."""
        self._emitted += 1
        random = self._random
        grb = self._getrandbits
        op = _new_op(MicroOp)

        if not self._emitted % _GLOBAL_REFRESH:
            n, k = self._global_pool
            r = grb(k)
            while r >= n:
                r = grb(k)
            _set_dict(op, "__dict__", {
                "pc": self._advance_pc(), "opclass": _INT_ALU,
                "srcs": (ZERO_REG,), "dst": self._globals[r],
                "address": None, "taken": False, "target": None,
            })
            return op

        x = random()
        for cum, opclass in self._mix:
            if x <= cum:
                break

        if opclass is _BRANCH:
            if random() < self._indirect_frac:
                return self._indirect(op)
            n, k = self._site_pool
            r = grb(k)
            while r >= n:
                r = grb(k)
            site = self._sites[r]
            if site.is_loop:
                # taken ``trip`` times, then one not-taken exit
                site.count += 1
                taken = site.count <= site.trip
                if not taken:
                    site.count = 0
            else:
                taken = random() < site.bias
            _set_dict(op, "__dict__", {
                "pc": site.pc, "opclass": _BRANCH,
                "srcs": (self._source(None),), "dst": None,
                "address": None, "taken": taken, "target": site.target,
            })
            return op

        if opclass is _MEM_BARRIER or opclass is _NOP:
            _set_dict(op, "__dict__", {
                "pc": self._advance_pc(), "opclass": opclass, "srcs": (),
                "dst": None, "address": None, "taken": False, "target": None,
            })
            return op

        n, k = self._strand_pool
        strand = grb(k)
        while strand >= n:
            strand = grb(k)

        if opclass is _STORE:
            address = self._data_address()
            stores = self._recent_store_addrs
            stores.append(address)
            if len(stores) > _RECENT_STORES:
                stores.pop(0)
            srcs = (self._source(strand), self._address_base(strand))
            pc = self._next_pc  # _advance_pc, inlined on the hot paths
            self._next_pc = pc + 4 if pc + 4 < self._code_limit else self._pc_base
            _set_dict(op, "__dict__", {
                "pc": pc, "opclass": _STORE, "srcs": srcs,
                "dst": None, "address": address, "taken": False,
                "target": None,
            })
            return op

        if opclass is _LOAD:
            table = self._dst_int if random() < 0.5 else self._dst_fp
            dst, self._dst_cursor = table[self._dst_cursor]
            n, k = self._load_pool
            r = grb(k)
            while r >= n:
                r = grb(k)
            pc, alias_prone = self._load_sites[r]
            stores = self._recent_store_addrs
            if alias_prone and stores and random() < 0.8:
                n, k = _pool(len(stores))
                r = grb(k)
                while r >= n:
                    r = grb(k)
                address = stores[r]
            else:
                address = self._data_address()
            # address base: usually a global/stable pointer so loads can
            # issue early (real array walks index off long-lived bases)
            srcs = (self._address_base(strand),)
            fields = {
                "pc": pc, "opclass": _LOAD, "srcs": srcs, "dst": dst,
                "address": address, "taken": False, "target": None,
            }
        else:
            # compute: the first source carries the strand's serial
            # chain; the second is where broadcast (fan-out burst)
            # values are consumed
            first = self._source(strand)
            if random() < self._two_src_frac:
                if self._burst_left > 0 and self._burst_reg is not None:
                    self._burst_left -= 1
                    srcs = (first, self._burst_reg)
                else:
                    srcs = (first, self._source(None))
            else:
                srcs = (first,)
            table = self._dst_fp if opclass in _FP_CLASSES else self._dst_int
            dst, self._dst_cursor = table[self._dst_cursor]
            pc = self._next_pc  # _advance_pc, inlined on the hot paths
            self._next_pc = pc + 4 if pc + 4 < self._code_limit else self._pc_base
            fields = {
                "pc": pc, "opclass": opclass, "srcs": srcs,
                "dst": dst, "address": None, "taken": False, "target": None,
            }

        # record the destination (loads and compute alike)
        self._strand_last[strand] = dst
        recent = self._recent_dsts
        recent.append(dst)
        if len(recent) > _RECENT_DSTS:
            del recent[:_RECENT_DSTS // 2]
        # a broadcast value keeps its consumers until the burst drains;
        # a new burst only starts once the previous one is exhausted
        if self._burst_left == 0 and random() < self._burst_frac:
            self._burst_reg = dst
            self._burst_left = self._burst_len
        _set_dict(op, "__dict__", fields)
        return op

    # --------------------------------------------------------------- helpers

    def _indirect(self, op: MicroOp) -> MicroOp:
        """Fill ``op`` as a call, a return (matching the call stack) or a
        direct jump."""
        grb = self._getrandbits
        n, k = self._control_pool
        stack = self._call_stack
        if stack and (len(stack) >= 8 or self._random() < 0.5):
            target = stack.pop()
            r = grb(k)
            while r >= n:
                r = grb(k)
            _set_dict(op, "__dict__", {
                "pc": self._return_pcs[r], "opclass": _RETURN,
                "srcs": (LINK_REG,), "dst": None, "address": None,
                "taken": True, "target": target,
            })
            return op
        call = self._random() < 0.7
        r = grb(k)
        while r >= n:
            r = grb(k)
        if call:
            pc, target = self._call_sites[r]
            stack.append(pc + 4)
        else:
            pc, target = self._jump_sites[r]
        _set_dict(op, "__dict__", {
            "pc": pc, "opclass": _CALL if call else _JUMP, "srcs": (),
            "dst": LINK_REG if call else None, "address": None,
            "taken": True, "target": target,
        })
        return op

    def _advance_pc(self) -> int:
        """The next sequential PC.

        The linear region stays bounded so the I-side footprint stays
        modest (hot Spec95 loops live comfortably in a 64 KB L1I);
        icache-hostile profiles widen it via ``branches.code_bytes``.
        """
        pc = self._next_pc
        npc = pc + 4
        self._next_pc = npc if npc < self._code_limit else self._pc_base
        return pc

    def _source(self, strand: Optional[int]) -> int:
        """A source register: a global, the strand's chain (or the last
        producer), or a recent producer at a near or far distance."""
        random = self._random
        roll = random()
        if roll < self._global_frac:
            grb = self._getrandbits
            n, k = self._global_pool
            r = grb(k)
            while r >= n:
                r = grb(k)
            return self._globals[r]
        recent = self._recent_dsts
        if roll < self._chain_cum:
            if strand is not None:
                last = self._strand_last[strand]
                if last is not None:
                    return last
            if recent:
                return recent[-1]
        if not recent:
            return ZERO_REG
        if random() < self._far_frac:
            grb = self._getrandbits
            n, k = self._far_pool
            r = grb(k)
            while r >= n:
                r = grb(k)
            distance = self._far_lo + r
        else:
            distance = 1 + int(-log(1.0 - random()) / self._near_lambd)
        n = len(recent)
        return recent[-distance if distance < n else -n]

    def _address_base(self, strand: int) -> int:
        """Source register for a memory address computation."""
        if self._random() < 0.6:
            grb = self._getrandbits
            n, k = self._global_pool
            r = grb(k)
            while r >= n:
                r = grb(k)
            return self._globals[r]
        return self._source(strand)

    def _data_address(self) -> int:
        """A word address in one of the four locality regions."""
        grb = self._getrandbits
        roll = self._random()
        if roll <= self._hot_cum:
            base, n, k = self._hot
        elif roll <= self._warm_cum:
            base, n, k = self._warm
        elif roll <= self._cold_cum:
            if self._cold_left <= 0:
                n, k = self._cold_pages
                page = grb(k)
                while page >= n:
                    page = grb(k)
                self._cold_page = self._cold_base + page * self.page_bytes
                self._cold_left = self._cold_dwell
            self._cold_left -= 1
            base = self._cold_page
            n, k = self._cold_lines
        else:
            self._stream_addr += self._stream_stride
            return self._stream_addr
        line = grb(k)
        while line >= n:
            line = grb(k)
        n, k = _WORD_POOL
        word = grb(k)
        while word >= n:
            word = grb(k)
        return base + _LINE_BYTES * line + 8 * word


def build_engine_for(
    entry, seed: int = 0, thread: int = 0, page_bytes: int = 8192
):
    """Instantiate the uop supply for one hardware thread.

    ``entry`` is whatever ``workload_profiles`` resolved: an
    :class:`~repro.scenarios.base.EngineSpec` (anything with
    ``build_engine``) or a plain :class:`WorkloadProfile`, which builds
    a :class:`SyntheticTraceGenerator`.  Both kernels' simulators and
    the fuzzer's reproducers dispatch through here; it is exported as
    :func:`repro.scenarios.build_engine_for`.
    """
    if hasattr(entry, "build_engine"):
        return entry.build_engine(
            seed=seed, thread=thread, page_bytes=page_bytes
        )
    return SyntheticTraceGenerator(
        entry, seed=seed, thread=thread, page_bytes=page_bytes
    )
