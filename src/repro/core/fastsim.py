"""The optimized simulator kernel (the ``optimized`` backend).

Same machine, same cycle-for-cycle behaviour, different Python.  The
reference :class:`~repro.core.pipeline.Simulator` spends most of its
time on attribute chasing, enum hashing, per-probe ``is None`` tests and
method-call overhead inside ``tick()``.  This module removes that
overhead without changing a single modelled event:

* **One compiled run loop.**  The whole ``run()`` — events, retire,
  execute, issue, insert, rename, fetch, deadlock detection — is a
  single function compiled from the :data:`_RUN_TEMPLATE` source below,
  so every per-cycle quantity (config scalars, stats dicts, register
  file lists, bound methods) is hoisted into a local exactly once per
  ``run()`` call instead of being re-resolved millions of times.
* **Probe-variant compilation.**  Lines tagged with a trailing ``#@``
  comment are observability probes.  At import time the template is
  compiled twice: once verbatim (the *probe* variant used when an
  :class:`~repro.obs.bus.EventBus` is attached) and once with every
  tagged line stripped (the *no-probe* variant).  ``attach_obs``
  selects the variant, so detached runs contain no probe test at all —
  not even the ``is None`` check the reference pays per site.
* **Flattened hot paths.**  Event dispatch, retire, the operand fault
  check, completion, wakeup/select, IQ insert and rename are inlined;
  instruction latencies come from an ``id()``-keyed table
  (:data:`_LAT_ID`) instead of enum-hashed dict lookups; ``DynInst``
  construction bypasses dataclass ``__init__`` by building the
  instance ``__dict__`` directly (instances remain genuine
  ``DynInst`` objects).
* **Batched wakeup/select.**  Selection and wakeup publication are
  merged into one pass per cluster.  This is safe because a published
  speculative availability is ``cycle + IQ->EX + latency`` with
  ``latency >= 1``, which can never satisfy this cycle's readiness
  horizon of ``cycle + IQ->EX`` — so no same-cycle ordering change is
  possible.

Rare paths (flushes, memory traps, cache access, DRA operand location,
indirect control at fetch) delegate to the inherited reference methods;
local mirrors of shared counters are synchronised around those calls.

Equivalence is enforced by the backend test matrix: golden pins,
differential laws, fuzz smoke and Hypothesis properties all require
bit-identical retire streams and ``CoreStats`` against ``reference``
(see ``docs/kernel.md``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import LoadRecovery
from repro.core.memdep import MemDepPolicy
from repro.core.pipeline import (
    Simulator,
    _DEADLOCK_WINDOW,
    _FRONTEND_LIMIT,
)
from repro.core.stats import CoreStats, OperandSource, ReissueCause
from repro.errors import ConfigError, SimulationHangError
from repro.isa import DynInst, OpClass
from repro.isa.instructions import _dyninst_uid
from repro.isa.opclasses import DEFAULT_LATENCIES
from repro.isa.registers import ZERO_REG
from repro.obs.events import (
    BranchOutcomeEvent,
    CompleteEvent,
    ConfirmEvent,
    CycleEvent,
    ExecuteEvent,
    FetchEvent,
    IQInsertEvent,
    IssueEvent,
    LoadResolvedEvent,
    OperandEvent,
    ReissueEvent,
    RenameEvent,
    RetireEvent,
    WritebackEvent,
)
from repro.smt import choose_fetch_thread

#: Execution latency by ``id(opclass)`` — identity-keyed to avoid the
#: Python-level ``Enum.__hash__`` on every instruction.
_LAT_ID = {id(opclass): lat for opclass, lat in DEFAULT_LATENCIES.items()}

#: Select-scan memo: the earliest cycle at which an IQ entry could
#: possibly become ready, derived from a *published* (non-``None``)
#: source availability that missed the readiness horizon.  Sound
#: because a published ``spec_avail`` value never decreases for a live
#: register version (publications are monotonically non-decreasing per
#: version; retractions go to ``None``, which can only delay readiness,
#: and ``make_ready`` runs only at construction).  Installed as a class
#: attribute so instances built by the reference ``__init__`` read 0.
DynInst._fs_block = 0

#: Prototype ``__dict__`` for fetch-built ``DynInst`` instances; copied
#: and patched per instruction (cheaper than a 30-key dict display).
_DYNINST_PROTO = {
    "op": None, "thread": 0, "uid": 0,
    "src_pregs": None, "dst_preg": None, "prev_dst_preg": None,
    "cluster": -1, "fetch_cycle": 0, "rename_cycle": -1,
    "insert_cycle": -1, "issue_cycle": -1, "first_issue_cycle": -1,
    "exec_start_cycle": -1, "complete_cycle": -1, "retire_cycle": -1,
    "issue_count": 0, "executed": False, "confirmed": False,
    "squashed": False, "min_reissue_cycle": 0, "in_iq": False,
    "memdep_wait": False, "preread": None, "payload_valid": None,
    "operand_counted": None, "dcache_hit": None, "l2_hit": None,
    "dtlb_hit": None, "bank_conflict": False, "predicted_taken": None,
    "btb_hit": None, "mispredicted": False, "_fs_block": 0,
}


_RUN_TEMPLATE = '''
def _compiled_run(sim, instructions, warmup, max_cycles):
    if instructions < 1:
        raise ConfigError("must simulate at least one instruction")

    # ---- hoisted configuration scalars -----------------------------------
    config = sim.config
    retire_width = config.retire_width
    rename_width = config.rename_width
    fetch_width = config.fetch_width
    iq_ex = config.iq_ex
    fb_depth = config.fb_depth
    iq_feedback = config.iq_feedback_delay
    confirm_delay = iq_feedback + config.iq_clear_cycles
    branch_feedback = config.branch_feedback_delay
    wake_lead = config.load_fill_wake_lead
    rob_entries = config.rob_entries
    rf_read_ports = config.rf_read_ports
    num_clusters = config.num_clusters
    hit_latency = config.hierarchy.l1d.hit_latency
    ready_offset = config.fetch_depth + config.rename_offset
    insert_delay = config.dec_iq - config.rename_offset
    recovery = config.load_recovery
    stall_recovery = recovery is LR_STALL
    refetch_recovery = recovery is LR_REFETCH
    ssr_recovery = recovery is LR_SSR
    # STALL and SSR both withhold the optimistic wakeup at load issue
    hold_recovery = stall_recovery or ssr_recovery
    ssr_threshold = config.ssr_threshold
    port_arbitration = config.ports.arbitration
    share_ports = port_arbitration == "operand_share"
    banked_ports = port_arbitration == "banked"
    port_banks = config.ports.banks
    bank_ports = rf_read_ports // port_banks
    memdep_cfg = config.memdep
    memdep_on = memdep_cfg is not None
    memdep_conservative = memdep_on and memdep_cfg.policy is MD_CONSERVATIVE
    memdep_predict = memdep_on and memdep_cfg.policy is MD_PREDICT
    dep_slotting = config.slotting == "dependence"
    slot_limit = 2 * config.iq_entries // num_clusters
    icount_policy = config.fetch_policy == "icount"

    # ---- hoisted objects and bound methods -------------------------------
    stats = sim.stats
    threads = sim.threads
    regfile = sim.regfile
    spec_avail = regfile.spec_avail
    avail = regfile.avail
    writeback = regfile.writeback
    free_pregs = regfile._free
    free_append = free_pregs.append
    is_free = regfile._is_free
    iq = sim.iq
    iq_capacity = iq.capacity
    pools = iq._unissued
    push_unissued = iq._push_unissued
    hierarchy = sim.hierarchy
    hierarchy_fetch = hierarchy.fetch
    store_wait = sim.store_wait
    sw_tick = None if store_wait is None else store_wait.tick
    events = sim._events
    ev_pop = events.pop
    ev_get = events.get
    exec_pipe = sim._exec_pipe
    ex_pop = exec_pipe.pop
    ex_get = exec_pipe.get
    producer = sim._producer
    lp = sim.line_predictor
    lp_bubble = 0 if lp is None else lp.config.bubble
    lp_observe = None if lp is None else lp.observe
    predictor = sim.predictor
    pred_predict = predictor.predict
    pred_update = predictor.update
    reissues = stats.reissues
    operand_reads = stats.operand_reads
    gap_append = stats.operand_gap_samples.append
    retire_hook = sim.retire_hook
    dra = sim.dra
    dra_on = dra is not None
    shadow_fb = False
    dra_frontend_stall = 0
    dra_on_writeback = None
    dra_try_preread = None
    dra_on_allocate = None
    if dra_on:
        shadow_fb = dra.config.shadow_fb_decrement
        dra_frontend_stall = dra.config.frontend_stall
        dra_on_writeback = dra.on_writeback
        dra_try_preread = dra.try_preread
        dra_on_allocate = dra.on_allocate
    locate_operands = sim._locate_operands
    access_memory = sim._access_memory
    fetch_control = sim._fetch_control
    btb_redirect = sim._btb_redirect
    obs = sim.obs                                                        #@
    emit = obs.emit                                                      #@

    # ---- per-thread hoists (stable object references) --------------------
    t_replay = [t.replay for t in threads]
    # every WorkloadEngine's stream() is `while True: yield next_op()`
    # (the EngineSpec contract), so calling next_op directly skips one
    # generator-frame resume per fetched op
    t_ops = [t.generator.next_op for t in threads]

    # ---- local mirrors of shared counters --------------------------------
    # Synchronised back at every delegated flush/trap, at the deadlock
    # exit and in the final writeback.
    cycle = sim.cycle
    inflight = sim._inflight
    cluster_rr = sim._cluster_rr
    last_fetch_tid = sim._last_fetch_tid
    frontend_stall_until = sim._frontend_stall_until
    iq_count = iq.count
    iq_waiting = iq.issued_waiting
    retired_total = stats.retired
    cycles_acc = 0
    iq_occ_acc = 0
    iq_wait_acc = 0
    issues_acc = 0
    first_issues_acc = 0
    regfile_reads_acc = 0
    load_miss_acc = 0
    dependent_acc = 0
    operand_miss_acc = 0

    target = warmup + instructions
    last_retired = -1
    last_progress_cycle = 0
    warmed = warmup == 0
    if warmed:
        stats.start_measurement()

    try:
        while retired_total < target:
            if max_cycles is not None and cycle >= max_cycles:
                break
            sim.cycle = cycle                                            #@

            # ======================================================= events
            ev_list = ev_pop(cycle, None)
            if ev_list is not None:
                for event in ev_list:
                    kind = event[0]
                    if kind == "confirm":
                        inst = event[1]
                        if not (inst.squashed or inst.issue_count != event[2]
                                or not inst.executed):
                            inst.confirmed = True
                            inst.in_iq = False
                            iq_count -= 1
                            iq_waiting -= 1
                            threads[inst.thread].iq_count -= 1
                            emit(ConfirmEvent(                           #@
                                cycle=cycle, uid=inst.uid,               #@
                                thread=inst.thread,                      #@
                            ))                                           #@
                    elif kind == "wb":
                        inst = event[1]
                        if not inst.squashed:
                            preg = event[2]
                            writeback[preg] = cycle
                            emit(WritebackEvent(cycle=cycle, preg=preg)) #@
                            if dra_on:
                                dra_on_writeback(preg)
                    elif kind == "spec":
                        if not event[1].squashed:
                            spec_avail[event[2]] = event[3]
                    elif kind == "reissue":
                        inst = event[1]
                        if not (inst.squashed or inst.issue_count != event[2]
                                or inst.executed):
                            if not inst.confirmed:
                                iq_waiting -= 1
                                push_unissued(inst)
                            dst = inst.dst_preg
                            if dst is not None and avail[dst] is None:
                                spec_avail[dst] = None
                    elif kind == "flush" or kind == "memtrap":
                        # delegated path mutates mirrored counters:
                        # write back, call, reload
                        sim.cycle = cycle
                        sim._inflight = inflight
                        iq.count = iq_count
                        iq.issued_waiting = iq_waiting
                        if kind == "flush":
                            sim._ev_flush(event[1], event[2], cycle)
                        else:
                            sim._ev_memtrap(event[1], event[2], cycle)
                        inflight = sim._inflight
                        iq_count = iq.count
                        iq_waiting = iq.issued_waiting
                    else:
                        raise RuntimeError(
                            "unknown event kind %r" % (kind,)
                        )

            # ======================================================= retire
            budget = retire_width
            for thread in threads:
                rob = thread.rob
                if budget <= 0 or not rob:
                    continue
                tstats = thread.stats
                sq = thread.store_queue
                while budget > 0 and rob:
                    inst = rob[0]
                    if not (inst.executed and inst.confirmed):
                        break
                    dst = inst.dst_preg
                    if dst is not None:
                        a = avail[dst]
                        if a is None or a > cycle:
                            break
                    rob.popleft()
                    inflight -= 1
                    if sq is not None and inst.op.opclass is OC_STORE:
                        # StoreQueue.remove via identity scan: uids are
                        # unique, so dataclass equality == identity here
                        stores = sq._stores
                        for spos, s in enumerate(stores):
                            if s is inst:
                                del stores[spos]
                                break
                    inst.retire_cycle = cycle
                    prev = inst.prev_dst_preg
                    if prev is not None:
                        producer[prev] = None
                        # keep the guard mirror coherent: delegated
                        # flushes free through PhysRegFile.free()
                        is_free[prev] = True
                        free_append(prev)
                    tstats.retired += 1
                    retired_total += 1
                    budget -= 1
                    emit(RetireEvent(                                    #@
                        cycle=cycle, uid=inst.uid, thread=inst.thread,   #@
                    ))                                                   #@
                    if retire_hook is not None:
                        retire_hook(inst)

            # ====================================================== execute
            ex_list = ex_pop(cycle, None)
            if ex_list is not None:
                for inst in ex_list:
                    if inst.squashed or inst.executed:
                        continue
                    inst.exec_start_cycle = cycle
                    src_pregs = inst.src_pregs
                    fault = None
                    for preg in src_pregs:
                        value_time = avail[preg]
                        if value_time is None or value_time > cycle:
                            p = producer[preg]
                            if p is not None and p.op.opclass is OC_LOAD \
                                    and p.executed:
                                fault = RC_LOAD_MISS
                                load_miss_acc += 1
                            else:
                                fault = RC_DEPENDENT
                                dependent_acc += 1
                            break
                    if fault is None:
                        if dra_on:
                            if not locate_operands(inst, cycle):
                                fault = RC_OPERAND_MISS
                                operand_miss_acc += 1
                                fsu = cycle + dra_frontend_stall
                                if fsu > frontend_stall_until:
                                    frontend_stall_until = fsu
                        else:
                            for preg in src_pregs:
                                regfile_reads_acc += 1
                                emit(OperandEvent(                       #@
                                    cycle=cycle, uid=inst.uid,           #@
                                    thread=inst.thread, preg=preg,       #@
                                    source="regfile",                    #@
                                ))                                       #@
                    if fault is not None:
                        if fault is not RC_OPERAND_MISS and shadow_fb:
                            sim._shadow_fb_reads(inst, cycle)
                        emit(ExecuteEvent(                               #@
                            cycle=cycle, uid=inst.uid,                   #@
                            thread=inst.thread, epoch=inst.issue_count,  #@
                            ok=False,                                    #@
                        ))                                               #@
                        emit(ReissueEvent(                               #@
                            cycle=cycle, uid=inst.uid,                   #@
                            thread=inst.thread, cause=fault.value,       #@
                        ))                                               #@
                        t = cycle + iq_feedback
                        lst = ev_get(t)
                        if lst is None:
                            events[t] = [("reissue", inst, inst.issue_count)]
                        else:
                            lst.append(("reissue", inst, inst.issue_count))
                        continue
                    emit(ExecuteEvent(                                   #@
                        cycle=cycle, uid=inst.uid, thread=inst.thread,   #@
                        epoch=inst.issue_count, ok=True,                 #@
                    ))                                                   #@

                    # -------- completion (reference _complete, inlined)
                    inst.executed = True
                    op = inst.op
                    opclass = op.opclass
                    latency = _LAT_ID[id(opclass)]
                    is_load = opclass is OC_LOAD
                    is_store = opclass is OC_STORE
                    if is_load or is_store:
                        latency += access_memory(inst, cycle)
                    dst = inst.dst_preg
                    avail_time = cycle + latency
                    inst.complete_cycle = avail_time
                    emit(CompleteEvent(                                  #@
                        cycle=cycle, uid=inst.uid, thread=inst.thread,   #@
                        avail_cycle=avail_time,                          #@
                    ))                                                   #@
                    if is_load:                                          #@
                        emit(LoadResolvedEvent(                          #@
                            cycle=cycle, uid=inst.uid,                   #@
                            thread=inst.thread,                          #@
                            hit=(bool(inst.dcache_hit)                   #@
                                 and bool(inst.dtlb_hit)                 #@
                                 and not inst.bank_conflict),            #@
                            speculated=(not hold_recovery                #@
                                        and dst is not None),            #@
                            latency=latency,                             #@
                        ))                                               #@
                    if dst is not None:
                        avail[dst] = avail_time
                        t = avail_time + fb_depth
                        lst = ev_get(t)
                        if lst is None:
                            events[t] = [("wb", inst, dst)]
                        else:
                            lst.append(("wb", inst, dst))
                    if len(src_pregs) == 2:
                        d = avail[src_pregs[0]] - avail[src_pregs[1]]
                        gap_append(d if d >= 0 else -d)
                    else:
                        gap_append(0)
                    if is_load and dst is not None:
                        notify = cycle + iq_feedback
                        publish = avail_time - wake_lead
                        if publish < notify:
                            publish = notify
                        if hold_recovery:
                            if ssr_recovery:
                                # selective stall: release the held
                                # dependents up to ssr_threshold cycles
                                # ahead of the STALL machine's point
                                publish -= ssr_threshold
                                if publish < notify:
                                    publish = notify
                            lst = ev_get(publish)
                            if lst is None:
                                events[publish] = [
                                    ("spec", inst, dst, avail_time)
                                ]
                            else:
                                lst.append(("spec", inst, dst, avail_time))
                        elif not (bool(inst.dcache_hit)
                                  and bool(inst.dtlb_hit)
                                  and not inst.bank_conflict):
                            stats.load_misspeculations += 1
                            lst = ev_get(notify)
                            if lst is None:
                                events[notify] = [("spec", inst, dst, None)]
                            else:
                                lst.append(("spec", inst, dst, None))
                            lst = ev_get(publish)
                            if lst is None:
                                events[publish] = [
                                    ("spec", inst, dst, avail_time)
                                ]
                            else:
                                lst.append(("spec", inst, dst, avail_time))
                            if refetch_recovery:
                                lst = ev_get(notify)
                                lst.append(
                                    ("flush", threads[inst.thread], inst)
                                )
                    if memdep_on and is_store:
                        # reference _find_reorder_victim, inlined
                        word = op.address >> 3
                        thread = threads[inst.thread]
                        inst_uid = inst.uid
                        for r in thread.rob:
                            if r.uid <= inst_uid \
                                    or r.op.opclass is not OC_LOAD:
                                continue
                            if r.executed and r.op.address >> 3 == word:
                                if store_wait is not None:
                                    store_wait.train(r.op.pc)
                                t = cycle + iq_feedback
                                lst = ev_get(t)
                                if lst is None:
                                    events[t] = [
                                        ("memtrap", inst, r.uid - 1)
                                    ]
                                else:
                                    lst.append(("memtrap", inst, r.uid - 1))
                                break
                    thread = threads[inst.thread]
                    if thread.waiting_branch is inst:
                        thread.waiting_branch = None
                        fbu = cycle + branch_feedback
                        if fbu > thread.fetch_blocked_until:
                            thread.fetch_blocked_until = fbu
                    t = cycle + confirm_delay
                    lst = ev_get(t)
                    if lst is None:
                        events[t] = [("confirm", inst, inst.issue_count)]
                    else:
                        lst.append(("confirm", inst, inst.issue_count))

            # ======================================= issue (wakeup + select)
            ports_before = iq.port_stalls                                #@
            horizon = cycle + iq_ex
            ports_left = -1 if dra_on else rf_read_ports
            if share_ports:
                read_pregs = set()
            elif banked_ports:
                bank_left = [bank_ports] * port_banks
            exec_entry = None
            for pool in pools:
                if not pool:
                    continue
                chosen = None
                for pos, cand in enumerate(pool):
                    if cand.min_reissue_cycle > cycle \
                            or cand._fs_block > cycle:
                        continue
                    if cand.memdep_wait:
                        sq = threads[cand.thread].store_queue
                        if sq is not None and (
                            sq.has_older_unexecuted(cand.uid)
                            if memdep_conservative
                            else sq.has_older_unissued(cand.uid)
                        ):
                            continue
                    ok = True
                    for preg in cand.src_pregs:
                        a = spec_avail[preg]
                        if a is None:
                            ok = False
                            break
                        if a > horizon:
                            ok = False
                            # published but too late: cannot become
                            # ready before a - iq_ex, skip until then
                            b = a - iq_ex
                            if b > cycle:
                                cand._fs_block = b
                            break
                    if ok:
                        chosen = cand
                        break
                if chosen is None:
                    continue
                if ports_left >= 0:
                    if share_ports:
                        new_pregs = []
                        for preg in chosen.src_pregs:
                            if preg not in read_pregs \
                                    and preg not in new_pregs:
                                new_pregs.append(preg)
                        if len(new_pregs) > ports_left:
                            iq.port_stalls += 1
                            continue
                        ports_left -= len(new_pregs)
                        read_pregs.update(new_pregs)
                    elif banked_ports:
                        demand = [0] * port_banks
                        over = False
                        for preg in chosen.src_pregs:
                            b = preg % port_banks
                            demand[b] += 1
                            if demand[b] > bank_left[b]:
                                over = True
                        if over:
                            iq.port_stalls += 1
                            continue
                        for b in range(port_banks):
                            bank_left[b] -= demand[b]
                    else:
                        needed = len(chosen.src_pregs)
                        if needed > ports_left:
                            iq.port_stalls += 1
                            continue
                        ports_left -= needed
                del pool[pos]
                chosen.issue_cycle = cycle
                if chosen.first_issue_cycle < 0:
                    chosen.first_issue_cycle = cycle
                epoch = chosen.issue_count + 1
                chosen.issue_count = epoch
                iq_waiting += 1
                emit(IssueEvent(                                         #@
                    cycle=cycle, uid=chosen.uid, thread=chosen.thread,   #@
                    epoch=epoch,                                         #@
                ))                                                       #@
                issues_acc += 1
                if epoch == 1:
                    first_issues_acc += 1
                dst = chosen.dst_preg
                if dst is not None:
                    cop = chosen.op.opclass
                    if cop is OC_LOAD:
                        if not hold_recovery:
                            spec_avail[dst] = (
                                horizon + _LAT_ID[id(cop)] + hit_latency
                            )
                    else:
                        spec_avail[dst] = horizon + _LAT_ID[id(cop)]
                if exec_entry is None:
                    exec_entry = ex_get(horizon)
                    if exec_entry is None:
                        exec_entry = exec_pipe[horizon] = []
                exec_entry.append(chosen)

            # ======================================================= insert
            budget = rename_width
            blocked = False
            for thread in threads:
                pipe = thread.insert_pipe
                while budget > 0 and pipe and pipe[0][0] <= cycle:
                    if iq_count >= iq_capacity:
                        blocked = True
                        break
                    inst = pipe.popleft()[1]
                    iq_count += 1
                    inst.insert_cycle = cycle
                    pool = pools[inst.cluster]
                    if not pool or pool[-1].uid < inst.uid:
                        pool.append(inst)
                    else:
                        push_unissued(inst)
                    emit(IQInsertEvent(                                  #@
                        cycle=cycle, uid=inst.uid, thread=inst.thread,   #@
                    ))                                                   #@
                    inst.in_iq = True
                    thread.iq_count += 1
                    budget -= 1
            if blocked:
                stats.iq_full_stall_cycles += 1

            # ======================================================= rename
            budget = rename_width
            blocked = False
            for thread in threads:
                pipe = thread.fetch_pipe
                if budget <= 0 or not pipe:
                    continue
                rmap = thread.rename_map.map
                sq = thread.store_queue
                rob = thread.rob
                insert_append = thread.insert_pipe.append
                while budget > 0 and pipe and pipe[0][0] <= cycle:
                    if inflight >= rob_entries:
                        blocked = True
                        break
                    inst = pipe[0][1]
                    op = inst.op
                    opclass = op.opclass
                    if opclass is OC_STORE and sq is not None \
                            and len(sq._stores) >= sq.entries:
                        stats.store_queue_full_stalls += 1
                        break
                    if opclass is OC_MEM_BARRIER and rob:
                        stats.barrier_stall_cycles += 1
                        break
                    arch_dst = op.dst
                    if arch_dst is not None and not free_pregs:
                        blocked = True
                        break
                    pipe.popleft()

                    # ------ reference _do_rename, inlined
                    inst.rename_cycle = cycle
                    src_pregs = inst.src_pregs
                    for arch in op.srcs:
                        if arch != ZERO_REG:
                            src_pregs.append(rmap[arch])
                    cluster = -1
                    if dep_slotting:
                        for preg in src_pregs:
                            p = producer[preg]
                            if p is not None and not p.executed:
                                pc = p.cluster
                                if len(pools[pc]) < slot_limit:
                                    cluster = pc
                                break
                    if cluster < 0:
                        cluster = cluster_rr
                        cluster_rr += 1
                        if cluster_rr == num_clusters:
                            cluster_rr = 0
                    inst.cluster = cluster
                    if arch_dst is not None:
                        prev = rmap[arch_dst]
                        new = free_pregs.pop()
                        is_free[new] = False
                        spec_avail[new] = None
                        avail[new] = None
                        writeback[new] = None
                        rmap[arch_dst] = new
                        inst.dst_preg = new
                        inst.prev_dst_preg = prev
                        producer[new] = inst
                        if dra_on:
                            dra_on_allocate(new)
                    if memdep_on:
                        if opclass is OC_STORE:
                            sq._stores.append(inst)
                        elif opclass is OC_LOAD:
                            if memdep_conservative:
                                inst.memdep_wait = True
                                stats.store_wait_loads += 1
                            elif memdep_predict \
                                    and store_wait.predict_wait(op.pc):
                                inst.memdep_wait = True
                                stats.store_wait_loads += 1
                    n = len(src_pregs)
                    if dra_on:
                        inst.preread = [
                            dra_try_preread(preg, cluster)
                            for preg in src_pregs
                        ]
                    else:
                        inst.preread = [False] * n
                    inst.payload_valid = [False] * n
                    inst.operand_counted = [False] * n
                    rob.append(inst)
                    inflight += 1
                    insert_append((cycle + insert_delay, inst))
                    emit(RenameEvent(                                    #@
                        cycle=cycle, uid=inst.uid, thread=inst.thread,   #@
                        arch_dst=-1 if arch_dst is None else arch_dst,   #@
                        dst_preg=(                                       #@
                            -1 if inst.dst_preg is None                  #@
                            else inst.dst_preg                           #@
                        ),                                               #@
                        prev_dst_preg=(                                  #@
                            -1 if inst.prev_dst_preg is None             #@
                            else inst.prev_dst_preg                      #@
                        ),                                               #@
                        src_pregs=tuple(src_pregs),                      #@
                        preread=tuple(inst.preread),                     #@
                    ))                                                   #@
                    budget -= 1
            if blocked:
                stats.rob_full_stall_cycles += 1

            # ======================================================== fetch
            if cycle < frontend_stall_until:
                stats.frontend_dra_stall_cycles += 1
            else:
                fthread = None
                if icount_policy:
                    best_icount = -1
                    for thread in threads:
                        if thread.waiting_branch is not None:
                            thread.stats.branch_stall_cycles += 1
                            continue
                        if thread.fetch_blocked_until > cycle:
                            continue
                        fe = len(thread.fetch_pipe) + len(thread.insert_pipe)
                        if fe >= _FRONTEND_LIMIT:
                            continue
                        ic = fe + thread.iq_count
                        if fthread is None or ic < best_icount:
                            fthread = thread
                            best_icount = ic
                else:
                    eligible = []
                    for thread in threads:
                        if thread.waiting_branch is not None:
                            thread.stats.branch_stall_cycles += 1
                            continue
                        if thread.fetch_blocked_until > cycle:
                            continue
                        fe = len(thread.fetch_pipe) + len(thread.insert_pipe)
                        if fe >= _FRONTEND_LIMIT:
                            continue
                        eligible.append(thread)
                    fthread = choose_fetch_thread(
                        eligible, config.fetch_policy, last_fetch_tid
                    )
                if fthread is not None:
                    thread = fthread
                    tid = thread.tid
                    last_fetch_tid = tid
                    replay = t_replay[tid]
                    ops_next = t_ops[tid]
                    fetch_append = thread.fetch_pipe.append
                    tstats = thread.stats
                    extra = 0
                    ready_base = cycle + ready_offset
                    for slot in range(fetch_width):
                        op = replay.popleft() if replay else ops_next()
                        inst = _new(DynInst)
                        d = _PROTO.copy()
                        d["op"] = op
                        d["thread"] = tid
                        d["uid"] = _uid_next()
                        d["fetch_cycle"] = cycle
                        d["src_pregs"] = []
                        d["preread"] = []
                        d["payload_valid"] = []
                        d["operand_counted"] = []
                        inst.__dict__ = d
                        pc = op.pc
                        if slot == 0:
                            extra = hierarchy_fetch(pc)
                            if lp_observe is not None \
                                    and thread.last_taken_pc is not None:
                                if not lp_observe(thread.last_taken_pc, pc):
                                    b = cycle + 1 + lp_bubble
                                    if b > thread.fetch_blocked_until:
                                        thread.fetch_blocked_until = b
                                thread.last_taken_pc = None
                        fetch_append((ready_base + extra, inst))
                        tstats.fetched += 1
                        emit(FetchEvent(                                 #@
                            cycle=cycle, uid=inst.uid, thread=tid,       #@
                            pc=pc, opclass=op.opclass.name.lower(),      #@
                        ))                                               #@
                        opclass = op.opclass
                        if opclass is OC_BRANCH:
                            taken = op.taken
                            predicted = pred_predict(pc)
                            pred_update(pc, taken)
                            inst.predicted_taken = predicted
                            stats.cond_branches += 1
                            if predicted != taken:
                                stats.cond_mispredicts += 1
                                inst.mispredicted = True
                            emit(BranchOutcomeEvent(                     #@
                                cycle=cycle, uid=inst.uid, thread=tid,   #@
                                pc=pc, flavor="cond", taken=taken,       #@
                                mispredicted=inst.mispredicted,          #@
                            ))                                           #@
                            if inst.mispredicted:
                                thread.waiting_branch = inst
                                break
                            if predicted:
                                btb_redirect(thread, op, cycle)
                                thread.last_taken_pc = pc
                                break
                        elif opclass is OC_CALL or opclass is OC_RETURN \
                                or opclass is OC_JUMP:
                            fetch_control(thread, inst, cycle)
                            if op.taken and not inst.mispredicted:
                                thread.last_taken_pc = pc
                            break

            # ================================================== cycle tail
            if sw_tick is not None:
                sw_tick(cycle)
            cycles_acc += 1
            iq_occ_acc += iq_count
            iq_wait_acc += iq_waiting
            emit(CycleEvent(                                             #@
                cycle=cycle,                                             #@
                branch_stall=any(                                        #@
                    t.waiting_branch is not None for t in threads        #@
                ),                                                       #@
                iq_full=iq_count >= iq_capacity,                         #@
                rob_full=inflight >= rob_entries,                        #@
                port_stalls=iq.port_stalls - ports_before,               #@
            ))                                                           #@
            cycle += 1

            # ============================================= run bookkeeping
            if not warmed and retired_total >= warmup:
                stats.cycles += cycles_acc
                cycles_acc = 0
                stats.start_measurement()
                warmed = True
            if retired_total != last_retired:
                last_retired = retired_total
                last_progress_cycle = cycle
            elif cycle - last_progress_cycle > _DEADLOCK_WINDOW:
                sim.cycle = cycle
                sim._inflight = inflight
                iq.count = iq_count
                iq.issued_waiting = iq_waiting
                snapshot = sim._hang_snapshot(last_progress_cycle)
                raise SimulationHangError(
                    "pipeline deadlock: no retire since cycle "
                    "%d (cycle=%d, retired=%d, iq=%d, inflight=%d)" % (
                        last_progress_cycle, cycle, retired_total,
                        iq_count, inflight,
                    ),
                    snapshot,
                )
    finally:
        sim.cycle = cycle
        sim._inflight = inflight
        sim._cluster_rr = cluster_rr
        sim._last_fetch_tid = last_fetch_tid
        sim._frontend_stall_until = frontend_stall_until
        iq.count = iq_count
        iq.issued_waiting = iq_waiting
        stats.cycles += cycles_acc
        stats.iq_occupancy_sum += iq_occ_acc
        stats.iq_issued_waiting_sum += iq_wait_acc
        stats.issues += issues_acc
        stats.first_issues += first_issues_acc
        # assignment, not +=: iq.port_stalls is the live counter across
        # the sampled backend's repeated run() windows
        stats.port_stalls = iq.port_stalls
        operand_reads[OS_REGFILE] += regfile_reads_acc
        reissues[RC_LOAD_MISS] += load_miss_acc
        reissues[RC_DEPENDENT] += dependent_acc
        reissues[RC_OPERAND_MISS] += operand_miss_acc
    return stats
'''


def _compile_variant(probes: bool):
    """Compile the run template with or without the ``#@`` probe lines."""
    source = _RUN_TEMPLATE
    if not probes:
        source = "\n".join(
            line for line in source.split("\n")
            if not line.rstrip().endswith("#@")
        )
    namespace = {
        "ConfigError": ConfigError,
        "SimulationHangError": SimulationHangError,
        "choose_fetch_thread": choose_fetch_thread,
        "DynInst": DynInst,
        "_new": object.__new__,
        "_uid_next": _dyninst_uid.__next__,
        "_LAT_ID": _LAT_ID,
        "_PROTO": _DYNINST_PROTO,
        "_FRONTEND_LIMIT": _FRONTEND_LIMIT,
        "_DEADLOCK_WINDOW": _DEADLOCK_WINDOW,
        "ZERO_REG": ZERO_REG,
        "OC_LOAD": OpClass.LOAD,
        "OC_STORE": OpClass.STORE,
        "OC_BRANCH": OpClass.BRANCH,
        "OC_CALL": OpClass.CALL,
        "OC_RETURN": OpClass.RETURN,
        "OC_JUMP": OpClass.JUMP,
        "OC_MEM_BARRIER": OpClass.MEM_BARRIER,
        "LR_STALL": LoadRecovery.STALL,
        "LR_REFETCH": LoadRecovery.REFETCH,
        "LR_SSR": LoadRecovery.SSR,
        "MD_CONSERVATIVE": MemDepPolicy.CONSERVATIVE,
        "MD_PREDICT": MemDepPolicy.PREDICT,
        "RC_LOAD_MISS": ReissueCause.LOAD_MISS,
        "RC_DEPENDENT": ReissueCause.DEPENDENT_INVALID,
        "RC_OPERAND_MISS": ReissueCause.OPERAND_MISS,
        "OS_REGFILE": OperandSource.REGFILE,
        "BranchOutcomeEvent": BranchOutcomeEvent,
        "CompleteEvent": CompleteEvent,
        "ConfirmEvent": ConfirmEvent,
        "CycleEvent": CycleEvent,
        "ExecuteEvent": ExecuteEvent,
        "FetchEvent": FetchEvent,
        "IQInsertEvent": IQInsertEvent,
        "IssueEvent": IssueEvent,
        "LoadResolvedEvent": LoadResolvedEvent,
        "OperandEvent": OperandEvent,
        "ReissueEvent": ReissueEvent,
        "RenameEvent": RenameEvent,
        "RetireEvent": RetireEvent,
        "WritebackEvent": WritebackEvent,
        "any": any,
        "len": len,
        "range": range,
        "set": set,
        "tuple": tuple,
        "RuntimeError": RuntimeError,
    }
    code = compile(
        source,
        "<fastsim:probe>" if probes else "<fastsim:noprobe>",
        "exec",
    )
    exec(code, namespace)
    return namespace["_compiled_run"]


_RUN_NOPROBE = _compile_variant(probes=False)
_RUN_PROBE = _compile_variant(probes=True)


class OptimizedSimulator(Simulator):
    """Drop-in :class:`Simulator` with the compiled run loop.

    Construction, workload generation, functional warmup, flush/trap
    recovery and all rare paths are inherited; only the detailed run
    loop differs — bit-identically.
    """

    def __init__(self, config, profiles, seed: int = 0):
        super().__init__(config, profiles, seed=seed)
        self._run_impl = _RUN_NOPROBE

    def attach_obs(self, bus) -> None:
        super().attach_obs(bus)
        # probe-variant selection: the entire per-site `is None` cost
        # disappears from detached runs
        self._run_impl = _RUN_NOPROBE if bus is None else _RUN_PROBE

    def run(
        self,
        instructions: int,
        warmup: int = 0,
        max_cycles: Optional[int] = None,
    ) -> CoreStats:
        return self._run_impl(self, instructions, warmup, max_cycles)
