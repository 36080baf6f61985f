//! The streaming multiprocessor: resident warps, GTO scheduling per
//! sub-core, the load-store path, and the shared RT/HSU unit.

use std::collections::VecDeque;

use crate::config::GpuConfig;
use crate::error::{SimError, SmDeadlockState};
use crate::memory::{AccessOutcome, MemorySystem, Requester};
use crate::rt_core::RtCore;
use crate::trace::{OpClass, ThreadOp, WarpTrace};

/// Waiter-token encoding: bit 63 selects RT-unit responses.
const RT_FLAG: u64 = 1 << 63;

/// Execution state of a resident warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarpStatus {
    /// May issue its next instruction.
    Ready,
    /// Blocked until a fixed cycle (ALU / shared latency).
    WaitUntil(u64),
    /// Blocked on `outstanding` memory lines.
    WaitMem(u32),
    /// Blocked on the RT/HSU unit's writeback.
    WaitHsu,
    /// Trace exhausted.
    Finished,
}

#[derive(Debug)]
struct WarpSlot {
    trace: WarpTrace,
    pc: usize,
    status: WarpStatus,
    sub_core: usize,
    /// Global program-order id (GTO's "oldest" tiebreak).
    age: u64,
}

/// Per-SM statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SmStats {
    /// Warp instructions issued, by class.
    pub issued: [u64; 7],
    /// Expanded instruction count (Alu/Shared runs weighted by max lane
    /// count), by class — the paper's cycle-share analysis (Fig. 7) uses
    /// these weights.
    pub issued_weighted: [u64; 7],
    /// Cycles where at least one sub-core issued.
    pub active_cycles: u64,
    /// Warps run to completion.
    pub warps_retired: u64,
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    index: usize,
    sub_cores: usize,
    max_warps: usize,
    alu_latency: u64,
    shared_latency: u64,
    line_bytes: u64,
    /// Warps waiting to become resident.
    launch_queue: VecDeque<WarpTrace>,
    warps: Vec<WarpSlot>,
    /// GTO state: last-issued warp per sub-core.
    last_issued: Vec<Option<usize>>,
    /// Issue-slot occupancy: a sub-core executing an N-instruction ALU or
    /// shared-memory run cannot issue anything else until it drains.
    sub_core_busy_until: Vec<u64>,
    /// Per-line load requests awaiting the L1 port: `(line, warp slot)`.
    lsu_queue: VecDeque<(u64, usize)>,
    /// Round-robin token for the shared L1 port (LSU vs RT FIFO, §VI-H).
    port_prefers_rt: bool,
    rt: RtCore,
    next_age: u64,
    /// Last cycle any sub-core issued an instruction (deadlock diagnostics'
    /// "last progress" marker; `None` until the first issue).
    last_issue_cycle: Option<u64>,
    /// Conservative lower bound on every resident `WaitUntil` target
    /// (`u64::MAX` when none are pending): lets the per-tick timer scan
    /// exit without walking the warp array. May be stale-low (a retired
    /// warp's target lingers), never stale-high.
    earliest_timer: u64,
    /// Per-sub-core "this stripe may hold an issuable warp" hint: set on
    /// every transition to `Ready`, cleared only when a full stripe scan
    /// proves the stripe empty. Purely an accelerator for `gto_pick` —
    /// conservatively true is always safe.
    ready_hint: Vec<bool>,
    /// Scratch buffers reused across `issue` calls so the per-tick hot
    /// path allocates nothing.
    scratch_picks: Vec<Option<usize>>,
    scratch_hsu: Vec<bool>,
    coalesce_buf: Vec<u64>,
    stats: SmStats,
}

impl Sm {
    /// Creates SM `index` under `cfg`.
    pub fn new(index: usize, cfg: &GpuConfig) -> Self {
        Sm {
            index,
            sub_cores: cfg.sub_cores,
            max_warps: cfg.max_warps_per_sm,
            alu_latency: cfg.alu_latency,
            shared_latency: cfg.shared_latency,
            line_bytes: cfg.line_bytes as u64,
            launch_queue: VecDeque::new(),
            warps: Vec::new(),
            last_issued: vec![None; cfg.sub_cores],
            sub_core_busy_until: vec![0; cfg.sub_cores],
            lsu_queue: VecDeque::new(),
            port_prefers_rt: false,
            rt: RtCore::new(cfg),
            next_age: 0,
            last_issue_cycle: None,
            earliest_timer: u64::MAX,
            ready_hint: vec![false; cfg.sub_cores],
            scratch_picks: Vec::new(),
            scratch_hsu: Vec::new(),
            coalesce_buf: Vec::new(),
            stats: SmStats::default(),
        }
    }

    /// Queues a warp for execution on this SM.
    pub fn enqueue_warp(&mut self, trace: WarpTrace) {
        self.launch_queue.push_back(trace);
    }

    /// Returns `true` when every warp has retired and all queues are empty.
    pub fn finished(&self) -> bool {
        self.launch_queue.is_empty()
            && self.warps.iter().all(|w| w.status == WarpStatus::Finished)
            && self.lsu_queue.is_empty()
            && self.rt.idle()
    }

    /// The earliest future cycle at which this SM's state can *observably*
    /// change without memory-side help, or `None` when it is entirely
    /// blocked on the memory system (or finished). The run loop additionally
    /// wakes a sleeping SM when a delivered completion is observable
    /// ([`Sm::on_mem_done`]) or its L1 receives a fill
    /// ([`MemorySystem::l1_touched`]) while an access waits on its port
    /// ([`Sm::waits_on_l1_port`]) — the only memory-side events that change
    /// what this SM can observe.
    ///
    /// The contract required by the event-driven run loop is soundness, not
    /// tightness: the returned cycle must never be *later* than the true
    /// next state change. Three refinements keep memory- and compute-bound
    /// phases skippable without breaking it:
    ///
    /// * a queued L1 access (LSU or RT fetch) only forces `now + 1` if the
    ///   cache would actually *accept* it ([`MemorySystem::can_accept`]);
    ///   a rejected retry is a no-op whose eventual acceptance is caused by
    ///   a fill the memory event heap already schedules,
    /// * a `Ready` warp's next issue opportunity is its sub-core's
    ///   `busy_until` (Alu/Shared runs occupy the issue slot for their full
    ///   run length), not the next cycle,
    /// * a timer wait reports `max(wakeup, sub-core free)` — waking a warp
    ///   into a busy sub-core changes only its status word, which is
    ///   unobservable until the warp can issue.
    pub fn next_event(&self, now: u64, mem: &MemorySystem) -> Option<u64> {
        // Launching needs a free or finished slot; if none exists the launch
        // queue only drains after a retirement, which another event causes.
        let can_launch = !self.launch_queue.is_empty()
            && (self.warps.len() < self.max_warps
                || self.warps.iter().any(|w| w.status == WarpStatus::Finished));
        let lsu_can_issue = self
            .lsu_queue
            .front()
            .is_some_and(|&(line, _)| mem.can_accept(self.index, line, Requester::Lsu));
        let rt_can_fetch = self
            .rt
            .peek_fifo()
            .is_some_and(|req| mem.can_accept(self.index, req.line, Requester::RtUnit));
        if can_launch || lsu_can_issue || rt_can_fetch || self.rt.advances_on_tick() {
            return Some(now + 1);
        }
        let mut next: Option<u64> = None;
        for warp in &self.warps {
            let wake = match warp.status {
                WarpStatus::Ready => now + 1,
                WarpStatus::WaitUntil(t) => t,
                WarpStatus::WaitMem(_) | WarpStatus::WaitHsu | WarpStatus::Finished => continue,
            };
            let t = wake
                .max(self.sub_core_busy_until[warp.sub_core])
                .max(now + 1);
            next = Some(next.map_or(t, |n| n.min(t)));
        }
        next
    }

    /// Bulk-accounts `cycles` provably idle cycles (see
    /// [`Sm::next_event`]); equivalent to `cycles` calls to [`Sm::tick`] in
    /// a state where no queue, warp, or unit can make observable progress.
    ///
    /// Two pieces of per-cycle bookkeeping from the stepped oracle must be
    /// replayed so both modes stay bit-identical: blocked L1 presentations
    /// still record one rejected probe per cycle (MSHR-stall statistics and
    /// the cache's port-use counter), and the shared L1 port's round-robin
    /// bit keeps toggling while both requesters are waiting.
    pub fn fast_forward(&mut self, cycles: u64, mem: &mut MemorySystem) {
        let lsu_pending = !self.lsu_queue.is_empty();
        let rt_pending = self.rt.peek_fifo().is_some();
        if mem.rt_has_private_path() {
            // Each side has its own port and retries independently.
            if lsu_pending {
                mem.note_stalled_probes(self.index, Requester::Lsu, cycles);
            }
            if rt_pending {
                mem.note_stalled_probes(self.index, Requester::RtUnit, cycles);
            }
        } else {
            // Shared port: one presentation per cycle, alternating between
            // the requesters when both wait (both target the same L1, so
            // the stall accounting is one probe per cycle either way).
            match (lsu_pending, rt_pending) {
                (false, false) => {}
                (true, false) => {
                    self.port_prefers_rt = true;
                    mem.note_stalled_probes(self.index, Requester::Lsu, cycles);
                }
                (false, true) => {
                    self.port_prefers_rt = false;
                    mem.note_stalled_probes(self.index, Requester::RtUnit, cycles);
                }
                (true, true) => {
                    if cycles % 2 == 1 {
                        self.port_prefers_rt = !self.port_prefers_rt;
                    }
                    mem.note_stalled_probes(self.index, Requester::Lsu, cycles);
                }
            }
        }
        self.rt.fast_forward(cycles);
    }

    /// Whether a queued L1 access (LSU or RT fetch) is waiting on the L1
    /// port — the only state through which a fill to this SM's L1 (which
    /// can flip [`MemorySystem::can_accept`]) is observable.
    pub fn waits_on_l1_port(&self) -> bool {
        !self.lsu_queue.is_empty() || self.rt.peek_fifo().is_some()
    }

    /// Handles a memory completion token.
    ///
    /// Returns whether the delivery is observable by the next [`Sm::tick`]:
    /// it made a warp `Ready` (its last outstanding line landed) or the RT
    /// unit reports the response observable (see
    /// [`RtCore::on_mem_response`]). An unobservable delivery only moves a
    /// counter that nothing reads until a later, observable one.
    ///
    /// # Errors
    ///
    /// [`SimError::IllegalDispatch`] if the completion is routed to a warp
    /// slot that is not waiting on memory (a corrupted waiter token or a
    /// routing bug — either way the run cannot continue meaningfully).
    pub fn on_mem_done(&mut self, waiter: u64) -> Result<bool, SimError> {
        if waiter & RT_FLAG != 0 {
            let entry = ((waiter >> 16) & 0xffff) as usize;
            let req = (waiter & 0xffff) as usize;
            return Ok(self.rt.on_mem_response(entry, req));
        }
        let slot = waiter as usize;
        let warp = &mut self.warps[slot];
        let WarpStatus::WaitMem(outstanding) = warp.status else {
            return Err(SimError::IllegalDispatch {
                detail: format!(
                    "memory completion delivered to sm{} warp slot {slot}, \
                     which is not waiting on memory ({:?})",
                    self.index, warp.status
                ),
            });
        };
        let left = outstanding - 1;
        if left > 0 {
            warp.status = WarpStatus::WaitMem(left);
            return Ok(false);
        }
        warp.status = WarpStatus::Ready;
        self.ready_hint[warp.sub_core] = true;
        Ok(true)
    }

    /// Advances the SM one cycle.
    ///
    /// # Errors
    ///
    /// [`SimError::IllegalDispatch`] if the cycle's issue stage routes an op
    /// to a unit that cannot execute it (see [`Sm::on_mem_done`] and the
    /// RT-unit dispatch path).
    pub fn tick(&mut self, now: u64, mem: &mut MemorySystem) -> Result<(), SimError> {
        self.fill_resident_slots();
        self.unblock_timed_warps(now);

        // RT unit writebacks resume their warps.
        self.rt.tick();
        for slot in self.rt.take_completed() {
            debug_assert_eq!(self.warps[slot].status, WarpStatus::WaitHsu);
            self.warps[slot].status = WarpStatus::Ready;
            self.ready_hint[self.warps[slot].sub_core] = true;
        }

        self.arbitrate_l1_port(now, mem);
        self.issue(now, mem)
    }

    fn fill_resident_slots(&mut self) {
        if self.launch_queue.is_empty() {
            return;
        }
        // Reuse finished slots first, then grow up to the residency limit.
        for i in 0..self.warps.len() {
            if self.warps[i].status == WarpStatus::Finished {
                if let Some(trace) = self.launch_queue.pop_front() {
                    let sub_core = i % self.sub_cores;
                    self.warps[i] = WarpSlot {
                        trace,
                        pc: 0,
                        status: WarpStatus::Ready,
                        sub_core,
                        age: self.next_age,
                    };
                    self.next_age += 1;
                    self.ready_hint[sub_core] = true;
                }
            }
        }
        while self.warps.len() < self.max_warps {
            let Some(trace) = self.launch_queue.pop_front() else {
                break;
            };
            let sub_core = self.warps.len() % self.sub_cores;
            self.warps.push(WarpSlot {
                trace,
                pc: 0,
                status: WarpStatus::Ready,
                sub_core,
                age: self.next_age,
            });
            self.next_age += 1;
            self.ready_hint[sub_core] = true;
        }
    }

    fn unblock_timed_warps(&mut self, now: u64) {
        if now < self.earliest_timer {
            return; // no resident timer can have expired yet
        }
        let mut earliest = u64::MAX;
        for warp in &mut self.warps {
            if let WarpStatus::WaitUntil(t) = warp.status {
                if t <= now {
                    warp.status = WarpStatus::Ready;
                    self.ready_hint[warp.sub_core] = true;
                } else {
                    earliest = earliest.min(t);
                }
            }
        }
        self.earliest_timer = earliest;
    }

    /// One L1 access per cycle, round-robin between the LSU queue and the RT
    /// unit's FIFO (they time-share the cache, §VI-H). Under a private or
    /// bypass RT-cache policy (§VI-I) the RT FIFO gets its own port and both
    /// sides proceed each cycle.
    fn arbitrate_l1_port(&mut self, now: u64, mem: &mut MemorySystem) {
        let lsu_pending = !self.lsu_queue.is_empty();
        let rt_pending = self.rt.peek_fifo().is_some();
        if mem.rt_has_private_path() {
            if rt_pending {
                self.issue_rt_fetch(now, mem);
            }
            if lsu_pending {
                self.issue_lsu_access(now, mem);
            }
            return;
        }
        let pick_rt = match (lsu_pending, rt_pending) {
            (false, false) => return,
            (true, false) => false,
            (false, true) => true,
            (true, true) => self.port_prefers_rt,
        };
        self.port_prefers_rt = !pick_rt;
        if pick_rt {
            self.issue_rt_fetch(now, mem);
        } else {
            self.issue_lsu_access(now, mem);
        }
    }

    fn issue_rt_fetch(&mut self, now: u64, mem: &mut MemorySystem) {
        let Some(req) = self.rt.pop_fifo() else {
            return;
        };
        let waiter = RT_FLAG | ((req.entry as u64) << 16) | req.req as u64;
        match mem.access(self.index, req.line, waiter, Requester::RtUnit, now) {
            AccessOutcome::Accepted => {}
            AccessOutcome::Rejected => self.rt.push_back_front(req),
        }
    }

    fn issue_lsu_access(&mut self, now: u64, mem: &mut MemorySystem) {
        let Some(&(line, slot)) = self.lsu_queue.front() else {
            return;
        };
        match mem.access(self.index, line, slot as u64, Requester::Lsu, now) {
            AccessOutcome::Accepted => {
                self.lsu_queue.pop_front();
            }
            AccessOutcome::Rejected => {}
        }
    }

    /// GTO pick for one sub-core: the last-issued warp if still ready,
    /// otherwise the oldest ready warp.
    fn gto_pick(&mut self, sub_core: usize) -> Option<usize> {
        let issuable = |w: &WarpSlot| {
            w.sub_core == sub_core
                && w.status == WarpStatus::Ready
                && w.pc < w.trace.instructions.len()
        };
        if let Some(last) = self.last_issued[sub_core] {
            if last < self.warps.len() && issuable(&self.warps[last]) {
                return Some(last);
            }
        }
        // A cleared hint means the last full scan proved the stripe empty
        // and no warp on it has become Ready since — skip the scan.
        if !self.ready_hint[sub_core] {
            return None;
        }
        // Warps are statically assigned sub-core = slot % sub_cores, so only
        // scan this sub-core's stripe.
        let mut best: Option<(u64, usize)> = None;
        let mut i = sub_core;
        while i < self.warps.len() {
            let w = &self.warps[i];
            debug_assert_eq!(w.sub_core, sub_core);
            if issuable(w) && best.is_none_or(|(age, _)| w.age < age) {
                best = Some((w.age, i));
            }
            i += self.sub_cores;
        }
        if best.is_none() {
            self.ready_hint[sub_core] = false;
        }
        best.map(|(_, i)| i)
    }

    fn issue(&mut self, now: u64, mem: &mut MemorySystem) -> Result<(), SimError> {
        // The pick/request buffers live on the SM so the hot path allocates
        // nothing; a terminal error may leave them taken, which only costs
        // a fresh allocation on a run that is already dead.
        let mut picks = std::mem::take(&mut self.scratch_picks);
        let mut hsu_requests = std::mem::take(&mut self.scratch_hsu);
        let result = self.issue_inner(now, mem, &mut picks, &mut hsu_requests);
        self.scratch_picks = picks;
        self.scratch_hsu = hsu_requests;
        result
    }

    fn issue_inner(
        &mut self,
        now: u64,
        mem: &mut MemorySystem,
        picks: &mut Vec<Option<usize>>,
        hsu_requests: &mut Vec<bool>,
    ) -> Result<(), SimError> {
        // Phase 1: each sub-core picks its GTO warp; note which want the HSU.
        // Sub-cores still draining an ALU/shared run issue nothing.
        picks.clear();
        hsu_requests.clear();
        for sc in 0..self.sub_cores {
            let pick = if self.sub_core_busy_until[sc] > now {
                None
            } else {
                self.gto_pick(sc)
            };
            picks.push(pick);
            hsu_requests.push(pick.is_some_and(|slot| {
                let w = &self.warps[slot];
                w.trace.instructions[w.pc].class.is_hsu()
            }));
        }

        // Phase 2: the RT unit grants at most one sub-core's dispatch.
        let granted = if hsu_requests.iter().any(|&r| r) {
            self.rt.grant(hsu_requests)
        } else {
            None
        };

        // Phase 3: issue per sub-core.
        let mut any_issued = false;
        for sc in 0..self.sub_cores {
            let Some(slot) = picks[sc] else { continue };
            let wants_hsu = hsu_requests[sc];
            if wants_hsu && granted != Some(sc) {
                continue; // arbiter did not pick this sub-core; retry next cycle
            }
            // Split borrows: `instr` pins `self.warps` immutably, so this
            // block touches only disjoint fields (stats, queues, rt, ...)
            // until the status write below.
            let warp = &self.warps[slot];
            let instr = &warp.trace.instructions[warp.pc];
            let ops = warp.trace.ops(instr);
            let class = instr.class;
            self.stats.issued[class.index()] += 1;
            self.stats.issued_weighted[class.index()] += weighted_count(ops);
            any_issued = true;
            self.last_issued[sc] = Some(slot);

            let new_status = match class {
                OpClass::Alu | OpClass::Shared => {
                    let count = max_run(ops) as u64;
                    let lat = if class == OpClass::Alu {
                        self.alu_latency
                    } else {
                        self.shared_latency
                    };
                    // The run occupies the sub-core's issue slot for `count`
                    // cycles; the warp itself also waits out the latency.
                    self.sub_core_busy_until[sc] = now + count;
                    WarpStatus::WaitUntil(now + count + lat)
                }
                OpClass::Load => {
                    let mut lines = std::mem::take(&mut self.coalesce_buf);
                    let coalesced = coalesce_into(ops, self.line_bytes, &mut lines);
                    if let Err(e) = coalesced {
                        self.coalesce_buf = lines;
                        return Err(e);
                    }
                    debug_assert!(!lines.is_empty());
                    for &line in &lines {
                        self.lsu_queue.push_back((line, slot));
                    }
                    let outstanding = lines.len() as u32;
                    self.coalesce_buf = lines;
                    WarpStatus::WaitMem(outstanding)
                }
                OpClass::Store => {
                    let mut lines = std::mem::take(&mut self.coalesce_buf);
                    let coalesced = coalesce_into(ops, self.line_bytes, &mut lines);
                    if let Err(e) = coalesced {
                        self.coalesce_buf = lines;
                        return Err(e);
                    }
                    for &line in &lines {
                        mem.store(self.index, line, Requester::Lsu);
                    }
                    self.coalesce_buf = lines;
                    WarpStatus::WaitUntil(now + 1)
                }
                OpClass::HsuRayIntersect | OpClass::HsuDistance | OpClass::HsuKeyCompare => {
                    let Some(lead) = ops.first() else {
                        return Err(SimError::IllegalDispatch {
                            detail: format!(
                                "{class:?} warp instruction with no active lanes on sm{}",
                                self.index
                            ),
                        });
                    };
                    if !self.rt.supports(lead) {
                        return Err(SimError::IllegalDispatch {
                            detail: format!(
                                "kernel emitted {class:?} but the unit lacks HSU extensions \
                                 (baseline traces must lower these ops)"
                            ),
                        });
                    }
                    self.rt
                        .dispatch(slot, sc, instr.active_mask, ops, self.line_bytes)?;
                    WarpStatus::WaitHsu
                }
            };

            // Advance the program counter; retire at trace end.
            let warp = &mut self.warps[slot];
            warp.status = new_status;
            warp.pc += 1;
            if warp.pc == warp.trace.instructions.len()
                && matches!(warp.status, WarpStatus::Ready | WarpStatus::WaitUntil(_))
            {
                // The warp drains its outstanding work, then is finished. We
                // conservatively let in-flight memory/HSU complete before
                // retirement by only marking Finished when Ready or timed.
                warp.status = WarpStatus::Finished;
                self.stats.warps_retired += 1;
            }
            if let WarpStatus::WaitUntil(t) = warp.status {
                self.earliest_timer = self.earliest_timer.min(t);
            }
        }
        if any_issued {
            self.stats.active_cycles += 1;
            self.last_issue_cycle = Some(now);
        }

        // Retire warps whose last instruction's stall has resolved.
        for warp in &mut self.warps {
            if warp.pc == warp.trace.instructions.len() && warp.status == WarpStatus::Ready {
                warp.status = WarpStatus::Finished;
                self.stats.warps_retired += 1;
            }
        }
        Ok(())
    }

    /// Snapshot of this SM's stall state for a [`DeadlockReport`]
    /// (see [`crate::error::DeadlockReport`]).
    ///
    /// `guard_cycles` is the run's cycle guard and `mshrs_in_flight` the
    /// SM's current L1 MSHR occupancy (owned by the memory system). Timer
    /// waits are normalized against the guard: a `WaitUntil(t)` with `t`
    /// inside the guard window counts as *ready*, because the stepped
    /// oracle flips such timers to `Ready` on its way to the boundary even
    /// when a busy issue slot makes the flip unobservable — the event loop
    /// may detect the deadlock before visiting those cycles, and the
    /// snapshot must not depend on which mode found it.
    pub fn deadlock_state(&self, guard_cycles: u64, mshrs_in_flight: usize) -> SmDeadlockState {
        let (mut ready, mut waiting_timer, mut waiting_mem, mut waiting_hsu, mut finished) =
            (0, 0, 0, 0, 0);
        for warp in &self.warps {
            match warp.status {
                WarpStatus::Ready => ready += 1,
                WarpStatus::WaitUntil(t) if t < guard_cycles => ready += 1,
                WarpStatus::WaitUntil(_) => waiting_timer += 1,
                WarpStatus::WaitMem(_) => waiting_mem += 1,
                WarpStatus::WaitHsu => waiting_hsu += 1,
                WarpStatus::Finished => finished += 1,
            }
        }
        SmDeadlockState {
            sm: self.index,
            resident: self.warps.len() - finished,
            ready,
            waiting_timer,
            waiting_mem,
            waiting_hsu,
            finished,
            launch_queue: self.launch_queue.len(),
            lsu_queue: self.lsu_queue.len(),
            rt_fifo: self.rt.fifo_len(),
            warp_buffer_occupancy: self.rt.warp_buffer_occupancy(),
            mshrs_in_flight,
            warps_retired: self.stats.warps_retired,
            last_issue_cycle: self.last_issue_cycle,
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &SmStats {
        &self.stats
    }

    /// The RT/HSU unit's statistics.
    pub fn rt_stats(&self) -> crate::rt_unit::RtUnitStats {
        self.rt.stats()
    }
}

/// Expanded instruction weight of a warp instruction's active-lane ops:
/// Alu/Shared runs count their per-lane instruction totals; other classes
/// count active lanes.
fn weighted_count(ops: &[ThreadOp]) -> u64 {
    ops.iter()
        .map(|op| match op {
            ThreadOp::Alu { count } | ThreadOp::Shared { count } => *count as u64,
            _ => 1,
        })
        .sum()
}

/// Maximum Alu/Shared run length across active lanes (lockstep SIMT executes
/// the longest lane's count).
fn max_run(ops: &[ThreadOp]) -> u32 {
    ops.iter()
        .map(|op| match op {
            ThreadOp::Alu { count } | ThreadOp::Shared { count } => *count,
            _ => 1,
        })
        .max()
        .unwrap_or(1)
}

/// Unique cache lines touched by a load/store warp instruction's
/// active-lane ops, written into a caller-owned scratch buffer (cleared
/// first) so the per-issue hot path allocates nothing.
///
/// Rejects instructions whose lanes mix in non-memory ops (a malformed or
/// corrupted trace) instead of panicking mid-issue.
fn coalesce_into(ops: &[ThreadOp], line_bytes: u64, lines: &mut Vec<u64>) -> Result<(), SimError> {
    lines.clear();
    for op in ops {
        let (addr, bytes) = match op {
            ThreadOp::Load { addr, bytes } | ThreadOp::Store { addr, bytes } => {
                (*addr, *bytes as u64)
            }
            other => {
                return Err(SimError::IllegalDispatch {
                    detail: format!("coalesce on non-memory op {other:?}"),
                })
            }
        };
        let first = addr / line_bytes;
        let last = (addr + bytes.max(1) - 1) / line_bytes;
        lines.extend(first..=last);
    }
    lines.sort_unstable();
    lines.dedup();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{KernelTrace, ThreadTrace};

    fn single_warp_kernel(ops: Vec<ThreadOp>, lanes: usize) -> WarpTrace {
        let mut k = KernelTrace::new("t");
        for _ in 0..lanes {
            let mut t = ThreadTrace::new();
            for &op in &ops {
                t.push(op);
            }
            k.push_thread(t);
        }
        k.warps().remove(0)
    }

    fn run(sm: &mut Sm, mem: &mut MemorySystem, max: u64) -> u64 {
        let mut done = Vec::new();
        for now in 0..max {
            done.clear();
            mem.tick(now, &mut done);
            for &(sm_idx, waiter) in &done {
                assert_eq!(sm_idx, 0);
                sm.on_mem_done(waiter).expect("completion routing");
            }
            sm.tick(now, mem).expect("tick failed");
            if sm.finished() {
                return now;
            }
        }
        // Bounded by `max`; on failure report what the SM is stuck on
        // instead of a bare message.
        panic!(
            "SM never finished within {max} cycles; stuck state: {}",
            sm.deadlock_state(max, mem.l1_mshrs_in_use(0))
        );
    }

    #[test]
    fn alu_only_warp_finishes_quickly() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        sm.enqueue_warp(single_warp_kernel(vec![ThreadOp::Alu { count: 10 }], 32));
        let cycles = run(&mut sm, &mut mem, 10_000);
        assert!(cycles < 40, "took {cycles}");
        assert_eq!(sm.stats().issued[OpClass::Alu.index()], 1);
        assert_eq!(sm.stats().issued_weighted[OpClass::Alu.index()], 10 * 32);
        assert_eq!(sm.stats().warps_retired, 1);
    }

    #[test]
    fn coalesced_load_is_one_line() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        // 32 lanes loading consecutive 4-byte words: exactly one 128-B line.
        let mut k = KernelTrace::new("c");
        for lane in 0..32u64 {
            let mut t = ThreadTrace::new();
            t.push(ThreadOp::Load {
                addr: lane * 4,
                bytes: 4,
            });
            k.push_thread(t);
        }
        sm.enqueue_warp(k.warps().remove(0));
        run(&mut sm, &mut mem, 100_000);
        assert_eq!(
            mem.stats().l1_lsu_accesses,
            1,
            "must coalesce to one access"
        );
    }

    #[test]
    fn strided_load_splits_lines() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        let mut k = KernelTrace::new("s");
        for lane in 0..32u64 {
            let mut t = ThreadTrace::new();
            t.push(ThreadOp::Load {
                addr: lane * 256,
                bytes: 4,
            });
            k.push_thread(t);
        }
        sm.enqueue_warp(k.warps().remove(0));
        run(&mut sm, &mut mem, 200_000);
        assert_eq!(mem.stats().l1_lsu_accesses, 32, "non-coalescable accesses");
    }

    #[test]
    fn hsu_instruction_round_trip() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        sm.enqueue_warp(single_warp_kernel(
            vec![
                ThreadOp::HsuRayIntersect {
                    node_addr: 0x1000,
                    bytes: 128,
                    triangle: false,
                },
                ThreadOp::Alu { count: 2 },
            ],
            8,
        ));
        run(&mut sm, &mut mem, 100_000);
        let rt = sm.rt_stats();
        assert_eq!(rt.warp_instructions, 1);
        assert_eq!(rt.isa_instructions, 8, "one per active lane");
        // All eight lanes fetch the same node line: coalesced to one access.
        assert_eq!(mem.stats().l1_rt_accesses, 1);
        assert_eq!(sm.stats().warps_retired, 1);
    }

    #[test]
    fn multiple_warps_share_sub_cores() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        for _ in 0..8 {
            sm.enqueue_warp(single_warp_kernel(vec![ThreadOp::Alu { count: 100 }], 32));
        }
        let cycles = run(&mut sm, &mut mem, 100_000);
        // 8 warps / 4 sub-cores = 2 per sub-core, ~2 * 100 cycles.
        assert!(cycles < 450, "took {cycles}");
        assert_eq!(sm.stats().warps_retired, 8);
    }

    #[test]
    fn gto_keeps_issuing_same_warp() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        // Two warps of back-to-back single ALU ops on the same sub-core
        // would interleave under round-robin; GTO sticks with the first.
        // We verify completion (scheduling correctness), not the exact order.
        for _ in 0..2 {
            sm.enqueue_warp(single_warp_kernel(vec![ThreadOp::Alu { count: 1 }; 4], 32));
        }
        run(&mut sm, &mut mem, 100_000);
        assert_eq!(sm.stats().warps_retired, 2);
    }

    #[test]
    fn next_event_reports_exact_timer_wakeup() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        // Distinct classes so the trace builder keeps two instructions.
        sm.enqueue_warp(single_warp_kernel(
            vec![ThreadOp::Alu { count: 1 }, ThreadOp::Shared { count: 1 }],
            32,
        ));
        // A launchable warp is imminent work: conservative `now + 1`.
        assert_eq!(sm.next_event(0, &mem), Some(1));
        sm.tick(0, &mut mem).unwrap();
        // Issued at 0 with count 1: the warp waits until 1 + alu_latency,
        // and nothing else can change state before then.
        let wake = 1 + cfg.alu_latency;
        assert_eq!(sm.next_event(0, &mem), Some(wake));
        assert_eq!(
            sm.next_event(wake - 1, &mem),
            Some(wake),
            "wakeup cycle is absolute, not relative"
        );
        sm.tick(wake, &mut mem).unwrap();
        // Second (final) instruction issued; trace end retires on the spot.
        assert_eq!(sm.stats().warps_retired, 1);
        assert_eq!(sm.next_event(wake, &mem), None, "finished SM has no events");
        assert!(sm.finished());
    }

    #[test]
    fn next_event_is_none_while_blocked_on_memory() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        sm.enqueue_warp(single_warp_kernel(
            vec![
                ThreadOp::Load {
                    addr: 0x4000,
                    bytes: 4,
                },
                ThreadOp::Alu { count: 1 },
            ],
            32,
        ));
        sm.tick(0, &mut mem).unwrap();
        // The load sits in the LSU queue awaiting the L1 port.
        assert_eq!(sm.next_event(0, &mem), Some(1));
        sm.tick(1, &mut mem).unwrap();
        // Access accepted: the SM is now purely memory-blocked — the wakeup
        // belongs to the memory system's event heap, not to the SM.
        assert_eq!(sm.next_event(1, &mem), None);
        let mut done = Vec::new();
        let mut woke_at = None;
        for now in 2..100_000 {
            done.clear();
            mem.tick(now, &mut done);
            if let Some(&(_, waiter)) = done.first() {
                sm.on_mem_done(waiter).unwrap();
                woke_at = Some(now);
                break;
            }
            assert_eq!(sm.next_event(now, &mem), None, "no self-wakeup at {now}");
        }
        let now = woke_at.expect("load never completed");
        assert_eq!(
            sm.next_event(now, &mem),
            Some(now + 1),
            "a Ready warp must run next cycle"
        );
    }

    #[test]
    fn timer_wakeups_order_across_warps() {
        // Two warps on different sub-cores with staggered latencies: the SM
        // must surface the earlier wakeup first, then the later one, pinning
        // the exact cycles the event loop is allowed to jump to.
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        // Slot 0 -> sub-core 0, slot 1 -> sub-core 1 (slot % sub_cores).
        sm.enqueue_warp(single_warp_kernel(
            vec![ThreadOp::Alu { count: 2 }, ThreadOp::Shared { count: 1 }],
            32,
        ));
        sm.enqueue_warp(single_warp_kernel(
            vec![ThreadOp::Shared { count: 1 }, ThreadOp::Alu { count: 1 }],
            32,
        ));
        sm.tick(0, &mut mem).unwrap();
        let alu_wake = 2 + cfg.alu_latency; // run of 2 + dependent latency
        let shared_wake = 1 + cfg.shared_latency;
        assert!(alu_wake < shared_wake);
        assert_eq!(
            sm.next_event(0, &mem),
            Some(alu_wake),
            "earliest wakeup wins"
        );
        sm.tick(alu_wake, &mut mem).unwrap();
        assert_eq!(sm.stats().warps_retired, 1, "ALU warp finishes first");
        assert_eq!(sm.next_event(alu_wake, &mem), Some(shared_wake));
        sm.tick(shared_wake, &mut mem).unwrap();
        assert_eq!(sm.stats().warps_retired, 2);
        assert_eq!(sm.next_event(shared_wake, &mem), None);
    }

    #[test]
    fn baseline_unit_rejects_distance_ops() {
        let mut cfg = GpuConfig::tiny();
        cfg.hsu = hsu_core::HsuConfig::baseline_rt();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        sm.enqueue_warp(single_warp_kernel(
            vec![ThreadOp::HsuDistance {
                metric: hsu_geometry::point::Metric::Euclidean,
                dim: 16,
                candidate_addr: 0,
            }],
            1,
        ));
        let err = (0..10)
            .find_map(|now| sm.tick(now, &mut mem).err())
            .expect("dispatching a distance op to a baseline RT unit must fail");
        assert!(matches!(err, SimError::IllegalDispatch { .. }));
        assert!(err.to_string().contains("lacks HSU extensions"));
    }

    #[test]
    fn misrouted_completion_is_a_typed_error() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        sm.enqueue_warp(single_warp_kernel(vec![ThreadOp::Alu { count: 1 }], 32));
        sm.tick(0, &mut mem).unwrap();
        // Slot 0 is waiting on a timer, not memory: a completion for it is
        // a routing violation, not a panic.
        let err = sm
            .on_mem_done(0)
            .expect_err("completion for a non-memory-waiting warp must fail");
        assert!(matches!(err, SimError::IllegalDispatch { .. }));
    }

    #[test]
    fn deadlock_state_normalizes_in_window_timers_to_ready() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        // Distinct classes so the trace keeps two instructions pending.
        sm.enqueue_warp(single_warp_kernel(
            vec![ThreadOp::Alu { count: 100 }, ThreadOp::Shared { count: 1 }],
            32,
        ));
        sm.tick(0, &mut mem).unwrap();
        // The warp waits until cycle 100 + alu_latency. With a guard beyond
        // that it counts as ready (the stepped oracle would have flipped it);
        // with a guard before it, it is a genuine timer wait.
        let wake = 100 + cfg.alu_latency;
        let wide = sm.deadlock_state(wake + 1, 0);
        assert_eq!((wide.ready, wide.waiting_timer), (1, 0));
        let tight = sm.deadlock_state(wake, 0);
        assert_eq!((tight.ready, tight.waiting_timer), (0, 1));
        assert_eq!(tight.last_issue_cycle, Some(0));
        assert_eq!(tight.resident, 1);
    }
}
