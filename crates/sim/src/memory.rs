//! The memory hierarchy: per-SM L1s, banked shared L2, HBM channels.
//!
//! Requests flow L1 → L2 → DRAM and responses flow back, with fixed
//! interconnect latencies, per-bank L2 lookup throughput, and FR-FCFS DRAM
//! service. Completion tokens (`waiter`s) are opaque to the hierarchy; the
//! SMs map them back to blocked warps or RT-unit lanes.
//!
//! Future activity lives in one event heap keyed by `(cycle, event)`. The
//! heap pops distinct events in sorted order whatever order they were
//! pushed in, and equal events are interchangeable, so the drain order —
//! and with it every statistic — depends only on the simulated schedule.
//! That is why every [`crate::config::SimMode`] produces bit-identical
//! reports.
//!
//! Each L2 bank looks up one request per cycle. A request that reaches a
//! bank leaves the heap for that bank's arrival queue and waits there —
//! through port conflicts and `Stall`s (L2 MSHRs full) alike — until the
//! bank serves it, so a burst of `k` requests to one bank costs `O(k log
//! k)` queue work instead of `k` heap re-pushes per cycle. Every cycle,
//! after that cycle's arrivals have joined their queues, each bank serves
//! its smallest waiting `(sm tag, line)`; a request that arrived from a
//! zero-latency hop stamped with an earlier cycle goes ahead of the queue,
//! as it would sort first in the heap. The winners are then looked up in
//! `(stamp, sm tag, line)` order, so DRAM sees the same enqueue order as
//! if every waiting request were re-scheduled each cycle, and all before
//! the cycle's L2 fills, L1 fills and completions. A `Stall`ed request
//! stays queued and counts one more stall each cycle it is served.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;

use crate::cache::{Cache, CacheStats, Lookup};
use crate::config::{GpuConfig, RtCachePolicy};
use crate::dram::{DramChannel, DramStats};

/// Who issued an L1 access — the paper separates LSU and RT-unit traffic
/// when reporting L1 access counts (Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Requester {
    /// The SIMT load-store unit.
    Lsu,
    /// The RT/HSU unit's FIFO memory access queue.
    RtUnit,
}

/// Result of presenting an access to the L1 port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Accepted; the waiter completes in a future cycle.
    Accepted,
    /// Rejected (MSHR full); present it again next cycle.
    Rejected,
}

/// Marks an L2 waiter / L1-fill destined for the private RT cache.
const RT_FILL: u32 = 1 << 30;

/// A scheduled hop. Within one cycle events pop in variant order, so every
/// arrival reaches its bank queue before the cycle's fills and completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// A request arrives at its L2 bank.
    L2Arrive { sm: u32, line: u64 },
    /// DRAM data arrives back at the L2, filling it.
    L2Fill { line: u64 },
    /// Response arrives at an SM's L1, filling it.
    L1Fill { sm: u32, line: u64 },
    /// A waiter's data is ready at the SM.
    Done { sm: u32, waiter: u64 },
}

/// Aggregated memory statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// L1 accesses from the load-store unit (across all SMs).
    pub l1_lsu_accesses: u64,
    /// L1 accesses from RT/HSU units.
    pub l1_rt_accesses: u64,
    /// Combined L1 tag statistics.
    pub l1: CacheStats,
    /// Combined private RT-cache statistics (zero under the shared policy).
    pub rt_cache: CacheStats,
    /// Combined L2 statistics.
    pub l2: CacheStats,
    /// Combined DRAM statistics.
    pub dram: DramStats,
}

/// One SM's slice of the hierarchy: L1 + optional private RT cache +
/// requester counters.
#[derive(Debug)]
struct SmL1 {
    l1: Cache,
    rt_cache: Option<Cache>,
    lsu_accesses: u64,
    rt_accesses: u64,
}

impl SmL1 {
    /// The cache `requester` uses: the private RT cache for RT-unit traffic
    /// when the policy has one, the L1 otherwise.
    fn cache_for(&mut self, requester: Requester) -> &mut Cache {
        match (requester, &mut self.rt_cache) {
            (Requester::RtUnit, Some(cache)) => cache,
            _ => &mut self.l1,
        }
    }

    fn count(&mut self, requester: Requester) {
        match requester {
            Requester::Lsu => self.lsu_accesses += 1,
            Requester::RtUnit => self.rt_accesses += 1,
        }
    }

    /// Outstanding misses in the L1 plus the private RT cache, if any.
    fn mshrs_in_use(&self) -> usize {
        self.l1.mshrs_in_use() + self.rt_cache.as_ref().map_or(0, Cache::mshrs_in_use)
    }
}

/// The full hierarchy.
#[derive(Debug)]
pub struct MemorySystem {
    line_bytes: u64,
    l1_latency: u64,
    half_l2_latency: u64,
    rt_private: bool,
    l1s: Vec<SmL1>,
    l2_banks: Vec<Cache>,
    /// The cycle after the one each bank last served a request in.
    l2_bank_busy: Vec<u64>,
    /// Requests waiting at each bank, smallest `(sm tag, line)` first.
    l2_queues: Vec<BinaryHeap<Reverse<(u32, u64)>>>,
    /// Banks whose queue is non-empty (unordered, no duplicates).
    l2_waiting_banks: Vec<usize>,
    /// Scratch for one cycle's bank winners: `(stamp, sm tag, line)`.
    l2_winners: Vec<(u64, u32, u64)>,
    dram: Vec<DramChannel>,
    dram_banks: u64,
    lines_per_row: u64,
    events: BinaryHeap<Reverse<(u64, Event)>>,
    dram_completions: Vec<(u64, u64)>,
    /// SMs whose L1 (or private RT cache) received a fill during the most
    /// recent tick; see [`MemorySystem::l1_touched`].
    l1_touched: Vec<usize>,
}

impl MemorySystem {
    /// Builds the hierarchy for `cfg`.
    pub fn new(cfg: &GpuConfig) -> Self {
        let l2_sets_per_bank = (cfg.l2_sets() / cfg.l2_banks).max(1);
        let rt_cache_of = |_: usize| match cfg.rt_cache {
            RtCachePolicy::SharedWithLsu => None,
            RtCachePolicy::Private { bytes } => {
                let sets = (bytes / (4 * cfg.line_bytes)).max(1);
                Some(Cache::new(sets, 4, cfg.l1_mshrs))
            }
            // Bypass = a degenerate one-line cache: no capacity to
            // pollute, but in-flight duplicate fetches still merge the
            // way a pending-request queue would.
            RtCachePolicy::Bypass => Some(Cache::new(1, 1, cfg.l1_mshrs)),
        };
        MemorySystem {
            line_bytes: cfg.line_bytes as u64,
            l1_latency: cfg.l1_latency,
            half_l2_latency: cfg.l2_latency / 2,
            rt_private: !matches!(cfg.rt_cache, RtCachePolicy::SharedWithLsu),
            l1s: (0..cfg.num_sms)
                .map(|i| SmL1 {
                    l1: Cache::new(cfg.l1_sets(), cfg.l1_ways, cfg.l1_mshrs),
                    rt_cache: rt_cache_of(i),
                    lsu_accesses: 0,
                    rt_accesses: 0,
                })
                .collect(),
            l2_banks: (0..cfg.l2_banks)
                .map(|_| Cache::new(l2_sets_per_bank, cfg.l2_ways, 64))
                .collect(),
            l2_bank_busy: vec![0; cfg.l2_banks],
            l2_queues: vec![BinaryHeap::new(); cfg.l2_banks],
            l2_waiting_banks: Vec::new(),
            l2_winners: Vec::new(),
            dram: (0..cfg.dram_channels)
                .map(|_| {
                    DramChannel::new(
                        cfg.dram_banks,
                        cfg.dram_row_hit_cycles,
                        cfg.dram_row_miss_cycles,
                        cfg.dram_transfer_cycles,
                    )
                })
                .collect(),
            dram_banks: cfg.dram_banks as u64,
            lines_per_row: cfg.lines_per_row(),
            events: BinaryHeap::new(),
            dram_completions: Vec::new(),
            l1_touched: Vec::new(),
        }
    }

    fn push(&mut self, at: u64, event: Event) {
        self.events.push(Reverse((at, event)));
    }

    /// Converts a byte address to a line number.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes
    }

    /// The unique lines touched by `bytes` starting at `addr`.
    pub fn lines_of_range(&self, addr: u64, bytes: u64) -> impl Iterator<Item = u64> {
        let first = addr / self.line_bytes;
        let last = (addr + bytes.max(1) - 1) / self.line_bytes;
        first..=last
    }

    /// Presents one access to `sm`'s L1 port (the caller enforces the
    /// one-access-per-cycle port sharing between LSU and RT FIFO when the
    /// shared policy is active).
    pub fn access(
        &mut self,
        sm: usize,
        line: u64,
        waiter: u64,
        requester: Requester,
        now: u64,
    ) -> AccessOutcome {
        let slot = &mut self.l1s[sm];
        let use_rt_cache = requester == Requester::RtUnit && slot.rt_cache.is_some();
        let event = match slot.cache_for(requester).access(line, waiter) {
            Lookup::Stall => return AccessOutcome::Rejected,
            Lookup::Hit => Some((
                now + self.l1_latency,
                Event::Done {
                    sm: sm as u32,
                    waiter,
                },
            )),
            Lookup::MshrHit => None, // merged; completes with the fill
            Lookup::Miss => {
                // Tag the L2 waiter so the fill returns to the right cache.
                let tag = if use_rt_cache {
                    (sm as u32) | RT_FILL
                } else {
                    sm as u32
                };
                Some((
                    now + self.half_l2_latency,
                    Event::L2Arrive { sm: tag, line },
                ))
            }
        };
        slot.count(requester);
        if let Some((at, ev)) = event {
            self.push(at, ev);
        }
        AccessOutcome::Accepted
    }

    /// A write-through store: counts an L1 access; no completion event (the
    /// workloads keep their hot mutable state in shared memory).
    pub fn store(&mut self, sm: usize, line: u64, requester: Requester) {
        let slot = &mut self.l1s[sm];
        slot.l1.probe(line);
        slot.count(requester);
    }

    /// Returns `true` if `sm`'s L1 MSHR file is full (the access would be
    /// rejected).
    pub fn l1_mshrs_full(&self, sm: usize) -> bool {
        self.l1s[sm].l1.mshrs_full()
    }

    /// Outstanding misses tracked by `sm`'s L1 plus its private RT cache, if
    /// any (deadlock diagnostics: in-flight memory the SM is waiting on).
    pub fn l1_mshrs_in_use(&self, sm: usize) -> usize {
        self.l1s[sm].mshrs_in_use()
    }

    /// Returns `true` when the RT unit has a private path to memory (the
    /// shared L1 port need not be arbitrated).
    pub fn rt_has_private_path(&self) -> bool {
        self.rt_private
    }

    /// Whether presenting `line` on `sm`'s port for `requester` would be
    /// accepted this cycle (i.e. [`MemorySystem::access`] would not return
    /// [`AccessOutcome::Rejected`]). Non-mutating; used by `Sm::next_event`
    /// to distinguish a queue that can make progress next cycle from one
    /// blocked until a fill frees an MSHR — the latter's wakeup is already
    /// owned by this system's event heap.
    pub fn can_accept(&self, sm: usize, line: u64, requester: Requester) -> bool {
        let slot = &self.l1s[sm];
        match (requester, &slot.rt_cache) {
            (Requester::RtUnit, Some(cache)) => cache.can_accept(line),
            _ => slot.l1.can_accept(line),
        }
    }

    /// Bulk-accounts `count` rejected port presentations by `requester` on
    /// `sm`, exactly as `count` per-cycle retries ending in
    /// [`AccessOutcome::Rejected`] would have (stall statistics only — a
    /// rejected access never reaches the requester counters). Called by
    /// `Sm::fast_forward` so the stepped oracle and the event-driven loop
    /// report identical stall streams.
    pub fn note_stalled_probes(&mut self, sm: usize, requester: Requester, count: u64) {
        self.l1s[sm].cache_for(requester).note_stalled_probes(count);
    }

    /// Advances one cycle; appends `(sm, waiter)` completions to `done`.
    pub fn tick(&mut self, now: u64, done: &mut Vec<(usize, u64)>) {
        // DRAM channels progress independently.
        self.dram_completions.clear();
        self.l1_touched.clear();
        let channels = self.dram.len() as u64;
        for (ch, dram) in self.dram.iter_mut().enumerate() {
            let before = self.dram_completions.len();
            dram.tick(now, &mut self.dram_completions);
            // Tokens are lines; convert to L2 fills at the return latency.
            for &(finish, line) in &self.dram_completions[before..] {
                debug_assert_eq!((line % channels) as usize, ch);
                self.events.push(Reverse((finish, Event::L2Fill { line })));
            }
        }

        // Arrivals due now join their bank's queue. One stamped before
        // `now` (a zero-latency hop pushed during the previous cycle's SM
        // ticks) sorts ahead of everything waiting and claims its bank
        // outright; anything else stamped before `now` is handled in heap
        // order, exactly where the heap would have popped it.
        let mut winners = mem::take(&mut self.l2_winners);
        winners.clear();
        while let Some(&Reverse((at, event))) = self.events.peek() {
            let arriving = matches!(event, Event::L2Arrive { .. });
            if at > now || (at == now && !arriving) {
                break;
            }
            self.events.pop();
            match event {
                Event::L2Arrive { sm, line } => {
                    let bank = self.bank_of(line);
                    if at < now && self.l2_bank_busy[bank] <= now {
                        self.l2_bank_busy[bank] = now + 1;
                        winners.push((at, sm, line));
                    } else {
                        self.enqueue_l2(bank, sm, line);
                    }
                }
                other => self.handle(now, other, done),
            }
        }

        // Each free bank serves its smallest waiting request.
        let mut i = 0;
        while i < self.l2_waiting_banks.len() {
            let bank = self.l2_waiting_banks[i];
            if self.l2_bank_busy[bank] <= now {
                if let Some(Reverse((sm, line))) = self.l2_queues[bank].pop() {
                    self.l2_bank_busy[bank] = now + 1;
                    winners.push((now, sm, line));
                }
            }
            if self.l2_queues[bank].is_empty() {
                self.l2_waiting_banks.swap_remove(i);
            } else {
                i += 1;
            }
        }
        winners.sort_unstable();
        for &(_, sm, line) in &winners {
            self.serve_l2(now, sm, line);
        }
        self.l2_winners = winners;

        // Then everything else due now, in heap order.
        while let Some(&Reverse((at, _))) = self.events.peek() {
            if at > now {
                break;
            }
            let Some(Reverse((_, event))) = self.events.pop() else {
                break; // unreachable: we just peeked a due event
            };
            self.handle(now, event, done);
        }
    }

    /// Queues a request at its L2 bank.
    fn enqueue_l2(&mut self, bank: usize, sm: u32, line: u64) {
        let queue = &mut self.l2_queues[bank];
        if queue.is_empty() {
            self.l2_waiting_banks.push(bank);
        }
        queue.push(Reverse((sm, line)));
    }

    /// One L2 lookup by the bank that owns `line`, which has already been
    /// claimed for this cycle.
    fn serve_l2(&mut self, now: u64, sm: u32, line: u64) {
        let bank = self.bank_of(line);
        match self.l2_banks[bank].access(line, sm as u64) {
            Lookup::Hit => {
                self.push(now + self.half_l2_latency, Event::L1Fill { sm, line });
            }
            Lookup::MshrHit => {}
            Lookup::Miss => {
                // Address decomposition: channel (low bits), then column
                // within the row, then bank, then row — so streams of
                // consecutive lines stay in one open row (standard
                // row:bank:col interleaving).
                let ch = self.channel_of(line);
                let channel_line = line / self.dram.len() as u64;
                let banks = self.dram_banks;
                let bank_idx = ((channel_line / self.lines_per_row) % banks) as usize;
                let row = channel_line / (self.lines_per_row * banks);
                self.dram[ch].enqueue(line, bank_idx, row, now);
            }
            // L2 MSHRs full: wait for a fill, and try again next cycle.
            Lookup::Stall => self.enqueue_l2(bank, sm, line),
        }
    }

    /// Handles one popped event other than a bank lookup.
    fn handle(&mut self, now: u64, event: Event, done: &mut Vec<(usize, u64)>) {
        match event {
            // Arrivals sort first within a cycle and only `access` (during
            // SM ticks) pushes them, so `tick` has queued every due one
            // before it handles anything else.
            Event::L2Arrive { .. } => unreachable!("L2 arrival after the cycle's lookups"),
            Event::L2Fill { line } => {
                let bank = self.bank_of(line);
                for sm in self.l2_banks[bank].fill(line) {
                    self.push(
                        now + self.half_l2_latency,
                        Event::L1Fill {
                            sm: sm as u32,
                            line,
                        },
                    );
                }
            }
            Event::L1Fill { sm, line } => {
                let is_rt = sm & RT_FILL != 0;
                let sm_idx = (sm & !RT_FILL) as usize;
                self.l1_touched.push(sm_idx);
                let slot = &mut self.l1s[sm_idx];
                let waiters = match (is_rt, &mut slot.rt_cache) {
                    (true, Some(cache)) => cache.fill(line),
                    // An RT-tagged fill can only originate from an
                    // RT-cache access, which requires the cache to exist.
                    (true, None) => unreachable!("RT fill without an RT cache"),
                    (false, _) => slot.l1.fill(line),
                };
                for waiter in waiters {
                    self.push(
                        now + self.l1_latency,
                        Event::Done {
                            sm: sm_idx as u32,
                            waiter,
                        },
                    );
                }
            }
            Event::Done { sm, waiter } => {
                done.push((sm as usize, waiter));
            }
        }
    }

    /// Returns `true` when no request is in flight anywhere.
    pub fn quiescent(&self) -> bool {
        self.events.is_empty()
            && self.l2_waiting_banks.is_empty()
            && self.dram.iter().all(|d| d.queue_len() == 0)
    }

    /// The earliest future cycle at which [`MemorySystem::tick`] can do any
    /// work, or `None` when the hierarchy is quiescent.
    ///
    /// Three sources of future activity exist, all expressed as absolute
    /// cycles: the event heap (interconnect hops, fills, completions), the
    /// L2 bank queues (a waiting request is looked up next cycle) and each
    /// DRAM channel's next possible FR-FCFS service
    /// ([`DramChannel::next_service_cycle`]). Ticking strictly between `now`
    /// and the returned cycle is provably a no-op, which is what licenses
    /// the event-driven loop to skip those cycles. Call only after `tick
    /// (now)` has drained everything due at `now`; the result is clamped to
    /// `now + 1` so the caller always advances.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        if !self.l2_waiting_banks.is_empty() {
            return Some(now + 1);
        }
        let mut next = self.events.peek().map(|Reverse((at, _))| *at);
        for d in &self.dram {
            next = match (next, d.next_service_cycle()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        next.map(|t| t.max(now + 1))
    }

    /// SMs whose L1 (or private RT cache) received a fill during the most
    /// recent [`MemorySystem::tick`] — the set of SMs whose
    /// [`MemorySystem::can_accept`] answers may just have flipped. May
    /// contain duplicates; order follows event-drain order.
    pub fn l1_touched(&self) -> &[usize] {
        &self.l1_touched
    }

    fn bank_of(&self, line: u64) -> usize {
        (line % self.l2_banks.len() as u64) as usize
    }

    fn channel_of(&self, line: u64) -> usize {
        (line % self.dram.len() as u64) as usize
    }

    /// Aggregated statistics across all components.
    pub fn stats(&self) -> MemoryStats {
        let mut l1 = CacheStats::default();
        let mut rt_cache = CacheStats::default();
        let mut lsu_accesses = 0;
        let mut rt_accesses = 0;
        for slot in &self.l1s {
            let s = slot.l1.stats();
            l1.hits += s.hits;
            l1.mshr_hits += s.mshr_hits;
            l1.misses += s.misses;
            l1.mshr_stalls += s.mshr_stalls;
            if let Some(rt) = &slot.rt_cache {
                let s = rt.stats();
                rt_cache.hits += s.hits;
                rt_cache.mshr_hits += s.mshr_hits;
                rt_cache.misses += s.misses;
                rt_cache.mshr_stalls += s.mshr_stalls;
            }
            lsu_accesses += slot.lsu_accesses;
            rt_accesses += slot.rt_accesses;
        }
        let mut l2 = CacheStats::default();
        for c in &self.l2_banks {
            let s = c.stats();
            l2.hits += s.hits;
            l2.mshr_hits += s.mshr_hits;
            l2.misses += s.misses;
            l2.mshr_stalls += s.mshr_stalls;
        }
        let mut dram = DramStats::default();
        for d in &self.dram {
            let s = d.stats();
            dram.accesses += s.accesses;
            dram.row_hits += s.row_hits;
            dram.activations += s.activations;
        }
        MemoryStats {
            l1_lsu_accesses: lsu_accesses,
            l1_rt_accesses: rt_accesses,
            l1,
            rt_cache,
            l2,
            dram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until_done(mem: &mut MemorySystem, expect: usize, max: u64) -> Vec<(u64, usize, u64)> {
        let mut done = Vec::new();
        let mut out = Vec::new();
        for now in 0..max {
            done.clear();
            mem.tick(now, &mut done);
            for &(sm, w) in &done {
                out.push((now, sm, w));
            }
            if out.len() >= expect && mem.quiescent() {
                break;
            }
        }
        out
    }

    #[test]
    fn l1_hit_latency() {
        let cfg = GpuConfig::tiny();
        let mut mem = MemorySystem::new(&cfg);
        // Warm the line (miss then fill).
        assert_eq!(
            mem.access(0, 7, 1, Requester::Lsu, 0),
            AccessOutcome::Accepted
        );
        let first = run_until_done(&mut mem, 1, 100_000);
        assert_eq!(first.len(), 1);
        let miss_done = first[0].0;
        assert!(
            miss_done > cfg.l1_latency + cfg.l2_latency / 2,
            "miss was too fast"
        );

        // Second access hits.
        let t0 = miss_done + 1;
        assert_eq!(
            mem.access(0, 7, 2, Requester::Lsu, t0),
            AccessOutcome::Accepted
        );
        let mut done = Vec::new();
        for now in t0..t0 + cfg.l1_latency + 2 {
            done.clear();
            mem.tick(now, &mut done);
            if !done.is_empty() {
                assert_eq!(now, t0 + cfg.l1_latency, "hit latency mismatch");
                return;
            }
        }
        panic!(
            "hit never completed within {} cycles; quiescent={}, next_event={:?}",
            cfg.l1_latency + 2,
            mem.quiescent(),
            mem.next_event(t0 + cfg.l1_latency + 2),
        );
    }

    #[test]
    fn shared_l2_serves_second_sm_without_dram() {
        let cfg = GpuConfig::small();
        let mut mem = MemorySystem::new(&cfg);
        mem.access(0, 42, 1, Requester::Lsu, 0);
        run_until_done(&mut mem, 1, 100_000);
        let dram_before = mem.stats().dram.accesses;
        // A different SM misses its L1 but hits in L2.
        mem.access(1, 42, 2, Requester::Lsu, 10_000);
        let mut done = Vec::new();
        for now in 10_000..20_000 {
            done.clear();
            mem.tick(now, &mut done);
            if !done.is_empty() {
                break;
            }
        }
        assert_eq!(
            mem.stats().dram.accesses,
            dram_before,
            "L2 hit must not touch DRAM"
        );
        assert_eq!(mem.stats().l2.hits, 1);
    }

    #[test]
    fn requester_accounting() {
        let cfg = GpuConfig::tiny();
        let mut mem = MemorySystem::new(&cfg);
        mem.access(0, 1, 1, Requester::Lsu, 0);
        mem.access(0, 2, 2, Requester::RtUnit, 1);
        mem.store(0, 3, Requester::Lsu);
        let s = mem.stats();
        assert_eq!(s.l1_lsu_accesses, 2);
        assert_eq!(s.l1_rt_accesses, 1);
    }

    #[test]
    fn range_line_splitting() {
        let cfg = GpuConfig::tiny();
        let mem = MemorySystem::new(&cfg);
        // 128-byte lines: a 64-byte fetch at offset 96 spans two lines.
        let lines: Vec<u64> = mem.lines_of_range(96, 64).collect();
        assert_eq!(lines, vec![0, 1]);
        let lines: Vec<u64> = mem.lines_of_range(0, 128).collect();
        assert_eq!(lines, vec![0]);
        let lines: Vec<u64> = mem.lines_of_range(256, 1).collect();
        assert_eq!(lines, vec![2]);
    }

    #[test]
    fn next_event_predicts_every_productive_tick() {
        // Differential pin of the hierarchy's next_event contract: drive a
        // burst of misses to completion cycle by cycle and assert that every
        // tick that delivered a completion (or was needed to make progress)
        // lands exactly on a predicted cycle, and that predicted idle gaps
        // deliver nothing.
        let cfg = GpuConfig::tiny();
        let mut mem = MemorySystem::new(&cfg);
        for (i, line) in [0u64, 7, 7, 129, 4096].into_iter().enumerate() {
            assert_eq!(
                mem.access(0, line, i as u64, Requester::Lsu, 0),
                AccessOutcome::Accepted
            );
        }
        let mut done = Vec::new();
        let mut now = 0u64;
        mem.tick(now, &mut done);
        while !mem.quiescent() {
            let next = mem
                .next_event(now)
                .expect("non-quiescent hierarchy must report a next event");
            assert!(next > now, "next_event must advance ({next} <= {now})");
            let before = done.len();
            for t in now + 1..next {
                mem.tick(t, &mut done);
                assert_eq!(done.len(), before, "completion inside skipped gap at {t}");
            }
            mem.tick(next, &mut done);
            now = next;
        }
        assert_eq!(mem.next_event(now), None, "quiescent => no next event");
        let mut waiters: Vec<u64> = done.iter().map(|&(_, w)| w).collect();
        waiters.sort_unstable();
        assert_eq!(waiters, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn next_event_sees_l1_hit_latency() {
        // A pure L1 hit's Done event is the only future activity: next_event
        // must report exactly now + l1_latency.
        let cfg = GpuConfig::tiny();
        let mut mem = MemorySystem::new(&cfg);
        mem.access(0, 3, 1, Requester::Lsu, 0);
        let mut done = Vec::new();
        let mut now = 0;
        while !mem.quiescent() {
            mem.tick(now, &mut done);
            now += 1;
        }
        done.clear();
        let t0 = now + 100;
        mem.access(0, 3, 2, Requester::Lsu, t0);
        assert_eq!(mem.next_event(t0), Some(t0 + cfg.l1_latency));
        mem.tick(t0 + cfg.l1_latency, &mut done);
        assert_eq!(done, vec![(0, 2)]);
    }

    #[test]
    fn l2_bank_conflicts_queue_in_sm_line_order() {
        // Six misses from different SMs, presented out of SM order, all
        // reach L2 bank 0 on the same cycle. The bank looks up one per
        // cycle, smallest (sm, line) first, and the losers wait in its
        // queue rather than in the event heap. The completion cycles are
        // the ones the hierarchy produced when every loser was re-pushed
        // into the heap each cycle, on a machine with a multi-cycle L2 hop
        // and on one whose hop is zero cycles (`l2_latency` 1).
        let order = [5usize, 2, 4, 0, 3, 1];
        let cases: [(u64, [(u64, usize); 6]); 2] = [
            (
                GpuConfig::small().l2_latency,
                [(261, 0), (265, 3), (281, 1), (285, 4), (301, 2), (305, 5)],
            ),
            (
                1,
                [(81, 0), (85, 3), (101, 1), (105, 4), (121, 2), (125, 5)],
            ),
        ];
        // Requests not looked up yet: in the heap or in bank 0's queue.
        fn pending(mem: &MemorySystem) -> (Vec<(u32, u64)>, usize) {
            let mut waiting: Vec<(u32, u64)> =
                mem.l2_queues[0].iter().map(|&Reverse(r)| r).collect();
            let mut in_heap = 0;
            for Reverse((_, event)) in mem.events.iter() {
                if let Event::L2Arrive { sm, line } = *event {
                    waiting.push((sm, line));
                    in_heap += 1;
                }
            }
            (waiting, in_heap)
        }
        for (l2_latency, expect) in cases {
            let cfg = GpuConfig {
                l2_latency,
                ..GpuConfig::small()
            };
            let mut mem = MemorySystem::new(&cfg);
            let line_of = |sm: u64| cfg.l2_banks as u64 * (10 - sm);
            for &sm in &order {
                assert_eq!(
                    mem.access(sm, line_of(sm as u64), sm as u64, Requester::Lsu, 0),
                    AccessOutcome::Accepted
                );
            }
            let mut done = Vec::new();
            let mut completions = Vec::new();
            let mut served = Vec::new();
            let mut now = 0;
            while !mem.quiescent() {
                let (before, _) = pending(&mem);
                done.clear();
                mem.tick(now, &mut done);
                completions.extend(done.iter().map(|&(sm, _)| (now, sm)));
                let (after, in_heap) = pending(&mem);
                let looked_up: Vec<_> = before.iter().filter(|r| !after.contains(r)).collect();
                assert!(looked_up.len() <= 1, "two lookups at {now}: {looked_up:?}");
                if let Some(&&r) = looked_up.first() {
                    assert!(after.iter().all(|&q| q > r), "{r:?} was not the smallest");
                    served.push(r);
                }
                // No retry storm: a waiting request sits in its bank's
                // queue, not in the heap, and the heap holds at most one
                // entry per in-flight request.
                if !mem.l2_queues[0].is_empty() {
                    assert_eq!(in_heap, 0, "a waiting request is in the heap at {now}");
                }
                assert!(mem.events.len() <= order.len(), "heap grew at {now}");
                now += 1;
                assert!(now < 100_000, "hierarchy never drained");
            }
            let by_sm: Vec<(u32, u64)> = (0..6).map(|sm| (sm, line_of(sm as u64))).collect();
            assert_eq!(served, by_sm, "l2_latency {l2_latency}");
            assert_eq!(completions, expect, "l2_latency {l2_latency}");
        }
    }

    #[test]
    fn mshr_merge_completes_all_waiters() {
        let cfg = GpuConfig::tiny();
        let mut mem = MemorySystem::new(&cfg);
        mem.access(0, 9, 1, Requester::Lsu, 0);
        mem.access(0, 9, 2, Requester::Lsu, 1);
        mem.access(0, 9, 3, Requester::RtUnit, 2);
        let done = run_until_done(&mut mem, 3, 100_000);
        let mut waiters: Vec<u64> = done.iter().map(|&(_, _, w)| w).collect();
        waiters.sort_unstable();
        assert_eq!(waiters, vec![1, 2, 3]);
        // One DRAM access despite three waiters.
        assert_eq!(mem.stats().dram.accesses, 1);
    }
}
