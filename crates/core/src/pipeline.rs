//! The unified single-lane datapath pipeline (paper §IV-B, Figs. 5 & 6).
//!
//! One thread's operation enters the 9-stage pipeline per cycle; control
//! logic enables the functional units each stage needs for the operation's
//! *operating mode* and modes may be freely interleaved (a ray-box test can
//! follow a Euclidean beat the next cycle). Throughput is therefore one
//! intersection/distance/key operation per cycle regardless of warp
//! divergence — the paper's answer to poor SIMD efficiency.
//!
//! The model tracks per-mode issue counts and per-stage occupancy, which the
//! `hsu-rtl` crate combines with its functional-unit inventory to estimate
//! dynamic power (Fig. 16).

use std::collections::VecDeque;
use std::fmt;

use crate::config::PIPELINE_DEPTH;

/// The five operating modes of the unified datapath (paper Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatingMode {
    /// Four parallel ray-box slab tests plus closest-hit sort.
    RayBox,
    /// One watertight ray-triangle test.
    RayTriangle,
    /// One 16-wide squared-Euclidean-distance beat.
    Euclid,
    /// One 8-wide dot + norm beat.
    Angular,
    /// Up to 36 parallel key comparisons.
    KeyCompare,
}

impl OperatingMode {
    /// All modes, in the paper's Fig. 6 column order.
    pub const ALL: [OperatingMode; 5] = [
        OperatingMode::RayBox,
        OperatingMode::RayTriangle,
        OperatingMode::Euclid,
        OperatingMode::Angular,
        OperatingMode::KeyCompare,
    ];

    /// Returns `true` for the modes only present with the HSU extensions.
    #[inline]
    pub fn is_extension(self) -> bool {
        matches!(
            self,
            OperatingMode::Euclid | OperatingMode::Angular | OperatingMode::KeyCompare
        )
    }

    /// Short label used in stat dumps and figures.
    pub fn label(self) -> &'static str {
        match self {
            OperatingMode::RayBox => "ray-box",
            OperatingMode::RayTriangle => "ray-tri",
            OperatingMode::Euclid => "euclid",
            OperatingMode::Angular => "angular",
            OperatingMode::KeyCompare => "key-cmp",
        }
    }

    /// Index into dense per-mode arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            OperatingMode::RayBox => 0,
            OperatingMode::RayTriangle => 1,
            OperatingMode::Euclid => 2,
            OperatingMode::Angular => 3,
            OperatingMode::KeyCompare => 4,
        }
    }
}

impl fmt::Display for OperatingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An operation completing this cycle: its mode and the caller-supplied tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Operating mode of the completed operation.
    pub mode: OperatingMode,
    /// Opaque tag supplied at issue (e.g. warp-buffer entry × lane).
    pub tag: u64,
}

/// Aggregate statistics of a pipeline's lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Total elapsed cycles.
    pub cycles: u64,
    /// Operations issued, indexed by [`OperatingMode::index`].
    pub issued: [u64; 5],
    /// Operations completed, indexed by [`OperatingMode::index`].
    pub completed: [u64; 5],
    /// Cycles in which an operation was issued (issue-slot utilization).
    pub issue_busy_cycles: u64,
}

impl PipelineStats {
    /// Total completed operations across all modes.
    pub fn total_completed(&self) -> u64 {
        self.completed.iter().sum()
    }

    /// Completed operations per cycle — the paper's HSU "performance" metric
    /// for the roofline (§VI-B). Zero if no cycles have elapsed.
    pub fn ops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_completed() as f64 / self.cycles as f64
        }
    }
}

/// Cycle-accurate model of the 9-stage single-lane pipeline.
///
/// # Examples
///
/// ```
/// use hsu_core::pipeline::{DatapathPipeline, OperatingMode};
///
/// let mut pipe = DatapathPipeline::new();
/// assert!(pipe.issue(OperatingMode::RayBox, 1));
/// assert!(pipe.issue_blocked()); // one issue per cycle
/// let mut done = Vec::new();
/// for _ in 0..9 {
///     done.extend(pipe.tick());
/// }
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].tag, 1);
/// ```
#[derive(Debug)]
pub struct DatapathPipeline {
    /// `stages[0]` is the issue stage; ops shift toward `stages[depth-1]`.
    stages: VecDeque<Option<Completion>>,
    issued_this_cycle: bool,
    stats: PipelineStats,
}

impl Default for DatapathPipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl DatapathPipeline {
    /// Creates an empty pipeline of [`PIPELINE_DEPTH`] stages.
    pub fn new() -> Self {
        DatapathPipeline {
            stages: (0..PIPELINE_DEPTH).map(|_| None).collect(),
            issued_this_cycle: false,
            stats: PipelineStats::default(),
        }
    }

    /// Returns `true` if the single issue slot was already used this cycle.
    #[inline]
    pub fn issue_blocked(&self) -> bool {
        self.issued_this_cycle
    }

    /// Issues one thread's operation into stage 1. Returns `false` (and does
    /// nothing) if an operation was already issued this cycle.
    pub fn issue(&mut self, mode: OperatingMode, tag: u64) -> bool {
        if self.issued_this_cycle {
            return false;
        }
        debug_assert!(self.stages[0].is_none(), "stage 1 occupied at issue time");
        self.stages[0] = Some(Completion { mode, tag });
        self.issued_this_cycle = true;
        self.stats.issued[mode.index()] += 1;
        self.stats.issue_busy_cycles += 1;
        true
    }

    /// Advances every in-flight operation by one stage and ends the cycle.
    /// Returns the operation leaving the last stage, if any (at most one,
    /// since the initiation interval is one).
    pub fn tick(&mut self) -> Option<Completion> {
        self.stats.cycles += 1;
        self.issued_this_cycle = false;
        let done = self.stages.pop_back().flatten();
        if let Some(done) = done {
            self.stats.completed[done.mode.index()] += 1;
        }
        self.stages.push_front(None);
        done
    }

    /// Accounts `cycles` idle cycles at once — the event-driven simulator
    /// calls this instead of ticking an empty pipeline cycle by cycle, so
    /// [`PipelineStats::cycles`] stays identical to the stepped loop's.
    ///
    /// # Panics
    ///
    /// Panics (debug) if operations are in flight: a non-empty pipeline
    /// changes state every cycle and must be ticked.
    pub fn fast_forward(&mut self, cycles: u64) {
        debug_assert!(
            self.is_empty(),
            "fast-forward across an occupied pipeline would skip completions"
        );
        self.issued_this_cycle = false;
        self.stats.cycles += cycles;
    }

    /// Number of operations currently in flight.
    pub fn in_flight(&self) -> usize {
        self.stages.iter().flatten().count()
    }

    /// Returns `true` when no operations are in flight.
    pub fn is_empty(&self) -> bool {
        self.in_flight() == 0
    }

    /// Modes currently occupying each stage, front (issue) to back; used by
    /// the power model to compute per-stage activity.
    pub fn stage_modes(&self) -> Vec<Option<OperatingMode>> {
        self.stages.iter().map(|s| s.map(|c| c.mode)).collect()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_is_nine() {
        let mut pipe = DatapathPipeline::new();
        pipe.issue(OperatingMode::Euclid, 42);
        let mut cycles = 0;
        loop {
            let done = pipe.tick();
            cycles += 1;
            if let Some(done) = done {
                assert_eq!(done.tag, 42);
                break;
            }
            assert!(cycles <= PIPELINE_DEPTH as u64, "op never completed");
        }
        assert_eq!(cycles, PIPELINE_DEPTH as u64);
    }

    #[test]
    fn fast_forward_matches_idle_ticks() {
        // N idle ticks and one fast_forward(N) must leave identical stats.
        let mut ticked = DatapathPipeline::new();
        let mut skipped = DatapathPipeline::new();
        for _ in 0..37 {
            assert!(ticked.tick().is_none());
        }
        skipped.fast_forward(37);
        assert_eq!(ticked.stats(), skipped.stats());
        // Both can issue normally afterwards.
        assert!(ticked.issue(OperatingMode::Euclid, 0));
        assert!(skipped.issue(OperatingMode::Euclid, 0));
    }

    #[test]
    fn one_issue_per_cycle() {
        let mut pipe = DatapathPipeline::new();
        assert!(pipe.issue(OperatingMode::RayBox, 0));
        assert!(!pipe.issue(OperatingMode::RayBox, 1));
        pipe.tick();
        assert!(pipe.issue(OperatingMode::RayBox, 1));
    }

    #[test]
    fn mixed_modes_fully_pipeline() {
        // "a thread executing a ray-box test can be scheduled the cycle after
        //  a thread executing a ray-triangle test" (§IV-B).
        let mut pipe = DatapathPipeline::new();
        let pattern = [
            OperatingMode::RayTriangle,
            OperatingMode::RayBox,
            OperatingMode::Euclid,
            OperatingMode::Angular,
            OperatingMode::KeyCompare,
        ];
        let mut completions = Vec::new();
        for cycle in 0..200u64 {
            let mode = pattern[(cycle % 5) as usize];
            assert!(pipe.issue(mode, cycle));
            completions.extend(pipe.tick());
        }
        // After warm-up, exactly one op completes per cycle.
        assert_eq!(completions.len(), 200 - PIPELINE_DEPTH + 1);
        // Order is FIFO.
        for (i, c) in completions.iter().enumerate() {
            assert_eq!(c.tag, i as u64);
        }
        let stats = pipe.stats();
        assert_eq!(stats.issued.iter().sum::<u64>(), 200);
        assert!(stats.ops_per_cycle() > 0.9);
    }

    #[test]
    fn bubbles_propagate() {
        let mut pipe = DatapathPipeline::new();
        pipe.issue(OperatingMode::RayBox, 0);
        pipe.tick();
        pipe.tick(); // bubble
        pipe.issue(OperatingMode::RayBox, 1);
        let mut tags = Vec::new();
        for _ in 0..PIPELINE_DEPTH + 2 {
            tags.extend(pipe.tick().map(|c| c.tag));
        }
        assert_eq!(tags, vec![0, 1]);
        assert!(pipe.is_empty());
    }

    #[test]
    fn stage_modes_reflect_occupancy() {
        let mut pipe = DatapathPipeline::new();
        pipe.issue(OperatingMode::Angular, 0);
        let modes = pipe.stage_modes();
        assert_eq!(modes[0], Some(OperatingMode::Angular));
        assert!(modes[1..].iter().all(|m| m.is_none()));
        pipe.tick();
        let modes = pipe.stage_modes();
        assert_eq!(modes[1], Some(OperatingMode::Angular));
    }

    #[test]
    fn mode_metadata() {
        assert_eq!(OperatingMode::ALL.len(), 5);
        let mut seen = std::collections::HashSet::new();
        for m in OperatingMode::ALL {
            assert!(seen.insert(m.index()), "duplicate index");
            assert!(!m.label().is_empty());
        }
        assert!(!OperatingMode::RayBox.is_extension());
        assert!(!OperatingMode::RayTriangle.is_extension());
        assert!(OperatingMode::Euclid.is_extension());
    }

    #[test]
    fn stats_accumulate() {
        let mut pipe = DatapathPipeline::new();
        for i in 0..20 {
            pipe.issue(OperatingMode::KeyCompare, i);
            pipe.tick();
        }
        for _ in 0..PIPELINE_DEPTH {
            pipe.tick();
        }
        let s = pipe.stats();
        assert_eq!(s.issued[OperatingMode::KeyCompare.index()], 20);
        assert_eq!(s.completed[OperatingMode::KeyCompare.index()], 20);
        assert_eq!(s.total_completed(), 20);
        assert_eq!(s.issue_busy_cycles, 20);
    }
}
