//! Cycle-level GPU timing simulator for the HSU evaluation.
//!
//! This crate stands in for the paper's Accel-Sim + GPGPU-Sim 4.0 stack
//! (§V-C). It models a Volta-class GPU at the fidelity the paper's results
//! depend on:
//!
//! * **SMs with four sub-cores** and greedy-then-oldest (GTO) warp
//!   scheduling, one issue slot per sub-core per cycle (Table III),
//! * **one RT/HSU unit per SM** shared by the sub-cores through a
//!   round-robin arbiter, with the warp buffer, FIFO L1-access queue,
//!   single-lane 9-stage datapath and result buffer of `hsu-core` — in one
//!   of two organizations ([`config::RtCoreKind`]): the paper's
//!   slot-scanned baseline ([`rt_unit::RtUnit`]) or a treelet-scheduled
//!   core with cache-line staging buffers ([`treelet::TreeletRtUnit`]),
//!   functionally identical but timed differently,
//! * **L1D caches with MSHRs** (128 KB, 128-B lines) time-shared between the
//!   load-store unit and the RT unit's fetch FIFO (§VI-H),
//! * a shared, banked **L2** (6 MB, 24-way) and **HBM channels with FR-FCFS**
//!   row-buffer scheduling whose locality statistics feed Fig. 14,
//! * a **trace format** ([`trace`]) the workload kernels emit: per-thread
//!   operation logs packed into 32-lane warps with divergence-aware active
//!   masks.
//!
//! The simulator is deterministic: the same trace and configuration always
//! produce the same cycle count and statistics.
//!
//! # Simulation modes
//!
//! Time advances under one of two [`config::SimMode`]s, both on a single
//! thread. `Stepped` is the oracle: every component ticks on every cycle.
//! `Event` (the default) is the fast path: each component reports the
//! earliest future cycle its state can change
//! ([`memory::MemorySystem::next_event`], [`sm::Sm::next_event`]), the run
//! loop jumps straight to the minimum, and within a visited cycle only the
//! SMs that can observe it tick — the rest sleep until a completion, an L1
//! fill, or their own wakeup cycle arrives, and bulk-account the skipped
//! window via `fast_forward`. Both modes produce bit-identical
//! [`SimReport`]s (only the [`stats::SchedStats`] scheduler counters
//! differ); `tests/sim_equivalence.rs` proves this differentially over
//! random kernels, random machine geometries, and the full benchmark
//! suite.
//!
//! # Examples
//!
//! ```
//! use hsu_sim::config::GpuConfig;
//! use hsu_sim::trace::{KernelTrace, ThreadOp, ThreadTrace};
//! use hsu_sim::Gpu;
//!
//! let mut kernel = KernelTrace::new("demo");
//! for t in 0..64 {
//!     let mut thread = ThreadTrace::new();
//!     thread.push(ThreadOp::Alu { count: 4 });
//!     thread.push(ThreadOp::Load { addr: t * 128, bytes: 4 });
//!     kernel.push_thread(thread);
//! }
//! let report = Gpu::new(GpuConfig::small()).run(&kernel).unwrap();
//! assert!(report.cycles > 0);
//! ```
//!
//! # Failure semantics
//!
//! Everything a caller can trigger with bad input — malformed traces,
//! invalid configurations, guard-exceeding kernels, cancelled or timed-out
//! runs — surfaces as a typed [`SimError`] rather than a panic. Panics that
//! remain (`unreachable!` sites in component internals) indicate simulator
//! bugs, never bad input; see [`error`] for the taxonomy.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod archive_io;
pub mod cache;
pub mod config;
pub mod dram;
pub mod error;
pub mod faults;
pub mod memory;
pub mod rt_core;
pub mod rt_unit;
pub mod sm;
pub mod stats;
pub mod trace;
pub mod trace_io;
pub mod treelet;

mod gpu;

pub use error::SimError;
pub use gpu::Gpu;
pub use stats::SimReport;

// The parallel suite runner fans simulations out across scoped threads, so
// the simulator's job inputs and outputs must stay `Send + Sync`. Keep these
// assertions next to the types they guard: adding an `Rc`/`RefCell` anywhere
// inside breaks the build here rather than deep in `hsu-bench`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Gpu>();
    assert_send_sync::<SimReport>();
    assert_send_sync::<trace::KernelTrace>();
    assert_send_sync::<config::GpuConfig>();
    // Errors cross the same thread boundaries as reports (the fault-tolerant
    // runner carries them through catch_unwind + channels).
    assert_send_sync::<SimError>();
    assert_send_sync::<error::CancelToken>();
};
