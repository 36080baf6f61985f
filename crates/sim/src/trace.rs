//! The kernel trace format: per-thread operation logs packed into warps.
//!
//! Workload kernels run *functionally* (producing real answers) while
//! recording one [`ThreadTrace`] per CUDA thread. [`KernelTrace::warps`]
//! packs threads into 32-lane warps and converts the logs into warp
//! instructions with divergence-aware active masks: at each step the next
//! operation of every unfinished lane is taken, lanes are grouped by
//! operation class, and one warp instruction is emitted per distinct class —
//! the serialization penalty branch divergence costs a real SIMT machine.

use std::ops::Range;

use hsu_geometry::point::Metric;

/// Number of threads per warp.
pub const WARP_WIDTH: usize = 32;

/// One operation executed by one thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThreadOp {
    /// `count` back-to-back scalar ALU instructions.
    Alu {
        /// Number of dependent ALU instructions.
        count: u32,
    },
    /// A global memory load.
    Load {
        /// Byte address.
        addr: u64,
        /// Bytes read (split into lines by the coalescer).
        bytes: u32,
    },
    /// A global memory store (modelled write-through, fire-and-forget).
    Store {
        /// Byte address.
        addr: u64,
        /// Bytes written.
        bytes: u32,
    },
    /// `count` shared-memory operations (priority-queue maintenance etc.).
    Shared {
        /// Number of shared-memory instructions.
        count: u32,
    },
    /// A `RAY_INTERSECT` on the RT/HSU unit.
    HsuRayIntersect {
        /// Node byte address.
        node_addr: u64,
        /// Bytes the CISC fetch reads.
        bytes: u32,
        /// `true` when the node is a triangle leaf (ray-triangle mode),
        /// `false` for a box node (ray-box mode).
        triangle: bool,
    },
    /// A full multi-beat distance computation on the HSU (the simulator
    /// derives the beat count from the configured datapath width).
    HsuDistance {
        /// Euclidean or angular mode.
        metric: Metric,
        /// Point dimensionality.
        dim: u32,
        /// Byte address of the candidate vector.
        candidate_addr: u64,
    },
    /// A `KEY_COMPARE` chain on the HSU (`ceil(separators / 36)` datapath
    /// operations, one node fetch).
    HsuKeyCompare {
        /// Node byte address.
        node_addr: u64,
        /// Separator count in the node.
        separators: u32,
    },
}

impl ThreadOp {
    /// Dense class index used to group divergent lanes (same-class ops from
    /// different lanes form one warp instruction).
    pub fn class(&self) -> OpClass {
        match self {
            ThreadOp::Alu { .. } => OpClass::Alu,
            ThreadOp::Load { .. } => OpClass::Load,
            ThreadOp::Store { .. } => OpClass::Store,
            ThreadOp::Shared { .. } => OpClass::Shared,
            ThreadOp::HsuRayIntersect { .. } => OpClass::HsuRayIntersect,
            ThreadOp::HsuDistance { .. } => OpClass::HsuDistance,
            ThreadOp::HsuKeyCompare { .. } => OpClass::HsuKeyCompare,
        }
    }

    /// Returns `true` for operations executed on the RT/HSU unit.
    pub fn is_hsu(&self) -> bool {
        self.class().is_hsu()
    }
}

/// Operation classes for divergence grouping and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum OpClass {
    Alu,
    Load,
    Store,
    Shared,
    HsuRayIntersect,
    HsuDistance,
    HsuKeyCompare,
}

impl OpClass {
    /// All classes, in stat-dump order.
    pub const ALL: [OpClass; 7] = [
        OpClass::Alu,
        OpClass::Load,
        OpClass::Store,
        OpClass::Shared,
        OpClass::HsuRayIntersect,
        OpClass::HsuDistance,
        OpClass::HsuKeyCompare,
    ];

    /// Dense index.
    pub fn index(self) -> usize {
        match self {
            OpClass::Alu => 0,
            OpClass::Load => 1,
            OpClass::Store => 2,
            OpClass::Shared => 3,
            OpClass::HsuRayIntersect => 4,
            OpClass::HsuDistance => 5,
            OpClass::HsuKeyCompare => 6,
        }
    }

    /// Returns `true` for the classes executed on the RT/HSU unit.
    pub fn is_hsu(self) -> bool {
        matches!(
            self,
            OpClass::HsuRayIntersect | OpClass::HsuDistance | OpClass::HsuKeyCompare
        )
    }

    /// Label for stat dumps.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Alu => "alu",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Shared => "shared",
            OpClass::HsuRayIntersect => "hsu-ray",
            OpClass::HsuDistance => "hsu-dist",
            OpClass::HsuKeyCompare => "hsu-key",
        }
    }
}

/// The operation log of one thread.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadTrace {
    ops: Vec<ThreadOp>,
}

impl ThreadTrace {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an operation, merging consecutive `Alu`/`Shared` runs.
    pub fn push(&mut self, op: ThreadOp) {
        match (self.ops.last_mut(), op) {
            (Some(ThreadOp::Alu { count }), ThreadOp::Alu { count: c }) => *count += c,
            (Some(ThreadOp::Shared { count }), ThreadOp::Shared { count: c }) => *count += c,
            _ => self.ops.push(op),
        }
    }

    /// The logged operations.
    pub fn ops(&self) -> &[ThreadOp] {
        &self.ops
    }

    /// Returns `true` if nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// One warp instruction: an operation class, the lanes that take part, and
/// where their operations sit in the owning [`WarpTrace`]'s op stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WarpInstruction {
    /// Lanes participating (bit *i* = lane *i*); never zero.
    pub active_mask: u32,
    /// The operation class every active lane shares.
    pub class: OpClass,
    /// The active lanes' ops in [`WarpTrace`]'s stream, in lane order.
    ops: Range<u32>,
}

impl WarpInstruction {
    /// Number of active lanes.
    pub fn active_lanes(&self) -> u32 {
        self.active_mask.count_ones()
    }
}

/// The instruction stream of one warp: instructions in program order over
/// one flat vector of the active lanes' operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarpTrace {
    /// Instructions in program order.
    pub instructions: Vec<WarpInstruction>,
    ops: Vec<ThreadOp>,
}

impl WarpTrace {
    /// The ops of `instr` (an instruction of this trace), one per active
    /// lane in ascending lane order: the *i*-th op belongs to the *i*-th set
    /// bit of `instr.active_mask`.
    pub fn ops(&self, instr: &WarpInstruction) -> &[ThreadOp] {
        &self.ops[instr.ops.start as usize..instr.ops.end as usize]
    }
}

/// A kernel launch: one trace per thread, packed into warps on demand.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelTrace {
    name: String,
    threads: Vec<ThreadTrace>,
}

impl KernelTrace {
    /// Creates an empty kernel trace.
    pub fn new(name: impl Into<String>) -> Self {
        KernelTrace {
            name: name.into(),
            threads: Vec::new(),
        }
    }

    /// The kernel's name (reported in stats).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends one thread's log.
    pub fn push_thread(&mut self, thread: ThreadTrace) {
        self.threads.push(thread);
    }

    /// Number of threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The per-thread operation logs.
    pub fn threads(&self) -> &[ThreadTrace] {
        &self.threads
    }

    /// Total operations across all threads (Alu/Shared runs count as `count`
    /// instructions).
    pub fn total_instructions(&self) -> u64 {
        self.threads
            .iter()
            .flat_map(|t| t.ops())
            .map(|op| match op {
                ThreadOp::Alu { count } | ThreadOp::Shared { count } => *count as u64,
                _ => 1,
            })
            .sum()
    }

    /// Packs threads into warps of 32 consecutive lanes and lowers each
    /// warp's logs into divergence-grouped [`WarpInstruction`]s.
    pub fn warps(&self) -> Vec<WarpTrace> {
        self.threads.chunks(WARP_WIDTH).map(pack_warp).collect()
    }
}

/// Lowers up to 32 thread logs into one warp's instruction stream. At each
/// step every unfinished lane contributes its next op; the class of the
/// lowest pending lane is emitted first (deterministic reconvergence order),
/// then the next remaining class, until the step's lanes are used up.
fn pack_warp(lanes: &[ThreadTrace]) -> WarpTrace {
    let mut cursors = [0usize; WARP_WIDTH];
    // Lanes that still have operations.
    let mut live = 0u32;
    for (l, t) in lanes.iter().enumerate() {
        if !t.ops.is_empty() {
            live |= 1 << l;
        }
    }
    let longest = lanes.iter().map(|t| t.ops.len()).max().unwrap_or(0);
    let mut out = WarpTrace {
        instructions: Vec::with_capacity(longest),
        ops: Vec::with_capacity(lanes.iter().map(|t| t.ops.len()).sum()),
    };
    while live != 0 {
        let mut pending = live;
        while pending != 0 {
            let lead = pending.trailing_zeros() as usize;
            let class = lanes[lead].ops[cursors[lead]].class();
            let start = out.ops.len() as u32;
            let mut mask = 0u32;
            let mut rest = pending;
            while rest != 0 {
                let l = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let ops = &lanes[l].ops;
                let op = ops[cursors[l]];
                if op.class() == class {
                    mask |= 1 << l;
                    out.ops.push(op);
                    cursors[l] += 1;
                    if cursors[l] == ops.len() {
                        live &= !(1 << l);
                    }
                }
            }
            pending &= !mask;
            out.instructions.push(WarpInstruction {
                active_mask: mask,
                class,
                ops: start..out.ops.len() as u32,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_runs_merge() {
        let mut t = ThreadTrace::new();
        t.push(ThreadOp::Alu { count: 2 });
        t.push(ThreadOp::Alu { count: 3 });
        t.push(ThreadOp::Shared { count: 1 });
        t.push(ThreadOp::Shared { count: 1 });
        t.push(ThreadOp::Alu { count: 1 });
        assert_eq!(t.ops().len(), 3);
        assert_eq!(t.ops()[0], ThreadOp::Alu { count: 5 });
        assert_eq!(t.ops()[1], ThreadOp::Shared { count: 2 });
    }

    #[test]
    fn uniform_threads_form_full_warps() {
        let mut k = KernelTrace::new("uniform");
        for i in 0..64u64 {
            let mut t = ThreadTrace::new();
            t.push(ThreadOp::Alu { count: 1 });
            t.push(ThreadOp::Load {
                addr: i * 4,
                bytes: 4,
            });
            k.push_thread(t);
        }
        let warps = k.warps();
        assert_eq!(warps.len(), 2);
        for w in &warps {
            assert_eq!(w.instructions.len(), 2);
            assert_eq!(w.instructions[0].active_mask, u32::MAX);
            assert_eq!(w.instructions[0].class, OpClass::Alu);
            assert_eq!(w.instructions[1].class, OpClass::Load);
        }
    }

    #[test]
    fn divergent_classes_serialize() {
        let mut k = KernelTrace::new("divergent");
        for i in 0..4 {
            let mut t = ThreadTrace::new();
            if i % 2 == 0 {
                t.push(ThreadOp::Alu { count: 1 });
            } else {
                t.push(ThreadOp::Load { addr: 0, bytes: 4 });
            }
            k.push_thread(t);
        }
        let warps = k.warps();
        assert_eq!(warps.len(), 1);
        // One step, two classes -> two serialized warp instructions.
        let w = &warps[0];
        assert_eq!(w.instructions.len(), 2);
        assert_eq!(w.instructions[0].active_mask, 0b0101);
        assert_eq!(w.instructions[1].active_mask, 0b1010);
        assert_eq!(w.ops(&w.instructions[0]), &[ThreadOp::Alu { count: 1 }; 2]);
        assert_eq!(w.ops(&w.instructions[1]).len(), 2);
    }

    #[test]
    fn ops_follow_lane_order_of_the_mask() {
        // Lanes 1, 3 and 4 load distinct addresses; lanes 0 and 2 run ALU
        // ops. Each instruction's ops are its active lanes' in lane order.
        let mut k = KernelTrace::new("lane-order");
        for lane in 0..5u64 {
            let mut t = ThreadTrace::new();
            if matches!(lane, 1 | 3 | 4) {
                t.push(ThreadOp::Load {
                    addr: lane * 100,
                    bytes: 4,
                });
            } else {
                t.push(ThreadOp::Alu {
                    count: lane as u32 + 1,
                });
            }
            k.push_thread(t);
        }
        let w = &k.warps()[0];
        let (alu, load) = (&w.instructions[0], &w.instructions[1]);
        assert_eq!((alu.class, alu.active_mask), (OpClass::Alu, 0b00101));
        assert_eq!(
            w.ops(alu),
            &[ThreadOp::Alu { count: 1 }, ThreadOp::Alu { count: 3 }]
        );
        assert_eq!((load.class, load.active_mask), (OpClass::Load, 0b11010));
        let addrs: Vec<u64> = w
            .ops(load)
            .iter()
            .map(|op| match op {
                ThreadOp::Load { addr, .. } => *addr,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(addrs, vec![100, 300, 400]);
    }

    #[test]
    fn early_exit_lanes_go_inactive() {
        let mut k = KernelTrace::new("ragged");
        for i in 0..3 {
            let mut t = ThreadTrace::new();
            for _ in 0..=i {
                t.push(ThreadOp::Load { addr: 0, bytes: 4 });
            }
            k.push_thread(t);
        }
        let warps = k.warps();
        let masks: Vec<u32> = warps[0]
            .instructions
            .iter()
            .map(|i| i.active_mask)
            .collect();
        assert_eq!(masks, vec![0b111, 0b110, 0b100]);
    }

    #[test]
    fn instruction_count_expands_runs() {
        let mut k = KernelTrace::new("count");
        let mut t = ThreadTrace::new();
        t.push(ThreadOp::Alu { count: 7 });
        t.push(ThreadOp::Load { addr: 0, bytes: 4 });
        k.push_thread(t);
        assert_eq!(k.total_instructions(), 8);
    }

    #[test]
    fn hsu_ops_are_flagged() {
        assert!(ThreadOp::HsuDistance {
            metric: Metric::Euclidean,
            dim: 8,
            candidate_addr: 0
        }
        .is_hsu());
        assert!(ThreadOp::HsuKeyCompare {
            node_addr: 0,
            separators: 10
        }
        .is_hsu());
        assert!(!ThreadOp::Alu { count: 1 }.is_hsu());
        for c in OpClass::ALL {
            assert_eq!(c.is_hsu(), c.index() >= OpClass::HsuRayIntersect.index());
        }
    }

    #[test]
    fn empty_threads_produce_no_instructions() {
        let mut k = KernelTrace::new("empty");
        k.push_thread(ThreadTrace::new());
        k.push_thread(ThreadTrace::new());
        let warps = k.warps();
        assert_eq!(warps.len(), 1);
        assert!(warps[0].instructions.is_empty());
    }

    #[test]
    fn class_metadata_is_dense() {
        let mut seen = std::collections::HashSet::new();
        for c in OpClass::ALL {
            assert!(seen.insert(c.index()));
            assert!(!c.label().is_empty());
        }
        assert_eq!(seen.len(), 7);
    }
}
