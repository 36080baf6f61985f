//! Organization-polymorphic RT-unit front, selected by
//! [`crate::config::GpuConfig::rt_core`].
//!
//! The SM talks to one [`RtCore`] value; every method delegates to the
//! selected organization. An enum (rather than a trait object) keeps the
//! unit inline in [`crate::sm::Sm`] and lets the two organizations expose
//! the exact same typed surface — the cross-organization differential harness in
//! `tests/rt_organization.rs` depends on the functional columns of
//! [`RtUnitStats`] meaning the same thing under either arm.

use hsu_core::warp_buffer::EntryId;
use hsu_core::HsuConfig;

use crate::config::{GpuConfig, RtCoreKind};
use crate::error::SimError;
use crate::rt_unit::{FifoRequest, RtUnit, RtUnitStats};
use crate::trace::ThreadOp;
use crate::treelet::TreeletRtUnit;

/// One SM's RT/HSU unit, in whichever organization the config selected.
#[derive(Debug)]
pub enum RtCore {
    /// The paper's slot-scanned baseline organization.
    Baseline(RtUnit),
    /// The treelet-scheduled organization with staging buffers.
    Treelet(TreeletRtUnit),
}

macro_rules! delegate {
    ($self:ident, $u:ident => $body:expr) => {
        match $self {
            RtCore::Baseline($u) => $body,
            RtCore::Treelet($u) => $body,
        }
    };
}

impl RtCore {
    /// Builds the organization selected by `cfg.rt_core`.
    pub fn new(cfg: &GpuConfig) -> Self {
        match cfg.rt_core {
            RtCoreKind::Baseline => RtCore::Baseline(RtUnit::new(cfg.hsu.clone(), cfg.sub_cores)),
            RtCoreKind::Treelet => RtCore::Treelet(TreeletRtUnit::new(
                cfg.hsu.clone(),
                cfg.sub_cores,
                cfg.rt_staging_buffers,
            )),
        }
    }

    /// Which organization this unit is.
    pub fn kind(&self) -> RtCoreKind {
        match self {
            RtCore::Baseline(_) => RtCoreKind::Baseline,
            RtCore::Treelet(_) => RtCoreKind::Treelet,
        }
    }

    /// The unit's HSU configuration.
    pub fn config(&self) -> &HsuConfig {
        delegate!(self, u => u.config())
    }

    /// Whether the instruction is legal on this unit.
    pub fn supports(&self, op: &ThreadOp) -> bool {
        delegate!(self, u => u.supports(op))
    }

    /// Arbitrates among sub-cores with pending HSU instructions.
    pub fn grant(&mut self, requesting: &[bool]) -> Option<usize> {
        delegate!(self, u => u.grant(requesting))
    }

    /// Dispatches a warp instruction into the unit.
    ///
    /// # Errors
    ///
    /// [`SimError::IllegalDispatch`] with organization-independent
    /// payloads; a failed dispatch leaves the unit untouched.
    pub fn dispatch(
        &mut self,
        warp: usize,
        sub_core: usize,
        active_mask: u32,
        lanes: &[Option<ThreadOp>],
        line_bytes: u64,
    ) -> Result<EntryId, SimError> {
        delegate!(self, u => u.dispatch(warp, sub_core, active_mask, lanes, line_bytes))
    }

    /// The next node fetch awaiting the L1 port, if the organization can
    /// accept one this cycle.
    pub fn peek_fifo(&self) -> Option<FifoRequest> {
        delegate!(self, u => u.peek_fifo())
    }

    /// Removes the request returned by [`RtCore::peek_fifo`].
    pub fn pop_fifo(&mut self) -> Option<FifoRequest> {
        delegate!(self, u => u.pop_fifo())
    }

    /// Memory requests currently queued for fetch.
    pub fn fifo_len(&self) -> usize {
        delegate!(self, u => u.fifo_len())
    }

    /// Occupied warp-buffer entries.
    pub fn warp_buffer_occupancy(&self) -> usize {
        delegate!(self, u => u.warp_buffer_occupancy())
    }

    /// Re-inserts a request the L1 rejected at the FIFO head.
    pub fn push_back_front(&mut self, req: FifoRequest) {
        delegate!(self, u => u.push_back_front(req))
    }

    /// Delivers a memory response for `(entry, req)`.
    pub fn on_mem_response(&mut self, entry: EntryId, req: usize) {
        delegate!(self, u => u.on_mem_response(entry, req))
    }

    /// Advances the unit one cycle.
    pub fn tick(&mut self) {
        delegate!(self, u => u.tick())
    }

    /// Whether the next tick can change architectural state.
    pub fn advances_on_tick(&self) -> bool {
        delegate!(self, u => u.advances_on_tick())
    }

    /// Whether the unit needs cycles (tick or port service) to progress.
    pub fn busy_next_cycle(&self) -> bool {
        delegate!(self, u => u.busy_next_cycle())
    }

    /// Accounts `cycles` provably-idle cycles in one step.
    pub fn fast_forward(&mut self, cycles: u64) {
        delegate!(self, u => u.fast_forward(cycles))
    }

    /// Warps whose HSU instruction wrote back since the last call.
    pub fn take_completed(&mut self) -> Vec<usize> {
        delegate!(self, u => u.take_completed())
    }

    /// Returns `true` when the unit holds no work.
    pub fn idle(&self) -> bool {
        delegate!(self, u => u.idle())
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> RtUnitStats {
        delegate!(self, u => u.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_builds_the_configured_organization() {
        for kind in RtCoreKind::ALL {
            let cfg = GpuConfig::tiny().with_rt_core(kind);
            let core = RtCore::new(&cfg);
            assert_eq!(core.kind(), kind);
            assert!(core.idle());
        }
    }

    #[test]
    fn both_organizations_share_the_support_matrix() {
        let ray = ThreadOp::HsuRayIntersect {
            node_addr: 0,
            bytes: 64,
            triangle: false,
        };
        let dist = ThreadOp::HsuDistance {
            metric: hsu_geometry::point::Metric::Euclidean,
            dim: 8,
            candidate_addr: 0,
        };
        for kind in RtCoreKind::ALL {
            let core = RtCore::new(&GpuConfig::tiny().with_rt_core(kind));
            assert!(core.supports(&ray));
            assert!(core.supports(&dist));
        }
    }
}
