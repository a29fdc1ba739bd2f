//! Router microarchitecture state.
//!
//! Each router is an input-queued virtual-channel router with the paper's
//! two-stage pipeline: stage 1 performs buffer write, route computation and
//! VC allocation; stage 2 performs the two-phase switch allocation and
//! switch traversal, followed by one cycle of link traversal. A flit written
//! into an input buffer at cycle *t* can therefore traverse the switch at
//! *t+1* at the earliest and be written into the next router at *t+3*.
//!
//! HeteroNoC additions (§3): when the output link is wide (two flit lanes),
//! the switch allocator runs a second parallel p:1 arbiter per output port
//! so two flits — from two VCs of one input port, from one VC (two
//! back-to-back flits of the same packet, stored as the two DSET halves), or
//! from two different input ports — cross together.

pub mod arbiter;

use std::collections::VecDeque;

use crate::checkpoint::persist;
use crate::packet::Flit;
use crate::routing::RouteChoice;
use crate::types::{Cycle, LinkId, NodeId, PacketId, PortId, RouterId, VcId};

use arbiter::RrArbiter;

/// State of one input virtual channel.
#[derive(Clone, Debug, Default)]
pub struct InputVc {
    /// Buffered flits, front = oldest.
    pub fifo: VecDeque<Flit>,
    /// Routing decision for the packet currently occupying the VC
    /// (`None` until route computation for the head at the FIFO front).
    pub route: Option<RouteChoice>,
    /// Granted downstream VC (`None` until VC allocation succeeds).
    /// For ejection (local output) this is a dummy grant.
    pub out_vc: Option<VcId>,
    /// True when the granted route is the X-Y escape route.
    pub in_escape_grant: bool,
    /// Flits already sent under the current grant (used to decide whether a
    /// stale grant may still be rescinded for escape diversion).
    pub sent_on_grant: u32,
    /// Cycles the head flit has been waiting for/with a grant without
    /// sending (escape-diversion timeout).
    pub head_wait: u32,
    /// Packet that owns the VC's current route/grant (set at route
    /// computation, cleared on release). Lets the fault layer identify the
    /// occupant of a granted VC even while its FIFO is momentarily empty
    /// (flits in flight between routers).
    pub holder: Option<PacketId>,
}

impl InputVc {
    /// Resets allocation state after the tail flit leaves.
    pub fn release(&mut self) {
        self.route = None;
        self.out_vc = None;
        self.in_escape_grant = false;
        self.sent_on_grant = 0;
        self.head_wait = 0;
        self.holder = None;
    }
}

/// Allocation state of one downstream (output-side) virtual channel.
#[derive(Clone, Copy, Debug)]
pub struct OutputVc {
    /// Input VC (port, vc) of the packet holding this output VC.
    pub owner: Option<(PortId, VcId)>,
    /// Credits = free flit slots in the downstream input VC buffer.
    pub credits: u32,
}

/// What an output port drives.
#[derive(Clone, Copy, Debug)]
pub enum OutputTarget {
    /// Ejection to the attached node (an ideal sink).
    Sink {
        /// Destination node.
        node: NodeId,
    },
    /// A channel to a neighbouring router.
    Channel {
        /// The outgoing link.
        link: LinkId,
        /// Downstream router.
        dst: RouterId,
        /// Input port at the downstream router.
        dst_port: PortId,
    },
}

/// State of one output port.
#[derive(Clone, Debug)]
pub struct OutputPort {
    /// What the port drives.
    pub target: OutputTarget,
    /// Flit lanes (link width / flit width); local sinks use the router's
    /// local-port width.
    pub lanes: usize,
    /// Downstream VC allocation state (empty for sinks).
    pub vcs: Vec<OutputVc>,
    /// VC-allocation arbiter (over flat input VC indices).
    pub va_arb: RrArbiter,
    /// Switch-allocation stage-2 primary arbiter (over input ports).
    pub sa_primary: RrArbiter,
    /// Switch-allocation stage-2 secondary arbiter (over input ports),
    /// present conceptually only when `lanes > 1` (Fig. 6b).
    pub sa_secondary: RrArbiter,
}

/// Complete per-router simulation state.
#[derive(Clone, Debug)]
pub struct RouterState {
    /// Input VC buffers: `inputs[port][vc]`.
    pub inputs: Vec<Vec<InputVc>>,
    /// Output port state, parallel to the topology port list.
    pub outputs: Vec<OutputPort>,
    /// Stage-1 (v:1 per input port) arbiters.
    pub sa_stage1: Vec<RrArbiter>,
    /// Occupied flit slots across all input VCs (kept incrementally for
    /// O(1) utilization sampling).
    pub occupancy: u32,
    /// Occupied flit slots per input port (`port_occ[p]`), maintained at
    /// the same points as `occupancy`. Lets the allocation phases skip
    /// whole empty ports; derived state, rebuilt on checkpoint restore.
    pub port_occ: Vec<u32>,
    /// Total flit slots across all input VCs.
    pub capacity: u32,
    /// Input VCs currently holding at least one flit (incremental).
    pub busy_vcs: u32,
    /// Total input VCs.
    pub total_vcs: u32,
}

impl RouterState {
    /// Front flit of input VC `(port, vc)`, if any.
    pub fn front(&self, port: PortId, vc: VcId) -> Option<&Flit> {
        self.inputs[port.index()][vc.index()].fifo.front()
    }

    /// True when the front flit of `(port, vc)` is switch-eligible at `now`
    /// (it finished the stage-1 cycle: buffered strictly before `now`).
    pub fn front_ready(&self, port: PortId, vc: VcId, now: Cycle) -> bool {
        self.front(port, vc).is_some_and(|f| f.buffered < now)
    }
}

/// A switch-allocation winner: one flit crossing the crossbar this cycle.
#[derive(Clone, Copy, Debug)]
pub struct SaWinner {
    /// Input port of the crossing flit.
    pub in_port: PortId,
    /// Input VC of the crossing flit.
    pub in_vc: VcId,
    /// Output port crossed to.
    pub out_port: PortId,
}

persist!(value InputVc { fifo, route, out_vc, in_escape_grant, sent_on_grant, head_wait, holder });
persist!(value OutputVc { owner, credits });
persist!(shape OutputPort { vcs: fixed, va_arb, sa_primary, sa_secondary } derived {
    // Fixed by the topology and the link widths.
    target, lanes,
});
persist!(shape RouterState {
    inputs: grid, outputs: flat, sa_stage1: flat, occupancy, busy_vcs,
} derived {
    // Rebuilt from the decoded FIFOs on restore.
    port_occ,
    // Fixed by the router configuration.
    capacity, total_vcs,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlitKind, PacketClass};
    use crate::types::{NodeId, PacketId};

    fn flit(buffered: Cycle) -> Flit {
        Flit {
            packet: PacketId(0),
            kind: FlitKind::HeadTail,
            seq: 0,
            total: 1,
            src: NodeId(0),
            dst: NodeId(1),
            class: PacketClass::Data,
            inject: 0,
            buffered,
        }
    }

    #[test]
    fn front_ready_respects_pipeline_stage() {
        let mut r = RouterState {
            inputs: vec![vec![InputVc::default()]],
            outputs: Vec::new(),
            sa_stage1: vec![RrArbiter::new()],
            occupancy: 0,
            port_occ: vec![0],
            capacity: 5,
            busy_vcs: 0,
            total_vcs: 1,
        };
        r.inputs[0][0].fifo.push_back(flit(5));
        assert!(!r.front_ready(PortId(0), VcId(0), 5));
        assert!(r.front_ready(PortId(0), VcId(0), 6));
    }

    #[test]
    fn release_clears_grant_state() {
        let mut vc = InputVc {
            route: None,
            out_vc: Some(VcId(2)),
            in_escape_grant: true,
            sent_on_grant: 3,
            head_wait: 9,
            holder: Some(PacketId(7)),
            ..Default::default()
        };
        vc.release();
        assert!(vc.out_vc.is_none());
        assert!(vc.holder.is_none());
        assert!(!vc.in_escape_grant);
        assert_eq!(vc.sent_on_grant, 0);
        assert_eq!(vc.head_wait, 0);
    }
}
