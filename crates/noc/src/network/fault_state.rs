//! Engine-side fault state: link retransmission, hard-fault bookkeeping and
//! packet absorption.
//!
//! This module holds the *data* the fault layer needs; the state machine
//! itself lives in `network.rs` (it is entangled with the event wheel and
//! router state). Everything here exists only when a [`FaultPlan`] was
//! attached via [`super::Network::with_faults`] — fault-free networks carry
//! a `None` and the engine's fast path is untouched.
//!
//! # Link-level retransmission (go-back-N)
//!
//! Every unidirectional link gets a [`LinkTx`]: the sender assigns each flit
//! transmission a sequence number and keeps the flit in a replay buffer
//! until acknowledged. The receiver accepts exactly the next expected
//! sequence number; a corrupted in-order flit is nack'd, out-of-order
//! arrivals (the go-back-N tail behind a corrupted flit) are discarded
//! silently. A nack — or a timeout when both ack and nack are lost (dead
//! receiver) — triggers a bounded retry with exponential backoff that
//! re-sends the whole replay buffer with the original sequence numbers.
//! `epoch` stamps retries so that stale timeouts and resends become no-ops.
//!
//! Credits are consumed at the *first* transmission only; a retransmission
//! never touches flow control, because the downstream buffer slot was
//! reserved when the flit first left. That keeps the credit-conservation
//! invariant exact: `in_transit` counts flits that hold a downstream slot
//! but are not yet buffered there (in the wheel, or parked in a replay
//! buffer awaiting retry), and the `verify`-feature checker adds it to the
//! usual credits + wheel + FIFO sum.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checkpoint::{persist, persist_enum};
use crate::fault::{
    DropReason, DroppedPacket, FaultCounters, FaultPlan, HardFault, RecoveryCounters,
    RecoveryPolicy, UnrecoverableFault,
};
use crate::packet::{Flit, PacketClass};
use crate::topology::TopologyGraph;
use crate::types::{Bits, Cycle, LinkId, NodeId, PacketId, PortId, RouterId, VcId};

/// A transmitted-but-unacknowledged flit held for possible retransmission.
#[derive(Clone, Debug)]
pub(super) struct ReplayEntry {
    /// Link-local sequence number (assigned at first transmission).
    pub seq: u64,
    /// Downstream input VC the flit travels on.
    pub vc: VcId,
    /// The flit itself.
    pub flit: Flit,
}

/// Per-link retransmission state (sender and receiver side of one
/// unidirectional channel).
#[derive(Clone, Debug)]
pub(super) struct LinkTx {
    /// Unacknowledged flits, oldest first.
    pub replay: VecDeque<ReplayEntry>,
    /// Next sequence number to assign.
    pub tx_seq: u64,
    /// Receiver side: next sequence number it will accept.
    pub rx_expected: u64,
    /// Transmission attempts of the current replay window (1 = first send).
    pub attempts: u32,
    /// Bumped on every ack progress and every retry; stamps timeouts and
    /// resends so stale ones are ignored.
    pub epoch: u64,
    /// Nacks arriving before this cycle are duplicates of the failure that
    /// already triggered the pending retry.
    pub backoff_until: Cycle,
    /// Hard-faulted: refuses new VC-allocation grants (in-flight wormholes
    /// drain).
    pub dead: bool,
    /// Per-downstream-VC count of flits that consumed a credit but are not
    /// yet in the downstream FIFO (on the wire or parked in `replay`).
    pub in_transit: Vec<u32>,
}

impl LinkTx {
    fn new(vcs: usize) -> Self {
        Self {
            replay: VecDeque::new(),
            tx_seq: 0,
            rx_expected: 0,
            attempts: 1,
            epoch: 0,
            backoff_until: 0,
            dead: false,
            in_transit: vec![0; vcs],
        }
    }
}

/// Deferred events beyond the 3-cycle wheel horizon (retry timeouts and
/// backoff-delayed resends).
#[derive(Clone, Copy, Debug)]
pub(super) enum FarEvent {
    /// Retransmit `link`'s replay buffer, unless `epoch` is stale.
    Resend {
        /// The retrying link.
        link: LinkId,
        /// Epoch at scheduling time.
        epoch: u64,
    },
    /// The current window of `link` made no ack/nack progress in time.
    Timeout {
        /// The watched link.
        link: LinkId,
        /// Epoch at scheduling time.
        epoch: u64,
    },
    /// End-to-end ack travelling back to the source: retention slot `seq`
    /// of `node` was delivered and may be freed.
    E2eAck {
        /// Source node whose retention buffer holds the slot.
        node: NodeId,
        /// Per-source sequence number.
        seq: u64,
    },
    /// End-to-end ack timeout: retention slot `seq` of `node` saw no ack.
    /// `attempt` stamps the copy being watched so a timeout armed for an
    /// earlier copy is ignored after a reinjection.
    E2eTimeout {
        /// Source node whose retention buffer holds the slot.
        node: NodeId,
        /// Per-source sequence number.
        seq: u64,
        /// Copy count at scheduling time (1 = first injection).
        attempt: u32,
    },
}

/// One packet retained at its source network interface awaiting an
/// end-to-end ack: everything needed to rebuild and reinject a copy.
#[derive(Clone, Copy, Debug)]
pub(super) struct Retained {
    /// Destination endpoint.
    pub dst: NodeId,
    /// Payload size.
    pub size: Bits,
    /// Message class.
    pub class: PacketClass,
    /// Client correlation tag.
    pub tag: u64,
    /// Whether the original injection fell inside the measurement window.
    pub measured: bool,
    /// Birth cycle of the *first* copy (reinjected copies keep it, so
    /// end-to-end latency spans the whole recovery).
    pub first_birth: Cycle,
    /// Copies injected so far (1 = original only).
    pub attempts: u32,
    /// Packet id of the newest copy.
    pub current: PacketId,
    /// False once the newest copy was delivered or dropped; a timeout then
    /// reinjects (or gives up) instead of re-arming.
    pub current_alive: bool,
}

/// Per-source end-to-end sequencing state.
#[derive(Clone, Debug, Default)]
pub(super) struct SourceE2e {
    /// Next sequence number this source will assign.
    pub next_seq: u64,
    /// Unacknowledged packets by sequence number.
    pub retained: BTreeMap<u64, Retained>,
    /// All sequence numbers below this are resolved (delivered or
    /// permanently lost).
    pub contig: u64,
    /// Resolved sequence numbers at or above `contig` (kept sparse; merged
    /// into `contig` as the watermark advances).
    pub sparse: BTreeSet<u64>,
}

impl SourceE2e {
    /// Marks `seq` resolved (delivered once, or permanently lost).
    pub fn resolve(&mut self, seq: u64) {
        if seq < self.contig {
            return;
        }
        self.sparse.insert(seq);
        while self.sparse.remove(&self.contig) {
            self.contig += 1;
        }
    }

    /// True when `seq` has been resolved; a further ejection of the same
    /// sequence number is a duplicate.
    pub fn is_resolved(&self, seq: u64) -> bool {
        seq < self.contig || self.sparse.contains(&seq)
    }
}

/// End-to-end delivery-guarantee state (present only when the plan enables
/// [`RecoveryPolicy`]).
#[derive(Clone, Debug)]
pub(super) struct E2eState {
    /// The enabled policy.
    pub policy: RecoveryPolicy,
    /// Per-source sequencing and retention.
    pub sources: Vec<SourceE2e>,
    /// Maps every live copy's packet id to its retention slot.
    pub by_packet: HashMap<PacketId, (NodeId, u64)>,
    /// Abandoned packets whose flits are frozen in dead equipment. They
    /// stay in the engine's `in_flight` map forever so flit-conservation
    /// invariants keep holding; [`super::Network::in_flight`] subtracts
    /// them.
    pub zombies: HashSet<PacketId>,
    /// Recovery event counters.
    pub counters: RecoveryCounters,
}

impl E2eState {
    fn new(policy: RecoveryPolicy, nodes: usize) -> Self {
        Self {
            policy,
            sources: vec![SourceE2e::default(); nodes],
            by_packet: HashMap::new(),
            zombies: HashSet::new(),
            counters: RecoveryCounters::default(),
        }
    }

    /// Total packets currently retained across all sources.
    pub fn pending(&self) -> usize {
        self.sources.iter().map(|s| s.retained.len()).sum()
    }

    /// Updates retention state for a dropped copy of `packet` and returns
    /// whether the loss is recoverable (a retained copy can be reinjected).
    /// Dead-endpoint drops resolve the slot as a permanent loss.
    pub fn note_drop(&mut self, packet: PacketId, reason: DropReason) -> bool {
        let Some((node, seq)) = self.by_packet.remove(&packet) else {
            return false; // untracked (never injected) — permanent
        };
        let src = &mut self.sources[node.index()];
        if let Some(r) = src.retained.get_mut(&seq) {
            if r.current == packet {
                r.current_alive = false;
            }
        }
        let permanent = matches!(reason, DropReason::SourceDead | DropReason::DestinationDead);
        if permanent {
            let had = src.retained.remove(&seq).is_some();
            if had && !src.is_resolved(seq) {
                src.resolve(seq);
                self.counters.lost += 1;
                return false;
            }
            // The slot was already resolved (a copy delivered, or the loss
            // was already accounted): this copy was redundant.
            return true;
        }
        src.retained.contains_key(&seq) || src.is_resolved(seq)
    }
}

/// All fault-mode engine state (boxed inside [`super::Network`]).
#[derive(Clone, Debug)]
pub(super) struct FaultState {
    /// The plan driving this run.
    pub plan: FaultPlan,
    /// Dedicated fault RNG — independent of the traffic RNG, so a benign
    /// plan leaves the simulated traffic bit-for-bit unchanged.
    pub rng: StdRng,
    /// Per-link probability that one flit transmission is corrupted:
    /// `1 - (1 - ber)^flit_bits`.
    pub p_flit: Vec<f64>,
    /// Per-link retransmission state.
    pub links: Vec<LinkTx>,
    /// Hard faults sorted by cycle; `next_hard` indexes the first unapplied.
    pub hard: Vec<HardFault>,
    /// First entry of `hard` not applied yet.
    pub next_hard: usize,
    /// Far-horizon event queue (the wheel only reaches 3 cycles out).
    pub far: BTreeMap<Cycle, Vec<FarEvent>>,
    /// Fail-stop routers.
    pub router_dead: Vec<bool>,
    /// Every unidirectional link killed so far (both directions of each
    /// physical fault).
    pub dead_links: Vec<LinkId>,
    /// Every router killed so far.
    pub dead_routers: Vec<RouterId>,
    /// Input VCs currently absorbing an unroutable packet (ordered, so the
    /// drain order — and with it the credit schedule — is deterministic).
    pub absorbing: BTreeSet<(RouterId, PortId, VcId)>,
    /// Flits already absorbed per still-in-flight packet (the invariant
    /// checker adds these to its conservation sum).
    pub absorbed: HashMap<PacketId, u32>,
    /// Packets dropped since the last [`super::Network::drain_dropped`].
    pub dropped: Vec<DroppedPacket>,
    /// Campaign counters.
    pub counters: FaultCounters,
    /// Set when link retries exhaust; the run cannot continue.
    pub error: Option<UnrecoverableFault>,
    /// Set by hard faults: the installed routing no longer matches the
    /// surviving topology and should be regenerated.
    pub routing_stale: bool,
    /// End-to-end delivery-guarantee state (`None` unless the plan enables
    /// it; the engine's schedules are then bit-for-bit unchanged).
    pub e2e: Option<Box<E2eState>>,
}

impl FaultState {
    /// Builds the fault state for `plan` over `graph`. The plan must have
    /// been validated against the graph already.
    pub fn new(plan: FaultPlan, graph: &TopologyGraph, flit_width: Bits, vcs: &[usize]) -> Self {
        let bits = f64::from(flit_width.get());
        let p_flit: Vec<f64> = (0..graph.num_links())
            .map(|l| {
                let ber = plan.ber_of(LinkId(l)).clamp(0.0, 1.0);
                1.0 - (1.0 - ber).powf(bits)
            })
            .collect();
        let links = graph
            .links()
            .iter()
            .map(|l| LinkTx::new(vcs[l.dst.index()]))
            .collect();
        let hard = plan.sorted_hard();
        let rng = StdRng::seed_from_u64(plan.seed);
        let e2e = plan
            .recovery
            .map(|policy| Box::new(E2eState::new(policy, graph.nodes().len())));
        Self {
            rng,
            p_flit,
            links,
            hard,
            next_hard: 0,
            far: BTreeMap::new(),
            router_dead: vec![false; graph.num_routers()],
            dead_links: Vec::new(),
            dead_routers: Vec::new(),
            absorbing: BTreeSet::new(),
            absorbed: HashMap::new(),
            dropped: Vec::new(),
            counters: FaultCounters::default(),
            error: None,
            routing_stale: false,
            e2e,
            plan,
        }
    }

    /// Queues `ev` for cycle `at` (which may be far beyond the wheel).
    pub fn schedule_far(&mut self, at: Cycle, ev: FarEvent) {
        self.far.entry(at).or_default().push(ev);
    }

    /// Pops every far event due at or before `now`.
    pub fn due_far(&mut self, now: Cycle) -> Vec<FarEvent> {
        let mut due = Vec::new();
        while let Some((&c, _)) = self.far.first_key_value() {
            if c > now {
                break;
            }
            let (_, mut evs) = self.far.pop_first().expect("peeked");
            due.append(&mut evs);
        }
        due
    }

    /// Records a dropped packet.
    pub fn record_drop(&mut self, drop: DroppedPacket) {
        self.counters.packets_dropped += 1;
        self.dropped.push(drop);
    }
}

persist!(value ReplayEntry { seq, vc, flit });
persist!(shape LinkTx {
    replay, tx_seq, rx_expected, attempts, epoch, backoff_until, dead, in_transit: fixed,
} derived {});
persist_enum!(FarEvent {
    0 => Resend { link, epoch },
    1 => Timeout { link, epoch },
    2 => E2eAck { node, seq },
    3 => E2eTimeout { node, seq, attempt },
});
persist!(value Retained {
    dst, size, class, tag, measured, first_birth, attempts, current, current_alive,
});
persist!(value SourceE2e { next_seq, retained, contig, sparse });
persist!(shape E2eState { sources: fixed, by_packet, zombies, counters } derived {
    // Fixed by the fault plan.
    policy,
});
persist!(shape FaultState {
    rng, links: fixed, next_hard, far, router_dead: fixed, dead_links, dead_routers,
    absorbing, absorbed, dropped, counters, error, routing_stale, e2e: present,
} derived {
    // Written ahead of the state by the network, which rebuilds it from the plan.
    plan,
    // Functions of the plan and the topology.
    p_flit, hard,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::mesh;

    #[test]
    fn p_flit_respects_overrides() {
        let g = mesh::build(2, 2);
        let mut plan = FaultPlan::transient(0.0, 1);
        plan.link_ber.push((LinkId(0), 1.0));
        let fs = FaultState::new(plan, &g, Bits(192), &[2; 4]);
        assert_eq!(fs.p_flit[0], 1.0);
        assert_eq!(fs.p_flit[1], 0.0);
    }

    #[test]
    fn far_queue_orders_and_drains() {
        let g = mesh::build(2, 2);
        let mut fs = FaultState::new(FaultPlan::default(), &g, Bits(192), &[2; 4]);
        fs.schedule_far(
            10,
            FarEvent::Timeout {
                link: LinkId(0),
                epoch: 0,
            },
        );
        fs.schedule_far(
            5,
            FarEvent::Resend {
                link: LinkId(1),
                epoch: 0,
            },
        );
        assert!(fs.due_far(4).is_empty());
        let due = fs.due_far(10);
        assert_eq!(due.len(), 2);
        assert!(matches!(due[0], FarEvent::Resend { .. }), "cycle order");
        assert!(fs.due_far(100).is_empty());
    }

    #[test]
    fn resolved_watermark_advances_and_stays_sparse() {
        let mut s = SourceE2e::default();
        assert!(!s.is_resolved(0));
        s.resolve(2);
        assert!(s.is_resolved(2) && !s.is_resolved(0) && !s.is_resolved(1));
        assert_eq!(s.contig, 0);
        s.resolve(0);
        assert_eq!(s.contig, 1, "0 merges, 2 stays sparse");
        s.resolve(1);
        assert_eq!(s.contig, 3, "1 then sparse 2 merge into the watermark");
        assert!(s.sparse.is_empty());
        s.resolve(1); // duplicate resolution below the watermark is a no-op
        assert_eq!(s.contig, 3);
    }

    #[test]
    fn e2e_state_built_only_when_plan_enables_recovery() {
        let g = mesh::build(2, 2);
        let fs = FaultState::new(FaultPlan::default(), &g, Bits(192), &[2; 4]);
        assert!(fs.e2e.is_none());
        let plan = FaultPlan {
            recovery: Some(RecoveryPolicy::default()),
            ..FaultPlan::default()
        };
        let fs = FaultState::new(plan, &g, Bits(192), &[2; 4]);
        let e2e = fs.e2e.expect("enabled");
        assert_eq!(e2e.sources.len(), 4);
        assert_eq!(e2e.pending(), 0);
    }
}
