//! Lossless capture and restore of the engine's complete dynamic state.
//!
//! This module is the network half of the checkpoint body (the driver-loop
//! half lives in [`crate::sim`]): every router buffer, VC allocation,
//! credit counter, arbiter pointer, source queue, wheel event, in-flight
//! packet, statistic, fault-layer structure and epoch accumulator is
//! written by [`Network::encode_state`] and read back by
//! [`Network::decode_state`] onto a freshly built network of the same
//! configuration. Restore is exact: the restored network produces the same
//! cycle-by-cycle schedules, the same trace events and the same final
//! statistics as the original would have.
//!
//! # One walk per type
//!
//! Every persisted type implements `Persist` once, next to its
//! definition, and most do so through the `persist!` macro: its field
//! list drives both the encoder and the decoder, and both destructure the
//! struct without `..`. A field added to an engine type but not to its
//! list is a compile error, not a checkpoint that silently fails to
//! resume byte-identically. Collections, options, ids and tuples share
//! generic impls in [`crate::checkpoint`]; hash maps and sets are written
//! **sorted by key** (the engine only does point lookups on them, so the
//! restored maps' different internal order is unobservable).
//!
//! # Derived, not stored
//!
//! Fields the restoring side rebuilds are named in each type's `derived`
//! list (or bound to `_` here) with the reason:
//!
//! - structure fixed by the configuration, whose hash the checkpoint
//!   header carries: the topology graph, link lanes and widths, buffer
//!   capacities, VC counts, output-port targets, epoch-recorder shapes;
//! - state that is a function of decoded state: per-port occupancy
//!   (`port_occ`) and the scheduler wake set, both recomputed from the
//!   decoded FIFOs, which keeps the bytes independent of the engine mode;
//!   the fault layer's per-link flit error rates and sorted hard-fault
//!   list, rebuilt from the stored plan;
//! - observers and per-cycle scratch: the trace sink (its byte cursor is
//!   stored by the driver), the profiler, and scratch buffers that are
//!   empty at every iteration boundary.
//!
//! Decoding keeps every safety check a file from outside needs: counts
//! are checked against the freshly built network, route-table paths must
//! join their endpoints, the fault plan must validate against the
//! topology, epoch lengths must be non-zero, `next_hard` must index the
//! plan, and end-to-end state must be present exactly when the plan
//! enables it.
//!
//! # Divergences
//!
//! [`Network::state_digest`] hashes the encoded state, giving replay
//! tooling a cheap per-cycle trajectory fingerprint.
//! [`Network::divergences`] encodes two networks with a labelled
//! [`Enc`], which records the byte range of every named field, and
//! reports the innermost fields whose bytes differ. Every byte the digest
//! covers belongs to some named field, so any state that moves the digest
//! is named by construction — the payload of `heteronoc replay`'s report.

use std::collections::HashMap;

use crate::checkpoint::{
    fnv1a64, load_fixed, persist, persist_enum, read_seq, save_seq, CheckpointError, Dec, Enc,
    Persist,
};
use crate::fault::FaultPlan;
use crate::trace::TraceSink;
use crate::types::NodeId;

use super::{
    epoch_recorder, fault_state, Delivered, Event, Network, NodeState, PacketMeta, Sending,
    Upstream,
};

/// One field-level difference between two network states (see
/// [`Network::divergences`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Where the field sits, e.g. `"routers[3].outputs[1].vcs[0]"`, or
    /// empty for the network's own fields.
    pub location: String,
    /// Name of the differing field, e.g. `"credits"` or `"fifo"`.
    pub field: String,
    /// Encoded value in the reference (`self`) network: the integer for
    /// fields of up to eight bytes, otherwise length and hash.
    pub expected: String,
    /// Encoded value in the compared (`other`) network, or `absent`.
    pub actual: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.location.is_empty() {
            write!(f, "{}.", self.location)?;
        }
        write!(
            f,
            "{}: expected {}, got {}",
            self.field, self.expected, self.actual
        )
    }
}

// --------------------------------------------------------------------------
// Section tags (checked on decode; a mismatch names the section)
// --------------------------------------------------------------------------

const SEC_GLOBALS: u8 = 1;
const SEC_ROUTERS: u8 = 2;
const SEC_NODES: u8 = 3;
const SEC_WHEEL: u8 = 4;
const SEC_IN_FLIGHT: u8 = 5;
const SEC_DELIVERED: u8 = 6;
const SEC_STATS: u8 = 7;
const SEC_ROUTING: u8 = 8;
const SEC_FAULTS: u8 = 9;
const SEC_EPOCHS: u8 = 10;

// --------------------------------------------------------------------------
// Engine-private types
// --------------------------------------------------------------------------

impl Persist for Upstream {
    fn save(&self, e: &mut Enc) {
        match self {
            Upstream::Router(router, port) => {
                e.u8(0);
                e.field("router", router);
                e.field("port", port);
            }
            Upstream::Node(node) => {
                e.u8(1);
                e.field("node", node);
            }
        }
    }
    fn read(d: &mut Dec) -> Result<Self, CheckpointError> {
        Ok(match d.u8()? {
            0 => Upstream::Router(Persist::read(d)?, Persist::read(d)?),
            1 => Upstream::Node(NodeId::read(d)?),
            _ => return Err(CheckpointError::Malformed("upstream")),
        })
    }
}

persist_enum!(Event {
    0 => FlitArrive { router, port, vc, flit },
    1 => Credit { up, vc },
    2 => Retire { flit },
    3 => LinkArrive { link, seq, corrupted, router, port, vc, flit },
    4 => Ack { link, seq },
    5 => Nack { link, seq },
});
persist!(value PacketMeta { packet, inject, received, total, measured });
persist!(value Delivered { packet, inject, retire });
persist!(value Sending { vc, flits });
persist!(shape NodeState { queue, sending, vcs: fixed, rr_vc } derived {
    // Fixed by the topology and the local-port width.
    router, port, lanes,
});

// --------------------------------------------------------------------------
// Network state capture / restore
// --------------------------------------------------------------------------

impl Network {
    /// Appends the engine's complete dynamic state to `e`.
    ///
    /// Structural state derivable from the configuration is *not* written;
    /// the restoring side rebuilds it via [`Network::new`] and
    /// [`Network::decode_state`] overwrites only what evolves.
    pub(crate) fn encode_state(&self, e: &mut Enc) {
        let Network {
            cfg,
            routers,
            nodes,
            now,
            wheel,
            in_flight,
            next_packet,
            measuring,
            record_packets,
            stats,
            delivered,
            faults,
            epochs,
            // Structure, rebuilt from the configuration.
            graph: _,
            link_lanes: _,
            link_wide: _,
            // Observers: the driver stores the trace cursor; profiles restart.
            tracer: _,
            profiler: _,
            // Rebuilt from the decoded buffers.
            sched: _,
            // Per-cycle scratch, empty at every iteration boundary.
            scratch_events: _,
            alloc: _,
            wheel_spare: _,
        } = self;
        e.sec(SEC_GLOBALS);
        e.field("now", now);
        e.field("next_packet", next_packet);
        e.field("measuring", measuring);
        e.field("record_packets", record_packets);
        e.sec(SEC_ROUTERS);
        e.field("routers", routers);
        e.sec(SEC_NODES);
        e.field("nodes", nodes);
        e.sec(SEC_WHEEL);
        e.field("wheel", wheel);
        e.sec(SEC_IN_FLIGHT);
        // Keyed by each packet's own id, so only the values are stored.
        let mut live: Vec<&PacketMeta> = in_flight.values().collect();
        live.sort_by_key(|m| m.packet.id);
        e.named("in_flight", |e| save_seq(e, live.into_iter()));
        e.sec(SEC_DELIVERED);
        e.field("delivered", delivered);
        e.sec(SEC_STATS);
        e.field("stats", stats);
        e.sec(SEC_ROUTING);
        e.field("routing", &cfg.routing);
        e.sec(SEC_FAULTS);
        // The plan goes first: the decoder rebuilds the fault layer from it.
        e.named("faults", |e| {
            e.bool(faults.is_some());
            if let Some(fs) = faults {
                e.field("plan", &fs.plan);
                fs.save(e);
            }
        });
        e.sec(SEC_EPOCHS);
        e.named("epochs", |e| {
            e.bool(epochs.is_some());
            if let Some(rec) = epochs {
                e.field("every", &rec.every());
                rec.save(e);
            }
        });
    }

    /// Overwrites this network's dynamic state from a stream written by
    /// [`Network::encode_state`]. The network must have been freshly built
    /// via [`Network::new`] from the same configuration the checkpoint was
    /// taken under (the checkpoint header's config hash enforces this at
    /// the file level); fault state, routing tables and epoch recorders are
    /// reconstructed entirely from the stream.
    ///
    /// # Errors
    /// [`CheckpointError::Malformed`] naming the failing section or field,
    /// or [`CheckpointError::Truncated`] when the stream ends early. The
    /// network is left in an unspecified (but memory-safe) state on error;
    /// discard it.
    pub(crate) fn decode_state(&mut self, d: &mut Dec) -> Result<(), CheckpointError> {
        let Network {
            cfg,
            graph,
            link_lanes,
            routers,
            nodes,
            now,
            wheel,
            in_flight,
            next_packet,
            measuring,
            record_packets,
            stats,
            delivered,
            faults,
            epochs,
            sched,
            link_wide: _,
            tracer: _,
            profiler: _,
            scratch_events: _,
            alloc: _,
            wheel_spare: _,
        } = self;
        d.sec(SEC_GLOBALS, "globals")?;
        now.load(d)?;
        next_packet.load(d)?;
        measuring.load(d)?;
        record_packets.load(d)?;
        d.sec(SEC_ROUTERS, "routers")?;
        load_fixed(d, "routers", routers)?;
        d.sec(SEC_NODES, "nodes")?;
        load_fixed(d, "nodes", nodes)?;
        d.sec(SEC_WHEEL, "wheel")?;
        wheel.load(d)?;
        d.sec(SEC_IN_FLIGHT, "in_flight")?;
        let live: Vec<PacketMeta> = read_seq(d)?;
        *in_flight = live.into_iter().map(|m| (m.packet.id, m)).collect();
        d.sec(SEC_DELIVERED, "delivered")?;
        delivered.load(d)?;
        d.sec(SEC_STATS, "stats")?;
        stats.load(d)?;
        d.sec(SEC_ROUTING, "routing")?;
        cfg.routing.load(d)?;

        d.sec(SEC_FAULTS, "faults")?;
        *faults = if d.bool()? {
            let plan = FaultPlan::read(d)?;
            plan.validate(graph.num_links(), graph.num_routers())
                .map_err(|_| CheckpointError::Malformed("fault plan bounds"))?;
            let mut fs = fault_state(cfg, graph, plan);
            fs.load(d)?;
            if fs.next_hard > fs.hard.len() {
                return Err(CheckpointError::Malformed("next_hard"));
            }
            Some(Box::new(fs))
        } else {
            None
        };

        d.sec(SEC_EPOCHS, "epochs")?;
        *epochs = if d.bool()? {
            let every = u64::read(d)?;
            if every == 0 {
                return Err(CheckpointError::Malformed("epoch length"));
            }
            let mut rec = epoch_recorder(every, routers, link_lanes);
            rec.load(d)?;
            Some(Box::new(rec))
        } else {
            None
        };

        // Rebuild derived scheduler state from the decoded buffers.
        for router in routers.iter_mut() {
            let inputs = &router.inputs;
            for (p, occ) in router.port_occ.iter_mut().enumerate() {
                *occ = inputs[p].iter().map(|vc| vc.fifo.len() as u32).sum();
            }
        }
        sched.rebuild(|r| routers[r].occupancy > 0);
        Ok(())
    }

    /// FNV-1a-64 fingerprint of the encoded engine state — the per-cycle
    /// trajectory hash the divergence bisector compares.
    pub(crate) fn state_digest(&self) -> u64 {
        let mut e = Enc::new();
        self.encode_state(&mut e);
        fnv1a64(&e.into_bytes())
    }

    /// Bytes the installed trace sink has emitted so far (`None` without a
    /// sink, or when the sink does not count — see
    /// [`crate::trace::TraceSink::bytes_written`]).
    pub(crate) fn trace_bytes_written(&self) -> Option<u64> {
        self.tracer.as_deref().and_then(TraceSink::bytes_written)
    }

    /// Reports up to `limit` fields whose encoded state differs between
    /// `self` (the reference, "expected") and `other` ("actual").
    ///
    /// Both networks are encoded with a labelled [`Enc`]; a field is
    /// reported when its bytes differ and no field nested inside it was
    /// already reported, so the report names the innermost fields. An
    /// empty result means the encoded states — and so their
    /// [`Network::state_digest`]s — are identical.
    pub(crate) fn divergences(&self, other: &Network, limit: usize) -> Vec<Divergence> {
        let walk = |net: &Network| {
            let mut e = Enc::labelled();
            net.encode_state(&mut e);
            e.into_labelled()
        };
        let (a_bytes, a_fields) = walk(self);
        let (b_bytes, b_fields) = walk(other);
        let b_at: HashMap<(&str, &str), &[u8]> = b_fields
            .iter()
            .map(|l| ((l.location.as_str(), l.field), &b_bytes[l.bytes.clone()]))
            .collect();
        let show = |b: &[u8]| match b.len() {
            0..=8 => {
                let mut word = [0u8; 8];
                word[..b.len()].copy_from_slice(b);
                u64::from_le_bytes(word).to_string()
            }
            n => format!("{n} bytes #{:016x}", fnv1a64(b)),
        };
        let mut out: Vec<Divergence> = Vec::new();
        let mut last_start = None;
        for l in &a_fields {
            if out.len() == limit {
                break;
            }
            let expected = &a_bytes[l.bytes.clone()];
            let actual = b_at.get(&(l.location.as_str(), l.field)).copied();
            // Fields are listed as they end, so everything reported since
            // this field began is nested inside it.
            if actual == Some(expected) || last_start.is_some_and(|s| s >= l.bytes.start) {
                continue;
            }
            last_start = Some(l.bytes.start);
            out.push(Divergence {
                location: l.location.clone(),
                field: l.field.to_owned(),
                expected: show(expected),
                actual: actual.map_or_else(|| "absent".to_owned(), show),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::fault::{FaultKind, HardFault, RecoveryPolicy, RetryPolicy};
    use crate::packet::PacketClass;
    use crate::routing::degraded::degraded_routing;
    use crate::routing::RoutingKind;
    use crate::topology::TopologyKind;
    use crate::types::{Bits, RouterId};

    fn mesh4() -> NetworkConfig {
        NetworkConfig::homogeneous(
            TopologyKind::Mesh {
                width: 4,
                height: 4,
            },
            crate::config::RouterCfg::BASELINE,
            Bits(192),
            2.2,
        )
    }

    fn stepped(cycles: u64) -> Network {
        let mut net = Network::new(mesh4()).unwrap();
        net.enqueue(NodeId(0), NodeId(15), Bits(1024), PacketClass::Data, 0);
        net.enqueue(NodeId(5), NodeId(10), Bits(1024), PacketClass::Control, 1);
        for _ in 0..cycles {
            net.step();
        }
        net
    }

    fn roundtrip(net: &Network, cfg: NetworkConfig) -> Network {
        let mut e = Enc::new();
        net.encode_state(&mut e);
        let bytes = e.into_bytes();
        let mut fresh = Network::new(cfg).unwrap();
        let mut d = Dec::new(&bytes);
        fresh.decode_state(&mut d).unwrap();
        assert!(d.is_done(), "decoder must consume the whole stream");
        fresh
    }

    #[test]
    fn mid_flight_state_roundtrips_exactly() {
        let net = stepped(5);
        assert!(net.in_flight() > 0, "packets must be mid-flight");
        let restored = roundtrip(&net, mesh4());
        assert_eq!(net.state_digest(), restored.state_digest());
        assert!(net.divergences(&restored, 64).is_empty());
    }

    #[test]
    fn restored_network_continues_identically() {
        let mut a = stepped(4);
        let mut b = roundtrip(&a, mesh4());
        for _ in 0..200 {
            a.step();
            b.step();
            assert_eq!(a.state_digest(), b.state_digest(), "cycle {}", a.now());
        }
        assert_eq!(
            a.drain_delivered().len(),
            b.drain_delivered().len(),
            "same deliveries"
        );
    }

    #[test]
    fn faulted_network_roundtrips_with_recovery_state() {
        let cfg = mesh4();
        let mut plan = FaultPlan::transient(1e-4, 99);
        plan.retry = RetryPolicy {
            max_attempts: 8,
            timeout: 32,
        };
        plan.hard.push(HardFault {
            cycle: 6,
            kind: FaultKind::Router(RouterId(15)),
        });
        plan.recovery = Some(RecoveryPolicy::default());
        let mut net = Network::with_faults(cfg.clone(), plan).unwrap();
        net.enqueue(NodeId(0), NodeId(15), Bits(1024), PacketClass::Data, 0);
        net.enqueue(NodeId(3), NodeId(12), Bits(1024), PacketClass::Data, 1);
        for _ in 0..12 {
            net.step();
        }
        let mut restored = roundtrip(&net, cfg);
        assert_eq!(net.state_digest(), restored.state_digest());
        for _ in 0..50 {
            net.step();
            restored.step();
            assert_eq!(net.state_digest(), restored.state_digest());
        }
    }

    #[test]
    fn divergence_names_the_perturbed_field() {
        let net = stepped(5);
        let mut other = roundtrip(&net, mesh4());
        // Perturb one credit counter on the restored copy.
        'outer: for r in &mut other.routers {
            for out in &mut r.outputs {
                if let Some(ov) = out.vcs.first_mut() {
                    ov.credits += 1;
                    break 'outer;
                }
            }
        }
        let divs = net.divergences(&other, 16);
        assert!(!divs.is_empty());
        assert!(
            divs.iter().any(|dv| dv.field == "credits"),
            "credit perturbation must be named: {divs:?}"
        );
        assert_ne!(net.state_digest(), other.state_digest());
    }

    #[test]
    fn epoch_recorder_roundtrips() {
        let mut net = Network::new(mesh4()).unwrap();
        net.enable_epochs(8);
        net.enqueue(NodeId(0), NodeId(15), Bits(1024), PacketClass::Data, 0);
        for _ in 0..30 {
            net.step();
        }
        let mut restored = roundtrip(&net, mesh4());
        for _ in 0..30 {
            net.step();
            restored.step();
        }
        assert_eq!(net.take_epochs(), restored.take_epochs());
    }

    /// A faulted, epoch-sampling network mid-run on a degraded routing
    /// table: every body section and the fault and epoch accumulators are
    /// populated.
    fn busy_faulted(cfg: &NetworkConfig) -> Network {
        let mut plan = FaultPlan::transient(1e-3, 7);
        plan.hard.push(HardFault {
            cycle: 4,
            kind: FaultKind::Router(RouterId(5)),
        });
        plan.recovery = Some(RecoveryPolicy::default());
        let mut net = Network::with_faults(cfg.clone(), plan).unwrap();
        net.enable_epochs(8);
        for s in 0..16 {
            net.enqueue(NodeId(s), NodeId(15 - s), Bits(1024), PacketClass::Data, 0);
        }
        for _ in 0..20 {
            net.step();
            if net.take_routing_stale() {
                let d = degraded_routing(net.graph(), net.dead_links(), net.dead_routers());
                net.install_routing(RoutingKind::FullTable(d.table));
            }
        }
        net
    }

    #[test]
    fn divergences_name_every_perturbed_field() {
        let cfg = mesh4();
        let net = busy_faulted(&cfg);
        type Perturb = fn(&mut Network);
        let cases: [(&str, &str, Perturb); 5] = [
            ("stats.routers[0]", "va_grants", |n| {
                n.stats.routers[0].va_grants += 1
            }),
            ("routers[0]", "busy_vcs", |n| n.routers[0].busy_vcs += 1),
            ("stats.links[0]", "flits", |n| n.stats.links[0].flits += 1),
            ("faults.counters", "retries", |n| {
                n.faults.as_mut().unwrap().counters.retries += 1
            }),
            ("epochs", "injected", |n| {
                n.epochs.as_mut().unwrap().note_inject()
            }),
        ];
        for (location, field, perturb) in cases {
            let mut other = roundtrip(&net, cfg.clone());
            assert!(net.divergences(&other, 16).is_empty());
            perturb(&mut other);
            assert_ne!(
                net.state_digest(),
                other.state_digest(),
                "{location}.{field}"
            );
            let divs = net.divergences(&other, 16);
            assert_eq!(divs.len(), 1, "only the innermost field: {divs:?}");
            assert_eq!(
                (divs[0].location.as_str(), divs[0].field.as_str()),
                (location, field)
            );
        }
    }

    /// Applies one random edit to `bytes`: a bit flip, a truncation, a
    /// spliced-in copy of another stretch, or an all-ones word (a huge
    /// length or count).
    fn mangle(bytes: &mut Vec<u8>, (kind, a, b): (u8, usize, usize)) {
        if bytes.is_empty() {
            return;
        }
        let (at, from) = (a % bytes.len(), b % bytes.len());
        match kind {
            0 => bytes[at] ^= 1 << (b % 8),
            1 => bytes.truncate(at),
            2 => {
                let chunk = bytes[from..(from + 24).min(bytes.len())].to_vec();
                bytes.splice(at..at, chunk);
            }
            _ => {
                let end = (at + 8).min(bytes.len());
                bytes[at..end].fill(0xFF);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn checkpoint_byte_soup_never_panics(
            edits in proptest::collection::vec((0u8..4, 0usize..1 << 20, 0usize..1 << 20), 1..6)
        ) {
            let cfg = mesh4();
            let mut e = Enc::new();
            busy_faulted(&cfg).encode_state(&mut e);
            let mut body = e.into_bytes();
            let ckpt = crate::checkpoint::Checkpoint {
                config_hash: 1,
                params_hash: 2,
                cycle: 20,
                body: body.clone(),
            };
            let mut file = ckpt.to_bytes();
            for &edit in &edits {
                mangle(&mut body, edit);
                mangle(&mut file, edit);
            }
            // Past the CRC: the walk itself must reject bad bytes with a
            // typed error (any `Err` here is a `CheckpointError`).
            let mut fresh = Network::new(cfg).unwrap();
            let _ = fresh.decode_state(&mut Dec::new(&body));
            let _ = crate::checkpoint::Checkpoint::from_bytes(&file);
        }
    }
}
