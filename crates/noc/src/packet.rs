//! Packets and flits.
//!
//! A packet is the unit of end-to-end transfer (a cache line of 1024 bits or
//! a one-flit address/control message in the paper). Inside the network a
//! packet travels as a wormhole of flits sized to the network's global flit
//! width.

use serde::{Deserialize, Serialize};

use crate::checkpoint::{persist, persist_enum};
use crate::types::{Bits, Cycle, NodeId, PacketId};

/// Message class carried by a packet.
///
/// The class does not change how the network routes the packet (the paper's
/// networks route all traffic identically) but is used for statistics and by
/// the CMP layer, and [`PacketClass::Expedited`] selects table-based routing
/// in the asymmetric-CMP case study (§7).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub enum PacketClass {
    /// Generic data traffic (synthetic patterns, cache-line transfers).
    #[default]
    Data,
    /// Short request/control messages (coherence requests, credits, acks).
    Control,
    /// Traffic to or from a latency-critical (large) core; routed through
    /// the big routers via table-based routing when the network enables it.
    Expedited,
}

/// A network packet.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique id within one simulation.
    pub id: PacketId,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Payload size; the network fragments it into flits.
    pub size: Bits,
    /// Message class.
    pub class: PacketClass,
    /// Opaque correlation tag for the client layer (the CMP simulator keeps
    /// transaction indices here). The network never interprets it.
    pub tag: u64,
    /// Cycle the packet was handed to the source queue.
    pub birth: Cycle,
}

/// Position of a flit within its packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum FlitKind {
    /// First flit; carries routing information.
    Head,
    /// Intermediate flit.
    Body,
    /// Last flit; releases the virtual channel.
    Tail,
    /// Single-flit packet: simultaneously head and tail.
    HeadTail,
}

impl FlitKind {
    /// True for `Head` and `HeadTail`.
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// True for `Tail` and `HeadTail`.
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }

    /// Kind of flit `idx` out of `total` flits.
    ///
    /// # Panics
    /// Panics if `total == 0` or `idx >= total`.
    pub fn of(idx: u32, total: u32) -> FlitKind {
        assert!(total > 0 && idx < total, "flit index out of range");
        match (idx == 0, idx + 1 == total) {
            (true, true) => FlitKind::HeadTail,
            (true, false) => FlitKind::Head,
            (false, true) => FlitKind::Tail,
            (false, false) => FlitKind::Body,
        }
    }
}

/// One flit of an in-flight packet.
///
/// Flits carry a copy of the routing-relevant packet fields so router logic
/// never needs a side lookup.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Flit {
    /// Owning packet.
    pub packet: PacketId,
    /// Head/body/tail marker.
    pub kind: FlitKind,
    /// Flit sequence number within the packet (0 = head).
    pub seq: u32,
    /// Total flits in the packet.
    pub total: u32,
    /// Packet source (copied for routing/statistics).
    pub src: NodeId,
    /// Packet destination (copied for routing).
    pub dst: NodeId,
    /// Message class (copied; selects table routing for `Expedited`).
    pub class: PacketClass,
    /// Cycle the head entered the network at the source router
    /// (for latency accounting; same value on every flit).
    pub inject: Cycle,
    /// Cycle this flit was written into the current buffer; it becomes
    /// eligible for switch allocation one cycle later (2-stage pipeline).
    pub buffered: Cycle,
}

impl Flit {
    /// Expands `packet` into its flits given the network flit width.
    ///
    /// `inject` is the cycle the head flit enters the network.
    ///
    /// # Examples
    /// ```
    /// use heteronoc_noc::packet::{Flit, Packet, PacketClass, FlitKind};
    /// use heteronoc_noc::types::{Bits, NodeId, PacketId};
    /// let p = Packet {
    ///     id: PacketId(1), src: NodeId(0), dst: NodeId(5),
    ///     size: Bits(1024), class: PacketClass::Data, tag: 0, birth: 0,
    /// };
    /// let flits = Flit::fragment(&p, Bits(128), 10);
    /// assert_eq!(flits.len(), 8);
    /// assert_eq!(flits[0].kind, FlitKind::Head);
    /// assert_eq!(flits[7].kind, FlitKind::Tail);
    /// ```
    pub fn fragment(packet: &Packet, flit_width: Bits, inject: Cycle) -> Vec<Flit> {
        let total = packet.size.flits(flit_width);
        (0..total)
            .map(|seq| Flit {
                packet: packet.id,
                kind: FlitKind::of(seq, total),
                seq,
                total,
                src: packet.src,
                dst: packet.dst,
                class: packet.class,
                inject,
                buffered: inject,
            })
            .collect()
    }
}

persist_enum!(PacketClass { 0 => Data, 1 => Control, 2 => Expedited });
persist_enum!(FlitKind { 0 => Head, 1 => Body, 2 => Tail, 3 => HeadTail });
persist!(value Packet { id, src, dst, size, class, tag, birth });
persist!(value Flit { packet, kind, seq, total, src, dst, class, inject, buffered });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_classification() {
        assert_eq!(FlitKind::of(0, 1), FlitKind::HeadTail);
        assert_eq!(FlitKind::of(0, 6), FlitKind::Head);
        assert_eq!(FlitKind::of(3, 6), FlitKind::Body);
        assert_eq!(FlitKind::of(5, 6), FlitKind::Tail);
        assert!(FlitKind::HeadTail.is_head() && FlitKind::HeadTail.is_tail());
        assert!(!FlitKind::Body.is_head() && !FlitKind::Body.is_tail());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn kind_out_of_range() {
        let _ = FlitKind::of(6, 6);
    }

    #[test]
    fn fragment_single_flit_packet() {
        let p = Packet {
            id: PacketId(0),
            src: NodeId(1),
            dst: NodeId(2),
            size: Bits(64),
            class: PacketClass::Control,
            tag: 7,
            birth: 3,
        };
        let flits = Flit::fragment(&p, Bits(192), 5);
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert_eq!(flits[0].inject, 5);
    }

    #[test]
    fn fragment_paper_sizes() {
        let mut p = Packet {
            id: PacketId(0),
            src: NodeId(0),
            dst: NodeId(1),
            size: Bits(1024),
            class: PacketClass::Data,
            tag: 0,
            birth: 0,
        };
        assert_eq!(Flit::fragment(&p, Bits(192), 0).len(), 6);
        assert_eq!(Flit::fragment(&p, Bits(128), 0).len(), 8);
        p.size = Bits(128);
        assert_eq!(Flit::fragment(&p, Bits(128), 0).len(), 1);
    }
}
