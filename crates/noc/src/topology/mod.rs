//! Network topologies.
//!
//! A [`TopologyGraph`] is the concrete, fully-elaborated graph of routers,
//! node attachments and unidirectional links that the simulator runs on.
//! Constructors for the topologies evaluated in the paper live in the
//! submodules:
//!
//! * [`mesh`]: 2-D mesh (the paper's primary platform, Figs. 1, 3, 7-14),
//! * [`torus`]: 2-D torus (edge-symmetric comparison, §5.1.1 / Fig. 10),
//! * [`cmesh`]: concentrated mesh (Fig. 2a),
//! * [`flatbfly`]: flattened butterfly (Fig. 2b).
//!
//! Port convention: for every router the first `concentration` ports are
//! local (node) ports, followed by the inter-router ports in a
//! topology-defined order. Each inter-router channel is modelled as a pair of
//! unidirectional links.

pub mod cmesh;
pub mod flatbfly;
pub mod mesh;
pub mod torus;

use serde::{Deserialize, Serialize};

use crate::types::{Coord, LinkId, NodeId, PortId, RouterId};

/// Cardinal directions used by the grid topologies for port naming.
///
/// The numeric values match the port offsets after the local ports:
/// a mesh router's port list is `[local, N, E, S, W]`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Direction {
    /// Towards smaller `y`.
    North,
    /// Towards larger `x`.
    East,
    /// Towards larger `y`.
    South,
    /// Towards smaller `x`.
    West,
}

impl Direction {
    /// All four directions in port order.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    /// The opposite direction.
    ///
    /// # Examples
    /// ```
    /// use heteronoc_noc::topology::Direction;
    /// assert_eq!(Direction::North.opposite(), Direction::South);
    /// ```
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }
}

/// What a router port connects to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PortKind {
    /// An injection/ejection port attached to a node.
    Local {
        /// The attached endpoint.
        node: NodeId,
    },
    /// An inter-router port; `out` is the outgoing link on this port and
    /// `into` the incoming one.
    Link {
        /// Neighbouring router reached through this port.
        to: RouterId,
        /// Outgoing (this router → `to`) link.
        out: LinkId,
        /// Incoming (`to` → this router) link.
        into: LinkId,
    },
}

/// One port of a router.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct PortDesc {
    /// Connection of this port.
    pub kind: PortKind,
}

/// A router and its ports.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RouterDesc {
    /// Grid position (all supported topologies are grid-based).
    pub coord: Coord,
    /// Ports in convention order (locals first).
    pub ports: Vec<PortDesc>,
}

/// A unidirectional router-to-router channel.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct LinkDesc {
    /// Driving router.
    pub src: RouterId,
    /// Output port on the driving router.
    pub src_port: PortId,
    /// Receiving router.
    pub dst: RouterId,
    /// Input port on the receiving router.
    pub dst_port: PortId,
    /// True for torus wrap-around links (used for dateline VC classes).
    pub wrap: bool,
}

/// Where a node attaches to the network.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct NodeAttachment {
    /// Router the node is connected to.
    pub router: RouterId,
    /// Local port index on that router.
    pub port: PortId,
}

/// Which topology family a graph was built from (routing dispatches on this).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum TopologyKind {
    /// `width x height` 2-D mesh, one node per router.
    Mesh {
        /// Columns.
        width: usize,
        /// Rows.
        height: usize,
    },
    /// `width x height` 2-D torus, one node per router.
    Torus {
        /// Columns.
        width: usize,
        /// Rows.
        height: usize,
    },
    /// Concentrated mesh: `width x height` routers, `concentration` nodes each.
    CMesh {
        /// Router columns.
        width: usize,
        /// Router rows.
        height: usize,
        /// Nodes per router.
        concentration: usize,
    },
    /// 2-D flattened butterfly: `width x height` routers, fully connected
    /// within each row and each column, `concentration` nodes per router.
    FlattenedButterfly {
        /// Router columns.
        width: usize,
        /// Router rows.
        height: usize,
        /// Nodes per router.
        concentration: usize,
    },
}

impl TopologyKind {
    /// Router grid dimensions `(width, height)`.
    pub fn grid_dims(self) -> (usize, usize) {
        match self {
            TopologyKind::Mesh { width, height }
            | TopologyKind::Torus { width, height }
            | TopologyKind::CMesh { width, height, .. }
            | TopologyKind::FlattenedButterfly { width, height, .. } => (width, height),
        }
    }

    /// Builds the concrete graph for this topology kind.
    ///
    /// # Examples
    /// ```
    /// use heteronoc_noc::topology::TopologyKind;
    /// let g = TopologyKind::Mesh { width: 8, height: 8 }.build();
    /// assert_eq!(g.num_routers(), 64);
    /// assert_eq!(g.num_nodes(), 64);
    /// ```
    pub fn build(self) -> TopologyGraph {
        match self {
            TopologyKind::Mesh { width, height } => mesh::build(width, height),
            TopologyKind::Torus { width, height } => torus::build(width, height),
            TopologyKind::CMesh {
                width,
                height,
                concentration,
            } => cmesh::build(width, height, concentration),
            TopologyKind::FlattenedButterfly {
                width,
                height,
                concentration,
            } => flatbfly::build(width, height, concentration),
        }
    }
}

/// The fully elaborated topology the simulator runs on.
///
/// Construct one through [`TopologyKind::build`] or the submodule `build`
/// functions.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TopologyGraph {
    kind: TopologyKind,
    routers: Vec<RouterDesc>,
    nodes: Vec<NodeAttachment>,
    links: Vec<LinkDesc>,
}

impl TopologyGraph {
    pub(crate) fn new(
        kind: TopologyKind,
        routers: Vec<RouterDesc>,
        nodes: Vec<NodeAttachment>,
        links: Vec<LinkDesc>,
    ) -> Self {
        let g = Self {
            kind,
            routers,
            nodes,
            links,
        };
        g.debug_validate();
        g
    }

    fn debug_validate(&self) {
        for (i, l) in self.links.iter().enumerate() {
            debug_assert_eq!(
                match self.routers[l.src.index()].ports[l.src_port.index()].kind {
                    PortKind::Link { out, .. } => out,
                    PortKind::Local { .. } => panic!("link src port is local"),
                },
                LinkId(i)
            );
        }
        for (n, at) in self.nodes.iter().enumerate() {
            match self.routers[at.router.index()].ports[at.port.index()].kind {
                PortKind::Local { node } => debug_assert_eq!(node, NodeId(n)),
                PortKind::Link { .. } => panic!("node attached to a link port"),
            }
        }
    }

    /// The topology family this graph was built from.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.routers.len()
    }

    /// Number of attached nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of unidirectional links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Router descriptors, indexed by [`RouterId`].
    pub fn routers(&self) -> &[RouterDesc] {
        &self.routers
    }

    /// Link descriptors, indexed by [`LinkId`].
    pub fn links(&self) -> &[LinkDesc] {
        &self.links
    }

    /// Node attachments, indexed by [`NodeId`].
    pub fn nodes(&self) -> &[NodeAttachment] {
        &self.nodes
    }

    /// Descriptor of `router`.
    ///
    /// # Panics
    /// Panics if `router` is out of range.
    pub fn router(&self, router: RouterId) -> &RouterDesc {
        &self.routers[router.index()]
    }

    /// Grid coordinate of `router`.
    pub fn coord(&self, router: RouterId) -> Coord {
        self.routers[router.index()].coord
    }

    /// The router at grid coordinate `c`, if the coordinate is in range.
    pub fn router_at(&self, c: Coord) -> Option<RouterId> {
        let (w, h) = self.grid_dims();
        if c.x < w && c.y < h {
            Some(RouterId(c.y * w + c.x))
        } else {
            None
        }
    }

    /// Router grid dimensions `(width, height)`.
    pub fn grid_dims(&self) -> (usize, usize) {
        self.kind.grid_dims()
    }

    /// Attachment point of `node`.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn attachment(&self, node: NodeId) -> NodeAttachment {
        self.nodes[node.index()]
    }

    /// The port of `router` whose outgoing link reaches `to`, if adjacent.
    pub fn port_towards(&self, router: RouterId, to: RouterId) -> Option<PortId> {
        self.routers[router.index()]
            .ports
            .iter()
            .enumerate()
            .find_map(|(i, p)| match p.kind {
                PortKind::Link { to: t, .. } if t == to => Some(PortId(i)),
                _ => None,
            })
    }

    /// The outgoing link of `router` on `port`, if `port` is a link port.
    pub fn out_link(&self, router: RouterId, port: PortId) -> Option<LinkId> {
        match self.routers[router.index()].ports.get(port.index())?.kind {
            PortKind::Link { out, .. } => Some(out),
            PortKind::Local { .. } => None,
        }
    }

    /// Iterates over `(PortId, &PortDesc)` of a router.
    pub fn ports(&self, router: RouterId) -> impl Iterator<Item = (PortId, &PortDesc)> {
        self.routers[router.index()]
            .ports
            .iter()
            .enumerate()
            .map(|(i, p)| (PortId(i), p))
    }

    /// Minimal hop count between the routers serving `src` and `dst` under
    /// dimension-order routing (used for ideal-latency accounting).
    pub fn route_hops(&self, src: NodeId, dst: NodeId) -> usize {
        let a = self.coord(self.attachment(src).router);
        let b = self.coord(self.attachment(dst).router);
        match self.kind {
            TopologyKind::Mesh { .. } | TopologyKind::CMesh { .. } => a.manhattan(b),
            TopologyKind::Torus { width, height } => {
                ring_dist(a.x, b.x, width) + ring_dist(a.y, b.y, height)
            }
            TopologyKind::FlattenedButterfly { .. } => {
                usize::from(a.x != b.x) + usize::from(a.y != b.y)
            }
        }
    }
}

/// Shortest distance between positions `a` and `b` on a ring of size `n`.
pub(crate) fn ring_dist(a: usize, b: usize, n: usize) -> usize {
    let d = a.abs_diff(b);
    d.min(n - d)
}

/// Helper used by the grid topology builders: creates the two unidirectional
/// links of a bidirectional channel and patches both routers' port tables.
pub(crate) struct GraphBuilder {
    pub routers: Vec<RouterDesc>,
    pub nodes: Vec<NodeAttachment>,
    pub links: Vec<LinkDesc>,
}

impl GraphBuilder {
    pub fn with_routers(coords: Vec<Coord>) -> Self {
        Self {
            routers: coords
                .into_iter()
                .map(|coord| RouterDesc {
                    coord,
                    ports: Vec::new(),
                })
                .collect(),
            nodes: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Attaches a fresh node to `router`, returning its id.
    pub fn attach_node(&mut self, router: RouterId) -> NodeId {
        let node = NodeId(self.nodes.len());
        let port = PortId(self.routers[router.index()].ports.len());
        self.routers[router.index()].ports.push(PortDesc {
            kind: PortKind::Local { node },
        });
        self.nodes.push(NodeAttachment { router, port });
        node
    }

    /// Adds a bidirectional channel `a <-> b` (two unidirectional links).
    pub fn connect(&mut self, a: RouterId, b: RouterId, wrap: bool) {
        let a_port = PortId(self.routers[a.index()].ports.len());
        let b_port = PortId(self.routers[b.index()].ports.len());
        let ab = LinkId(self.links.len());
        let ba = LinkId(self.links.len() + 1);
        self.routers[a.index()].ports.push(PortDesc {
            kind: PortKind::Link {
                to: b,
                out: ab,
                into: ba,
            },
        });
        self.routers[b.index()].ports.push(PortDesc {
            kind: PortKind::Link {
                to: a,
                out: ba,
                into: ab,
            },
        });
        self.links.push(LinkDesc {
            src: a,
            src_port: a_port,
            dst: b,
            dst_port: b_port,
            wrap,
        });
        self.links.push(LinkDesc {
            src: b,
            src_port: b_port,
            dst: a,
            dst_port: a_port,
            wrap,
        });
    }

    pub fn finish(self, kind: TopologyKind) -> TopologyGraph {
        TopologyGraph::new(kind, self.routers, self.nodes, self.links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_opposites() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn ring_dist_wraps() {
        assert_eq!(ring_dist(0, 7, 8), 1);
        assert_eq!(ring_dist(0, 4, 8), 4);
        assert_eq!(ring_dist(3, 3, 8), 0);
        assert_eq!(ring_dist(1, 6, 8), 3);
    }

    #[test]
    fn builder_links_are_paired() {
        let mut b = GraphBuilder::with_routers(vec![Coord::new(0, 0), Coord::new(1, 0)]);
        let r0 = RouterId(0);
        let r1 = RouterId(1);
        b.attach_node(r0);
        b.attach_node(r1);
        b.connect(r0, r1, false);
        let g = b.finish(TopologyKind::Mesh {
            width: 2,
            height: 1,
        });
        assert_eq!(g.num_links(), 2);
        assert_eq!(g.port_towards(r0, r1), Some(PortId(1)));
        assert_eq!(g.port_towards(r1, r0), Some(PortId(1)));
        let l = g.out_link(r0, PortId(1)).unwrap();
        assert_eq!(g.links()[l.index()].dst, r1);
    }
}
