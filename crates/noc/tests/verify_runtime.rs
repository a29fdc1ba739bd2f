//! Runtime invariant checking under load (cargo feature `verify`).
//!
//! Runs full open-loop simulations with [`StrictInvariants`] active every
//! cycle — homogeneous, heterogeneous and table-routed configurations — so
//! any flit-conservation, credit or FIFO-order slip in the engine aborts
//! the run at the cycle it happens. Run with
//! `cargo test -p heteronoc-noc --features verify`.

#![cfg(feature = "verify")]

use heteronoc_noc::config::{LinkWidths, NetworkConfig, NetworkConfigBuilder, RouterCfg};
use heteronoc_noc::network::Network;
use heteronoc_noc::routing::{RouteTable, RoutingKind};
use heteronoc_noc::sim::{InvariantObserver, SimParams, SimRun};
use heteronoc_noc::topology::TopologyKind;
use heteronoc_noc::types::{Bits, Rate};

fn params(rate: f64) -> SimParams {
    SimParams {
        injection_rate: Rate::new(rate),
        warmup_packets: 50,
        measure_packets: 500,
        max_cycles: 100_000,
        seed: 11,
        process: heteronoc_noc::sim::InjectionProcess::Bernoulli,
        watchdog: Some(100_000),
    }
}

#[test]
fn homogeneous_mesh_holds_invariants_under_load() {
    let net = Network::new(NetworkConfig::paper_baseline()).unwrap();
    let out = SimRun::new(net, params(0.03)).run().unwrap();
    assert!(out.stats.packets_retired >= 500);
}

#[test]
fn heterogeneous_routers_hold_invariants_under_load() {
    // Four 6-VC big routers in the center of a 4x4 mesh, 2-VC elsewhere —
    // the Center+B shape at small scale.
    let mut b = NetworkConfigBuilder::mesh(4, 4).router_default(RouterCfg::SMALL);
    for r in [5usize, 6, 9, 10] {
        b = b.router(r, RouterCfg::BIG);
    }
    let net = Network::new(b.build().expect("valid config")).unwrap();
    let out = SimRun::new(net, params(0.03)).run().unwrap();
    assert!(out.stats.packets_retired >= 500);
}

/// Big routers on the diagonal with wide links around them (the
/// Diagonal+BL shape at small scale), driven near saturation: the
/// secondary switch arbiter, same-packet pairs and full VC classes are all
/// routine, and the engine checks every visit's allocator masks against
/// the scalar predicates.
#[test]
fn wide_links_near_saturation_hold_allocator_masks() {
    let big: Vec<bool> = (0..16).map(|r| r % 5 == 0).collect();
    let mut b = NetworkConfigBuilder::mesh(4, 4)
        .router_default(RouterCfg::SMALL)
        .flit_width(Bits(128))
        .link_widths(LinkWidths::ByBigRouters {
            big: big.clone(),
            narrow: Bits(128),
            wide: Bits(256),
        });
    for (r, _) in big.iter().enumerate().filter(|(_, &b)| b) {
        b = b.router(r, RouterCfg::BIG);
    }
    let net = Network::new(b.build().expect("valid config")).unwrap();
    let out = SimRun::new(net, params(0.09)).run().unwrap();
    assert!(out.stats.packets_retired >= 500);
    assert!(out.stats.links.iter().any(|l| l.dual_cycles > 0));
}

#[test]
fn torus_dateline_routing_holds_invariants_under_load() {
    let cfg = NetworkConfig::homogeneous(
        TopologyKind::Torus {
            width: 4,
            height: 4,
        },
        RouterCfg::BASELINE,
        Bits(192),
        2.2,
    );
    let net = Network::new(cfg).unwrap();
    let out = SimRun::new(net, params(0.03)).run().unwrap();
    assert!(out.stats.packets_retired >= 500);
}

#[test]
fn table_routing_with_escape_holds_invariants_under_load() {
    let base = NetworkConfigBuilder::mesh(4, 4)
        .build()
        .expect("valid config");
    let graph = base.build_graph();
    let hubs: Vec<_> = [0usize, 3, 12, 15]
        .into_iter()
        .map(heteronoc_noc::types::RouterId)
        .collect();
    let cfg = NetworkConfigBuilder::mesh(4, 4)
        .routing(RoutingKind::TableXy(RouteTable::for_hubs(&graph, &hubs)))
        .build()
        .expect("valid config");
    let net = Network::new(cfg).unwrap();
    let out = SimRun::new(net, params(0.03)).run().unwrap();
    assert!(out.stats.packets_retired >= 500);
}

#[test]
fn custom_observer_sees_every_cycle() {
    struct Counting {
        cycles: u64,
    }
    impl InvariantObserver for Counting {
        fn after_cycle(&mut self, net: &Network) {
            self.cycles += 1;
            net.check_invariants().unwrap();
        }
    }
    let net = Network::new(NetworkConfig::paper_baseline()).unwrap();
    let mut obs = Counting { cycles: 0 };
    let out = SimRun::new(net, params(0.02))
        .observer(&mut obs)
        .run()
        .unwrap();
    assert_eq!(obs.cycles, out.cycles, "one observer call per cycle");
}
