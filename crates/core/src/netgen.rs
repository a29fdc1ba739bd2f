//! Turns a [`Layout`] into a simulator [`NetworkConfig`] (§2-§3).
//!
//! * Baseline: homogeneous 3 VCs / 192b / 2.20 GHz.
//! * `+B` layouts: buffer-only redistribution — small (2 VCs) and big
//!   (6 VCs) routers, everything still 192b wide.
//! * `+BL` layouts: combined buffer + link redistribution — 128b flits,
//!   128b links between small routers, 256b links touching a big router
//!   (which then carry two combined flits per cycle).
//!
//! All heterogeneous networks run at the worst-case (big-router) frequency
//! of 2.07 GHz (§3.4).

use heteronoc_noc::config::{LinkWidths, NetworkConfig};
use heteronoc_noc::routing::{RouteTable, RoutingKind};
use heteronoc_noc::topology::TopologyKind;
use heteronoc_noc::types::Bits;

use crate::layout::Layout;
use crate::router_class::{heteronoc_frequency_ghz, RouterClass};

/// Builds the network configuration for `layout` on a `width x height`
/// grid of the given `topology` family (mesh for the main evaluation,
/// torus for §5.1.1).
///
/// # Panics
/// Panics if `topology`'s dimensions disagree with `width`/`height`, or for
/// a custom placement built for a different grid.
pub fn network_config(layout: &Layout, topology: TopologyKind) -> NetworkConfig {
    let (width, height) = match topology {
        TopologyKind::Mesh { width, height }
        | TopologyKind::Torus { width, height }
        | TopologyKind::CMesh { width, height, .. }
        | TopologyKind::FlattenedButterfly { width, height, .. } => (width, height),
    };
    match layout {
        Layout::Baseline => NetworkConfig::homogeneous(
            topology,
            RouterClass::Baseline.router_cfg(),
            RouterClass::Baseline.width(),
            RouterClass::Baseline.freq_ghz(),
        ),
        _ => {
            let placement = layout.placement(width, height);
            let routers = placement
                .mask()
                .iter()
                .map(|&b| {
                    if b {
                        RouterClass::Big.router_cfg()
                    } else {
                        RouterClass::Small.router_cfg()
                    }
                })
                .collect();
            let (flit_width, link_widths) = if layout.redistributes_links() {
                (
                    RouterClass::Small.width(),
                    LinkWidths::ByBigRouters {
                        big: placement.mask().to_vec(),
                        narrow: RouterClass::Small.width(),
                        wide: RouterClass::Big.width(),
                    },
                )
            } else {
                (
                    RouterClass::Baseline.width(),
                    LinkWidths::Uniform(RouterClass::Baseline.width()),
                )
            };
            NetworkConfig {
                topology,
                flit_width,
                routers,
                link_widths,
                routing: RoutingKind::DimensionOrder,
                frequency_ghz: heteronoc_frequency_ghz(),
                escape_timeout: 16,
            }
        }
    }
}

/// Convenience: `layout` on the paper's 8x8 mesh.
pub fn mesh_config(layout: &Layout) -> NetworkConfig {
    network_config(
        layout,
        TopologyKind::Mesh {
            width: 8,
            height: 8,
        },
    )
}

/// Like [`mesh_config`] but with table-based routing for expedited flows
/// between the given hub routers and everywhere else (§7's
/// HeteroNoC-Table+XY). The top VC of every port becomes the reserved
/// escape VC.
pub fn mesh_config_with_table(
    layout: &Layout,
    hubs: &[heteronoc_noc::types::RouterId],
) -> NetworkConfig {
    let mut cfg = mesh_config(layout);
    let graph = cfg.build_graph();
    cfg.routing = RoutingKind::TableXy(RouteTable::for_hubs(&graph, hubs));
    cfg
}

/// One flit per paper packet kind, in flits, for a given configuration:
/// `(data_flits, address_flits)` — 1024b data and 1-flit address packets
/// (§4).
pub fn packet_flits(cfg: &NetworkConfig) -> (u32, u32) {
    (Bits(1024).flits(cfg.flit_width), 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteronoc_noc::network::Network;
    use heteronoc_noc::types::RouterId;

    #[test]
    fn baseline_config_matches_paper() {
        let cfg = mesh_config(&Layout::Baseline);
        assert_eq!(cfg.flit_width, Bits(192));
        assert_eq!(cfg.frequency_ghz, 2.20);
        assert!(cfg.routers.iter().all(|r| r.vcs_per_port == 3));
        assert_eq!(packet_flits(&cfg), (6, 1));
        assert!(cfg.validate(&cfg.build_graph()).is_ok());
    }

    #[test]
    fn plus_b_keeps_192b_links() {
        let cfg = mesh_config(&Layout::DiagonalB);
        assert_eq!(cfg.flit_width, Bits(192));
        assert_eq!(cfg.frequency_ghz, 2.07);
        assert!(matches!(cfg.link_widths, LinkWidths::Uniform(Bits(192))));
        assert_eq!(packet_flits(&cfg), (6, 1));
        let big = cfg.routers.iter().filter(|r| r.vcs_per_port == 6).count();
        let small = cfg.routers.iter().filter(|r| r.vcs_per_port == 2).count();
        assert_eq!((big, small), (16, 48));
    }

    #[test]
    fn plus_bl_redistributes_links() {
        let cfg = mesh_config(&Layout::DiagonalBL);
        assert_eq!(cfg.flit_width, Bits(128));
        assert_eq!(packet_flits(&cfg), (8, 1));
        match &cfg.link_widths {
            LinkWidths::ByBigRouters { narrow, wide, big } => {
                assert_eq!(*narrow, Bits(128));
                assert_eq!(*wide, Bits(256));
                assert_eq!(big.iter().filter(|&&b| b).count(), 16);
            }
            other => panic!("expected ByBigRouters, got {other:?}"),
        }
        assert!(cfg.validate(&cfg.build_graph()).is_ok());
    }

    #[test]
    fn vc_conservation_across_all_layouts() {
        // Total VCs per port summed over routers is constant: 64*3 = 192.
        let baseline: usize = mesh_config(&Layout::Baseline)
            .routers
            .iter()
            .map(|r| r.vcs_per_port)
            .sum();
        for l in Layout::all_heterogeneous() {
            let total: usize = mesh_config(&l).routers.iter().map(|r| r.vcs_per_port).sum();
            assert_eq!(total, baseline, "{l}");
        }
    }

    #[test]
    fn all_seven_configs_build_networks() {
        for l in Layout::all_seven() {
            let cfg = mesh_config(&l);
            Network::new(cfg).unwrap_or_else(|e| panic!("{l}: {e}"));
        }
    }

    #[test]
    fn torus_configs_build() {
        for l in [Layout::Baseline, Layout::DiagonalBL] {
            let cfg = network_config(
                &l,
                TopologyKind::Torus {
                    width: 8,
                    height: 8,
                },
            );
            Network::new(cfg).unwrap_or_else(|e| panic!("{l}: {e}"));
        }
    }

    /// Every configuration the experiments and the CLI build fits the
    /// allocators' mask widths (and the rest of `validate`).
    #[test]
    fn every_shipped_config_validates() {
        let torus = TopologyKind::Torus {
            width: 8,
            height: 8,
        };
        let mut cfgs = Vec::new();
        for l in Layout::all_seven() {
            cfgs.push((format!("{l} mesh"), mesh_config(&l)));
            cfgs.push((format!("{l} torus"), network_config(&l, torus)));
            let hubs = [RouterId(0), RouterId(7), RouterId(56), RouterId(63)];
            cfgs.push((format!("{l} table"), mesh_config_with_table(&l, &hubs)));
        }
        for kind in [
            TopologyKind::CMesh {
                width: 4,
                height: 4,
                concentration: 4,
            },
            TopologyKind::FlattenedButterfly {
                width: 4,
                height: 4,
                concentration: 4,
            },
        ] {
            cfgs.push((
                format!("{kind:?}"),
                NetworkConfig::homogeneous(
                    kind,
                    RouterClass::Baseline.router_cfg(),
                    Bits(192),
                    2.2,
                ),
            ));
        }
        for (name, cfg) in cfgs {
            if let Err(e) = cfg.validate(&cfg.build_graph()) {
                panic!("{name}: {e}");
            }
        }
    }

    #[test]
    fn table_config_reserves_escape() {
        let cfg = mesh_config_with_table(&Layout::DiagonalBL, &[RouterId(0), RouterId(63)]);
        assert!(cfg.routing.reserves_escape_vc());
        Network::new(cfg).expect("valid table config");
    }
}
