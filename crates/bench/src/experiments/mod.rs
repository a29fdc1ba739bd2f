//! Every paper experiment as an in-process function.
//!
//! The `run_all` binary is the one entry point: `run_all [<name>…]` picks
//! experiments from [`ALL`] by name (all of them when none is given) and
//! runs them inside one process, sharded across the sweep executor's
//! worker pool ([`crate::sweep::parallel_map`]) — a panic in one
//! experiment is caught and reported instead of only surfacing through a
//! child's stderr.
//!
//! `fig07_ur_traffic`, `fig09_nn_traffic`, `fig10_torus`, `dse_4x4` and
//! `fault_degradation` run on the sweep-orchestration engine
//! ([`crate::sweep`]) and therefore parallelize internally and memoize
//! their points in `results/cache/`.

pub mod ablation_conditions;
pub mod dse_4x4;
pub mod dse_8x8_heuristic;
pub mod extra_patterns;
pub mod fault_degradation;
pub mod fig01_mesh_utilization;
pub mod fig02_other_topologies;
pub mod fig07_ur_traffic;
pub mod fig08_breakdowns;
pub mod fig09_nn_traffic;
pub mod fig10_torus;
pub mod fig11_applications;
pub mod fig13_memctrl;
pub mod fig14_asymmetric;
pub mod stat_combining;
pub mod table1_router_costs;

/// Registry of every experiment, in the canonical run order (cheap static
/// accounting first, the long closed-loop runs last).
pub const ALL: &[(&str, fn())] = &[
    ("table1_router_costs", table1_router_costs::run),
    ("fig01_mesh_utilization", fig01_mesh_utilization::run),
    ("fig02_other_topologies", fig02_other_topologies::run),
    ("fig07_ur_traffic", fig07_ur_traffic::run),
    ("fig08_breakdowns", fig08_breakdowns::run),
    ("fig09_nn_traffic", fig09_nn_traffic::run),
    ("extra_patterns", extra_patterns::run),
    ("stat_combining", stat_combining::run),
    ("dse_4x4", dse_4x4::run),
    ("dse_8x8_heuristic", dse_8x8_heuristic::run),
    ("fig11_applications", fig11_applications::run),
    ("fig10_torus", fig10_torus::run),
    ("fig13_memctrl", fig13_memctrl::run),
    ("fig14_asymmetric", fig14_asymmetric::run),
    ("ablation_conditions", ablation_conditions::run),
    ("fault_degradation", fault_degradation::run),
];
