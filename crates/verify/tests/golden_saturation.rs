//! Golden regression pin near saturation: the allocators must keep every
//! arbitration decision.
//!
//! The 0.02-rate pins in `golden_faultfree.rs` seldom reach the wide-link
//! secondary switch arbiter or the VC-allocation path where a requester's
//! VC class is full. At 0.045 pkt/node/cycle on Diagonal+BL both are
//! routine, so these pins count the allocators' decisions directly:
//! Σ stage-1 and stage-2 switch arbitrations, VC grants, crossbar flits and
//! dual-flit link cycles. The literals were captured from the scalar
//! allocators before they moved to bitmasks; both engine modes must
//! reproduce them exactly.

use heteronoc::{mesh_config, Layout};
use heteronoc_noc::network::Network;
use heteronoc_noc::sched::EngineMode;
use heteronoc_noc::sim::{InjectionProcess, SimParams, SimRun};
use heteronoc_noc::types::Rate;

/// (Σ sa1_arbs, Σ sa2_arbs, Σ va_grants, Σ xbar_flits, Σ dual_cycles, cycles).
type Counters = (u64, u64, u64, u64, u64, u64);

const PINNED: Counters = (529_909, 519_584, 54_710, 519_584, 34_131, 4_081);

fn counters(mode: EngineMode) -> Counters {
    let params = SimParams {
        injection_rate: Rate::new(0.045),
        warmup_packets: 1_000,
        measure_packets: 10_000,
        max_cycles: 500_000,
        seed: 0xFA02,
        process: InjectionProcess::Bernoulli,
        ..SimParams::default()
    };
    let net = Network::new(mesh_config(&Layout::DiagonalBL)).unwrap();
    let out = SimRun::new(net, params)
        .engine(mode)
        .run()
        .expect("simulation run");
    assert!(!out.saturated);
    let s = &out.stats;
    (
        s.routers.iter().map(|r| r.sa1_arbs).sum(),
        s.routers.iter().map(|r| r.sa2_arbs).sum(),
        s.routers.iter().map(|r| r.va_grants).sum(),
        s.routers.iter().map(|r| r.xbar_flits).sum(),
        s.links.iter().map(|l| l.dual_cycles).sum(),
        out.cycles,
    )
}

#[test]
fn active_set_allocator_counters_unchanged() {
    let got = counters(EngineMode::ActiveSet);
    println!("active-set counters: {got:?}");
    assert_eq!(got, PINNED);
}

#[test]
fn poll_all_allocator_counters_unchanged() {
    let got = counters(EngineMode::PollAll);
    println!("poll-all counters: {got:?}");
    assert_eq!(got, PINNED);
}
