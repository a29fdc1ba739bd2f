//! Golden regression pin for the trace-driven CMP: four short runs must
//! reach exactly the end state they reached when the literals below were
//! captured.
//!
//! `deterministic_runs` only compares the simulator against itself; these
//! pins compare it against a fixed past. Each fingerprint covers the final
//! core cycle, every core's committed count, the `CmpStats` counters and
//! the bit patterns of their running means and deviations, and the
//! network's packet, flit and latency totals. The configurations reach the
//! paths a timing change is most likely to disturb:
//!
//! * out-of-order cores on the Baseline and Diagonal+BL meshes (Fig. 11);
//! * the Fig. 14 mix: in-order cores plus four expedited out-of-order
//!   corner cores, table-routed through the diagonal big routers;
//! * 16 diamond controllers with only 4 MSHRs per core, so the L1 answers
//!   `Retry` often and prewarmed shared lines take the S-to-M upgrade.
//!
//! The literals were captured before L1 transactions became consume-once
//! (DESIGN.md §2.3); that change must reproduce them exactly.

use heteronoc::noc::types::{NodeId, RouterId};
use heteronoc::noc::NetworkConfig;
use heteronoc::traffic::workloads::{Benchmark, SyntheticWorkload};
use heteronoc::traffic::TraceSource;
use heteronoc::{mesh_config, mesh_config_with_table, Layout};
use heteronoc_cmp::{diamond16, CmpConfig, CmpSystem, CoreParams, Welford};

/// (final core cycle, Σ committed, Σ L1 misses, Σ memory reads, FNV-1a of
/// the whole fingerprint).
type Pin = (u64, u64, u64, u64, u64);

const CORNERS: [usize; 4] = [0, 7, 56, 63];

fn traces(
    bench: impl Fn(usize) -> Benchmark,
    seed: u64,
    refs: u64,
) -> Vec<Box<dyn TraceSource + Send>> {
    (0..64)
        .map(|t| {
            Box::new(SyntheticWorkload::new(bench(t), t, seed, refs)) as Box<dyn TraceSource + Send>
        })
        .collect()
}

fn welford(w: &Welford) -> [u64; 3] {
    [w.count(), w.mean().to_bits(), w.stddev().to_bits()]
}

/// Runs `sys` to drain and returns its pinned summary.
fn run(mut sys: CmpSystem) -> Pin {
    sys.run(20_000_000);
    assert!(sys.finished(), "system did not drain");
    let committed = sys.committed();
    let s = sys.stats();
    let net = sys.network().stats();
    let mut words = vec![sys.now()];
    words.extend(&committed);
    words.extend(welford(&s.mem_round_trip));
    words.extend(welford(&s.mem_request_leg));
    words.extend(welford(&s.l1_miss_latency));
    words.extend([s.l1_hits, s.l1_misses, s.mem_reads, s.mem_writes]);
    words.extend([net.packets_offered, net.packets_retired, net.flits_retired]);
    let l = &net.latency;
    words.extend([l.count, l.total, l.queuing, l.blocking, l.transfer]);
    let hash = words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    let pin = (
        sys.now(),
        committed.iter().sum(),
        s.l1_misses,
        s.mem_reads,
        hash,
    );
    println!("pin: {pin:?}");
    pin
}

/// A Fig. 11-style run: 64 out-of-order cores, caches prewarmed with the
/// run's own traces.
fn ooo(net: NetworkConfig, bench: Benchmark) -> Pin {
    let cfg = CmpConfig::paper_defaults(net);
    let mut sys = CmpSystem::new(
        cfg,
        vec![CoreParams::OUT_OF_ORDER; 64],
        traces(|_| bench, 1, 500),
    );
    sys.prewarm(traces(|_| bench, 1, 500));
    run(sys)
}

#[test]
fn ooo_baseline_sap() {
    assert_eq!(
        ooo(mesh_config(&Layout::Baseline), Benchmark::Sap),
        (16_264, 106_855, 29_051, 591, 10_496_062_687_928_404_770)
    );
}

#[test]
fn ooo_diagonal_bl_vips() {
    assert_eq!(
        ooo(mesh_config(&Layout::DiagonalBL), Benchmark::Vips),
        (28_720, 131_941, 21_558, 1_903, 14_413_551_128_104_709_973)
    );
}

#[test]
fn asymmetric_table_routed_mix() {
    let hubs = CORNERS.map(RouterId);
    let mut cfg = CmpConfig::paper_defaults(mesh_config_with_table(&Layout::DiagonalBL, &hubs));
    cfg.expedited_nodes = CORNERS.iter().map(|&n| NodeId(n)).collect();
    let params = (0..64)
        .map(|i| {
            if CORNERS.contains(&i) {
                CoreParams::OUT_OF_ORDER
            } else {
                CoreParams::IN_ORDER
            }
        })
        .collect();
    let bench = |t| {
        if CORNERS.contains(&t) {
            Benchmark::Libquantum
        } else {
            Benchmark::SpecJbb
        }
    };
    let mut sys = CmpSystem::new(cfg, params, traces(bench, 3, 150));
    sys.prewarm(traces(bench, 3, 150));
    assert_eq!(
        run(sys),
        (6_373, 33_793, 2_096, 147, 16_563_288_591_860_301_390)
    );
}

#[test]
fn diamond_controllers_with_four_mshrs() {
    let mut cfg = CmpConfig::paper_defaults(mesh_config(&Layout::Baseline));
    cfg.mc_nodes = diamond16(8, 8);
    cfg.mem.l1_mshrs = 4;
    let mut sys = CmpSystem::new(
        cfg,
        vec![CoreParams::OUT_OF_ORDER; 64],
        traces(|_| Benchmark::Sap, 5, 300),
    );
    sys.prewarm(traces(|_| Benchmark::Sap, 6, 300));
    assert_eq!(
        run(sys),
        (35_264, 64_351, 18_688, 15_558, 5_724_384_182_030_505_874)
    );
}
