//! The benchmark's own bookkeeping: the metric catalogue, the counters read
//! back from one simulation, the derivations (rates, per-visit costs,
//! ratios), the simulated-statistics fingerprint and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics, `(name, unit)`: reported by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("flit_hops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-stage cost metrics in [`heteronoc::noc::profile::STAGES`] order.
pub const STAGE_METRICS: [&str; 8] = [
    "noc.stage.bw.ns_per_visit",
    "noc.stage.rc.ns_per_visit",
    "noc.stage.va.ns_per_visit",
    "noc.stage.sa.ns_per_visit",
    "noc.stage.st.ns_per_visit",
    "noc.stage.lt.ns_per_visit",
    "noc.stage.inj.ns_per_visit",
    "noc.stage.stat.ns_per_visit",
];

/// Per-layer metrics, `(name, unit)`: reported by traced runs. A workload
/// that does not exercise a layer reports 0 for its metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("noc.router_visits", "count"),
    ("noc.flit_hops", "count"),
    ("noc.sim_cycles", "count"),
    ("noc.packets_retired", "count"),
    ("noc.ns_per_router_visit", "ns"),
    ("noc.ns_per_flit_hop", "ns"),
    ("noc.ns_per_cycle", "ns"),
    ("noc.xbar_flits_per_visit", "ratio"),
    ("noc.sa_arbs_per_visit", "ratio"),
    ("noc.va_grants_per_visit", "ratio"),
    ("noc.stage.bw.ns_per_visit", "ns"),
    ("noc.stage.rc.ns_per_visit", "ns"),
    ("noc.stage.va.ns_per_visit", "ns"),
    ("noc.stage.sa.ns_per_visit", "ns"),
    ("noc.stage.st.ns_per_visit", "ns"),
    ("noc.stage.lt.ns_per_visit", "ns"),
    ("noc.stage.inj.ns_per_visit", "ns"),
    ("noc.stage.stat.ns_per_visit", "ns"),
    ("sched.visit_skip_ratio", "ratio"),
    ("sched.cycles_skipped", "count"),
    ("sched.mean_wake_set", "routers"),
    ("cmp.core_cycles", "count"),
    ("cmp.instructions", "count"),
    ("sim_instr_per_s", "1/s"),
    ("cmp.ns_per_core_cycle", "ns"),
    ("cmp.visits_per_core_cycle", "ratio"),
    ("cmp.l1_miss_ratio", "ratio"),
    ("cmp.mem_reads", "count"),
    ("cmp.run_s.sap.baseline", "s"),
    ("cmp.run_s.sap.diagonal_bl", "s"),
    ("cmp.run_s.vips.baseline", "s"),
    ("cmp.run_s.vips.diagonal_bl", "s"),
    ("setup.mesh_config_us", "us"),
    ("setup.network_new_ms", "ms"),
    ("setup.cmp_new_ms", "ms"),
    ("setup.prewarm_ms", "ms"),
    ("power.evaluate_us", "us"),
    ("ckpt.written", "count"),
    ("ckpt.bytes", "bytes"),
    ("ckpt.save_ms", "ms"),
    ("ckpt.load_ms", "ms"),
    ("ckpt.resume_ms", "ms"),
    ("obs.profile_overhead", "%"),
    ("obs.progress_snapshots", "count"),
    ("host.calibration_ms", "ms"),
    ("model.dbl_vs_baseline_latency_pct", "%"),
    ("model.dbl_vs_baseline_ipc_pct", "%"),
];

/// True when `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Simulated counters of one simulation (or a sum over several), read back
/// from `NetStats`, `SchedReport` and the CMP statistics. Deterministic for
/// a given seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Network cycles simulated.
    pub sim_cycles: u64,
    /// Σ `links[].flits`.
    pub flit_hops: u64,
    /// Routers visited by the allocation phases.
    pub router_visits: u64,
    /// Router visits the active-set scheduler avoided.
    pub visits_skipped: u64,
    /// Cycles that ran the full pipeline.
    pub full_cycles: u64,
    /// Idle plus jumped cycles.
    pub cycles_skipped: u64,
    /// Measured packets injected.
    pub packets_offered: u64,
    /// Measured packets retired.
    pub packets_retired: u64,
    /// Σ packet latency in cycles over measured packets.
    pub latency_sum: u64,
    /// Flits that crossed a crossbar.
    pub xbar_flits: u64,
    /// Stage-1 plus stage-2 switch arbitrations.
    pub sa_arbs: u64,
    /// VC-allocation grants.
    pub va_grants: u64,
    /// Committed instructions, summed over cores.
    pub instructions: u64,
    /// Core cycles simulated.
    pub core_cycles: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Memory reads issued.
    pub mem_reads: u64,
}

impl Counts {
    /// Reads the network-side counters of a simulation that ended at
    /// network cycle `cycles`.
    pub fn from_network(
        cycles: u64,
        stats: &heteronoc::noc::stats::NetStats,
        sched: &heteronoc::noc::SchedReport,
    ) -> Self {
        let routers = &stats.routers;
        Counts {
            sim_cycles: cycles,
            flit_hops: stats.links.iter().map(|l| l.flits).sum(),
            router_visits: sched.router_visits,
            visits_skipped: sched.router_visits_skipped,
            full_cycles: sched.full_cycles,
            cycles_skipped: sched.cycles_skipped(),
            packets_offered: stats.packets_offered,
            packets_retired: stats.packets_retired,
            latency_sum: stats.latency.total,
            xbar_flits: routers.iter().map(|r| r.xbar_flits).sum(),
            sa_arbs: routers.iter().map(|r| r.sa1_arbs + r.sa2_arbs).sum(),
            va_grants: routers.iter().map(|r| r.va_grants).sum(),
            ..Counts::default()
        }
    }

    /// Adds `other` field by field.
    pub fn add(&mut self, o: &Counts) {
        self.sim_cycles += o.sim_cycles;
        self.flit_hops += o.flit_hops;
        self.router_visits += o.router_visits;
        self.visits_skipped += o.visits_skipped;
        self.full_cycles += o.full_cycles;
        self.cycles_skipped += o.cycles_skipped;
        self.packets_offered += o.packets_offered;
        self.packets_retired += o.packets_retired;
        self.latency_sum += o.latency_sum;
        self.xbar_flits += o.xbar_flits;
        self.sa_arbs += o.sa_arbs;
        self.va_grants += o.va_grants;
        self.instructions += o.instructions;
        self.core_cycles += o.core_cycles;
        self.l1_hits += o.l1_hits;
        self.l1_misses += o.l1_misses;
        self.mem_reads += o.mem_reads;
    }

    /// Fingerprint of the simulated statistics that every speed-only change
    /// must leave identical: cycles, packets, flit-hops, router visits,
    /// latency sum and committed instructions (FNV-1a over their bytes).
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&[self.stats_fingerprint(), self.router_visits])
    }

    /// [`Counts::fingerprint`] without the router visits: the scheduler's
    /// counters are not checkpointed, so a resumed run counts visits from
    /// the resume point only.
    pub fn stats_fingerprint(&self) -> u64 {
        fnv1a(&[
            self.sim_cycles,
            self.packets_offered,
            self.packets_retired,
            self.flit_hops,
            self.latency_sum,
            self.instructions,
        ])
    }

    /// Writes the count-derived `noc.*`, `sched.*` and `cmp.*` metrics,
    /// with host costs taken over `wall` (the simulation calls' time).
    pub fn derive(&self, wall: f64, m: &mut Metrics) {
        let ns = wall * 1e9;
        m.set("noc.router_visits", self.router_visits as f64);
        m.set("noc.flit_hops", self.flit_hops as f64);
        m.set("noc.sim_cycles", self.sim_cycles as f64);
        m.set("noc.packets_retired", self.packets_retired as f64);
        m.set("noc.ns_per_router_visit", ratio(ns, self.router_visits));
        m.set("noc.ns_per_flit_hop", ratio(ns, self.flit_hops));
        m.set("noc.ns_per_cycle", ratio(ns, self.sim_cycles));
        m.set(
            "noc.xbar_flits_per_visit",
            ratio(self.xbar_flits as f64, self.router_visits),
        );
        m.set(
            "noc.sa_arbs_per_visit",
            ratio(self.sa_arbs as f64, self.router_visits),
        );
        m.set(
            "noc.va_grants_per_visit",
            ratio(self.va_grants as f64, self.router_visits),
        );
        m.set(
            "sched.visit_skip_ratio",
            ratio(
                self.visits_skipped as f64,
                self.router_visits + self.visits_skipped,
            ),
        );
        m.set("sched.cycles_skipped", self.cycles_skipped as f64);
        m.set(
            "sched.mean_wake_set",
            ratio(self.router_visits as f64, self.full_cycles),
        );
        m.set("cmp.core_cycles", self.core_cycles as f64);
        m.set("cmp.instructions", self.instructions as f64);
        m.set(
            "sim_instr_per_s",
            if wall > 0.0 {
                self.instructions as f64 / wall
            } else {
                0.0
            },
        );
        m.set("cmp.ns_per_core_cycle", ratio(ns, self.core_cycles));
        m.set(
            "cmp.visits_per_core_cycle",
            ratio(self.router_visits as f64, self.core_cycles),
        );
        m.set(
            "cmp.l1_miss_ratio",
            ratio(self.l1_misses as f64, self.l1_hits + self.l1_misses),
        );
        m.set("cmp.mem_reads", self.mem_reads as f64);
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// FNV-1a over the little-endian bytes of `words`.
pub fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Operation tally of one run: every simulation (and the checkpoint
/// round trip) is one attempted operation; one whose correctness check
/// fails counts as failed and contributes no timing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose correctness check failed.
    pub failed: u64,
}

impl Tally {
    /// Records one operation whose checked outcome is `result`, reporting
    /// a failure on stderr; returns the outcome of a passing operation.
    pub fn check<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
                None
            }
        }
    }
}

/// Checks one job's fingerprint against its reference: the pinned value
/// for the default seed, otherwise the first fingerprint seen for the job
/// in this run.
pub fn check_fingerprint(reference: &mut Option<u64>, got: u64) -> Result<(), String> {
    match *reference {
        Some(want) if want != got => Err(format!(
            "simulated-statistics fingerprint {got:#018x} != expected {want:#018x}"
        )),
        Some(_) => Ok(()),
        None => {
            *reference = Some(got);
            Ok(())
        }
    }
}

/// Metric values by name; rendering fills in units from the catalogue.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets metric `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the metric catalogue"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// metric of `catalogue` with its unit (0 for metrics the workload does
/// not exercise). A non-finite value makes the run incorrect, and so does
/// a zero when `nonzero` is set (the end-to-end metrics are never 0).
pub fn render_result(
    tally: Tally,
    catalogue: &[(&str, &str)],
    nonzero: bool,
    m: &Metrics,
) -> String {
    let mut valid = true;
    let mut body = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let mut v = m.get(name).unwrap_or(0.0);
        if !v.is_finite() || (nonzero && v == 0.0) {
            eprintln!("FAILED metric {name}: value {v}");
            valid = false;
            v = 0.0;
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    let correct = valid && tally.failed == 0 && tally.attempted > 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted, tally.failed
    )
}

/// One recorded span: a timed call into the simulator's public API.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    op: u64,
    start_ns: u128,
    dur_ns: u128,
}

/// Nominal duration of one [`calibrate`] pass: about its median on the
/// 2-vCPU 2.0 GHz Xeon virtual machine the bounds were set on.
pub const CALIBRATION_NOMINAL_S: f64 = 0.040;

/// Fixed host-speed reference: pseudo-random read-modify-writes over a
/// 2 MiB table with data-dependent branches, like the simulator's hot
/// loops but independent of the simulator's code. Returns its wall time
/// in seconds.
pub fn calibrate(table: &mut [u64]) -> f64 {
    debug_assert!(table.len().is_power_of_two());
    let mask = table.len() - 1;
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for _ in 0..3_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[x as usize & mask];
        if *slot & 1 == 0 {
            *slot = slot.wrapping_add(x);
        } else {
            acc = acc.wrapping_add(*slot);
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Times calls into the simulator.
///
/// The host this runs on changes speed by 15% or more over tens of
/// seconds as other tenants come and go, so host times are reported at
/// reference speed: every operation starts with a [`calibrate`] pass, and
/// each of its calls' durations is scaled by [`CALIBRATION_NOMINAL_S`] /
/// (that pass's time). Every call is timed, because the end-to-end
/// metrics need the durations; only a traced run keeps the spans (raw
/// durations), which are written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    keep: bool,
    t0: Instant,
    op: u64,
    scale: f64,
    table: Vec<u64>,
    calibrations: Vec<f64>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that keeps spans when `keep` is set.
    pub fn new(keep: bool) -> Self {
        Tracer {
            keep,
            t0: Instant::now(),
            op: 0,
            scale: 1.0,
            table: vec![0; 1 << 18],
            calibrations: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts a new operation: calibrates the host speed for it; later
    /// spans carry its identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
        let mut table = std::mem::take(&mut self.table);
        let (secs, _) = self.span("calibrate", || calibrate(&mut table));
        self.table = table;
        self.calibrations.push(secs);
        self.scale = CALIBRATION_NOMINAL_S / secs;
    }

    /// The current operation's factor from raw host time to reference
    /// speed.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Raw calibration times of this run, in seconds.
    pub fn calibrations(&self) -> &[f64] {
        &self.calibrations
    }

    /// Runs `f` as span `name`, returning its result and its duration in
    /// seconds at reference speed.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let dur = start.elapsed();
        if self.keep {
            self.spans.push(Span {
                name,
                op: self.op,
                start_ns: (start - self.t0).as_nanos(),
                dur_ns: dur.as_nanos(),
            });
        }
        (out, dur.as_secs_f64() * self.scale)
    }

    /// The kept spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
                s.name, s.op, s.start_ns, s.dur_ns
            );
        }
        out
    }

    /// True when spans are kept.
    pub fn keeps(&self) -> bool {
        self.keep
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The `VmHWM` value in kB from a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
        }
        for (stage, name) in heteronoc::noc::profile::STAGES.iter().zip(STAGE_METRICS) {
            assert!(seen.contains(name), "{name} missing");
            let label = format!(".{}.", stage.label().to_lowercase());
            assert!(name.contains(&label), "{name} is not stage {label}");
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let listed = json.matches("\"name\": \"").count();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // Every metric plus the workloads, and nothing else.
        let workloads = crate::workloads::Workload::ALL.len();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn name_validity() {
        for ok in [
            "wall_s",
            "noc.stage.sa.ns_per_visit",
            "a-b",
            "9x",
            &"x".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", "a%", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn per_visit_and_skip_ratio_derivations() {
        let c = Counts {
            sim_cycles: 1_000,
            flit_hops: 4_000,
            router_visits: 2_000,
            visits_skipped: 6_000,
            full_cycles: 500,
            xbar_flits: 3_000,
            sa_arbs: 5_000,
            va_grants: 1_000,
            instructions: 10_000,
            core_cycles: 2_500,
            l1_hits: 90,
            l1_misses: 10,
            ..Counts::default()
        };
        let mut m = Metrics::default();
        c.derive(0.002, &mut m); // 2 ms of host time
        assert_eq!(m.get("noc.ns_per_router_visit"), Some(1_000.0));
        assert_eq!(m.get("noc.ns_per_flit_hop"), Some(500.0));
        assert_eq!(m.get("noc.ns_per_cycle"), Some(2_000.0));
        assert_eq!(m.get("noc.xbar_flits_per_visit"), Some(1.5));
        assert_eq!(m.get("noc.sa_arbs_per_visit"), Some(2.5));
        assert_eq!(m.get("noc.va_grants_per_visit"), Some(0.5));
        assert_eq!(m.get("sched.visit_skip_ratio"), Some(0.75));
        assert_eq!(m.get("sched.mean_wake_set"), Some(4.0));
        assert_eq!(m.get("sim_instr_per_s"), Some(5_000_000.0));
        assert_eq!(m.get("cmp.ns_per_core_cycle"), Some(800.0));
        assert_eq!(m.get("cmp.visits_per_core_cycle"), Some(0.8));
        assert_eq!(m.get("cmp.l1_miss_ratio"), Some(0.1));
    }

    #[test]
    fn derivations_of_an_unexercised_layer_are_zero() {
        let mut m = Metrics::default();
        Counts::default().derive(1.0, &mut m);
        for (name, _) in PER_LAYER {
            if let Some(v) = m.get(name) {
                assert_eq!(v, 0.0, "{name}");
            }
        }
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fingerprint_covers_every_simulated_statistic() {
        let base = Counts {
            sim_cycles: 1,
            packets_offered: 2,
            packets_retired: 2,
            flit_hops: 3,
            router_visits: 4,
            latency_sum: 5,
            instructions: 6,
            ..Counts::default()
        };
        let fp = base.fingerprint();
        assert_eq!(fp, base.fingerprint());
        let bumps: [fn(&mut Counts); 7] = [
            |c| c.sim_cycles += 1,
            |c| c.packets_offered += 1,
            |c| c.packets_retired += 1,
            |c| c.flit_hops += 1,
            |c| c.router_visits += 1,
            |c| c.latency_sum += 1,
            |c| c.instructions += 1,
        ];
        for bump in bumps {
            let mut c = base;
            bump(&mut c);
            assert_ne!(c.fingerprint(), fp);
        }
        let mut resumed = base;
        resumed.router_visits = 1;
        assert_eq!(resumed.stats_fingerprint(), base.stats_fingerprint());
        // Counters outside that list leave it unchanged.
        let mut c = base;
        c.l1_hits += 1;
        assert_eq!(c.fingerprint(), fp);
    }

    #[test]
    fn fingerprint_comparison() {
        let mut pinned = Some(7);
        assert!(check_fingerprint(&mut pinned, 7).is_ok());
        assert!(check_fingerprint(&mut pinned, 8).is_err());
        let mut first = None;
        assert!(check_fingerprint(&mut first, 9).is_ok());
        assert_eq!(first, Some(9));
        assert!(check_fingerprint(&mut first, 9).is_ok());
        assert!(check_fingerprint(&mut first, 10).is_err());
    }

    #[test]
    fn failures_are_counted_not_timed() {
        let mut t = Tally::default();
        assert_eq!(t.check("a", Ok(1)), Some(1));
        assert_eq!(t.check::<u8>("b", Err("boom".into())), None);
        assert_eq!(t.check("c", Ok(())), Some(()));
        assert_eq!(
            t,
            Tally {
                attempted: 3,
                failed: 1
            }
        );
        let line = render_result(t, PER_LAYER, false, &Metrics::default());
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1,"));
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 1.0 + i as f64);
        }
        m.set("wall_s", 1.25);
        m.set("setup_s", 0.000123456789);
        let ok = Tally {
            attempted: 2,
            failed: 0,
        };
        let line = render_result(ok, END_TO_END, true, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 0,"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.000123456789, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        // Per-layer metrics a workload does not exercise read 0.
        let layer = render_result(ok, PER_LAYER, false, &Metrics::default());
        assert!(layer.starts_with("{\"correct\": true,"));
        assert!(layer.contains("\"ckpt.bytes\": {\"value\": 0, \"unit\": \"bytes\"}"));
        assert_eq!(layer.matches("\"unit\"").count(), PER_LAYER.len());
    }

    #[test]
    fn missing_end_to_end_metric_makes_the_run_incorrect() {
        let mut m = Metrics::default();
        m.set("wall_s", 1.0);
        let line = render_result(
            Tally {
                attempted: 1,
                failed: 0,
            },
            END_TO_END,
            true,
            &m,
        );
        assert!(line.starts_with("{\"correct\": false,"));
    }

    #[test]
    fn non_finite_metric_makes_the_run_incorrect() {
        let mut m = Metrics::default();
        m.set("noc.ns_per_cycle", f64::NAN);
        let line = render_result(
            Tally {
                attempted: 1,
                failed: 0,
            },
            PER_LAYER,
            false,
            &m,
        );
        assert!(line.starts_with("{\"correct\": false,"));
        assert!(!line.contains("NaN"));
    }

    #[test]
    fn no_operation_is_not_correct() {
        let line = render_result(Tally::default(), PER_LAYER, false, &Metrics::default());
        assert!(line.starts_with("{\"correct\": false,"));
    }

    #[test]
    fn vm_hwm_parsing() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert!(peak_rss_mb().expect("Linux /proc") > 0.0);
    }

    #[test]
    fn tracer_keeps_spans_only_when_traced() {
        let mut off = Tracer::new(false);
        let (v, _) = off.span("f", || 41 + 1);
        assert_eq!(v, 42);
        assert!(off.to_jsonl().is_empty());
        let mut on = Tracer::new(true);
        on.next_op();
        on.span("Network::new", || ());
        let log = on.to_jsonl();
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"name\": \"calibrate\", \"op\": 1, "));
        assert!(lines[1].starts_with("{\"name\": \"Network::new\", \"op\": 1, "));
    }

    #[test]
    fn durations_are_scaled_to_reference_speed() {
        let mut t = Tracer::new(false);
        t.next_op();
        let cal = t.calibrations()[0];
        assert!(cal > 0.0);
        assert_eq!(t.scale(), CALIBRATION_NOMINAL_S / cal);
        let (_, secs) = t.span("sleep", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        let raw = secs / t.scale();
        assert!((0.020..1.0).contains(&raw), "raw {raw}");
    }
}
