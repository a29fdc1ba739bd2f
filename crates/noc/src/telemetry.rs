//! Telemetry exporters: the bridge from the engine's ad-hoc counter
//! structs onto the unified [`heteronoc_obs`] metrics registry.
//!
//! Each counter struct the simulator already maintains — scheduler wake/skip
//! counters ([`SchedReport`]), link-level fault/retransmission counters
//! ([`FaultCounters`]), end-to-end recovery counters ([`RecoveryCounters`]),
//! pipeline-stage profile ([`ProfileReport`]) and the measurement statistics
//! ([`NetStats`]) — implements [`Instrument`], writing its values under a
//! caller-chosen dot-separated prefix. [`Network::export_telemetry`]
//! assembles the whole live tree under `noc.*`.
//!
//! All exports are **additive** (`counter_add` / histogram merge): exporting
//! several disjoint runs into one registry sums them, which is exactly the
//! shard-merge semantics the sweep and campaign engines need. A live
//! progress snapshot therefore exports into a *fresh* registry each
//! boundary (additive-into-empty equals absolute). Exporting never mutates
//! the source structs and draws no randomness — the registry is
//! observational only and cannot perturb simulation determinism.

use heteronoc_obs::{Instrument, Registry};

use crate::fault::{FaultCounters, RecoveryCounters};
use crate::network::Network;
use crate::profile::{ProfileReport, STAGES};
use crate::sched::SchedReport;
use crate::sim::SimOutcome;
use crate::stats::NetStats;

/// Destructures `$s` as `$ty` without `..` and adds each field before the
/// `;` as the counter `{prefix}.{field}`; the fields after it are bound for
/// the caller to export by hand, or bound to `_` with the reason they are
/// not exported. A counter added to `$ty` but not listed fails to compile.
macro_rules! export_counters {
    ($reg:ident, $prefix:ident, $s:expr => $ty:ident {
        $($c:ident),* $(; $($o:ident $(: $skip:tt)?),*)? $(,)?
    }) => {
        let $ty { $($c,)* $($($o $(: $skip)?,)*)? } = $s;
        $($reg.counter_add(&format!("{}.{}", $prefix, stringify!($c)), *$c);)*
    };
}

impl Instrument for SchedReport {
    fn export(&self, reg: &mut Registry, prefix: &str) {
        export_counters!(reg, prefix, self => SchedReport {
            cycles, full_cycles, idle_cycles, jumped_cycles, router_visits,
            router_visits_skipped; wakes, wake_hist
        });
        for (reason, &n) in ["flit_arrive", "link_arrive", "restore"].iter().zip(wakes) {
            reg.counter_add(&format!("{prefix}.wakes.{reason}"), n);
        }
        // Wake-set-size histogram: bucket 0 is size 0; bucket i >= 1 covers
        // sizes [2^(i-1), 2^i - 1]; the top bucket is unbounded. Exported
        // as per-bucket counters (b0..b7) because its buckets are offset by
        // one from the log histogram's.
        for (i, &c) in wake_hist.iter().enumerate() {
            reg.counter_add(&format!("{prefix}.wake_hist.b{i}"), c);
        }
    }
}

impl Instrument for FaultCounters {
    fn export(&self, reg: &mut Registry, prefix: &str) {
        export_counters!(reg, prefix, self => FaultCounters {
            flits_corrupted, retransmissions, retries, timeouts,
            flits_lost_dead_router, packets_dropped, links_dead, routers_dead,
        });
    }
}

impl Instrument for RecoveryCounters {
    fn export(&self, reg: &mut Registry, prefix: &str) {
        export_counters!(reg, prefix, self => RecoveryCounters {
            acks, reinjections, reinjected_flits, duplicates_suppressed,
            recovered, lost, retention_stalls; retention_peak
        });
        // High-water mark, not a monotone count: gauge (merge keeps max).
        reg.set_gauge(&format!("{prefix}.retention_peak"), *retention_peak as f64);
    }
}

impl Instrument for ProfileReport {
    fn export(&self, reg: &mut Registry, prefix: &str) {
        export_counters!(reg, prefix, self => ProfileReport { steps; stage_nanos, sched });
        // `stage_nanos` is indexed like `STAGES`.
        for (stage, &n) in STAGES.iter().zip(stage_nanos) {
            reg.counter_add(&format!("{prefix}.stage_nanos.{}", stage.label()), n);
        }
        sched.export(reg, &format!("{prefix}.sched"));
    }
}

impl Instrument for NetStats {
    fn export(&self, reg: &mut Registry, prefix: &str) {
        export_counters!(reg, prefix, self => NetStats {
            cycles, packets_offered, packets_retired, flits_retired;
            latency_dist,
            // The histograms carry the counts and exact sums these hold.
            latency: _,
            // Per-class, per-router, per-link and per-packet detail stays
            // in the results files; the registry carries network totals.
            latency_by_class: _, dist_by_class: _, buffer_occ_integral: _,
            vc_busy_integral: _, vc_counts: _, buffer_slots: _, links: _,
            routers: _, records: _
        });
        for (name, h) in [
            ("total", &latency_dist.total),
            ("queuing", &latency_dist.queuing),
            ("blocking", &latency_dist.blocking),
            ("transfer", &latency_dist.transfer),
        ] {
            reg.merge_hist(&format!("{prefix}.latency.{name}"), h);
        }
    }
}

impl Instrument for SimOutcome {
    fn export(&self, reg: &mut Registry, prefix: &str) {
        export_counters!(reg, prefix, self => SimOutcome {
            dropped; stats, saturated, cycles, fault_counters, profile, sched,
            // A run parameter, not a measurement.
            frequency_ghz: _,
            // A time series; results files embed it (`epochs_to_json`).
            epochs: _
        });
        stats.export(reg, prefix);
        sched.export(reg, &format!("{prefix}.sched"));
        fault_counters.export(reg, &format!("{prefix}.fault"));
        if let Some(p) = profile {
            p.export(reg, &format!("{prefix}.profile"));
        }
        reg.counter_add(&format!("{prefix}.sim_cycles"), *cycles);
        if *saturated {
            reg.counter_add(&format!("{prefix}.saturated"), 1);
        }
    }
}

impl Network {
    /// Exports the live engine's whole telemetry tree into `reg` under
    /// `noc.*`: current cycle, in-flight work, scheduler, fault,
    /// recovery and measurement-statistics counters. Read-only and
    /// side-effect-free; call with a fresh registry per snapshot for
    /// absolute readings.
    pub fn export_telemetry(&self, reg: &mut Registry) {
        reg.set_counter("noc.cycle", self.now());
        reg.set_gauge("noc.in_flight", self.in_flight() as f64);
        reg.set_gauge("noc.recovery.pending", self.recovery_pending() as f64);
        self.sched_report().export(reg, "noc.sched");
        self.fault_counters().export(reg, "noc.fault");
        self.recovery_counters().export(reg, "noc.recovery");
        self.stats().export(reg, "noc.stats");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;

    #[test]
    fn latency_export_carries_exact_sums() {
        use crate::sim::{SimParams, SimRun};
        use crate::types::Rate;

        let net = Network::new(NetworkConfig::paper_baseline()).unwrap();
        let params = SimParams {
            injection_rate: Rate::new(0.02),
            warmup_packets: 50,
            measure_packets: 300,
            ..SimParams::default()
        };
        let out = SimRun::new(net, params).run().unwrap();
        let mut reg = Registry::new();
        out.export(&mut reg, "noc.stats");
        let total = reg.hist("noc.stats.latency.total").unwrap();
        assert_eq!(total.count(), out.stats.latency.count);
        assert_eq!(total.sum(), out.stats.latency.total);
        for (name, sum) in [
            ("queuing", out.stats.latency.queuing),
            ("blocking", out.stats.latency.blocking),
            ("transfer", out.stats.latency.transfer),
        ] {
            let h = reg.hist(&format!("noc.stats.latency.{name}")).unwrap();
            assert_eq!(h.sum(), sum, "{name}");
        }
    }

    #[test]
    fn sched_report_exports_every_field() {
        let mut rep = SchedReport {
            cycles: 100,
            full_cycles: 60,
            idle_cycles: 30,
            jumped_cycles: 10,
            wakes: [5, 2, 1],
            ..SchedReport::default()
        };
        rep.wake_hist[0] = 40;
        let mut reg = Registry::new();
        rep.export(&mut reg, "sched");
        assert_eq!(reg.counter("sched.cycles"), 100);
        assert_eq!(reg.counter("sched.wakes.flit_arrive"), 5);
        assert_eq!(reg.counter("sched.wake_hist.b0"), 40);
        // Additivity: a second export doubles everything.
        rep.export(&mut reg, "sched");
        assert_eq!(reg.counter("sched.cycles"), 200);
    }

    #[test]
    fn network_export_builds_noc_tree() {
        let net = Network::new(NetworkConfig::paper_baseline()).unwrap();
        let mut reg = Registry::new();
        net.export_telemetry(&mut reg);
        assert_eq!(reg.counter("noc.cycle"), 0);
        assert_eq!(reg.gauge("noc.in_flight"), Some(0.0));
        assert!(reg.get("noc.sched.cycles").is_some());
        assert!(reg.get("noc.fault.retransmissions").is_some());
        assert!(reg.get("noc.stats.latency.total").is_some());
    }
}
