//! Epoch time-series metrics.
//!
//! The cumulative [`crate::stats::NetStats`] counters only advance inside
//! the measurement window and collapse a whole run into end-of-run
//! aggregates. The paper's argument, however, is about *where and when*
//! contention lives (center-vs-edge utilization, Figs. 1–2), so the
//! [`EpochRecorder`] — installed via
//! [`crate::network::Network::enable_epochs`] or
//! [`crate::sim::SimRun::epochs`] — samples the live network every N cycles
//! from cycle 0, warmup included:
//!
//! * per-router mean buffer occupancy and VC-busy fraction over the epoch,
//! * per-link utilization (flits launched / lane-cycles),
//! * packets injected / ejected in the epoch (rates),
//! * latency percentiles (p50/p95/p99 of total/queuing/blocking/transfer)
//!   over the packets *retired* in the epoch.
//!
//! Like tracing and fault injection the recorder sits behind an `Option` on
//! the network: when absent the per-cycle cost is one `is_some()` branch.

use serde::{Deserialize, Serialize};

use crate::checkpoint::persist;
use crate::stats::{LatencyDist, LatencyPctls, PacketRecord};
use crate::types::Cycle;

/// One closed epoch's worth of samples.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EpochSample {
    /// First cycle of the epoch (inclusive).
    pub start: Cycle,
    /// One past the last cycle of the epoch.
    pub end: Cycle,
    /// Packets that entered the network in this epoch.
    pub injected: u64,
    /// Packets fully delivered in this epoch.
    pub ejected: u64,
    /// Per-router mean buffer occupancy over the epoch, as a fraction of
    /// the router's total buffer slots (0.0–1.0).
    pub buffer_occ: Vec<f64>,
    /// Per-router mean busy-VC fraction over the epoch (0.0–1.0).
    pub vc_busy: Vec<f64>,
    /// Per-link utilization over the epoch: flits launched divided by
    /// lane-cycles (0.0–1.0; a dual-lane link can absorb two flits/cycle).
    pub link_util: Vec<f64>,
    /// Latency percentiles of the packets retired in this epoch
    /// (all-zero when `ejected == 0`).
    pub latency: LatencyPctls,
}

impl EpochSample {
    /// Cycles covered by the epoch.
    pub fn cycles(&self) -> Cycle {
        self.end - self.start
    }

    /// Mean buffer occupancy across all routers (0.0–1.0).
    pub fn mean_buffer_occ(&self) -> f64 {
        mean(&self.buffer_occ)
    }

    /// Mean link utilization across all links (0.0–1.0).
    pub fn mean_link_util(&self) -> f64 {
        mean(&self.link_util)
    }

    /// Highest per-link utilization (the hottest channel).
    pub fn max_link_util(&self) -> f64 {
        self.link_util.iter().copied().fold(0.0, f64::max)
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Accumulates per-epoch counters and closes them into [`EpochSample`]s.
///
/// Owned by the network; its counters advance independently of the
/// measurement window so the time-series covers warmup and drain too.
#[derive(Clone, Debug)]
pub struct EpochRecorder {
    every: Cycle,
    epoch_start: Cycle,
    router_cap: Vec<u64>,
    router_vcs: Vec<u64>,
    link_lanes: Vec<u64>,
    occ_integral: Vec<u64>,
    busy_integral: Vec<u64>,
    link_flits: Vec<u64>,
    injected: u64,
    ejected: u64,
    dist: LatencyDist,
    samples: Vec<EpochSample>,
}

impl EpochRecorder {
    /// A recorder sampling every `every` cycles over routers with the given
    /// buffer capacities / VC counts and links with the given lane counts.
    ///
    /// # Panics
    /// Panics if `every` is zero.
    pub fn new(
        every: Cycle,
        router_cap: Vec<u64>,
        router_vcs: Vec<u64>,
        link_lanes: Vec<u64>,
    ) -> Self {
        assert!(every > 0, "epoch length must be non-zero");
        let nr = router_cap.len();
        let nl = link_lanes.len();
        Self {
            every,
            epoch_start: 0,
            router_cap,
            router_vcs,
            link_lanes,
            occ_integral: vec![0; nr],
            busy_integral: vec![0; nr],
            link_flits: vec![0; nl],
            injected: 0,
            ejected: 0,
            dist: LatencyDist::default(),
            samples: Vec::new(),
        }
    }

    /// Epoch length in cycles.
    pub fn every(&self) -> Cycle {
        self.every
    }

    /// A packet entered the network.
    #[inline]
    pub fn note_inject(&mut self) {
        self.injected += 1;
    }

    /// A flit was launched onto `link`.
    #[inline]
    pub fn note_link_flit(&mut self, link: usize) {
        self.link_flits[link] += 1;
    }

    /// A packet was fully delivered; `rec` carries its latency split.
    #[inline]
    pub fn note_retired(&mut self, rec: &PacketRecord) {
        self.ejected += 1;
        self.dist.add(rec);
    }

    /// Adds one cycle's occupancy/busy-VC readings for router `r`.
    #[inline]
    pub fn accumulate_router(&mut self, r: usize, occupancy: u64, busy_vcs: u64) {
        self.occ_integral[r] += occupancy;
        self.busy_integral[r] += busy_vcs;
    }

    /// Closes the epoch if `now` (the cycle just simulated) is its last.
    #[inline]
    pub fn maybe_close(&mut self, now: Cycle) {
        if now + 1 - self.epoch_start >= self.every {
            self.close(now + 1);
        }
    }

    /// Closes whatever partial epoch is open (end of run). No-op when the
    /// current epoch has seen zero cycles.
    pub fn finish(&mut self, now: Cycle) {
        if now > self.epoch_start {
            self.close(now);
        }
    }

    fn close(&mut self, end: Cycle) {
        let cycles = end - self.epoch_start;
        let buffer_occ = self
            .occ_integral
            .iter()
            .zip(&self.router_cap)
            .map(|(&sum, &cap)| ratio(sum, cap * cycles))
            .collect();
        let vc_busy = self
            .busy_integral
            .iter()
            .zip(&self.router_vcs)
            .map(|(&sum, &vcs)| ratio(sum, vcs * cycles))
            .collect();
        let link_util = self
            .link_flits
            .iter()
            .zip(&self.link_lanes)
            .map(|(&flits, &lanes)| ratio(flits, lanes * cycles))
            .collect();
        self.samples.push(EpochSample {
            start: self.epoch_start,
            end,
            injected: self.injected,
            ejected: self.ejected,
            buffer_occ,
            vc_busy,
            link_util,
            latency: self.dist.percentiles(),
        });
        self.epoch_start = end;
        self.occ_integral.iter_mut().for_each(|x| *x = 0);
        self.busy_integral.iter_mut().for_each(|x| *x = 0);
        self.link_flits.iter_mut().for_each(|x| *x = 0);
        self.injected = 0;
        self.ejected = 0;
        self.dist = LatencyDist::default();
    }

    /// Consumes the recorder, returning the closed samples.
    pub fn into_samples(self) -> Vec<EpochSample> {
        self.samples
    }

    /// Closed samples so far.
    pub fn samples(&self) -> &[EpochSample] {
        &self.samples
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

persist!(value EpochSample {
    start, end, injected, ejected, buffer_occ, vc_busy, link_util, latency,
});
persist!(shape EpochRecorder {
    epoch_start, occ_integral: fixed, busy_integral: fixed, link_flits: fixed,
    injected, ejected, dist, samples,
} derived {
    // Written ahead of the recorder by the network, which rebuilds it.
    every,
    // Fixed by the configuration.
    router_cap, router_vcs, link_lanes,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn rec2() -> EpochRecorder {
        // Two routers (4 slots / 2 VCs each), two links (1 and 2 lanes).
        EpochRecorder::new(10, vec![4, 4], vec![2, 2], vec![1, 2])
    }

    fn retired(total: Cycle) -> PacketRecord {
        PacketRecord {
            src: crate::types::NodeId(0),
            dst: crate::types::NodeId(1),
            birth: 0,
            inject: 2,
            retire: 2 + total,
            flits: 1,
            ideal: 3,
            class: crate::packet::PacketClass::Data,
        }
    }

    #[test]
    fn epoch_closes_on_boundary_and_resets() {
        let mut r = rec2();
        for now in 0..10 {
            r.accumulate_router(0, 2, 1);
            r.accumulate_router(1, 0, 0);
            r.note_link_flit(0);
            r.maybe_close(now);
        }
        assert_eq!(r.samples().len(), 1);
        let s = &r.samples()[0];
        assert_eq!((s.start, s.end), (0, 10));
        // Router 0 held 2 of 4 slots every cycle.
        assert!((s.buffer_occ[0] - 0.5).abs() < 1e-12);
        assert_eq!(s.buffer_occ[1], 0.0);
        // Link 0 (1 lane) carried one flit per cycle.
        assert!((s.link_util[0] - 1.0).abs() < 1e-12);
        assert_eq!(s.link_util[1], 0.0);

        // Counters reset for the next epoch.
        for now in 10..20 {
            r.maybe_close(now);
        }
        assert_eq!(r.samples().len(), 2);
        assert_eq!(r.samples()[1].buffer_occ[0], 0.0);
        assert_eq!(r.samples()[1].link_util[0], 0.0);
    }

    #[test]
    fn finish_closes_a_partial_epoch() {
        let mut r = rec2();
        for now in 0..7 {
            r.note_link_flit(1);
            r.maybe_close(now);
        }
        r.finish(7);
        assert_eq!(r.samples().len(), 1);
        let s = &r.samples()[0];
        assert_eq!(s.cycles(), 7);
        // 7 flits over 7 cycles on a 2-lane link = 0.5 utilization.
        assert!((s.link_util[1] - 0.5).abs() < 1e-12);
        // finish() again is a no-op.
        let mut r2 = r.clone();
        r2.finish(7);
        assert_eq!(r2.samples().len(), 1);
    }

    #[test]
    fn latency_percentiles_cover_retired_packets() {
        let mut r = rec2();
        for t in [4u64, 4, 4, 40] {
            r.note_retired(&retired(t));
        }
        r.note_inject();
        r.finish(5);
        let s = &r.samples()[0];
        assert_eq!(s.ejected, 4);
        assert_eq!(s.injected, 1);
        assert!(s.latency.total.p50 < s.latency.total.p99);
        // p99 upper bound must cover the 40-cycle outlier.
        assert!(s.latency.total.p99 >= 40);
    }

    #[test]
    fn empty_epoch_has_zero_percentiles() {
        let mut r = rec2();
        r.finish(3);
        assert_eq!(r.samples()[0].latency.total.p99, 0);
        assert_eq!(r.samples()[0].mean_buffer_occ(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_epoch_length_panics() {
        let _ = EpochRecorder::new(0, vec![], vec![], vec![]);
    }
}
