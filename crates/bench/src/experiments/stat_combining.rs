//! §3.3 claim: on the HeteroNoC's wide links, two flits can be combined
//! ~40% of the time at low loads and ~80% at moderate-to-high loads. This
//! experiment measures the dual-transmission rate of busy wide-link cycles on
//! Diagonal+BL under uniform-random traffic across the load range.

use crate::{default_params, Report};
use heteronoc::noc::network::Network;
use heteronoc::noc::sim::SimRun;
use heteronoc::{mesh_config, Layout};

pub fn run() {
    let mut rep = Report::new("stat_combining");
    rep.line("# §3.3 — flit-combining rate on wide links (Diagonal+BL, UR)");
    rep.line(format!(
        "{:<12}{:>22}{:>14}",
        "rate", "combining rate [%]", "saturated"
    ));
    for rate in [0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06] {
        let cfg = mesh_config(&Layout::DiagonalBL);
        let net = Network::new(cfg).expect("valid");
        let wide = net.wide_links().to_vec();
        let out = SimRun::new(net, default_params(rate, 0x5747))
            .run()
            .expect("simulation run");
        rep.line(format!(
            "{:<12.3}{:>21.1}%{:>14}",
            rate,
            100.0 * out.stats.combining_rate(&wide),
            out.saturated
        ));
    }
    rep.line("");
    rep.line("paper: ~40% at low load, ~80% at moderate-to-high load");
}
