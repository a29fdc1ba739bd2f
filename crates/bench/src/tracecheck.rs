//! Structural validation of JSONL flit traces.
//!
//! `heteronoc trace --check <file>` (and the CI `trace-smoke` job) run
//! [`check_jsonl`] over a trace produced by
//! [`heteronoc::noc::trace::JsonlSink`]: every line must parse as a JSON
//! object, name a known event kind, carry that kind's required fields, and
//! the cycle stamps must be nondecreasing (the simulator emits events in
//! cycle order, so a violation means a corrupted or interleaved file).

use heteronoc::noc::trace::EVENT_KINDS;
use heteronoc_obs::json::{parse, Json};

/// Summary of a validated trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Lines (= events) validated.
    pub events: u64,
    /// Events per kind, indexed like
    /// [`heteronoc::noc::trace::EVENT_KINDS`].
    pub per_kind: [u64; EVENT_KINDS.len()],
    /// Cycle stamp of the last event (0 for an empty trace).
    pub last_cycle: u64,
}

impl TraceCheck {
    /// Count for kind `name` (0 for unknown names).
    pub fn count(&self, name: &str) -> u64 {
        EVENT_KINDS
            .iter()
            .position(|k| *k == name)
            .map_or(0, |i| self.per_kind[i])
    }
}

/// Fields (beyond `ev` and `cycle`) each event kind must carry, in
/// [`EVENT_KINDS`] order.
const REQUIRED: [&[&str]; EVENT_KINDS.len()] = [
    &["node", "packet", "flits"],               // inject
    &["router", "port", "vc", "packet", "seq"], // buffer_write
    &["router", "in_port", "in_vc", "out_port", "out_vc", "packet"], // vc_alloc
    &["router", "in_port", "in_vc", "out_port", "packet", "seq"], // sa_grant
    &["router", "port", "vc", "packet", "seq"], // buffer_read
    &["link", "packet", "seq"],                 // link_traverse
    &["node", "packet", "seq", "done"],         // eject
    &["link", "seq"],                           // retransmit
    &["what"],                                  // fault
];

/// Validates a whole JSONL trace; returns per-kind counts on success and a
/// message naming the first offending line on failure.
///
/// # Errors
/// A `String` of the form `line N: <problem>`.
pub fn check_jsonl(text: &str) -> Result<TraceCheck, String> {
    let mut check = TraceCheck::default();
    let mut prev_cycle: u64 = 0;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            return Err(format!("line {lineno}: empty line inside trace"));
        }
        let v = parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let ev = v
            .get("ev")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {lineno}: missing string field \"ev\""))?;
        let kind = EVENT_KINDS
            .iter()
            .position(|k| *k == ev)
            .ok_or_else(|| format!("line {lineno}: unknown event kind {ev:?}"))?;
        let cycle = v
            .get("cycle")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("line {lineno}: missing integer field \"cycle\""))?;
        if cycle < prev_cycle {
            return Err(format!(
                "line {lineno}: cycle went backwards ({cycle} after {prev_cycle})"
            ));
        }
        for field in REQUIRED[kind] {
            if v.get(field).is_none() {
                return Err(format!("line {lineno}: {ev} event missing field {field:?}"));
            }
        }
        prev_cycle = cycle;
        check.events += 1;
        check.per_kind[kind] += 1;
        check.last_cycle = cycle;
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteronoc::noc::trace::jsonl_line;
    use heteronoc::noc::trace::TraceEvent;
    use heteronoc::noc::types::{NodeId, PacketId};

    fn inject(cycle: u64) -> String {
        jsonl_line(&TraceEvent::Inject {
            cycle,
            node: NodeId(3),
            packet: PacketId(7),
            flits: 6,
        })
    }

    #[test]
    fn accepts_real_sink_output() {
        let text = format!("{}\n{}\n", inject(1), inject(5));
        let check = check_jsonl(&text).unwrap();
        assert_eq!(check.events, 2);
        assert_eq!(check.count("inject"), 2);
        assert_eq!(check.last_cycle, 5);
    }

    #[test]
    fn empty_trace_is_valid() {
        assert_eq!(check_jsonl("").unwrap().events, 0);
    }

    #[test]
    fn rejects_unparseable_unknown_and_incomplete_lines() {
        assert!(check_jsonl("not json\n").unwrap_err().contains("line 1"));
        let unknown = "{\"ev\":\"warp\",\"cycle\":1}\n";
        assert!(check_jsonl(unknown)
            .unwrap_err()
            .contains("unknown event kind"));
        let incomplete = "{\"ev\":\"inject\",\"cycle\":1,\"node\":0}\n";
        assert!(check_jsonl(incomplete)
            .unwrap_err()
            .contains("missing field"));
    }

    #[test]
    fn rejects_time_travel() {
        let text = format!("{}\n{}\n", inject(9), inject(2));
        assert!(check_jsonl(&text).unwrap_err().contains("backwards"));
    }
}
