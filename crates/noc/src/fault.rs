//! Fault models for the network engine.
//!
//! A [`FaultPlan`] describes everything that will go wrong in a run, up
//! front and seeded, so campaigns are exactly reproducible:
//!
//! * **Transient faults** — a per-link bit-error rate. Every flit
//!   transmission draws corruption independently with probability
//!   `1 - (1 - ber)^flit_bits`; a corrupted flit is detected by the modeled
//!   CRC at the receiving port, discarded, and nack'd. The sender holds
//!   every unacknowledged flit in a per-link replay buffer and retransmits
//!   (go-back-N) with exponential backoff until [`RetryPolicy::max_attempts`]
//!   is exhausted, at which point the run fails with a typed
//!   [`UnrecoverableFault`].
//! * **Hard faults** — links or routers that die at a given cycle. A dead
//!   link stops granting new virtual channels but lets packets already
//!   wormholing across it drain (drain-then-die), so a kill never corrupts
//!   a packet mid-flight; a dead router additionally kills every incident
//!   link, stops acknowledging arrivals (its neighbours' retries then time
//!   out), and takes its attached nodes off the network.
//!
//! The plan is independent of the simulation RNG: fault draws come from a
//! dedicated RNG seeded by [`FaultPlan::seed`], so enabling a plan with zero
//! fault rates leaves the simulated traffic bit-for-bit identical to a run
//! without any fault layer (pinned by the golden regression tests in
//! `heteronoc-verify`).
//!
//! Plans serialize to a line-oriented text format ([`FaultPlan::to_text`] /
//! [`FaultPlan::from_text`]) for the `heteronoc faults` CLI.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::checkpoint::{persist, persist_enum, CheckpointError, Dec, Enc, Persist};
use crate::error::ConfigError;
use crate::packet::Packet;
use crate::types::{Cycle, LinkId, PacketId, RouterId};

/// Bounded-retry policy for link-level retransmission.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum transmission attempts per flit window before the link is
    /// declared unrecoverable (must be at least 1).
    pub max_attempts: u32,
    /// Base retry timeout in cycles: the sender retries when the oldest
    /// unacknowledged flit has waited this long, doubling the wait after
    /// every failed attempt (exponential backoff). Must cover the 3-cycle
    /// link round trip.
    pub timeout: Cycle,
}

/// Smallest admissible [`RetryPolicy::timeout`]: flit out (+2) + ack back
/// (+1) + one cycle of slack.
pub const MIN_RETRY_TIMEOUT: Cycle = 4;

/// Largest backoff exponent applied to [`RetryPolicy::timeout`]; beyond
/// this the wait saturates instead of doubling further.
const MAX_BACKOFF_SHIFT: u32 = 12;

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            timeout: 32,
        }
    }
}

impl RetryPolicy {
    /// Backoff delay before retry number `attempt` (1-based):
    /// `timeout << (attempt - 1)`, saturating.
    pub fn backoff(&self, attempt: u32) -> Cycle {
        self.timeout << attempt.saturating_sub(1).min(MAX_BACKOFF_SHIFT)
    }
}

/// End-to-end delivery policy: per-source sequence numbers, a bounded
/// retention buffer at the network interface, ejection-side acks, and
/// timeout-driven reinjection with exponential backoff.
///
/// When enabled on a [`FaultPlan`], every injected packet is retained at
/// its source until the destination's ack arrives; packets lost to hard
/// faults (wedged wormholes, unreachable absorption) are reinjected from
/// retention until [`RetryPolicy::max_attempts`] copies have been tried.
/// Duplicates created by the ack race are suppressed at ejection. The
/// layer is strictly additive: with `recovery: None` the engine's
/// behavior is bit-for-bit unchanged.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Reinjection budget and base ack timeout per retained packet. The
    /// timeout should comfortably cover the packet's round trip (delivery
    /// plus the returning ack); it doubles after every reinjection.
    pub retry: RetryPolicy,
    /// Maximum packets a source retains awaiting acks; injection of *new*
    /// packets stalls at a full retention buffer (reinjections bypass the
    /// bound — they re-use their original slot). Must be at least 1.
    pub retention: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            retry: RetryPolicy {
                max_attempts: 8,
                timeout: 1024,
            },
            retention: 16,
        }
    }
}

/// What a hard fault takes down.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum FaultKind {
    /// One topology link (both directions of the physical channel die).
    Link(LinkId),
    /// A whole router: every incident link plus its attached nodes.
    Router(RouterId),
}

/// A permanent failure scheduled at a cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct HardFault {
    /// Cycle at which the component dies.
    pub cycle: Cycle,
    /// The dying component.
    pub kind: FaultKind,
}

/// A complete, seeded description of every fault in a run.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the dedicated fault RNG (independent of the traffic RNG).
    pub seed: u64,
    /// Default per-link bit-error probability (per bit per transmission).
    pub ber: f64,
    /// Per-link overrides of the default bit-error probability.
    pub link_ber: Vec<(LinkId, f64)>,
    /// Scheduled permanent failures.
    pub hard: Vec<HardFault>,
    /// Retransmission policy shared by every link.
    pub retry: RetryPolicy,
    /// End-to-end delivery guarantees (`None` disables the layer and keeps
    /// the engine bit-for-bit identical to a plan without it).
    pub recovery: Option<RecoveryPolicy>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 1,
            ber: 0.0,
            link_ber: Vec::new(),
            hard: Vec::new(),
            retry: RetryPolicy::default(),
            recovery: None,
        }
    }
}

impl FaultPlan {
    /// A plan with the given uniform bit-error rate and no hard faults.
    pub fn transient(ber: f64, seed: u64) -> Self {
        Self {
            seed,
            ber,
            ..Self::default()
        }
    }

    /// True when the plan injects nothing (no bit errors, no hard faults).
    pub fn is_benign(&self) -> bool {
        self.ber == 0.0 && self.link_ber.iter().all(|&(_, p)| p == 0.0) && self.hard.is_empty()
    }

    /// Effective bit-error probability of `link`.
    pub fn ber_of(&self, link: LinkId) -> f64 {
        self.link_ber
            .iter()
            .rev()
            .find(|&&(l, _)| l == link)
            .map_or(self.ber, |&(_, p)| p)
    }

    /// Hard faults sorted by cycle (stable for equal cycles).
    pub fn sorted_hard(&self) -> Vec<HardFault> {
        let mut h = self.hard.clone();
        h.sort_by_key(|f| f.cycle);
        h
    }

    /// Validates the plan against a topology of `links` links and `routers`
    /// routers.
    ///
    /// # Errors
    /// [`ConfigError::BadErrorProbability`] for a rate outside `[0, 1]`,
    /// [`ConfigError::ZeroRetryLimit`] / [`ConfigError::RetryTimeoutTooShort`]
    /// for a degenerate retry policy, and the `Fault*OutOfRange` variants
    /// for ids that do not exist in the topology.
    pub fn validate(&self, links: usize, routers: usize) -> Result<(), ConfigError> {
        for &p in std::iter::once(&self.ber).chain(self.link_ber.iter().map(|(_, p)| p)) {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(ConfigError::BadErrorProbability { p });
            }
        }
        if self.retry.max_attempts == 0 {
            return Err(ConfigError::ZeroRetryLimit);
        }
        if self.retry.timeout < MIN_RETRY_TIMEOUT {
            return Err(ConfigError::RetryTimeoutTooShort {
                timeout: self.retry.timeout,
                min: MIN_RETRY_TIMEOUT,
            });
        }
        if let Some(rec) = &self.recovery {
            if rec.retry.max_attempts == 0 {
                return Err(ConfigError::ZeroRetryLimit);
            }
            if rec.retry.timeout < MIN_RETRY_TIMEOUT {
                return Err(ConfigError::RetryTimeoutTooShort {
                    timeout: rec.retry.timeout,
                    min: MIN_RETRY_TIMEOUT,
                });
            }
            if rec.retention == 0 {
                return Err(ConfigError::ZeroRetentionDepth);
            }
        }
        for &(l, _) in &self.link_ber {
            if l.index() >= links {
                return Err(ConfigError::FaultLinkOutOfRange {
                    link: l.index(),
                    links,
                });
            }
        }
        for f in &self.hard {
            match f.kind {
                FaultKind::Link(l) if l.index() >= links => {
                    return Err(ConfigError::FaultLinkOutOfRange {
                        link: l.index(),
                        links,
                    });
                }
                FaultKind::Router(r) if r.index() >= routers => {
                    return Err(ConfigError::FaultRouterOutOfRange {
                        router: r.index(),
                        routers,
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Checks every hard fault fires strictly before `horizon` cycles.
    ///
    /// # Errors
    /// [`ConfigError::FaultBeyondHorizon`] naming the first late fault.
    pub fn validate_horizon(&self, horizon: Cycle) -> Result<(), ConfigError> {
        for f in &self.hard {
            if f.cycle >= horizon {
                return Err(ConfigError::FaultBeyondHorizon {
                    cycle: f.cycle,
                    horizon,
                });
            }
        }
        Ok(())
    }

    /// Serializes the plan to the line-oriented campaign format parsed by
    /// [`FaultPlan::from_text`].
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "seed {}", self.seed);
        let _ = writeln!(s, "ber {:e}", self.ber);
        let _ = writeln!(
            s,
            "retry {} {}",
            self.retry.max_attempts, self.retry.timeout
        );
        if let Some(rec) = &self.recovery {
            let _ = writeln!(
                s,
                "recover {} {} {}",
                rec.retry.max_attempts, rec.retry.timeout, rec.retention
            );
        }
        for &(l, p) in &self.link_ber {
            let _ = writeln!(s, "link-ber {} {:e}", l.index(), p);
        }
        for f in &self.hard {
            match f.kind {
                FaultKind::Link(l) => {
                    let _ = writeln!(s, "kill-link {} {}", l.index(), f.cycle);
                }
                FaultKind::Router(r) => {
                    let _ = writeln!(s, "kill-router {} {}", r.index(), f.cycle);
                }
            }
        }
        s
    }

    /// Parses the campaign text format: one directive per line, `#`
    /// comments and blank lines ignored.
    ///
    /// ```text
    /// seed 42
    /// ber 1e-6
    /// retry 8 32
    /// link-ber 12 1e-4
    /// kill-link 12 5000
    /// kill-router 9 10000
    /// ```
    ///
    /// # Errors
    /// The first malformed line with its 1-based line number.
    pub fn from_text(text: &str) -> Result<Self, ParseFaultPlanError> {
        let mut plan = FaultPlan::default();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let err = |reason: String| ParseFaultPlanError {
                line: lineno,
                reason,
            };
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let directive = it.next().expect("non-empty line has a first token");
            let mut field = |name: &str| {
                it.next()
                    .ok_or_else(|| err(format!("missing {name} after '{directive}'")))
            };
            match directive {
                "seed" => {
                    plan.seed = field("seed")?
                        .parse()
                        .map_err(|_| err("seed is not a u64".into()))?;
                }
                "ber" => {
                    plan.ber = field("probability")?
                        .parse()
                        .map_err(|_| err("ber is not a number".into()))?;
                }
                "retry" => {
                    let attempts = field("max attempts")?
                        .parse()
                        .map_err(|_| err("retry attempts is not a u32".into()))?;
                    let timeout = field("timeout")?
                        .parse()
                        .map_err(|_| err("retry timeout is not a cycle count".into()))?;
                    plan.retry = RetryPolicy {
                        max_attempts: attempts,
                        timeout,
                    };
                }
                "recover" => {
                    let attempts = field("max attempts")?
                        .parse()
                        .map_err(|_| err("recover attempts is not a u32".into()))?;
                    let timeout = field("timeout")?
                        .parse()
                        .map_err(|_| err("recover timeout is not a cycle count".into()))?;
                    let retention = field("retention depth")?
                        .parse()
                        .map_err(|_| err("recover retention is not a count".into()))?;
                    plan.recovery = Some(RecoveryPolicy {
                        retry: RetryPolicy {
                            max_attempts: attempts,
                            timeout,
                        },
                        retention,
                    });
                }
                "link-ber" => {
                    let l: usize = field("link id")?
                        .parse()
                        .map_err(|_| err("link id is not an index".into()))?;
                    let p: f64 = field("probability")?
                        .parse()
                        .map_err(|_| err("link ber is not a number".into()))?;
                    plan.link_ber.push((LinkId(l), p));
                }
                "kill-link" => {
                    let l: usize = field("link id")?
                        .parse()
                        .map_err(|_| err("link id is not an index".into()))?;
                    let cycle: Cycle = field("cycle")?
                        .parse()
                        .map_err(|_| err("cycle is not a u64".into()))?;
                    plan.hard.push(HardFault {
                        cycle,
                        kind: FaultKind::Link(LinkId(l)),
                    });
                }
                "kill-router" => {
                    let r: usize = field("router id")?
                        .parse()
                        .map_err(|_| err("router id is not an index".into()))?;
                    let cycle: Cycle = field("cycle")?
                        .parse()
                        .map_err(|_| err("cycle is not a u64".into()))?;
                    plan.hard.push(HardFault {
                        cycle,
                        kind: FaultKind::Router(RouterId(r)),
                    });
                }
                other => return Err(err(format!("unknown directive '{other}'"))),
            }
            if let Some(extra) = it.next() {
                return Err(err(format!("unexpected trailing field '{extra}'")));
            }
        }
        Ok(plan)
    }
}

/// A malformed fault-plan text line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseFaultPlanError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ParseFaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan line {}: {}", self.line, self.reason)
    }
}

impl Error for ParseFaultPlanError {}

/// Link-level retransmission exhausted its retry budget: the run cannot
/// continue (the flit at the head of the replay buffer can never be
/// delivered).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UnrecoverableFault {
    /// The link whose retries exhausted.
    pub link: LinkId,
    /// Driving router of the link.
    pub src: RouterId,
    /// Receiving router of the link.
    pub dst: RouterId,
    /// Attempts made (equals the policy's `max_attempts`).
    pub attempts: u32,
    /// Cycle the budget ran out.
    pub cycle: Cycle,
    /// Packet owning the undeliverable flit, when known.
    pub packet: Option<PacketId>,
}

impl fmt::Display for UnrecoverableFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "link {} ({} -> {}) exhausted {} transmission attempts at cycle {}",
            self.link, self.src, self.dst, self.attempts, self.cycle
        )?;
        if let Some(p) = self.packet {
            write!(f, " (head of replay buffer belongs to {p})")?;
        }
        Ok(())
    }
}

impl Error for UnrecoverableFault {}

/// Why the engine dropped a packet instead of delivering it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// The source node sits on a dead router and can no longer inject.
    SourceDead,
    /// The destination node sits on a dead router.
    DestinationDead,
    /// No route to the destination exists in the installed (degraded)
    /// routing; the packet was absorbed where it stood.
    Unreachable,
    /// The packet's wormhole wedged in dead equipment (a link whose
    /// receiver stopped acknowledging) and was abandoned after link-level
    /// retries exhausted; end-to-end recovery may reinject it.
    Wedged,
    /// End-to-end reinjection exhausted [`RetryPolicy::max_attempts`]
    /// copies without one being delivered: the loss is permanent.
    RecoveryExhausted,
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DropReason::SourceDead => write!(f, "source router dead"),
            DropReason::DestinationDead => write!(f, "destination router dead"),
            DropReason::Unreachable => write!(f, "destination unreachable"),
            DropReason::Wedged => write!(f, "wormhole wedged in dead equipment"),
            DropReason::RecoveryExhausted => write!(f, "end-to-end reinjection budget exhausted"),
        }
    }
}

/// A packet the engine removed from flight without delivering.
#[derive(Clone, Copy, Debug)]
pub struct DroppedPacket {
    /// The dropped packet.
    pub packet: Packet,
    /// Cycle of the drop.
    pub cycle: Cycle,
    /// Why it was dropped.
    pub reason: DropReason,
    /// True when the packet was still retained at its source (end-to-end
    /// recovery enabled), so a reinjected copy can still deliver it; false
    /// means the loss is permanent.
    pub recoverable: bool,
}

/// Campaign-level fault event counters (counted over the whole run, not
/// gated by the measurement window).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Flit transmissions the CRC rejected at the receiver.
    pub flits_corrupted: u64,
    /// Flit retransmissions (every flit of every go-back-N resend).
    pub retransmissions: u64,
    /// Retry rounds triggered by nacks or timeouts.
    pub retries: u64,
    /// Retries triggered by timeout (no ack/nack progress) rather than nack.
    pub timeouts: u64,
    /// Flits that arrived at a dead router and were lost.
    pub flits_lost_dead_router: u64,
    /// Packets dropped (source dead, destination dead, or unreachable).
    pub packets_dropped: u64,
    /// Links currently dead (hard faults applied so far).
    pub links_dead: u64,
    /// Routers currently dead.
    pub routers_dead: u64,
}

/// End-to-end recovery event counters (whole-run, like [`FaultCounters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Ejection-side acks delivered back to sources.
    pub acks: u64,
    /// Packet copies reinjected from retention after an ack timeout.
    pub reinjections: u64,
    /// Flits carried by those reinjected copies (recovery traffic).
    pub reinjected_flits: u64,
    /// Duplicate ejections suppressed (a retained copy raced its own ack).
    pub duplicates_suppressed: u64,
    /// Packets that needed at least one reinjection and were delivered.
    pub recovered: u64,
    /// Packets permanently lost (dead endpoint or reinjection budget
    /// exhausted) despite recovery being enabled.
    pub lost: u64,
    /// High-water mark of any single source's retention buffer.
    pub retention_peak: u64,
    /// Cycles × nodes where a full retention buffer stalled new injection.
    pub retention_stalls: u64,
}

persist_enum!(DropReason {
    0 => SourceDead, 1 => DestinationDead, 2 => Unreachable, 3 => Wedged, 4 => RecoveryExhausted,
});
persist!(value DroppedPacket { packet, cycle, reason, recoverable });
persist!(value FaultCounters {
    flits_corrupted, retransmissions, retries, timeouts,
    flits_lost_dead_router, packets_dropped, links_dead, routers_dead,
});
persist!(value RecoveryCounters {
    acks, reinjections, reinjected_flits, duplicates_suppressed,
    recovered, lost, retention_peak, retention_stalls,
});
persist!(value UnrecoverableFault { link, src, dst, attempts, cycle, packet });

/// A plan persists as its text form (see [`FaultPlan::to_text`]).
impl Persist for FaultPlan {
    fn save(&self, e: &mut Enc) {
        e.str(&self.to_text());
    }
    fn read(d: &mut Dec) -> Result<Self, CheckpointError> {
        FaultPlan::from_text(&d.str()?).map_err(|_| CheckpointError::Malformed("fault plan"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trip() {
        let plan = FaultPlan {
            seed: 42,
            ber: 1e-6,
            link_ber: vec![(LinkId(12), 1e-4)],
            hard: vec![
                HardFault {
                    cycle: 5_000,
                    kind: FaultKind::Link(LinkId(12)),
                },
                HardFault {
                    cycle: 10_000,
                    kind: FaultKind::Router(RouterId(9)),
                },
            ],
            retry: RetryPolicy {
                max_attempts: 5,
                timeout: 64,
            },
            recovery: Some(RecoveryPolicy {
                retry: RetryPolicy {
                    max_attempts: 3,
                    timeout: 512,
                },
                retention: 8,
            }),
        };
        let text = plan.to_text();
        assert!(text.contains("recover 3 512 8"));
        let back = FaultPlan::from_text(&text).expect("round trip");
        assert_eq!(back, plan);
    }

    #[test]
    fn recovery_absent_round_trips_as_none() {
        let text = FaultPlan::default().to_text();
        assert!(!text.contains("recover"));
        let back = FaultPlan::from_text(&text).unwrap();
        assert_eq!(back.recovery, None);
    }

    #[test]
    fn from_text_skips_comments_and_blanks() {
        let plan = FaultPlan::from_text("# campaign\n\nseed 7\n  \nber 0.5\n").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.ber, 0.5);
    }

    #[test]
    fn from_text_rejects_malformed_lines() {
        for (text, line, needle) in [
            ("seed", 1, "missing seed"),
            ("seed x", 1, "not a u64"),
            ("ber 1e-3\nbogus 1", 2, "unknown directive"),
            ("kill-link 3 5 9", 1, "trailing"),
            ("retry 3", 1, "missing timeout"),
            ("recover 3 512", 1, "missing retention"),
            ("recover x 512 8", 1, "not a u32"),
        ] {
            let e = FaultPlan::from_text(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}");
            assert!(e.reason.contains(needle), "{text:?}: {}", e.reason);
            assert!(e.to_string().contains("fault plan line"));
        }
    }

    #[test]
    fn validate_rejects_bad_probability() {
        for p in [-0.1, 1.5, f64::NAN] {
            let plan = FaultPlan::transient(p, 1);
            assert!(matches!(
                plan.validate(10, 4),
                Err(ConfigError::BadErrorProbability { .. })
            ));
            let mut plan = FaultPlan::default();
            plan.link_ber.push((LinkId(0), p));
            assert!(matches!(
                plan.validate(10, 4),
                Err(ConfigError::BadErrorProbability { .. })
            ));
        }
    }

    #[test]
    fn validate_rejects_zero_retry_limit() {
        let mut plan = FaultPlan::default();
        plan.retry.max_attempts = 0;
        assert_eq!(plan.validate(10, 4), Err(ConfigError::ZeroRetryLimit));
    }

    #[test]
    fn validate_rejects_degenerate_recovery() {
        let recovering = |policy: RecoveryPolicy| FaultPlan {
            recovery: Some(policy),
            ..FaultPlan::default()
        };
        let plan = recovering(RecoveryPolicy {
            retry: RetryPolicy {
                max_attempts: 0,
                timeout: 512,
            },
            retention: 8,
        });
        assert_eq!(plan.validate(10, 4), Err(ConfigError::ZeroRetryLimit));
        let plan = recovering(RecoveryPolicy {
            retry: RetryPolicy {
                max_attempts: 3,
                timeout: MIN_RETRY_TIMEOUT - 1,
            },
            retention: 8,
        });
        assert!(matches!(
            plan.validate(10, 4),
            Err(ConfigError::RetryTimeoutTooShort { .. })
        ));
        let plan = recovering(RecoveryPolicy {
            retry: RetryPolicy::default(),
            retention: 0,
        });
        assert_eq!(plan.validate(10, 4), Err(ConfigError::ZeroRetentionDepth));
        let plan = FaultPlan {
            recovery: Some(RecoveryPolicy::default()),
            ..FaultPlan::default()
        };
        assert!(plan.validate(10, 4).is_ok());
    }

    #[test]
    fn validate_rejects_short_timeout() {
        let mut plan = FaultPlan::default();
        plan.retry.timeout = MIN_RETRY_TIMEOUT - 1;
        assert!(matches!(
            plan.validate(10, 4),
            Err(ConfigError::RetryTimeoutTooShort { .. })
        ));
    }

    #[test]
    fn validate_rejects_out_of_range_ids() {
        let mut plan = FaultPlan::default();
        plan.hard.push(HardFault {
            cycle: 1,
            kind: FaultKind::Link(LinkId(99)),
        });
        assert!(matches!(
            plan.validate(10, 4),
            Err(ConfigError::FaultLinkOutOfRange { link: 99, .. })
        ));
        let mut plan = FaultPlan::default();
        plan.hard.push(HardFault {
            cycle: 1,
            kind: FaultKind::Router(RouterId(4)),
        });
        assert!(matches!(
            plan.validate(10, 4),
            Err(ConfigError::FaultRouterOutOfRange { router: 4, .. })
        ));
        let mut plan = FaultPlan::default();
        plan.link_ber.push((LinkId(10), 0.1));
        assert!(matches!(
            plan.validate(10, 4),
            Err(ConfigError::FaultLinkOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_rejects_fault_beyond_horizon() {
        let mut plan = FaultPlan::default();
        plan.hard.push(HardFault {
            cycle: 1_000,
            kind: FaultKind::Link(LinkId(0)),
        });
        assert!(plan.validate_horizon(2_000).is_ok());
        assert!(matches!(
            plan.validate_horizon(1_000),
            Err(ConfigError::FaultBeyondHorizon {
                cycle: 1_000,
                horizon: 1_000
            })
        ));
    }

    #[test]
    fn backoff_doubles_then_saturates() {
        let p = RetryPolicy {
            max_attempts: 64,
            timeout: 16,
        };
        assert_eq!(p.backoff(1), 16);
        assert_eq!(p.backoff(2), 32);
        assert_eq!(p.backoff(3), 64);
        assert_eq!(p.backoff(13), p.backoff(14), "backoff saturates");
    }

    #[test]
    fn ber_override_wins() {
        let mut plan = FaultPlan::transient(1e-9, 1);
        plan.link_ber.push((LinkId(3), 0.25));
        assert_eq!(plan.ber_of(LinkId(3)), 0.25);
        assert_eq!(plan.ber_of(LinkId(4)), 1e-9);
    }

    #[test]
    fn benign_plan_detection() {
        assert!(FaultPlan::default().is_benign());
        assert!(!FaultPlan::transient(1e-9, 1).is_benign());
        let mut plan = FaultPlan::default();
        plan.hard.push(HardFault {
            cycle: 5,
            kind: FaultKind::Link(LinkId(0)),
        });
        assert!(!plan.is_benign());
    }
}
