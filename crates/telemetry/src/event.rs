//! Structured events keyed to **simulated time**.
//!
//! An [`Event`] records one notable moment of a scan's life — a
//! checkpoint write, an injected fault, a supervisor retry — tagged with
//! the [`Scope`] that produced it and a per-scope sequence number. The
//! timestamp is always the *simulated* clock of the emitting scan; wall
//! clocks never appear in library telemetry (they are confined to the
//! bench/CLI progress sink, which receives pre-measured durations as
//! plain numbers).

use crate::json::{JsonObj, JsonVal};

/// The (protocol, trial, origin) coordinate every event and metric is
/// keyed by.
///
/// Field order matters: the derived `Ord` sorts by protocol, then trial,
/// then origin, which is the canonical serialization order — two runs
/// with the same configuration serialize their telemetry byte-identically
/// regardless of thread interleaving because streams are re-sorted by
/// this key (and each scope's own stream is single-threaded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Scope {
    /// Protocol display name (`"HTTP"`, `"HTTPS"`, `"SSH"`).
    pub(crate) proto: &'static str,
    /// Trial number (0-based).
    pub(crate) trial: u8,
    /// Opaque origin index assigned by the experiment runner.
    pub(crate) origin: u16,
}

impl Scope {
    /// Build a scope.
    pub fn new(proto: &'static str, trial: u8, origin: u16) -> Self {
        Self {
            proto,
            trial,
            origin,
        }
    }
}

/// What happened. Every variant carries only data that is a pure
/// function of `(seed, origin, trial)` plus the configured fault plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A scan attempt started from the beginning of its permutation.
    ScanStarted {
        /// Supervisor attempt number (0 = first run).
        attempt: u32,
    },
    /// A scan attempt resumed from a checkpoint mid-permutation.
    ScanResumed {
        /// Supervisor attempt number.
        attempt: u32,
        /// Permutation group steps restored from the checkpoint.
        steps: u64,
    },
    /// The engine wrote a periodic resumable checkpoint.
    CheckpointSaved {
        /// Permutation group steps at the checkpoint.
        steps: u64,
        /// Addresses fully probed at the checkpoint.
        addresses_probed: u64,
    },
    /// An injected fault stalled the probe pipeline.
    PipelineStall {
        /// Seconds of simulated delay added to the send clock.
        delay_s: f64,
    },
    /// An injected fault killed the scan process.
    ScanKilled {
        /// Addresses fully probed when the scan died.
        addresses_probed: u64,
    },
    /// The scan ran to completion.
    ScanCompleted {
        /// Addresses probed (after blocklist and sharding).
        addresses_probed: u64,
        /// Simulated scan duration in seconds.
        duration_s: f64,
    },
    /// A supervised attempt ended in failure.
    AttemptFailed {
        /// The attempt number that failed.
        attempt: u32,
        /// Failure class (`"panicked"`, `"killed"`, `"invalid-config"`).
        cause: &'static str,
    },
    /// The supervisor scheduled a retry after simulated backoff.
    RetryBackoff {
        /// The upcoming attempt number.
        attempt: u32,
        /// Simulated seconds of backoff charged before the retry.
        backoff_s: f64,
    },
    /// The origin exhausted its retries and is excluded from ground
    /// truth.
    OriginFailed {
        /// Terminal failure class.
        cause: &'static str,
    },
    /// The origin completed but an injected network fault degraded its
    /// view of the network.
    OriginDegraded {
        /// The degrading fault (`"outage"`, `"reply-tamper"`).
        fault: &'static str,
    },
    /// The origin's uplink entered an injected outage window.
    OutageStarted,
    /// The origin's uplink recovered from an injected outage window.
    OutageEnded,
    /// An injected fault corrupted a reply in flight (the scanner's
    /// stateless validation will reject it).
    ReplyCorrupted {
        /// Destination address whose reply was corrupted.
        addr: u32,
    },
    /// An injected fault delivered a duplicate of the previous probe's
    /// reply in place of this probe's own.
    ReplyDuplicated {
        /// Destination address whose reply was duplicated.
        addr: u32,
    },
    /// A defender agent's rate detector tripped on this origin's probes
    /// into one AS.
    ScanDetected {
        /// Index of the AS whose detector fired.
        as_index: u32,
        /// Escalation level the detector moved to (1-based).
        level: u32,
    },
    /// A defender agent started a block window against this origin.
    BlockStarted {
        /// Index of the blocking AS.
        as_index: u32,
        /// Simulated seconds the block will last.
        block_s: f64,
    },
    /// A defender block window expired (observed at the first probe that
    /// passed through again).
    BlockEnded {
        /// Index of the AS whose block expired.
        as_index: u32,
    },
    /// The greynoise-style reputation store listed the origin: every
    /// defended probe is dropped from now on, across trials.
    OriginListed {
        /// Detections accumulated when the listing triggered.
        detections: u32,
    },
    /// The adaptive controller backed its send rate off one level.
    BackoffEngaged {
        /// Backoff level after the transition (1-based).
        level: u32,
        /// Rate multiplier now applied to the configured rate.
        rate_mult: f64,
    },
    /// The adaptive controller recovered one backoff level after healthy
    /// windows.
    BackoffReleased {
        /// Backoff level after the transition (0 = full rate restored).
        level: u32,
        /// Rate multiplier now applied to the configured rate.
        rate_mult: f64,
    },
    /// The adaptive controller rotated to another source IP.
    SourceRotated {
        /// Index into the configured source-IP pool now active.
        source_idx: u32,
    },
    /// The adaptive controller quarantined a /24 prefix: its remaining
    /// addresses are deferred to the end-of-scan retry pass.
    PrefixDeferred {
        /// The /24 prefix (address >> 8).
        prefix: u32,
        /// Simulated time at which the quarantine lapses.
        release_s: f64,
    },
}

impl EventKind {
    /// Stable snake_case kind name used in the JSONL `kind` field.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ScanStarted { .. } => "scan_started",
            EventKind::ScanResumed { .. } => "scan_resumed",
            EventKind::CheckpointSaved { .. } => "checkpoint_saved",
            EventKind::PipelineStall { .. } => "pipeline_stall",
            EventKind::ScanKilled { .. } => "scan_killed",
            EventKind::ScanCompleted { .. } => "scan_completed",
            EventKind::AttemptFailed { .. } => "attempt_failed",
            EventKind::RetryBackoff { .. } => "retry_backoff",
            EventKind::OriginFailed { .. } => "origin_failed",
            EventKind::OriginDegraded { .. } => "origin_degraded",
            EventKind::OutageStarted => "outage_started",
            EventKind::OutageEnded => "outage_ended",
            EventKind::ReplyCorrupted { .. } => "reply_corrupted",
            EventKind::ReplyDuplicated { .. } => "reply_duplicated",
            EventKind::ScanDetected { .. } => "scan_detected",
            EventKind::BlockStarted { .. } => "block_started",
            EventKind::BlockEnded { .. } => "block_ended",
            EventKind::OriginListed { .. } => "origin_listed",
            EventKind::BackoffEngaged { .. } => "backoff_engaged",
            EventKind::BackoffReleased { .. } => "backoff_released",
            EventKind::SourceRotated { .. } => "source_rotated",
            EventKind::PrefixDeferred { .. } => "prefix_deferred",
        }
    }

    /// The kind-specific payload fields, in serialization order. This is
    /// the single source of truth for both the JSONL writer and the
    /// schema description the golden test pins.
    pub(crate) fn fields(&self) -> Vec<(&'static str, JsonVal)> {
        match *self {
            EventKind::ScanStarted { attempt } => vec![("attempt", JsonVal::U(u64::from(attempt)))],
            EventKind::ScanResumed { attempt, steps } => vec![
                ("attempt", JsonVal::U(u64::from(attempt))),
                ("steps", JsonVal::U(steps)),
            ],
            EventKind::CheckpointSaved {
                steps,
                addresses_probed,
            } => vec![
                ("steps", JsonVal::U(steps)),
                ("addresses_probed", JsonVal::U(addresses_probed)),
            ],
            EventKind::PipelineStall { delay_s } => vec![("delay_s", JsonVal::F(delay_s))],
            EventKind::ScanKilled { addresses_probed } => {
                vec![("addresses_probed", JsonVal::U(addresses_probed))]
            }
            EventKind::ScanCompleted {
                addresses_probed,
                duration_s,
            } => vec![
                ("addresses_probed", JsonVal::U(addresses_probed)),
                ("duration_s", JsonVal::F(duration_s)),
            ],
            EventKind::AttemptFailed { attempt, cause } => vec![
                ("attempt", JsonVal::U(u64::from(attempt))),
                ("cause", JsonVal::S(cause)),
            ],
            EventKind::RetryBackoff { attempt, backoff_s } => vec![
                ("attempt", JsonVal::U(u64::from(attempt))),
                ("backoff_s", JsonVal::F(backoff_s)),
            ],
            EventKind::OriginFailed { cause } => vec![("cause", JsonVal::S(cause))],
            EventKind::OriginDegraded { fault } => vec![("fault", JsonVal::S(fault))],
            EventKind::OutageStarted | EventKind::OutageEnded => vec![],
            EventKind::ReplyCorrupted { addr } => vec![("addr", JsonVal::U(u64::from(addr)))],
            EventKind::ReplyDuplicated { addr } => vec![("addr", JsonVal::U(u64::from(addr)))],
            EventKind::ScanDetected { as_index, level } => vec![
                ("as_index", JsonVal::U(u64::from(as_index))),
                ("level", JsonVal::U(u64::from(level))),
            ],
            EventKind::BlockStarted { as_index, block_s } => vec![
                ("as_index", JsonVal::U(u64::from(as_index))),
                ("block_s", JsonVal::F(block_s)),
            ],
            EventKind::BlockEnded { as_index } => {
                vec![("as_index", JsonVal::U(u64::from(as_index)))]
            }
            EventKind::OriginListed { detections } => {
                vec![("detections", JsonVal::U(u64::from(detections)))]
            }
            EventKind::BackoffEngaged { level, rate_mult } => vec![
                ("level", JsonVal::U(u64::from(level))),
                ("rate_mult", JsonVal::F(rate_mult)),
            ],
            EventKind::BackoffReleased { level, rate_mult } => vec![
                ("level", JsonVal::U(u64::from(level))),
                ("rate_mult", JsonVal::F(rate_mult)),
            ],
            EventKind::SourceRotated { source_idx } => {
                vec![("source_idx", JsonVal::U(u64::from(source_idx)))]
            }
            EventKind::PrefixDeferred { prefix, release_s } => vec![
                ("prefix", JsonVal::U(u64::from(prefix))),
                ("release_s", JsonVal::F(release_s)),
            ],
        }
    }

    /// One representative sample of every variant, in catalogue order.
    /// [`crate::describe_schema`] serializes these to pin the event
    /// taxonomy; [`EventKind::name`]'s exhaustive match forces this list
    /// to be revisited whenever a variant is added.
    pub(crate) fn samples() -> Vec<EventKind> {
        vec![
            EventKind::ScanStarted { attempt: 0 },
            EventKind::ScanResumed {
                attempt: 1,
                steps: 0,
            },
            EventKind::CheckpointSaved {
                steps: 0,
                addresses_probed: 0,
            },
            EventKind::PipelineStall { delay_s: 0.0 },
            EventKind::ScanKilled {
                addresses_probed: 0,
            },
            EventKind::ScanCompleted {
                addresses_probed: 0,
                duration_s: 0.0,
            },
            EventKind::AttemptFailed {
                attempt: 0,
                cause: "panicked",
            },
            EventKind::RetryBackoff {
                attempt: 1,
                backoff_s: 0.0,
            },
            EventKind::OriginFailed { cause: "panicked" },
            EventKind::OriginDegraded { fault: "outage" },
            EventKind::OutageStarted,
            EventKind::OutageEnded,
            EventKind::ReplyCorrupted { addr: 0 },
            EventKind::ReplyDuplicated { addr: 0 },
            EventKind::ScanDetected {
                as_index: 0,
                level: 1,
            },
            EventKind::BlockStarted {
                as_index: 0,
                block_s: 0.0,
            },
            EventKind::BlockEnded { as_index: 0 },
            EventKind::OriginListed { detections: 0 },
            EventKind::BackoffEngaged {
                level: 1,
                rate_mult: 0.5,
            },
            EventKind::BackoffReleased {
                level: 0,
                rate_mult: 1.0,
            },
            EventKind::SourceRotated { source_idx: 0 },
            EventKind::PrefixDeferred {
                prefix: 0,
                release_s: 0.0,
            },
        ]
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Where it happened.
    pub(crate) scope: Scope,
    /// Per-scope emission index (0-based). Within one scope all events
    /// come from a single scan thread, so `seq` totally orders them.
    pub(crate) seq: u32,
    /// Simulated seconds since the start of the scan.
    pub time_s: f64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Serialize as one JSONL line (no trailing newline).
    pub(crate) fn to_json(self) -> String {
        let mut o = JsonObj::new();
        o.field_str("type", "event");
        o.field_str("proto", self.scope.proto);
        o.field_u64("trial", u64::from(self.scope.trial));
        o.field_u64("origin", u64::from(self.scope.origin));
        o.field_u64("seq", u64::from(self.seq));
        o.field_f64("t", self.time_s);
        o.field_str("kind", self.kind.name());
        for (k, v) in self.kind.fields() {
            o.field_val(k, &v);
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_orders_by_proto_trial_origin() {
        let a = Scope::new("HTTP", 0, 5);
        let b = Scope::new("HTTP", 1, 0);
        let c = Scope::new("SSH", 0, 0);
        assert!(a < b && b < c);
    }

    #[test]
    fn event_json_shape() {
        let e = Event {
            scope: Scope::new("HTTP", 1, 3),
            seq: 7,
            time_s: 12.5,
            kind: EventKind::CheckpointSaved {
                steps: 1024,
                addresses_probed: 1000,
            },
        };
        assert_eq!(
            e.to_json(),
            "{\"type\":\"event\",\"proto\":\"HTTP\",\"trial\":1,\"origin\":3,\
             \"seq\":7,\"t\":12.5,\"kind\":\"checkpoint_saved\",\"steps\":1024,\
             \"addresses_probed\":1000}"
        );
    }

    #[test]
    fn every_sample_matches_its_name() {
        let names: Vec<&str> = EventKind::samples().iter().map(|k| k.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate kind in samples");
        assert_eq!(names.len(), 22);
    }
}
