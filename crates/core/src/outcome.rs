//! Compact per-(origin, host, trial) scan outcome.
//!
//! A full experiment holds outcomes for millions of (origin, host, trial)
//! triples, so each one is packed into a single byte.

use originscan_scanner::zgrab::L7Outcome;
use originscan_scanner::CloseKind;
use originscan_scanner::HostScanRecord;

/// How an attempt to reach a ground-truth host failed (if it did).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FailKind {
    /// It didn't — the L7 handshake completed.
    None,
    /// No validated response to any probe (dropped/filtered).
    Silent,
    /// TCP handshake completed, then the peer sent RST.
    ClosedRst,
    /// TCP handshake completed, then the peer sent FIN-ACK.
    ClosedFin,
    /// TCP handshake completed, then the connection timed out.
    L7Timeout,
    /// The peer sent data that was not the expected protocol.
    ProtoErr,
}

/// Bit-packed outcome: bits 0–1 = per-probe SYN-ACK mask, bit 2 = L7
/// success, bits 3–5 = [`FailKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostOutcome(pub u8);

impl HostOutcome {
    /// The outcome recorded when an origin saw nothing at all.
    pub(crate) const MISSED: HostOutcome = HostOutcome(1 << 3); // FailKind::Silent

    /// Build from a scan record.
    pub(crate) fn from_record(r: &HostScanRecord) -> Self {
        let mut bits = r.synack_mask & 0b11;
        let kind = match &r.l7 {
            L7Outcome::Success(_) => {
                bits |= 1 << 2;
                FailKind::None
            }
            L7Outcome::ConnClosed(CloseKind::Rst) => FailKind::ClosedRst,
            L7Outcome::ConnClosed(CloseKind::FinAck) => FailKind::ClosedFin,
            L7Outcome::Timeout => {
                if r.synack_mask == 0 {
                    FailKind::Silent
                } else {
                    FailKind::L7Timeout
                }
            }
            L7Outcome::ProtocolError => FailKind::ProtoErr,
        };
        HostOutcome(bits | (kind as u8) << 3)
    }

    /// Did probe `i` (0 or 1) receive a validated SYN-ACK?
    pub(crate) fn probe_answered(self, i: u8) -> bool {
        self.0 & (1 << i) != 0
    }

    /// Did the application handshake complete?
    pub fn l7_success(self) -> bool {
        self.0 & (1 << 2) != 0
    }

    /// Covered in a simulated *single-probe* scan: the first probe must
    /// have been answered and the handshake completed.
    pub(crate) fn one_probe_success(self) -> bool {
        self.probe_answered(0) && self.l7_success()
    }

    /// Exactly one of the two probes answered (the §5.2 packet-drop
    /// estimator counts these hosts).
    pub(crate) fn exactly_one_probe(self) -> bool {
        (self.0 & 0b11).count_ones() == 1
    }

    /// The failure kind.
    pub(crate) fn fail_kind(self) -> FailKind {
        match (self.0 >> 3) & 0b111 {
            0 => FailKind::None,
            1 => FailKind::Silent,
            2 => FailKind::ClosedRst,
            3 => FailKind::ClosedFin,
            4 => FailKind::L7Timeout,
            _ => FailKind::ProtoErr,
        }
    }

    /// TCP established but the peer explicitly closed (RST or FIN).
    pub(crate) fn explicit_close(self) -> bool {
        matches!(self.fail_kind(), FailKind::ClosedRst | FailKind::ClosedFin)
    }
}

#[cfg(test)]
impl HostOutcome {
    /// Any validated SYN-ACK?
    pub(crate) fn l4_responsive(self) -> bool {
        self.0 & 0b11 != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use originscan_scanner::zgrab::{L7Detail, L7Outcome};

    fn record(mask: u8, l7: L7Outcome) -> HostScanRecord {
        HostScanRecord {
            addr: 1,
            synack_mask: mask,
            got_rst: false,
            response_time_s: 0.0,
            l7,
            l7_attempts: 1,
        }
    }

    #[test]
    fn success_roundtrip() {
        let o = HostOutcome::from_record(&record(
            0b11,
            L7Outcome::Success(L7Detail::Http { code: 200 }),
        ));
        assert!(o.l7_success() && o.l4_responsive() && o.one_probe_success());
        assert_eq!(o.fail_kind(), FailKind::None);
        assert!(!o.exactly_one_probe());
    }

    #[test]
    fn single_probe_response_detected() {
        let o = HostOutcome::from_record(&record(
            0b10,
            L7Outcome::Success(L7Detail::Http { code: 200 }),
        ));
        assert!(o.exactly_one_probe());
        assert!(!o.one_probe_success(), "probe 0 unanswered");
        assert!(o.probe_answered(1) && !o.probe_answered(0));
    }

    #[test]
    fn close_kinds_preserved() {
        let rst = HostOutcome::from_record(&record(0b01, L7Outcome::ConnClosed(CloseKind::Rst)));
        assert_eq!(rst.fail_kind(), FailKind::ClosedRst);
        assert!(rst.explicit_close() && !rst.l7_success());
        let fin = HostOutcome::from_record(&record(0b01, L7Outcome::ConnClosed(CloseKind::FinAck)));
        assert_eq!(fin.fail_kind(), FailKind::ClosedFin);
    }

    #[test]
    fn missed_constant() {
        let m = HostOutcome::MISSED;
        assert!(!m.l4_responsive() && !m.l7_success());
        assert_eq!(m.fail_kind(), FailKind::Silent);
    }

    #[test]
    fn l7_timeout_vs_silent() {
        let t = HostOutcome::from_record(&record(0b01, L7Outcome::Timeout));
        assert_eq!(t.fail_kind(), FailKind::L7Timeout);
        let s = HostOutcome::from_record(&record(0b00, L7Outcome::Timeout));
        assert_eq!(s.fail_kind(), FailKind::Silent);
    }
}
