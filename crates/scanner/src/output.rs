//! Scan-result serialization, in the spirit of ZMap's CSV output.
//!
//! Real scanning pipelines persist per-host records and post-process them
//! offline; the paper's analyses are all post-processing over such files.
//! This module renders [`HostScanRecord`]s to a stable CSV schema and
//! parses them back, so scan outputs can be archived, diffed, and fed to
//! external tooling.

use crate::engine::HostScanRecord;
use crate::zgrab::{L7Detail, L7Outcome, SshSoftware};
use crate::CloseKind;
use originscan_store::ScanSet;
use originscan_wire::ipv4::{fmt_addr, parse_addr};

/// The CSV header line.
pub const HEADER: &str = "saddr,synack_probes,rst,time_s,l7_status,l7_detail,attempts";

/// Render one record as a CSV line (no trailing newline).
pub(crate) fn to_csv(r: &HostScanRecord) -> String {
    let (status, detail) = match &r.l7 {
        L7Outcome::Success(L7Detail::Http { code }) => ("success", format!("http:{code}")),
        L7Outcome::Success(L7Detail::Tls { cipher }) => ("success", format!("tls:{cipher:04x}")),
        L7Outcome::Success(L7Detail::Ssh { software }) => (
            "success",
            format!(
                "ssh:{}",
                match software {
                    SshSoftware::OpenSsh => "openssh",
                    SshSoftware::Dropbear => "dropbear",
                    SshSoftware::Other => "other",
                }
            ),
        ),
        L7Outcome::Success(L7Detail::Icmp) => ("success", "icmp:echo".to_string()),
        L7Outcome::Success(L7Detail::Dns { rcode, answers }) => {
            ("success", format!("dns:{rcode}:{answers}"))
        }
        L7Outcome::ConnClosed(CloseKind::Rst) => ("closed-rst", String::new()),
        L7Outcome::ConnClosed(CloseKind::FinAck) => ("closed-fin", String::new()),
        L7Outcome::Timeout => ("timeout", String::new()),
        L7Outcome::ProtocolError => ("protocol-error", String::new()),
    };
    // `{}` on f64 is Rust's shortest round-trip representation, so the
    // timestamp survives parse() exactly.
    format!(
        "{},{},{},{},{},{},{}",
        fmt_addr(r.addr),
        r.synack_mask,
        u8::from(r.got_rst),
        r.response_time_s,
        status,
        detail,
        r.l7_attempts
    )
}

/// Render a whole scan (header + records).
pub fn to_csv_all(records: &[HostScanRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 48 + HEADER.len() + 1);
    out.push_str(HEADER);
    out.push('\n');
    for r in records {
        out.push_str(&to_csv(r));
        out.push('\n');
    }
    out
}

/// Parse one CSV line back into a record.
pub(crate) fn from_csv(line: &str) -> Option<HostScanRecord> {
    let mut f = line.split(',');
    let addr = parse_addr(f.next()?)?;
    let synack_mask: u8 = f.next()?.parse().ok()?;
    let got_rst = match f.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let response_time_s: f64 = f.next()?.parse().ok()?;
    let status = f.next()?;
    let detail = f.next()?;
    let l7_attempts: u8 = f.next()?.parse().ok()?;
    if f.next().is_some() {
        return None;
    }
    let l7 = match status {
        "success" => {
            let (kind, rest) = detail.split_once(':')?;
            match kind {
                "http" => L7Outcome::Success(L7Detail::Http {
                    code: rest.parse().ok()?,
                }),
                "tls" => L7Outcome::Success(L7Detail::Tls {
                    cipher: u16::from_str_radix(rest, 16).ok()?,
                }),
                "ssh" => L7Outcome::Success(L7Detail::Ssh {
                    software: match rest {
                        "openssh" => SshSoftware::OpenSsh,
                        "dropbear" => SshSoftware::Dropbear,
                        _ => SshSoftware::Other,
                    },
                }),
                "icmp" => {
                    if rest != "echo" {
                        return None;
                    }
                    L7Outcome::Success(L7Detail::Icmp)
                }
                "dns" => {
                    let (rcode, answers) = rest.split_once(':')?;
                    L7Outcome::Success(L7Detail::Dns {
                        rcode: rcode.parse().ok()?,
                        answers: answers.parse().ok()?,
                    })
                }
                _ => return None,
            }
        }
        "closed-rst" => L7Outcome::ConnClosed(CloseKind::Rst),
        "closed-fin" => L7Outcome::ConnClosed(CloseKind::FinAck),
        "timeout" => L7Outcome::Timeout,
        "protocol-error" => L7Outcome::ProtocolError,
        _ => return None,
    };
    Some(HostScanRecord {
        addr,
        synack_mask,
        got_rst,
        response_time_s,
        l7,
        l7_attempts,
    })
}

/// Parse a whole CSV document (skipping the header when present).
pub fn from_csv_all(text: &str) -> Vec<HostScanRecord> {
    text.lines()
        .filter(|l| !l.is_empty() && *l != HEADER)
        .filter_map(from_csv)
        .collect()
}

/// The scan's L7-success set as a compressed bitmap — the unit the
/// paper's set analyses consume.
pub fn to_scan_set(records: &[HostScanRecord]) -> ScanSet {
    records
        .iter()
        .filter(|r| r.l7_success())
        .map(|r| r.addr)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<HostScanRecord> {
        vec![
            HostScanRecord {
                addr: 0x0a000001,
                synack_mask: 0b11,
                got_rst: false,
                response_time_s: 12.5,
                l7: L7Outcome::Success(L7Detail::Http { code: 200 }),
                l7_attempts: 1,
            },
            HostScanRecord {
                addr: 0xc0a80101,
                synack_mask: 0b01,
                got_rst: false,
                response_time_s: 99.125,
                l7: L7Outcome::Success(L7Detail::Tls { cipher: 0xc02f }),
                l7_attempts: 1,
            },
            HostScanRecord {
                addr: 0x08080808,
                synack_mask: 0b10,
                got_rst: true,
                response_time_s: 0.0,
                l7: L7Outcome::ConnClosed(CloseKind::FinAck),
                l7_attempts: 3,
            },
            HostScanRecord {
                addr: 1,
                synack_mask: 0,
                got_rst: true,
                response_time_s: 7.0,
                l7: L7Outcome::Timeout,
                l7_attempts: 0,
            },
            HostScanRecord {
                addr: 2,
                synack_mask: 0b11,
                got_rst: false,
                response_time_s: 3.25,
                l7: L7Outcome::Success(L7Detail::Ssh {
                    software: SshSoftware::OpenSsh,
                }),
                l7_attempts: 2,
            },
            HostScanRecord {
                addr: 4,
                synack_mask: 0b01,
                got_rst: false,
                response_time_s: 0.5,
                l7: L7Outcome::Success(L7Detail::Icmp),
                l7_attempts: 0,
            },
            HostScanRecord {
                addr: 5,
                synack_mask: 0b10,
                got_rst: false,
                response_time_s: 0.75,
                l7: L7Outcome::Success(L7Detail::Dns {
                    rcode: 0,
                    answers: 2,
                }),
                l7_attempts: 0,
            },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for r in sample() {
            let line = to_csv(&r);
            let back = from_csv(&line).unwrap_or_else(|| panic!("parse {line}"));
            assert_eq!(back, r, "{line}");
        }
    }

    #[test]
    fn document_roundtrip() {
        let records = sample();
        let doc = to_csv_all(&records);
        assert!(doc.starts_with(HEADER));
        let back = from_csv_all(&doc);
        assert_eq!(back, records);
    }

    #[test]
    fn scan_set_filters_by_l7_success() {
        let mut records = sample();
        // A host only the *second* probe reached still counts for the
        // scan as run.
        records.push(HostScanRecord {
            addr: 3,
            synack_mask: 0b10,
            got_rst: false,
            response_time_s: 1.0,
            l7: L7Outcome::Success(L7Detail::Http { code: 200 }),
            l7_attempts: 1,
        });
        let set = to_scan_set(&records);
        assert_eq!(set.to_vec(), vec![2, 3, 4, 5, 0x0a000001, 0xc0a80101]);
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(from_csv("").is_none());
        assert!(from_csv("1.2.3.4,3,0").is_none());
        assert!(from_csv("nonsense,3,0,1.0,success,http:200,1").is_none());
        assert!(from_csv("1.2.3.4,3,2,1.0,success,http:200,1").is_none());
        assert!(from_csv("1.2.3.4,3,0,1.0,success,ftp:21,1").is_none());
        assert!(from_csv("1.2.3.4,3,0,1.0,success,http:200,1,extra").is_none());
        assert!(from_csv("1.2.3.4,3,0,1.0,success,icmp:ping,0").is_none());
        assert!(from_csv("1.2.3.4,3,0,1.0,success,dns:0,0").is_none());
        assert!(from_csv("1.2.3.4,3,0,1.0,success,dns:0:many,0").is_none());
    }
}
