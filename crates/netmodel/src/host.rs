//! Per-host attributes, derived deterministically from the world seed.
//!
//! Hosts are never materialized as structs — with tens of millions of
//! simulated addresses that would dominate memory. Instead every host
//! attribute (does it exist, is it alive this trial, what does its server
//! banner say, how is its `MaxStartups` configured) is a pure hash of
//! `(world seed, address, …)` computed on demand and therefore consistent
//! across every code path that asks.

pub use originscan_scanner::target::Protocol;

use crate::rng::{Det, Tag};
use originscan_wire::{decimal_len, put_decimal};

/// Stable numeric key for a protocol.
pub fn proto_key(p: Protocol) -> u64 {
    match p {
        Protocol::Http => 80,
        Protocol::Https => 443,
        Protocol::Ssh => 22,
        Protocol::Icmp => 1,
        Protocol::Dns => 53,
    }
}

/// Churn model: whether the host is online during `trial`.
///
/// §2/§3: trials are spread over eight weeks, so hosts churn; hosts seen
/// in only one trial are classified "unknown". A `stable_fraction` of
/// hosts are up in every trial; the rest are up in any given trial with
/// `alive_prob`.
pub(crate) fn alive_in_trial(
    det: &Det,
    addr: u32,
    proto: Protocol,
    trial: u8,
    stable_fraction: f64,
    alive_prob: f64,
) -> bool {
    let pk = proto_key(proto);
    if det.bernoulli(Tag::Churn, &[u64::from(addr), pk, 0], stable_fraction) {
        return true;
    }
    det.bernoulli(
        Tag::Churn,
        &[u64::from(addr), pk, 1 + u64::from(trial)],
        alive_prob,
    )
}

/// SSH server software for a host (drives the banner and MaxStartups).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SshImpl {
    /// OpenSSH with a version string.
    OpenSsh(u8),
    /// Dropbear.
    Dropbear,
    /// Something else (network gear etc.).
    Other,
}

/// Determine the SSH implementation of a host (~80 % OpenSSH, matching
/// the real Internet's skew that makes the MaxStartups effect global).
pub(crate) fn ssh_impl(det: &Det, addr: u32) -> SshImpl {
    let u = det.uniform(Tag::ServerAttr, &[u64::from(addr), 22, 0]);
    if u < 0.80 {
        // Spread across plausible OpenSSH minor versions.
        let v = det.below(Tag::ServerAttr, &[u64::from(addr), 22, 1], 6) as u8;
        SshImpl::OpenSsh(4 + v) // OpenSSH_7.4 .. 7.9
    } else if u < 0.90 {
        SshImpl::Dropbear
    } else {
        SshImpl::Other
    }
}

/// Render the identification line for a host's SSH server, in one
/// buffer of exactly its length.
pub(crate) fn ssh_banner(imp: SshImpl) -> Vec<u8> {
    const OPENSSH_7: &[u8] = b"SSH-2.0-OpenSSH_7.";
    match imp {
        SshImpl::OpenSsh(minor) => {
            let minor = u64::from(minor);
            let mut line = Vec::with_capacity(OPENSSH_7.len() + decimal_len(minor) + 2);
            line.extend_from_slice(OPENSSH_7);
            put_decimal(&mut line, minor);
            line.extend_from_slice(b"\r\n");
            line
        }
        SshImpl::Dropbear => b"SSH-2.0-dropbear_2019.78\r\n".to_vec(),
        SshImpl::Other => b"SSH-2.0-ROSSSH\r\n".to_vec(),
    }
}

/// HTTP status code a host serves for `GET /` (any code is a completed
/// handshake; the distribution only colors reports).
pub(crate) fn http_status(det: &Det, addr: u32) -> u16 {
    match det.below(Tag::ServerAttr, &[u64::from(addr), 80, 0], 100) {
        0..=59 => 200,
        60..=74 => 301,
        75..=84 => 302,
        85..=91 => 403,
        92..=96 => 404,
        _ => 500,
    }
}

/// TLS cipher suite a host selects (always one the ClientHello offered).
#[expect(clippy::indexing_slicing, reason = "`det.below(n)` draws from `0..n`")]
pub(crate) fn tls_cipher(det: &Det, addr: u32) -> u16 {
    let suites = originscan_wire::CHROME_TLS12_SUITES;
    let i = det.below(
        Tag::ServerAttr,
        &[u64::from(addr), 443, 0],
        suites.len() as u64,
    );
    suites[i as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_hosts_alive_every_trial() {
        let det = Det::new(3);
        let mut stable = 0;
        let n = 20_000u32;
        for addr in 0..n {
            let alive: Vec<bool> = (0..3)
                .map(|t| alive_in_trial(&det, addr, Protocol::Http, t, 0.92, 0.55))
                .collect();
            if alive.iter().all(|&a| a) {
                stable += 1;
            }
        }
        // 92% stable + 0.55^3 ≈ 17% of the rest.
        let frac = f64::from(stable) / f64::from(n);
        assert!((frac - 0.933).abs() < 0.02, "always-alive fraction {frac}");
    }

    #[test]
    fn churn_varies_by_trial_for_unstable_hosts() {
        let det = Det::new(3);
        let flappy = (0..50_000u32).filter(|&a| {
            let alive: Vec<bool> = (0..3)
                .map(|t| alive_in_trial(&det, a, Protocol::Ssh, t, 0.92, 0.55))
                .collect();
            alive.iter().any(|&x| x) && alive.iter().any(|&x| !x)
        });
        let count = flappy.count();
        assert!(count > 1500, "{count} flappy hosts — churn looks broken");
    }

    #[test]
    fn ssh_impl_distribution() {
        let det = Det::new(1);
        let n = 50_000u32;
        let openssh = (0..n)
            .filter(|&a| matches!(ssh_impl(&det, a), SshImpl::OpenSsh(_)))
            .count();
        let frac = openssh as f64 / f64::from(n);
        assert!((frac - 0.8).abs() < 0.01, "OpenSSH fraction {frac}");
    }

    #[test]
    fn banners_parse_with_wire_codec() {
        use originscan_wire::ServerIdent;
        let det = Det::new(9);
        for addr in 0..100u32 {
            let b = ssh_banner(ssh_impl(&det, addr));
            let parsed = ServerIdent::parse(&b).expect("generated banner must parse");
            assert_eq!(parsed.proto_version, "2.0");
        }
    }

    #[test]
    fn banners_equal_the_formatted_banners() {
        for minor in 0..=u8::MAX {
            let banner = ssh_banner(SshImpl::OpenSsh(minor));
            assert_eq!(
                banner,
                format!("SSH-2.0-OpenSSH_7.{minor}\r\n").into_bytes()
            );
            assert_eq!(banner.len(), banner.capacity());
        }
        assert_eq!(
            ssh_banner(SshImpl::Dropbear),
            b"SSH-2.0-dropbear_2019.78\r\n"
        );
        assert_eq!(ssh_banner(SshImpl::Other), b"SSH-2.0-ROSSSH\r\n");
    }

    #[test]
    fn http_status_and_cipher_valid() {
        let det = Det::new(4);
        for addr in 0..500u32 {
            let code = http_status(&det, addr);
            assert!((100..600).contains(&code));
            let cipher = tls_cipher(&det, addr);
            assert!(originscan_wire::CHROME_TLS12_SUITES.contains(&cipher));
        }
    }

    #[test]
    fn attributes_deterministic() {
        let a = Det::new(77);
        let b = Det::new(77);
        for addr in [0u32, 1, 99999] {
            assert_eq!(ssh_impl(&a, addr), ssh_impl(&b, addr));
            assert_eq!(http_status(&a, addr), http_status(&b, addr));
        }
    }
}
