//! OpenSSH `MaxStartups` probabilistic temporary blocking.
//!
//! §6: `MaxStartups start:rate:full` makes sshd refuse new *unauthenticated*
//! connections probabilistically once `start` are pending, with
//! probability growing to certainty at `full`. A scanner's half-open
//! handshake is exactly such a connection, so a slice of the SSH
//! population refuses handshakes at random — and because the paper's
//! origins scan in lockstep (same ZMap seed), their connections to a host
//! *coincide*, raising the pending count and therefore the refusal
//! probability for everyone. Retrying immediately redraws the coin, which
//! is why Fig 13's retry sweep recovers 90 % of hosts after 8 retries.

use crate::asn::{AsRecord, AsTags};
use crate::host::{ssh_impl, SshImpl};
use crate::origin::OriginId;
use crate::rng::Tag;
use crate::world::World;

/// Cap on the per-attempt refusal probability (a connection always has a
/// fighting chance — `MaxStartups` only reaches certainty at `full`,
/// which simultaneous scanners rarely hit).
pub(crate) const REFUSE_CAP: f64 = 0.90;

/// Per-extra-concurrent-origin multiplier on the refusal probability.
pub(crate) const CONCURRENCY_FACTOR: f64 = 0.08;

/// Is this host's sshd configured restrictively enough to matter?
///
/// Only OpenSSH honours `MaxStartups`; EGI Hosting and Psychz Networks
/// (tagged `MAXSTARTUPS_HEAVY`) are the §6 retry experiment's flagship
/// networks and carry a much higher sensitive share.
pub(crate) fn sensitive(world: &World, asr: &AsRecord, addr: u32) -> bool {
    if !matches!(ssh_impl(world.det(), addr), SshImpl::OpenSsh(_)) {
        return false;
    }
    let p = if asr.tags.has(AsTags::MAXSTARTUPS_HEAVY) {
        0.55
    } else {
        0.13
    };
    world
        .det()
        .bernoulli(Tag::MaxStartups, &[1, u64::from(addr)], p)
}

/// The host's base per-connection refusal probability (its effective
/// `rate` parameter), stable across trials.
pub(crate) fn base_refusal(world: &World, addr: u32) -> f64 {
    world
        .det()
        .range(Tag::MaxStartups, &[2, u64::from(addr)], 0.25, 0.78)
}

/// Effective refusal probability given `concurrent` simultaneous
/// scanning origins.
pub(crate) fn effective_refusal(base: f64, concurrent: u8) -> f64 {
    (base * (1.0 + CONCURRENCY_FACTOR * f64::from(concurrent.saturating_sub(1)))).min(REFUSE_CAP)
}

/// Does this particular connection attempt get refused?
pub(crate) fn refuses(
    world: &World,
    origin: OriginId,
    asr: &AsRecord,
    addr: u32,
    trial: u8,
    attempt: u8,
    concurrent: u8,
) -> bool {
    if !sensitive(world, asr, addr) {
        return false;
    }
    let p = effective_refusal(base_refusal(world, addr), concurrent);
    world.det().bernoulli(
        Tag::MaxStartups,
        &[
            3,
            origin.key(),
            u64::from(addr),
            u64::from(trial),
            u64::from(attempt),
        ],
        p,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn world() -> World {
        WorldConfig::small(66).build()
    }

    #[test]
    fn sensitivity_rates() {
        let w = world();
        let heavy = w.as_by_name("Psychz Networks").unwrap();
        let normal = w.as_by_name("Comcast").unwrap();
        let rate = |asr: &crate::asn::AsRecord| {
            let lo = asr.first_slash24 * 256;
            let hi = lo + asr.n_slash24 * 256;
            let n = (hi - lo) as f64;
            (lo..hi).filter(|&a| sensitive(&w, asr, a)).count() as f64 / n
        };
        let rh = rate(heavy);
        let rn = rate(normal);
        // 80% OpenSSH × (0.55 / 0.13) sensitive.
        assert!((rh - 0.44).abs() < 0.05, "heavy {rh}");
        assert!((rn - 0.104).abs() < 0.02, "normal {rn}");
    }

    #[test]
    fn concurrency_raises_refusal() {
        assert!(effective_refusal(0.5, 7) > effective_refusal(0.5, 1));
        assert_eq!(effective_refusal(0.5, 1), 0.5);
        assert_eq!(effective_refusal(0.8, 7), REFUSE_CAP); // capped
    }

    #[test]
    fn retries_eventually_succeed() {
        // For every sensitive host, refusal across attempts is independent,
        // so enough retries get through (the Fig 13 effect).
        let w = world();
        let egi = w.as_by_name("EGI Hosting").unwrap();
        let lo = egi.first_slash24 * 256;
        let hi = lo + egi.n_slash24 * 256;
        let sensitive_hosts: Vec<u32> = (lo..hi)
            .filter(|&a| sensitive(&w, egi, a))
            .take(300)
            .collect();
        assert!(!sensitive_hosts.is_empty());
        let success_within = |retries: u8| {
            sensitive_hosts
                .iter()
                .filter(|&&a| {
                    (0..=retries).any(|att| !refuses(&w, OriginId::Us1, egi, a, 0, att, 1))
                })
                .count() as f64
                / sensitive_hosts.len() as f64
        };
        let s0 = success_within(0);
        let s8 = success_within(8);
        assert!(s8 > s0, "retries must help: {s0} vs {s8}");
        assert!(s8 > 0.85, "8 retries should reach ~90% ({s8})");
    }

    #[test]
    fn insensitive_hosts_never_refuse() {
        let w = world();
        let asr = w.as_by_name("Comcast").unwrap();
        let lo = asr.first_slash24 * 256;
        let addr = (lo..lo + 10_000).find(|&a| !sensitive(&w, asr, a)).unwrap();
        for att in 0..10 {
            assert!(!refuses(&w, OriginId::Japan, asr, addr, 1, att, 7));
        }
    }

    #[test]
    fn refusals_vary_by_origin_and_trial() {
        let w = world();
        let egi = w.as_by_name("EGI Hosting").unwrap();
        let lo = egi.first_slash24 * 256;
        let hosts: Vec<u32> = (lo..lo + 20_000)
            .filter(|&a| sensitive(&w, egi, a))
            .take(200)
            .collect();
        let pattern = |o: OriginId, t: u8| -> Vec<bool> {
            hosts
                .iter()
                .map(|&a| refuses(&w, o, egi, a, t, 0, 7))
                .collect()
        };
        assert_ne!(pattern(OriginId::Us1, 0), pattern(OriginId::Japan, 0));
        assert_ne!(pattern(OriginId::Us1, 0), pattern(OriginId::Us1, 1));
    }

    #[test]
    fn long_term_looking_fraction_plausible() {
        // §6: ~30% of probabilistically blocked IPs appear long-term
        // inaccessible (refused in all three trials by chance).
        let w = world();
        let egi = w.as_by_name("EGI Hosting").unwrap();
        let lo = egi.first_slash24 * 256;
        let hi = lo + egi.n_slash24 * 256;
        let hosts: Vec<u32> = (lo..hi).filter(|&a| sensitive(&w, egi, a)).collect();
        let all_refused = hosts
            .iter()
            .filter(|&&a| (0..3).all(|t| refuses(&w, OriginId::Us1, egi, a, t, 0, 7)))
            .count();
        let frac = all_refused as f64 / hosts.len() as f64;
        assert!(
            (0.15..0.60).contains(&frac),
            "long-term-looking fraction {frac}"
        );
    }
}
