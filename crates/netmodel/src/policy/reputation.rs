//! Reputation- and relationship-based long-term blocking.
//!
//! §4.1–§4.2: operators block scanners based on the *history of the
//! source address space* — Censys, which scans at least 106× more than
//! anyone else from published ranges, is blocked by entire providers
//! (DXTL, EGI, Enzu account for 67 % of its missing HTTP hosts), by 40 %
//! government-owned networks, and by consumer businesses; Brazil is
//! blocked wholesale by American finance/health networks (Mirai fallout);
//! Eastern-European hosters block both Brazil and Japan; Tegna blocks all
//! non-US origins; ABCDE Group drops HTTP from the US, Brazil, and
//! Censys.

use crate::asn::{AsRecord, AsTags, Category};
use crate::geo;
use crate::host::{proto_key, Protocol};
use crate::origin::{OriginId, Reputation};
use crate::rng::Tag;
use crate::world::World;

/// Does `asr` (or the host inside it) block `origin` long-term?
///
/// The AS-level part of the decision (`wall`) and then the per-host
/// part ([`Wall::blocks`]); `SimNet` keeps the first in its path state.
pub fn blocks(
    world: &World,
    origin: OriginId,
    asr: &AsRecord,
    addr: u32,
    proto: Protocol,
    trial: u8,
) -> bool {
    wall(world, origin, asr, proto, trial).blocks(world, origin, asr, addr, proto)
}

/// What `asr` has decided about `origin` (for `proto`, in `trial`) before
/// it looks at an address: which per-address draw, if any, settles
/// [`blocks`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Wall {
    /// Every address is blocked.
    Whole,
    /// DXTL and the like block Censys on all but a 0.01 % sliver of
    /// addresses.
    AllBut,
    /// EGI's ramp: this fraction of addresses is blocked.
    Ramp(f64),
    /// Eastern-European hosters block Brazil and Japan on most /24s.
    Slash24s,
    /// ABCDE Group drops HTTP from one fixed 70 % of its hosts.
    Abcde,
    /// The AS filters this fraction of its hosts; the rest face the
    /// per-host channel.
    Hosts(f64),
    /// Only the sparse per-host channel.
    Open,
}

/// The AS-level part of [`blocks`]: every draw keyed by the AS (or by
/// nothing finer), none keyed by an address.
pub(crate) fn wall(
    world: &World,
    origin: OriginId,
    asr: &AsRecord,
    proto: Protocol,
    trial: u8,
) -> Wall {
    let det = world.det();
    let spec = origin.spec();
    let rep = spec.reputation;
    let rep_key = origin.reputation_key();
    let a = u64::from(asr.index);

    // --- Named-AS behaviours ------------------------------------------
    if asr.tags.has(AsTags::BLOCKS_CENSYS) && rep == Reputation::Continuous {
        // >99.99 % of hosts inaccessible in every trial.
        return Wall::AllBut;
    }
    if asr.tags.has(AsTags::CENSYS_RAMP) && rep == Reputation::Continuous {
        // EGI: 90 % blocked in trial 1, completely blocked by trial 3.
        return match trial {
            0 => Wall::Ramp(0.90),
            1 => Wall::Ramp(0.97),
            _ => Wall::Whole,
        };
    }
    if asr.tags.has(AsTags::BLOCKS_BR_JP) && (spec.country == geo::BR || spec.country == geo::JP) {
        // Per-/24 blocking of both origins (the shared-miss pattern §4.2).
        return Wall::Slash24s;
    }
    if asr.tags.has(AsTags::BR_ONLY) && spec.country != geo::BR {
        return Wall::Whole;
    }
    if asr.tags.has(AsTags::BLOCKS_NON_US) && spec.country != geo::US {
        return Wall::Whole;
    }
    if asr.tags.has(AsTags::ABCDE_BLOCK)
        && proto == Protocol::Http
        && matches!(
            origin,
            OriginId::Us1 | OriginId::Us64 | OriginId::Censys | OriginId::Brazil
        )
    {
        return Wall::Abcde;
    }

    // --- Category-driven blocking of Brazil (and other non-US) ---------
    if matches!(asr.category, Category::Finance | Category::Health) && asr.country == geo::US {
        if spec.country == geo::BR && det.bernoulli(Tag::Block, &[5, a], 0.35) {
            return Wall::Whole;
        }
        // A few of these block every non-US origin.
        if spec.country != geo::US && det.bernoulli(Tag::Block, &[6, a], 0.05) {
            return Wall::Whole;
        }
    }

    // --- Generic reputation blocking ------------------------------------
    // These stochastic channels model the long tail of operators whose
    // policies the paper could not individually identify; the named ASes'
    // blocking behaviour is fully specified by their tags above, so the
    // generic AS-level channels apply to generated ASes only.
    if asr.generated {
        // Whole-AS blocks. Large networks essentially never drop a whole
        // scanner at the border (the paper's wholesale blockers are small
        // government/consumer/finance networks), so the probability is
        // damped by AS size.
        let damp = 8.0 / (8.0 + f64::from(asr.n_slash24));
        let whole_as_p = whole_as_block_p(rep, asr.category) * damp;
        if whole_as_p > 0.0 && det.bernoulli(Tag::Block, &[7, a, rep_key], whole_as_p) {
            return Wall::Whole;
        }
        // Host-level blocks: the AS decides (per reputation) to filter a
        // fraction of its hosts — edge-host firewalls, not a border ACL.
        let (as_p, frac_lo, frac_hi) = host_level_block_params(rep);
        if as_p > 0.0 && det.bernoulli(Tag::Block, &[8, a, rep_key], as_p) {
            return Wall::Hosts(det.range(Tag::Block, &[9, a, rep_key], frac_lo, frac_hi));
        }
    }
    Wall::Open
}

impl Wall {
    /// Does this wall of `asr` block `addr`? The per-address part of
    /// [`blocks`].
    pub fn blocks(
        self,
        world: &World,
        origin: OriginId,
        asr: &AsRecord,
        addr: u32,
        proto: Protocol,
    ) -> bool {
        let det = world.det();
        let (a, host) = (u64::from(asr.index), u64::from(addr));
        let rep_key = origin.reputation_key();
        match self {
            Wall::Whole => true,
            Wall::AllBut => !det.bernoulli(Tag::Block, &[1, a, host], 0.0001),
            Wall::Ramp(frac) => det.bernoulli(Tag::Block, &[2, a, host], frac),
            Wall::Slash24s => det.bernoulli(Tag::Block, &[3, a, u64::from(addr / 256)], 0.85),
            // The same fixed subset of hosts (~56 K in the paper) is
            // blocked for all four origins: keyed by address only.
            Wall::Abcde => det.bernoulli(Tag::Block, &[4, host], 0.70),
            Wall::Hosts(frac) if det.bernoulli(Tag::Block, &[10, host, rep_key], frac) => true,
            // Sparse fully-independent per-host blocking (individual edge
            // hosts with their own blocklists).
            Wall::Hosts(_) | Wall::Open => det.bernoulli(
                Tag::Block,
                &[11, host, rep_key, proto_key(proto)],
                per_host_block_p(origin.spec().reputation),
            ),
        }
    }
}

/// Probability an AS of `category` blocks an origin of reputation `rep`
/// at its border, wholesale.
fn whole_as_block_p(rep: Reputation, category: Category) -> f64 {
    match rep {
        Reputation::Continuous => match category {
            // §4.2: 40 % of networks blocking (only) Censys are
            // government-owned, 22 % consumer businesses.
            Category::Government => 0.12,
            Category::Consumer => 0.05,
            Category::Media => 0.04,
            Category::Finance | Category::Health => 0.03,
            Category::Hosting => 0.02,
            Category::Education => 0.015,
            Category::Isp => 0.008,
            Category::Telecom => 0.008,
            Category::Cloud => 0.005,
            Category::Cdn => 0.002,
        },
        Reputation::PriorScans => 0.0025,
        Reputation::ScanningSubnet => 0.002,
        Reputation::Fresh => 0.0015,
    }
}

/// `(P(AS filters some hosts), min fraction, max fraction)` per reputation.
fn host_level_block_params(rep: Reputation) -> (f64, f64, f64) {
    match rep {
        Reputation::Continuous => (0.06, 0.05, 0.30),
        Reputation::PriorScans => (0.030, 0.01, 0.10),
        Reputation::ScanningSubnet => (0.025, 0.01, 0.08),
        Reputation::Fresh => (0.020, 0.01, 0.08),
    }
}

/// Baseline probability an individual host blocks this reputation.
fn per_host_block_p(rep: Reputation) -> f64 {
    match rep {
        Reputation::Continuous => 0.004,
        Reputation::PriorScans => 0.0018,
        Reputation::ScanningSubnet => 0.0015,
        Reputation::Fresh => 0.0012,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn world() -> World {
        WorldConfig::small(21).build()
    }

    fn block_rate(world: &World, origin: OriginId, name: &str, proto: Protocol, trial: u8) -> f64 {
        let asr = world.as_by_name(name).unwrap();
        let lo = asr.first_slash24 * 256;
        let hi = lo + asr.n_slash24 * 256;
        let n = (hi - lo) as f64;
        let blocked = (lo..hi)
            .filter(|&addr| blocks(world, origin, asr, addr, proto, trial))
            .count();
        blocked as f64 / n
    }

    #[test]
    fn dxtl_blocks_censys_not_others() {
        let w = world();
        assert!(
            block_rate(
                &w,
                OriginId::Censys,
                "DXTL Tseung Kwan O Service",
                Protocol::Http,
                0
            ) > 0.999
        );
        assert!(
            block_rate(
                &w,
                OriginId::Us1,
                "DXTL Tseung Kwan O Service",
                Protocol::Http,
                0
            ) < 0.05
        );
    }

    #[test]
    fn egi_ramps_to_full_block() {
        let w = world();
        let t0 = block_rate(&w, OriginId::Censys, "EGI Hosting", Protocol::Http, 0);
        let t2 = block_rate(&w, OriginId::Censys, "EGI Hosting", Protocol::Http, 2);
        assert!((t0 - 0.90).abs() < 0.04, "trial-1 rate {t0}");
        assert_eq!(t2, 1.0);
    }

    #[test]
    fn censys_fresh_ranges_reset_blocking() {
        let w = world();
        assert!(
            block_rate(
                &w,
                OriginId::CensysFresh,
                "DXTL Tseung Kwan O Service",
                Protocol::Http,
                0
            ) < 0.05
        );
    }

    #[test]
    fn eastern_europe_blocks_br_and_jp_same_s24s() {
        let w = world();
        let asr = w.as_by_name("SantaPlus").unwrap();
        let lo = asr.first_slash24 * 256;
        let hi = lo + asr.n_slash24 * 256;
        let br: Vec<bool> = (lo..hi)
            .map(|a| blocks(&w, OriginId::Brazil, asr, a, Protocol::Http, 0))
            .collect();
        let jp: Vec<bool> = (lo..hi)
            .map(|a| blocks(&w, OriginId::Japan, asr, a, Protocol::Http, 0))
            .collect();
        let au: Vec<bool> = (lo..hi)
            .map(|a| blocks(&w, OriginId::Australia, asr, a, Protocol::Http, 0))
            .collect();
        // BR and JP miss the same /24s (near-identical vectors modulo the
        // tiny generic per-host channel); AU sees almost everything.
        let br_blocked = br.iter().filter(|&&b| b).count();
        let jp_same = br.iter().zip(&jp).filter(|(a, b)| a == b).count();
        assert!(br_blocked as f64 / br.len() as f64 > 0.7);
        assert!(jp_same as f64 / br.len() as f64 > 0.98);
        assert!(au.iter().filter(|&&b| b).count() < br_blocked / 10);
    }

    #[test]
    fn tegna_blocks_all_non_us() {
        let w = world();
        // US origins pass, non-US are blocked.
        assert!(block_rate(&w, OriginId::Us1, "Tegna Inc", Protocol::Http, 0) < 0.05);
        for o in [
            OriginId::Australia,
            OriginId::Brazil,
            OriginId::Germany,
            OriginId::Japan,
        ] {
            assert!(
                block_rate(&w, o, "Tegna Inc", Protocol::Http, 0) > 0.99,
                "{o}"
            );
        }
    }

    #[test]
    fn abcde_blocks_same_hosts_for_us_br_cen_http_only() {
        let w = world();
        let asr = w.as_by_name("ABCDE Group Company Limited").unwrap();
        let lo = asr.first_slash24 * 256;
        let hi = (lo + asr.n_slash24 * 256).min(lo + 5000);
        let us1: Vec<bool> = (lo..hi)
            .map(|a| blocks(&w, OriginId::Us1, asr, a, Protocol::Http, 0))
            .collect();
        let us64: Vec<bool> = (lo..hi)
            .map(|a| blocks(&w, OriginId::Us64, asr, a, Protocol::Http, 0))
            .collect();
        let cen: Vec<bool> = (lo..hi)
            .map(|a| blocks(&w, OriginId::Censys, asr, a, Protocol::Http, 0))
            .collect();
        assert_eq!(us1, us64);
        // Censys adds its generic blocking on top, so it is a superset.
        assert!(us1.iter().zip(&cen).all(|(u, c)| !*u || *c));
        let frac = us1.iter().filter(|&&b| b).count() as f64 / us1.len() as f64;
        assert!((frac - 0.70).abs() < 0.05, "{frac}");
        // HTTPS unaffected for US1.
        let https_rate = block_rate(
            &w,
            OriginId::Us1,
            "ABCDE Group Company Limited",
            Protocol::Https,
            0,
        );
        assert!(https_rate < 0.02, "{https_rate}");
    }

    #[test]
    fn censys_blocked_far_more_than_academics_overall() {
        let w = world();
        let mut cen = 0u32;
        let mut jp = 0u32;
        let mut total = 0u32;
        for asr in &w.ases {
            let addr = asr.first_slash24 * 256 + 10;
            for k in 0..asr.n_slash24.min(4) {
                let a = addr + k * 256;
                total += 1;
                if blocks(&w, OriginId::Censys, asr, a, Protocol::Http, 1) {
                    cen += 1;
                }
                if blocks(&w, OriginId::Japan, asr, a, Protocol::Http, 1) {
                    jp += 1;
                }
            }
        }
        assert!(total > 1000);
        assert!(cen > jp * 2, "Censys {cen} vs Japan {jp}");
    }

    #[test]
    fn blocking_stable_across_trials() {
        let w = world();
        let asr = w.as_by_name("Comcast").unwrap();
        for addr in (asr.first_slash24 * 256..asr.first_slash24 * 256 + 2000).step_by(17) {
            let t0 = blocks(&w, OriginId::Germany, asr, addr, Protocol::Https, 0);
            let t2 = blocks(&w, OriginId::Germany, asr, addr, Protocol::Https, 2);
            assert_eq!(t0, t2, "long-term blocking must not depend on trial");
        }
    }
}
