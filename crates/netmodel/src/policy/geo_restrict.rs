//! Geographic access restrictions.
//!
//! §4.4: some hosts are only reachable from inside their own country —
//! 80 % of Australia-exclusive hosts sit in WebCentral; Bekkoame, NTT and
//! the Japan-registered (but US-geolocated) Gateway Inc. restrict to
//! Japan; a misconfigured slice of an anycast CDN (Cloudflare in the
//! paper) was reachable only from Australia. The restriction applies to a
//! per-AS *fraction* of /24s, drawn stably per /24.

use crate::asn::{AsRecord, AsTags};
use crate::geo;
use crate::origin::OriginId;
use crate::rng::Tag;
use crate::world::World;

/// Is this /24 part of the AS's restricted slice?
///
/// Exactly `ceil(n_slash24 × geo_fraction)` /24s are restricted (at least
/// one whenever the fraction is positive), selected by a seed-derived
/// rotation so the slice is arbitrary but stable.
fn s24_restricted(world: &World, asr: &AsRecord, addr: u32, salt: u64) -> bool {
    if asr.geo_fraction >= 1.0 {
        return true;
    }
    if asr.geo_fraction <= 0.0 {
        return false;
    }
    let n = u64::from(asr.n_slash24);
    let k = ((f64::from(asr.n_slash24) * asr.geo_fraction).ceil() as u64).clamp(1, n);
    let i = u64::from(addr / 256 - asr.first_slash24);
    let rot = world
        .det()
        .below(Tag::Block, &[salt, u64::from(asr.index)], n);
    (i + rot) % n < k
}

/// Does a geographic policy hide `addr` from `origin`?
pub(crate) fn blocks(world: &World, origin: OriginId, asr: &AsRecord, addr: u32) -> bool {
    if asr.tags.has(AsTags::COUNTRY_ONLY)
        && origin.spec().country != asr.country
        && s24_restricted(world, asr, addr, 40)
    {
        return true;
    }
    // The misconfigured anycast slice: reachable only from Australia,
    // regardless of where the /24 geolocates.
    if asr.tags.has(AsTags::ANYCAST_GEO)
        && origin.spec().country != geo::AU
        && s24_restricted(world, asr, addr, 41)
    {
        return true;
    }
    false
}

/// Is `addr` part of the Brazil-only network that serves Brazil a
/// "Blocked Site" page and drops everyone else (WA K-20)? The page itself
/// is produced by the network implementation; this is just the lookup.
pub(crate) fn is_br_only_page_host(asr: &AsRecord) -> bool {
    asr.tags.has(AsTags::BR_ONLY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn world() -> World {
        WorldConfig::small(31).build()
    }

    #[test]
    fn webcentral_is_australia_only() {
        let w = world();
        let asr = w.as_by_name("WebCentral").unwrap();
        let addr = asr.first_slash24 * 256 + 1;
        assert!(!blocks(&w, OriginId::Australia, asr, addr));
        for o in [
            OriginId::Us1,
            OriginId::Japan,
            OriginId::Censys,
            OriginId::Germany,
        ] {
            assert!(blocks(&w, o, asr, addr), "{o} should be blocked");
        }
    }

    #[test]
    fn ntt_restriction_is_partial() {
        let w = world();
        let asr = w.as_by_name("NTT Communications").unwrap();
        let lo = asr.first_slash24 * 256;
        let hi = lo + asr.n_slash24 * 256;
        let blocked = (lo..hi)
            .step_by(256)
            .filter(|&a| blocks(&w, OriginId::Us1, asr, a))
            .count();
        let total = asr.n_slash24 as usize;
        let frac = blocked as f64 / total as f64;
        assert!(frac > 0.0 && frac < 0.15, "NTT restricted fraction {frac}");
        // Japan always passes.
        assert!((lo..hi)
            .step_by(256)
            .all(|a| !blocks(&w, OriginId::Japan, asr, a)));
    }

    #[test]
    fn gateway_restricted_to_japan_despite_us_geolocation() {
        let w = world();
        let asr = w.as_by_name("Gateway Inc").unwrap();
        let addr = asr.first_slash24 * 256 + 99;
        assert!(!blocks(&w, OriginId::Japan, asr, addr));
        assert!(blocks(&w, OriginId::Us1, asr, addr));
        // Most of its space geolocates to the US (the paper's curiosity).
        let us_frac = (asr.first_slash24..asr.first_slash24 + asr.n_slash24)
            .filter(|&s| w.country_of(s * 256) == geo::US)
            .count() as f64
            / asr.n_slash24 as f64;
        assert!(us_frac > 0.5, "{us_frac}");
    }

    #[test]
    fn anycast_slice_reachable_only_from_australia() {
        let w = world();
        let asr = w.as_by_name("Cloudflare").unwrap();
        let lo = asr.first_slash24 * 256;
        let hi = lo + asr.n_slash24 * 256;
        let restricted: Vec<u32> = (lo..hi)
            .step_by(256)
            .filter(|&a| blocks(&w, OriginId::Us1, asr, a))
            .collect();
        assert!(
            !restricted.is_empty(),
            "no misconfigured anycast slice generated"
        );
        let frac = restricted.len() as f64 / asr.n_slash24 as f64;
        assert!(
            frac < 0.05,
            "misconfiguration should be a small slice ({frac})"
        );
        for &a in &restricted {
            assert!(!blocks(&w, OriginId::Australia, asr, a));
        }
    }

    #[test]
    fn unrestricted_ases_never_geo_block() {
        let w = world();
        let asr = w.as_by_name("Amazon").unwrap();
        let addr = asr.first_slash24 * 256 + 5;
        for o in OriginId::MAIN {
            assert!(!blocks(&w, o, asr, addr));
        }
    }
}
