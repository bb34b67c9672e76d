//! Rate-triggered intrusion detection systems.
//!
//! §4.3: some networks run IDSes that detect high per-source-IP probe
//! rates and block the source persistently. Ruhr-Universität Bochum's
//! hosts "were accessible from all origins for the first 2 hours of the
//! trial-1 HTTPS scan, but afterwards only US₆₄ had visibility … in all
//! of our later scans" — spreading the scan over 64 source IPs keeps the
//! per-IP rate below the detection threshold. SK Broadband shows the same
//! behaviour for SSH only.

use super::{evades, Detection};
use crate::asn::{AsRecord, AsTags};
use crate::host::{proto_key, Protocol};
use crate::origin::OriginId;
use crate::rng::Tag;
use crate::world::World;

/// Source-IP count at or above which an origin's per-IP rate stays under
/// every modelled IDS threshold.
pub(crate) const EVASION_IPS: u16 = 16;

/// Fraction of *small generated* ASes that run a (all-protocol) rate IDS.
/// Only small networks (≤ MAX_IDS_SLASH24S /24s) run aggressive border
/// IDSes in the model — the paper's examples are a university and a
/// regional ISP's edge, and IDS loss is a sub-percent phenomenon overall.
const GENERATED_IDS_P: f64 = 0.045;

/// Largest generated AS (in /24s) that may run an IDS.
const MAX_IDS_SLASH24S: u32 = 2;

/// Does this AS run an IDS applying to `proto`?
pub(crate) fn has_ids(world: &World, asr: &AsRecord, proto: Protocol) -> bool {
    if asr.tags.has(AsTags::IDS) {
        return true;
    }
    if asr.tags.has(AsTags::IDS_SSH) {
        return proto == Protocol::Ssh;
    }
    // A sprinkle of generated ASes run IDSes too (the long tail behind
    // US₆₄'s exclusive-access advantage in Table 1).
    asr.tags.0 == 0
        && asr.generated
        && asr.n_slash24 <= MAX_IDS_SLASH24S
        && world
            .det()
            .bernoulli(Tag::Ids, &[1, u64::from(asr.index)], GENERATED_IDS_P)
}

/// When (if ever) does this AS's IDS detect `origin` scanning `proto`?
///
/// Detection happens once, early in the *first* trial (a stable
/// per-(AS, origin address space) instant); every later trial remembers
/// it. Origins spreading load over many source IPs are never detected.
pub fn detection(
    world: &World,
    origin: OriginId,
    asr: &AsRecord,
    proto: Protocol,
    trial: u8,
) -> Detection {
    if !has_ids(world, asr, proto) || evades(origin) {
        return Detection::Never;
    }
    if trial > 0 {
        return Detection::Prior;
    }
    // Detection instant as a fraction of the first scan (~2 h of 21 h for
    // the Bochum anecdote; we draw 5–30 %).
    Detection::At(world.det().range(
        Tag::Ids,
        &[
            2,
            u64::from(asr.index),
            origin.reputation_key(),
            proto_key(proto),
        ],
        0.05,
        0.30,
    ))
}

/// Is `origin` blocked by this AS's IDS at scan time `time_s` of `trial`?
pub fn blocked(
    world: &World,
    origin: OriginId,
    asr: &AsRecord,
    proto: Protocol,
    trial: u8,
    time_s: f64,
    duration_s: f64,
) -> bool {
    detection(world, origin, asr, proto, trial).blocked_at(time_s, duration_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    const DUR: f64 = 75_600.0;

    fn world() -> World {
        WorldConfig::tiny(77).build()
    }

    #[test]
    fn bochum_blocks_single_ip_after_detection() {
        let w = world();
        let asr = w.as_by_name("Ruhr-Universitaet Bochum").unwrap();
        // Early in trial 0: open.
        assert!(!blocked(
            &w,
            OriginId::Japan,
            asr,
            Protocol::Https,
            0,
            0.01 * DUR,
            DUR
        ));
        // Late in trial 0: blocked.
        assert!(blocked(
            &w,
            OriginId::Japan,
            asr,
            Protocol::Https,
            0,
            0.9 * DUR,
            DUR
        ));
        // All of trials 1 and 2: blocked.
        assert!(blocked(
            &w,
            OriginId::Japan,
            asr,
            Protocol::Https,
            1,
            0.0,
            DUR
        ));
        assert!(blocked(
            &w,
            OriginId::Japan,
            asr,
            Protocol::Https,
            2,
            0.5 * DUR,
            DUR
        ));
    }

    #[test]
    fn us64_evades() {
        let w = world();
        let asr = w.as_by_name("Ruhr-Universitaet Bochum").unwrap();
        for t in 0..3 {
            assert!(!blocked(
                &w,
                OriginId::Us64,
                asr,
                Protocol::Https,
                t,
                0.99 * DUR,
                DUR
            ));
        }
        // ... while US1 — same reputation, single IP — is blocked.
        assert!(blocked(
            &w,
            OriginId::Us1,
            asr,
            Protocol::Https,
            1,
            0.0,
            DUR
        ));
    }

    #[test]
    fn sk_broadband_ssh_only() {
        let w = world();
        let asr = w.as_by_name("SK Broadband").unwrap();
        assert!(blocked(
            &w,
            OriginId::Censys,
            asr,
            Protocol::Ssh,
            2,
            0.0,
            DUR
        ));
        assert!(!blocked(
            &w,
            OriginId::Censys,
            asr,
            Protocol::Http,
            2,
            0.9 * DUR,
            DUR
        ));
        assert!(!blocked(
            &w,
            OriginId::Us64,
            asr,
            Protocol::Ssh,
            2,
            0.9 * DUR,
            DUR
        ));
    }

    #[test]
    fn some_generated_ases_have_ids() {
        let w = WorldConfig::medium(123).build();
        let named = crate::asn::named_ases().len();
        let small: Vec<_> = w.ases[named..]
            .iter()
            .filter(|a| a.n_slash24 <= MAX_IDS_SLASH24S)
            .collect();
        let with_ids = small
            .iter()
            .filter(|a| has_ids(&w, a, Protocol::Http))
            .count();
        let frac = with_ids as f64 / small.len() as f64;
        assert!(
            (0.02..0.06).contains(&frac),
            "generated IDS fraction {frac}"
        );
        // Large generated ASes never run one.
        assert!(w.ases[named..]
            .iter()
            .filter(|a| a.n_slash24 > MAX_IDS_SLASH24S)
            .all(|a| !has_ids(&w, a, Protocol::Http)));
    }

    #[test]
    fn detection_instant_stable_per_origin_space() {
        // US1 and US64 share address space; if US1 is detected at d, the
        // decision function for a (hypothetical) 1-IP US64 would match.
        let w = world();
        let asr = w.as_by_name("Ruhr-Universitaet Bochum").unwrap();
        let probe = |t: f64| blocked(&w, OriginId::Us1, asr, Protocol::Http, 0, t, DUR);
        // Find the detection boundary and check monotonicity.
        let mut last = false;
        for i in 0..100 {
            let b = probe(i as f64 / 100.0 * DUR);
            assert!(b || !last, "blocking must be monotone in time");
            last = b;
        }
        assert!(last, "detected by end of scan");
    }
}
