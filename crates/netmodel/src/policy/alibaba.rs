//! Alibaba's network-wide temporal SSH blocking.
//!
//! §6 / Fig 12: Alibaba (AS 37963, 45102) detects single-source-IP SSH
//! scanning partway through a trial — around two-thirds of the way in
//! trial 1, at varying (non-deterministic) times in later trials — and
//! from that moment on *every* SSH host in the network completes the TCP
//! handshake and then immediately RSTs. It is the only network in the
//! study with this signature, and it applies to SSH only.

use super::{evades, Detection};
use crate::asn::{AsRecord, AsTags};
use crate::origin::OriginId;
use crate::rng::Tag;
use crate::world::World;

/// When (if ever) is `origin` detected in `trial`?
///
/// Keyed by origin and trial only (not AS): both Alibaba ASes flip
/// together, matching the network-wide behaviour in Fig 12. Unlike the
/// rate IDS, Alibaba re-detects each trial independently (Fig 12 shows
/// varying, sometimes absent, detection in later trials), so no trial
/// ever yields [`Detection::Prior`].
pub fn detection(world: &World, origin: OriginId, trial: u8) -> Detection {
    if evades(origin) {
        return Detection::Never; // multiple source IPs evade the detector
    }
    let det = world.det();
    let o = origin.key();
    let t = u64::from(trial);
    if trial == 0 {
        // Trial 1: detected about two-thirds of the way in.
        Detection::At(det.range(Tag::Temporal, &[1, o, t], 0.60, 0.72))
    } else {
        // Later trials: sometimes never triggered, otherwise anywhere.
        if det.bernoulli(Tag::Temporal, &[2, o, t], 0.12) {
            Detection::Never
        } else {
            Detection::At(det.range(Tag::Temporal, &[3, o, t], 0.15, 0.85))
        }
    }
}

/// Does this SSH connection get the RST-after-handshake treatment?
pub fn rst_after_handshake(
    world: &World,
    origin: OriginId,
    asr: &AsRecord,
    trial: u8,
    time_s: f64,
    duration_s: f64,
) -> bool {
    asr.tags.has(AsTags::ALIBABA_SSH)
        && detection(world, origin, trial).blocked_at(time_s, duration_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    const DUR: f64 = 75_600.0;

    fn world() -> World {
        WorldConfig::tiny(55).build()
    }

    /// Fraction of the scan after which `origin` is detected in `trial`,
    /// or `None` if this trial escapes detection.
    fn detection_point(world: &World, origin: OriginId, trial: u8) -> Option<f64> {
        match detection(world, origin, trial) {
            Detection::At(d) => Some(d),
            Detection::Never | Detection::Prior => None,
        }
    }

    #[test]
    fn trial1_detection_near_two_thirds() {
        let w = world();
        for o in [
            OriginId::Australia,
            OriginId::Japan,
            OriginId::Censys,
            OriginId::Us1,
        ] {
            let d = detection_point(&w, o, 0).expect("trial 1 always detects");
            assert!((0.60..=0.72).contains(&d), "{o}: {d}");
        }
    }

    #[test]
    fn us64_never_detected() {
        let w = world();
        for t in 0..3 {
            assert_eq!(detection_point(&w, OriginId::Us64, t), None);
        }
    }

    #[test]
    fn late_trial1_connections_reset_unless_the_origin_evades() {
        let w = world();
        let ali = w.as_by_name("HZ Alibaba Advertising").unwrap();
        let late = 0.9 * DUR;
        assert!(rst_after_handshake(&w, OriginId::Japan, ali, 0, late, DUR));
        assert!(!rst_after_handshake(&w, OriginId::Us64, ali, 0, late, DUR));
    }

    #[test]
    fn detection_varies_across_origins_and_trials() {
        let w = world();
        let d_au_1 = detection_point(&w, OriginId::Australia, 1);
        let d_jp_1 = detection_point(&w, OriginId::Japan, 1);
        let d_au_2 = detection_point(&w, OriginId::Australia, 2);
        // At least one pair must differ (non-determinism across the grid).
        assert!(d_au_1 != d_jp_1 || d_au_1 != d_au_2);
    }

    #[test]
    fn rst_only_in_alibaba_ases_after_detection() {
        let w = world();
        let ali = w.as_by_name("HZ Alibaba Advertising").unwrap();
        let ali2 = w.as_by_name("Alibaba US Technology").unwrap();
        let amazon = w.as_by_name("Amazon").unwrap();
        let d = detection_point(&w, OriginId::Japan, 0).unwrap();
        let before = (d - 0.05) * DUR;
        let after = (d + 0.05) * DUR;
        assert!(!rst_after_handshake(
            &w,
            OriginId::Japan,
            ali,
            0,
            before,
            DUR
        ));
        assert!(rst_after_handshake(&w, OriginId::Japan, ali, 0, after, DUR));
        // Both Alibaba ASes flip at the same instant.
        assert!(rst_after_handshake(
            &w,
            OriginId::Japan,
            ali2,
            0,
            after,
            DUR
        ));
        // Amazon never shows the signature.
        assert!(!rst_after_handshake(
            &w,
            OriginId::Japan,
            amazon,
            0,
            after,
            DUR
        ));
    }
}
