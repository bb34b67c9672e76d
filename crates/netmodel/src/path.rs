//! Path behaviour between a scan origin and a destination AS.
//!
//! §5 of the paper separates three loss phenomena, all modelled here:
//!
//! * **Correlated transient host loss** (`flaky_q`): when a probe to a
//!   host is lost, the follow-up probe is almost always lost too (> 93 %
//!   of one-probe losses lose both) — loss is a property of the
//!   host/path *state during the scan*, not i.i.d. packet drop. We model
//!   it as a per-`(origin, AS, trial)` lossiness level; each host flips a
//!   coin against that level once per scan.
//! * **Independent per-probe drop** (`drop_p`): genuine random packet
//!   loss, small nearly everywhere; this is what the paper's §5.2
//!   estimator (hosts answering one probe vs two) measures.
//! * **Persistent unreachability** (`persistent_f`): a stable fraction of
//!   a destination network that an origin can never reach (Germany →
//!   Telecom Italia being the flagship case: > 40 % loss, 36–46 % of
//!   hosts persistently invisible).
//!
//! Collocated origins (§7's Equinix CHI4 triad) share a *site* component
//! in the lossiness draw, so their transient losses correlate — which is
//! exactly why the HE–NTT–TELIA triad achieves the worst 3-origin
//! coverage in Fig 18.

use crate::asn::{AsRecord, AsTags};
use crate::burst::{self, BurstEvent};
use crate::host::{proto_key, Protocol};
use crate::origin::OriginId;
use crate::policy::reputation::{self, Wall};
use crate::policy::{ids, Detection};
use crate::rng::Tag;
use crate::world::World;

/// Loss parameters for one (origin, destination AS, protocol, trial).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathParams {
    /// Probability a given host is transiently unreachable for the whole
    /// scan (correlated loss: both probes and the L7 attempt fail).
    pub flaky_q: f64,
    /// Independent per-probe drop probability.
    pub drop_p: f64,
    /// Fraction of the AS's hosts persistently unreachable from this
    /// origin (stable across trials).
    pub persistent_f: f64,
}

/// Compute the path parameters.
pub fn path_params(
    world: &World,
    origin: OriginId,
    asr: &AsRecord,
    proto: Protocol,
    trial: u8,
) -> PathParams {
    let det = world.det();
    let o = origin.key();
    let site = origin.site_key();
    let a = u64::from(asr.index);
    let p = proto_key(proto);
    let t = u64::from(trial);

    // Per-(origin, trial) global multiplier: some origins have bad weeks
    // (Australia's 2.75× HTTPS loss jump between trials 1 and 2).
    let origin_trial_mult = det.lognormal(Tag::OriginTrial, &[o, p, t], 0.0, 0.45);

    // Base lossiness: log-normal with a heavy tail; half site-level
    // (shared by collocated origins), half origin-level.
    let z_site = det.normal(Tag::PairLoss, &[1, site, a, p, t]);
    let z_orig = det.normal(Tag::PairLoss, &[2, o, a, p, t]);
    let mu = (0.0035f64).ln();
    let mut flaky_q = (mu + 0.55 * z_site + 0.95 * z_orig).exp() * origin_trial_mult;

    // Base per-probe drop, mildly correlated with the flakiness draw via
    // its own stream.
    let mut drop_p = det.lognormal(Tag::ProbeDrop, &[1, o, a, p, t], (0.0025f64).ln(), 0.8);

    // A small baseline of persistent unreachability exists everywhere.
    let mut persistent_f = det
        .lognormal(Tag::Persistent, &[1, o, a], (0.0004f64).ln(), 1.0)
        .min(0.05);

    // --- Special paths -------------------------------------------------
    if asr.tags.has(AsTags::CHINA_PATH) {
        // Transnational China paths: high, unstable loss from everyone,
        // with no proximity advantage for Japan (§5.2). The "Great
        // Bottleneck" congestion is bursty, so most of it manifests as
        // correlated per-host loss rather than i.i.d. drop — which is why
        // the paper sees >93% of single-probe losses lose both probes
        // even on Chinese paths.
        drop_p += det.range(Tag::PairLoss, &[3, o, a, p, t], 0.01, 0.05);
        flaky_q += det.range(Tag::PairLoss, &[4, o, a, p, t], 0.03, 0.15);
    }
    if asr.tags.has(AsTags::TI_PATH) {
        match origin {
            OriginId::Brazil => {
                // TIM Brasil is a Telecom Italia subsidiary: clean path.
                drop_p = 0.003;
                flaky_q *= 0.05;
            }
            OriginId::Germany => {
                // Extreme, persistent lack of connectivity (§4.2).
                drop_p += det.range(Tag::PairLoss, &[5, o, a, t], 0.35, 0.50);
                flaky_q += det.range(Tag::PairLoss, &[6, o, a, p, t], 0.15, 0.45);
                let sparkle = asr.category == crate::asn::Category::Telecom;
                persistent_f = if sparkle { 0.46 } else { 0.36 };
            }
            _ => {
                // Lossy from everywhere else too (μ = 16 % vs 0.3 %).
                drop_p += det.range(Tag::PairLoss, &[7, o, a, p, t], 0.08, 0.24);
                flaky_q += det.range(Tag::PairLoss, &[8, o, a, p, t], 0.02, 0.25);
            }
        }
    }
    if asr.tags.has(AsTags::AU_WORST) && origin == OriginId::Australia {
        // Persistently congested AU paths to Russia/Kazakhstan: ~10× the
        // second-worst origin's drop (§5.1).
        drop_p += det.range(Tag::PairLoss, &[9, a, p, t], 0.035, 0.055);
        flaky_q += det.range(Tag::PairLoss, &[10, a, p, t], 0.04, 0.18);
    }
    if asr.tags.has(AsTags::ABCDE_BLOCK) && proto == Protocol::Http {
        // ABCDE Group: besides blocking some origins outright (see
        // policy::reputation), the reachable origins see wildly different
        // transient loss (Δ = 62 % in Table 3a).
        flaky_q += det.range(Tag::PairLoss, &[11, o, a, t], 0.0, 0.55);
    }
    // Australia is also the origin with the worst *global* connectivity in
    // the study (highest packet loss in every trial, §5.2).
    if origin == OriginId::Australia {
        drop_p *= 1.6;
        flaky_q *= 1.35;
    }

    let mut params = PathParams {
        flaky_q: flaky_q.min(0.92),
        drop_p: drop_p.min(0.55),
        persistent_f: persistent_f.min(0.95),
    };

    if world.config.uniform_loss {
        // Ablation (§7 "multi-probe scanning"): pretend all transient loss
        // is i.i.d. per-probe drop of equivalent single-probe magnitude.
        params = PathParams {
            flaky_q: 0.0,
            drop_p: (params.drop_p + params.flaky_q).min(0.9),
            persistent_f: params.persistent_f,
        };
    }
    params
}

/// Everything the model derives from (origin, destination AS, protocol,
/// trial) alone: the *path state* every per-address decision on that
/// path starts from — loss parameters, burst events, and the AS-level
/// halves of the reputation and IDS policies. [`path_state`] is the one
/// place the four keys turn into them; `SimNet` computes it once per key
/// and tools call the same function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathState {
    /// The path's loss parameters ([`path_params`]).
    pub params: PathParams,
    /// [`flaky_half`] of `params.flaky_q`, the rate [`host_flaky`] draws
    /// its site and origin components against.
    pub flaky_half: f64,
    /// Storage for [`bursts`](Self::bursts). Inline, not a `Vec`: a
    /// state is stored for the life of a `SimNet` from whichever scan
    /// thread first needs it, and small long-lived blocks scattered
    /// through the scan threads' allocator arenas keep every arena at
    /// its high-water mark.
    events: [BurstEvent; burst::MAX_EVENTS],
    n_events: usize,
    /// The AS's reputation wall against the origin
    /// ([`reputation::wall`]).
    pub wall: Wall,
    /// When the AS's IDS detects the origin ([`ids::detection`]).
    pub ids: Detection,
}

impl PathState {
    /// The AS's burst events this (protocol, trial)
    /// ([`burst::events_for`]; usually none).
    pub fn bursts(&self) -> &[BurstEvent] {
        self.events.get(..self.n_events).unwrap_or(&self.events)
    }
}

/// Derive the path state. A pure function of the world seed and the four
/// keys, so it may be computed once and shared, in any order, by any
/// number of threads.
pub(crate) fn path_state(
    world: &World,
    origin: OriginId,
    asr: &AsRecord,
    proto: Protocol,
    trial: u8,
) -> PathState {
    let params = path_params(world, origin, asr, proto, trial);
    let bursts = burst::events_for(world, asr.index, proto, trial);
    assert!(bursts.len() <= burst::MAX_EVENTS, "{} events", bursts.len());
    let mut events = [BurstEvent::default(); burst::MAX_EVENTS];
    for (slot, e) in events.iter_mut().zip(&bursts) {
        *slot = *e;
    }
    PathState {
        params,
        flaky_half: flaky_half(params.flaky_q),
        events,
        n_events: bursts.len(),
        wall: reputation::wall(world, origin, asr, proto, trial),
        ids: ids::detection(world, origin, asr, proto, trial),
    }
}

/// Length of one transient-state window in seconds.
///
/// A host's transient unreachability is a *state* that persists for a
/// while and then clears — that is why back-to-back probes fail together
/// (they land in the same window) while probes separated by hours can
/// succeed. Bano et al.'s delayed-probe mitigation, which §7 of the paper
/// endorses, works precisely because of this structure.
pub(crate) const FLAKY_WINDOW_S: f64 = 2.0 * 3600.0;

/// The rate each of [`host_flaky`]'s two components draws against so
/// that their union has rate `q`: `1 − (1 − half)² = q`.
pub fn flaky_half(q: f64) -> f64 {
    1.0 - (1.0 - q.min(1.0)).sqrt()
}

/// Is `addr` transiently unreachable from `origin` at `time_s`, on a
/// path whose correlated-loss level is `q = 1 − (1 − half)²`
/// ([`flaky_half`])?
///
/// Two structural properties, both load-bearing for the paper's findings:
/// the failure is split into a *site* component (shared by collocated
/// origins, Fig 18 — their probes traverse the same upstream paths, so
/// the same hosts fail) and an *origin* component, and the state is
/// drawn per `FLAKY_WINDOW_S` window so consecutive probes share a
/// fate while time-separated probes redraw (the delayed-probe
/// mitigation).
pub fn host_flaky(
    world: &World,
    origin: OriginId,
    addr: u32,
    proto: Protocol,
    trial: u8,
    time_s: f64,
    half: f64,
) -> bool {
    let det = world.det();
    let window = (time_s / FLAKY_WINDOW_S).max(0.0) as u64;
    let key = |salt: u64, ok: u64| {
        [
            salt,
            ok,
            u64::from(addr),
            proto_key(proto),
            u64::from(trial),
            window,
        ]
    };
    det.bernoulli(Tag::HostFlaky, &key(1, origin.site_key()), half)
        || det.bernoulli(Tag::HostFlaky, &key(2, origin.key()), half)
}

/// Is `addr` persistently unreachable from `origin` (all trials)?
///
/// Keyed without the trial, so the same hosts are invisible every time —
/// the long-term inaccessibility §4.2 attributes to connectivity rather
/// than blocking.
pub fn host_persistent_unreachable(world: &World, origin: OriginId, addr: u32, f: f64) -> bool {
    world
        .det()
        .bernoulli(Tag::Persistent, &[2, origin.key(), u64::from(addr)], f)
}

/// Does this individual probe drop (independent randomness)?
pub fn probe_drops(
    world: &World,
    origin: OriginId,
    addr: u32,
    proto: Protocol,
    trial: u8,
    probe_idx: u8,
    p: f64,
) -> bool {
    world.det().bernoulli(
        Tag::ProbeDrop,
        &[
            2,
            origin.key(),
            u64::from(addr),
            proto_key(proto),
            u64::from(trial),
            u64::from(probe_idx),
        ],
        p,
    )
}

/// Does the *reply* to a stateless UDP/ICMP probe drop on the way back?
///
/// Stateless probes have no retransmission, so the reply leg is a second
/// independent loss channel on top of [`probe_drops`]. The rate is
/// origin-biased: reply loss rides the same congested return paths that
/// make an origin's forward drop high, so we scale the path's `drop_p` by
/// a fixed factor rather than drawing an unrelated rate. Keyed with lead
/// constant 3 to stay disjoint from the forward-drop stream (lead 2).
pub(crate) fn stateless_reply_drops(
    world: &World,
    origin: OriginId,
    addr: u32,
    proto: Protocol,
    trial: u8,
    probe_idx: u8,
    drop_p: f64,
) -> bool {
    world.det().bernoulli(
        Tag::ProbeDrop,
        &[
            3,
            origin.key(),
            u64::from(addr),
            proto_key(proto),
            u64::from(trial),
            u64::from(probe_idx),
        ],
        (drop_p * 0.6).min(0.5),
    )
}

/// L7-only transient failure: the TCP handshake completes but the
/// application exchange stalls or is torn down. §6 reports 70 % of
/// transiently missed HTTP(S) hosts drop silently while 57 % of missed
/// SSH hosts close explicitly; the explicit closes for SSH come from
/// MaxStartups/Alibaba, and this smaller channel supplies the L7-stage
/// losses for HTTP(S).
pub fn l7_flaky(
    world: &World,
    origin: OriginId,
    addr: u32,
    proto: Protocol,
    trial: u8,
    q: f64,
) -> bool {
    world.det().bernoulli(
        Tag::L7Flaky,
        &[
            origin.key(),
            u64::from(addr),
            proto_key(proto),
            u64::from(trial),
        ],
        q * 0.35,
    )
}

/// Quick sanity accessor used by analyses: mean drop rate across the
/// space-weighted ASes for one origin/protocol/trial.
#[cfg(test)]
fn global_mean_drop(world: &World, origin: OriginId, proto: Protocol, trial: u8) -> f64 {
    let mut weighted = 0.0;
    let mut weight = 0.0;
    for asr in &world.ases {
        let w = f64::from(asr.n_slash24);
        weighted += w * path_params(world, origin, asr, proto, trial).drop_p;
        weight += w;
    }
    weighted / weight
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn world() -> World {
        WorldConfig::tiny(42).build()
    }

    #[test]
    fn params_deterministic() {
        let w = world();
        let asr = &w.ases[0];
        let a = path_params(&w, OriginId::Japan, asr, Protocol::Http, 1);
        let b = path_params(&w, OriginId::Japan, asr, Protocol::Http, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn params_vary_by_origin_and_trial() {
        let w = world();
        let asr = w.as_by_name("Amazon").unwrap();
        let a = path_params(&w, OriginId::Japan, asr, Protocol::Http, 0);
        let b = path_params(&w, OriginId::Brazil, asr, Protocol::Http, 0);
        let c = path_params(&w, OriginId::Japan, asr, Protocol::Http, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn germany_telecom_italia_pathology() {
        let w = world();
        let ti = w.as_by_name("Telecom Italia").unwrap();
        let de = path_params(&w, OriginId::Germany, ti, Protocol::Http, 0);
        let br = path_params(&w, OriginId::Brazil, ti, Protocol::Http, 0);
        assert!(de.drop_p > 0.30, "DE→TI drop {}", de.drop_p);
        assert!(br.drop_p < 0.01, "BR→TI drop {}", br.drop_p);
        assert_eq!(de.persistent_f, 0.36);
        let sparkle = w.as_by_name("Telecom Italia Sparkle").unwrap();
        let des = path_params(&w, OriginId::Germany, sparkle, Protocol::Https, 2);
        assert_eq!(des.persistent_f, 0.46);
    }

    #[test]
    fn china_paths_lossy_from_everyone() {
        let w = world();
        let ct = w.as_by_name("China Telecom").unwrap();
        for o in OriginId::MAIN {
            let p = path_params(&w, o, ct, Protocol::Http, 0);
            assert!(p.drop_p >= 0.01, "{o}: {}", p.drop_p);
        }
    }

    #[test]
    fn australia_worst_to_rostelecom() {
        let w = world();
        let ru = w.as_by_name("Rostelecom").unwrap();
        for t in 0..3 {
            let au = path_params(&w, OriginId::Australia, ru, Protocol::Http, t);
            for o in [OriginId::Japan, OriginId::Us1, OriginId::Germany] {
                let other = path_params(&w, o, ru, Protocol::Http, t);
                assert!(
                    au.drop_p > other.drop_p * 2.0,
                    "trial {t}: AU {} vs {o} {}",
                    au.drop_p,
                    other.drop_p
                );
            }
        }
    }

    #[test]
    fn collocated_origins_correlate() {
        // Across many ASes, |flaky_he - flaky_ntt| (same site) should be
        // smaller on average than |flaky_he - flaky_jp| (different sites).
        let w = world();
        let (mut same, mut diff, mut n) = (0.0, 0.0, 0);
        for asr in &w.ases {
            let he = path_params(&w, OriginId::HurricaneElectric, asr, Protocol::Http, 0);
            let ntt = path_params(&w, OriginId::NttTransit, asr, Protocol::Http, 0);
            let jp = path_params(&w, OriginId::Japan, asr, Protocol::Http, 0);
            same += (he.flaky_q.ln() - ntt.flaky_q.ln()).abs();
            diff += (he.flaky_q.ln() - jp.flaky_q.ln()).abs();
            n += 1;
        }
        assert!(n > 50);
        assert!(
            same < diff,
            "collocated origins should correlate: {same} vs {diff}"
        );
    }

    #[test]
    fn flaky_and_persistent_host_draws_behave() {
        let w = world();
        // Rate roughly matches q.
        let half = flaky_half(0.05);
        let hits = (0..30_000u32)
            .filter(|&a| host_flaky(&w, OriginId::Us1, a, Protocol::Http, 0, 100.0, half))
            .count();
        let rate = hits as f64 / 30_000.0;
        assert!((rate - 0.05).abs() < 0.01, "{rate}");
        // Persistent is trial-independent by construction (no trial key),
        // and differs per origin.
        let au: Vec<bool> = (0..1000u32)
            .map(|a| host_persistent_unreachable(&w, OriginId::Australia, a, 0.3))
            .collect();
        let jp: Vec<bool> = (0..1000u32)
            .map(|a| host_persistent_unreachable(&w, OriginId::Japan, a, 0.3))
            .collect();
        assert_ne!(au, jp);
    }

    #[test]
    fn stateless_reply_loss_is_its_own_channel() {
        let w = world();
        // Same key material, different lead constant: the reply-leg draw
        // must not mirror the forward-drop draw.
        let fwd: Vec<bool> = (0..5000u32)
            .map(|a| probe_drops(&w, OriginId::Us1, a, Protocol::Dns, 0, 0, 0.5))
            .collect();
        let rep: Vec<bool> = (0..5000u32)
            .map(|a| stateless_reply_drops(&w, OriginId::Us1, a, Protocol::Dns, 0, 0, 0.5))
            .collect();
        assert_ne!(fwd, rep);
        // Rate tracks drop_p * 0.6.
        let rate = rep.iter().filter(|&&x| x).count() as f64 / 5000.0;
        assert!((rate - 0.3).abs() < 0.03, "{rate}");
    }

    #[test]
    fn uniform_loss_ablation_moves_mass_to_drop() {
        let mut cfg = WorldConfig::tiny(42);
        cfg.uniform_loss = true;
        let w = cfg.build();
        for asr in w.ases.iter().take(20) {
            let p = path_params(&w, OriginId::Us1, asr, Protocol::Http, 0);
            assert_eq!(p.flaky_q, 0.0);
        }
    }

    #[test]
    fn global_drop_in_plausible_band() {
        let w = world();
        for o in [OriginId::Us1, OriginId::Japan, OriginId::Censys] {
            let d = global_mean_drop(&w, o, Protocol::Http, 0);
            assert!((0.001..0.08).contains(&d), "{o}: {d}");
        }
        // Australia globally lossier than US.
        let au = global_mean_drop(&w, OriginId::Australia, Protocol::Http, 0);
        let us = global_mean_drop(&w, OriginId::Us1, Protocol::Http, 0);
        assert!(au > us, "AU {au} vs US {us}");
    }
}
