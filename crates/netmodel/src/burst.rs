//! Burst outages: short-lived, localized loss events.
//!
//! §5.3: 14–36 % of transient loss coincides with hour-scale bursts;
//! ~45 % of destination ASes see at least one; ~60 % of bursts affect a
//! single origin and ≥ 91 % affect at most three; one spectacular event
//! (Brazil, HTTPS trial 3) dropped 8 % of all transiently missing hosts in
//! a single hour across 39 % of ASes.
//!
//! An event is a tuple `(AS, trial, protocol, slot)` with an hour window,
//! an affected-origin mask, and an affected-host fraction, all derived
//! deterministically. Whether a probe falls into a burst is then a pure
//! function of its context.

use crate::host::{proto_key, Protocol};
use crate::origin::OriginId;
use crate::rng::{Det, Tag};
use crate::world::World;

/// Number of candidate event slots per (AS, protocol, trial).
const SLOTS: u64 = 2;

/// Probability each candidate slot materializes into an event.
const SLOT_P: f64 = 0.10;

/// Scan duration the hour grid is defined over (the paper's ~21 h trial).
pub(crate) const SCAN_HOURS: f64 = 21.0;

/// Most events [`events_for`] can return: every slot plus the mega
/// event.
pub(crate) const MAX_EVENTS: usize = SLOTS as usize + 1;

/// One burst event.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BurstEvent {
    /// Start of the outage window, in hours since scan start.
    pub(crate) start_h: f64,
    /// Window length in hours (about an hour, per the paper's detection
    /// granularity).
    pub(crate) len_h: f64,
    /// Bitmask over [`OriginId::MAIN`]-order origins affected.
    pub(crate) origin_mask: u16,
    /// Fraction of hosts probed inside the window that are lost.
    pub(crate) frac: f64,
}

/// Derive the bitmask bit for an origin (main-study order; follow-up
/// origins get bits 7..).
fn origin_bit(o: OriginId) -> u16 {
    1 << (o.key() - 1)
}

/// Enumerate the burst events for (AS, protocol, trial).
pub fn events_for(world: &World, as_index: u32, proto: Protocol, trial: u8) -> Vec<BurstEvent> {
    let det = world.det();
    let a = u64::from(as_index);
    let p = proto_key(proto);
    let t = u64::from(trial);
    let mut out = Vec::new();
    for slot in 0..SLOTS {
        if !det.bernoulli(Tag::Burst, &[1, a, p, t, slot], SLOT_P) {
            continue;
        }
        let start_h = det.range(Tag::Burst, &[2, a, p, t, slot], 0.0, SCAN_HOURS - 1.0);
        let len_h = det.range(Tag::Burst, &[3, a, p, t, slot], 0.6, 1.4);
        let origin_mask = draw_origin_mask(det, [a, p, t, slot]);
        let frac = det.range(Tag::Burst, &[5, a, p, t, slot], 0.5, 1.0);
        out.push(BurstEvent {
            start_h,
            len_h,
            origin_mask,
            frac,
        });
    }
    // The Brazil / HTTPS / trial-3 mega event: a single hour in which a
    // large fraction of ASes lose hosts from Brazil simultaneously.
    if proto == Protocol::Https && trial == 2 && det.bernoulli(Tag::Burst, &[6, a], 0.39) {
        out.push(BurstEvent {
            start_h: 14.0,
            len_h: 1.0,
            origin_mask: origin_bit(OriginId::Brazil),
            frac: det.range(Tag::Burst, &[7, a], 0.6, 1.0),
        });
    }
    out
}

/// Draw the affected-origin mask: ~60 % single origin, most of the rest
/// two or three origins, a sliver affecting many. Keyed by the event's
/// `(AS, protocol, trial, slot)`.
fn draw_origin_mask(det: &Det, [a, p, t, slot]: [u64; 4]) -> u16 {
    let u = det.uniform(Tag::Burst, &[4, a, p, t, slot, 0]);
    let sub = |salt: u64| [4, a, p, t, slot, 0, salt];
    if u < 0.60 {
        // Australia is disproportionately the single affected origin
        // (§5.3: 30–40 % of single-origin bursts).
        let pick = det.uniform(Tag::Burst, &sub(1));
        if pick < 0.35 {
            return origin_bit(OriginId::Australia);
        }
        // Uniform over the remaining main origins.
        let others = [
            OriginId::Brazil,
            OriginId::Germany,
            OriginId::Japan,
            OriginId::Us1,
            OriginId::Us64,
            OriginId::Censys,
        ];
        let i = ((pick - 0.35) / 0.65 * others.len() as f64) as usize;
        // `pick < 1` keeps `i` in range; rounding at the top edge lands
        // on the last origin.
        origin_bit(*others.get(i).unwrap_or(&OriginId::Censys))
    } else if u < 0.91 {
        // Two or three origins.
        let n = if u < 0.80 { 2 } else { 3 };
        let mut mask = 0u16;
        let mut j = 0u64;
        while mask.count_ones() < n {
            let i = det.below(Tag::Burst, &sub(10 + j), OriginId::MAIN.len() as u64) as usize;
            mask |= OriginId::MAIN.get(i).map_or(0, |&o| origin_bit(o));
            j += 1;
        }
        mask
    } else {
        // Wide outage: everyone.
        OriginId::MAIN
            .iter()
            .map(|&o| origin_bit(o))
            .fold(0, |a, b| a | b)
    }
}

/// Is a probe sent at `time_s` from `origin` inside one of `events` —
/// the AS's [`events_for`] this (protocol, trial) — and is this
/// particular host part of the affected fraction?
#[expect(clippy::too_many_arguments, reason = "mirrors the probe context")]
pub(crate) fn in_burst(
    world: &World,
    events: &[BurstEvent],
    origin: OriginId,
    addr: u32,
    as_index: u32,
    trial: u8,
    time_s: f64,
    duration_s: f64,
) -> bool {
    if events.is_empty() {
        return false;
    }
    let hour = time_s / duration_s * SCAN_HOURS;
    let bit = origin_bit(origin);
    for (i, e) in events.iter().enumerate() {
        if e.origin_mask & bit != 0
            && hour >= e.start_h
            && hour < e.start_h + e.len_h
            && world.det().bernoulli(
                Tag::Burst,
                &[
                    8,
                    u64::from(addr),
                    u64::from(as_index),
                    u64::from(trial),
                    i as u64,
                ],
                e.frac,
            )
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn world() -> World {
        WorldConfig::tiny(5).build()
    }

    #[test]
    fn events_deterministic() {
        let w = world();
        assert_eq!(
            events_for(&w, 3, Protocol::Http, 1),
            events_for(&w, 3, Protocol::Http, 1)
        );
    }

    #[test]
    fn roughly_expected_event_rate() {
        let w = world();
        let mut with_event = 0;
        let n = w.ases.len() as u32;
        for a in 0..n {
            let any = originscan_scanner::probe::PAPER_PROTOCOLS
                .iter()
                .any(|&p| (0..3).any(|t| !events_for(&w, a, p, t).is_empty()));
            if any {
                with_event += 1;
            }
        }
        // 18 (as, proto, trial) combos × 2 slots × 0.10 ≈ 84 % of ASes see
        // at least one event slot fire somewhere (paper: 45 % of ASes that
        // contain a transiently missing host see a detectable burst —
        // detectability is lower than occurrence, tested end-to-end later).
        let frac = f64::from(with_event) / f64::from(n);
        assert!((0.5..1.0).contains(&frac), "{frac}");
    }

    #[test]
    fn origin_masks_mostly_narrow() {
        let w = world();
        let mut singles = 0u32;
        let mut narrow = 0u32;
        let mut total = 0u32;
        for a in 0..w.ases.len() as u32 {
            for t in 0..3u8 {
                for e in events_for(&w, a, Protocol::Ssh, t) {
                    total += 1;
                    let n = e.origin_mask.count_ones();
                    if n == 1 {
                        singles += 1;
                    }
                    if n <= 3 {
                        narrow += 1;
                    }
                }
            }
        }
        assert!(total > 20, "need events to test ({total})");
        assert!(f64::from(singles) / f64::from(total) > 0.4);
        assert!(f64::from(narrow) / f64::from(total) >= 0.85);
    }

    #[test]
    fn burst_hits_only_inside_window() {
        let w = world();
        let duration = 21.0 * 3600.0;
        // Find an AS with an event affecting some origin.
        for a in 0..w.ases.len() as u32 {
            let events = events_for(&w, a, Protocol::Http, 0);
            if let Some(&e) = events.first() {
                let origin = OriginId::MAIN
                    .into_iter()
                    .find(|o| e.origin_mask & origin_bit(*o) != 0)
                    .unwrap();
                let inside_t = (e.start_h + e.len_h / 2.0) / SCAN_HOURS * duration;
                let outside_t = ((e.start_h + e.len_h + 2.0) % SCAN_HOURS) / SCAN_HOURS * duration;
                // With frac >= 0.5, at least ~half of addresses hit inside.
                let hits = (0..200u32)
                    .filter(|&addr| in_burst(&w, &events, origin, addr, a, 0, inside_t, duration))
                    .count();
                assert!(hits > 50, "inside-window hits {hits}");
                // Outside the window (and away from other events) we can't
                // assert zero because another event may overlap; just check
                // the window logic via an AS with exactly one event.
                if events.len() == 1 {
                    let misses = (0..200u32)
                        .filter(|&addr| {
                            in_burst(&w, &events, origin, addr, a, 0, outside_t, duration)
                        })
                        .count();
                    assert_eq!(misses, 0);
                }
                return; // one AS is enough
            }
        }
        panic!("no burst events found in tiny world");
    }

    #[test]
    fn brazil_https_trial3_mega_event() {
        let w = world();
        let affected = (0..w.ases.len() as u32)
            .filter(|&a| {
                events_for(&w, a, Protocol::Https, 2)
                    .iter()
                    .any(|e| (e.start_h - 14.0).abs() < 1e-9)
            })
            .count();
        let frac = affected as f64 / w.ases.len() as f64;
        assert!(
            (0.25..0.55).contains(&frac),
            "mega-event AS fraction {frac}"
        );
        // And it is Brazil-only.
        for a in 0..w.ases.len() as u32 {
            for e in events_for(&w, a, Protocol::Https, 2) {
                if (e.start_h - 14.0).abs() < 1e-9 && e.len_h == 1.0 {
                    assert_eq!(e.origin_mask, origin_bit(OriginId::Brazil));
                }
            }
        }
    }
}
