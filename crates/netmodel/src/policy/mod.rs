//! Destination-side policies: everything that *deliberately* hides hosts
//! from particular scan origins.
//!
//! §4 of the paper decomposes long-term inaccessibility into reputation
//! blocking ([`reputation`]), geographic restrictions (`geo_restrict`),
//! and rate-triggered intrusion detection ([`ids`]); §6 adds the two
//! SSH-specific mechanisms (`alibaba`, `maxstartups`). Each module is
//! one mechanism: plain functions of the world seed and the probe's
//! coordinates. The network implementation consults them in a fixed
//! order — `host_block` and the IDS [`Detection`] when it decides a
//! host's state (their AS-level parts, `reputation::wall` and
//! [`ids::detection`], are kept in the path state), then
//! `alibaba::rst_after_handshake` and `maxstartups::refuses` after the
//! TCP handshake.
//!
//! The two time-triggered detectors (IDS, Alibaba) share one pattern:
//! origins spreading load over many source IPs evade (`evades`);
//! otherwise a stable detection instant splits the scan into an open
//! prefix and a blocked suffix, which the IDS also remembers across
//! trials. [`Detection`] captures it once.

pub(crate) mod alibaba;
pub(crate) mod geo_restrict;
pub mod ids;
pub(crate) mod maxstartups;
pub mod reputation;

use crate::asn::AsRecord;
use crate::host::Protocol;
use crate::origin::OriginId;
use crate::rng::Tag;
use crate::world::World;

/// Long-term blocking verdict for one (origin, host) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Block {
    /// Not blocked.
    None,
    /// Dropped at layer 4: the SYN is silently discarded (92 % of
    /// long-term-inaccessible HTTP(S) hosts are L4-unresponsive).
    DropL4,
    /// Allowed through the TCP handshake but the application connection
    /// goes nowhere (the remaining ~8 %: L7-level filtering).
    DropL7,
}

/// Combined long-term blocking decision (reputation + geography) for
/// `addr`, which lies in `asr`.
///
/// Temporal mechanisms (IDS, Alibaba) and probabilistic ones
/// (MaxStartups) are separate because they depend on scan time, trial, or
/// attempt; the network implementation consults them directly.
pub fn block_status(
    world: &World,
    origin: OriginId,
    asr: &AsRecord,
    addr: u32,
    proto: Protocol,
    trial: u8,
) -> Block {
    let wall = reputation::wall(world, origin, asr, proto, trial);
    host_block(world, origin, asr, addr, proto, wall)
}

/// The per-host part of [`block_status`], behind `asr`'s reputation
/// `wall` ([`reputation::wall`], which `SimNet` keeps per path).
pub(crate) fn host_block(
    world: &World,
    origin: OriginId,
    asr: &AsRecord,
    addr: u32,
    proto: Protocol,
    wall: reputation::Wall,
) -> Block {
    if wall.blocks(world, origin, asr, addr, proto)
        || geo_restrict::blocks(world, origin, asr, addr)
    {
        filtered_verdict(world, addr)
    } else {
        Block::None
    }
}

/// Split a long-term-blocked host into L4-silent vs L7-filtered, stably
/// per address (92 % of long-term-inaccessible HTTP(S) hosts are
/// L4-unresponsive), whichever wall blocks it.
fn filtered_verdict(world: &World, addr: u32) -> Block {
    if world
        .det()
        .bernoulli(Tag::Block, &[90, u64::from(addr)], 0.92)
    {
        Block::DropL4
    } else {
        Block::DropL7
    }
}

/// Outcome of a temporal detector for one `(origin, trial)` scan —
/// the shared core of the IDS and Alibaba mechanisms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Detection {
    /// This trial escapes detection entirely.
    Never,
    /// Detected in an earlier trial: blocked from the first probe on.
    Prior,
    /// Detected at this fraction of the current scan; earlier probes
    /// pass, later ones are blocked (monotone in time).
    At(f64),
}

impl Detection {
    /// Is the origin blocked at `time_s` of a `duration_s`-second scan?
    pub(crate) fn blocked_at(&self, time_s: f64, duration_s: f64) -> bool {
        match *self {
            Detection::Never => false,
            Detection::Prior => true,
            Detection::At(d) => time_s / duration_s > d,
        }
    }
}

/// Does `origin` evade rate-triggered detection by spreading its scan
/// over many source IPs (§4.3: US₆₄'s per-IP rate stays under every
/// modelled threshold)?
pub(crate) fn evades(origin: OriginId) -> bool {
    origin.spec().source_ips >= ids::EVASION_IPS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    #[test]
    fn detection_blocked_at_semantics() {
        assert!(!Detection::Never.blocked_at(75_599.0, 75_600.0));
        assert!(Detection::Prior.blocked_at(0.0, 75_600.0));
        let d = Detection::At(0.5);
        assert!(!d.blocked_at(0.4 * 75_600.0, 75_600.0));
        assert!(d.blocked_at(0.6 * 75_600.0, 75_600.0));
    }

    #[test]
    fn block_split_mostly_l4() {
        let world = WorldConfig::tiny(8).build();
        // Pick hosts in an AS that blocks Censys outright.
        let dxtl = world.as_by_name("DXTL Tseung Kwan O Service").unwrap();
        let lo = dxtl.first_slash24 * 256;
        let hi = lo + dxtl.n_slash24 * 256;
        let mut l4 = 0u32;
        let mut l7 = 0u32;
        let mut none = 0u32;
        for addr in lo..hi {
            match block_status(&world, OriginId::Censys, dxtl, addr, Protocol::Http, 0) {
                Block::DropL4 => l4 += 1,
                Block::DropL7 => l7 += 1,
                Block::None => none += 1,
            }
        }
        // DXTL blocks >99.99% of hosts; a stray unblocked address is fine.
        assert!(
            none <= 1,
            "DXTL must block Censys almost everywhere ({none} open)"
        );
        let frac = f64::from(l4) / f64::from(l4 + l7);
        assert!((frac - 0.92).abs() < 0.05, "L4 fraction {frac}");
    }

    #[test]
    fn unblocked_origin_sees_none() {
        let world = WorldConfig::tiny(8).build();
        let dxtl = world.as_by_name("DXTL Tseung Kwan O Service").unwrap();
        let addr = dxtl.first_slash24 * 256 + 7;
        assert_eq!(
            block_status(&world, OriginId::Japan, dxtl, addr, Protocol::Http, 0),
            Block::None
        );
    }
}
