//! Everything a workload is fed, generated from `--seed`: world and scan
//! seeds, synthetic origin views, the query mix, and the sorted-`Vec`
//! oracle the set kernels are checked against. The program under test
//! never sees the seed, only these inputs.

use originscan_netmodel::{Protocol, World, WorldConfig};
use originscan_store::{ScanSet, ScanSetStore, StoreKey};

/// SplitMix64: the stream the seed is expanded with.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below what
    /// any workload here could notice.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stateless draw keyed by up to three identifiers.
fn keyed(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    mix(mix(mix(seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ b) ^ c)
}

/// The independent seeds one `--seed` expands into.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub world: u64,
    pub scan: u64,
    pub fault: u64,
    pub views: u64,
    pub queries: u64,
}

impl Seeds {
    pub fn new(seed: u64) -> Seeds {
        let mut s = SplitMix(seed);
        Seeds {
            world: s.next(),
            // Scan seeds get small offsets added (one per trial).
            scan: s.next() >> 8,
            fault: s.next(),
            views: s.next(),
            queries: s.next(),
        }
    }
}

/// World sizes in /24s, per workload. `bench` is what the numbers are
/// measured at; `tiny` is the `--selftest` size, where only the checks
/// matter.
///
/// The sizes are set by the time cap and by the machine's noise, not by
/// the paper: a pass is 0.02 s to 0.4 s, so a run holds 40 passes or more
/// and some of them fall between the neighbours' bursts. (A study over
/// 512 /24s is 0.9 s a pass, 11 passes a run, and its fastest pass moves
/// by 18 % to 30 % between runs of unchanged code; over 128 /24s it is
/// 0.2 s a pass and moves by 3 % to 5 %.) Every layer's cost here scales
/// linearly in addresses (scan) or hosts (store, serve), so a change
/// that shows at these sizes shows at `WorldConfig::small` and above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub study_s24: u32,
    pub scan_s24: u32,
    pub resilience_s24: u32,
    pub store_s24: u32,
    pub serve_cold_s24: u32,
    pub serve_warm_s24: u32,
    /// World the per-layer probes run on.
    pub lab_s24: u32,
    /// Mix rounds per warm-serving pass.
    pub warm_rounds: usize,
}

impl Scale {
    pub const BENCH: Scale = Scale {
        study_s24: 128,
        scan_s24: 1024,
        resilience_s24: 256,
        store_s24: 4096,
        serve_cold_s24: 8192,
        serve_warm_s24: 4096,
        lab_s24: 1024,
        warm_rounds: 1,
    };
    pub const TINY: Scale = Scale {
        study_s24: 64,
        scan_s24: 64,
        resilience_s24: 64,
        store_s24: 256,
        serve_cold_s24: 256,
        serve_warm_s24: 256,
        lab_s24: 64,
        warm_rounds: 1,
    };
}

/// Share of addresses that host HTTP in every benchmark world.
const HTTP_HOST_SHARE: f64 = 0.045;

/// A world of `slash24s` /24s from `seed`, with its service density
/// rescaled so that HTTP hosts are [`HTTP_HOST_SHARE`] of the space.
///
/// Which ASes are large and what they run is drawn from the seed, and in
/// worlds this small that moves the host count by ±10 % from seed to
/// seed. Hosts cost an application handshake where empty addresses cost
/// one silent probe, so unscaled worlds would make every timing a
/// function of the seed first and of the code second. Built twice: once
/// to count, once at the corrected density.
pub fn build_world(seed: u64, slash24s: u32) -> World {
    let mut cfg = WorldConfig::small(seed);
    cfg.slash24s = slash24s;
    let natural = cfg.clone().build();
    let hosts = natural.host_count(Protocol::Http).max(1) as f64;
    cfg.density_scale = HTTP_HOST_SHARE * natural.space() as f64 / hosts;
    cfg.build()
}

/// The paper's TCP trio plus the two stateless modules.
pub const ALL_PROTOCOLS: [Protocol; 5] = [
    Protocol::Http,
    Protocol::Https,
    Protocol::Ssh,
    Protocol::Icmp,
    Protocol::Dns,
];

pub const ORIGINS: u16 = 7;
pub const TRIALS: u8 = 3;

/// Synthetic origin views over a world's real host lists.
#[derive(Debug)]
pub struct Views {
    pub store: ScanSetStore,
    /// Sorted member lists of the oracle's `(protocol, trial)`, one per
    /// origin.
    pub oracle_members: Vec<Vec<u32>>,
    pub oracle_proto: &'static str,
    pub oracle_trial: u8,
    /// Member addresses summed over every stored set.
    pub total_members: u64,
}

/// One view per `(protocol, trial, origin)`: the hosts alive that trial
/// minus the origin's misses. Half of each origin's misses are whole
/// /24s it never reaches, the same in every trial (the paper's long-term
/// inaccessibility); half are per-address and redrawn each trial
/// (transient loss). ICMP is dense enough for bitmap containers, DNS
/// sparse enough for short arrays, and `with_run_set` adds one set of
/// contiguous /24s so run containers are on the path too.
pub fn synthetic_views(
    world: &World,
    protocols: &[Protocol],
    seed: u64,
    with_run_set: bool,
) -> Views {
    const MISS_PER_MILLE: u64 = 30;
    let mut store = ScanSetStore::new();
    let mut oracle_members = Vec::new();
    let mut total_members = 0u64;
    let oracle_proto = protocols[0];
    let oracle_trial = TRIALS - 1;
    for &proto in protocols {
        for trial in 0..TRIALS {
            let alive: Vec<u32> = world
                .hosts(proto)
                .iter()
                .copied()
                .filter(|&a| world.alive(proto, a, trial))
                .collect();
            for origin in 0..ORIGINS {
                let o = u64::from(origin);
                let members: Vec<u32> = alive
                    .iter()
                    .copied()
                    .filter(|&a| {
                        let s24_miss = keyed(seed, o, u64::from(a >> 8), 0) % 1000 < MISS_PER_MILLE;
                        let addr_miss = keyed(seed, o, u64::from(a), 1 + u64::from(trial)) % 1000
                            < MISS_PER_MILLE;
                        !s24_miss && !addr_miss
                    })
                    .collect();
                total_members += members.len() as u64;
                store.insert(
                    StoreKey::new(proto.name(), trial, origin),
                    ScanSet::from_sorted(&members),
                );
                if proto == oracle_proto && trial == oracle_trial {
                    oracle_members.push(members);
                }
            }
        }
    }
    if with_run_set {
        // Every address of every fourth /24: 256-long runs.
        let space = u32::try_from(world.space()).unwrap_or(u32::MAX);
        let members: Vec<u32> = (0..space).filter(|a| (a >> 8) % 4 == 0).collect();
        total_members += members.len() as u64;
        store.insert(
            StoreKey::new("PLANNED", 0, 0),
            ScanSet::from_sorted(&members),
        );
    }
    Views {
        store,
        oracle_members,
        oracle_proto: oracle_proto.name(),
        oracle_trial,
        total_members,
    }
}

/// The analyst's query mix: for every `(protocol, trial)`, coverage,
/// exclusive, rank and member for each origin, every pairwise diff,
/// best-k for k = 2 and 3, and the registered plan's recall — 52
/// queries per pair, 468 over three protocols and three trials. Point
/// lookups draw their addresses from the seed. The order is shuffled so
/// that any window of the mix is a fair sample of it.
pub fn query_mix(protocols: &[Protocol], space: u64, plan_name: &str, seed: u64) -> Vec<String> {
    let mut rng = SplitMix(seed);
    let mut out = Vec::new();
    let all: String = (0..ORIGINS)
        .map(|o| o.to_string())
        .collect::<Vec<_>>()
        .join(",");
    for proto in protocols {
        let p = proto.name();
        for t in 0..TRIALS {
            for o in 0..ORIGINS {
                out.push(format!("coverage proto={p} trial={t} origins={o}"));
                out.push(format!("exclusive proto={p} trial={t} origin={o}"));
                let addr = rng.below(space);
                out.push(format!("rank proto={p} trial={t} origin={o} addr={addr}"));
                let addr = rng.below(space);
                out.push(format!("member proto={p} trial={t} origin={o} addr={addr}"));
                for b in (o + 1)..ORIGINS {
                    out.push(format!("diff proto={p} trial={t} a={o} b={b}"));
                }
            }
            out.push(format!("best-k proto={p} trial={t} k=2"));
            out.push(format!("best-k proto={p} trial={t} k=3"));
            out.push(format!(
                "recall proto={p} trial={t} origins={all} plan={plan_name}"
            ));
        }
    }
    // Fisher–Yates.
    for i in (1..out.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        out.swap(i, j);
    }
    out
}

/// Set algebra on sorted, de-duplicated address lists: the reference the
/// bitmap kernels are checked against.
pub mod oracle {
    fn merge(a: &[u32], b: &[u32], keep: impl Fn(bool, bool) -> bool) -> Vec<u32> {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::new();
        while i < a.len() || j < b.len() {
            let (in_a, in_b, v) = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x == y => (true, true, x),
                (Some(&x), Some(&y)) if x < y => (true, false, x),
                (Some(_), Some(&y)) => (false, true, y),
                (Some(&x), None) => (true, false, x),
                (None, Some(&y)) => (false, true, y),
                (None, None) => break,
            };
            i += usize::from(in_a);
            j += usize::from(in_b);
            if keep(in_a, in_b) {
                out.push(v);
            }
        }
        out
    }

    pub fn or(a: &[u32], b: &[u32]) -> Vec<u32> {
        merge(a, b, |x, y| x || y)
    }
    pub fn and(a: &[u32], b: &[u32]) -> Vec<u32> {
        merge(a, b, |x, y| x && y)
    }
    pub fn andnot(a: &[u32], b: &[u32]) -> Vec<u32> {
        merge(a, b, |x, y| x && !y)
    }
    pub fn xor(a: &[u32], b: &[u32]) -> Vec<u32> {
        merge(a, b, |x, y| x != y)
    }
    pub fn or_many(sets: &[Vec<u32>]) -> Vec<u32> {
        sets.iter().fold(Vec::new(), |acc, s| or(&acc, s))
    }
    /// Members ≤ `addr`.
    pub fn rank(a: &[u32], addr: u32) -> u64 {
        a.partition_point(|&x| x <= addr) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let a = query_mix(&ALL_PROTOCOLS[..3], 1 << 16, "observed", 7);
        assert_eq!(a, query_mix(&ALL_PROTOCOLS[..3], 1 << 16, "observed", 7));
        assert_ne!(a, query_mix(&ALL_PROTOCOLS[..3], 1 << 16, "observed", 8));
        assert_eq!(a.len(), 468);
        let mut sorted = a.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 468, "every query of the mix is distinct");
        let s = Seeds::new(2020);
        let t = Seeds::new(2020);
        assert_eq!((s.world, s.scan, s.views), (t.world, t.scan, t.views));
        assert_ne!(s.world, Seeds::new(2021).world);
    }

    #[test]
    fn oracle_set_algebra() {
        let a = [1, 3, 5, 7];
        let b = [3, 4, 5, 9];
        assert_eq!(oracle::or(&a, &b), [1, 3, 4, 5, 7, 9]);
        assert_eq!(oracle::and(&a, &b), [3, 5]);
        assert_eq!(oracle::andnot(&a, &b), [1, 7]);
        assert_eq!(oracle::xor(&a, &b), [1, 4, 7, 9]);
        assert_eq!(
            oracle::or_many(&[a.to_vec(), b.to_vec(), vec![0]]),
            [0, 1, 3, 4, 5, 7, 9]
        );
        assert_eq!(oracle::rank(&a, 5), 3);
        assert_eq!(oracle::rank(&a, 0), 0);
    }

    #[test]
    fn views_cover_every_key_and_container_kind() {
        let world = build_world(3, 256);
        let v = synthetic_views(&world, &ALL_PROTOCOLS, 11, true);
        assert_eq!(v.store.len(), 5 * 3 * 7 + 1);
        assert_eq!(v.oracle_members.len(), 7);
        let stats = v.store.stats();
        assert!(stats.array_containers > 0, "{stats:?}");
        assert!(stats.bitmap_containers > 0, "{stats:?}");
        assert!(stats.run_containers > 0, "{stats:?}");
        let total: u64 = v.store.iter().map(|(_, s)| s.cardinality()).sum();
        assert_eq!(total, v.total_members);
    }
}
