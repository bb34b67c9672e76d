//! The simulated Internet: configuration, generation, and lookups.
//!
//! A [`World`] is a scaled-down IPv4 universe. The address space is a
//! contiguous range `0..slash24s*256`; each /24 belongs to exactly one AS
//! (ASes own contiguous runs of /24s, like real allocations); each AS has
//! a country, a business category, and policy tags. Service deployment,
//! churn, and all behaviour are deterministic functions of the seed.
//!
//! Scale presets: [`WorldConfig::tiny`] (2¹⁶ addresses, unit tests) up to
//! [`WorldConfig::full`] (2²⁴ addresses — "mini-IPv4", 1/256 of the real
//! space, used for the headline reproduction).

use crate::asn::{named_ases, AsRecord, AsTags, Category};
use crate::geo::{self, Country};
use crate::host::{self, Protocol};
use crate::rng::{Det, Keyed, Tag};

/// World generation parameters.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Seed for all deterministic decisions.
    pub seed: u64,
    /// Number of /24 networks (address space = `slash24s * 256`).
    pub slash24s: u32,
    /// Fraction of hosts online in every trial (the rest churn).
    pub stable_host_fraction: f64,
    /// Probability an unstable host is online in a given trial.
    pub churn_alive_prob: f64,
    /// Global multiplier on per-category service densities.
    pub density_scale: f64,
    /// Probability an address outside the TCP-trio union additionally
    /// answers ICMP echo (every trio host always pings; this adds the
    /// firewalled-but-pingable tail).
    pub icmp_extra_density: f64,
    /// Per-address density of DNS resolvers listening on UDP/53.
    pub dns_density: f64,
    /// Ablation: replace correlated per-host transient loss with an
    /// equivalent i.i.d. per-probe drop (the assumption the original ZMap
    /// coverage estimate made, which §7 refutes).
    pub uniform_loss: bool,
}

impl WorldConfig {
    fn preset(seed: u64, slash24s: u32) -> Self {
        Self {
            seed,
            slash24s,
            stable_host_fraction: 0.92,
            churn_alive_prob: 0.55,
            density_scale: 1.0,
            icmp_extra_density: 0.02,
            dns_density: 0.006,
            uniform_loss: false,
        }
    }

    /// 2¹⁶ addresses (256 /24s) — unit-test scale.
    pub fn tiny(seed: u64) -> Self {
        Self::preset(seed, 256)
    }

    /// 2²⁰ addresses (4 096 /24s) — integration-test scale.
    pub fn small(seed: u64) -> Self {
        Self::preset(seed, 4_096)
    }

    /// 2²² addresses (16 384 /24s) — bench/figure scale.
    pub fn medium(seed: u64) -> Self {
        Self::preset(seed, 16_384)
    }

    /// 2²⁴ addresses (65 536 /24s) — headline reproduction scale.
    pub fn full(seed: u64) -> Self {
        Self::preset(seed, 65_536)
    }

    /// Generate the world.
    pub fn build(self) -> World {
        World::generate(self)
    }
}

/// The generated universe.
#[derive(Debug)]
pub struct World {
    /// Generation parameters.
    pub config: WorldConfig,
    /// All ASes, named first, then the generated tail.
    pub ases: Vec<AsRecord>,
    /// AS index per /24.
    slash24_as: Vec<u32>,
    /// Geolocated country per /24 (includes multi-country mixes and
    /// anycast geolocation noise).
    slash24_country: Vec<Country>,
    /// Sorted deployed addresses per protocol
    /// (HTTP, HTTPS, SSH, ICMP, DNS).
    hosts: [Vec<u32>; PROTO_SLOTS],
    /// Presence bitmaps per protocol, 1 bit per address.
    bitmaps: [Vec<u64>; PROTO_SLOTS],
    /// The deterministic hash stream.
    det: Det,
    /// [`router_key`](World::router_key), chained once per build.
    router: Keyed,
}

/// Number of per-protocol slots ([`proto_slot`]'s range).
pub(crate) const PROTO_SLOTS: usize = 5;

/// Dense index of a protocol, for per-protocol arrays.
pub(crate) fn proto_slot(p: Protocol) -> usize {
    match p {
        Protocol::Http => 0,
        Protocol::Https => 1,
        Protocol::Ssh => 2,
        Protocol::Icmp => 3,
        Protocol::Dns => 4,
    }
}

impl World {
    #[expect(clippy::indexing_slicing, reason = "tables sized before filling")]
    fn generate(config: WorldConfig) -> World {
        assert!(config.slash24s >= 64, "world too small to be interesting");
        let det = Det::new(config.seed);
        let total = config.slash24s;

        // --- Allocate /24s to ASes -------------------------------------
        let mut ases: Vec<AsRecord> = Vec::new();
        let mut next_s24: u32 = 0;

        // Named ASes first: share_permille of the space, at least one /24.
        for spec in named_ases() {
            let want = ((spec.share_permille / 1000.0) * total as f64).round() as u32;
            let n = want.max(1).min(total - next_s24);
            if n == 0 {
                break;
            }
            ases.push(AsRecord {
                index: ases.len() as u32,
                asn: spec.asn,
                name: spec.name.to_string(),
                country: spec.country,
                category: spec.category,
                first_slash24: next_s24,
                n_slash24: n,
                tags: AsTags(spec.tags),
                geo_fraction: spec.geo_fraction,
                country_mix: spec.country_mix.map(|m| m.to_vec()),
                generated: false,
            });
            next_s24 += n;
        }

        // Generated tail: partition remaining /24s among countries by
        // weight, then split each country's allotment into Zipf-ish ASes.
        let remaining = total - next_s24;
        let weight_total = geo::total_weight();
        let mut asn_counter = 210_000u32;
        let mut leftover: f64 = 0.0;
        for (ci, &(country, w)) in geo::ALL.iter().enumerate() {
            let exact = remaining as f64 * w / weight_total + leftover;
            let mut quota = exact.floor() as u32;
            leftover = exact - quota as f64;
            quota = quota.min(total - next_s24);
            let mut k = 0u64;
            while quota > 0 {
                // Pareto-ish sizes: heavy tail, minimum 1.
                let u = det.uniform(Tag::Structure, &[1, ci as u64, k]);
                let size = ((1.0 / (1.0 - u).powf(0.9)).round() as u32).clamp(1, quota.max(1));
                let size = size.min(quota);
                let category = generated_category(&det, ci as u64, k);
                ases.push(AsRecord {
                    index: ases.len() as u32,
                    asn: asn_counter,
                    name: format!("{}-NET-{}", country.code(), k),
                    country,
                    category,
                    first_slash24: next_s24,
                    n_slash24: size,
                    tags: AsTags::default(),
                    geo_fraction: 0.0,
                    country_mix: None,
                    generated: true,
                });
                asn_counter += 1;
                next_s24 += size;
                quota -= size;
                k += 1;
            }
        }
        // Any rounding remainder joins the last AS.
        if let Some(last) = ases.last_mut().filter(|_| next_s24 < total) {
            last.n_slash24 += total - next_s24;
        }

        // --- Per-/24 lookup tables ---------------------------------------
        let mut slash24_as = vec![0u32; total as usize];
        let mut slash24_country = vec![geo::US; total as usize];
        for a in &ases {
            for s in a.first_slash24..a.first_slash24 + a.n_slash24 {
                slash24_as[s as usize] = a.index;
                slash24_country[s as usize] = per_s24_country(&det, a, s);
            }
        }

        // --- Service deployment ------------------------------------------
        let space = u64::from(total) * 256;
        let mut hosts: [Vec<u32>; 5] = std::array::from_fn(|_| Vec::new());
        let mut bitmaps: [Vec<u64>; 5] =
            std::array::from_fn(|_| vec![0u64; space.div_ceil(64) as usize]);
        for s24 in 0..total {
            let a = &ases[slash24_as[s24 as usize] as usize];
            let (dh, ds, dssh) = a.category.densities();
            let dens = [
                dh * config.density_scale,
                ds * config.density_scale,
                dssh * config.density_scale,
            ];
            for off in 0..256u32 {
                let addr = s24 * 256 + off;
                let mut any_tcp = false;
                for (slot, p) in [Protocol::Http, Protocol::Https, Protocol::Ssh]
                    .into_iter()
                    .enumerate()
                {
                    if det.bernoulli(
                        Tag::HostExists,
                        &[u64::from(addr), host::proto_key(p)],
                        dens[slot],
                    ) {
                        hosts[slot].push(addr);
                        bitmaps[slot][(addr / 64) as usize] |= 1 << (addr % 64);
                        any_tcp = true;
                    }
                }
                // ICMP echo: every machine that serves the TCP trio also
                // answers ping, plus a firewalled-but-pingable tail.
                // DNS/UDP resolvers are an independent (sparser) roster.
                // Keyed draws (proto keys 1 and 53) cannot collide with
                // the trio's 80/443/22, so the trio byte stream above is
                // untouched by these additions.
                let icmp = any_tcp
                    || det.bernoulli(
                        Tag::HostExists,
                        &[u64::from(addr), host::proto_key(Protocol::Icmp)],
                        config.icmp_extra_density,
                    );
                if icmp {
                    let slot = proto_slot(Protocol::Icmp);
                    hosts[slot].push(addr);
                    bitmaps[slot][(addr / 64) as usize] |= 1 << (addr % 64);
                }
                if det.bernoulli(
                    Tag::HostExists,
                    &[u64::from(addr), host::proto_key(Protocol::Dns)],
                    config.dns_density * config.density_scale,
                ) {
                    let slot = proto_slot(Protocol::Dns);
                    hosts[slot].push(addr);
                    bitmaps[slot][(addr / 64) as usize] |= 1 << (addr % 64);
                }
            }
        }

        World {
            config,
            ases,
            slash24_as,
            slash24_country,
            hosts,
            bitmaps,
            // The leading word 2 keeps router draws apart from the
            // closed-port draws of the same tag.
            router: det.keyed(Tag::ClosedPort, &[2]),
            det,
        }
    }

    /// Number of addresses in the space.
    pub fn space(&self) -> u64 {
        u64::from(self.config.slash24s) * 256
    }

    /// The deterministic hash stream rooted at the world seed.
    pub fn det(&self) -> &Det {
        &self.det
    }

    /// The stream of last-hop router draws (ICMP echoes to missing
    /// machines): [`Tag::ClosedPort`] with its constant leading key word
    /// chained in, so each draw chains only the address and protocol.
    pub(crate) fn router_key(&self) -> Keyed {
        self.router
    }

    /// /24 index of an address.
    pub fn s24_of(&self, addr: u32) -> u32 {
        addr / 256
    }

    /// AS index of an address.
    ///
    /// # Panics
    /// When `addr` is outside the world (`addr >= self.space()`).
    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass addresses of this world: `is_host` said yes, or `dst < space()`"
    )]
    pub fn as_index_of(&self, addr: u32) -> u32 {
        self.slash24_as[(addr / 256) as usize]
    }

    /// AS record of an address.
    ///
    /// # Panics
    /// When `addr` is outside the world (`addr >= self.space()`).
    #[expect(
        clippy::indexing_slicing,
        reason = "`slash24_as` holds indices of `ases`, written once at build"
    )]
    pub fn as_of(&self, addr: u32) -> &AsRecord {
        &self.ases[self.as_index_of(addr) as usize]
    }

    /// Geolocated country of an address (what MaxMind would say).
    #[expect(clippy::indexing_slicing, reason = "one entry per /24")]
    pub fn country_of(&self, addr: u32) -> Country {
        self.slash24_country[(addr / 256) as usize]
    }

    /// All deployed addresses for a protocol (sorted).
    pub fn hosts(&self, p: Protocol) -> &[u32] {
        self.hosts.get(proto_slot(p)).map_or(&[], Vec::as_slice)
    }

    /// O(1): does any host run `p` at `addr`? An address outside the
    /// world hosts nothing.
    pub fn is_host(&self, p: Protocol, addr: u32) -> bool {
        self.bitmaps
            .get(proto_slot(p))
            .and_then(|bm| bm.get((addr / 64) as usize))
            .is_some_and(|word| word & (1 << (addr % 64)) != 0)
    }

    /// Churn: is the host at `addr` online during `trial`?
    pub fn alive(&self, p: Protocol, addr: u32, trial: u8) -> bool {
        host::alive_in_trial(
            &self.det,
            addr,
            p,
            trial,
            self.config.stable_host_fraction,
            self.config.churn_alive_prob,
        )
    }

    /// Look up an AS by display name (analysis convenience).
    pub fn as_by_name(&self, name: &str) -> Option<&AsRecord> {
        self.ases.iter().find(|a| a.name == name)
    }

    /// Total deployed hosts per protocol.
    pub fn host_count(&self, p: Protocol) -> usize {
        self.hosts(p).len()
    }

    /// Render the AS inventory as TSV: one row per AS with its ASN, name,
    /// country, category, size, tags, and deployed host counts. Mirrors
    /// the routing-table snapshot + GeoIP join the paper's analysis
    /// pipeline starts from, and makes the synthetic universe inspectable
    /// with ordinary command-line tools.
    pub fn inventory_tsv(&self) -> String {
        let mut out = String::from(
            "asn\tname\tcountry\tcategory\tslash24s\tgenerated\ttags\thttp\thttps\tssh\ticmp\tdns\n",
        );
        for a in &self.ases {
            let lo = a.first_slash24 * 256;
            let hi = lo + a.n_slash24 * 256;
            let in_range = |hosts: &[u32]| {
                let s = hosts.partition_point(|&h| h < lo);
                let e = hosts.partition_point(|&h| h < hi);
                e - s
            };
            use std::fmt::Write as _;
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{:?}\t{}\t{}\t{:#06x}\t{}\t{}\t{}\t{}\t{}",
                a.asn,
                a.name,
                a.country,
                a.category,
                a.n_slash24,
                a.generated,
                a.tags.0,
                in_range(&self.hosts[0]),
                in_range(&self.hosts[1]),
                in_range(&self.hosts[2]),
                in_range(&self.hosts[3]),
                in_range(&self.hosts[4]),
            );
        }
        out
    }
}

/// Category distribution for generated ASes.
fn generated_category(det: &Det, country_idx: u64, k: u64) -> Category {
    let u = det.uniform(Tag::Structure, &[2, country_idx, k]);
    // Cumulative weights; ISPs and hosting dominate, with enough
    // finance/health/government/media mass for the §4.2 blocking patterns.
    match (u * 1000.0) as u32 {
        0..=329 => Category::Isp,
        330..=569 => Category::Hosting,
        570..=639 => Category::Cloud,
        640..=709 => Category::Education,
        710..=769 => Category::Government,
        770..=839 => Category::Finance,
        840..=889 => Category::Health,
        890..=944 => Category::Consumer,
        945..=979 => Category::Media,
        _ => Category::Telecom,
    }
}

/// Country a /24 geolocates to, honoring multi-country mixes and anycast
/// geolocation noise.
fn per_s24_country(det: &Det, a: &AsRecord, s24: u32) -> Country {
    if let Some((&(last, _), head)) = a.country_mix.as_ref().and_then(|m| m.split_last()) {
        let u = det.uniform(Tag::Structure, &[3, u64::from(s24)]);
        let mut acc = 0.0;
        for &(c, w) in head {
            acc += w;
            if u < acc {
                return c;
            }
        }
        return last;
    }
    if a.tags.has(AsTags::ANYCAST_GEO) {
        // Anycast: geolocation scatters across the big web countries.
        const SCATTER: [(Country, f64); 6] = [
            (geo::US, 0.45),
            (geo::DE, 0.15),
            (geo::GB, 0.12),
            (geo::NL, 0.10),
            (geo::FR, 0.08),
            (geo::AU, 0.10),
        ];
        let u = det.uniform(Tag::GeoError, &[u64::from(s24)]);
        let mut acc = 0.0;
        for (c, w) in SCATTER {
            acc += w;
            if u < acc {
                return c;
            }
        }
        return geo::US;
    }
    a.country
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "tests assert membership/counts only; hash iteration order never escapes"
)]
mod tests {
    use super::*;

    #[test]
    fn space_fully_allocated() {
        let w = WorldConfig::tiny(1).build();
        let total: u32 = w.ases.iter().map(|a| a.n_slash24).sum();
        assert_eq!(total, w.config.slash24s);
        // Contiguous, non-overlapping.
        let mut next = 0;
        for a in &w.ases {
            assert_eq!(a.first_slash24, next);
            next += a.n_slash24;
        }
    }

    #[test]
    fn every_named_as_present() {
        let w = WorldConfig::tiny(1).build();
        for spec in named_ases() {
            assert!(w.as_by_name(spec.name).is_some(), "{} missing", spec.name);
        }
    }

    #[test]
    fn lookup_consistency() {
        let w = WorldConfig::tiny(2).build();
        for addr in (0..w.space() as u32).step_by(97) {
            let a = w.as_of(addr);
            assert!(a.owns(w.s24_of(addr)));
        }
    }

    #[test]
    fn host_lists_match_bitmaps() {
        let w = WorldConfig::tiny(3).build();
        // Registry-driven: covers every probe module's protocol, so a
        // future module cannot silently miss world-generation coverage.
        for p in originscan_scanner::probe::modules()
            .iter()
            .map(|m| m.protocol())
        {
            let hosts = w.hosts(p);
            assert!(!hosts.is_empty(), "{p}: no hosts at tiny scale");
            assert!(hosts.windows(2).all(|w2| w2[0] < w2[1]), "sorted, unique");
            for &h in hosts {
                assert!(w.is_host(p, h));
            }
            // Count via bitmap equals list length.
            let bm_count: u32 = w.bitmaps[proto_slot(p)]
                .iter()
                .map(|x| x.count_ones())
                .sum();
            assert_eq!(bm_count as usize, hosts.len());
        }
    }

    #[test]
    fn protocol_populations_ordered_like_paper() {
        // Paper ground truth: 58M HTTP > 41M HTTPS > 19.6M SSH (~3:2:1).
        let w = WorldConfig::small(7).build();
        let (h, s, ssh) = (
            w.host_count(Protocol::Http),
            w.host_count(Protocol::Https),
            w.host_count(Protocol::Ssh),
        );
        assert!(h > s && s > ssh, "{h} {s} {ssh}");
        let ratio_hs = h as f64 / s as f64;
        let ratio_hssh = h as f64 / ssh as f64;
        assert!(
            (1.1..2.2).contains(&ratio_hs),
            "HTTP/HTTPS ratio {ratio_hs}"
        );
        assert!(
            (2.0..5.0).contains(&ratio_hssh),
            "HTTP/SSH ratio {ratio_hssh}"
        );
    }

    #[test]
    fn deterministic_generation() {
        let a = WorldConfig::tiny(11).build();
        let b = WorldConfig::tiny(11).build();
        assert_eq!(a.hosts(Protocol::Http), b.hosts(Protocol::Http));
        assert_eq!(a.ases.len(), b.ases.len());
        let c = WorldConfig::tiny(12).build();
        assert_ne!(a.hosts(Protocol::Http), c.hosts(Protocol::Http));
    }

    #[test]
    fn dxtl_spans_hk_za_bd() {
        let w = WorldConfig::medium(5).build();
        let dxtl = w.as_by_name("DXTL Tseung Kwan O Service").unwrap();
        let mut countries = std::collections::HashSet::new();
        for s in dxtl.first_slash24..dxtl.first_slash24 + dxtl.n_slash24 {
            countries.insert(w.slash24_country[s as usize]);
        }
        assert!(countries.contains(&geo::HK));
        assert!(countries.contains(&geo::ZA));
        assert!(countries.contains(&geo::BD));
    }

    #[test]
    fn country_host_distribution_skewed() {
        let w = WorldConfig::small(9).build();
        let mut per_country: std::collections::HashMap<Country, usize> = Default::default();
        for &h in w.hosts(Protocol::Http) {
            *per_country.entry(w.country_of(h)).or_default() += 1;
        }
        let us = per_country.get(&geo::US).copied().unwrap_or(0);
        let total: usize = per_country.values().sum();
        assert!(us as f64 / total as f64 > 0.15, "US share too small");
        assert!(per_country.len() > 30, "want a long tail of countries");
    }

    #[test]
    fn inventory_tsv_well_formed() {
        let w = WorldConfig::tiny(4).build();
        let tsv = w.inventory_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), w.ases.len() + 1);
        assert!(lines[0].starts_with("asn\tname"));
        // Per-AS host counts sum to the global totals.
        let mut sums = [0usize; 5];
        for l in &lines[1..] {
            let f: Vec<&str> = l.split('\t').collect();
            assert_eq!(f.len(), 12, "{l}");
            for (i, field) in f[7..12].iter().enumerate() {
                sums[i] += field.parse::<usize>().unwrap();
            }
        }
        assert_eq!(sums[0], w.host_count(Protocol::Http));
        assert_eq!(sums[1], w.host_count(Protocol::Https));
        assert_eq!(sums[2], w.host_count(Protocol::Ssh));
        assert_eq!(sums[3], w.host_count(Protocol::Icmp));
        assert_eq!(sums[4], w.host_count(Protocol::Dns));
    }

    #[test]
    fn icmp_population_supersets_the_tcp_trio() {
        let w = WorldConfig::tiny(6).build();
        for p in [Protocol::Http, Protocol::Https, Protocol::Ssh] {
            for &h in w.hosts(p) {
                assert!(w.is_host(Protocol::Icmp, h), "{h} serves {p} but no ping");
            }
        }
        // The firewalled-but-pingable tail makes ICMP a strict superset.
        let trio: std::collections::HashSet<u32> = [Protocol::Http, Protocol::Https, Protocol::Ssh]
            .into_iter()
            .flat_map(|p| w.hosts(p).iter().copied())
            .collect();
        assert!(
            w.host_count(Protocol::Icmp) > trio.len(),
            "no ping-only hosts generated"
        );
    }

    #[test]
    fn dns_population_present_and_sparse() {
        let w = WorldConfig::tiny(8).build();
        let dns = w.host_count(Protocol::Dns);
        assert!(dns > 0, "no DNS resolvers at tiny scale");
        assert!(
            dns < w.host_count(Protocol::Http),
            "resolvers should be sparser than web servers"
        );
    }

    #[test]
    fn generated_as_sizes_heavy_tailed() {
        let w = WorldConfig::medium(13).build();
        let named = named_ases().len();
        let gen_sizes: Vec<u32> = w.ases[named..].iter().map(|a| a.n_slash24).collect();
        let max = *gen_sizes.iter().max().unwrap();
        let ones = gen_sizes.iter().filter(|&&s| s == 1).count();
        assert!(max >= 10, "no big generated ASes (max {max})");
        assert!(
            ones as f64 / gen_sizes.len() as f64 > 0.3,
            "no small-AS tail"
        );
    }
}
