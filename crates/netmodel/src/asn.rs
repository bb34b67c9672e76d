//! Autonomous systems: categories, policy tags, and the named-AS
//! catalogue.
//!
//! The paper's findings repeatedly hinge on the behaviour of *specific*
//! networks — DXTL blocking Censys and thereby blacking out much of
//! Bangladesh and South Africa, Telecom Italia's Germany-hostile paths,
//! Alibaba's temporal SSH blocking, WebCentral's Australia-only hosting,
//! and so on. We model each of those as a named AS with explicit policy
//! tags; the rest of the address space is filled with generated ASes whose
//! sizes follow a Zipf-like law within each country.

use crate::geo::{self, Country};

/// Business category of an AS; drives service density and the *kind* of
/// blocking the network is likely to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Category {
    /// Hosting / colocation providers (dense services, aggressive ops).
    Hosting,
    /// Hyperscale clouds.
    Cloud,
    /// Content delivery networks.
    Cdn,
    /// Consumer/business ISPs.
    Isp,
    /// Backbone / transit carriers.
    Telecom,
    /// Government networks (§4.2: 40 % of networks blocking Censys).
    Government,
    /// Financial companies (§4.2: block Brazil).
    Finance,
    /// Healthcare companies (§4.2: block Brazil).
    Health,
    /// Consumer businesses (Jack in the Box…).
    Consumer,
    /// Digital media (Tegna…).
    Media,
    /// Universities and research networks.
    Education,
}

impl Category {
    /// Per-protocol service density (fraction of the AS's addresses that
    /// run the service): (HTTP, HTTPS, SSH).
    pub(crate) fn densities(self) -> (f64, f64, f64) {
        match self {
            Category::Hosting => (0.085, 0.060, 0.040),
            Category::Cloud => (0.075, 0.060, 0.035),
            Category::Cdn => (0.14, 0.13, 0.002),
            Category::Isp => (0.022, 0.012, 0.006),
            Category::Telecom => (0.015, 0.009, 0.005),
            Category::Government => (0.030, 0.028, 0.008),
            Category::Finance => (0.030, 0.032, 0.006),
            Category::Health => (0.028, 0.028, 0.006),
            Category::Consumer => (0.030, 0.024, 0.004),
            Category::Media => (0.035, 0.030, 0.004),
            Category::Education => (0.030, 0.020, 0.012),
        }
    }
}

/// Policy/behaviour tags attached to ASes (bit set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AsTags(pub u32);

impl AsTags {
    /// Permanently blocks the Censys scan ranges (>99.99 % of hosts).
    pub(crate) const BLOCKS_CENSYS: u32 = 1 << 0;
    /// Blocks Censys with a ramp: 90 % in trial 1 → 100 % by trial 3 (EGI).
    pub(crate) const CENSYS_RAMP: u32 = 1 << 1;
    /// Hosts (a fraction of the AS, `geo_fraction`) only reachable from
    /// the AS's primary country.
    pub(crate) const COUNTRY_ONLY: u32 = 1 << 2;
    /// Blocks Brazil and Japan (the Eastern-European hosting pattern).
    pub(crate) const BLOCKS_BR_JP: u32 = 1 << 3;
    /// Only reachable from Brazil; serves everyone else nothing (WA K-20
    /// serves Brazil a "Blocked Site" page and drops other origins).
    pub(crate) const BR_ONLY: u32 = 1 << 4;
    /// Blocks every non-US origin (Tegna).
    pub(crate) const BLOCKS_NON_US: u32 = 1 << 5;
    /// ABCDE Group behaviour: drops HTTP from US₁/US₆₄/BR/Censys.
    pub(crate) const ABCDE_BLOCK: u32 = 1 << 6;
    /// Rate-based IDS: detects and persistently blocks single-source-IP
    /// scanners a couple of hours into their first scan (Ruhr-Uni Bochum).
    pub(crate) const IDS: u32 = 1 << 7;
    /// SSH-only rate-based IDS (SK Broadband).
    pub(crate) const IDS_SSH: u32 = 1 << 8;
    /// Alibaba temporal SSH blocking: network-wide RST-after-handshake
    /// once scanning is detected, non-deterministic per origin and trial.
    pub const ALIBABA_SSH: u32 = 1 << 9;
    /// Unusually high share of MaxStartups-sensitive OpenSSH hosts (EGI,
    /// Psychz — the §6 retry experiment's top networks).
    pub(crate) const MAXSTARTUPS_HEAVY: u32 = 1 << 10;
    /// Anycast CDN whose geolocation is unreliable; a small subset is
    /// misconfigured to be Australia-only (the Cloudflare finding, §4.4).
    pub(crate) const ANYCAST_GEO: u32 = 1 << 11;
    /// Chinese-path behaviour: high, unstable transnational packet loss
    /// from every origin (Zhu et al., confirmed in §5.2).
    pub(crate) const CHINA_PATH: u32 = 1 << 12;
    /// Telecom-Italia path behaviour: extreme loss from Germany,
    /// near-zero loss from Brazil (TIM Brasil is a TI subsidiary).
    pub(crate) const TI_PATH: u32 = 1 << 13;
    /// Persistently congested from Australia (Rostelecom/Kazakhtelecom —
    /// the §5.1 "consistent worst origin" pattern).
    pub(crate) const AU_WORST: u32 = 1 << 14;

    /// Does this tag set contain `bit`?
    pub fn has(self, bit: u32) -> bool {
        self.0 & bit != 0
    }
}

/// One autonomous system in the simulated Internet.
#[derive(Debug, Clone)]
pub struct AsRecord {
    /// Dense index into `World::ases`.
    pub index: u32,
    /// Displayed AS number.
    pub(crate) asn: u32,
    /// Display name.
    pub name: String,
    /// Primary registration country.
    pub(crate) country: Country,
    /// Business category.
    pub(crate) category: Category,
    /// First /24 index owned by this AS (ASes own contiguous runs).
    pub first_slash24: u32,
    /// Number of /24s owned.
    pub n_slash24: u32,
    /// Policy tags.
    pub tags: AsTags,
    /// For `COUNTRY_ONLY`: fraction of the AS's /24s that are restricted.
    pub(crate) geo_fraction: f64,
    /// Optional country mix: /24s geolocate across these countries with
    /// the given weights (multi-country providers like DXTL).
    pub(crate) country_mix: Option<Vec<(Country, f64)>>,
    /// True for generated tail ASes; false for the named catalogue, whose
    /// blocking policies are fully specified by `tags` (generic
    /// reputation-blocking channels only apply to generated ASes).
    pub(crate) generated: bool,
}

/// Specification of a named AS before space is allotted.
#[derive(Debug, Clone)]
pub(crate) struct NamedAsSpec {
    /// Display name (as used in the paper's tables/figures).
    pub(crate) name: &'static str,
    /// AS number.
    pub(crate) asn: u32,
    /// Primary country.
    pub(crate) country: Country,
    /// Category.
    pub(crate) category: Category,
    /// Share of the total /24 space, in per-mille.
    pub(crate) share_permille: f64,
    /// Policy tags.
    pub(crate) tags: u32,
    /// Fraction of /24s affected by COUNTRY_ONLY (1.0 = whole AS).
    pub(crate) geo_fraction: f64,
    /// Country mix, if the AS announces space geolocating elsewhere.
    pub(crate) country_mix: Option<&'static [(Country, f64)]>,
}

/// The named-AS catalogue. Shares are loosely proportional to the
/// footprint the paper reports for each network; what matters downstream
/// is the ordering and rough ratios, not absolute sizes.
pub(crate) fn named_ases() -> Vec<NamedAsSpec> {
    use Category::*;
    const DXTL_MIX: &[(Country, f64)] = &[
        (geo::HK, 0.50),
        (geo::ZA, 0.22),
        (geo::BD, 0.21),
        (geo::MN, 0.05),
        (geo::MW, 0.02),
    ];
    const GATEWAY_MIX: &[(Country, f64)] = &[(geo::US, 0.85), (geo::JP, 0.15)];
    const SPARKLE_MIX: &[(Country, f64)] = &[(geo::IT, 0.7), (geo::GR, 0.15), (geo::TN, 0.15)];
    let t = |bits: u32| bits;
    vec![
        NamedAsSpec {
            name: "HZ Alibaba Advertising",
            asn: 37963,
            country: geo::CN,
            category: Cloud,
            share_permille: 18.0,
            tags: t(AsTags::ALIBABA_SSH | AsTags::CHINA_PATH),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Alibaba US Technology",
            asn: 45102,
            country: geo::CN,
            category: Cloud,
            share_permille: 6.0,
            tags: t(AsTags::ALIBABA_SSH | AsTags::CHINA_PATH),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "DXTL Tseung Kwan O Service",
            asn: 134548,
            country: geo::HK,
            category: Hosting,
            share_permille: 7.0,
            tags: t(AsTags::BLOCKS_CENSYS),
            geo_fraction: 0.0,
            country_mix: Some(DXTL_MIX),
        },
        NamedAsSpec {
            name: "EGI Hosting",
            asn: 32181,
            country: geo::US,
            category: Hosting,
            share_permille: 4.0,
            tags: t(AsTags::CENSYS_RAMP | AsTags::MAXSTARTUPS_HEAVY),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Enzu",
            asn: 18978,
            country: geo::US,
            category: Hosting,
            share_permille: 4.0,
            tags: t(AsTags::BLOCKS_CENSYS),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Telecom Italia",
            asn: 3269,
            country: geo::IT,
            category: Isp,
            share_permille: 12.0,
            tags: t(AsTags::TI_PATH),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Telecom Italia Sparkle",
            asn: 6762,
            country: geo::IT,
            category: Telecom,
            share_permille: 4.0,
            tags: t(AsTags::TI_PATH),
            geo_fraction: 0.0,
            country_mix: Some(SPARKLE_MIX),
        },
        NamedAsSpec {
            name: "Akamai",
            asn: 20940,
            country: geo::US,
            category: Cdn,
            share_permille: 16.0,
            tags: 0,
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "ABCDE Group Company Limited",
            asn: 133201,
            country: geo::HK,
            category: Cloud,
            share_permille: 4.0,
            tags: t(AsTags::ABCDE_BLOCK),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Psychz Networks",
            asn: 40676,
            country: geo::US,
            category: Hosting,
            share_permille: 5.0,
            tags: t(AsTags::MAXSTARTUPS_HEAVY),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Tencent",
            asn: 45090,
            country: geo::CN,
            category: Cloud,
            share_permille: 10.0,
            tags: t(AsTags::CHINA_PATH),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "China Telecom",
            asn: 4134,
            country: geo::CN,
            category: Isp,
            share_permille: 20.0,
            tags: t(AsTags::CHINA_PATH),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "China Unicom",
            asn: 4837,
            country: geo::CN,
            category: Isp,
            share_permille: 12.0,
            tags: t(AsTags::CHINA_PATH),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Amazon",
            asn: 16509,
            country: geo::US,
            category: Cloud,
            share_permille: 25.0,
            tags: 0,
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Google",
            asn: 15169,
            country: geo::US,
            category: Cloud,
            share_permille: 12.0,
            tags: 0,
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "DigitalOcean",
            asn: 14061,
            country: geo::US,
            category: Cloud,
            share_permille: 10.0,
            tags: 0,
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Cloudflare",
            asn: 13335,
            country: geo::US,
            category: Cdn,
            share_permille: 10.0,
            tags: t(AsTags::ANYCAST_GEO),
            geo_fraction: 0.006,
            country_mix: None,
        },
        NamedAsSpec {
            name: "WebCentral",
            asn: 7496,
            country: geo::AU,
            category: Hosting,
            share_permille: 1.1,
            tags: t(AsTags::COUNTRY_ONLY),
            geo_fraction: 1.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Bekkoame Internet",
            asn: 2510,
            country: geo::JP,
            category: Hosting,
            share_permille: 5.0,
            tags: t(AsTags::COUNTRY_ONLY),
            geo_fraction: 0.10,
            country_mix: None,
        },
        NamedAsSpec {
            name: "NTT Communications",
            asn: 4713,
            country: geo::JP,
            category: Isp,
            share_permille: 12.0,
            tags: t(AsTags::COUNTRY_ONLY),
            geo_fraction: 0.025,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Gateway Inc",
            asn: 132827,
            country: geo::JP,
            category: Hosting,
            share_permille: 1.0,
            tags: t(AsTags::COUNTRY_ONLY),
            geo_fraction: 1.0,
            country_mix: Some(GATEWAY_MIX),
        },
        NamedAsSpec {
            name: "SantaPlus",
            asn: 49335,
            country: geo::RU,
            category: Hosting,
            share_permille: 0.8,
            tags: t(AsTags::BLOCKS_BR_JP),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "EstHost",
            asn: 207656,
            country: geo::EE,
            category: Hosting,
            share_permille: 0.4,
            tags: t(AsTags::BLOCKS_BR_JP),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "UkrDatacenter",
            asn: 48031,
            country: geo::UA,
            category: Hosting,
            share_permille: 0.6,
            tags: t(AsTags::BLOCKS_BR_JP),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "RoHost",
            asn: 39743,
            country: geo::RO,
            category: Hosting,
            share_permille: 0.6,
            tags: t(AsTags::BLOCKS_BR_JP),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "WA K-20 Telecommunications",
            asn: 2552,
            country: geo::US,
            category: Education,
            share_permille: 0.8,
            tags: t(AsTags::BR_ONLY),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Tegna Inc",
            asn: 396986,
            country: geo::US,
            category: Media,
            share_permille: 0.7,
            tags: t(AsTags::BLOCKS_NON_US),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Jack in the Box",
            asn: 46603,
            country: geo::US,
            category: Consumer,
            share_permille: 0.25,
            tags: t(AsTags::BLOCKS_CENSYS),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Ruhr-Universitaet Bochum",
            asn: 29484,
            country: geo::DE,
            category: Education,
            share_permille: 0.6,
            tags: t(AsTags::IDS),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "SK Broadband",
            asn: 9318,
            country: geo::KR,
            category: Isp,
            share_permille: 10.0,
            tags: t(AsTags::IDS_SSH),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Rostelecom",
            asn: 12389,
            country: geo::RU,
            category: Isp,
            share_permille: 10.0,
            tags: t(AsTags::AU_WORST),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Kazakhtelecom",
            asn: 9198,
            country: geo::KZ,
            category: Isp,
            share_permille: 4.0,
            tags: t(AsTags::AU_WORST),
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "BTCL Bangladesh",
            asn: 17494,
            country: geo::BD,
            category: Isp,
            share_permille: 1.5,
            tags: 0,
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Telkom SA",
            asn: 5713,
            country: geo::ZA,
            category: Isp,
            share_permille: 2.5,
            tags: 0,
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "OVH",
            asn: 16276,
            country: geo::FR,
            category: Hosting,
            share_permille: 12.0,
            tags: 0,
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Hetzner",
            asn: 24940,
            country: geo::DE,
            category: Hosting,
            share_permille: 10.0,
            tags: 0,
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Comcast",
            asn: 7922,
            country: geo::US,
            category: Isp,
            share_permille: 15.0,
            tags: 0,
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Deutsche Telekom",
            asn: 3320,
            country: geo::DE,
            category: Isp,
            share_permille: 10.0,
            tags: 0,
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "KDDI",
            asn: 2516,
            country: geo::JP,
            category: Isp,
            share_permille: 8.0,
            tags: 0,
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Telstra",
            asn: 1221,
            country: geo::AU,
            category: Isp,
            share_permille: 5.0,
            tags: 0,
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Libya Telecom",
            asn: 21003,
            country: geo::LY,
            category: Isp,
            share_permille: 0.35,
            tags: 0,
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Libyan Spider",
            asn: 37284,
            country: geo::LY,
            category: Hosting,
            share_permille: 0.25,
            tags: 0,
            geo_fraction: 0.0,
            country_mix: None,
        },
        NamedAsSpec {
            name: "Aljeel Aljadeed",
            asn: 37558,
            country: geo::LY,
            category: Isp,
            share_permille: 0.2,
            tags: 0,
            geo_fraction: 0.0,
            country_mix: None,
        },
    ]
}

#[cfg(test)]
impl AsRecord {
    /// Is /24 index `s24` (global index) owned by this AS?
    pub(crate) fn owns(&self, s24: u32) -> bool {
        s24 >= self.first_slash24 && s24 < self.first_slash24 + self.n_slash24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_ases_have_unique_asns_and_names() {
        let ases = named_ases();
        let mut asns: Vec<u32> = ases.iter().map(|a| a.asn).collect();
        asns.sort_unstable();
        asns.dedup();
        assert_eq!(asns.len(), ases.len());
        let mut names: Vec<&str> = ases.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ases.len());
    }

    #[test]
    fn named_share_leaves_room_for_generated_tail() {
        let total: f64 = named_ases().iter().map(|a| a.share_permille).sum();
        assert!(total < 400.0, "named ASes claim {total}‰ — too much");
        assert!(total > 100.0, "named ASes claim {total}‰ — too little");
    }

    #[test]
    fn country_mixes_sum_to_one() {
        for a in named_ases() {
            if let Some(mix) = a.country_mix {
                let s: f64 = mix.iter().map(|&(_, w)| w).sum();
                assert!((s - 1.0).abs() < 1e-9, "{}: mix sums to {s}", a.name);
            }
        }
    }

    #[test]
    fn policy_tags_present_where_paper_needs_them() {
        let ases = named_ases();
        let by_name = |n: &str| ases.iter().find(|a| a.name == n).unwrap();
        assert!(AsTags(by_name("DXTL Tseung Kwan O Service").tags).has(AsTags::BLOCKS_CENSYS));
        assert!(AsTags(by_name("EGI Hosting").tags).has(AsTags::CENSYS_RAMP));
        assert!(AsTags(by_name("HZ Alibaba Advertising").tags).has(AsTags::ALIBABA_SSH));
        assert!(AsTags(by_name("WebCentral").tags).has(AsTags::COUNTRY_ONLY));
        assert_eq!(by_name("WebCentral").geo_fraction, 1.0);
        assert!(AsTags(by_name("Telecom Italia").tags).has(AsTags::TI_PATH));
        assert!(AsTags(by_name("Ruhr-Universitaet Bochum").tags).has(AsTags::IDS));
        assert!(AsTags(by_name("SK Broadband").tags).has(AsTags::IDS_SSH));
        assert!(AsTags(by_name("Rostelecom").tags).has(AsTags::AU_WORST));
    }

    #[test]
    fn densities_order_http_ge_https_ge_ssh() {
        for c in [
            Category::Hosting,
            Category::Cloud,
            Category::Cdn,
            Category::Isp,
            Category::Telecom,
            Category::Government,
            Category::Consumer,
            Category::Media,
            Category::Education,
        ] {
            let (h, s, ssh) = c.densities();
            assert!(h >= s, "{c:?}");
            assert!(s >= ssh, "{c:?}");
        }
    }

    #[test]
    fn tag_bits_distinct() {
        let bits = [
            AsTags::BLOCKS_CENSYS,
            AsTags::CENSYS_RAMP,
            AsTags::COUNTRY_ONLY,
            AsTags::BLOCKS_BR_JP,
            AsTags::BR_ONLY,
            AsTags::BLOCKS_NON_US,
            AsTags::ABCDE_BLOCK,
            AsTags::IDS,
            AsTags::IDS_SSH,
            AsTags::ALIBABA_SSH,
            AsTags::MAXSTARTUPS_HEAVY,
            AsTags::ANYCAST_GEO,
            AsTags::CHINA_PATH,
            AsTags::TI_PATH,
            AsTags::AU_WORST,
        ];
        let mut acc = 0u32;
        for b in bits {
            assert_eq!(acc & b, 0, "overlapping tag bits");
            acc |= b;
        }
    }
}
