//! Scan origins: the vantage points of the study.
//!
//! §2 of the paper: academic networks in Australia, Brazil, Germany,
//! Japan, the United States (once with 1 source IP, once with a contiguous
//! block of 64), plus Censys. The §7 follow-up adds three Tier-1 transit
//! customers collocated in the Chicago Equinix CHI4 data center (Hurricane
//! Electric, NTT, Telia) and a Censys re-run from fresh IP space.
//!
//! Everything origin-dependent in the model hangs off the attributes
//! here: geography (geo policies), scanning *reputation* (long-term
//! blocking), source-IP count (rate-based IDS evasion, §4.3), and the
//! *site* (collocated origins share path components, §7 / Fig 18).

use crate::geo::{self, Country};

/// The vantage points of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OriginId {
    /// University of Sydney (single IP, previously used for scans).
    Australia,
    /// Universidade Federal de Minas Gerais (single fresh IP).
    Brazil,
    /// Max Planck Institute for Informatics (single IP, previously used).
    Germany,
    /// Yokohama National University (single fresh IP).
    Japan,
    /// Stanford University, 1 source IP (fresh IP in a scanning /24).
    Us1,
    /// Stanford University, contiguous block of 64 source IPs.
    Us64,
    /// Censys research server (heavily used, published scan ranges).
    Censys,
    /// Follow-up: Hurricane Electric transit at Equinix CHI4 (fresh /24).
    HurricaneElectric,
    /// Follow-up: NTT transit at Equinix CHI4 (fresh /24).
    NttTransit,
    /// Follow-up: Telia Carrier transit at Equinix CHI4 (fresh /24).
    Telia,
    /// Follow-up: Censys scanning from newly allocated IP ranges.
    CensysFresh,
    /// Carinet, the commercial cloud provider Rapid7's Project Sonar
    /// scans from. The paper used it for a single trial and excluded it
    /// from aggregate statistics; it is available here for the same kind
    /// of side experiment.
    Carinet,
}

/// How much prior scanning the origin's address space is associated with —
/// the reputation axis that drives long-term blocking (§4.1, §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Reputation {
    /// Fresh IP and fresh /24 (Brazil, Japan, the follow-up Tier-1s).
    Fresh,
    /// Fresh IP inside a /24 that regularly scans (US₁/US₆₄).
    ScanningSubnet,
    /// The IP itself has performed individual scans (Australia, Germany).
    PriorScans,
    /// Continuous institutional scanning from published ranges (Censys —
    /// at least 106× more scans than any other origin in the prior
    /// 6 months).
    Continuous,
}

/// A physical location; origins sharing a site share path components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Site {
    /// University of Sydney, AU.
    Sydney,
    /// UFMG, Belo Horizonte, BR.
    BeloHorizonte,
    /// MPI, Saarbrücken, DE.
    Saarbruecken,
    /// Yokohama National University, JP.
    Yokohama,
    /// Stanford University, US (US₁ and US₆₄ share it).
    Stanford,
    /// Censys data center, US.
    CensysDc,
    /// Equinix CHI4, Chicago, US (HE, NTT, Telia all collocated here).
    EquinixChi4,
    /// Carinet data center, US.
    CarinetDc,
}

/// Static description of one origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OriginSpec {
    /// Which origin this is.
    pub(crate) id: OriginId,
    /// Country the origin (and its IP registration) is in.
    pub country: Country,
    /// Physical site (collocation key).
    pub(crate) site: Site,
    /// Number of source IPs used (64 for US₆₄, 1 elsewhere).
    pub source_ips: u16,
    /// Scanning reputation of the address space.
    pub(crate) reputation: Reputation,
    /// Short label used in the paper's tables.
    pub label: &'static str,
}

impl OriginId {
    /// The seven origins of the main study, in the paper's column order.
    pub const MAIN: [OriginId; 7] = [
        OriginId::Australia,
        OriginId::Brazil,
        OriginId::Germany,
        OriginId::Japan,
        OriginId::Us1,
        OriginId::Us64,
        OriginId::Censys,
    ];

    /// The eight origins of the §7 follow-up HTTP experiment.
    pub const FOLLOW_UP: [OriginId; 8] = [
        OriginId::Australia,
        OriginId::Germany,
        OriginId::Japan,
        OriginId::Us1,
        OriginId::CensysFresh,
        OriginId::HurricaneElectric,
        OriginId::NttTransit,
        OriginId::Telia,
    ];

    /// Full static description.
    pub fn spec(self) -> OriginSpec {
        use OriginId::*;
        match self {
            Australia => OriginSpec {
                id: self,
                country: geo::AU,
                site: Site::Sydney,
                source_ips: 1,
                reputation: Reputation::PriorScans,
                label: "AU",
            },
            Brazil => OriginSpec {
                id: self,
                country: geo::BR,
                site: Site::BeloHorizonte,
                source_ips: 1,
                reputation: Reputation::Fresh,
                label: "BR",
            },
            Germany => OriginSpec {
                id: self,
                country: geo::DE,
                site: Site::Saarbruecken,
                source_ips: 1,
                reputation: Reputation::PriorScans,
                label: "DE",
            },
            Japan => OriginSpec {
                id: self,
                country: geo::JP,
                site: Site::Yokohama,
                source_ips: 1,
                reputation: Reputation::Fresh,
                label: "JP",
            },
            Us1 => OriginSpec {
                id: self,
                country: geo::US,
                site: Site::Stanford,
                source_ips: 1,
                reputation: Reputation::ScanningSubnet,
                label: "US1",
            },
            Us64 => OriginSpec {
                id: self,
                country: geo::US,
                site: Site::Stanford,
                source_ips: 64,
                reputation: Reputation::ScanningSubnet,
                label: "US64",
            },
            Censys => OriginSpec {
                id: self,
                country: geo::US,
                site: Site::CensysDc,
                source_ips: 1,
                reputation: Reputation::Continuous,
                label: "CEN",
            },
            HurricaneElectric => OriginSpec {
                id: self,
                country: geo::US,
                site: Site::EquinixChi4,
                source_ips: 1,
                reputation: Reputation::Fresh,
                label: "HE",
            },
            NttTransit => OriginSpec {
                id: self,
                country: geo::US,
                site: Site::EquinixChi4,
                source_ips: 1,
                reputation: Reputation::Fresh,
                label: "NTT",
            },
            Telia => OriginSpec {
                id: self,
                country: geo::US,
                site: Site::EquinixChi4,
                source_ips: 1,
                reputation: Reputation::Fresh,
                label: "TELIA",
            },
            CensysFresh => OriginSpec {
                id: self,
                country: geo::US,
                site: Site::CensysDc,
                source_ips: 1,
                reputation: Reputation::Fresh,
                label: "CEN*",
            },
            Carinet => OriginSpec {
                id: self,
                country: geo::US,
                site: Site::CarinetDc,
                source_ips: 1,
                // The paper had no history of the Carinet IP beyond its
                // absence from public blocklists, but Project Sonar scans
                // from the provider's ranges continuously.
                reputation: Reputation::PriorScans,
                label: "CARI",
            },
        }
    }

    /// Stable numeric key for hashing (independent of enum layout).
    pub(crate) fn key(self) -> u64 {
        use OriginId::*;
        match self {
            Australia => 1,
            Brazil => 2,
            Germany => 3,
            Japan => 4,
            Us1 => 5,
            Us64 => 6,
            Censys => 7,
            HurricaneElectric => 8,
            NttTransit => 9,
            Telia => 10,
            CensysFresh => 11,
            Carinet => 12,
        }
    }

    /// Key of the *site*, shared by collocated origins; used so that path
    /// lossiness has a common component for origins in one data center.
    pub(crate) fn site_key(self) -> u64 {
        use Site::*;
        match self.spec().site {
            Sydney => 101,
            BeloHorizonte => 102,
            Saarbruecken => 103,
            Yokohama => 104,
            Stanford => 105,
            CensysDc => 106,
            EquinixChi4 => 107,
            CarinetDc => 108,
        }
    }

    /// Key of the *address space identity* used for reputation-based
    /// blocking: US₁ and US₆₄ share a subnet identity; CensysFresh is
    /// deliberately distinct from Censys (new ranges reset reputation).
    pub(crate) fn reputation_key(self) -> u64 {
        use OriginId::*;
        match self {
            Us1 | Us64 => 205,
            other => 200 + other.key(),
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        self.spec().label
    }
}

impl core::fmt::Display for OriginId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn main_origins_match_paper() {
        let labels: Vec<&str> = OriginId::MAIN.iter().map(|o| o.label()).collect();
        assert_eq!(labels, vec!["AU", "BR", "DE", "JP", "US1", "US64", "CEN"]);
    }

    #[test]
    fn us_origins_share_site_and_subnet() {
        assert_eq!(OriginId::Us1.site_key(), OriginId::Us64.site_key());
        assert_eq!(
            OriginId::Us1.reputation_key(),
            OriginId::Us64.reputation_key()
        );
        assert_ne!(OriginId::Us1.key(), OriginId::Us64.key());
    }

    #[test]
    fn followup_tier1s_collocated() {
        assert_eq!(
            OriginId::HurricaneElectric.site_key(),
            OriginId::NttTransit.site_key()
        );
        assert_eq!(OriginId::NttTransit.site_key(), OriginId::Telia.site_key());
        // ... but they are distinct origins with distinct reputations keys.
        assert_ne!(
            OriginId::HurricaneElectric.reputation_key(),
            OriginId::Telia.reputation_key()
        );
    }

    #[test]
    fn censys_fresh_resets_reputation() {
        assert_eq!(OriginId::Censys.spec().reputation, Reputation::Continuous);
        assert_eq!(OriginId::CensysFresh.spec().reputation, Reputation::Fresh);
        assert_ne!(
            OriginId::Censys.reputation_key(),
            OriginId::CensysFresh.reputation_key()
        );
        // Same data center though: path behaviour is shared.
        assert_eq!(
            OriginId::Censys.site_key(),
            OriginId::CensysFresh.site_key()
        );
    }

    #[test]
    fn us64_has_64_source_ips() {
        assert_eq!(OriginId::Us64.spec().source_ips, 64);
        assert!(OriginId::MAIN
            .iter()
            .filter(|o| **o != OriginId::Us64)
            .all(|o| o.spec().source_ips == 1));
    }

    #[test]
    fn keys_unique() {
        let mut keys: Vec<u64> = OriginId::MAIN.iter().map(|o| o.key()).collect();
        keys.extend(OriginId::FOLLOW_UP.iter().map(|o| o.key()));
        keys.push(OriginId::Carinet.key());
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 12); // 7 main + 4 follow-up + Carinet
    }
}
