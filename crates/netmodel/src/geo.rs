//! Countries and their share of the simulated host population.
//!
//! The generated Internet assigns every AS (and through it every /24 and
//! host) a country. Weights below are rough shares of global web hosts —
//! exact values are irrelevant to the paper's findings, what matters is
//! the *skew*: a few countries hold most hosts (so Spearman ρ between a
//! country's host count and its missed-host count is high, §4.4) and many
//! countries are served by only a handful of ASes (so one ISP's policy
//! can black out much of a country, Table 2).

/// A country (or dependent territory), identified by ISO 3166-1 alpha-2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Country(pub [u8; 2]);

impl Country {
    /// Construct from a 2-letter code.
    #[expect(clippy::indexing_slicing, reason = "`b.len() == 2` is asserted first")]
    pub const fn new(code: &str) -> Self {
        let b = code.as_bytes();
        assert!(b.len() == 2);
        Self([b[0], b[1]])
    }

    /// The ISO code as a string. Codes are ASCII by construction
    /// ([`Country::new`] stores two bytes of an ISO pair); a non-UTF-8
    /// pair cannot occur, but degrade to a placeholder rather than
    /// panicking on a supervised path.
    pub fn code(&self) -> &str {
        core::str::from_utf8(&self.0).unwrap_or("??")
    }
}

impl core::fmt::Display for Country {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.code())
    }
}

macro_rules! countries {
    ($($name:ident = $code:literal, $weight:literal;)*) => {
        $(
            #[doc = concat!("Country constant `", $code, "`.")]
            pub(crate) const $name: Country = Country::new($code);
        )*
        /// Every country in the model with its host-population weight.
        pub(crate) const ALL: &[(Country, f64)] = &[$(($name, $weight),)*];
    };
}

countries! {
    US = "US", 30.0;
    CN = "CN", 11.0;
    DE = "DE", 5.5;
    JP = "JP", 5.0;
    GB = "GB", 4.5;
    FR = "FR", 3.5;
    RU = "RU", 3.5;
    KR = "KR", 3.0;
    NL = "NL", 3.0;
    HK = "HK", 2.8;
    IT = "IT", 2.5;
    BR = "BR", 2.5;
    CA = "CA", 2.2;
    AU = "AU", 2.0;
    IN = "IN", 2.0;
    ES = "ES", 1.5;
    SE = "SE", 1.2;
    PL = "PL", 1.2;
    TR = "TR", 1.0;
    VN = "VN", 1.0;
    TW = "TW", 0.9;
    SG = "SG", 0.9;
    AR = "AR", 0.8;
    AT = "AT", 0.7;
    UA = "UA", 0.7;
    RO = "RO", 0.7;
    KZ = "KZ", 0.55;
    ZA = "ZA", 0.5;
    VE = "VE", 0.35;
    BD = "BD", 0.35;
    EC = "EC", 0.3;
    CO = "CO", 0.3;
    PE = "PE", 0.25;
    GR = "GR", 0.25;
    PT = "PT", 0.25;
    EE = "EE", 0.2;
    BO = "BO", 0.15;
    AM = "AM", 0.12;
    TN = "TN", 0.12;
    AL = "AL", 0.1;
    LY = "LY", 0.08;
    SD = "SD", 0.08;
    MN = "MN", 0.07;
    SN = "SN", 0.06;
    ZW = "ZW", 0.06;
    MW = "MW", 0.05;
    BF = "BF", 0.05;
    GU = "GU", 0.04;
}

/// Total of all country weights (normalization constant).
pub(crate) fn total_weight() -> f64 {
    ALL.iter().map(|&(_, w)| w).sum()
}

/// Countries used for the origin vantage points.
#[cfg(test)]
fn origin_countries() -> Vec<Country> {
    vec![AU, BR, DE, JP, US]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        assert_eq!(US.code(), "US");
        assert_eq!(BD.to_string(), "BD");
    }

    #[test]
    fn weights_are_skewed() {
        // Top-5 countries should hold over half the weight — the skew that
        // drives the paper's rank correlation (rho = 0.92).
        let total = total_weight();
        let top5: f64 = ALL[..5].iter().map(|&(_, w)| w).sum();
        assert!(top5 / total > 0.5);
    }

    #[test]
    fn all_distinct() {
        let mut codes: Vec<&str> = ALL.iter().map(|(c, _)| c.code()).collect();
        codes.sort();
        codes.dedup();
        assert_eq!(codes.len(), ALL.len());
    }

    #[test]
    fn origin_countries_subset_of_all() {
        for c in origin_countries() {
            assert!(ALL.iter().any(|&(a, _)| a == c));
        }
    }
}
