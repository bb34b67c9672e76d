//! Typed errors for the scan engine.
//!
//! The engine is part of the supervised experiment runner's hot path, so
//! misconfiguration and injected faults surface as values rather than
//! panics: the supervisor decides whether to retry, resume from a
//! checkpoint, or record the origin as failed.

use std::fmt;

/// Most probes one address can be sent: one bit each in the 8-bit masks
/// of a burst's verdicts and of [`crate::engine::HostScanRecord`], and
/// the length of the per-burst stack arrays.
pub const MAX_PROBES: usize = 8;

/// Most L7 retries a host can be given: its attempt count, retries + 1,
/// must fit [`crate::engine::HostScanRecord`]'s `u8`.
pub(crate) const MAX_L7_RETRIES: u8 = u8::MAX - 1;

/// Why a [`crate::engine::ScanConfig`] is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `space` is zero: there is nothing to permute or probe.
    EmptySpace,
    /// `probes` is zero: every address would be skipped silently.
    ZeroProbes,
    /// `probes` exceeds [`MAX_PROBES`].
    TooManyProbes {
        /// The requested probe count.
        probes: u8,
    },
    /// `l7_retries` exceeds `MAX_L7_RETRIES`.
    TooManyRetries {
        /// The requested retry count.
        retries: u8,
    },
    /// `source_ips` is empty: no address to send probes from.
    NoSourceIps,
    /// `shard` is not a valid `(index, total)` pair (`total` zero or
    /// `index >= total`).
    InvalidShard {
        /// The requested shard index.
        shard: u64,
        /// The requested shard count.
        total: u64,
    },
    /// `rate_pps` is zero, negative, or NaN.
    NonPositiveRate,
    /// `batch` is zero: the pacer could never release a probe.
    ZeroBatch,
    /// `probe_delay_s` is negative, infinite, or NaN: every probe after
    /// an address's first would carry a meaningless timestamp.
    BadProbeDelay,
    /// The adaptive policy is malformed (zero window, or a backoff factor
    /// outside `(0, 1)`).
    BadAdaptivePolicy,
    /// The attached target plan was built for a different address space
    /// than the scan targets, so its /24 indices would not line up.
    PlanSpaceMismatch {
        /// The space the plan was built for.
        plan_space: u64,
        /// The space this scan targets.
        space: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptySpace => write!(f, "scan space is empty"),
            ConfigError::ZeroProbes => write!(f, "probes per address must be at least 1"),
            ConfigError::TooManyProbes { probes } => {
                write!(
                    f,
                    "{probes} probes per address exceeds the supported maximum of {MAX_PROBES}"
                )
            }
            ConfigError::TooManyRetries { retries } => write!(
                f,
                "{retries} L7 retries exceeds the supported maximum of {MAX_L7_RETRIES}"
            ),
            ConfigError::NoSourceIps => write!(f, "at least one source IP is required"),
            ConfigError::InvalidShard { shard, total } => {
                write!(
                    f,
                    "shard {shard}/{total} is not a valid (index, total) pair"
                )
            }
            ConfigError::NonPositiveRate => write!(f, "send rate must be positive"),
            ConfigError::ZeroBatch => write!(f, "probe batch size must be at least 1"),
            ConfigError::BadProbeDelay => write!(f, "probe delay must be finite and non-negative"),
            ConfigError::BadAdaptivePolicy => write!(
                f,
                "adaptive policy needs a positive window and a backoff factor in (0, 1)"
            ),
            ConfigError::PlanSpaceMismatch { plan_space, space } => write!(
                f,
                "target plan covers space {plan_space} but the scan targets space {space}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Why a scan did not run to completion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScanError {
    /// The configuration failed validation; nothing was probed.
    Config(ConfigError),
    /// The fault hook killed the scan mid-flight (an injected vantage
    /// outage). If a checkpoint store was attached, it still holds the
    /// most recent *periodic* checkpoint — a killed scan does not get to
    /// save its final state, exactly like a crashed process.
    Killed {
        /// Simulated send-clock time at which the scan died.
        time_s: f64,
        /// Addresses fully probed before death.
        addresses_probed: u64,
    },
    /// A resume checkpoint did not apply to this configuration's shard
    /// (its step count lies outside the shard's remaining range).
    BadCheckpoint {
        /// The checkpoint's recorded permutation step count.
        steps: u64,
    },
    /// The wire-codec self-check found a lossy probe round-trip.
    WireCheck {
        /// The address whose probe failed to round-trip.
        addr: u32,
    },
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanError::Config(e) => write!(f, "invalid scan config: {e}"),
            ScanError::Killed {
                time_s,
                addresses_probed,
            } => write!(
                f,
                "scan killed by injected fault at t={time_s:.1}s after {addresses_probed} addresses"
            ),
            ScanError::BadCheckpoint { steps } => {
                write!(f, "checkpoint at step {steps} does not apply to this shard")
            }
            ScanError::WireCheck { addr } => {
                write!(f, "wire codec round-trip failed for address {addr:#010x}")
            }
        }
    }
}

impl std::error::Error for ScanError {}

impl From<ConfigError> for ScanError {
    fn from(e: ConfigError) -> Self {
        ScanError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        let e = ScanError::Config(ConfigError::InvalidShard { shard: 3, total: 2 });
        assert!(e.to_string().contains("3/2"));
        let e = ScanError::Killed {
            time_s: 12.5,
            addresses_probed: 42,
        };
        assert!(e.to_string().contains("42 addresses"));
        assert!(ScanError::BadCheckpoint { steps: 7 }
            .to_string()
            .contains("step 7"));
        assert!(ConfigError::TooManyProbes { probes: 9 }
            .to_string()
            .contains('9'));
        let e = ConfigError::PlanSpaceMismatch {
            plan_space: 1024,
            space: 65_536,
        };
        assert!(e.to_string().contains("1024"));
        assert!(e.to_string().contains("65536"));
    }
}
