//! §6: SSH-specific behaviour — Alibaba's temporal blocking (Fig 12),
//! the retry experiment (Fig 13), and the missing-host cause breakdown
//! (Fig 14).

use crate::matrix::{TrialMatrix, SCAN_HOURS};
use crate::outcome::FailKind;
use crate::results::Panel;
use originscan_netmodel::AsTags;
use originscan_netmodel::{OriginId, Protocol, SimNet, World};
use originscan_scanner::target::L7Ctx;
use originscan_scanner::zgrab;

/// Fig 12: hourly fraction of an AS's scanned SSH hosts that answered the
/// TCP handshake and then RST — the Alibaba signature.
pub fn hourly_rst_fraction(
    world: &World,
    matrix: &TrialMatrix,
    origin_idx: usize,
    as_name: &str,
) -> Vec<f64> {
    let Some(asr) = world.as_by_name(as_name) else {
        return Vec::new();
    };
    let mut rst = vec![0.0f64; usize::from(SCAN_HOURS)];
    let mut total = vec![0.0f64; usize::from(SCAN_HOURS)];
    for (i, &addr) in matrix.addrs.iter().enumerate() {
        if world.as_index_of(addr) != asr.index {
            continue;
        }
        let h = usize::from(matrix.hour[i]);
        total[h] += 1.0;
        if matrix.outcomes[origin_idx][i].fail_kind() == FailKind::ClosedRst {
            rst[h] += 1.0;
        }
    }
    rst.iter()
        .zip(&total)
        .map(|(r, t)| if *t == 0.0 { 0.0 } else { r / t })
        .collect()
}

/// Cause attribution for missed SSH host-trials (Fig 14). Attribution is
/// from *observables*, as in the paper: RSTs inside Alibaba's networks
/// after its detection signature → temporal blocking; explicit closes
/// elsewhere → probabilistic (MaxStartups-style) blocking; the rest is
/// transient/other loss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SshMissBreakdown {
    /// Missed via Alibaba-style network-wide RST.
    pub temporal_blocking: usize,
    /// Missed via explicit close (RST/FIN) outside Alibaba.
    pub probabilistic_blocking: usize,
    /// Missed silently or by timeout.
    pub other: usize,
}

impl SshMissBreakdown {
    /// Total missed host-trials.
    pub fn total(&self) -> usize {
        self.temporal_blocking + self.probabilistic_blocking + self.other
    }
}

/// Compute Fig 14 for one origin in one trial.
pub fn ssh_miss_breakdown(
    world: &World,
    matrix: &TrialMatrix,
    origin_idx: usize,
) -> SshMissBreakdown {
    assert_eq!(matrix.protocol, Protocol::Ssh);
    let mut out = SshMissBreakdown::default();
    for (i, &addr) in matrix.addrs.iter().enumerate() {
        let o = matrix.outcomes[origin_idx][i];
        if o.l7_success() {
            continue;
        }
        let in_alibaba = world.as_of(addr).tags.has(AsTags::ALIBABA_SSH);
        match o.fail_kind() {
            FailKind::ClosedRst if in_alibaba => out.temporal_blocking += 1,
            FailKind::ClosedRst | FailKind::ClosedFin => out.probabilistic_blocking += 1,
            _ => out.other += 1,
        }
    }
    out
}

/// Fraction of transiently missed hosts that closed explicitly, vs
/// dropped (§6 compares SSH's 57 % explicit closes to HTTP(S)'s 70 %
/// drops), computed over one origin's misses in one trial, excluding
/// Alibaba.
pub fn explicit_close_fraction(world: &World, matrix: &TrialMatrix, origin_idx: usize) -> f64 {
    let mut closes = 0usize;
    let mut misses = 0usize;
    for (i, &addr) in matrix.addrs.iter().enumerate() {
        let o = matrix.outcomes[origin_idx][i];
        if o.l7_success() || world.as_of(addr).tags.has(AsTags::ALIBABA_SSH) {
            continue;
        }
        misses += 1;
        if o.explicit_close() {
            closes += 1;
        }
    }
    if misses == 0 {
        0.0
    } else {
        closes as f64 / misses as f64
    }
}

/// One row of the Fig 13 retry experiment: coverage of one AS's
/// *responding* SSH hosts as the handshake retry budget grows.
#[derive(Debug, Clone)]
pub struct RetrySweep {
    /// AS display name.
    pub as_name: String,
    /// `success_fraction[k]`: fraction completing with ≤ k retries.
    pub success_fraction: Vec<f64>,
}

/// Rerun the §6 follow-up: from one origin, iteratively contact every SSH
/// host in an AS with an increasing retry budget.
///
/// "Responding IPs" are hosts that either complete the handshake or
/// explicitly close — i.e. the machine is demonstrably there.
pub fn retry_sweep(
    world: &World,
    origin: OriginId,
    as_name: &str,
    max_retries: u8,
    trial: u8,
) -> Option<RetrySweep> {
    let asr = world.as_by_name(as_name)?;
    let origins = [origin];
    let duration = crate::experiment::TRIAL_DURATION_S;
    let net = SimNet::new(world, &origins, duration);
    let lo = asr.first_slash24 * 256;
    let hi = lo + asr.n_slash24 * 256;
    let hosts: Vec<u32> = world
        .hosts(Protocol::Ssh)
        .iter()
        .copied()
        .filter(|&a| a >= lo && a < hi && world.alive(Protocol::Ssh, a, trial))
        .collect();
    if hosts.is_empty() {
        return None;
    }
    let mut fractions = Vec::with_capacity(usize::from(max_retries) + 1);
    for retries in 0..=max_retries {
        let mut responding = 0usize;
        let mut succeeded = 0usize;
        for &addr in &hosts {
            let ctx = L7Ctx {
                origin: 0,
                src_ip: 0x0a00_0001,
                dst: addr,
                protocol: Protocol::Ssh,
                time_s: 100.0, // early in the scan: before Alibaba triggers
                trial,
                attempt: 0,
                concurrent_origins: 1,
            };
            let result = zgrab::grab(&net, ctx, retries);
            match result.outcome {
                zgrab::L7Outcome::Success(_) => {
                    responding += 1;
                    succeeded += 1;
                }
                zgrab::L7Outcome::ConnClosed(_) => responding += 1,
                _ => {}
            }
        }
        fractions.push(if responding == 0 {
            0.0
        } else {
            succeeded as f64 / responding as f64
        });
    }
    Some(RetrySweep {
        as_name: as_name.to_string(),
        success_fraction: fractions,
    })
}

/// Identify the `n` ASes with the most transiently missed SSH hosts (the
/// paper's retry-experiment candidates), by name.
pub fn top_transient_ssh_ases(world: &World, panel: &Panel, n: usize) -> Vec<String> {
    let by_as = crate::transient::transient_by_as(world, panel);
    let mut v: Vec<(String, usize)> = by_as
        .into_iter()
        .map(|a| {
            let total: usize = a.missed.iter().sum();
            (a.as_name, total)
        })
        .collect();
    v.sort_by_key(|x| std::cmp::Reverse(x.1));
    v.into_iter().take(n).map(|(name, _)| name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentConfig};
    use crate::results::ExperimentResults;
    use originscan_netmodel::WorldConfig;

    fn run(world: &World) -> ExperimentResults<'_> {
        let cfg = ExperimentConfig {
            origins: OriginId::MAIN.to_vec(),
            protocols: vec![Protocol::Ssh],
            trials: 3,
            ..Default::default()
        };
        Experiment::new(world, cfg).run().unwrap()
    }

    #[test]
    fn alibaba_rst_signature_visible_after_detection() {
        let world = WorldConfig::small(59).build();
        let r = run(&world);
        let m = r.matrix(Protocol::Ssh, 0);
        // Single-IP origin: RST fraction near zero early, near one late.
        let series = hourly_rst_fraction(&world, m, 0, "HZ Alibaba Advertising");
        assert_eq!(series.len(), 21);
        let early = series[..10].iter().sum::<f64>() / 10.0;
        let late = series[18..].iter().sum::<f64>() / 3.0;
        assert!(early < 0.2, "early RST fraction {early}");
        assert!(late > 0.6, "late RST fraction {late}");
        // US64 evades: flat low series.
        let us64 = r.origin_index(OriginId::Us64);
        let series64 = hourly_rst_fraction(&world, m, us64, "HZ Alibaba Advertising");
        let max64 = series64.iter().cloned().fold(0.0, f64::max);
        assert!(max64 < 0.4, "US64 max hourly RST {max64}");
    }

    #[test]
    fn breakdown_attributes_majority_to_ssh_mechanisms() {
        // Fig 14: probabilistic + temporal blocking make up over half of
        // missing SSH hosts.
        let world = WorldConfig::small(59).build();
        let r = run(&world);
        // Trial 2 (index 1): Alibaba's detection typically fires earlier
        // than trial 1's two-thirds point, so its share is representative.
        let m = r.matrix(Protocol::Ssh, 1);
        let jp = r.origin_index(OriginId::Japan);
        let b = ssh_miss_breakdown(&world, m, jp);
        assert!(b.total() > 0);
        let mech = b.temporal_blocking + b.probabilistic_blocking;
        assert!(
            mech * 2 > b.total(),
            "mechanisms {mech} of {} missed",
            b.total()
        );
        assert!(b.probabilistic_blocking > 0 && b.temporal_blocking > 0);
    }

    #[test]
    fn ssh_misses_close_explicitly_more_than_http() {
        let world = WorldConfig::small(59).build();
        let cfg = ExperimentConfig {
            origins: vec![OriginId::Us1, OriginId::Japan, OriginId::Germany],
            protocols: vec![Protocol::Ssh, Protocol::Http],
            trials: 1,
            ..Default::default()
        };
        let r = Experiment::new(&world, cfg).run().unwrap();
        let ssh = explicit_close_fraction(&world, r.matrix(Protocol::Ssh, 0), 0);
        let http = explicit_close_fraction(&world, r.matrix(Protocol::Http, 0), 0);
        assert!(ssh > http, "SSH {ssh} vs HTTP {http}");
        assert!(ssh > 0.3, "SSH explicit-close fraction {ssh}");
    }

    #[test]
    fn retry_sweep_monotone_and_effective() {
        let world = WorldConfig::small(59).build();
        let sweep = retry_sweep(&world, OriginId::Us1, "Psychz Networks", 8, 0)
            .expect("Psychz has SSH hosts");
        assert_eq!(sweep.success_fraction.len(), 9);
        // Non-decreasing within noise (exact monotone by construction:
        // success within k retries implies success within k+1).
        for w in sweep.success_fraction.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "{:?}", sweep.success_fraction);
        }
        let gain = sweep.success_fraction[8] - sweep.success_fraction[0];
        assert!(gain > 0.1, "retries gained only {gain}");
        assert!(
            sweep.success_fraction[8] > 0.85,
            "8 retries should reach ~90%"
        );
    }

    #[test]
    fn top_transient_ases_nonempty() {
        let world = WorldConfig::small(59).build();
        let r = run(&world);
        let panel = r.panel(Protocol::Ssh);
        let top = top_transient_ssh_ases(&world, &panel, 10);
        assert_eq!(top.len(), 10);
    }
}
