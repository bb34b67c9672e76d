//! Command-line interface for the `originscan` binary.
//!
//! Hand-rolled parsing (the only CLI surface is a handful of flags, not
//! worth a dependency). The parser is a pure function so it is unit
//! tested exhaustively; the binary in `src/bin/originscan.rs` just maps
//! the parsed command onto library calls.

use crate::netmodel::{OriginId, Protocol, WorldConfig};
use crate::scanner::ConfigError;

/// What the user asked for.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run an experiment and print the full report.
    Report(RunArgs),
    /// Run an experiment and dump one origin's scan records as CSV.
    Scan(RunArgs),
    /// Print the world's AS inventory as TSV.
    Inventory {
        /// World scale.
        scale: Scale,
        /// World seed.
        seed: u64,
    },
    /// Diff two archived scan CSVs (paths), with AS attribution from the
    /// world identified by scale/seed.
    Diff {
        /// First CSV path.
        a: String,
        /// Second CSV path.
        b: String,
        /// World scale (for AS attribution; must match the scan's world).
        scale: Scale,
        /// World seed (ditto).
        seed: u64,
    },
    /// Print usage.
    Help,
}

/// Common run parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// World scale.
    pub scale: Scale,
    /// World seed.
    pub seed: u64,
    /// Origins to scan from.
    pub origins: Vec<OriginId>,
    /// Protocols to scan.
    pub protocols: Vec<Protocol>,
    /// Number of trials.
    pub trials: u8,
    /// Probes per host.
    pub probes: u8,
    /// Inter-probe delay in seconds.
    pub probe_delay_s: f64,
    /// Optional target-plan file: every scan probes only the plan's /24
    /// allowlist (composed with the blocklist and sharding).
    pub plan: Option<String>,
}

impl Default for RunArgs {
    fn default() -> Self {
        Self {
            scale: Scale::Tiny,
            seed: 2020,
            origins: OriginId::MAIN.to_vec(),
            protocols: crate::scanner::probe::PAPER_PROTOCOLS.to_vec(),
            trials: 3,
            probes: 2,
            probe_delay_s: 0.0,
            plan: None,
        }
    }
}

/// World-size presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 2¹⁶ addresses.
    Tiny,
    /// 2²⁰ addresses.
    Small,
    /// 2²² addresses.
    Medium,
    /// 2²⁴ addresses.
    Full,
}

impl Scale {
    /// Materialize a [`WorldConfig`] at this scale.
    pub fn config(self, seed: u64) -> WorldConfig {
        match self {
            Scale::Tiny => WorldConfig::tiny(seed),
            Scale::Small => WorldConfig::small(seed),
            Scale::Medium => WorldConfig::medium(seed),
            Scale::Full => WorldConfig::full(seed),
        }
    }
}

/// Usage text for `--help` and error reporting.
pub const USAGE: &str = "\
originscan — reproduce 'On the Origin of Scanning' (IMC 2020) on a simulated Internet

USAGE:
  originscan report    [FLAGS]   run the study, print the full report
  originscan scan      [FLAGS]   run the study, print origin 0's records as CSV
  originscan inventory [FLAGS]   print the simulated AS inventory as TSV
  originscan diff A B  [FLAGS]   compare two scan CSVs (AS attribution
                                 uses the world from --scale/--seed)
  originscan help

FLAGS:
  --scale tiny|small|medium|full   world size            [default: tiny]
  --seed N                         world seed            [default: 2020]
  --origins AU,JP,...              origin labels         [default: all 7]
  --protocols http,https,ssh,icmp,dns  probe modules    [default: paper trio]
  --trials N                       trials                [default: 3]
  --probes N                       SYNs per host         [default: 2]
  --probe-delay SECONDS            delay between probes  [default: 0]
  --plan PATH                      target-plan file: scan only the plan's
                                   /24 allowlist (scan subcommand only)
";

/// Parse an origin label as printed in the paper's tables.
pub fn parse_origin(s: &str) -> Option<OriginId> {
    let all = [
        OriginId::Australia,
        OriginId::Brazil,
        OriginId::Germany,
        OriginId::Japan,
        OriginId::Us1,
        OriginId::Us64,
        OriginId::Censys,
        OriginId::HurricaneElectric,
        OriginId::NttTransit,
        OriginId::Telia,
        OriginId::CensysFresh,
        OriginId::Carinet,
    ];
    all.into_iter().find(|o| o.label().eq_ignore_ascii_case(s))
}

/// Parse a protocol name against the probe-module registry, so every
/// registered module (ICMP, DNS, ...) is CLI-reachable without a
/// hardcoded roster here.
pub fn parse_protocol(s: &str) -> Option<Protocol> {
    crate::scanner::probe::modules()
        .iter()
        .find(|m| m.name().eq_ignore_ascii_case(s))
        .map(|m| m.protocol())
}

fn parse_scale(s: &str) -> Option<Scale> {
    match s {
        "tiny" => Some(Scale::Tiny),
        "small" => Some(Scale::Small),
        "medium" => Some(Scale::Medium),
        "full" => Some(Scale::Full),
        _ => None,
    }
}

/// Parse a full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) => s.as_str(),
    };
    if matches!(sub, "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let mut run = RunArgs::default();
    let mut positional: Vec<String> = Vec::new();
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            positional.push(flag.clone());
            continue;
        }
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--scale" => {
                let v = value()?;
                run.scale = parse_scale(v).ok_or_else(|| format!("unknown scale {v}"))?;
            }
            "--seed" => {
                run.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?;
            }
            "--origins" => {
                let v = value()?;
                run.origins = v
                    .split(',')
                    .map(|s| parse_origin(s).ok_or_else(|| format!("unknown origin {s}")))
                    .collect::<Result<_, _>>()?;
                if run.origins.is_empty() {
                    return Err("need at least one origin".into());
                }
            }
            "--protocols" => {
                let v = value()?;
                run.protocols = v
                    .split(',')
                    .map(|s| parse_protocol(s).ok_or_else(|| format!("unknown protocol {s}")))
                    .collect::<Result<_, _>>()?;
            }
            "--trials" => {
                run.trials = value()?.parse().map_err(|_| "bad --trials".to_string())?;
                if run.trials == 0 || run.trials > 8 {
                    return Err("--trials must be 1..=8".into());
                }
            }
            "--probes" => {
                run.probes = value()?.parse().map_err(|_| "bad --probes".to_string())?;
                if run.probes == 0 || run.probes > 8 {
                    return Err("--probes must be 1..=8".into());
                }
            }
            "--probe-delay" => {
                run.probe_delay_s = value()?
                    .parse()
                    .map_err(|_| "bad --probe-delay".to_string())?;
                // `nan < 0.0` is false, so test finiteness explicitly.
                if !run.probe_delay_s.is_finite() || run.probe_delay_s < 0.0 {
                    return Err(format!("--probe-delay: {}", ConfigError::BadProbeDelay));
                }
            }
            "--plan" => {
                run.plan = Some(value()?.to_string());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    match sub {
        "report" => {
            if run.plan.is_some() {
                return Err("--plan only applies to the scan subcommand".into());
            }
            Ok(Command::Report(run))
        }
        "scan" => Ok(Command::Scan(run)),
        "inventory" => Ok(Command::Inventory {
            scale: run.scale,
            seed: run.seed,
        }),
        "diff" => {
            let [a, b] = positional.as_slice() else {
                return Err("diff needs exactly two CSV paths".into());
            };
            Ok(Command::Diff {
                a: a.clone(),
                b: b.clone(),
                scale: run.scale,
                seed: run.seed,
            })
        }
        other => Err(format!("unknown subcommand {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults() {
        match parse(&argv("report")).unwrap() {
            Command::Report(r) => {
                assert_eq!(r.scale, Scale::Tiny);
                assert_eq!(r.origins.len(), 7);
                assert_eq!(r.protocols.len(), 3);
                assert_eq!(r.trials, 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn full_flag_set() {
        let cmd = parse(&argv(
            "scan --scale small --seed 99 --origins JP,US64 --protocols ssh --trials 2 --probes 1 --probe-delay 3600 --plan targets.osplan",
        ))
        .unwrap();
        match cmd {
            Command::Scan(r) => {
                assert_eq!(r.scale, Scale::Small);
                assert_eq!(r.seed, 99);
                assert_eq!(r.origins, vec![OriginId::Japan, OriginId::Us64]);
                assert_eq!(r.protocols, vec![Protocol::Ssh]);
                assert_eq!(r.trials, 2);
                assert_eq!(r.probes, 1);
                assert_eq!(r.probe_delay_s, 3600.0);
                assert_eq!(r.plan.as_deref(), Some("targets.osplan"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn plan_flag_is_scan_only() {
        let err = parse(&argv("report --plan targets.osplan")).unwrap_err();
        assert!(err.contains("--plan"), "{err}");
        match parse(&argv("scan")).unwrap() {
            Command::Scan(r) => assert_eq!(r.plan, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn inventory_and_help() {
        assert_eq!(
            parse(&argv("inventory --scale medium --seed 7")).unwrap(),
            Command::Inventory {
                scale: Scale::Medium,
                seed: 7
            }
        );
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn protocol_names_come_from_the_module_registry() {
        // Every registered probe module is CLI-reachable by its name,
        // case-insensitively; unregistered names stay rejected.
        for m in crate::scanner::probe::modules() {
            assert_eq!(
                parse_protocol(&m.name().to_ascii_lowercase()),
                Some(m.protocol()),
                "{}",
                m.name()
            );
        }
        assert_eq!(parse_protocol("icmp"), Some(Protocol::Icmp));
        assert_eq!(parse_protocol("DNS"), Some(Protocol::Dns));
        assert_eq!(parse_protocol("ftp"), None);
    }

    #[test]
    fn origin_labels_case_insensitive() {
        assert_eq!(parse_origin("au"), Some(OriginId::Australia));
        assert_eq!(parse_origin("Us64"), Some(OriginId::Us64));
        assert_eq!(parse_origin("cen*"), Some(OriginId::CensysFresh));
        assert_eq!(parse_origin("CARI"), Some(OriginId::Carinet));
        assert_eq!(parse_origin("nope"), None);
    }

    #[test]
    fn errors_are_informative() {
        for (args, needle) in [
            ("report --scale huge", "unknown scale"),
            ("report --seed", "needs a value"),
            ("report --origins XX", "unknown origin"),
            ("report --protocols ftp", "unknown protocol"),
            ("report --trials 0", "--trials"),
            ("report --probes 99", "--probes"),
            ("report --probe-delay -1", "--probe-delay"),
            ("scan --probe-delay nan", "finite and non-negative"),
            ("scan --probe-delay inf", "finite and non-negative"),
            ("launch", "unknown subcommand"),
            ("report --bogus 1", "unknown flag"),
        ] {
            let err = parse(&argv(args)).unwrap_err();
            assert!(err.contains(needle), "{args}: {err}");
        }
    }
}
