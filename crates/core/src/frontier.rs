//! The probes-vs-coverage frontier: what a topology-aware target plan
//! buys (§7's "do we need to probe everything?" question, asked of the
//! planner).
//!
//! The sweep runs `prior_trials` full scans to learn plans, then scans
//! one *evaluation* trial once per strategy — full sweep, observed-only,
//! density-ranked top-k, churn-prioritized, hybrid — and reports each
//! strategy's probe cost against its recall of the full sweep's
//! responsive population. The interesting region is the knee: on worlds
//! with realistic deployment sparsity the observed-only plan reaches
//! ≥95% of full-sweep coverage for a fraction of the probes, because
//! never-deployed /24s dominate the address space and deployment is
//! stable across trials.
//!
//! Everything is deterministic: same world + config ⇒ byte-identical
//! [`FrontierSweep::render`] output (printed by
//! `examples/fig_frontier.rs`; `tests/pipeline_golden.rs` pins one sparse
//! world's table and its ≥ 95 % recall at ≤ 50 % of the probes).

use crate::experiment::TRIAL_DURATION_S;
use crate::report::{count, pct, Table};
use originscan_netmodel::{OriginId, Protocol, SimNet, World};
use originscan_plan::{AsSpan, PlanBuilder, PlanError, Strategy, TargetPlan};
use originscan_scanner::{run_scan, Network, ScanConfig, ScanError};
use originscan_store::ScanSet;
use std::fmt;
use std::fmt::Write as _;

/// Why a frontier sweep failed.
#[derive(Debug)]
pub enum FrontierError {
    /// A scan failed (configuration or injected fault).
    Scan(ScanError),
    /// Plan construction failed.
    Plan(PlanError),
    /// The configuration is unusable (no origins, no strategies, or no
    /// prior trials to learn from).
    EmptyConfig {
        /// Which list was empty.
        what: &'static str,
    },
}

impl fmt::Display for FrontierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontierError::Scan(e) => write!(f, "frontier scan failed: {e}"),
            FrontierError::Plan(e) => write!(f, "frontier plan failed: {e}"),
            FrontierError::EmptyConfig { what } => {
                write!(f, "frontier config has no {what}")
            }
        }
    }
}

impl std::error::Error for FrontierError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrontierError::Scan(e) => Some(e),
            FrontierError::Plan(e) => Some(e),
            FrontierError::EmptyConfig { .. } => None,
        }
    }
}

impl From<ScanError> for FrontierError {
    fn from(e: ScanError) -> Self {
        FrontierError::Scan(e)
    }
}

impl From<PlanError> for FrontierError {
    fn from(e: PlanError) -> Self {
        FrontierError::Plan(e)
    }
}

/// Configuration for one frontier sweep.
#[derive(Debug, Clone)]
pub struct FrontierConfig {
    /// Scan origins; plans learn from (and are evaluated against) the
    /// union across the whole roster.
    pub origins: Vec<OriginId>,
    /// Protocol to scan.
    pub protocol: Protocol,
    /// Full-sweep trials to learn plans from (trials `0..prior_trials`;
    /// the evaluation trial is `prior_trials` itself, so plans are never
    /// evaluated on data they trained on).
    pub prior_trials: u8,
    /// Base scan seed (trial number is added, as in experiments).
    pub seed: u64,
    /// The strategies to place on the frontier, in presentation order.
    pub strategies: Vec<Strategy>,
    /// Optional per-AS cap on planned /24s (see
    /// [`PlanBuilder::with_budget_per_as`]).
    pub budget_per_as: Option<u32>,
}

impl Default for FrontierConfig {
    fn default() -> Self {
        FrontierConfig {
            origins: vec![OriginId::Us1, OriginId::Germany],
            protocol: Protocol::Http,
            prior_trials: 2,
            seed: 7,
            strategies: vec![
                Strategy::Full,
                Strategy::Observed,
                Strategy::DensityTopK { keep_ppm: 250_000 },
                Strategy::ChurnWeighted { keep_ppm: 250_000 },
                Strategy::Hybrid { keep_ppm: 500_000 },
            ],
            budget_per_as: None,
        }
    }
}

/// One strategy's position on the probes-vs-coverage frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// The strategy's plan label (row key).
    pub strategy: String,
    /// /24s the plan admits.
    pub(crate) planned_s24s: usize,
    /// SYN probes the evaluation scans sent (summed over origins).
    pub(crate) probes_sent: u64,
    /// `probes_sent` as a fraction of the full-sweep baseline's.
    pub probes_frac: f64,
    /// Distinct responsive addresses the evaluation scans found (union
    /// over origins).
    pub(crate) found: u64,
    /// Fraction of the baseline's responsive population the planned
    /// scans still found.
    pub(crate) recall: f64,
}

/// The measured frontier: the full-sweep baseline plus one point per
/// strategy.
#[derive(Debug, Clone)]
pub struct FrontierSweep {
    /// Probes the plan-free baseline sent (summed over origins).
    pub(crate) baseline_probes: u64,
    /// Responsive addresses the baseline found (union over origins).
    pub(crate) baseline_found: u64,
    /// Announced /24s in the world (the full sweep's plan size).
    pub(crate) announced_s24s: usize,
    /// One point per configured strategy, configuration order.
    pub(crate) points: Vec<FrontierPoint>,
}

/// The world's announced-prefix/AS structure in the planner's neutral
/// span form, AS order.
pub fn as_spans(world: &World) -> Vec<AsSpan> {
    world
        .ases
        .iter()
        .map(|a| AsSpan {
            first_s24: a.first_slash24,
            n_s24: a.n_slash24,
            as_index: a.index,
        })
        .collect()
}

/// Scan `trial` from every origin (plan-free or planned), returning the
/// union of responsive addresses and the summed probe count.
fn scan_union(
    net: &dyn Network,
    cfg: &FrontierConfig,
    space: u64,
    trial: u8,
    plan: Option<&TargetPlan>,
) -> Result<(ScanSet, u64), FrontierError> {
    let rate = originscan_scanner::rate_for_duration(space * 2, TRIAL_DURATION_S);
    let mut addrs: Vec<u32> = Vec::new();
    let mut probes = 0u64;
    for (i, _origin) in cfg.origins.iter().enumerate() {
        let mut c = ScanConfig::new(space, cfg.protocol, cfg.seed + u64::from(trial));
        c.origin = i as u16;
        c.trial = trial;
        c.rate_pps = rate;
        c.concurrent_origins = cfg.origins.len() as u8;
        c.plan = plan.cloned();
        let out = run_scan(net, &c)?;
        probes += out.summary.probes_sent;
        addrs.extend(
            out.records
                .iter()
                .filter(|r| r.l4_responsive())
                .map(|r| r.addr),
        );
    }
    Ok((ScanSet::from_unsorted(addrs), probes))
}

impl FrontierConfig {
    /// Every list a sweep needs is non-empty.
    fn check(&self) -> Result<(), FrontierError> {
        let what = if self.origins.is_empty() {
            "origins"
        } else if self.strategies.is_empty() {
            "strategies"
        } else if self.prior_trials == 0 {
            "prior trials"
        } else {
            return Ok(());
        };
        Err(FrontierError::EmptyConfig { what })
    }
}

/// Measure the probes-vs-coverage frontier on `world` under `cfg`.
pub fn sweep_frontier(world: &World, cfg: &FrontierConfig) -> Result<FrontierSweep, FrontierError> {
    cfg.check()?; // `SimNet::new` asserts a roster
    let net = SimNet::new(world, &cfg.origins, TRIAL_DURATION_S);
    sweep_frontier_on(&net, world, cfg)
}

/// [`sweep_frontier`] through `net`, a view of `world` from
/// `cfg.origins` in that order (a `SimNet`, or a wrapper around one).
pub fn sweep_frontier_on(
    net: &dyn Network,
    world: &World,
    cfg: &FrontierConfig,
) -> Result<FrontierSweep, FrontierError> {
    cfg.check()?;
    let space = world.space();

    // Learn: full sweeps over the prior trials feed the builder.
    let mut builder = PlanBuilder::new(space, cfg.seed)?.with_topology(as_spans(world));
    if let Some(cap) = cfg.budget_per_as {
        builder = builder.with_budget_per_as(cap);
    }
    for trial in 0..cfg.prior_trials {
        let (union, _probes) = scan_union(net, cfg, space, trial, None)?;
        builder.observe_trial(&union);
    }

    // Evaluate on the held-out trial: plan-free baseline first.
    let eval_trial = cfg.prior_trials;
    let (baseline_set, baseline_probes) = scan_union(net, cfg, space, eval_trial, None)?;
    let baseline_found = baseline_set.cardinality();

    let mut points = Vec::with_capacity(cfg.strategies.len());
    for strategy in &cfg.strategies {
        let plan = builder.build(strategy)?;
        let (found_set, probes) = scan_union(net, cfg, space, eval_trial, Some(&plan))?;
        let covered = found_set.intersection_cardinality(&baseline_set);
        points.push(FrontierPoint {
            strategy: plan.strategy().to_string(),
            planned_s24s: plan.planned_s24s(),
            probes_sent: probes,
            probes_frac: if baseline_probes == 0 {
                0.0
            } else {
                probes as f64 / baseline_probes as f64
            },
            found: found_set.cardinality(),
            recall: if baseline_found == 0 {
                1.0
            } else {
                covered as f64 / baseline_found as f64
            },
        });
    }
    Ok(FrontierSweep {
        baseline_probes,
        baseline_found,
        announced_s24s: as_spans(world).iter().map(|s| s.n_s24 as usize).sum(),
        points,
    })
}

impl FrontierSweep {
    /// The cheapest point (fewest probes) reaching at least `min_recall`
    /// of the baseline's responsive population. This is the bench gate's
    /// question: "what does ≥95% recall cost?"
    pub fn cheapest_with_recall(&self, min_recall: f64) -> Option<&FrontierPoint> {
        self.points
            .iter()
            .filter(|p| p.recall >= min_recall)
            .min_by(|a, b| (a.probes_sent, &a.strategy).cmp(&(b.probes_sent, &b.strategy)))
    }

    /// Render the frontier as a text table (byte-deterministic).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "probes-vs-coverage frontier — baseline: {} probes, {} responsive, {} announced /24s\n",
            self.baseline_probes, self.baseline_found, self.announced_s24s,
        );
        let mut t = Table::new(["strategy", "/24s", "probes", "probes%", "found", "recall"]);
        for p in &self.points {
            t.row([
                p.strategy.clone(),
                count(p.planned_s24s),
                count(p.probes_sent as usize),
                pct(p.probes_frac),
                count(p.found as usize),
                pct(p.recall),
            ]);
        }
        let _ = writeln!(out, "{}", t.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use originscan_netmodel::WorldConfig;

    fn sparse_world(seed: u64) -> World {
        // Low deployment density leaves most /24s empty — the regime the
        // planner exists for.
        let mut wc = WorldConfig::tiny(seed);
        wc.density_scale = 0.1;
        wc.build()
    }

    fn sweep(world: &World) -> FrontierSweep {
        sweep_frontier(world, &FrontierConfig::default()).unwrap()
    }

    #[test]
    fn full_strategy_matches_baseline_probes() {
        let world = sparse_world(91);
        let s = sweep(&world);
        let full = s.points.iter().find(|p| p.strategy == "full").unwrap();
        // The full plan admits every announced /24; probing through it
        // costs the same as no plan at all (announced = whole space in
        // the simulated world).
        assert_eq!(full.probes_sent, s.baseline_probes);
        assert!((full.recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn observed_plan_cuts_probes_and_keeps_recall() {
        let world = sparse_world(92);
        let s = sweep(&world);
        let obs = s.points.iter().find(|p| p.strategy == "observed").unwrap();
        assert!(
            obs.probes_frac < 0.75,
            "observed plan should skip never-deployed /24s (frac {})",
            obs.probes_frac
        );
        assert!(
            obs.recall > 0.9,
            "deployment is stable, so recall should stay high (recall {})",
            obs.recall
        );
    }

    #[test]
    fn ranked_strategies_probe_less_than_observed() {
        let world = sparse_world(93);
        let s = sweep(&world);
        let frac_of = |name: &str| {
            s.points
                .iter()
                .find(|p| p.strategy == name)
                .map(|p| p.probes_frac)
                .unwrap()
        };
        assert!(frac_of("density_top_k250000") < frac_of("observed"));
        assert!(frac_of("churn_top_k250000") < frac_of("observed"));
    }

    #[test]
    fn cheapest_with_recall_picks_a_cheap_point() {
        let world = sparse_world(94);
        let s = sweep(&world);
        let p = s
            .cheapest_with_recall(0.95)
            .expect("some point reaches 95%");
        let full = s.points.iter().find(|p| p.strategy == "full").unwrap();
        assert!(p.probes_sent <= full.probes_sent);
        assert!(s.cheapest_with_recall(1.1).is_none());
    }

    #[test]
    fn sweep_is_deterministic() {
        let world = sparse_world(95);
        let a = sweep_frontier(&world, &FrontierConfig::default())
            .unwrap()
            .render();
        let b = sweep_frontier(&world, &FrontierConfig::default())
            .unwrap()
            .render();
        assert_eq!(a, b);
        assert!(a.contains("strategy"));
        assert!(a.contains("observed"));
    }

    #[test]
    fn empty_configs_are_rejected() {
        let world = sparse_world(96);
        let mut c = FrontierConfig::default();
        c.origins.clear();
        assert!(matches!(
            sweep_frontier(&world, &c),
            Err(FrontierError::EmptyConfig { what: "origins" })
        ));
        let mut c = FrontierConfig::default();
        c.strategies.clear();
        assert!(matches!(
            sweep_frontier(&world, &c),
            Err(FrontierError::EmptyConfig { what: "strategies" })
        ));
        let c = FrontierConfig {
            prior_trials: 0,
            ..FrontierConfig::default()
        };
        assert!(matches!(
            sweep_frontier(&world, &c),
            Err(FrontierError::EmptyConfig {
                what: "prior trials"
            })
        ));
    }
}
