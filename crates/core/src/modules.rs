//! Per-module sweeps: every registered probe module run through the
//! same multi-origin experiment, with coverage, exclusivity,
//! cross-module diff, and best-k analyses keyed by *module name*
//! rather than a hard-coded protocol trio.
//!
//! This is the analysis half of the probe-module plugin layer: the
//! paper's tables generalize to any module registered in
//! [`originscan_scanner::probe::modules`] with no per-protocol code
//! here. Adding a sixth module to the registry grows every table in
//! this file by one row automatically.

use crate::coverage::coverage_table;
use crate::experiment::{Experiment, ExperimentConfig, ExperimentError};
use crate::multiorigin::best_k_union;
use crate::report::{count, pct, Table};
use crate::results::ExperimentResults;
use originscan_netmodel::World;
use originscan_scanner::probe::{modules, ProbeModule};
use originscan_store::ScanSet;
use std::fmt::Write as _;

/// One module's experiment inside a sweep.
#[derive(Debug)]
pub struct ModuleRun<'w> {
    /// The registered module; its [`name`](ProbeModule::name) keys every
    /// table, store entry, and telemetry scope derived from this run.
    pub module: &'static dyn ProbeModule,
    /// The module's full multi-origin experiment results.
    pub results: ExperimentResults<'w>,
}

impl ModuleRun<'_> {
    /// The module's stable name — the sweep's row key.
    pub fn name(&self) -> &'static str {
        self.module.name()
    }

    /// Union of addresses any origin saw in `trial` (the module's view
    /// of its population).
    pub(crate) fn union_set(&self, trial: u8) -> ScanSet {
        let m = self.results.matrix(self.module.protocol(), trial);
        let mut union = ScanSet::new();
        for set in &m.seen_sets {
            union = union.or(set);
        }
        union
    }
}

/// Every registered module's experiment, in registry order.
#[derive(Debug)]
pub struct ModuleSweep<'w> {
    runs: Vec<ModuleRun<'w>>,
}

/// Coverage summary for one module: per-origin mean coverage across
/// trials plus the trial-averaged ground-truth size.
#[derive(Debug, Clone)]
pub struct ModuleCoverage {
    /// Module name (row key).
    pub module: &'static str,
    /// Mean coverage fraction per origin, roster order.
    pub fractions: Vec<f64>,
    /// Ground-truth union of the mean row (addresses).
    pub union: usize,
}

/// Set relation between two modules' trial-0 populations.
#[derive(Debug, Clone)]
pub struct ModuleDiff {
    /// First module name.
    pub(crate) a: &'static str,
    /// Second module name.
    pub b: &'static str,
    /// Addresses both modules found.
    pub both: u64,
    /// Addresses only the first module found.
    pub(crate) only_a: u64,
    /// Addresses only the second module found.
    pub(crate) only_b: u64,
}

/// The best `k`-origin combination for one module.
#[derive(Debug, Clone)]
pub(crate) struct ModuleBestK {
    /// Module name (row key).
    pub(crate) module: &'static str,
    /// Winning origin labels, roster order.
    pub(crate) origins: Vec<String>,
    /// Addresses covered by the winning union.
    pub(crate) covered: u64,
}

/// Run every registered probe module through `base` (its `protocols`
/// field is replaced per module) against one shared world. Origins,
/// trials, seed, and duration are common across modules, so rows are
/// directly comparable.
pub fn sweep_modules<'w>(
    world: &'w World,
    base: &ExperimentConfig,
) -> Result<ModuleSweep<'w>, ExperimentError> {
    let mut runs = Vec::with_capacity(modules().len());
    for &module in modules() {
        let cfg = ExperimentConfig {
            protocols: vec![module.protocol()],
            ..base.clone()
        };
        let results = Experiment::new(world, cfg).run()?;
        runs.push(ModuleRun { module, results });
    }
    Ok(ModuleSweep { runs })
}

impl<'w> ModuleSweep<'w> {
    /// All runs, registry order.
    pub fn runs(&self) -> &[ModuleRun<'w>] {
        &self.runs
    }

    /// Look a run up by module name.
    pub fn get(&self, name: &str) -> Option<&ModuleRun<'w>> {
        self.runs.iter().find(|r| r.name() == name)
    }

    /// Per-module mean coverage, keyed by module name.
    pub fn coverage(&self) -> Vec<ModuleCoverage> {
        self.runs
            .iter()
            .map(|run| {
                let proto = run.module.protocol();
                let rows = coverage_table(&run.results, proto);
                let mean = rows
                    .iter()
                    .find(|r| r.trial.is_none())
                    .expect("coverage_table always emits a mean row");
                ModuleCoverage {
                    module: run.name(),
                    fractions: mean.fractions.clone(),
                    union: mean.union,
                }
            })
            .collect()
    }

    /// The best `k`-origin combination per module over trial-0 scan
    /// sets, keyed by module name. Skips `k` larger than the roster.
    pub(crate) fn best_k(&self, k: usize) -> Vec<ModuleBestK> {
        self.runs
            .iter()
            .filter_map(|run| {
                let m = run.results.matrix(run.module.protocol(), 0);
                let sets: Vec<&ScanSet> = m.seen_sets.iter().collect();
                let (combo, covered) = best_k_union(&sets, k)?;
                let origins = combo
                    .iter()
                    .map(|&i| run.results.config().origins[i].to_string())
                    .collect();
                Some(ModuleBestK {
                    module: run.name(),
                    origins,
                    covered,
                })
            })
            .collect()
    }

    /// Pairwise trial-0 population diffs between all modules, registry
    /// order, keyed by the two module names.
    pub fn diffs(&self) -> Vec<ModuleDiff> {
        let unions: Vec<(&'static str, ScanSet)> = self
            .runs
            .iter()
            .map(|run| (run.name(), run.union_set(0)))
            .collect();
        let mut out = Vec::new();
        for (i, (a, sa)) in unions.iter().enumerate() {
            for (b, sb) in unions.iter().skip(i + 1) {
                out.push(ModuleDiff {
                    a,
                    b,
                    both: sa.intersection_cardinality(sb),
                    only_a: sa.andnot_cardinality(sb),
                    only_b: sb.andnot_cardinality(sa),
                });
            }
        }
        out
    }

    /// Render the whole sweep as text: one coverage/best-k row per
    /// module plus the cross-module population overlap table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let first = match self.runs.first() {
            Some(r) => r,
            None => return out,
        };
        let cfg = first.results.config();
        let _ = writeln!(
            out,
            "per-module sweep — {} modules, {} origins, {} trials\n",
            self.runs.len(),
            cfg.origins.len(),
            cfg.trials,
        );

        let mut t = Table::new(
            ["module", "wire id", "port", "mode", "∪"]
                .into_iter()
                .map(String::from)
                .chain(cfg.origins.iter().map(|o| o.to_string())),
        );
        let coverage = self.coverage();
        for (run, cov) in self.runs.iter().zip(&coverage) {
            t.row(
                [
                    run.name().to_string(),
                    run.module.wire_name().to_string(),
                    run.module.port().to_string(),
                    if run.module.stateless() {
                        "stateless".to_string()
                    } else {
                        "syn+zgrab".to_string()
                    },
                    count(cov.union),
                ]
                .into_iter()
                .chain(cov.fractions.iter().map(|&f| pct(f))),
            );
        }
        let _ = writeln!(out, "mean coverage of ground truth:\n{}", t.render());

        let mut t = Table::new(["module", "best-2 origins", "covered"]);
        for row in self.best_k(2) {
            t.row([
                row.module.to_string(),
                row.origins.join(" + "),
                count(row.covered as usize),
            ]);
        }
        let _ = writeln!(out, "best 2-origin combination (trial 1):\n{}", t.render());

        let mut t = Table::new(["pair", "both", "only first", "only second"]);
        for d in self.diffs() {
            t.row([
                format!("{} ∩ {}", d.a, d.b),
                count(d.both as usize),
                count(d.only_a as usize),
                count(d.only_b as usize),
            ]);
        }
        let _ = writeln!(
            out,
            "cross-module population overlap (trial 1):\n{}",
            t.render()
        );
        out
    }
}

#[cfg(test)]
impl ModuleSweep<'_> {
    /// Per-module exclusive-accessibility percentages (share of ground
    /// truth only one origin could reach), keyed by module name.
    pub(crate) fn exclusivity(&self) -> Vec<(&'static str, Vec<f64>)> {
        self.runs
            .iter()
            .map(|run| {
                let panel = run.results.panel(run.module.protocol());
                let (accessible, _inaccessible) =
                    crate::exclusivity::exclusive_counts(&panel).percentages();
                (run.name(), accessible)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use originscan_netmodel::{OriginId, WorldConfig};

    fn sweep(world: &World) -> ModuleSweep<'_> {
        let base = ExperimentConfig {
            origins: vec![OriginId::Us1, OriginId::Germany, OriginId::Brazil],
            trials: 2,
            ..Default::default()
        };
        sweep_modules(world, &base).unwrap()
    }

    #[test]
    fn sweep_covers_every_registered_module() {
        let world = WorldConfig::tiny(71).build();
        let s = sweep(&world);
        let names: Vec<&str> = s.runs().iter().map(|r| r.name()).collect();
        let registry: Vec<&str> = modules().iter().map(|m| m.name()).collect();
        assert_eq!(names, registry);
        assert!(s.get("ICMP").is_some());
        assert!(s.get("GOPHER").is_none());
        // Every module found someone and the analyses key by name.
        for cov in s.coverage() {
            assert!(cov.union > 0, "{} saw nobody", cov.module);
            assert_eq!(cov.fractions.len(), 3);
        }
        assert_eq!(s.exclusivity().len(), registry.len());
        assert_eq!(s.best_k(2).len(), registry.len());
    }

    #[test]
    fn icmp_population_dominates_the_tcp_rows() {
        // The world makes every TCP-trio host pingable plus a tail, so
        // the ICMP row's ground truth must be the largest TCP-ish one.
        let world = WorldConfig::tiny(72).build();
        let s = sweep(&world);
        let union_of = |name: &str| {
            s.coverage()
                .iter()
                .find(|c| c.module == name)
                .map(|c| c.union)
                .unwrap()
        };
        assert!(union_of("ICMP") > union_of("HTTP"));
        assert!(union_of("ICMP") > union_of("SSH"));
        // DNS resolvers are the sparsest roster in the preset.
        assert!(union_of("DNS") < union_of("HTTP"));
    }

    #[test]
    fn diffs_and_render_key_by_module_name() {
        let world = WorldConfig::tiny(73).build();
        let s = sweep(&world);
        let diffs = s.diffs();
        // 5 modules → C(5,2) pairs, registry order.
        assert_eq!(diffs.len(), 10);
        let hh = diffs
            .iter()
            .find(|d| d.a == "HTTP" && d.b == "ICMP")
            .unwrap();
        // Trio hosts always ping: HTTP's trial-0 view overlaps ICMP's.
        assert!(hh.both > 0);
        let text = s.render();
        for m in modules() {
            assert!(text.contains(m.name()), "render misses {}", m.name());
            assert!(
                text.contains(m.wire_name()),
                "render misses {}",
                m.wire_name()
            );
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let world = WorldConfig::tiny(74).build();
        let a = sweep(&world).render();
        let b = sweep(&world).render();
        assert_eq!(a, b);
    }
}
