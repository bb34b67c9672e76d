//! End-to-end fault-injection guarantees, asserted at the level the
//! analyses consume (trial matrices), not just the scanner engine:
//!
//! 1. **Isolation** — injecting a mid-trial outage (or crash) into one
//!    origin leaves every *other* origin's scan bit-identical to the
//!    fault-free experiment.
//! 2. **Resumability** — a scan killed mid-permutation and resumed from
//!    its checkpoint produces output equal to the uninterrupted scan.
//! 3. **Graceful degradation** — a terminally failed origin is carried
//!    as `Failed` and excluded from ground truth instead of sinking the
//!    trial.

use originscan::core::experiment::{
    supervise_scan, Experiment, ExperimentConfig, RunStatus, SupervisorPolicy,
};
use originscan::core::ExperimentResults;
use originscan::netmodel::{FaultPlan, InjectedFault, OriginId, Protocol, SimNet, WorldConfig};
use originscan::scanner::engine::ScanConfig;
use originscan::scanner::rate_for_duration;

const DUR: f64 = 21.0 * 3600.0;

fn cfg(faults: Option<FaultPlan>) -> ExperimentConfig {
    ExperimentConfig {
        origins: vec![OriginId::Us1, OriginId::Germany, OriginId::Japan],
        protocols: vec![Protocol::Http],
        trials: 2,
        faults,
        ..Default::default()
    }
}

/// The raw per-origin record streams of one trial, as (addr, outcome)
/// pairs restricted to nothing — full rows.
fn origin_rows(r: &ExperimentResults<'_>, trial: u8, oi: usize) -> Vec<(u32, u8)> {
    r.matrix(Protocol::Http, trial)
        .iter_origin(oi)
        .map(|(_, addr, o)| (addr, o.0))
        .collect()
}

#[test]
fn outage_leaves_other_origins_bit_identical() {
    let world = WorldConfig::tiny(41).build();
    // Germany (origin 1) goes dark for the middle fifth of trial 0 and
    // additionally crashes once inside the window; the other two origins
    // and all of trial 1 must be untouched.
    let plan = FaultPlan::new(7)
        .outage(1, 0, 0.4, 0.6)
        .crash(1, 0, 0.45, 1)
        .corrupt_replies(1, 0, 0.05);
    let clean = Experiment::new(&world, cfg(None)).run().unwrap();
    let faulted = Experiment::new(&world, cfg(Some(plan))).run().unwrap();

    for trial in 0..2u8 {
        let mc = clean.matrix(Protocol::Http, trial);
        let mf = faulted.matrix(Protocol::Http, trial);
        if trial == 1 {
            // Trial 1 has no faults at all: everything identical.
            assert_eq!(mc.addrs, mf.addrs);
            assert_eq!(mc.outcomes, mf.outcomes);
            assert!(mf.all_clean());
            continue;
        }
        // Trial 0: the faulted origin is degraded...
        assert!(
            matches!(
                mf.statuses[1],
                RunStatus::Degraded {
                    fault: InjectedFault::Outage,
                    ..
                }
            ),
            "Germany should be degraded: {}",
            mf.statuses[1]
        );
        // ...and only it. The untouched origins' rows are bit-identical
        // on the addresses common to both ground truths (GT shrinks when
        // the faulted origin loses exclusive hosts).
        for oi in [0usize, 2] {
            assert!(mf.statuses[oi].is_clean());
            let clean_rows: Vec<_> = origin_rows(&clean, trial, oi)
                .into_iter()
                .filter(|(a, _)| mf.index_of(*a).is_some())
                .collect();
            let fault_rows: Vec<_> = origin_rows(&faulted, trial, oi)
                .into_iter()
                .filter(|(a, _)| mc.index_of(*a).is_some())
                .collect();
            assert_eq!(
                clean_rows, fault_rows,
                "origin {oi} was perturbed by Germany's faults"
            );
        }
        // The outage really cost Germany hosts.
        assert!(mf.seen_count(1) < mc.seen_count(1));
    }
}

#[test]
fn killed_and_resumed_scan_equals_uninterrupted() {
    let world = WorldConfig::tiny(42).build();
    let origins = [OriginId::Us1];
    let net = SimNet::new(&world, &origins, DUR);
    let mut sc = ScanConfig::new(world.space(), Protocol::Http, 1234);
    sc.rate_pps = rate_for_duration(world.space() * 2, DUR);

    let uninterrupted = supervise_scan(&net, &sc, None, &SupervisorPolicy::default(), None);
    assert_eq!(uninterrupted.status, RunStatus::Completed);

    // Kill the scan 70% of the way through, once.
    let plan = FaultPlan::new(0).crash(0, 0, 0.7, 1);
    let hook = plan.hook(DUR);
    let resumed = supervise_scan(&net, &sc, Some(&hook), &SupervisorPolicy::default(), None);
    assert_eq!(resumed.status, RunStatus::Resumed { retries: 1 });
    assert_eq!(
        resumed.output, uninterrupted.output,
        "checkpoint resume must be bit-identical, timestamps included"
    );

    // Same, but with resume disabled (checkpoint_every = 0): the retry
    // restarts from scratch and must *still* be bit-identical, because
    // simulated backoff never shifts the pacer clock.
    let policy = SupervisorPolicy {
        checkpoint_every: 0,
        ..Default::default()
    };
    let restarted = supervise_scan(&net, &sc, Some(&hook), &policy, None);
    assert_eq!(restarted.status, RunStatus::Resumed { retries: 1 });
    assert_eq!(restarted.output, uninterrupted.output);
}

#[test]
fn overlapping_outage_windows_behave_as_their_union() {
    use originscan::netmodel::FaultyNet;

    let world = WorldConfig::tiny(44).build();
    let origins = [OriginId::Us1];
    let net = SimNet::new(&world, &origins, DUR);
    let mut sc = ScanConfig::new(world.space(), Protocol::Http, 55);
    sc.rate_pps = rate_for_duration(world.space() * 2, DUR);
    let scan = |plan: &FaultPlan| {
        let fa = FaultyNet::new(&net, plan, DUR);
        let hook = plan.hook(DUR);
        supervise_scan(&fa, &sc, Some(&hook), &SupervisorPolicy::default(), None)
    };

    // Two overlapping dark windows are indistinguishable from one merged
    // window: an address is silenced iff it falls in *any* window.
    let overlapping = FaultPlan::new(9)
        .outage(0, 0, 0.3, 0.5)
        .outage(0, 0, 0.4, 0.7);
    let merged = FaultPlan::new(9).outage(0, 0, 0.3, 0.7);
    let a = scan(&overlapping);
    let b = scan(&merged);
    assert_eq!(a.output, b.output, "overlap must act as the union");

    // The union actually silenced something (vs. fault-free).
    let clean = supervise_scan(&net, &sc, None, &SupervisorPolicy::default(), None);
    let count =
        |r: &originscan::core::experiment::OriginRun| r.output.as_ref().unwrap().records.len();
    assert!(count(&a) < count(&clean), "the outage cost nothing");
}

#[test]
fn zero_duration_stall_is_identical_to_fault_free() {
    use originscan::netmodel::FaultyNet;

    let world = WorldConfig::tiny(45).build();
    let origins = [OriginId::Us1];
    let net = SimNet::new(&world, &origins, DUR);
    let mut sc = ScanConfig::new(world.space(), Protocol::Http, 56);
    sc.rate_pps = rate_for_duration(world.space() * 2, DUR);

    let clean = supervise_scan(&net, &sc, None, &SupervisorPolicy::default(), None);
    let plan = FaultPlan::new(9).stall(0, 0, 0.5, 0.0);
    let fa = FaultyNet::new(&net, &plan, DUR);
    let hook = plan.hook(DUR);
    let stalled = supervise_scan(&fa, &sc, Some(&hook), &SupervisorPolicy::default(), None);
    assert_eq!(stalled.status, RunStatus::Completed);
    assert_eq!(
        stalled.output, clean.output,
        "a zero-second stall must not shift a single timestamp"
    );
}

#[test]
fn crash_inside_outage_window_resumes_across_the_boundary() {
    use originscan::netmodel::FaultyNet;

    let world = WorldConfig::tiny(46).build();
    let origins = [OriginId::Us1];
    let net = SimNet::new(&world, &origins, DUR);
    let mut sc = ScanConfig::new(world.space(), Protocol::Http, 57);
    sc.rate_pps = rate_for_duration(world.space() * 2, DUR);

    // Reference: the outage alone, no crash.
    let outage_only = FaultPlan::new(9).outage(0, 0, 0.4, 0.6);
    let fa = FaultyNet::new(&net, &outage_only, DUR);
    let hook_a = outage_only.hook(DUR);
    let reference = supervise_scan(&fa, &sc, Some(&hook_a), &SupervisorPolicy::default(), None);
    assert_eq!(reference.status, RunStatus::Completed);

    // Crash mid-outage: the periodic checkpoint the resume starts from
    // was taken *inside* the dark window, so the replayed span straddles
    // the fault boundary. The resumed scan must still equal the
    // uninterrupted-with-outage run, silenced window included.
    let with_crash = FaultPlan::new(9).outage(0, 0, 0.4, 0.6).crash(0, 0, 0.5, 1);
    let fb = FaultyNet::new(&net, &with_crash, DUR);
    let hook_b = with_crash.hook(DUR);
    let resumed = supervise_scan(&fb, &sc, Some(&hook_b), &SupervisorPolicy::default(), None);
    assert_eq!(resumed.status, RunStatus::Resumed { retries: 1 });
    assert_eq!(resumed.output, reference.output);
}

#[test]
fn experiment_with_unrecoverable_origin_degrades_not_dies() {
    let world = WorldConfig::tiny(43).build();
    let plan = FaultPlan::new(3).crash(2, 1, 0.1, u32::MAX);
    let r = Experiment::new(&world, cfg(Some(plan))).run().unwrap();
    let m = r.matrix(Protocol::Http, 1);
    assert!(matches!(m.statuses[2], RunStatus::Failed { .. }));
    assert_eq!(m.seen_count(2), 0);
    assert!(!m.is_empty(), "survivors still define ground truth");
    // The report machinery renders rather than panics on partial data.
    let report = originscan::core::summary::full_report(&r);
    assert!(report.contains("FAILED (killed by fault)"), "{report}");
    // And the disrupted-run inventory names exactly one run.
    let disrupted = r.disrupted_runs();
    assert_eq!(disrupted.len(), 1);
    assert_eq!(disrupted[0].2, OriginId::Japan);
}
