//! Adversarial co-simulation contracts: the politeness × aggression
//! sweep is byte-deterministic (matrix TSV and telemetry JSONL identical
//! across same-seed runs), the adaptive scanner degrades gracefully
//! where the open-loop baseline collapses, and an adaptive scan resumed
//! from a checkpoint is bit-identical to an uninterrupted one.

use originscan::core::adversarial::{
    AdversarialConfig, AdversarialResults, AdversarialSweep, CellStatus, PolitenessProfile,
};
use originscan::netmodel::AggressionProfile;
use originscan::netmodel::{OriginId, Protocol, SimNet, World, WorldConfig};
use originscan::scanner::engine::ScanConfig;
use originscan::scanner::target::{L7Ctx, L7Reply, Network, ProbeCtx, SynReply};
use originscan::telemetry::Scope;
use originscan::wire::tcp::TcpHeader;
use std::sync::atomic::{AtomicBool, Ordering};

/// Compressed trials so per-AS probe rates reach the detectors' trip
/// range at tiny-world scale.
const DUR_S: f64 = 6.0 * 3600.0;

fn sweep_cfg() -> AdversarialConfig {
    AdversarialConfig {
        trials: 2,
        duration_s: DUR_S,
        politeness: vec![PolitenessProfile::baseline(), PolitenessProfile::adaptive()],
        aggression: vec![AggressionProfile::off(), AggressionProfile::aggressive()],
        ..AdversarialConfig::default()
    }
}

fn run(world: &World) -> AdversarialResults {
    AdversarialSweep::new(world, sweep_cfg()).run().unwrap()
}

#[test]
fn same_seed_sweeps_are_byte_identical() {
    let world = WorldConfig::tiny(41).build();
    let a = run(&world);
    let b = run(&world);

    // The exported matrix bytes...
    assert_eq!(a.matrix_tsv(), b.matrix_tsv());
    assert_eq!(a.render(), b.render());
    // ...the condensed cells...
    assert_eq!(a.cells(), b.cells());
    // ...and every serialized telemetry surface, parallel cells included.
    assert_eq!(a.telemetry(), b.telemetry());
    assert_eq!(a.telemetry().events_jsonl(), b.telemetry().events_jsonl());
    assert_eq!(a.telemetry().metrics_jsonl(), b.telemetry().metrics_jsonl());
    assert_eq!(a.telemetry().to_jsonl(), b.telemetry().to_jsonl());

    // The defenders actually engaged, so the equality covered the
    // adversarial paths, not an empty stream.
    assert!(a.cell(0, 1).defense.detections > 0);
    assert!(a.cell(1, 1).backoffs > 0);
}

#[test]
fn adaptive_scanner_degrades_gracefully_under_aggressive_defense() {
    let world = WorldConfig::tiny(41).build();
    let r = run(&world);
    let baseline = r.cell(0, 1);
    let adaptive = r.cell(1, 1);

    // The open-loop baseline is detected until the reputation store
    // lists it; its coverage collapses.
    assert_eq!(baseline.status, CellStatus::Listed);
    assert!(
        baseline.mean_coverage() < 0.5,
        "baseline kept {:.3}",
        baseline.mean_coverage()
    );
    // The adaptive scanner reacts — backoff, rotation, deferral — and
    // retains strictly more coverage than the baseline.
    assert!(adaptive.backoffs > 0, "no backoff engaged");
    assert!(adaptive.rotations > 0, "no source rotation");
    assert!(
        adaptive.mean_coverage() > baseline.mean_coverage(),
        "adaptive {:.4} must beat baseline {:.4}",
        adaptive.mean_coverage(),
        baseline.mean_coverage()
    );

    // The detection → block → backoff sequence is visible in the
    // exported timeline of the adaptive cell (origin index = row-major
    // cell index: baseline×off=0, baseline×aggr=1, adaptive×off=2,
    // adaptive×aggr=3).
    let t = r.telemetry();
    let events: Vec<&str> = t
        .events_for(Scope::new("HTTP", 0, 3))
        .map(|e| e.kind.name())
        .collect();
    let first = |name: &str| events.iter().position(|&n| n == name);
    let detected = first("scan_detected").expect("a detection in the timeline");
    let blocked = first("block_started").expect("a block in the timeline");
    let backoff = first("backoff_engaged").expect("a backoff in the timeline");
    assert!(detected <= blocked, "detection precedes its block");
    assert!(blocked < backoff, "the scanner reacts after being blocked");
    // The JSONL export carries the same story.
    let jsonl = t.events_jsonl();
    for kind in [
        "scan_detected",
        "block_started",
        "backoff_engaged",
        "source_rotated",
    ] {
        assert!(jsonl.contains(kind), "{kind} missing from JSONL");
    }
    // And the baseline's listing is on record.
    assert!(jsonl.contains("origin_listed"));
}

/// A network that panics the first time a chosen address is probed.
struct PanicOnce<N> {
    inner: N,
    addr: u32,
    armed: AtomicBool,
}

impl<N: Network> Network for PanicOnce<N> {
    fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
        if ctx.dst == self.addr && self.armed.swap(false, Ordering::SeqCst) {
            panic!("injected panic at {:#x}", self.addr);
        }
        self.inner.syn(ctx, probe)
    }
    fn l7(&self, ctx: &L7Ctx, req: &[u8]) -> L7Reply {
        self.inner.l7(ctx, req)
    }
}

/// A stateless blocking front: every even /24 answers RSTs, emulating a
/// tarpit without any memory. Statelessness matters — a resumed scan
/// replays the span since the last checkpoint, and only a memoryless
/// network guarantees the replay sees identical replies (a stateful
/// `DefenderNet`'s detectors would legitimately diverge).
struct RstBand<'a, N> {
    inner: &'a N,
}

impl<N: Network> Network for RstBand<'_, N> {
    fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
        if (ctx.dst >> 8).is_multiple_of(2) {
            SynReply::Rst(TcpHeader::rst_reply(probe))
        } else {
            self.inner.syn(ctx, probe)
        }
    }
    fn l7(&self, ctx: &L7Ctx, req: &[u8]) -> L7Reply {
        self.inner.l7(ctx, req)
    }
}

#[test]
fn adaptive_scan_resumes_bit_identically_from_checkpoints() {
    use originscan::core::experiment::{supervise_scan, RunStatus, SupervisorPolicy};

    let world = WorldConfig::tiny(41).build();
    let origins = [OriginId::Us1];
    let net = SimNet::new(&world, &origins, DUR_S);
    let banded = RstBand { inner: &net };

    let p = PolitenessProfile::adaptive();
    let space = world.space();
    let mut cfg = ScanConfig::new(space, Protocol::Http, 99);
    cfg.rate_pps = originscan::scanner::rate_for_duration(space * 2, DUR_S);
    cfg.adapt = p.adapt.clone();
    cfg.source_ips = (0..p.source_ips)
        .map(|i| 0x0a00_0100 + u32::from(i))
        .collect();

    let clean = supervise_scan(&banded, &cfg, None, &SupervisorPolicy::default(), None);
    assert_eq!(clean.status, RunStatus::Completed);
    let out = clean.output.as_ref().unwrap();
    // The RST saturation drove the controller, so the checkpoints carried
    // live pacer/controller state, not defaults.
    assert!(
        out.records.iter().any(|rec| rec.got_rst),
        "no RSTs observed"
    );

    // Crash mid-scan; the supervisor resumes from a periodic checkpoint
    // (the re-rated pacer plus the controller's state).
    let victim = out.records[out.records.len() / 2].addr;
    let panicky = PanicOnce {
        inner: RstBand { inner: &net },
        addr: victim,
        armed: AtomicBool::new(true),
    };
    let resumed = supervise_scan(&panicky, &cfg, None, &SupervisorPolicy::default(), None);
    assert_eq!(resumed.status, RunStatus::Resumed { retries: 1 });
    assert_eq!(
        resumed.output, clean.output,
        "resumed adaptive scan must be bit-identical"
    );
}
