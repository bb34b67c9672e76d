//! A fault hook's windows are stepping. A scan under a `FaultPlan`'s hook,
//! which names the send-clock time of its scope's next crash or stall,
//! walks up to that time, silent runs counted in bulk; behind a wrapper
//! that keeps the default `quiet_until`, the same hook is asked before
//! every address. Both write the same kill, checkpoints, output and hub
//! JSONL, through a crash, a stall and a resume from the checkpoint.

use originscan_netmodel::FaultPlan;
use originscan_plan::{PlanEntry, TargetPlan};
use originscan_scanner::engine::{
    run_scan, run_scan_session, CheckpointStore, FaultAction, FaultCtx, FaultHook, ScanConfig,
    ScanOutput, ScanSession,
};
use originscan_scanner::target::{
    Audible, L7Ctx, L7Reply, Line, Network, ProbeCtx, Protocol, SynReply,
};
use originscan_scanner::{AdaptivePolicy, Blocklist, Cycle, ScanError, MAX_PROBES};
use originscan_telemetry::{EventKind, Telemetry};
use originscan_wire::tcp::TcpHeader;
use std::sync::Mutex;

/// Silent at three addresses in four, by a hash of the address, which it
/// lends as clear bits; the rest SYN-ACK, RST or drop by the address and
/// the send time, so a probe stamped on the wrong clock gets another
/// answer.
struct Patchy(Vec<Line>);

const SPACE: u64 = 4096;

fn hash(dst: u32) -> u32 {
    (dst ^ 0x5eed).wrapping_mul(0x9E37_79B9) >> 16
}

fn dark(dst: u32) -> bool {
    !hash(dst).is_multiple_of(4)
}

fn patchy() -> Patchy {
    let mut lines = Line::zeroed(SPACE);
    for addr in (0..SPACE as u32).filter(|&a| !dark(a)) {
        Line::set(&mut lines, addr);
    }
    Patchy(lines)
}

impl Network for Patchy {
    fn audible(&self, _: u16, _: Protocol, _: u8) -> Option<Audible<'_>> {
        Some(Audible::new(&self.0))
    }
    fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
        if dark(ctx.dst) {
            return SynReply::Silent;
        }
        match (hash(ctx.dst) / 4).wrapping_add(ctx.time_s as u32) % 3 {
            0 => SynReply::SynAck(TcpHeader::syn_ack_reply(probe, 7)),
            1 => SynReply::Rst(TcpHeader::rst_reply(probe)),
            _ => SynReply::Silent,
        }
    }
    fn l7(&self, _: &L7Ctx, _: &[u8]) -> L7Reply {
        L7Reply::Data(b"HTTP/1.1 200 OK\r\n\r\n".to_vec())
    }
}

/// A hook behind a wrapper that logs every answer it gives the engine,
/// with its attempt. With `windows` it forwards `quiet_until`; without,
/// the default keeps the scan asking before every address.
struct Asked<'a> {
    hook: &'a dyn FaultHook,
    windows: bool,
    log: Mutex<Vec<(u32, FaultAction)>>,
}

impl FaultHook for Asked<'_> {
    fn before_address(&self, ctx: &FaultCtx) -> FaultAction {
        let action = self.hook.before_address(ctx);
        self.log.lock().unwrap().push((ctx.attempt, action));
        action
    }
    fn quiet_until(&self, ctx: &FaultCtx) -> f64 {
        if self.windows {
            self.hook.quiet_until(ctx)
        } else {
            ctx.time_s
        }
    }
}

/// What a supervised run leaves: each attempt's result, the checkpoints
/// announced (steps, addresses probed, time bits), the hub JSONL, and the
/// hook's log.
type Run = (
    Vec<Result<ScanOutput, ScanError>>,
    Vec<(u64, u64, u64)>,
    String,
    Vec<(u32, FaultAction)>,
);

/// Attempts of `cfg` under `hook` sharing one store and one hub, until
/// one completes (at most three).
fn supervise(cfg: &ScanConfig, hook: &dyn FaultHook, windows: bool, every: u64) -> Run {
    let (net, hub, store) = (patchy(), Telemetry::new(), CheckpointStore::new(every));
    let asked = Asked {
        hook,
        windows,
        log: Mutex::default(),
    };
    let mut results = Vec::new();
    for attempt in 0..3 {
        let session = ScanSession {
            hook: Some(&asked),
            store: Some(&store),
            attempt,
            telemetry: Some(&hub),
        };
        let result = run_scan_session(&net, cfg, session);
        let done = result.is_ok();
        results.push(result);
        if done {
            break;
        }
    }
    let snap = hub.snapshot();
    let saved = snap.events.iter().filter_map(|e| match e.kind {
        EventKind::CheckpointSaved {
            steps,
            addresses_probed,
        } => Some((steps, addresses_probed, e.time_s.to_bits())),
        _ => None,
    });
    let saved = saved.collect();
    (
        results,
        saved,
        snap.to_jsonl(),
        asked.log.into_inner().unwrap(),
    )
}

/// Probes 1..=`MAX_PROBES`, batches of 1, 3 and 16, checkpoints never,
/// every step and every 1 024 steps, each with and without a plan, a
/// blocklist, a shard and an adaptive controller: a plan hook that crashes
/// attempt 0 and stalls once, asked per window, is the same hook asked per
/// address.
#[test]
fn hook_windows_equal_stepping_every_address() {
    let entries = [0, 2, 3, 7, 11, 12].map(|s24| PlanEntry { s24, score: 1 });
    let plan = TargetPlan::from_entries(SPACE, 99, "observed", entries.to_vec()).unwrap();
    let (mut inside_batch, mut inside_silence, mut adaptive_kills) = (0, 0, 0);
    for axes in 0..16u8 {
        for probes in 1..=MAX_PROBES as u8 {
            let mut c = ScanConfig::new(SPACE, Protocol::Http, 99);
            c.probes = probes;
            c.batch = [1, 3, 16][usize::from(probes) % 3];
            c.plan = (axes & 1 != 0).then(|| plan.clone());
            if axes & 2 != 0 {
                c.blocklist = Blocklist::parse("0.0.2.0/23").unwrap();
            }
            c.shard = if axes & 4 != 0 { (1, 3) } else { (0, 1) };
            // A controller steps and re-rates the pacer mid-promise.
            if axes & 8 != 0 {
                c.source_ips = vec![0x0a00_0001, 0x0a00_0002, 0x0a00_0003];
                c.adapt = Some(AdaptivePolicy {
                    window_addrs: 32,
                    recovery_windows: 2,
                    ..AdaptivePolicy::default()
                });
            }
            // Fractions of the scan's own clock, so every fault strikes;
            // an adaptive scan's tail pass runs at its backed-off rate,
            // so its faults go early.
            let duration_s = run_scan(&patchy(), &c).unwrap().summary.duration_s
                * if c.adapt.is_some() { 0.3 } else { 1.0 };
            let crash_at = [0.45, 0.6137][usize::from(probes) % 2];
            let stall_at = [0.2, 0.3561, 0.5][usize::from(axes) % 3];
            let faults = FaultPlan::new(7)
                .crash(0, 0, crash_at, 1)
                .stall(0, 0, stall_at, 30.0)
                .crash(1, 0, 0.1, 1);
            let hook = faults.hook(duration_s);
            for every in [0, 1, 1024] {
                let at = (axes, probes, every);
                let walked = supervise(&c, &hook, true, every);
                let stepped = supervise(&c, &hook, false, every);
                assert_eq!(walked.0, stepped.0, "{at:?}");
                let kill = |run: &Run| match run.0[0] {
                    Err(ScanError::Killed { time_s, .. }) => Some(time_s),
                    _ => None,
                };
                let killed = kill(&walked).map(f64::to_bits);
                assert_eq!(
                    killed,
                    kill(&stepped).map(f64::to_bits),
                    "{at:?}: kill time"
                );
                // Only an adaptive scan's main pass may end before its crash.
                adaptive_kills += usize::from(c.adapt.is_some() && killed.is_some());
                assert!(killed.is_some() || c.adapt.is_some(), "{at:?}: not killed");
                assert_eq!(walked.0.len(), 1 + usize::from(killed.is_some()), "{at:?}");
                assert_eq!(walked.1, stepped.1, "{at:?}");
                assert!(walked.2 == stepped.2, "{at:?}: the hub JSONL differs");
                // Unless a controller steps or a checkpoint falls due at
                // every step, the walk asked less often; it met every
                // action stepping met.
                if every != 1 && c.adapt.is_none() {
                    assert!(walked.3.len() < stepped.3.len(), "{at:?}: no window");
                }
                let acted = |log: &[(u32, FaultAction)]| -> Vec<(u32, FaultAction)> {
                    let acts = log.iter().filter(|(_, a)| *a != FaultAction::Continue);
                    acts.copied().collect()
                };
                assert_eq!(acted(&walked.3), acted(&stepped.3), "{at:?}");
                // The crash struck between two sends of a batch.
                let stalled_s = if stall_at < crash_at { 30.0 } else { 0.0 };
                let crash_s = crash_at * duration_s + stalled_s;
                inside_batch += usize::from(c.batch > 1 && kill(&walked) > Some(crash_s));
                // Stepping, attempt 0 is asked once per step: the step
                // the stall came before, and the one before it, are
                // silent addresses the walk would have counted in bulk.
                let stall = stepped.3.iter().position(|&(attempt, a)| {
                    attempt == 0 && matches!(a, FaultAction::Stall { .. })
                });
                let order: Vec<u32> = Cycle::new(c.space, 99)
                    .iter_shard(c.shard.0, c.shard.1)
                    .map(|a| a as u32)
                    .collect();
                let probed = |a: u32| {
                    c.plan.as_ref().is_none_or(|p| p.allows(a)) && !c.blocklist.contains(a)
                };
                if let Some(k) = stall.filter(|&k| k > 0) {
                    let (prev, next) = (order[k - 1], order[k]);
                    inside_silence +=
                        usize::from(probed(prev) && probed(next) && dark(prev) && dark(next));
                }
            }
        }
    }
    assert!(inside_batch > 0 && inside_silence > 0 && adaptive_kills > 0);
}
