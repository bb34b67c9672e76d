//! Property tests for the scanner's core invariants.
// Gated: runs only with `--features proptest` (vendored shim; see
// third_party/proptest). The default offline build skips these suites.
#![cfg(feature = "proptest")]
#![expect(
    clippy::disallowed_types,
    reason = "tests assert membership/counts only; hash iteration order never escapes"
)]

use originscan_netmodel::FaultPlan;
use originscan_plan::{PlanEntry, TargetPlan};
use originscan_scanner::blocklist::{Blocklist, Cidr};
use originscan_scanner::cyclic::{is_prime, mod_mul, next_prime, Cycle, FixedMul};
use originscan_scanner::engine::{
    run_scan, run_scan_session, CheckpointStore, FaultAction, FaultCtx, FaultHook, ScanConfig,
    ScanOutput, ScanSession,
};
use originscan_scanner::target::{
    burst_of, Audible, L7Ctx, L7Reply, Line, Network, ProbeCtx, Protocol, SynReply,
};
use originscan_scanner::Pacer;
use originscan_scanner::{ScanError, MAX_PROBES};
use originscan_telemetry::{EventKind, Telemetry};
use originscan_wire::tcp::TcpHeader;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Mutex;

/// Silent at addresses whose hash falls under `quiet` of 256, which it
/// lends as clear [`Audible`] bits over `0..space`; the rest SYN-ACK, RST
/// or drop by the address and the send time, so a probe stamped on the
/// wrong clock gets another answer.
struct Patchy {
    key: u32,
    quiet: u32,
    lit: Vec<Line>,
}

impl Patchy {
    fn new(key: u32, quiet: u32, space: u64) -> Self {
        let mut net = Self {
            key,
            quiet,
            lit: Line::zeroed(space),
        };
        let lit: Vec<u32> = (0..space as u32).filter(|&a| !net.dark(a)).collect();
        for addr in lit {
            Line::set(&mut net.lit, addr);
        }
        net
    }
    fn hash(&self, dst: u32) -> u32 {
        (dst ^ self.key).wrapping_mul(0x9E37_79B9) >> 16
    }
    fn dark(&self, dst: u32) -> bool {
        self.hash(dst) % 256 < self.quiet
    }
}

impl Network for Patchy {
    fn audible(&self, _: u16, _: Protocol, _: u8) -> Option<Audible<'_>> {
        Some(Audible::new(&self.lit))
    }
    fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
        if self.dark(ctx.dst) {
            return SynReply::Silent;
        }
        match (self.hash(ctx.dst) / 256).wrapping_add(ctx.time_s as u32) % 3 {
            0 => SynReply::SynAck(TcpHeader::syn_ack_reply(probe, 7)),
            1 => SynReply::Rst(TcpHeader::rst_reply(probe)),
            _ => SynReply::Silent,
        }
    }
    fn l7(&self, _: &L7Ctx, _: &[u8]) -> L7Reply {
        L7Reply::Data(b"HTTP/1.1 200 OK\r\n\r\n".to_vec())
    }
}

/// Records every burst it is delivered, from any thread, and refuses
/// each; it lends no audible set, so every address is audible.
/// `order_free` is what the net says of itself: `true` fans a bare scan
/// out, `false` steps it.
struct Recorder {
    order_free: bool,
    delivered: Mutex<Vec<u32>>,
}

impl Network for Recorder {
    fn order_free(&self) -> bool {
        self.order_free
    }
    fn syn(&self, _: &ProbeCtx, probe: &TcpHeader) -> SynReply {
        SynReply::Rst(TcpHeader::rst_reply(probe))
    }
    fn syn_burst(&self, ctx: &ProbeCtx, probe: &TcpHeader, t: &[f64], out: &mut [SynReply]) {
        self.delivered
            .lock()
            .expect("no test thread panics")
            .push(ctx.dst);
        burst_of(ctx, t, out, |c| self.syn(c, probe));
    }
    fn l7(&self, _: &L7Ctx, _: &[u8]) -> L7Reply {
        L7Reply::Timeout
    }
}

/// Always continues: its presence alone makes the loop step one address
/// at a time.
struct Never;

impl FaultHook for Never {
    fn before_address(&self, _: &FaultCtx) -> FaultAction {
        FaultAction::Continue
    }
}

/// One supervised run: its output, the checkpoints it announced (steps,
/// addresses probed, time bits) and its hub's JSONL; the store keeps the
/// last checkpoint.
fn run_supervised(
    net: &Patchy,
    cfg: &ScanConfig,
    store: &CheckpointStore,
    stepwise: bool,
) -> (ScanOutput, Vec<(u64, u64, u64)>, String) {
    let hub = Telemetry::new();
    let session = ScanSession {
        hook: stepwise.then_some(&Never as &dyn FaultHook),
        store: Some(store),
        attempt: 0,
        telemetry: Some(&hub),
    };
    let out = run_scan_session(net, cfg, session).expect("scan runs");
    let snap = hub.snapshot();
    let saved = snap.events.iter().filter_map(|e| match e.kind {
        EventKind::CheckpointSaved {
            steps,
            addresses_probed,
        } => Some((steps, addresses_probed, e.time_s.to_bits())),
        _ => None,
    });
    (out, saved.collect(), snap.to_jsonl())
}

/// Forwards `before_address` to the hook it wraps and keeps the default
/// `quiet_until`, so a scan under it asks before every address.
struct Stepped<'a>(&'a dyn FaultHook);

impl FaultHook for Stepped<'_> {
    fn before_address(&self, ctx: &FaultCtx) -> FaultAction {
        self.0.before_address(ctx)
    }
}

/// Each attempt's result, the checkpoints announced (steps, addresses
/// probed, time bits) and the hub JSONL.
type Attempts = (
    Vec<Result<ScanOutput, ScanError>>,
    Vec<(u64, u64, u64)>,
    String,
);

/// Attempts of `cfg` under `hook`, sharing a store saving every `every`
/// steps and one hub, until one completes (at most three).
fn run_attempts(net: &Patchy, cfg: &ScanConfig, hook: &dyn FaultHook, every: u64) -> Attempts {
    let (hub, store) = (Telemetry::new(), CheckpointStore::new(every));
    let mut results = Vec::new();
    for attempt in 0..3 {
        let session = ScanSession {
            hook: Some(hook),
            store: Some(&store),
            attempt,
            telemetry: Some(&hub),
        };
        let result = run_scan_session(net, cfg, session);
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
    (results, saved.collect(), snap.to_jsonl())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The permutation visits every address exactly once, for any space
    /// size and seed — ZMap's correctness hinges on this.
    #[test]
    fn cycle_is_a_bijection(size in 1u64..5000, seed: u64) {
        let c = Cycle::new(size, seed);
        let visited: Vec<u64> = c.iter().collect();
        prop_assert_eq!(visited.len() as u64, size);
        let set: HashSet<u64> = visited.iter().copied().collect();
        prop_assert_eq!(set.len() as u64, size);
        prop_assert!(visited.iter().all(|&a| a < size));
    }

    /// The permutation's division-free step is the u128 remainder, at the
    /// prime of a `2^k`-address space for each k the scanner meets (the
    /// world presets' 16 to 24, and up to real ZMap's 2^32 + 15).
    #[test]
    fn fixed_mul_matches_u128_remainder(i in 0usize..7, a: u64, b: u64) {
        let k = [8, 16, 20, 22, 24, 31, 32][i];
        let m = next_prime((1u64 << k) + 1);
        let b = b % m;
        prop_assert_eq!(FixedMul::new(b, m).apply(a), mod_mul(a, b, m));
        prop_assert_eq!(FixedMul::new(b, m).apply(a % m), mod_mul(a, b, m));
    }

    /// `skip_probes(n)` is `n` calls of `next_send_time`, up to 10^5, from
    /// any state a scan reaches: after a prefix, with or without a rate
    /// change.
    #[test]
    fn skip_probes_is_n_sends(
        rate in 1.0f64..1e6,
        batch in 1u32..=64,
        prefix in 0u64..300,
        n in 0u64..=100_000,
        rerate in proptest::option::of(1.0f64..1e6),
        near: bool,
    ) {
        // Half the cases end within a few batches of the start: the roll-over edges.
        let n = if near { n % (3 * u64::from(batch) + 2) } else { n };
        let mut start = Pacer::new(rate, batch);
        for _ in 0..prefix {
            start.next_send_time();
        }
        if let Some(r) = rerate {
            start.set_rate(r);
        }
        let (mut stepped, mut jumped) = (start.clone(), start);
        for _ in 0..n {
            stepped.next_send_time();
        }
        jumped.skip_probes(n);
        prop_assert_eq!(&jumped, &stepped);
        prop_assert_eq!(jumped.next_send_time().to_bits(), stepped.next_send_time().to_bits());
    }

    /// A supervised scan that walks to the next checkpoint, counting silent
    /// runs in bulk, is the one that steps every address: the same output,
    /// checkpoints and hub JSONL; and the walk's last checkpoint resumes to
    /// the uninterrupted output.
    #[test]
    fn walking_to_the_next_checkpoint_equals_stepping_every_address(
        space in 256u64..4096,
        seed: u64,
        key: u32,
        quiet in 0u32..=256,
        s24s in proptest::collection::vec(0u32..16, 0..12),
        planned: bool,
        block in proptest::option::of((0u32..4096, 20u8..=32)),
        total in 1u64..4,
        probes in 1u8..=MAX_PROBES as u8,
        batch in 1u32..=64,
        cadence in 0usize..5,
    ) {
        let net = Patchy::new(key, quiet, space);
        let mut cfg = ScanConfig::new(space, Protocol::Http, seed);
        cfg.probes = probes;
        cfg.batch = batch;
        cfg.shard = (seed % total, total);
        if planned {
            let mut s24s: Vec<u32> = s24s.into_iter().filter(|&s| u64::from(s) * 256 < space).collect();
            s24s.sort_unstable();
            s24s.dedup();
            let entries = s24s.into_iter().map(|s24| PlanEntry { s24, score: 1 }).collect();
            cfg.plan = Some(TargetPlan::from_entries(space, 0, "prop", entries).expect("valid plan"));
        }
        if let Some((base, len)) = block {
            cfg.blocklist = Blocklist::from_cidrs([Cidr::new(base, len)]);
        }
        let count = Cycle::new(space, seed).iter_shard(cfg.shard.0, total).count() as u64;
        let divisor = (2..count).rev().find(|&d| count.is_multiple_of(d)).unwrap_or(count);
        let every = [0, 1, 1024, divisor, count][cadence];

        let uninterrupted = run_scan(&net, &cfg).expect("scan runs");
        let (walked_store, stepped_store) = (CheckpointStore::new(every), CheckpointStore::new(every));
        let walked = run_supervised(&net, &cfg, &walked_store, false);
        let stepped = run_supervised(&net, &cfg, &stepped_store, true);
        prop_assert_eq!(&walked.0, &uninterrupted);
        prop_assert_eq!(&walked.0, &stepped.0);
        prop_assert_eq!(&walked.1, &stepped.1);
        prop_assert!(walked.2 == stepped.2, "the hub JSONL differs");
        prop_assert_eq!(walked.1.len() as u64, count.checked_div(every).unwrap_or(0));
        // The walk's last checkpoint is still in its store: a resume.
        let session = ScanSession { store: Some(&walked_store), ..ScanSession::default() };
        prop_assert_eq!(run_scan_session(&net, &cfg, session).expect("resume runs"), uninterrupted);
    }

    /// A fault plan's hook, asked per window up to its scope's next crash
    /// or stall, is the same hook asked before every address: the same
    /// kills, checkpoints, output and hub JSONL, through crashes that spare
    /// later attempts, a stall and resumes from the checkpoint.
    #[test]
    fn hook_windows_equal_stepping_every_address(
        space in 256u64..4096,
        seed: u64,
        key: u32,
        quiet in 0u32..=256,
        s24s in proptest::collection::vec(0u32..16, 0..12),
        planned: bool,
        block in proptest::option::of((0u32..4096, 20u8..=32)),
        total in 1u64..4,
        probes in 1u8..=MAX_PROBES as u8,
        batch in 1u32..=64,
        cadence in 0usize..3,
        crash_at in 0.0f64..1.1,
        fail_attempts in 0u32..3,
        stall_at in 0.0f64..1.0,
        delay_s in 0.0f64..600.0,
        stretch in 0.5f64..2.0,
    ) {
        let net = Patchy::new(key, quiet, space);
        let mut cfg = ScanConfig::new(space, Protocol::Http, seed);
        cfg.probes = probes;
        cfg.batch = batch;
        cfg.shard = (seed % total, total);
        if planned {
            let mut s24s: Vec<u32> = s24s.into_iter().filter(|&s| u64::from(s) * 256 < space).collect();
            s24s.sort_unstable();
            s24s.dedup();
            let entries = s24s.into_iter().map(|s24| PlanEntry { s24, score: 1 }).collect();
            cfg.plan = Some(TargetPlan::from_entries(space, 0, "prop", entries).expect("valid plan"));
        }
        if let Some((base, len)) = block {
            cfg.blocklist = Blocklist::from_cidrs([Cidr::new(base, len)]);
        }
        // The plan's clock: near the scan's own, a little short or long.
        let duration_s = run_scan(&net, &cfg).expect("scan runs").summary.duration_s * stretch;
        let faults = FaultPlan::new(seed)
            .crash(0, 0, crash_at, fail_attempts)
            .stall(0, 0, stall_at, delay_s);
        let hook = faults.hook(duration_s);
        let every = [0, 1, 1024][cadence];
        let walked = run_attempts(&net, &cfg, &hook, every);
        let stepped = run_attempts(&net, &cfg, &Stepped(&hook), every);
        prop_assert_eq!(&walked.0, &stepped.0);
        let bits = |r: &[Result<ScanOutput, ScanError>]| -> Vec<u64> {
            r.iter().filter_map(|r| match r {
                Err(ScanError::Killed { time_s, .. }) => Some(time_s.to_bits()),
                _ => None,
            }).collect()
        };
        prop_assert_eq!(bits(&walked.0), bits(&stepped.0));
        prop_assert_eq!(&walked.1, &stepped.1);
        prop_assert!(walked.2 == stepped.2, "the hub JSONL differs");
    }

    /// A scan's skip filters, tested a /24 at a time, are the per-address
    /// checks: fanned or stepped, with or without `wire_check`, a net that
    /// lends no audible set is delivered a burst to exactly the addresses
    /// of its shard that the plan allows and the blocklist spares, and the
    /// rest are counted alike. Spaces
    /// need not be whole /24s (nor one chunk: wide ones fan out over the
    /// cores), and /8–/32 entries block some /24s in part.
    #[test]
    fn pass_bits_are_the_exact_filters(
        space in 1u64..12_000,
        seed: u64,
        s24s in proptest::collection::vec(any::<bool>(), 47),
        planned: bool,
        cidrs in proptest::collection::vec((0u32..24_000, 8u8..=32), 0..5),
        total in 1u64..4,
        how in 0usize..4,
    ) {
        let mut cfg = ScanConfig::new(space, Protocol::Http, seed);
        cfg.shard = (seed % total, total);
        (cfg.wire_check, cfg.probes) = (how >= 2, 1 + (how % 2) as u8);
        if planned {
            let entries = (0..space.div_ceil(256) as u32)
                .filter(|&s24| s24s[s24 as usize])
                .map(|s24| PlanEntry { s24, score: 1 })
                .collect();
            cfg.plan = Some(TargetPlan::from_entries(space, 0, "prop", entries).expect("valid plan"));
        }
        cfg.blocklist = Blocklist::from_cidrs(cidrs.iter().map(|&(base, len)| Cidr::new(base, len)));
        let (mut want, mut plan_skipped, mut blocked) = (Vec::new(), 0, 0);
        for addr in Cycle::new(space, seed).iter_shard(cfg.shard.0, total) {
            let addr = addr as u32;
            if cfg.plan.as_ref().is_some_and(|plan| !plan.allows(addr)) {
                plan_skipped += 1;
            } else if cfg.blocklist.contains(addr) {
                blocked += 1;
            } else {
                want.push(addr);
            }
        }
        want.sort_unstable();
        let mut outputs = Vec::new();
        for order_free in [true, false] {
            let net = Recorder { order_free, delivered: Mutex::default() };
            let out = run_scan(&net, &cfg).expect("scan runs");
            let s = out.summary;
            let mut delivered = net.delivered.into_inner().expect("no test thread panics");
            delivered.sort_unstable();
            prop_assert!(delivered == want, "order-free {}: bursts to other addresses", order_free);
            prop_assert_eq!((s.plan_skipped, s.blocked, s.addresses_probed), (plan_skipped, blocked, want.len() as u64));
            outputs.push(out);
        }
        prop_assert_eq!(&outputs[0], &outputs[1]);
    }

    /// Shards partition the space: disjoint, and their union is complete.
    #[test]
    fn shards_partition(size in 1u64..3000, seed: u64, total in 1u64..6) {
        let c = Cycle::new(size, seed);
        let mut all: Vec<u64> = Vec::new();
        for s in 0..total {
            let part: Vec<u64> = c.iter_shard(s, total).collect();
            all.extend(part);
        }
        all.sort_unstable();
        let expected: Vec<u64> = (0..size).collect();
        prop_assert_eq!(all, expected);
    }

    /// next_prime returns a prime ≥ n, and not absurdly far.
    #[test]
    fn next_prime_correct(n in 2u64..1_000_000) {
        let p = next_prime(n);
        prop_assert!(p >= n);
        prop_assert!(is_prime(p));
        // Bertrand's postulate: a prime exists below 2n.
        prop_assert!(p < 2 * n + 2);
    }

    /// Miller-Rabin agrees with trial division on small numbers.
    #[test]
    fn primality_matches_trial_division(n in 2u64..20_000) {
        let trial = (2..n).take_while(|d| d * d <= n).all(|d| n % d != 0);
        prop_assert_eq!(is_prime(n), trial);
    }

    /// Blocklist membership matches the naive interpretation of the CIDRs.
    #[test]
    fn blocklist_matches_naive(
        cidrs in proptest::collection::vec((any::<u32>(), 8u8..=32), 0..8),
        probes in proptest::collection::vec(any::<u32>(), 32),
    ) {
        let list: Vec<Cidr> = cidrs.iter().map(|&(b, l)| Cidr::new(b, l)).collect();
        let bl = Blocklist::from_cidrs(list.iter().copied());
        for &p in &probes {
            let naive = list.iter().any(|c| p >= c.first() && p <= c.last());
            prop_assert_eq!(bl.contains(p), naive, "addr {}", p);
        }
    }

    /// Merged blocklists behave like the union of their parts.
    #[test]
    fn blocklist_merge_is_union(
        a in proptest::collection::vec((any::<u32>(), 12u8..=32), 0..5),
        b in proptest::collection::vec((any::<u32>(), 12u8..=32), 0..5),
        probes in proptest::collection::vec(any::<u32>(), 16),
    ) {
        let la = Blocklist::from_cidrs(a.iter().map(|&(x, l)| Cidr::new(x, l)));
        let lb = Blocklist::from_cidrs(b.iter().map(|&(x, l)| Cidr::new(x, l)));
        let mut merged = la.clone();
        merged.merge(&lb);
        for &p in &probes {
            prop_assert_eq!(merged.contains(p), la.contains(p) || lb.contains(p));
        }
    }

    /// Blocklist size equals the size of the covered set.
    #[test]
    fn blocklist_len_counts_unique_addresses(
        cidrs in proptest::collection::vec((0u32..1 << 16, 24u8..=32), 0..6),
    ) {
        let bl = Blocklist::from_cidrs(cidrs.iter().map(|&(b, l)| Cidr::new(b, l)));
        let naive: HashSet<u32> = cidrs
            .iter()
            .flat_map(|&(b, l)| {
                let c = Cidr::new(b, l);
                c.first()..=c.last()
            })
            .collect();
        prop_assert_eq!(bl.len(), naive.len() as u64);
    }
}
