//! One open-loop scan across cores.
//!
//! What makes a scan sequential is its send clock. An *open-loop* scan —
//! no fault hook, checkpoint store, telemetry hub or adaptive controller,
//! against a network whose replies do not depend on call order
//! ([`Network::order_free`]) — has a clock that is a pure function of how
//! many probes were handed out before an address ([`Pacer::at`]), so the
//! engine's step loop splits into three stages:
//!
//! * a **serial dispenser** behind one lock walks the permutation through
//!   the plan and blocklist filters and hands out chunks of surviving
//!   addresses, each with the probe offset it starts at;
//! * **workers**, the calling thread among them, seat a pacer at that
//!   offset and run the engine's own per-address probe over the chunk's
//!   audible addresses, counting each run of silent ones at once;
//! * an **in-order commit** appends a finished chunk's records to the one
//!   output when every earlier chunk is in, and otherwise leaves them with
//!   the worker, which moves on; what is left at the join is merged by
//!   chunk index.
//!
//! The output is the step loop's, bit for bit, at any worker count.

use crate::engine::{
    restore_or_start, skip_silent, walk, HostScanRecord, Progress, ScanConfig, ScanCtx, ScanOutput,
    ScanSession,
};
use crate::error::ScanError;
use crate::rate::Pacer;
use crate::target::Network;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

/// Surviving addresses per chunk: large enough that the lock a chunk
/// takes vanishes beside its probes, small enough that a worker's
/// uncommitted records stay a sliver of the output.
pub(crate) const CHUNK: usize = 4096;

/// Is this scan's send clock a function of the probe count alone? A
/// hook stalls it, a store and a hub record it step by step, a
/// controller re-rates it from replies, and an order-sensitive network
/// reads it off the order of its calls: each of those is one thread.
pub(crate) fn open_loop(net: &dyn Network, cfg: &ScanConfig, session: &ScanSession<'_>) -> bool {
    session.hook.is_none()
        && session.store.is_none()
        && session.telemetry.is_none()
        && cfg.adapt.is_none()
        && net.order_free()
}

/// Workers for `cfg`: one per core, but no more than its shard has
/// chunks — a scan of one chunk spawns nothing.
pub(crate) fn threads(cfg: &ScanConfig) -> usize {
    let cores = crate::cores();
    let chunks = (cfg.space / cfg.shard.1.max(1)).div_ceil(CHUNK as u64);
    cores.min(usize::try_from(chunks).unwrap_or(cores)).max(1)
}

/// The serial stage, both ends of it.
struct Serial {
    /// `iter` is the scan's position, `out.summary` counts the skips, and
    /// `out.records` is the output so far: chunks `0..committed`.
    p: Progress,
    /// The skip filters' pass bits, built once: only this stage walks.
    pass: Vec<u64>,
    committed: u64,
    /// Chunks handed out.
    chunks: u64,
    /// Addresses handed out.
    addresses: u64,
}

struct Shared {
    serial: Mutex<Serial>,
    /// Set by the first worker to leave, whatever the reason — the
    /// permutation ran out, a probe failed, a network panicked: nothing
    /// is handed out afterwards.
    stop: AtomicBool,
}

/// Raises [`Shared::stop`] when its worker leaves, by return or unwind.
struct StopOnExit<'a>(&'a AtomicBool);

impl Drop for StopOnExit<'_> {
    fn drop(&mut self) {
        // SeqCst: the flag is read under the lock to decide whether a
        // chunk that could hold the first error still goes out.
        self.0.store(true, Ordering::SeqCst);
    }
}

/// A worker's finished chunks that are not yet in the output, oldest
/// first, as `(chunk, record count)` over the front of its records.
type Pending = Vec<(u64, usize)>;

impl Shared {
    fn new(start: Progress, cfg: &ScanConfig) -> Self {
        let serial = Serial {
            p: start,
            pass: crate::engine::pass_bits(cfg),
            committed: 0,
            chunks: 0,
            addresses: 0,
        };
        Self {
            serial: Mutex::new(serial),
            stop: AtomicBool::new(false),
        }
    }

    /// One visit to the serial stage. Hands in the front of `pending` for
    /// as long as it is the output's next chunk, then fills `addrs` with
    /// the next chunk's surviving addresses: returns its index and the
    /// probe offset it starts at, or `None` when nothing is left (or
    /// nothing more should be started).
    fn turn(
        &self,
        ctx: &ScanCtx<'_>,
        chunk: usize,
        pending: &mut Pending,
        records: &mut Vec<HostScanRecord>,
        addrs: &mut Vec<u32>,
    ) -> Option<(u64, u64)> {
        addrs.clear();
        // Poisoned means a worker panicked; the scope re-raises that in
        // the caller, and what the others compute meanwhile is dropped.
        let mut guard = self.serial.lock().unwrap_or_else(PoisonError::into_inner);
        let s = &mut *guard;
        let (mut chunks, mut taken) = (0, 0);
        for &(index, len) in pending.iter() {
            if index != s.committed {
                break;
            }
            let finished = records.get(taken..taken + len).unwrap_or_default();
            s.p.out.records.extend_from_slice(finished);
            s.committed += 1;
            chunks += 1;
            taken += len;
        }
        pending.drain(..chunks);
        records.drain(..taken);
        if self.stop.load(Ordering::SeqCst) {
            return None;
        }
        while addrs.len() < chunk {
            let Ok(addr) = walk(ctx, &s.pass, &mut s.p, u64::MAX, false) else {
                break;
            };
            addrs.push(addr);
        }
        if addrs.is_empty() {
            return None;
        }
        let at = (s.chunks, s.addresses * u64::from(ctx.cfg.probes));
        s.chunks += 1;
        s.addresses += addrs.len() as u64;
        Some(at)
    }
}

/// One worker: take a chunk, probe it on the clock its offset fixes (a
/// run of addresses outside the [`crate::target::Audible`] set moves the
/// clock once, but under `wire_check`, which builds every probe), hand it
/// in, repeat. Returns its `out` — its counters, and the records of
/// the chunks it finished before their turn — and those chunks; an error
/// carries its chunk, so the caller can tell which of several the step
/// loop would have met first.
fn work<O>(
    shared: &Shared,
    net: &dyn Network,
    cfg: &ScanConfig,
    chunk: usize,
    probe: &impl Fn(&ScanCtx<'_>, &mut Progress, u32) -> Result<O, ScanError>,
) -> Result<(ScanOutput, Pending), (u64, ScanError)> {
    let _stop = StopOnExit(&shared.stop);
    // The telemetry handle inside a `ScanCtx` is single-threaded, so every
    // worker builds its own (an open-loop scan's is switched off).
    let ctx = ScanCtx::new(net, cfg, ScanSession::default());
    let mut p = restore_or_start(&ctx).map_err(|e| (0, e))?;
    let (mut addrs, mut pending) = (Vec::with_capacity(chunk), Pending::new());
    while let Some((index, offset)) =
        shared.turn(&ctx, chunk, &mut pending, &mut p.out.records, &mut addrs)
    {
        p.pacer = Pacer::at(cfg.rate_pps, cfg.batch, offset);
        let before = p.out.records.len();
        let mut silent = 0;
        for &addr in &addrs {
            if !cfg.wire_check && !ctx.audible.contains(addr) {
                silent += 1;
                continue;
            }
            skip_silent(cfg, &mut p, silent);
            silent = 0;
            probe(&ctx, &mut p, addr).map_err(|e| (index, e))?;
        }
        skip_silent(cfg, &mut p, silent);
        pending.push((index, p.out.records.len() - before));
    }
    Ok((p.out, pending))
}

/// Run the open-loop scan `cfg` (validated, [`open_loop`]) against `net`
/// on `threads` workers, `chunk` surviving addresses at a time; `probe`
/// is the engine's per-address step (a parameter so that a test can make
/// it fail where it chooses).
pub(crate) fn run<O>(
    net: &dyn Network,
    cfg: &ScanConfig,
    threads: usize,
    chunk: usize,
    probe: impl Fn(&ScanCtx<'_>, &mut Progress, u32) -> Result<O, ScanError> + Sync,
) -> Result<ScanOutput, ScanError> {
    let ctx = ScanCtx::new(net, cfg, ScanSession::default());
    let shared = Shared::new(restore_or_start(&ctx)?, cfg);
    let mut results: Vec<_> = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..threads)
            .map(|_| s.spawn(|| work(&shared, net, cfg, chunk, &probe)))
            .collect();
        let mine = work(&shared, net, cfg, chunk, &probe);
        let joined = spawned.into_iter().map(|h| {
            // A worker's panic is the caller's, payload and all.
            h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))
        });
        std::iter::once(mine).chain(joined).collect()
    });
    // The step loop stops at the first error in permutation order: the
    // one in the lowest chunk, every chunk below it having been handed
    // out before it and so run to its end. (`None`, no error, sorts first.)
    results.sort_by_key(|r| r.as_ref().err().map(|e| e.0));
    let done: Vec<_> = results
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| e.1)?;

    let serial = shared.serial.into_inner();
    let mut out = serial.unwrap_or_else(PoisonError::into_inner).p.out;
    let mut rest = Vec::new();
    for (worker, pending) in &done {
        let s = &mut out.summary;
        s.probes_sent += worker.summary.probes_sent;
        s.addresses_probed += worker.summary.addresses_probed;
        s.synacks += worker.summary.synacks;
        s.validation_failures += worker.summary.validation_failures;
        s.l7_successes += worker.summary.l7_successes;
        let mut at = 0;
        for &(index, len) in pending {
            rest.push((index, worker.records.get(at..at + len).unwrap_or_default()));
            at += len;
        }
    }
    rest.sort_unstable_by_key(|&(index, _)| index);
    for (_, records) in rest {
        out.records.extend_from_slice(records);
    }
    out.summary.duration_s =
        Pacer::at(cfg.rate_pps, cfg.batch, out.summary.probes_sent).duration_elapsed();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocklist::Blocklist;
    use crate::cyclic::Cycle;
    use crate::engine::{probe, run_scan};
    use crate::probe::modules;
    use crate::target::{
        Audible, CloseKind, IcmpReply, L7Ctx, L7Reply, Line, ProbeCtx, Protocol, SynReply, UdpReply,
    };
    use originscan_plan::{PlanEntry, TargetPlan};
    use originscan_wire::icmp::IcmpEcho;
    use originscan_wire::{dns, ServerHello, TcpHeader, VERSION_TLS12};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Worker counts every property runs at (the machine has two cores).
    const THREADS: [usize; 4] = [1, 2, 3, 8];
    /// Small chunks, so that a scan of a thousand addresses is many.
    const SMALL: usize = 64;

    /// Every module is answered, and every answer is a function of the
    /// probe's address, index and send time alone — a wrong pacer offset
    /// changes replies, not only timestamps — but at the [`dark`]
    /// addresses, which answer nothing. `free` is what the net says of
    /// itself: `false` keeps `run_scan` on the step loop. With `lend`, it
    /// lends the dark addresses below 2¹⁴ as clear [`Audible`] bits.
    struct Turning {
        free: bool,
        lend: bool,
    }

    /// One address in three: nothing there answers.
    fn dark(dst: u32) -> bool {
        (dst >> 3 ^ dst >> 7).is_multiple_of(3)
    }

    /// The audible set `Turning` lends.
    fn lit() -> &'static [Line] {
        static LIT: std::sync::OnceLock<Vec<Line>> = std::sync::OnceLock::new();
        LIT.get_or_init(|| {
            let mut lines = Line::zeroed(1 << 14);
            for dst in (0..1 << 14).filter(|&dst| !dark(dst)) {
                Line::set(&mut lines, dst);
            }
            lines
        })
    }

    fn turn(c: &ProbeCtx) -> u32 {
        if dark(c.dst) {
            return 6;
        }
        (c.dst ^ c.dst >> 5)
            .wrapping_add(u32::from(c.probe_idx))
            .wrapping_add(c.time_s as u32)
            % 7
    }

    impl Network for Turning {
        fn order_free(&self) -> bool {
            self.free
        }
        fn audible(&self, _: u16, _: Protocol, _: u8) -> Option<Audible<'_>> {
            self.lend.then(|| Audible::new(lit()))
        }
        fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
            let mut h = TcpHeader::syn_ack_reply(probe, ctx.dst);
            match turn(ctx) {
                0 | 1 => SynReply::SynAck(h),
                2 => {
                    h.ack = h.ack.wrapping_add(1);
                    SynReply::SynAck(h)
                }
                3 => SynReply::Rst(TcpHeader::rst_reply(probe)),
                _ => SynReply::Silent,
            }
        }
        fn l7(&self, ctx: &L7Ctx, _request: &[u8]) -> L7Reply {
            match (ctx.dst + u32::from(ctx.attempt)) % 4 {
                0 => L7Reply::ConnClosed(CloseKind::FinAck),
                1 => L7Reply::Timeout,
                _ => L7Reply::Data(match ctx.protocol {
                    Protocol::Https => ServerHello {
                        version: VERSION_TLS12,
                        cipher_suite: 0xc02f,
                    }
                    .emit(u64::from(ctx.dst)),
                    Protocol::Ssh => b"SSH-2.0-OpenSSH_7.4\r\n".to_vec(),
                    _ => b"HTTP/1.1 200 OK\r\n\r\n".to_vec(),
                }),
            }
        }
        fn icmp(&self, ctx: &ProbeCtx, probe: &IcmpEcho) -> IcmpReply {
            let (ident, seq) = (probe.ident, probe.seq);
            match turn(ctx) {
                0 | 1 => IcmpReply::EchoReply { ident, seq },
                2 => IcmpReply::EchoReply {
                    ident: ident.wrapping_add(1),
                    seq,
                },
                3 => IcmpReply::Unreachable { code: 1 },
                _ => IcmpReply::Silent,
            }
        }
        fn udp(&self, ctx: &ProbeCtx, payload: &[u8]) -> UdpReply {
            let Ok(mut response) = dns::build_response(payload, dns::RCODE_NOERROR, &[ctx.dst])
            else {
                return UdpReply::Silent;
            };
            match turn(ctx) {
                0 | 1 => UdpReply::Data(response),
                2 => {
                    response[0] ^= 0x5a; // the transaction id
                    UdpReply::Data(response)
                }
                3 => UdpReply::PortUnreachable,
                _ => UdpReply::Silent,
            }
        }
    }

    /// Four /24s; the plan keeps three of them, the blocklist cuts into
    /// two of those.
    const SPACE: u64 = 1024;

    /// A plan of those of `s24s` that `space` has.
    fn plan(space: u64, s24s: &[u32]) -> TargetPlan {
        let entries = s24s
            .iter()
            .filter(|&&s24| u64::from(s24) < space.div_ceil(256))
            .map(|&s24| PlanEntry { s24, score: 1 })
            .collect();
        TargetPlan::from_entries(space, 99, "observed", entries).unwrap()
    }

    fn filtered(mut cfg: ScanConfig, blocklist: bool, planned: bool) -> ScanConfig {
        if blocklist {
            cfg.blocklist = Blocklist::parse("0.0.0.64/26\n0.0.2.0/25").unwrap();
        }
        if planned {
            cfg.plan = Some(plan(cfg.space, &[0, 2, 3]));
        }
        cfg
    }

    /// `fanned` is `step`, floats compared by their bits.
    fn assert_same(fanned: &ScanOutput, step: &ScanOutput, what: &str) {
        assert_eq!(fanned, step, "{what}");
        let bits = |o: &ScanOutput| -> Vec<u64> {
            let times = o.records.iter().map(|r| r.response_time_s.to_bits());
            times.chain([o.summary.duration_s.to_bits()]).collect()
        };
        assert_eq!(bits(fanned), bits(step), "{what}");
    }

    /// The step loop's output for `cfg`, and the fanned path's at every
    /// worker count, which must equal it; returns it.
    fn assert_fans_out(cfg: &ScanConfig, chunk: usize) -> ScanOutput {
        let step = run_scan(
            &Turning {
                free: false,
                lend: false,
            },
            cfg,
        )
        .unwrap();
        for threads in THREADS {
            let net = Turning {
                free: true,
                lend: true,
            };
            let fanned = run(&net, cfg, threads, chunk, probe).unwrap();
            assert_same(&fanned, &step, &format!("{threads} workers, {cfg:?}"));
        }
        step
    }

    #[test]
    fn fanned_output_is_the_step_loops() {
        let (probes, delays, batches) = ([1u8, 2, 8], [0.0, 900.0], [1u32, 7, 16]);
        let shards = [(0u64, 1u64), (1, 4), (2, 3)];
        let scans = modules().len() * 3 * 2 * 3 * 3 * 2 * 2 * 2 * 2;
        let (mut records, mut invalid, mut skipped) = (0usize, 0u64, 0u64);
        for mut n in 0..scans {
            // The mixed-radix digits of `n`, one per axis: the full cross.
            let mut pick = |len: usize| {
                let digit = n % len;
                n /= len;
                digit
            };
            let mut cfg = ScanConfig::new(SPACE, modules()[pick(5)].protocol(), 99);
            (cfg.probes, cfg.probe_delay_s) = (probes[pick(3)], delays[pick(2)]);
            (cfg.batch, cfg.shard) = (batches[pick(3)], shards[pick(3)]);
            let (blocklist, planned) = (pick(2) == 1, pick(2) == 1);
            (cfg.wire_check, cfg.l7_retries) = (pick(2) == 1, [0, 2][pick(2)]);
            let out = assert_fans_out(&filtered(cfg, blocklist, planned), SMALL);
            records += out.records.len();
            invalid += out.summary.validation_failures;
            skipped += out.summary.blocked + out.summary.plan_skipped;
        }
        assert!(records > 0 && invalid > 0 && skipped > 0);
    }

    #[test]
    fn a_net_that_says_order_free_is_fanned_by_run_scan() {
        let free = Turning {
            free: true,
            lend: true,
        };
        let ordered = Turning {
            free: false,
            lend: false,
        };
        // Several chunks wide, so `threads` asks for every core there is.
        let cfg = filtered(ScanConfig::new(1 << 14, Protocol::Ssh, 7), true, false);
        let session = ScanSession::default;
        assert!(open_loop(&free, &cfg, &session()) && !open_loop(&ordered, &cfg, &session()));
        let mut adaptive = cfg.clone();
        adaptive.adapt = Some(crate::resilience::AdaptivePolicy::default());
        assert!(!open_loop(&free, &adaptive, &session()));
        let store = crate::engine::CheckpointStore::new(64);
        let supervised = ScanSession {
            store: Some(&store),
            ..session()
        };
        assert!(!open_loop(&free, &cfg, &supervised));
        let step = run_scan(&ordered, &cfg).unwrap();
        assert_same(&run_scan(&free, &cfg).unwrap(), &step, "run_scan");
        assert!(step.summary.l7_successes > 0);
        // A scan of one chunk or less spawns nothing.
        assert_eq!(threads(&ScanConfig::new(CHUNK as u64, Protocol::Ssh, 7)), 1);
    }

    #[test]
    fn edges_of_the_chunk_cut() {
        // A shard shorter than one chunk; a space of one address.
        let mut short = ScanConfig::new(SPACE, Protocol::Http, 3);
        short.shard = (3, 64);
        let probed = assert_fans_out(&short, SMALL).summary.addresses_probed;
        assert!((1..SMALL as u64).contains(&probed), "{probed}");
        let one = assert_fans_out(&ScanConfig::new(1, Protocol::Icmp, 3), SMALL);
        assert_eq!(one.summary.addresses_probed, 1);
        // A chunk of exactly the shard, and of one address.
        let exact = ScanConfig::new(SMALL as u64, Protocol::Dns, 3);
        assert_eq!(assert_fans_out(&exact, SMALL).summary.addresses_probed, 64);
        assert_fans_out(&exact, 1);
        // Long runs of skipped steps: far more than a chunk's worth pass
        // between survivors, and the commit still advances.
        let mut sparse = ScanConfig::new(SPACE, Protocol::Http, 3);
        sparse.plan = Some(plan(SPACE, &[1]));
        sparse.blocklist = Blocklist::parse("0.0.1.0/25\n0.0.1.128/26").unwrap();
        let out = assert_fans_out(&sparse, 2);
        assert_eq!(
            (out.summary.addresses_probed, out.summary.blocked),
            (64, 192)
        );
        // Nothing survives at all.
        sparse.blocklist = Blocklist::parse("0.0.0.0/22").unwrap();
        let out = assert_fans_out(&sparse, 2);
        assert_eq!((out.summary.probes_sent, out.summary.duration_s), (0, 0.0));
        assert_eq!(out.summary.plan_skipped + out.summary.blocked, SPACE);
    }

    #[cfg(feature = "proptest")]
    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn fanned_output_is_the_step_loops(
                seed: u64,
                module in 0usize..5,
                probes in 1u8..=8,
                delayed: bool,
                batch in 1u32..=16,
                total in 1u64..5,
                shard in 0u64..4,
                blocklist: bool,
                planned: bool,
                wire_check: bool,
                l7_retries in 0u8..3,
                space in 1u64..2048,
                chunk in 1usize..200,
            ) {
                let protocol = modules()[module % modules().len()].protocol();
                let mut cfg = ScanConfig::new(space, protocol, seed);
                (cfg.probes, cfg.batch, cfg.wire_check) = (probes, batch, wire_check);
                cfg.probe_delay_s = if delayed { 900.0 } else { 0.0 };
                (cfg.shard, cfg.l7_retries) = ((shard % total, total), l7_retries);
                assert_fans_out(&filtered(cfg, blocklist, planned), chunk);
            }
        }
    }

    /// The address at position `nth` of `cfg`'s permutation.
    fn nth_address(cfg: &ScanConfig, nth: usize) -> u32 {
        let mut iter = Cycle::new(cfg.space, cfg.seed).iter_shard(cfg.shard.0, cfg.shard.1);
        iter.nth(nth).unwrap() as u32
    }

    #[test]
    fn the_first_error_in_permutation_order_wins() {
        let cfg = ScanConfig::new(SPACE, Protocol::Http, 11);
        // Two failing addresses, chunks 3 and 9.
        let (early, late) = (
            nth_address(&cfg, 3 * SMALL + 5),
            nth_address(&cfg, 9 * SMALL + 1),
        );
        for threads in THREADS {
            let late_hit = AtomicBool::new(false);
            let failing = |ctx: &ScanCtx<'_>, p: &mut Progress, addr: u32| {
                if addr == late {
                    late_hit.store(true, Ordering::SeqCst);
                    return Err(ScanError::WireCheck { addr });
                }
                if addr == early {
                    // With company, the later error is on record before
                    // this one is: forced, not left to the scheduler.
                    while threads > 1 && !late_hit.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    return Err(ScanError::WireCheck { addr });
                }
                probe(ctx, p, addr)
            };
            let net = Turning {
                free: true,
                lend: false,
            };
            let got = run(&net, &cfg, threads, SMALL, failing);
            assert_eq!(
                got,
                Err(ScanError::WireCheck { addr: early }),
                "{threads} workers"
            );
        }
    }

    #[test]
    fn nothing_is_handed_out_once_a_worker_has_left() {
        let net = Turning {
            free: true,
            lend: false,
        };
        let cfg = ScanConfig::new(SPACE, Protocol::Http, 11);
        let ctx = ScanCtx::new(&net, &cfg, ScanSession::default());
        let shared = Shared::new(restore_or_start(&ctx).unwrap(), &cfg);
        let (mut pending, mut records, mut addrs) = (Pending::new(), Vec::new(), Vec::new());
        let mut turn = || shared.turn(&ctx, SMALL, &mut pending, &mut records, &mut addrs);
        assert_eq!(turn(), Some((0, 0)));
        assert_eq!(turn(), Some((1, 2 * SMALL as u64)));
        drop(StopOnExit(&shared.stop));
        assert_eq!(turn(), None);
        assert!(addrs.is_empty());

        // One worker meets the error first and probes nothing after it.
        let failing_at = nth_address(&cfg, 3 * SMALL + 5);
        let probed = std::sync::atomic::AtomicU64::new(0);
        let failing = |ctx: &ScanCtx<'_>, p: &mut Progress, addr: u32| {
            if addr == failing_at {
                return Err(ScanError::WireCheck { addr });
            }
            probed.fetch_add(1, Ordering::Relaxed);
            probe(ctx, p, addr)
        };
        assert!(run(&net, &cfg, 1, SMALL, failing).is_err());
        assert_eq!(probed.into_inner(), 3 * SMALL as u64 + 5);
    }

    /// Panics at one address, wherever it is asked about it.
    struct PanicsAt(u32);

    impl Network for PanicsAt {
        fn syn(&self, ctx: &ProbeCtx, _probe: &TcpHeader) -> SynReply {
            assert!(ctx.dst != self.0, "the network fell over at {}", ctx.dst);
            SynReply::Silent
        }
        fn l7(&self, _ctx: &L7Ctx, _request: &[u8]) -> L7Reply {
            L7Reply::Timeout
        }
    }

    #[test]
    fn a_panicking_network_panics_the_caller() {
        // `Experiment`'s `catch_unwind` sits above supervised sessions
        // only: here the panic is the caller's, message and all, whichever
        // thread met it.
        let cfg = ScanConfig::new(SPACE, Protocol::Http, 11);
        let net = PanicsAt(nth_address(&cfg, 7 * SMALL + 2));
        for threads in THREADS {
            let caught = catch_unwind(AssertUnwindSafe(|| run(&net, &cfg, threads, SMALL, probe)));
            let payload = caught.expect_err("the scan must not return");
            let message = payload
                .downcast_ref::<String>()
                .expect("assert! formats a String");
            assert!(
                message.contains("the network fell over"),
                "{threads} workers: {message}"
            );
        }
    }
}
