//! The probe path allocates O(1) per scan: scanning sixteen times the
//! addresses may not cost sixteen times the heap allocations, on the
//! engine's step loop or fanned out over the cores. A ZGrab handshake
//! allocates its request and nothing but the net's reply besides.
//!
//! A counting allocator needs to be the process's `#[global_allocator]`,
//! so this is one `#[test]` in a binary of its own; the `unsafe` it takes
//! to wrap `System` stays out of the library crates.

use originscan_scanner::engine::{run_scan, ScanConfig, ScanOutput};
use originscan_scanner::probe::{modules, PAPER_PROTOCOLS};
use originscan_scanner::target::{
    IcmpReply, L7Ctx, L7Reply, Network, ProbeCtx, Protocol, SynReply,
};
use originscan_wire::icmp::IcmpEcho;
use originscan_wire::TcpHeader;
use originscan_wire::{ServerHello, VERSION_TLS12};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations (and reallocations) made by the process so far.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic (`Relaxed`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Nothing is out there: every module's probe goes unanswered (ICMP and
/// UDP through the trait's silent defaults), so the count is the probe
/// path's own and no result record is ever pushed. `order_free` is what
/// the net says of itself: `false` keeps the scan on the engine's step
/// loop, `true` spreads it over the cores.
#[derive(Debug)]
struct SilentNet {
    order_free: bool,
}

impl Network for SilentNet {
    fn order_free(&self) -> bool {
        self.order_free
    }
    fn syn(&self, _ctx: &ProbeCtx, _probe: &TcpHeader) -> SynReply {
        SynReply::Silent
    }
    fn l7(&self, _ctx: &L7Ctx, _request: &[u8]) -> L7Reply {
        L7Reply::Timeout
    }
}

/// Every address answers a ping (and nothing else), from any thread: one
/// record per address and no allocation behind any of them.
#[derive(Debug)]
struct EchoNet;

impl Network for EchoNet {
    fn order_free(&self) -> bool {
        true
    }
    fn syn(&self, _ctx: &ProbeCtx, _probe: &TcpHeader) -> SynReply {
        SynReply::Silent
    }
    fn l7(&self, _ctx: &L7Ctx, _request: &[u8]) -> L7Reply {
        L7Reply::Timeout
    }
    fn icmp(&self, _ctx: &ProbeCtx, probe: &IcmpEcho) -> IcmpReply {
        IcmpReply::EchoReply {
            ident: probe.ident,
            seq: probe.seq,
        }
    }
}

/// Every address runs every TCP service, and every handshake succeeds on
/// fixed reply bytes: the reply's copy is the net's one allocation.
#[derive(Debug)]
struct ServingNet {
    order_free: bool,
    tls: Vec<u8>,
}

impl Network for ServingNet {
    fn order_free(&self) -> bool {
        self.order_free
    }
    fn syn(&self, _ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
        SynReply::SynAck(TcpHeader::syn_ack_reply(probe, 7))
    }
    fn l7(&self, ctx: &L7Ctx, _request: &[u8]) -> L7Reply {
        L7Reply::Data(match ctx.protocol {
            Protocol::Http => b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n".to_vec(),
            Protocol::Https => self.tls.clone(),
            _ => b"SSH-2.0-OpenSSH_7.4 Debian-10+deb9u7\r\n".to_vec(),
        })
    }
}

/// What a scan's allocation count may grow by when the space grows
/// sixteenfold: nothing per probe, a little for whatever the engine
/// sizes by the space.
const SLACK: u64 = 8;

/// Allocations one scan of `cfg` against `net` makes, and its output.
fn allocations(net: &dyn Network, cfg: &ScanConfig) -> (u64, ScanOutput) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = run_scan(net, cfg).expect("a plain scan");
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

// One `#[test]`: the counter is the process's, and the harness runs a
// binary's tests on parallel threads.
#[test]
fn probe_path_allocates_a_constant_per_scan() {
    // A fanned scan takes a worker per core but no more than it has chunks
    // of 4096 addresses, and a worker costs its thread and its buffers.
    // The smaller scan gives every core four chunks, so both scans run the
    // same workers and differ in addresses — and chunks — alone.
    let cores = originscan_scanner::cores();
    let small = 4 * (cores as u64 * 4096).next_power_of_two();
    let extra_chunks = 15 * small / 4096;
    for order_free in [false, true] {
        let net = SilentNet { order_free };
        // The step loop allocates nothing by the address. Nor does a
        // worker, which reuses its address and record buffers from chunk
        // to chunk; but one that runs ahead while another is descheduled
        // holds finished chunks back, and that list (and, below, their
        // records) grows by doubling. An allocation per chunk would add
        // `extra_chunks`; half of that tells the two apart on any machine.
        let slack = if order_free { extra_chunks / 2 } else { SLACK };
        for module in modules() {
            let spent = |space: u64| {
                let cfg = ScanConfig::new(space, module.protocol(), 2020);
                let (spent, out) = allocations(&net, &cfg);
                assert!(out.summary.probes_sent >= space, "{}", module.name());
                spent
            };
            // Once unmeasured: per-process set-up (the DNS template) is
            // not either scan's.
            spent(1 << 8);
            let (few, many) = (spent(small), spent(16 * small));
            assert!(
                many.abs_diff(few) <= slack,
                "{} (order-free: {order_free}): {few} allocations for {small} addresses, \
                 {many} for sixteen times as many",
                module.name()
            );
        }
    }

    // A record per address: the output, too, grows by doubling (four times
    // more for sixteen times the records), not by the chunk.
    let spent = |space: u64| {
        let (spent, out) = allocations(&EchoNet, &ScanConfig::new(space, Protocol::Icmp, 2020));
        assert_eq!(out.records.len() as u64, space);
        spent
    };
    let (few, many) = (spent(small), spent(16 * small));
    assert!(
        many.abs_diff(few) <= extra_chunks / 2,
        "{few} allocations for {small} records, {many} for sixteen times as many"
    );

    // A handshake per address: two allocations each (the request, and
    // the reply the net hands over), plus the records' doubling.
    let tls = ServerHello {
        version: VERSION_TLS12,
        cipher_suite: 0xc02f,
    }
    .emit(3);
    for order_free in [false, true] {
        let net = ServingNet {
            order_free,
            tls: tls.clone(),
        };
        for protocol in PAPER_PROTOCOLS {
            let spent = |space: u64| {
                let (spent, out) = allocations(&net, &ScanConfig::new(space, protocol, 2020));
                assert_eq!(out.summary.l7_successes, space, "{protocol}");
                spent
            };
            let (few, many) = (spent(small), spent(16 * small));
            let handshakes = 15 * small;
            assert!(
                many.saturating_sub(few) <= 2 * handshakes + extra_chunks / 2,
                "{protocol} (order-free: {order_free}): {few} allocations for {small} \
                 handshakes, {many} for sixteen times as many"
            );
        }
    }
}
