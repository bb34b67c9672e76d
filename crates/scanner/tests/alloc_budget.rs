//! The probe path allocates O(1) per scan: scanning sixteen times the
//! addresses may not cost sixteen times the heap allocations.
//!
//! A counting allocator needs to be the process's `#[global_allocator]`,
//! so this is one `#[test]` in a binary of its own; the `unsafe` it takes
//! to wrap `System` stays out of the library crates.

use originscan_scanner::engine::{run_scan, ScanConfig};
use originscan_scanner::probe::modules;
use originscan_scanner::target::{L7Ctx, L7Reply, Network, ProbeCtx, SynReply};
use originscan_wire::TcpHeader;
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
/// path's own and no result record is ever pushed.
#[derive(Debug)]
struct SilentNet;

impl Network for SilentNet {
    fn syn(&self, _ctx: &ProbeCtx, _probe: &TcpHeader) -> SynReply {
        SynReply::Silent
    }
    fn l7(&self, _ctx: &L7Ctx, _request: &[u8]) -> L7Reply {
        L7Reply::Timeout
    }
}

/// What a scan's allocation count may grow by when the space grows
/// sixteenfold: nothing per probe, a little for whatever the engine
/// sizes by the space.
const SLACK: u64 = 8;

#[test]
fn probe_path_allocates_a_constant_per_scan() {
    for module in modules() {
        let allocations = |space: u64| {
            let cfg = ScanConfig::new(space, module.protocol(), 2020);
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let out = run_scan(&SilentNet, &cfg).expect("a plain scan of a silent net");
            let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert!(out.summary.probes_sent >= space, "{}", module.name());
            spent
        };
        // Once unmeasured: per-process set-up (the DNS template) is not
        // either scan's.
        allocations(1 << 8);
        let (small, large) = (allocations(1 << 12), allocations(1 << 16));
        assert!(
            large.abs_diff(small) <= SLACK,
            "{}: {small} allocations for 2^12 addresses, {large} for 2^16",
            module.name()
        );
    }
}
