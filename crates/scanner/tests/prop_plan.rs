//! Property tests for target-plan composition with blocklists and shards,
//! and for the plan decoder's no-panic guarantee on arbitrary bytes.
// Gated: runs only with `--features proptest` (vendored shim; see
// third_party/proptest). The default offline build skips these suites.
#![cfg(feature = "proptest")]
#![expect(
    clippy::disallowed_types,
    reason = "tests assert membership/counts only; hash iteration order never escapes"
)]

use originscan_plan::{PlanEntry, PlanError, TargetPlan, PLAN_FORMAT_VERSION, PLAN_MAGIC};
use originscan_scanner::blocklist::{Blocklist, Cidr};
use originscan_scanner::engine::{run_scan, ScanConfig};
use originscan_scanner::target::{L7Ctx, L7Reply, Network, ProbeCtx, Protocol, SynReply};
use originscan_wire::tcp::TcpHeader;
use proptest::prelude::*;
use std::collections::HashSet;

/// Every address runs the service, so the record set equals exactly the
/// set of addresses the engine decided to probe — which is what lets the
/// properties below observe the plan/blocklist/shard composition.
struct AllLiveNet;

impl Network for AllLiveNet {
    fn syn(&self, _ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
        SynReply::SynAck(TcpHeader::syn_ack_reply(probe, 7))
    }
    fn l7(&self, _ctx: &L7Ctx, _req: &[u8]) -> L7Reply {
        L7Reply::Data(b"HTTP/1.1 200 OK\r\n\r\n".to_vec())
    }
}

/// Build a plan over `space` from a set of /24 indices.
fn plan_from_s24s(space: u64, s24s: &[u32]) -> TargetPlan {
    let mut sorted: Vec<u32> = s24s.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let entries = sorted
        .into_iter()
        .map(|s24| PlanEntry { s24, score: 1 })
        .collect();
    TargetPlan::from_entries(space, 0, "prop", entries).expect("valid plan")
}

/// Addresses of `space` admitted by plan ∩ ¬blocklist.
fn expected_targets(space: u64, plan: &TargetPlan, bl: &Blocklist) -> HashSet<u32> {
    (0..space as u32)
        .filter(|&a| plan.allows(a) && !bl.contains(a))
        .collect()
}

fn scan_addrs(cfg: &ScanConfig) -> Vec<u32> {
    let out = run_scan(&AllLiveNet, cfg).expect("scan runs");
    out.records.iter().map(|r| r.addr).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The union of all shards' probed addresses is exactly
    /// plan ∩ ¬blocklist, with no address probed twice.
    #[test]
    fn shard_union_is_plan_minus_blocklist(
        seed: u64,
        s24s in proptest::collection::vec(0u32..16, 0..8),
        cidrs in proptest::collection::vec((0u32..1 << 12, 22u8..=32), 0..4),
        total_shards in 1u64..5,
    ) {
        let space = 4096u64; // 16 /24s
        let plan = plan_from_s24s(space, &s24s);
        let bl = Blocklist::from_cidrs(cidrs.iter().map(|&(b, l)| Cidr::new(b, l)));
        let expected = expected_targets(space, &plan, &bl);

        let mut all: Vec<u32> = Vec::new();
        for shard in 0..total_shards {
            let mut cfg = ScanConfig::new(space, Protocol::Http, seed);
            cfg.plan = Some(plan.clone());
            cfg.blocklist = bl.clone();
            cfg.shard = (shard, total_shards);
            all.extend(scan_addrs(&cfg));
        }
        let unioned: HashSet<u32> = all.iter().copied().collect();
        prop_assert_eq!(
            all.len(),
            unioned.len(),
            "an address was probed by two shards"
        );
        prop_assert_eq!(unioned, expected);
    }

    /// An empty plan probes nothing, on any shard.
    #[test]
    fn empty_plan_probes_nothing(seed: u64, shard in 0u64..3) {
        let space = 2048u64;
        let plan = plan_from_s24s(space, &[]);
        let mut cfg = ScanConfig::new(space, Protocol::Http, seed);
        cfg.plan = Some(plan);
        cfg.shard = (shard, 3);
        prop_assert!(scan_addrs(&cfg).is_empty());
    }

    /// A full-space plan changes nothing: the scan finds exactly what a
    /// plan-free scan finds.
    #[test]
    fn full_space_plan_is_a_noop(seed: u64) {
        let space = 2048u64;
        let every: Vec<u32> = (0..(space.div_ceil(256) as u32)).collect();
        let mut with_plan = ScanConfig::new(space, Protocol::Http, seed);
        with_plan.plan = Some(plan_from_s24s(space, &every));
        let without_plan = ScanConfig::new(space, Protocol::Http, seed);
        let mut a = scan_addrs(&with_plan);
        let mut b = scan_addrs(&without_plan);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// A plan wholly inside the blocklist probes nothing: the blocklist
    /// always wins the composition.
    #[test]
    fn plan_inside_blocklist_probes_nothing(seed: u64, s24 in 0u32..8) {
        let space = 2048u64;
        let plan = plan_from_s24s(space, &[s24]);
        let mut cfg = ScanConfig::new(space, Protocol::Http, seed);
        cfg.plan = Some(plan);
        // /0 blocks the whole v4 space, so plan ⊂ blocklist trivially.
        cfg.blocklist = Blocklist::from_cidrs([Cidr::new(0, 0)]);
        prop_assert!(scan_addrs(&cfg).is_empty());
    }

    /// No input makes the plan decoder panic or abort: arbitrary bytes
    /// (bare, and behind a valid magic/version/flags prefix), and valid
    /// plans with 1–8 bytes overwritten, come back as `Ok` or a typed
    /// `Err` — `entry_count` is checked against the bytes present before
    /// the entry list is sized from it.
    #[test]
    fn from_bytes_returns_ok_or_a_typed_error(
        junk in proptest::collection::vec(any::<u8>(), 0..128),
        s24s in proptest::collection::vec(0u32..512, 0..64),
        patches in proptest::collection::vec((any::<u32>(), any::<u8>()), 1..9),
    ) {
        let mut framed = PLAN_MAGIC.to_vec();
        framed.extend_from_slice(&PLAN_FORMAT_VERSION.to_le_bytes());
        framed.extend_from_slice(&[0, 0]);
        framed.extend_from_slice(&junk);
        let mut bytes = plan_from_s24s(512 * 256, &s24s).to_bytes().expect("encodes");
        for (at, value) in patches {
            let at = at as usize % bytes.len();
            bytes[at] = value;
        }
        for input in [&junk, &framed, &bytes] {
            match TargetPlan::from_bytes(input) {
                Ok(plan) => prop_assert!(plan.to_bytes().is_ok()),
                Err(e) => prop_assert!(
                    matches!(e, PlanError::Frame(_) | PlanError::InvalidInput { .. }),
                    "{}",
                    e
                ),
            }
        }
    }
}
