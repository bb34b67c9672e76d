//! Set-operation kernels vs the seed's collection-based analyses, at the
//! full simulated 2²⁴ address scale.
//!
//! Before `originscan-store`, every set analysis walked per-host
//! collections: coverage intersections iterated outcome columns, scan
//! diffs walked `BTreeSet` unions, and the §7 combo sweep ran an `any()`
//! loop per (host, subset). This bench rebuilds those baselines verbatim
//! over synthetic scan sets at 2²⁴ scale and times them against the
//! compressed-bitmap kernels that replaced them. Timings and the speedup
//! factors are routed through the telemetry progress sink (`bench_timed`
//! / `bench_speedup` JSONL lines on stderr); the stdout table is the
//! artifact recorded in EXPERIMENTS.md.
//!
//! Unlike the figure/table benches this one ignores `ORIGINSCAN_SCALE`:
//! kernels are only interesting at the full 2²⁴ address space, and the
//! synthetic sets build in milliseconds.

use originscan_bench::record::{BenchRecord, Dir};
use originscan_bench::{header, origin_set, paper_says, splitmix, timed};
use originscan_core::multiorigin::best_k_of;
use originscan_stats::combos::k_subsets;
use originscan_store::ScanSet;
use originscan_telemetry::progress::{emit_progress, FieldValue};
use std::collections::BTreeSet;

/// Full simulated address space: 2²⁴.
const SPACE: u32 = 1 << 24;

/// Origins in the signature-table row: the paper's roster size.
const SIGNATURE_ORIGINS: u64 = 7;

/// Per-origin L7-success density, matching the world model's ~5% hitrate.
const DENSITY: f64 = 0.05;

fn row(label: &str, naive_s: f64, kernel_s: f64, naive_val: u64, kernel_val: u64) -> f64 {
    assert_eq!(
        naive_val, kernel_val,
        "{label}: kernel disagrees with baseline"
    );
    let speedup = naive_s / kernel_s.max(1e-9);
    emit_progress(
        "bench_speedup",
        &[
            ("label", FieldValue::from(label)),
            ("naive_s", FieldValue::from(naive_s)),
            ("kernel_s", FieldValue::from(kernel_s)),
            ("speedup", FieldValue::from(speedup)),
        ],
    );
    println!("{label:<28} {naive_s:>9.4}s {kernel_s:>10.5}s {speedup:>8.1}x   (n = {kernel_val})");
    speedup
}

// Wall-clock timing is the bench harness's job; results never feed analyses.
#[allow(clippy::disallowed_methods)]
fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = std::time::Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

fn main() {
    header(
        "perf: set-operation kernels",
        "compressed bitmaps vs the seed's per-host collection walks, 2^24 addresses",
    );
    paper_says(&[
        "(engineering bench, no paper figure — the §3/§6/§7 analyses",
        "reduce to these set operations over ~10^6-host scan sets)",
    ]);

    let views: Vec<Vec<u32>> = timed("build synthetic origin views", || {
        (0..3u64).map(|o| origin_set(o, SPACE, DENSITY)).collect()
    });
    let oracles: Vec<BTreeSet<u32>> = timed("build BTreeSet baselines", || {
        views.iter().map(|v| v.iter().copied().collect()).collect()
    });
    let sets: Vec<ScanSet> = timed("build compressed bitmaps", || {
        views.iter().map(|v| ScanSet::from_sorted(v)).collect()
    });
    let bytes: u64 = sets
        .iter()
        .map(|s| {
            s.chunks()
                .map(|(_, c)| c.payload_bytes() as u64)
                .sum::<u64>()
        })
        .sum();
    let raw: u64 = views.iter().map(|v| 4 * v.len() as u64).sum();
    println!(
        "members: {} | raw u32: {:.1} MiB | compressed: {:.1} MiB",
        views.iter().map(Vec::len).sum::<usize>(),
        raw as f64 / (1 << 20) as f64,
        bytes as f64 / (1 << 20) as f64,
    );
    println!(
        "{:<28} {:>10} {:>11} {:>9}",
        "operation", "naive", "bitmap", "speedup"
    );

    let (a, b, c) = (&sets[0], &sets[1], &sets[2]);
    let (oa, ob, oc) = (&oracles[0], &oracles[1], &oracles[2]);

    // §7 combo coverage: |A ∪ B ∪ C| (seed: per-host any() loop).
    let (tn, nv) = time(|| {
        let mut u: BTreeSet<u32> = BTreeSet::new();
        for o in [oa, ob, oc] {
            u.extend(o.iter().copied());
        }
        u.len() as u64
    });
    let (tk, kv) = time(|| ScanSet::union_cardinality_many(&[a, b, c]));
    let union_speedup = row("union cardinality (3 sets)", tn, tk, nv, kv);

    // Appendix-A ∩ row: |A ∩ B ∩ C| (seed: all-origins column scan).
    let (tn, nv) = time(|| {
        oa.iter()
            .filter(|x| ob.contains(x) && oc.contains(x))
            .count() as u64
    });
    let (tk, kv) = time(|| a.and(b).intersection_cardinality(c));
    let intersect3_speedup = row("intersection (3 sets)", tn, tk, nv, kv);

    // §3 McNemar cells: |A ∩ B| (seed: paired per-host record loop).
    let (tn, nv) = time(|| oa.intersection(ob).count() as u64);
    let (tk, kv) = time(|| a.intersection_cardinality(b));
    let pairwise_speedup = row("pairwise intersection", tn, tk, nv, kv);

    // Scan diff exclusive side: A ∖ B materialized (seed: union walk).
    let (tn, nv) = time(|| oa.difference(ob).count() as u64);
    let (tk, kv) = time(|| a.andnot(b).cardinality());
    let diff_speedup = row("difference (materialized)", tn, tk, nv, kv);

    // Table-1 exclusivity: |A ∖ (B ∪ C)| (seed: exactly-one-seer scan).
    let (tn, nv) = time(|| {
        oa.iter()
            .filter(|x| !ob.contains(x) && !oc.contains(x))
            .count() as u64
    });
    let (tk, kv) = time(|| a.andnot_cardinality(&b.or(c)));
    let exclusive_speedup = row("exclusive (A \\ (B|C))", tn, tk, nv, kv);

    // Membership: ground-truth index lookups (seed: HashMap probes; the
    // sorted baseline here is the binary search that replaced them).
    let probe: Vec<u32> = {
        let mut s = 7u64;
        (0..1_000_000)
            .map(|_| (splitmix(&mut s) % u64::from(SPACE)) as u32)
            .collect()
    };
    let (tn, nv) = time(|| probe.iter().filter(|&&x| oa.contains(&x)).count() as u64);
    let (tk, kv) = time(|| probe.iter().filter(|&&x| a.contains(x)).count() as u64);
    let member_speedup = row("1M membership probes", tn, tk, nv, kv);

    // One (proto, trial) of analyst questions — best-k k=3, each
    // origin's coverage, all pairwise diffs — from per-question kernels
    // (one bitmap walk per number, the engine before the signature
    // table) vs one `signature_counts` pass and sums over its rows. Both
    // sides fold every answer into one checksum, asserted equal.
    let seven: Vec<ScanSet> = timed("build 7 origin bitmaps", || {
        (0..SIGNATURE_ORIGINS)
            .map(|o| ScanSet::from_sorted(&origin_set(o, SPACE, DENSITY)))
            .collect()
    });
    let refs: Vec<&ScanSet> = seven.iter().collect();
    let n = refs.len();
    let (tn, nv) = time(|| {
        let mut best = (Vec::new(), 0u64);
        for combo in k_subsets(n, 3) {
            let members: Vec<&ScanSet> = combo.iter().map(|&i| refs[i]).collect();
            let covered = ScanSet::union_cardinality_many(&members);
            if covered > best.1 {
                best = (combo, covered);
            }
        }
        let mut sum = best.0.iter().sum::<usize>() as u64 + best.1;
        for s in &refs {
            sum += ScanSet::union_cardinality_many(&[s]) + ScanSet::union_cardinality_many(&refs);
        }
        for (i, x) in refs.iter().enumerate() {
            for y in &refs[i + 1..] {
                sum += x.andnot_cardinality(y) + 2 * y.andnot_cardinality(x);
                sum += 3 * x.intersection_cardinality(y);
            }
        }
        sum
    });
    let (tk, kv) = time(|| {
        let table = ScanSet::signature_counts(&refs).expect("7 sets fit a mask");
        let (combo, covered) = best_k_of(&table, n, 3).expect("3 of 7");
        let mut sum = combo.iter().sum::<usize>() as u64 + covered;
        for i in 0..n {
            sum += table.sum(|m| m >> i & 1 == 1) + table.sum(|_| true);
        }
        for i in 0..n {
            for j in i + 1..n {
                let (x, y) = (1u64 << i, 1u64 << j);
                sum += table.sum(|m| m & x != 0 && m & y == 0);
                sum += 2 * table.sum(|m| m & y != 0 && m & x == 0);
                sum += 3 * table.sum(|m| m & x != 0 && m & y != 0);
            }
        }
        sum
    });
    let signature_speedup = row("7-origin question set", tn, tk, nv, kv);

    // Speedup ratios divide out most machine variance, so they gate
    // tighter than raw wall-clock numbers; the compressed size is fully
    // deterministic and gates at 1%.
    let mut rec = BenchRecord::new("setops");
    rec.param("space", SPACE);
    rec.param("density", DENSITY);
    rec.param("origins", 3);
    rec.param("signature_origins", SIGNATURE_ORIGINS);
    rec.metric("union3_speedup", union_speedup, Dir::Higher, Some(0.7));
    rec.metric(
        "intersect3_speedup",
        intersect3_speedup,
        Dir::Higher,
        Some(0.7),
    );
    rec.metric("pairwise_speedup", pairwise_speedup, Dir::Higher, Some(0.7));
    rec.metric("diff_speedup", diff_speedup, Dir::Higher, Some(0.7));
    rec.metric(
        "exclusive_speedup",
        exclusive_speedup,
        Dir::Higher,
        Some(0.7),
    );
    rec.metric("member_speedup", member_speedup, Dir::Higher, Some(0.7));
    rec.metric(
        "signature7_speedup",
        signature_speedup,
        Dir::Higher,
        Some(0.7),
    );
    rec.metric("compressed_bytes", bytes as f64, Dir::Lower, Some(0.01));
    let rec_path = rec.write().expect("write BENCH_setops.json");
    println!("record: {}", rec_path.display());

    println!("\n(speedups are routed to stderr as bench_speedup JSONL lines)");
    // The headline kernel (the §7 sweep's inner loop) must hold its ≥10×
    // margin over the seed's collection walk — fail loudly if it regresses.
    assert!(
        union_speedup >= 10.0,
        "union kernel speedup regressed below 10x: {union_speedup:.1}x"
    );
}
