//! `store_roundtrip`: store encode/decode, set-op kernels and the plan
//! format do all the work; the scanner does none.
//!
//! Inputs are synthetic origin views over the world's real host lists
//! (five protocols × three trials × seven origins, plus one set of
//! contiguous /24s), so array, bitmap and run containers are all on the
//! path. One pass writes the store, reads it back three ways (`open`,
//! `load` of every key, eager `from_bytes`), runs the kernels the
//! analyses are made of on every (protocol, trial), and learns, encodes
//! and decodes plans. Writes sit beside reads so that a decoder rewrite
//! that costs the encoder, or file size, shows.

use crate::harness::{fnv, Ctx, PassOut, Workload};
use crate::inputs::{build_world, oracle, synthetic_views, Views, ALL_PROTOCOLS, ORIGINS, TRIALS};
use crate::spans::Spans;
use crate::workloads::file_digest;
use originscan_core::frontier::as_spans;
use originscan_netmodel::World;
use originscan_plan::{PlanBuilder, Strategy, TargetPlan};
use originscan_store::{ScanSet, ScanSetStore, StoreKey, StoreReader};
use std::path::PathBuf;
use std::time::Instant;

/// What the sorted-`Vec` oracle says about the checked `(protocol,
/// trial)`: computed once in set-up, compared on every pass.
#[derive(Debug, PartialEq, Eq, Default)]
struct KernelAnswers {
    union: Vec<u32>,
    union_card: u64,
    intersection: Vec<u32>,
    exclusive0: Vec<u32>,
    xor01: Vec<u32>,
    andnot01_card: u64,
    ranks: Vec<u64>,
    selects: Vec<Option<u32>>,
}

pub struct StoreRoundtrip {
    world: World,
    views: Views,
    expected: KernelAnswers,
    rank_addrs: Vec<u32>,
    path: PathBuf,
    plan_seed: u64,
}

fn oracle_answers(members: &[Vec<u32>], rank_addrs: &[u32]) -> KernelAnswers {
    let union = oracle::or_many(members);
    let intersection = members[1..]
        .iter()
        .fold(members[0].clone(), |acc, m| oracle::and(&acc, m));
    let others = oracle::or_many(&members[1..]);
    KernelAnswers {
        union_card: union.len() as u64,
        intersection,
        exclusive0: oracle::andnot(&members[0], &others),
        xor01: oracle::xor(&members[0], &members[1]),
        andnot01_card: oracle::andnot(&members[0], &members[1]).len() as u64,
        ranks: rank_addrs
            .iter()
            .map(|&a| oracle::rank(&members[0], a))
            .collect(),
        selects: rank_addrs
            .iter()
            .map(|&a| {
                members[0]
                    .get(a as usize % members[0].len().max(1))
                    .copied()
            })
            .collect(),
        union,
    }
}

/// The same questions, asked of the bitmap kernels.
fn kernel_answers(sets: &[&ScanSet], rank_addrs: &[u32], keep_members: bool) -> KernelAnswers {
    let union = ScanSet::union_many(sets);
    let intersection = sets[1..].iter().fold(sets[0].clone(), |acc, s| acc.and(s));
    let others = ScanSet::union_many(&sets[1..]);
    let exclusive0 = sets[0].andnot(&others);
    let xor01 = sets[0].xor(sets[1]);
    let card0 = sets[0].cardinality().max(1);
    let members = |s: &ScanSet| if keep_members { s.to_vec() } else { Vec::new() };
    KernelAnswers {
        union_card: ScanSet::union_cardinality_many(sets),
        andnot01_card: sets[0].andnot_cardinality(sets[1]),
        ranks: rank_addrs.iter().map(|&a| sets[0].rank(a)).collect(),
        selects: rank_addrs
            .iter()
            .map(|&a| sets[0].select(u64::from(a) % card0))
            .collect(),
        union: members(&union),
        intersection: members(&intersection),
        exclusive0: members(&exclusive0),
        xor01: members(&xor01),
    }
}

impl StoreRoundtrip {
    fn plans(&self, reader: &StoreReader, spans: &Spans) -> Option<(TargetPlan, Vec<u8>)> {
        let mut builder = PlanBuilder::new(self.world.space(), self.plan_seed)
            .ok()?
            .with_topology(as_spans(&self.world));
        spans
            .time("plan:observe", || builder.observe_reader(reader, "HTTP"))
            .ok()?;
        let observed = spans
            .time("plan:build_observed", || builder.build(&Strategy::Observed))
            .ok()?;
        spans
            .time("plan:build_hybrid", || {
                builder.build(&Strategy::Hybrid { keep_ppm: 500_000 })
            })
            .ok()?;
        let bytes = spans.time("plan:encode", || observed.to_bytes()).ok()?;
        let decoded = spans
            .time("plan:decode", || TargetPlan::from_bytes(&bytes))
            .ok()?;
        (decoded == observed).then_some((observed, bytes))
    }
}

impl Workload for StoreRoundtrip {
    const NAME: &'static str = "store_roundtrip";

    fn setup(ctx: &Ctx) -> StoreRoundtrip {
        let world = build_world(ctx.seeds.world, ctx.scale.store_s24);
        let views = synthetic_views(&world, &ALL_PROTOCOLS, ctx.seeds.views, true);
        let mut rng = crate::inputs::SplitMix(ctx.seeds.queries);
        let space = world.space();
        let rank_addrs: Vec<u32> = (0..64).map(|_| rng.below(space) as u32).collect();
        let expected = oracle_answers(&views.oracle_members, &rank_addrs);
        StoreRoundtrip {
            world,
            views,
            expected,
            rank_addrs,
            path: ctx.dir.join("roundtrip.oscs"),
            plan_seed: ctx.seeds.scan,
        }
    }

    fn pass(&mut self, spans: &Spans) -> PassOut {
        let mut out = PassOut::default();
        let _pass = spans.span("bench:pass");
        let store = &self.views.store;

        // Write side.
        let t = Instant::now();
        let written = spans.time("store:write_to", || store.write_to(&self.path));
        let write_s = t.elapsed().as_secs_f64();
        out.ops += 1;
        let Ok(file_bytes) = written else {
            out.failed += 1;
            return out;
        };

        // Read side: lazy open, every key loaded, then the eager decode.
        let t = Instant::now();
        let reader = spans.time("store:open", || StoreReader::open(&self.path));
        let Ok(reader) = reader else {
            out.failed += 1;
            return out;
        };
        let keys: Vec<StoreKey> = reader.keys().cloned().collect();
        let mut loaded = ScanSetStore::new();
        {
            let _g = spans.span("store:load");
            for key in keys {
                out.ops += 1;
                match reader.load(&key) {
                    Ok(set) => drop(loaded.insert(key, set)),
                    Err(_) => out.failed += 1,
                }
            }
        }
        let file = spans.time("store:read_file", || std::fs::read(&self.path));
        let eager = spans.time("store:from_bytes", || {
            file.as_ref().ok().map(|b| ScanSetStore::from_bytes(b))
        });
        let read_s = t.elapsed().as_secs_f64();
        out.ops += 1;
        let Some(Ok(eager)) = eager else {
            out.failed += 1;
            return out;
        };
        out.work = 3 * self.views.total_members;
        out.work_s = write_s + read_s;

        // Kernels, per (protocol, trial).
        let mut checked = KernelAnswers::default();
        {
            let _g = spans.span("store:kernels");
            for proto in ALL_PROTOCOLS {
                for trial in 0..TRIALS {
                    let sets: Vec<&ScanSet> = (0..ORIGINS)
                        .filter_map(|o| loaded.get(&StoreKey::new(proto.name(), trial, o)))
                        .collect();
                    out.ops += 1;
                    if sets.len() != usize::from(ORIGINS) {
                        out.failed += 1;
                        continue;
                    }
                    let is_checked =
                        proto.name() == self.views.oracle_proto && trial == self.views.oracle_trial;
                    let answers = kernel_answers(&sets, &self.rank_addrs, is_checked);
                    out.digest = out.digest.rotate_left(9)
                        ^ answers.union_card
                        ^ answers.andnot01_card.rotate_left(20)
                        ^ answers.ranks.iter().sum::<u64>().rotate_left(40);
                    if is_checked {
                        checked = answers;
                    }
                }
            }
        }
        let plans = self.plans(&reader, spans);
        out.ops += 1;

        let checking = Instant::now();
        {
            let _g = spans.span("bench:check");
            out.check(loaded == *store);
            out.check(eager == *store);
            out.check(checked == self.expected);
            match plans {
                Some((_, plan_bytes)) => out.digest ^= fnv(&plan_bytes),
                None => out.failed += 1,
            }
            out.digest ^= file_digest(&self.path).rotate_left(1);
        }
        let stats = store.stats();
        let read = reader.stats();
        out.extra.extend([
            ("store.write_s", write_s),
            ("store.read_s", read_s),
            (
                "store.bytes_per_host",
                file_bytes as f64 / self.views.total_members.max(1) as f64,
            ),
            ("store.bytes", file_bytes as f64),
            ("store.containers_array", stats.array_containers as f64),
            ("store.containers_bitmap", stats.bitmap_containers as f64),
            ("store.containers_run", stats.run_containers as f64),
            ("store.chunks_loaded", read.chunks_loaded as f64),
            ("store.bytes_read", read.bytes_read as f64),
        ]);
        out.check_s = checking.elapsed().as_secs_f64();
        out
    }
}
