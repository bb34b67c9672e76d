//! The query engine: typed queries executed lazily against one or more
//! scan-set stores, behind three sharded LRU caches.
//!
//! A [`QueryEngine`] owns a pool of [`StoreReader`]s (one per store
//! file, shared without a lock) and a key → reader index. Point lookups
//! (`rank`, `member`) stay chunk-granular — they go through
//! [`originscan_store::LazyScanSet`] accessors and decode at most one
//! chunk. Every multi-origin count (`coverage`, `union`, `diff`,
//! `exclusive`, `best-k`) is a function of which origins saw each host,
//! so the first such query on a `(proto, trial)` loads all of its
//! origins into the `sets` cache, runs one
//! [`ScanSet::signature_counts`] pass over them and keeps the table in
//! `signatures`; every later one is a sum over that table's rows.
//! `recall` needs addresses, not counts, and unions the materialized
//! sets. On top of that, every finished response body is memoized in
//! the `plans` cache under the query's canonical form, so an identical
//! query (however it was spelled) is answered without touching a single
//! bitmap.
//!
//! Responses are deterministic by construction: a pure function of the
//! store contents and the canonical query, byte-identical across
//! engines, runs, and cache states.

use crate::cache::{CacheStats, ShardedLru};
use crate::error::QueryError;
use crate::query::Query;
use originscan_core::multiorigin::best_k_of;
use originscan_plan::TargetPlan;
use originscan_store::{ScanSet, SignatureCounts, StoreKey, StoreReader};
use originscan_telemetry::metrics::names;
use originscan_telemetry::JsonObj;
use originscan_telemetry::{Scope, Telemetry, Tracer};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How many shards and entries each engine cache gets. Sixteen shards
/// comfortably cover the server's worker pool; 64 entries per shard
/// bound resident bitmaps to about a thousand sets.
const CACHE_SHARDS: usize = 16;
const CACHE_CAPACITY_PER_SHARD: usize = 64;

/// Cumulative engine counters, for `/stats` and telemetry flushes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries executed (including failed ones).
    pub(crate) queries: u64,
    /// Queries that returned a [`QueryError`].
    pub(crate) errors: u64,
    /// Memoized-response cache counters.
    pub plans: CacheStats,
    /// Materialized-bitmap cache counters.
    pub sets: CacheStats,
    /// Bitmap kernel invocations (signature passes, unions, point lookups).
    pub kernel_ops: u64,
    /// Compressed-payload machine words charged to those kernels (the
    /// [`ScanSet::word_count`] cost model — deterministic work units,
    /// not wall time).
    pub kernel_words: u64,
}

/// The engine proper. Cheap to share: wrap it in an [`Arc`] and hand
/// clones to every worker thread.
#[derive(Debug)]
pub struct QueryEngine {
    readers: Vec<StoreReader>,
    /// Which reader holds each stored key. Later stores shadow earlier
    /// ones on key collision, deterministically (open order decides).
    index: BTreeMap<StoreKey, usize>,
    /// Registered target plans by name, for `recall` queries. Populated
    /// before serving starts (registration is `&mut self`), so memoized
    /// responses can never go stale.
    target_plans: BTreeMap<String, Arc<TargetPlan>>,
    sets: ShardedLru<Arc<ScanSet>>,
    /// Membership-signature table per `proto/trialN`: bit `i` of a mask
    /// is the `i`-th origin stored for it, ascending.
    signatures: ShardedLru<Arc<SignatureCounts>>,
    plans: ShardedLru<Arc<str>>,
    queries: AtomicU64,
    errors: AtomicU64,
    kernel_ops: AtomicU64,
    kernel_words: AtomicU64,
}

impl QueryEngine {
    /// Open every store file and build the key index.
    pub fn open(paths: &[&Path]) -> Result<QueryEngine, QueryError> {
        let mut readers = Vec::with_capacity(paths.len());
        for p in paths {
            readers.push(StoreReader::open(p).map_err(QueryError::from)?);
        }
        Ok(QueryEngine::from_readers(readers))
    }

    /// Build an engine over already-open readers.
    pub fn from_readers(readers: Vec<StoreReader>) -> QueryEngine {
        let mut index = BTreeMap::new();
        for (i, r) in readers.iter().enumerate() {
            for k in r.keys() {
                index.insert(k.clone(), i);
            }
        }
        QueryEngine {
            readers,
            index,
            target_plans: BTreeMap::new(),
            sets: ShardedLru::new(CACHE_SHARDS, CACHE_CAPACITY_PER_SHARD),
            signatures: ShardedLru::new(CACHE_SHARDS, CACHE_CAPACITY_PER_SHARD),
            plans: ShardedLru::new(CACHE_SHARDS, CACHE_CAPACITY_PER_SHARD),
            queries: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            kernel_ops: AtomicU64::new(0),
            kernel_words: AtomicU64::new(0),
        }
    }

    /// Number of keys served across all stores.
    pub(crate) fn key_count(&self) -> usize {
        self.index.len()
    }

    /// Register a target plan under `name` so `recall` queries can
    /// measure it against stored scan sets. Re-registering a name
    /// replaces the plan (call before serving starts — memoized `recall`
    /// responses are keyed by query text only).
    pub fn register_plan(&mut self, name: &str, plan: TargetPlan) {
        self.target_plans.insert(name.to_string(), Arc::new(plan));
    }

    /// Parse and execute one query text.
    pub fn execute_text(&self, text: &str) -> Result<Arc<str>, QueryError> {
        self.execute_text_traced(text, None).0
    }

    /// Parse and execute one query text, recording phase spans into
    /// `tracer` when present. Also returns the parsed query kind
    /// (`"invalid"` on parse failure) so the caller can key per-type
    /// latency histograms without reparsing.
    pub fn execute_text_traced(
        &self,
        text: &str,
        tracer: Option<&Tracer>,
    ) -> (Result<Arc<str>, QueryError>, &'static str) {
        let parsed = {
            let _g = tracer.map(|t| t.span("parse"));
            Query::parse(text)
        };
        match parsed {
            Ok(q) => (self.execute_traced(&q, tracer), q.kind()),
            Err(e) => {
                // Parse failures count as queries too: a flood of
                // malformed requests must be visible in `/stats`.
                self.queries.fetch_add(1, Ordering::Relaxed);
                self.errors.fetch_add(1, Ordering::Relaxed);
                (Err(e), "invalid")
            }
        }
    }

    /// Execute one parsed query, recording phase spans (`plan`, `cache`,
    /// `resolve`, `load`, `kernel.*`) into `tracer` when present.
    pub(crate) fn execute_traced(
        &self,
        q: &Query,
        tracer: Option<&Tracer>,
    ) -> Result<Arc<str>, QueryError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let canonical = {
            let _g = tracer.map(|t| t.span("plan"));
            q.canonical()
        };
        let cached = {
            let _g = tracer.map(|t| t.span("cache"));
            self.plans.get(&canonical)
        };
        if let Some(body) = cached {
            return Ok(body);
        }
        match self.answer(q, &canonical, tracer) {
            Ok(body) => {
                let body: Arc<str> = Arc::from(body);
                self.plans.insert(canonical, Arc::clone(&body));
                Ok(body)
            }
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Charge one kernel invocation over `words` work units, running it
    /// under a `kernel.*` span when tracing.
    fn kernel<T>(
        &self,
        tracer: Option<&Tracer>,
        name: &'static str,
        words: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.kernel_ops.fetch_add(1, Ordering::Relaxed);
        self.kernel_words.fetch_add(words, Ordering::Relaxed);
        let _g = tracer.map(|t| t.span(name));
        f()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            queries: self.queries.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            plans: self.plans.stats(),
            sets: self.sets.stats(),
            kernel_ops: self.kernel_ops.load(Ordering::Relaxed),
            kernel_words: self.kernel_words.load(Ordering::Relaxed),
        }
    }

    /// The `/stats` fields as an open [`JsonObj`], so the HTTP layer can
    /// append its own sections (per-query-type latency) before closing.
    pub(crate) fn stats_obj(&self) -> JsonObj {
        let s = self.stats();
        let mut o = JsonObj::new();
        o.field_u64("queries", s.queries);
        o.field_u64("errors", s.errors);
        o.field_u64("plan_hits", s.plans.hits);
        o.field_u64("plan_misses", s.plans.misses);
        o.field_u64("set_hits", s.sets.hits);
        o.field_u64("set_misses", s.sets.misses);
        o.field_u64("set_evictions", s.sets.evictions);
        o.field_u64("kernel_ops", s.kernel_ops);
        o.field_u64("kernel_words", s.kernel_words);
        o.field_u64("keys", self.index.len() as u64);
        o
    }

    /// Drop every cached bitmap, signature table and memoized response.
    pub fn clear_caches(&self) {
        self.sets.clear();
        self.signatures.clear();
        self.plans.clear();
    }

    /// Flush engine counters into a telemetry hub under `scope`.
    pub fn flush_telemetry(&self, hub: &Telemetry, scope: Scope) {
        let s = self.stats();
        hub.add(scope, names::SERVE_QUERIES, s.queries);
        hub.add(scope, names::SERVE_ERRORS, s.errors);
        hub.add(scope, names::SERVE_PLAN_HITS, s.plans.hits);
        hub.add(scope, names::SERVE_SET_HITS, s.sets.hits);
        hub.add(scope, names::SERVE_SET_LOADS, s.sets.misses);
        hub.add(scope, names::STORE_KERNEL_OPS, s.kernel_ops);
        hub.add(scope, names::STORE_KERNEL_WORDS, s.kernel_words);
    }

    // -----------------------------------------------------------------
    // Query evaluation
    // -----------------------------------------------------------------

    fn reader_for(&self, key: &StoreKey) -> Result<&StoreReader, QueryError> {
        self.index
            .get(key)
            .and_then(|&idx| self.readers.get(idx))
            .ok_or_else(|| QueryError::KeyNotFound {
                key: key.to_string(),
            })
    }

    /// All origins stored for `(proto, trial)`, ascending: bit `i` of a
    /// signature mask is `origins[i]`.
    fn origins_for(
        &self,
        proto: &str,
        trial: u8,
        tracer: Option<&Tracer>,
    ) -> Result<Vec<u16>, QueryError> {
        let _g = tracer.map(|t| t.span("resolve"));
        let lo = StoreKey::new(proto, trial, 0);
        let hi = StoreKey::new(proto, trial, u16::MAX);
        let origins: Vec<u16> = self.index.range(lo..=hi).map(|(k, _)| k.origin).collect();
        if origins.is_empty() {
            return Err(QueryError::NoOrigins {
                proto: proto.to_string(),
                trial,
            });
        }
        Ok(origins)
    }

    /// The signature mask of `origins` among `all` stored ones. The
    /// first origin not stored answers `key-not-found`, before any table
    /// is built.
    fn mask_of(proto: &str, trial: u8, all: &[u16], origins: &[u16]) -> Result<u64, QueryError> {
        origins.iter().try_fold(0u64, |mask, &o| {
            let i = all.binary_search(&o).map_err(|_| QueryError::KeyNotFound {
                key: StoreKey::new(proto, trial, o).to_string(),
            })?;
            let bit = u32::try_from(i).ok().and_then(|i| 1u64.checked_shl(i));
            bit.map(|b| mask | b)
                .ok_or_else(|| Self::too_many(proto, trial, all))
        })
    }

    fn too_many(proto: &str, trial: u8, all: &[u16]) -> QueryError {
        QueryError::TooManyOrigins {
            proto: proto.to_string(),
            trial,
            stored: all.len(),
        }
    }

    /// The signature table over `all` origins of `(proto, trial)`,
    /// through the `signatures` cache: one pass over all of its bitmaps
    /// on first touch. Workers racing on a cold key each build the same
    /// table.
    fn signature_for(
        &self,
        proto: &str,
        trial: u8,
        all: &[u16],
        tracer: Option<&Tracer>,
    ) -> Result<Arc<SignatureCounts>, QueryError> {
        let cache_key = format!("{proto}/trial{trial}");
        if let Some(table) = self.signatures.get(&cache_key) {
            return Ok(table);
        }
        let sets = self.sets_for(proto, trial, all, tracer)?;
        let refs: Vec<&ScanSet> = sets.iter().map(Arc::as_ref).collect();
        let table = self
            .kernel(tracer, "kernel.union", Self::words(&refs), || {
                ScanSet::signature_counts(&refs)
            })
            .ok_or_else(|| Self::too_many(proto, trial, all))?;
        let table = Arc::new(table);
        self.signatures.insert(cache_key, Arc::clone(&table));
        Ok(table)
    }

    /// The materialized bitmap for one key, through the `sets` cache.
    fn set_for(&self, key: &StoreKey, tracer: Option<&Tracer>) -> Result<Arc<ScanSet>, QueryError> {
        let cache_key = key.to_string();
        if let Some(set) = self.sets.get(&cache_key) {
            return Ok(set);
        }
        let reader = {
            let _g = tracer.map(|t| t.span("resolve"));
            self.reader_for(key)?
        };
        let set = {
            let _g = tracer.map(|t| t.span("load"));
            reader.load(key).map_err(QueryError::from)?
        };
        let set = Arc::new(set);
        self.sets.insert(cache_key, Arc::clone(&set));
        Ok(set)
    }

    /// Materialized bitmaps for a list of origins of one `(proto, trial)`.
    fn sets_for(
        &self,
        proto: &str,
        trial: u8,
        origins: &[u16],
        tracer: Option<&Tracer>,
    ) -> Result<Vec<Arc<ScanSet>>, QueryError> {
        origins
            .iter()
            .map(|&o| self.set_for(&StoreKey::new(proto, trial, o), tracer))
            .collect()
    }

    /// Summed work units of a kernel's operand sets.
    fn words(sets: &[&ScanSet]) -> u64 {
        sets.iter().map(|s| s.word_count()).sum()
    }

    fn answer(
        &self,
        q: &Query,
        canonical: &str,
        tracer: Option<&Tracer>,
    ) -> Result<String, QueryError> {
        // Protocol labels are the probe-module registry's namespace: a
        // name no module owns is a client error, never a silently empty
        // result. Registered modules with nothing stored still fall
        // through to their 404s below.
        if originscan_scanner::probe::by_name(q.proto()).is_none() {
            return Err(QueryError::UnknownProtocol {
                name: q.proto().to_string(),
            });
        }
        let mut o = JsonObj::new();
        o.field_str("query", q.kind());
        match q {
            Query::Coverage {
                proto,
                trial,
                origins,
            } => {
                let all = self.origins_for(proto, *trial, tracer)?;
                let selected = Self::mask_of(proto, *trial, &all, origins)?;
                let table = self.signature_for(proto, *trial, &all, tracer)?;
                let covered = table.sum(|m| m & selected != 0);
                let total = table.sum(|_| true);
                o.field_str("proto", proto);
                o.field_u64("trial", u64::from(*trial));
                o.field_u64_array(
                    "origins",
                    &origins.iter().map(|&x| u64::from(x)).collect::<Vec<_>>(),
                );
                o.field_u64("covered", covered);
                o.field_u64("universe", total);
                o.field_f64("coverage", fraction(covered, total));
            }
            Query::Union {
                proto,
                trial,
                origins,
            } => {
                // Nothing stored is `key-not-found` for `union` and
                // `diff`, not `no-origins`: an empty roster misses the
                // first origin asked for.
                let all = self.origins_for(proto, *trial, tracer).unwrap_or_default();
                let selected = Self::mask_of(proto, *trial, &all, origins)?;
                let table = self.signature_for(proto, *trial, &all, tracer)?;
                o.field_str("proto", proto);
                o.field_u64("trial", u64::from(*trial));
                o.field_u64_array(
                    "origins",
                    &origins.iter().map(|&x| u64::from(x)).collect::<Vec<_>>(),
                );
                o.field_u64("count", table.sum(|m| m & selected != 0));
            }
            Query::Diff { proto, trial, a, b } => {
                let all = self.origins_for(proto, *trial, tracer).unwrap_or_default();
                let in_a = Self::mask_of(proto, *trial, &all, &[*a])?;
                let in_b = Self::mask_of(proto, *trial, &all, &[*b])?;
                let table = self.signature_for(proto, *trial, &all, tracer)?;
                o.field_str("proto", proto);
                o.field_u64("trial", u64::from(*trial));
                o.field_u64("a", u64::from(*a));
                o.field_u64("b", u64::from(*b));
                o.field_u64("only_a", table.sum(|m| m & in_a != 0 && m & in_b == 0));
                o.field_u64("only_b", table.sum(|m| m & in_b != 0 && m & in_a == 0));
                o.field_u64("common", table.sum(|m| m & in_a != 0 && m & in_b != 0));
            }
            Query::Exclusive {
                proto,
                trial,
                origin,
            } => {
                let all = self.origins_for(proto, *trial, tracer)?;
                let own = Self::mask_of(proto, *trial, &all, &[*origin])?;
                let table = self.signature_for(proto, *trial, &all, tracer)?;
                o.field_str("proto", proto);
                o.field_u64("trial", u64::from(*trial));
                o.field_u64("origin", u64::from(*origin));
                o.field_u64("exclusive", table.sum(|m| m == own));
                o.field_u64("total", table.sum(|m| m & own != 0));
            }
            Query::BestK { proto, trial, k } => {
                let all = self.origins_for(proto, *trial, tracer)?;
                let bad_k = || QueryError::BadK {
                    k: *k,
                    available: all.len(),
                };
                if *k > all.len() {
                    return Err(bad_k());
                }
                let table = self.signature_for(proto, *trial, &all, tracer)?;
                let (combo, covered) = best_k_of(&table, all.len(), *k).ok_or_else(bad_k)?;
                let total = table.sum(|_| true);
                let best: Vec<u64> = combo
                    .iter()
                    .filter_map(|&i| all.get(i).map(|&x| u64::from(x)))
                    .collect();
                o.field_str("proto", proto);
                o.field_u64("trial", u64::from(*trial));
                o.field_u64("k", *k as u64);
                o.field_u64_array("best", &best);
                o.field_u64("covered", covered);
                o.field_u64("universe", total);
                o.field_f64("coverage", fraction(covered, total));
            }
            Query::Rank {
                proto,
                trial,
                origin,
                addr,
            } => {
                let key = StoreKey::new(proto, *trial, *origin);
                let reader = {
                    let _g = tracer.map(|t| t.span("resolve"));
                    self.reader_for(&key)?
                };
                let lazy = {
                    let _g = tracer.map(|t| t.span("load"));
                    reader.lazy(&key).map_err(QueryError::from)?
                };
                let rank = self
                    .kernel(tracer, "kernel.rank", 0, || lazy.rank(*addr))
                    .map_err(QueryError::from)?;
                o.field_str("proto", proto);
                o.field_u64("trial", u64::from(*trial));
                o.field_u64("origin", u64::from(*origin));
                o.field_u64("addr", u64::from(*addr));
                o.field_u64("rank", rank);
                o.field_u64("cardinality", lazy.cardinality());
            }
            Query::Member {
                proto,
                trial,
                origin,
                addr,
            } => {
                let key = StoreKey::new(proto, *trial, *origin);
                let reader = {
                    let _g = tracer.map(|t| t.span("resolve"));
                    self.reader_for(&key)?
                };
                let lazy = {
                    let _g = tracer.map(|t| t.span("load"));
                    reader.lazy(&key).map_err(QueryError::from)?
                };
                let member = self
                    .kernel(tracer, "kernel.member", 0, || lazy.contains(*addr))
                    .map_err(QueryError::from)?;
                o.field_str("proto", proto);
                o.field_u64("trial", u64::from(*trial));
                o.field_u64("origin", u64::from(*origin));
                o.field_u64("addr", u64::from(*addr));
                o.field_str("member", if member { "true" } else { "false" });
            }
            Query::Recall {
                proto,
                trial,
                origins,
                plan,
            } => {
                let target = self
                    .target_plans
                    .get(plan)
                    .cloned()
                    .ok_or_else(|| QueryError::UnknownPlan { name: plan.clone() })?;
                let sets = self.sets_for(proto, *trial, origins, tracer)?;
                let refs: Vec<&ScanSet> = sets.iter().map(Arc::as_ref).collect();
                let union = self.kernel(tracer, "kernel.union", Self::words(&refs), || {
                    ScanSet::union_many(&refs)
                });
                let universe = union.cardinality();
                let covered = self.kernel(tracer, "kernel.recall", union.word_count(), || {
                    union.iter().filter(|&a| target.allows(a)).count() as u64
                });
                o.field_str("proto", proto);
                o.field_u64("trial", u64::from(*trial));
                o.field_u64_array(
                    "origins",
                    &origins.iter().map(|&x| u64::from(x)).collect::<Vec<_>>(),
                );
                o.field_str("name", plan);
                o.field_str("strategy", target.strategy());
                o.field_u64("planned_s24s", target.planned_s24s() as u64);
                o.field_u64("covered", covered);
                o.field_u64("universe", universe);
                o.field_f64("recall", fraction(covered, universe));
            }
        }
        let hash = crate::query::fnv1a64(canonical.as_bytes());
        o.field_str("plan", &format!("{hash:016x}"));
        Ok(o.finish())
    }
}

/// `part / whole`, with nothing to cover counting as fully covered.
fn fraction(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        1.0
    } else {
        part as f64 / whole as f64
    }
}

/// Render a `QueryError` as the deterministic JSON error body the
/// server answers with.
pub fn error_body(e: &QueryError) -> String {
    let mut o = JsonObj::new();
    o.field_str("error", e.kind());
    o.field_str("detail", &e.to_string());
    o.finish()
}

#[cfg(test)]
impl QueryEngine {
    /// Names of the registered target plans, ascending.
    pub(crate) fn plan_names(&self) -> Vec<&str> {
        self.target_plans.keys().map(String::as_str).collect()
    }

    /// Execute one parsed query, returning the JSON response body.
    pub(crate) fn execute(&self, q: &Query) -> Result<Arc<str>, QueryError> {
        self.execute_traced(q, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use originscan_store::ScanSetStore;

    fn build_store(dir: &Path, name: &str, entries: &[(&str, u8, u16, Vec<u32>)]) -> StoreReader {
        let mut store = ScanSetStore::new();
        for (proto, trial, origin, addrs) in entries {
            store.insert(
                StoreKey::new(proto, *trial, *origin),
                ScanSet::from_unsorted(addrs.clone()),
            );
        }
        let path = dir.join(name);
        store.write_to(&path).unwrap();
        StoreReader::open(&path).unwrap()
    }

    fn test_engine(dir: &Path) -> QueryEngine {
        let reader = build_store(
            dir,
            "a.oscs",
            &[
                ("HTTP", 0, 0, vec![1, 2, 3, 100_000]),
                ("HTTP", 0, 1, vec![2, 3, 4]),
                ("HTTP", 0, 2, vec![900_000, 900_001]),
                ("SSH", 1, 0, vec![7]),
            ],
        );
        QueryEngine::from_readers(vec![reader])
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "originscan-serve-engine-{tag}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn coverage_union_diff_exclusive() {
        let dir = tmpdir("cov");
        let e = test_engine(&dir);
        // Universe: {1,2,3,4,100000,900000,900001} = 7 addrs.
        let body = e.execute(&Query::parse("coverage proto=HTTP trial=0 origins=0").unwrap());
        let body = body.unwrap();
        assert!(body.contains("\"covered\":4"), "{body}");
        assert!(body.contains("\"universe\":7"), "{body}");

        let body = e
            .execute(&Query::parse("union proto=HTTP trial=0 origins=0,1").unwrap())
            .unwrap();
        assert!(body.contains("\"count\":5"), "{body}");

        let body = e
            .execute(&Query::parse("diff proto=HTTP trial=0 a=0 b=1").unwrap())
            .unwrap();
        assert!(body.contains("\"only_a\":2"), "{body}");
        assert!(body.contains("\"only_b\":1"), "{body}");
        assert!(body.contains("\"common\":2"), "{body}");

        let body = e
            .execute(&Query::parse("exclusive proto=HTTP trial=0 origin=2").unwrap())
            .unwrap();
        assert!(body.contains("\"exclusive\":2"), "{body}");
        assert!(body.contains("\"total\":2"), "{body}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn best_k_finds_complementary_pair() {
        let dir = tmpdir("bestk");
        let e = test_engine(&dir);
        let body = e
            .execute(&Query::parse("best-k proto=HTTP trial=0 k=2").unwrap())
            .unwrap();
        // Origin 0 covers 4, origin 2 adds its disjoint pair → 6 of 7;
        // the {0,1} pair only reaches 5.
        assert!(body.contains("\"best\":[0,2]"), "{body}");
        assert!(body.contains("\"covered\":6"), "{body}");
        let err = e
            .execute(&Query::parse("best-k proto=HTTP trial=0 k=9").unwrap())
            .unwrap_err();
        assert_eq!(err.kind(), "bad-k");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn point_lookups_and_missing_keys() {
        let dir = tmpdir("point");
        let e = test_engine(&dir);
        let body = e
            .execute(&Query::parse("rank proto=HTTP trial=0 origin=0 addr=3").unwrap())
            .unwrap();
        assert!(body.contains("\"rank\":3"), "{body}");
        assert!(body.contains("\"cardinality\":4"), "{body}");
        let body = e
            .execute(&Query::parse("member proto=HTTP trial=0 origin=0 addr=100000").unwrap())
            .unwrap();
        assert!(body.contains("\"member\":\"true\""), "{body}");

        let err = e
            .execute(&Query::parse("member proto=HTTP trial=0 origin=9 addr=1").unwrap())
            .unwrap_err();
        assert_eq!(err.http_status(), 404);
        let err = e
            .execute(&Query::parse("coverage proto=DNS trial=0 origins=0").unwrap())
            .unwrap_err();
        assert_eq!(err.kind(), "no-origins");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_cache_memoizes_identical_queries() {
        let dir = tmpdir("memo");
        let e = test_engine(&dir);
        let q1 = Query::parse("coverage proto=HTTP trial=0 origins=1,0,0").unwrap();
        let q2 = Query::parse("coverage  proto=HTTP  trial=0  origins=0,1").unwrap();
        let b1 = e.execute(&q1).unwrap();
        let before = e.stats();
        let b2 = e.execute(&q2).unwrap();
        let after = e.stats();
        assert_eq!(b1, b2, "different spellings, same canonical plan");
        assert_eq!(after.plans.hits, before.plans.hits + 1);
        assert_eq!(
            after.sets.misses, before.sets.misses,
            "memoized answer must not touch the store"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn two_engines_answer_byte_identically() {
        let dir = tmpdir("det");
        let a = test_engine(&dir);
        let b = test_engine(&dir);
        let queries = [
            "coverage proto=HTTP trial=0 origins=0,1,2",
            "best-k proto=HTTP trial=0 k=2",
            "diff proto=HTTP trial=0 a=0 b=2",
            "rank proto=SSH trial=1 origin=0 addr=7",
        ];
        for q in queries {
            let qa = a.execute_text(q).unwrap();
            // Warm `b` differently (run the query twice) — cache state
            // must not leak into response bytes.
            let _ = b.execute_text(q).unwrap();
            let qb = b.execute_text(q).unwrap();
            assert_eq!(qa, qb, "{q}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recall_measures_a_registered_plan() {
        use originscan_plan::PlanEntry;
        let dir = tmpdir("recall");
        let mut e = test_engine(&dir);
        // Plan covers only /24 index 0, i.e. addresses 0..256.
        let plan =
            TargetPlan::from_entries(1 << 20, 7, "observed", vec![PlanEntry { s24: 0, score: 1 }])
                .unwrap();
        e.register_plan("front", plan);
        assert_eq!(e.plan_names(), vec!["front"]);
        // Union of origins 0,1 = {1,2,3,4,100000}; the plan admits the
        // four low addresses but not 100000 → recall 4/5.
        let body = e
            .execute_text("recall proto=HTTP trial=0 origins=0,1 plan=front")
            .unwrap();
        assert!(body.contains("\"name\":\"front\""), "{body}");
        assert!(body.contains("\"strategy\":\"observed\""), "{body}");
        assert!(body.contains("\"planned_s24s\":1"), "{body}");
        assert!(body.contains("\"covered\":4"), "{body}");
        assert!(body.contains("\"universe\":5"), "{body}");
        assert!(body.contains("\"recall\":0.8"), "{body}");

        let err = e
            .execute_text("recall proto=HTTP trial=0 origins=0,1 plan=ghost")
            .unwrap_err();
        assert_eq!(err.kind(), "unknown-plan");
        assert_eq!(err.http_status(), 404);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Seven correlated origins per `(proto, trial)`: a shared host list
    /// (sparse chunks, a dense chunk, a run) minus per-origin misses.
    fn roster_store(dir: &Path) -> StoreReader {
        let mut entries = Vec::new();
        for (proto, trial) in [("HTTP", 0u8), ("HTTP", 1), ("SSH", 0)] {
            let salt = u32::from(trial) + proto.len() as u32;
            let hosts = (0..6000u32)
                .map(|v| v * 37 + salt)
                .chain((3 << 16)..(3 << 16) + 9000)
                .chain((0..5000).map(|v| (5 << 16) + v * 2));
            for origin in 0..7u16 {
                let seen = |a: &u32| (a / 3 + u32::from(origin) * 5 + salt) % 17 < 16;
                let mut addrs: Vec<u32> = hosts.clone().filter(seen).collect();
                // A chunk only this origin holds.
                addrs.push((20 + u32::from(origin)) << 16);
                entries.push((proto, trial, origin, addrs));
            }
        }
        build_store(dir, "roster.oscs", &entries)
    }

    /// The answer the engine gave before the signature table: one bitmap
    /// kernel per number, over sets loaded straight from the reader.
    fn kernel_body(reader: &StoreReader, q: &Query) -> String {
        let load = |proto: &str, trial: u8, origins: &[u16]| -> Vec<ScanSet> {
            origins
                .iter()
                .map(|&o| reader.load(&StoreKey::new(proto, trial, o)).unwrap())
                .collect()
        };
        let all_of = |proto: &str, trial: u8| -> Vec<u16> {
            reader
                .keys()
                .filter(|k| k.protocol == proto && k.trial == trial)
                .map(|k| k.origin)
                .collect()
        };
        let union =
            |sets: &[ScanSet]| ScanSet::union_cardinality_many(&sets.iter().collect::<Vec<_>>());
        let ids = |origins: &[u16]| origins.iter().map(|&x| u64::from(x)).collect::<Vec<_>>();
        let mut o = JsonObj::new();
        o.field_str("query", q.kind());
        o.field_str("proto", q.proto());
        match q {
            Query::Coverage {
                proto,
                trial,
                origins,
            } => {
                let covered = union(&load(proto, *trial, origins));
                let total = union(&load(proto, *trial, &all_of(proto, *trial)));
                o.field_u64("trial", u64::from(*trial));
                o.field_u64_array("origins", &ids(origins));
                o.field_u64("covered", covered);
                o.field_u64("universe", total);
                o.field_f64("coverage", covered as f64 / total as f64);
            }
            Query::Union {
                proto,
                trial,
                origins,
            } => {
                o.field_u64("trial", u64::from(*trial));
                o.field_u64_array("origins", &ids(origins));
                o.field_u64("count", union(&load(proto, *trial, origins)));
            }
            Query::Diff { proto, trial, a, b } => {
                let sets = load(proto, *trial, &[*a, *b]);
                o.field_u64("trial", u64::from(*trial));
                o.field_u64("a", u64::from(*a));
                o.field_u64("b", u64::from(*b));
                o.field_u64("only_a", sets[0].andnot_cardinality(&sets[1]));
                o.field_u64("only_b", sets[1].andnot_cardinality(&sets[0]));
                o.field_u64("common", sets[0].intersection_cardinality(&sets[1]));
            }
            Query::Exclusive {
                proto,
                trial,
                origin,
            } => {
                let others: Vec<u16> = all_of(proto, *trial)
                    .into_iter()
                    .filter(|x| x != origin)
                    .collect();
                let own = &load(proto, *trial, &[*origin])[0];
                let rest = load(proto, *trial, &others)
                    .iter()
                    .fold(ScanSet::new(), |acc, s| acc.or(s));
                o.field_u64("trial", u64::from(*trial));
                o.field_u64("origin", u64::from(*origin));
                o.field_u64("exclusive", own.andnot_cardinality(&rest));
                o.field_u64("total", own.cardinality());
            }
            Query::BestK { proto, trial, k } => {
                let all = all_of(proto, *trial);
                let sets = load(proto, *trial, &all);
                let mut best: Option<(Vec<usize>, u64)> = None;
                for combo in originscan_stats::k_subsets(all.len(), *k) {
                    let members: Vec<ScanSet> = combo.iter().map(|&i| sets[i].clone()).collect();
                    let covered = union(&members);
                    if best.as_ref().is_none_or(|(_, c)| covered > *c) {
                        best = Some((combo, covered));
                    }
                }
                let (combo, covered) = best.unwrap();
                let total = union(&sets);
                o.field_u64("trial", u64::from(*trial));
                o.field_u64("k", *k as u64);
                o.field_u64_array(
                    "best",
                    &combo.iter().map(|&i| u64::from(all[i])).collect::<Vec<_>>(),
                );
                o.field_u64("covered", covered);
                o.field_u64("universe", total);
                o.field_f64("coverage", covered as f64 / total as f64);
            }
            other => panic!("not a table query: {other:?}"),
        }
        let hash = crate::query::fnv1a64(q.canonical().as_bytes());
        o.field_str("plan", &format!("{hash:016x}"));
        o.finish()
    }

    /// Every table-answered kind over the roster, several shapes each.
    fn table_mix() -> Vec<String> {
        let mut mix = Vec::new();
        for (proto, trial) in [("HTTP", 0), ("HTTP", 1), ("SSH", 0)] {
            let at = format!("proto={proto} trial={trial}");
            for o in 0..7 {
                mix.push(format!("coverage {at} origins={o}"));
                mix.push(format!("exclusive {at} origin={o}"));
                mix.push(format!("union {at} origins={o},{}", (o + 3) % 7));
                mix.push(format!("best-k {at} k={}", o + 1));
                for b in (0..7).filter(|&b| b != o) {
                    mix.push(format!("diff {at} a={o} b={b}"));
                }
            }
            mix.push(format!("coverage {at} origins=1,4,6"));
            mix.push(format!("union {at} origins=0,1,2,3,4,5,6"));
        }
        mix
    }

    #[test]
    fn table_answers_equal_per_query_kernels() {
        let dir = tmpdir("table");
        let reader = roster_store(&dir);
        let e = QueryEngine::from_readers(vec![roster_store(&dir)]);
        for text in table_mix() {
            let q = Query::parse(&text).unwrap();
            assert_eq!(&*e.execute(&q).unwrap(), kernel_body(&reader, &q), "{text}");
        }
        // One signature pass per (proto, trial), however many questions.
        assert_eq!(e.stats().kernel_ops, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threads_racing_on_a_cold_table_agree() {
        let dir = tmpdir("race");
        let e = QueryEngine::from_readers(vec![roster_store(&dir)]);
        let mix = table_mix();
        let expected: Vec<Arc<str>> = mix.iter().map(|q| e.execute_text(q).unwrap()).collect();
        const THREADS: usize = 4;
        for round in 0..8 {
            e.clear_caches();
            let start = std::sync::Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let (e, mix, expected, start) = (&e, &mix, &expected, &start);
                    scope.spawn(move || {
                        // Everyone's first query hits the same cold
                        // (proto, trial); later ones spread out.
                        start.wait();
                        for i in (0..mix.len()).map(|i| (i * (t + 1) + round) % mix.len()) {
                            assert_eq!(e.execute_text(&mix[i]).unwrap(), expected[i], "{}", mix[i]);
                        }
                    });
                }
            });
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn more_than_64_origins_is_a_typed_error() {
        let dir = tmpdir("wide");
        let entries: Vec<(&str, u8, u16, Vec<u32>)> = (0..65u16)
            .map(|o| ("HTTP", 0, o * 2, vec![u32::from(o), 1000]))
            .collect();
        let e = QueryEngine::from_readers(vec![build_store(&dir, "wide.oscs", &entries)]);
        for q in [
            "coverage proto=HTTP trial=0 origins=0",
            "union proto=HTTP trial=0 origins=0,2",
            "union proto=HTTP trial=0 origins=128",
            "diff proto=HTTP trial=0 a=0 b=2",
            "exclusive proto=HTTP trial=0 origin=4",
            "best-k proto=HTTP trial=0 k=2",
        ] {
            let err = e.execute_text(q).unwrap_err();
            assert_eq!(err.kind(), "too-many-origins", "{q}");
            assert_eq!(err.http_status(), 500);
            assert!(err.to_string().contains("65 origins"), "{err}");
        }
        // Key presence is still checked first, and single-set queries
        // never build a table.
        let err = e
            .execute_text("union proto=HTTP trial=0 origins=0,1")
            .unwrap_err();
        assert_eq!(err.kind(), "key-not-found");
        assert!(err.to_string().contains("HTTP/trial0/origin1"), "{err}");
        let body = e
            .execute_text("member proto=HTTP trial=0 origin=128 addr=1000")
            .unwrap();
        assert!(body.contains("\"member\":\"true\""), "{body}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn later_stores_shadow_earlier_keys() {
        let dir = tmpdir("shadow");
        let r1 = build_store(&dir, "one.oscs", &[("HTTP", 0, 0, vec![1])]);
        let r2 = build_store(&dir, "two.oscs", &[("HTTP", 0, 0, vec![1, 2, 3])]);
        let e = QueryEngine::from_readers(vec![r1, r2]);
        let body = e
            .execute_text("union proto=HTTP trial=0 origins=0")
            .unwrap();
        assert!(body.contains("\"count\":3"), "{body}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
