//! Machine-readable join-engine benchmark: writes `BENCH_joins.json` and
//! gates on regressions against the previous artifact.
//!
//! Times triangle counting (and Cycle4) with the instrumented and
//! zero-overhead (`NoTally`) LFTJ and CTJ kernels plus both pool-based
//! parallel engines (`parlftj`, `parctj`), so successive PRs can track
//! the performance trajectory from a stable JSON artifact instead of
//! scraping bench output.
//!
//! If an output artifact from a previous run (same dataset/scale/runs/pool
//! configuration) exists, the per-(query, engine) median deltas are
//! printed and any row whose median *and* min both regressed beyond
//! `GATE_THRESHOLD_PCT` makes the run exit non-zero *without* overwriting
//! the baseline (requiring the min too keeps scheduler noise on loaded
//! machines from flapping the gate; pass `--no-gate` to report deltas but
//! always write and exit 0 — e.g. to rebase the artifact).
//!
//! Usage: `bench_joins [--scale tiny|mini|full] [--dataset <label>]
//! [--runs N] [--pool N] [--cache-cap N] [--trie-cache-mb N]
//! [--cache-adapt]
//! [--row-limit N] [--deadline-ms N]
//! [--store PATH] [--mutate-batch N] [--out PATH] [--no-gate]`
//!
//! `--cache-cap N` bounds the `parctj` rows' shared PJR cache to `N`
//! total entries (per-stripe FIFO eviction; `0` disables caching), so
//! the eviction-churn path can be benchmarked and gated like any other
//! configuration. Artifacts record the capacity, and medians are only
//! compared between identical configurations.
//!
//! `--cache-adapt` runs the `parctj` rows with the cost-based adaptive
//! cache policy (default: the engines' `TRIEJAX_CACHE_ADAPT`
//! resolution). It is recorded in the artifact and its config signature
//! only when on, so pre-knob artifacts still gate against default runs.
//!
//! `--row-limit N` / `--deadline-ms N` put the parallel rows under a
//! query budget, timing cancellation (time-to-first-N-rows /
//! time-to-deadline) instead of full runs. Governed runs record the knob
//! in the artifact and its config signature; ungoverned runs omit the
//! fields, so pre-knob artifacts still gate against ungoverned runs.
//! Every invocation also smoke-checks that a zero-deadline run reports
//! `Cancelled` — a cheap liveness probe that is never a gated row.
//!
//! `--trie-cache-mb N` shares one cross-query [`triejax_join::TrieCache`]
//! (capacity `N` MiB; `0` disables it) across every parallel engine row.
//! Every invocation records a per-query `trie-build-cold` row (the trie
//! construction phase timed through `EngineStats::trie_build_ns`, cache
//! explicitly off); with the cache enabled a `trie-build-warm` row rides
//! along — every build served from the cache — together with a
//! `trie_cache_mb` config-signature field, so cacheless artifacts from
//! before the knob existed still gate against cacheless runs. Build rows
//! report `trie_cache_hits` in their `results` column.
//!
//! `--store PATH` benchmarks the persistent trie store: if `PATH` does
//! not exist it is created once (a [`triejax_join::Session`] snapshot of
//! the benchmark catalog's Cycle3+Cycle4 tries, saved through
//! `StoredCatalog::save`), then every sampled `store-open-cold` row times
//! a full cold open — `StoredCatalog::open` plus a cache preload — and
//! verifies the serving claim by running the query against the preloaded
//! cache and asserting `EngineStats::trie_build_ns == 0`. The row's
//! `results` column reports the store-served hit count. Store runs record
//! `"store": true` in the artifact and its config signature; storeless
//! runs omit the field, so pre-knob artifacts still gate.
//!
//! `--mutate-batch N` benchmarks the incremental-maintenance path with a
//! deterministic batch of `N` inserted edges plus `N/2` deletes of base
//! tuples, three rows per query: `delta-apply` times folding the batch
//! into a session's pending [`triejax_relation::RelationDelta`]
//! (`results` = resulting delta size); `query-warm-delta` times the
//! parallel engine over base + pending delta through the merge-cursor
//! path (`results` = result count); `compaction` times promoting the
//! delta into a fresh frozen base (`results` = merged relation size).
//! Every sample rebuilds its session, so each one times the identical
//! state transition. Mutating runs record `mutate_batch` in the artifact
//! and its config signature; non-mutating runs omit the field, so
//! pre-knob artifacts still gate against non-mutating runs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use triejax_graph::{Dataset, Scale};
use triejax_join::{
    Catalog, CountSink, Counting, Ctj, JoinError, Lftj, NoTally, ParCtj, ParLftj, Session,
    StoredCatalog, TrieCache,
};
use triejax_query::{patterns::Pattern, CompiledQuery};
use triejax_relation::Relation;

/// Median slowdown (percent) beyond which the gate fails the run.
const GATE_THRESHOLD_PCT: f64 = 25.0;

/// One named, boxed benchmark body (borrowing the plan and catalog).
type BenchCase<'a> = (&'static str, Box<dyn FnMut() -> u64 + 'a>);

struct Measurement {
    engine: &'static str,
    query: &'static str,
    median_ns: u128,
    min_ns: u128,
    max_ns: u128,
    results: u64,
}

fn time_runs(runs: usize, mut f: impl FnMut() -> u64) -> (u128, u128, u128, u64) {
    // One warm-up execution, then `runs` timed ones.
    let mut results = f();
    let mut samples: Vec<u128> = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        results = f();
        samples.push(t.elapsed().as_nanos());
    }
    samples.sort_unstable();
    (
        samples[samples.len() / 2],
        samples[0],
        samples[samples.len() - 1],
        results,
    )
}

/// Extracts `(query, engine, median_ns, min_ns)` rows from a previous
/// artifact (the exact format this binary writes; no serde in the offline
/// environment).
fn parse_previous(text: &str) -> Vec<(String, String, u128, u128)> {
    text.lines()
        .filter_map(|line| {
            let line = line.trim();
            Some((
                field_str(line, "query")?,
                field_str(line, "engine")?,
                field_num(line, "median_ns")?,
                field_num(line, "min_ns")?,
            ))
        })
        .collect()
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

fn field_num(line: &str, key: &str) -> Option<u128> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// `true` when the artifact recorded `"key": true` (boolean fields are
/// only written when on, so absent means `false`).
fn field_bool(text: &str, key: &str) -> bool {
    text.contains(&format!("\"{key}\": true"))
}

/// The benchmark configuration recorded in (or computed for) one artifact;
/// medians are only comparable between identical configurations.
#[derive(PartialEq)]
struct ConfigSig {
    dataset: Option<String>,
    scale: Option<String>,
    runs: Option<u128>,
    pool: Option<u128>,
    cache_cap: Option<u128>,
    trie_cache_mb: Option<u128>,
    cache_adapt: bool,
    row_limit: Option<u128>,
    deadline_ms: Option<u128>,
    store: bool,
    mutate_batch: Option<u128>,
}

fn config_signature(text: &str) -> ConfigSig {
    ConfigSig {
        dataset: field_str(text, "dataset"),
        scale: field_str(text, "scale"),
        runs: field_num(text, "runs"),
        pool: field_num(text, "pool"),
        cache_cap: field_num(text, "cache_cap"),
        trie_cache_mb: field_num(text, "trie_cache_mb"),
        cache_adapt: field_bool(text, "cache_adapt"),
        row_limit: field_num(text, "row_limit"),
        deadline_ms: field_num(text, "deadline_ms"),
        store: field_bool(text, "store"),
        mutate_batch: field_num(text, "mutate_batch"),
    }
}

/// Samples the trie-construction phase of `runs` engine runs through
/// `EngineStats::trie_build_ns` (median, min, max) plus the last run's
/// `trie_cache_hits` — reported in the artifact's `results` column: 0
/// for a cold row, one per distinct `(relation, perm)` build for a warm
/// one. Build rows always run ungoverned: the build phase completes
/// before any budget is consulted, so a budget knob could only add
/// noise, not change what is measured.
fn build_phase_samples(
    runs: usize,
    plan: &CompiledQuery,
    catalog: &Catalog,
    mut engine: impl FnMut() -> ParLftj,
) -> (u128, u128, u128, u64) {
    let mut samples: Vec<u128> = Vec::with_capacity(runs);
    let mut hits = 0u64;
    for _ in 0..runs {
        let mut sink = CountSink::default();
        let stats = engine()
            .run_tallied::<NoTally>(plan, catalog, &mut sink)
            .expect("build rows run ungoverned");
        samples.push(u128::from(stats.trie_build_ns));
        hits = stats.trie_cache_hits;
    }
    samples.sort_unstable();
    (
        samples[samples.len() / 2],
        samples[0],
        samples[samples.len() - 1],
        hits,
    )
}

/// Samples a full cold open of the persistent store — `StoredCatalog::open`
/// plus a fresh cache preload, the whole O(bytes-read) serving path — and
/// verifies the claim each time by running `plan` against the preloaded
/// cache: the run must report zero `trie_build_ns` (nothing was rebuilt)
/// and its store-served hit count lands in the row's `results` column.
fn store_open_samples(
    runs: usize,
    path: &str,
    plan: &CompiledQuery,
    catalog: &Catalog,
    pool: Option<usize>,
) -> (u128, u128, u128, u64) {
    let mut samples: Vec<u128> = Vec::with_capacity(runs);
    let mut hits = 0u64;
    for _ in 0..runs {
        let t = Instant::now();
        let stored = StoredCatalog::open(path).expect("open store");
        let cache = Arc::new(TrieCache::unbounded());
        cache.preload(&stored);
        samples.push(t.elapsed().as_nanos());

        let mut sink = CountSink::default();
        let stats = pool
            .map_or_else(ParLftj::new, ParLftj::with_pool)
            .with_trie_cache(cache)
            .run_tallied::<NoTally>(plan, catalog, &mut sink)
            .expect("store rows run ungoverned");
        assert_eq!(
            stats.trie_build_ns, 0,
            "a store-served run must do zero trie-build work"
        );
        assert!(stats.trie_cache_hits > 0, "the store served nothing");
        hits = stats.trie_cache_hits;
    }
    samples.sort_unstable();
    (
        samples[samples.len() / 2],
        samples[0],
        samples[samples.len() - 1],
        hits,
    )
}

/// The deterministic mutation batch for `--mutate-batch N`: `N` fresh
/// edges on vertices far above the dataset's id range (guaranteed
/// inserts) plus every other base tuple up to `N/2` rows (guaranteed
/// live deletes) — so both delta sides take part in every sample.
fn mutation_batch(base: &Relation, n: usize) -> (Relation, Relation) {
    const FRESH: u32 = 1 << 24;
    let inserts = Relation::from_pairs((0..n as u32).map(|i| (FRESH + i, FRESH + i + 1)));
    let deletes = Relation::from_tuples(
        base.arity(),
        (0..base.len().min(n / 2)).map(|i| base.tuple(i * 2 % base.len())),
    )
    .expect("base tuples share the base arity");
    (inserts, deletes)
}

/// Samples the three incremental-maintenance phases. Applies and
/// compactions are one-shot state transitions, so — unlike the steady
/// -state query rows — every sample rebuilds a fresh session and times
/// the identical transition: fold the batch in (`delta-apply`), answer
/// over base + pending delta (`query-warm-delta`), promote the delta to
/// a frozen base (`compaction`).
fn mutation_samples(
    runs: usize,
    plan: &CompiledQuery,
    catalog: &Catalog,
    batch_n: usize,
    pool: Option<usize>,
) -> Vec<(&'static str, u128, u128, u128, u64)> {
    let (inserts, deletes) = mutation_batch(catalog.get("G").expect("benchmark relation"), batch_n);
    let session_with = |ratio: f64| {
        let mut s = Session::new(catalog.clone()).with_compact_ratio(ratio);
        if let Some(n) = pool {
            s = s.with_pool(n);
        }
        s
    };
    let mut rows = Vec::new();

    // delta-apply: the batch algebra alone (no compaction, no queries).
    let mut samples: Vec<u128> = Vec::with_capacity(runs);
    let mut delta_len = 0u64;
    for _ in 0..runs {
        let session = session_with(f64::INFINITY);
        let t = Instant::now();
        session.apply("G", &inserts, &deletes).expect("apply");
        samples.push(t.elapsed().as_nanos());
        delta_len = session.deltas().get("G").map_or(0, |d| d.len() as u64);
    }
    samples.sort_unstable();
    rows.push((
        "delta-apply",
        samples[samples.len() / 2],
        samples[0],
        samples[samples.len() - 1],
        delta_len,
    ));

    // query-warm-delta: the merge-cursor serving path over the pending
    // delta. One state, many runs — time_runs applies (base tries warm
    // after the untimed first execution, like every other query row).
    let session = session_with(f64::INFINITY);
    session.apply("G", &inserts, &deletes).expect("apply");
    let (state_catalog, state_deltas) = (session.catalog(), session.deltas());
    assert!(!state_deltas.is_empty(), "the batch must leave a delta");
    let (median_ns, min_ns, max_ns, results) = time_runs(runs, || {
        let mut sink = CountSink::default();
        pool.map_or_else(ParLftj::new, ParLftj::with_pool)
            .run_tallied_with::<NoTally>(plan, &state_catalog, &state_deltas, &mut sink)
            .expect("mutation rows run ungoverned");
        sink.count()
    });
    rows.push(("query-warm-delta", median_ns, min_ns, max_ns, results));

    // compaction: promoting the pending delta into a fresh frozen base.
    let mut samples: Vec<u128> = Vec::with_capacity(runs);
    let mut merged_len = 0u64;
    for _ in 0..runs {
        let session = session_with(f64::INFINITY);
        session.apply("G", &inserts, &deletes).expect("apply");
        let t = Instant::now();
        session.compact("G");
        samples.push(t.elapsed().as_nanos());
        merged_len = session.catalog().get("G").map_or(0, |r| r.len() as u64);
    }
    samples.sort_unstable();
    rows.push((
        "compaction",
        samples[samples.len() / 2],
        samples[0],
        samples[samples.len() - 1],
        merged_len,
    ));
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Tiny;
    let mut dataset = Dataset::GrQc;
    let mut runs = 7usize;
    let mut pool: Option<usize> = None;
    let mut cache_cap: Option<usize> = None;
    let mut trie_cache_mb: Option<u64> = None;
    let mut cache_adapt: Option<bool> = None;
    let mut row_limit: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut store_path: Option<String> = None;
    let mut mutate_batch: Option<usize> = None;
    let mut gate = true;
    let mut out_path = String::from("BENCH_joins.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args[i].as_str() {
                    "tiny" => Scale::Tiny,
                    "mini" => Scale::Mini,
                    "full" => Scale::Full,
                    other => panic!("unknown scale {other}"),
                };
            }
            "--dataset" => {
                i += 1;
                dataset = Dataset::from_label(&args[i])
                    .unwrap_or_else(|| panic!("unknown dataset {}", args[i]));
            }
            "--runs" => {
                i += 1;
                runs = args[i].parse().expect("--runs takes a number");
                assert!(runs > 0, "--runs must be at least 1");
            }
            "--pool" => {
                i += 1;
                let n: usize = args[i].parse().expect("--pool takes a number");
                assert!(n > 0, "--pool must be at least 1");
                pool = Some(n);
            }
            "--cache-cap" => {
                i += 1;
                cache_cap = Some(args[i].parse().expect("--cache-cap takes a number"));
            }
            "--trie-cache-mb" => {
                i += 1;
                trie_cache_mb = Some(args[i].parse().expect("--trie-cache-mb takes a number"));
            }
            "--cache-adapt" => cache_adapt = Some(true),
            "--row-limit" => {
                i += 1;
                let n: u64 = args[i].parse().expect("--row-limit takes a number");
                assert!(n > 0, "--row-limit must be at least 1");
                row_limit = Some(n);
            }
            "--deadline-ms" => {
                i += 1;
                let n: u64 = args[i].parse().expect("--deadline-ms takes a number");
                assert!(n > 0, "--deadline-ms must be at least 1");
                deadline_ms = Some(n);
            }
            "--store" => {
                i += 1;
                store_path = Some(args[i].clone());
            }
            "--mutate-batch" => {
                i += 1;
                let n: usize = args[i].parse().expect("--mutate-batch takes a number");
                assert!(n > 0, "--mutate-batch must be at least 1");
                mutate_batch = Some(n);
            }
            "--no-gate" => gate = false,
            "--out" => {
                i += 1;
                out_path = args[i].clone();
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }

    // Without --cache-cap the engines would read TRIEJAX_CACHE_CAP on
    // their own; resolve it up front (through the engine's own
    // resolution, so the rules can never drift) and pin it explicitly,
    // so the measured capacity is always the recorded one — otherwise an
    // env-capped run would signature-match (and gate against) uncapped
    // baselines.
    let cache_cap = cache_cap.or_else(|| ParCtj::new().effective_config().max_entries);
    // Same resolution for the adaptive cache policy: resolve the
    // `TRIEJAX_CACHE_ADAPT` default through the engine and pin it, so the
    // measured cache policy is always the recorded one.
    let cache_adapt = cache_adapt.unwrap_or_else(|| ParCtj::new().effective_config().adaptive);
    // The trie cache is flag-only: without `--trie-cache-mb` (or with 0)
    // the parallel rows run with the cache pinned *off* — an ambient
    // `TRIEJAX_TRIE_CACHE_MB` must not make the measured configuration
    // drift from the recorded one.
    let trie_cache: Option<Arc<TrieCache>> = trie_cache_mb
        .filter(|&mb| mb > 0)
        .map(|mb| Arc::new(TrieCache::with_capacity_mb(mb)));

    let mut catalog = Catalog::new();
    catalog.insert("G", dataset.generate(scale).edge_relation());
    // A missing --store file is created once from this catalog's own
    // Cycle3+Cycle4 tries, so the first invocation bootstraps the store
    // that later ones (and CI) open cold.
    if let Some(path) = &store_path {
        if !std::path::Path::new(path).exists() {
            let plans: Vec<CompiledQuery> = [Pattern::Cycle3, Pattern::Cycle4]
                .iter()
                .map(|p| CompiledQuery::compile(&p.query()).expect("compiles"))
                .collect();
            let mut session = Session::new(catalog.clone());
            if let Some(n) = pool {
                session = session.with_pool(n);
            }
            let stored = session.snapshot(&plans).expect("snapshot");
            stored.save(path).expect("save store");
            println!("created trie store {path} ({} tries)", stored.tries().len());
        }
    }
    let pin_trie_cache = |engine: ParLftj| match &trie_cache {
        Some(c) => engine.with_trie_cache(c.clone()),
        None => engine.without_trie_cache(),
    };
    let pin_trie_cache_ctj = |engine: ParCtj| match &trie_cache {
        Some(c) => engine.with_trie_cache(c.clone()),
        None => engine.without_trie_cache(),
    };
    let par_lftj = || {
        let mut engine = pin_trie_cache(pool.map_or_else(ParLftj::new, ParLftj::with_pool));
        if let Some(n) = row_limit {
            engine = engine.with_row_limit(n);
        }
        if let Some(ms) = deadline_ms {
            engine = engine.with_deadline(Duration::from_millis(ms));
        }
        engine
    };
    let par_ctj = || {
        let mut engine = pin_trie_cache_ctj(
            pool.map_or_else(ParCtj::new, ParCtj::with_pool)
                .with_cache_adapt(cache_adapt),
        );
        if let Some(cap) = cache_cap {
            engine = engine.cache_capacity(cap);
        }
        if let Some(n) = row_limit {
            engine = engine.with_row_limit(n);
        }
        if let Some(ms) = deadline_ms {
            engine = engine.with_deadline(Duration::from_millis(ms));
        }
        engine
    };
    // A governed row legitimately reports `Cancelled` — the time to trip
    // the budget is the thing being measured; any other error is a bug.
    let settle = |outcome: Result<(), JoinError>| {
        if let Err(e) = outcome {
            assert!(matches!(e, JoinError::Cancelled { .. }), "runs: {e}");
        }
    };

    // Robustness smoke probe (never a timed or gated row): a zero-deadline
    // governed run must come back `Cancelled`, proving the cancellation
    // path is live on this build before any measurement depends on it.
    {
        let plan = CompiledQuery::compile(&Pattern::Cycle3.query()).expect("compiles");
        let mut sink = CountSink::default();
        let outcome = pool
            .map_or_else(ParLftj::new, ParLftj::with_pool)
            .with_deadline(Duration::ZERO)
            .run_tallied::<Counting>(&plan, &catalog, &mut sink);
        match outcome {
            Err(JoinError::Cancelled { reason, .. }) => {
                println!("cancellation smoke check: zero-deadline run reported \"{reason}\"");
            }
            Ok(_) => panic!("zero-deadline run must report Cancelled, got a full result"),
            Err(other) => panic!("zero-deadline run must report Cancelled, got {other}"),
        }
    }

    let mut measurements: Vec<Measurement> = Vec::new();
    for pattern in [Pattern::Cycle3, Pattern::Cycle4] {
        let plan = CompiledQuery::compile(&pattern.query()).expect("compiles");
        let cases: Vec<BenchCase<'_>> = vec![
            (
                "lftj-counting",
                Box::new(|| {
                    let mut sink = CountSink::default();
                    Lftj::new()
                        .run_tallied::<Counting>(&plan, &catalog, &mut sink)
                        .expect("runs");
                    sink.count()
                }),
            ),
            (
                "lftj-notally",
                Box::new(|| {
                    let mut sink = CountSink::default();
                    Lftj::new()
                        .run_tallied::<NoTally>(&plan, &catalog, &mut sink)
                        .expect("runs");
                    sink.count()
                }),
            ),
            (
                "ctj-counting",
                Box::new(|| {
                    let mut sink = CountSink::default();
                    Ctj::new()
                        .run_tallied::<Counting>(&plan, &catalog, &mut sink)
                        .expect("runs");
                    sink.count()
                }),
            ),
            (
                "ctj-notally",
                Box::new(|| {
                    let mut sink = CountSink::default();
                    Ctj::new()
                        .run_tallied::<NoTally>(&plan, &catalog, &mut sink)
                        .expect("runs");
                    sink.count()
                }),
            ),
            (
                "parlftj-counting",
                Box::new(|| {
                    let mut sink = CountSink::default();
                    settle(
                        par_lftj()
                            .run_tallied::<Counting>(&plan, &catalog, &mut sink)
                            .map(|_| ()),
                    );
                    sink.count()
                }),
            ),
            (
                "parlftj-notally",
                Box::new(|| {
                    let mut sink = CountSink::default();
                    settle(
                        par_lftj()
                            .run_tallied::<NoTally>(&plan, &catalog, &mut sink)
                            .map(|_| ()),
                    );
                    sink.count()
                }),
            ),
            (
                "parctj-counting",
                Box::new(|| {
                    let mut sink = CountSink::default();
                    settle(
                        par_ctj()
                            .run_tallied::<Counting>(&plan, &catalog, &mut sink)
                            .map(|_| ()),
                    );
                    sink.count()
                }),
            ),
            (
                "parctj-notally",
                Box::new(|| {
                    let mut sink = CountSink::default();
                    settle(
                        par_ctj()
                            .run_tallied::<NoTally>(&plan, &catalog, &mut sink)
                            .map(|_| ()),
                    );
                    sink.count()
                }),
            ),
        ];
        for (engine, mut f) in cases {
            let (median_ns, min_ns, max_ns, results) = time_runs(runs, &mut f);
            println!(
                "{:>8} {:<18} median {:>12} ns  ({} results)",
                pattern.label(),
                engine,
                median_ns,
                results
            );
            measurements.push(Measurement {
                engine,
                query: pattern.label(),
                median_ns,
                min_ns,
                max_ns,
                results,
            });
        }

        // Build-phase rows. Cold (always): the cache pinned off, every
        // sampled run pays the full trie construction. Warm (cache on):
        // one untimed priming run fills the shared cache, then every
        // sampled run serves all of the query's builds from it.
        let (cold_median, cold_min, cold_max, cold_hits) =
            build_phase_samples(runs, &plan, &catalog, || {
                pool.map_or_else(ParLftj::new, ParLftj::with_pool)
                    .without_trie_cache()
            });
        println!(
            "{:>8} {:<18} median {:>12} ns  ({} hits)",
            pattern.label(),
            "trie-build-cold",
            cold_median,
            cold_hits
        );
        measurements.push(Measurement {
            engine: "trie-build-cold",
            query: pattern.label(),
            median_ns: cold_median,
            min_ns: cold_min,
            max_ns: cold_max,
            results: cold_hits,
        });
        if let Some(cache) = &trie_cache {
            build_phase_samples(1, &plan, &catalog, || {
                pool.map_or_else(ParLftj::new, ParLftj::with_pool)
                    .with_trie_cache(cache.clone())
            });
            let (median_ns, min_ns, max_ns, hits) =
                build_phase_samples(runs, &plan, &catalog, || {
                    pool.map_or_else(ParLftj::new, ParLftj::with_pool)
                        .with_trie_cache(cache.clone())
                });
            assert!(hits > 0, "a primed cache must serve the warm build row");
            println!(
                "{:>8} {:<18} median {:>12} ns  ({} hits, {:.1}x cheaper than cold)",
                pattern.label(),
                "trie-build-warm",
                median_ns,
                hits,
                cold_median as f64 / median_ns.max(1) as f64
            );
            measurements.push(Measurement {
                engine: "trie-build-warm",
                query: pattern.label(),
                median_ns,
                min_ns,
                max_ns,
                results: hits,
            });
        }
        if let Some(path) = &store_path {
            let (median_ns, min_ns, max_ns, hits) =
                store_open_samples(runs, path, &plan, &catalog, pool);
            println!(
                "{:>8} {:<18} median {:>12} ns  ({} hits)",
                pattern.label(),
                "store-open-cold",
                median_ns,
                hits
            );
            measurements.push(Measurement {
                engine: "store-open-cold",
                query: pattern.label(),
                median_ns,
                min_ns,
                max_ns,
                results: hits,
            });
        }
        if let Some(n) = mutate_batch {
            for (engine, median_ns, min_ns, max_ns, results) in
                mutation_samples(runs, &plan, &catalog, n, pool)
            {
                println!(
                    "{:>8} {:<18} median {:>12} ns  ({} results)",
                    pattern.label(),
                    engine,
                    median_ns,
                    results
                );
                measurements.push(Measurement {
                    engine,
                    query: pattern.label(),
                    median_ns,
                    min_ns,
                    max_ns,
                    results,
                });
            }
        }
    }

    // Regression gate: compare medians against the previous artifact —
    // but only when it was produced by the same configuration, otherwise
    // every delta is an artifact of the config change, not a regression.
    let previous_text = std::fs::read_to_string(&out_path).unwrap_or_default();
    let current_sig = ConfigSig {
        dataset: Some(dataset.label().to_string()),
        scale: Some(scale.label().to_string()),
        runs: Some(runs as u128),
        pool: pool.map(|n| n as u128),
        cache_cap: cache_cap.map(|n| n as u128),
        // Signature-relevant only when the cache is actually on: `0`
        // measures the same thing as an absent flag.
        trie_cache_mb: trie_cache.as_ref().and(trie_cache_mb).map(u128::from),
        cache_adapt,
        row_limit: row_limit.map(u128::from),
        deadline_ms: deadline_ms.map(u128::from),
        store: store_path.is_some(),
        mutate_batch: mutate_batch.map(|n| n as u128),
    };
    let previous = if previous_text.is_empty() {
        Vec::new()
    } else if config_signature(&previous_text) != current_sig {
        println!(
            "previous {out_path} used a different dataset/scale/runs/pool/cache-cap/\
             budget configuration: skipping the regression gate"
        );
        Vec::new()
    } else {
        parse_previous(&previous_text)
    };
    let mut regressions: Vec<String> = Vec::new();
    let mut compared = 0usize;
    if previous.is_empty() {
        if previous_text.is_empty() {
            println!("no previous {out_path}: skipping the regression gate");
        }
    } else {
        println!("median deltas vs previous {out_path}:");
        for m in &measurements {
            let Some((_, _, old_median, old_min)) = previous
                .iter()
                .find(|(q, e, _, _)| q == m.query && e == m.engine)
            else {
                println!("  {:>8} {:<18} (new row)", m.query, m.engine);
                continue;
            };
            compared += 1;
            let delta = (m.median_ns as f64 - *old_median as f64) / *old_median as f64 * 100.0;
            let min_delta = (m.min_ns as f64 - *old_min as f64) / *old_min as f64 * 100.0;
            println!(
                "  {:>8} {:<18} {:>+8.1}%  ({} -> {} ns)",
                m.query, m.engine, delta, old_median, m.median_ns
            );
            // A real regression slows the best case down too; requiring
            // both deltas keeps scheduler noise (which inflates medians
            // far more than minima, especially on loaded single-core
            // machines) from flapping the gate.
            if delta > GATE_THRESHOLD_PCT && min_delta > GATE_THRESHOLD_PCT {
                regressions.push(format!(
                    "{} {}: median {:+.1}%, min {:+.1}% (both > {GATE_THRESHOLD_PCT}%)",
                    m.query, m.engine, delta, min_delta
                ));
            }
        }
        // Reverse pass: a row that exists in the baseline but not in this
        // run means perf coverage silently shrank — say so.
        for (q, e, _, _) in &previous {
            if !measurements.iter().any(|m| m.query == *q && m.engine == *e) {
                println!("  {q:>8} {e:<18} (row disappeared from this run)");
            }
        }
    }
    // Every compared row regressing in lockstep is a machine-speed shift
    // (throttling, co-tenant load), not a code regression — a code change
    // slows specific engines, not all sixteen rows uniformly. Report it
    // and rebase instead of failing. The sample-size floor keeps a small
    // row overlap (e.g. after an engine rename) from auto-rebasing on
    // what may be real regressions. (A genuinely global slowdown across
    // a full row set still slips through — the printed deltas are there
    // for a human to read.)
    const LOCKSTEP_MIN_ROWS: usize = 8;
    if compared >= LOCKSTEP_MIN_ROWS && regressions.len() == compared {
        println!(
            "all {compared} compared rows regressed together: treating as a \
             machine-speed shift, gate skipped and baseline rebased"
        );
        regressions.clear();
    }
    if gate && !regressions.is_empty() {
        eprintln!("performance regressions detected; baseline left untouched:");
        for r in &regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }

    // Hand-rolled JSON (no serde in the offline environment).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"dataset\": \"{}\",\n", dataset.label()));
    json.push_str(&format!("  \"scale\": \"{}\",\n", scale.label()));
    json.push_str(&format!("  \"runs\": {runs},\n"));
    match pool {
        Some(n) => json.push_str(&format!("  \"pool\": {n},\n")),
        None => json.push_str("  \"pool\": null,\n"),
    }
    // Written only when set so artifacts from before the knob existed
    // (no "cache_cap" field) still signature-match uncapped runs.
    if let Some(n) = cache_cap {
        json.push_str(&format!("  \"cache_cap\": {n},\n"));
    }
    // Written only for cache-enabled runs, so cacheless artifacts from
    // before the knob existed still signature-match cacheless runs.
    if trie_cache.is_some() {
        if let Some(mb) = trie_cache_mb {
            json.push_str(&format!("  \"trie_cache_mb\": {mb},\n"));
        }
    }
    // Written only when the adaptive cache policy is on, so pre-knob
    // artifacts still signature-match default runs.
    if cache_adapt {
        json.push_str("  \"cache_adapt\": true,\n");
    }
    // Budget knobs are also written only when set: a governed run times
    // something different (cancellation latency), so it must never
    // signature-match — and silently gate against — ungoverned baselines.
    if let Some(n) = row_limit {
        json.push_str(&format!("  \"row_limit\": {n},\n"));
    }
    if let Some(n) = deadline_ms {
        json.push_str(&format!("  \"deadline_ms\": {n},\n"));
    }
    // Written only for store-backed runs, so pre-knob artifacts still
    // signature-match storeless runs (absent means `false`).
    if store_path.is_some() {
        json.push_str("  \"store\": true,\n");
    }
    // Written only for mutating runs: the mutation rows measure different
    // work per batch size, so artifacts only gate against the same `N` —
    // and pre-knob artifacts still match non-mutating runs.
    if let Some(n) = mutate_batch {
        json.push_str(&format!("  \"mutate_batch\": {n},\n"));
    }
    json.push_str("  \"measurements\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"query\": \"{}\", \"engine\": \"{}\", \"median_ns\": {}, \
             \"min_ns\": {}, \"max_ns\": {}, \"results\": {}}}{}\n",
            m.query,
            m.engine,
            m.median_ns,
            m.min_ns,
            m.max_ns,
            m.results,
            if i + 1 == measurements.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write BENCH_joins.json");
    println!("wrote {out_path}");
}
