use std::num::NonZeroUsize;
use std::time::Duration;

use triejax_exec::{Budget, BudgetHandle, CancelToken, NoBudget, RunBudget};
use triejax_query::CompiledQuery;
use triejax_relation::{Counting, Tally};

use triejax_exec::WorkerPool;

use crate::engine::head_slots;
use crate::lftj::Driver;
use crate::shard::{compose_budget, execute_sharded, make_pool, plan_shards};
use crate::viewset::{plan_touches_delta, CursorSet, MergeSet};
use crate::{
    Catalog, DeltaMap, EngineStats, JoinEngine, JoinError, ResultSink, TrieCache, TrieSet,
};

/// Parallel LeapFrog TrieJoin: root-partitioned LFTJ on the shared
/// [`triejax_exec::WorkerPool`] runtime.
///
/// TrieJax gets its throughput from many concurrent join-processing units
/// walking one shared trie, dynamically picking up work instead of being
/// statically partitioned (paper §3.4). The software construction: shard
/// the first join variable's value domain into many more contiguous
/// *root ranges* than there are workers, queue them on a work-stealing
/// pool (`triejax-exec`), and run an independent sequential driver per
/// shard. Skewed root domains rebalance by stealing; a heavy range is one
/// unit of work among many, not a thread's whole static share.
///
/// Shards emit through [`crate::ShardSink`]s into an order-preserving
/// [`triejax_exec::OrderedMerge`]: batches stream to the caller's sink while later
/// shards are still running, so no shard materializes its full result.
/// Because LFTJ emits root values in ascending order and the shards cover
/// contiguous ascending ranges, the merged stream is **tuple-for-tuple
/// identical** to sequential [`crate::Lftj`] — same tuples, same order.
/// Access *counts* differ slightly (each shard opens the root level
/// clamped to its range), so use [`crate::Lftj`] when reproducing the
/// paper's exact access totals and `ParLftj` when you want wall-clock
/// speed. [`EngineStats::shards`] and [`EngineStats::steals`] report how
/// the run was scheduled.
///
/// # Example
///
/// ```
/// use triejax_join::{Catalog, CollectSink, JoinEngine, Lftj, ParLftj};
/// use triejax_query::{patterns, CompiledQuery};
/// use triejax_relation::Relation;
///
/// let mut catalog = Catalog::new();
/// catalog.insert("G", Relation::from_pairs(vec![(0, 1), (1, 2), (2, 0), (1, 0)]));
/// let plan = CompiledQuery::compile(&patterns::cycle3())?;
///
/// let mut seq = CollectSink::new();
/// Lftj::new().execute(&plan, &catalog, &mut seq)?;
/// let mut par = CollectSink::new();
/// ParLftj::with_pool(2).execute(&plan, &catalog, &mut par)?;
/// assert_eq!(seq.tuples(), par.tuples()); // identical, order included
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParLftj {
    /// Explicit worker count; `None` = `TRIEJAX_POOL` or one per core.
    workers: Option<NonZeroUsize>,
    /// Explicit shard count; `None` = seeded from the plan's root-domain
    /// estimate (see `CompiledQuery::shard_granularity`).
    granularity: Option<NonZeroUsize>,
    /// Explicit wall-clock deadline; `None` = `TRIEJAX_DEADLINE_MS` or none.
    deadline: Option<Duration>,
    /// Explicit result-row cap; `None` = `TRIEJAX_ROW_LIMIT` or none.
    row_limit: Option<u64>,
    /// Cap on charged intermediate tuples; builder-only (no env default).
    intermediate_limit: Option<u64>,
    /// External cancellation token the caller can fire from another thread.
    cancel: Option<CancelToken>,
    /// Cross-query trie cache choice: `None` = the `TRIEJAX_TRIE_CACHE_MB`
    /// process default, `Some(None)` = explicitly disabled, `Some(Some(c))`
    /// = an explicit cache instance.
    trie_cache: Option<Option<std::sync::Arc<TrieCache>>>,
}

impl ParLftj {
    /// Engine with the default pool size (the `TRIEJAX_POOL` environment
    /// variable, else one worker per core) and plan-seeded shard
    /// granularity; identical to `Default::default()`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine with an explicit pool (worker) count; shard granularity is
    /// still seeded from the plan.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_pool(workers: usize) -> Self {
        ParLftj {
            workers: Some(NonZeroUsize::new(workers).expect("workers must be positive")),
            ..Self::default()
        }
    }

    /// Engine with an explicit shard count, one worker per shard — the
    /// pre-pool behaviour, kept for callers that want deterministic
    /// scheduling in experiments.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_shards(shards: usize) -> Self {
        let n = NonZeroUsize::new(shards).expect("shards must be positive");
        ParLftj {
            workers: Some(n),
            granularity: Some(n),
            ..Self::default()
        }
    }

    /// The configured worker count, or `None` for automatic.
    pub fn workers(&self) -> Option<usize> {
        self.workers.map(NonZeroUsize::get)
    }

    /// Sets an explicit shard count, keeping the pool size (otherwise the
    /// count is seeded from the plan).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_granularity(mut self, shards: usize) -> Self {
        self.granularity = Some(NonZeroUsize::new(shards).expect("shards must be positive"));
        self
    }

    /// The configured shard count, or `None` for plan-seeded.
    pub fn granularity(&self) -> Option<usize> {
        self.granularity.map(NonZeroUsize::get)
    }

    /// Caps the run's wall-clock time, overriding the `TRIEJAX_DEADLINE_MS`
    /// environment default. A run that outlives the deadline is cancelled
    /// cooperatively: workers stop at their next poll point, the rows
    /// already streamed to the sink stay an exact prefix of the full
    /// result, and the engine returns [`JoinError::Cancelled`] carrying
    /// the partial [`EngineStats`].
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps delivered result rows at `limit`, overriding the
    /// `TRIEJAX_ROW_LIMIT` environment default. The sink receives exactly
    /// the first `min(total, limit)` rows of the sequential result stream
    /// and the engine returns [`JoinError::Cancelled`] with
    /// [`triejax_exec::CancelReason::RowLimit`] when the cap actually
    /// truncated the run.
    pub fn with_row_limit(mut self, limit: u64) -> Self {
        self.row_limit = Some(limit);
        self
    }

    /// Caps charged intermediate tuples (materialized candidate sets;
    /// cache entry rows in [`crate::ParCtj`]) at `limit`.
    pub fn with_intermediate_limit(mut self, limit: u64) -> Self {
        self.intermediate_limit = Some(limit);
        self
    }

    /// Ties every run of this engine to `token`: firing it from any
    /// thread cancels the run cooperatively (see
    /// [`with_deadline`](Self::with_deadline) for the delivery contract).
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Consults (and fills) `cache` before building tries, overriding the
    /// `TRIEJAX_TRIE_CACHE_MB` process default. Share one cache across
    /// engines to amortize trie construction over a query stream; see
    /// [`TrieCache`].
    pub fn with_trie_cache(mut self, cache: std::sync::Arc<TrieCache>) -> Self {
        self.trie_cache = Some(Some(cache));
        self
    }

    /// Disables trie caching for this engine even when
    /// `TRIEJAX_TRIE_CACHE_MB` configures a process-wide cache.
    pub fn without_trie_cache(mut self) -> Self {
        self.trie_cache = Some(None);
        self
    }

    /// The trie cache the next run will consult: the explicit choice if
    /// one was made, otherwise the process-wide [`TrieCache::global`]
    /// (`None` disables caching).
    pub fn effective_trie_cache(&self) -> Option<std::sync::Arc<TrieCache>> {
        match &self.trie_cache {
            Some(choice) => choice.clone(),
            None => TrieCache::global(),
        }
    }

    /// The shared [`RunBudget`] the next run will be governed by — the
    /// explicit builder knobs with `TRIEJAX_DEADLINE_MS` /
    /// `TRIEJAX_ROW_LIMIT` as per-knob environment fallbacks — or `None`
    /// when nothing governs the run and the engine stays on its zero-cost
    /// ungoverned code paths.
    ///
    /// # Panics
    ///
    /// Panics when a consulted environment knob is set to anything but a
    /// non-negative integer.
    pub fn effective_budget(&self) -> Option<std::sync::Arc<RunBudget>> {
        compose_budget(
            self.deadline,
            self.row_limit,
            self.intermediate_limit,
            self.cancel.as_ref(),
        )
    }

    /// Runs the query with an explicit [`Tally`] choice; see
    /// [`crate::Lftj::run_tallied`] for the counting/fast trade-off. The
    /// usual pairing is `ParLftj` + [`triejax_relation::NoTally`] for pure
    /// throughput.
    ///
    /// # Errors
    ///
    /// Returns a [`JoinError`] when the catalog is missing a relation, a
    /// relation's arity mismatches its atom, or the plan projects
    /// variables away from the head.
    pub fn run_tallied<T: Tally>(
        &mut self,
        plan: &CompiledQuery,
        catalog: &Catalog,
        sink: &mut dyn ResultSink,
    ) -> Result<EngineStats<T>, JoinError> {
        self.run_tallied_opt(plan, catalog, None, sink)
    }

    /// Runs the query over `catalog` with the pending mutations in
    /// `deltas` folded in: every atom over a mutated relation walks a
    /// [`triejax_relation::MergeCursor`] presenting
    /// `base ∪ inserts − tombstones`, without rebuilding the base trie.
    /// When no atom of the plan touches a non-empty delta, this is
    /// exactly [`run_tallied`](Self::run_tallied) — the frozen fast path,
    /// monomorphized to plain trie cursors.
    ///
    /// # Errors
    ///
    /// As [`run_tallied`](Self::run_tallied), plus an arity mismatch
    /// between a delta and its atom.
    pub fn run_tallied_with<T: Tally>(
        &mut self,
        plan: &CompiledQuery,
        catalog: &Catalog,
        deltas: &DeltaMap,
        sink: &mut dyn ResultSink,
    ) -> Result<EngineStats<T>, JoinError> {
        self.run_tallied_opt(plan, catalog, Some(deltas), sink)
    }

    /// Shared budget dispatch of [`run_tallied`](Self::run_tallied) and
    /// [`run_tallied_with`](Self::run_tallied_with).
    fn run_tallied_opt<T: Tally>(
        &mut self,
        plan: &CompiledQuery,
        catalog: &Catalog,
        deltas: Option<&DeltaMap>,
        sink: &mut dyn ResultSink,
    ) -> Result<EngineStats<T>, JoinError> {
        match self.effective_budget() {
            // Ungoverned: monomorphize with NoBudget — byte-identical to
            // the pre-governance engine.
            None => self
                .run_budgeted::<T, NoBudget>(plan, catalog, deltas, sink, NoBudget, NoBudget, None),
            Some(shared) => {
                let stats = self.run_budgeted::<T, BudgetHandle>(
                    plan,
                    catalog,
                    deltas,
                    sink,
                    BudgetHandle::driving(shared.clone()),
                    BudgetHandle::worker(shared.clone()),
                    Some(&shared),
                )?;
                match shared.cancelled() {
                    Some(reason) => Err(JoinError::Cancelled {
                        reason,
                        partial: Box::new(stats.to_counting()),
                    }),
                    None => Ok(stats),
                }
            }
        }
    }

    /// Cursor-set dispatch: frozen plans build a [`TrieSet`] (plain trie
    /// cursors, the pre-delta code paths), delta-touching plans a
    /// [`MergeSet`]; either way the body is
    /// [`run_set_budgeted`](Self::run_set_budgeted).
    #[allow(clippy::too_many_arguments)]
    fn run_budgeted<T: Tally, B: Budget + Clone + Send + Sync>(
        &self,
        plan: &CompiledQuery,
        catalog: &Catalog,
        deltas: Option<&DeltaMap>,
        sink: &mut dyn ResultSink,
        driving: B,
        worker: B,
        budget: Option<&RunBudget>,
    ) -> Result<EngineStats<T>, JoinError> {
        // The pool exists before the tries so construction itself runs on
        // it (partitioned builds, or one task per cold trie).
        let pool = make_pool(self.workers);
        let cache = self.effective_trie_cache();
        // build_on times only actual cold-build work internally, so a
        // query fully served from the cache (or a preloaded store) reports
        // trie_build_ns == 0 exactly.
        match deltas.filter(|d| plan_touches_delta(plan, d)) {
            None => {
                let (tries, hits, ns) = TrieSet::build_on(plan, catalog, &pool, cache.as_deref())?;
                self.run_set_budgeted(
                    plan, catalog, &tries, &pool, hits, ns, sink, driving, worker, budget,
                )
            }
            Some(d) => {
                let (set, hits, ns) =
                    MergeSet::build_on(plan, catalog, d, &pool, cache.as_deref())?;
                self.run_set_budgeted(
                    plan, catalog, &set, &pool, hits, ns, sink, driving, worker, budget,
                )
            }
        }
    }

    /// The engine body, generic over the run's [`Budget`] and the
    /// [`CursorSet`] its shard drivers walk: `driving` is the handle for
    /// the sequential fast path (it charges the row quota at emit time),
    /// `worker` is cloned into every shard driver (flag polling only —
    /// the ordered drain owns the quota in a parallel run), and `budget`
    /// is what the drain and the task wrappers poll.
    #[allow(clippy::too_many_arguments)]
    fn run_set_budgeted<'s, T: Tally, B: Budget + Clone + Send + Sync, S: CursorSet<'s>>(
        &self,
        plan: &'s CompiledQuery,
        catalog: &Catalog,
        set: &'s S,
        pool: &WorkerPool,
        trie_cache_hits: u64,
        trie_build_ns: u64,
        sink: &mut dyn ResultSink,
        driving: B,
        worker: B,
        budget: Option<&RunBudget>,
    ) -> Result<EngineStats<T>, JoinError> {
        let ranges = plan_shards(
            plan,
            catalog,
            set,
            pool.workers(),
            self.granularity.map(NonZeroUsize::get),
        );

        // A lone range runs sequentially on the calling thread.
        if ranges.len() <= 1 {
            let mut driver = Driver::<T, B, S::Cur>::budgeted(plan, set, 0, None, driving)?;
            driver.run(sink);
            let mut stats = driver.stats;
            stats.shards = 1;
            stats.trie_build_ns = trie_build_ns;
            stats.trie_cache_hits = trie_cache_hits;
            return Ok(stats);
        }

        // Validate the emission plan up front so shard workers cannot fail.
        head_slots(plan)?;
        let (shard_stats, pool_stats) = execute_sharded(
            pool,
            &ranges,
            plan.arity(),
            sink,
            budget,
            |_ctx, _lane, min, sup, shard_sink| {
                let mut driver =
                    Driver::<T, B, S::Cur>::budgeted(plan, set, min, sup, worker.clone())
                        .expect("emission plan validated before the parallel phase");
                driver.emit_passthrough(); // the ShardSink already batches
                driver.run(shard_sink);
                driver.stats
            },
        );

        let mut stats = EngineStats::<T>::default();
        for shard in &shard_stats {
            stats.merge(shard);
        }
        stats.shards = pool_stats.tasks as u64;
        stats.steals = pool_stats.steals;
        stats.trie_build_ns = trie_build_ns;
        stats.trie_cache_hits = trie_cache_hits;
        Ok(stats)
    }
}

impl JoinEngine for ParLftj {
    fn name(&self) -> &'static str {
        "par-lftj"
    }

    fn execute(
        &mut self,
        plan: &CompiledQuery,
        catalog: &Catalog,
        sink: &mut dyn ResultSink,
    ) -> Result<EngineStats, JoinError> {
        self.run_tallied::<Counting>(plan, catalog, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectSink, CountSink, Lftj};
    use triejax_query::patterns::{self, Pattern};
    use triejax_relation::{NoTally, Relation};

    fn catalog(edges: &[(u32, u32)]) -> Catalog {
        let mut c = Catalog::new();
        c.insert("G", Relation::from_pairs(edges.to_vec()));
        c
    }

    fn test_edges() -> Vec<(u32, u32)> {
        let mut edges = vec![
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 1),
            (0, 2),
            (3, 0),
            (1, 3),
            (4, 1),
            (2, 4),
            (4, 0),
        ];
        // A larger fringe so the root level has enough values to shard.
        for i in 5..40u32 {
            edges.push((i, (i + 1) % 40));
            edges.push((i, (i * 7 + 3) % 40));
        }
        edges
    }

    #[test]
    fn agrees_with_lftj_in_order_for_every_pool_size() {
        let c = catalog(&test_edges());
        for p in Pattern::ALL {
            let plan = CompiledQuery::compile(&p.query()).unwrap();
            let mut reference = CollectSink::new();
            Lftj::new().execute(&plan, &c, &mut reference).unwrap();
            for workers in [1, 2, 3, 7, 64] {
                let mut sink = CollectSink::new();
                let stats = ParLftj::with_pool(workers)
                    .execute(&plan, &c, &mut sink)
                    .unwrap();
                assert_eq!(
                    sink.tuples(),
                    reference.tuples(),
                    "{p} with {workers} workers"
                );
                assert_eq!(stats.results as usize, reference.tuples().len());
                assert!(stats.shards >= 1);
            }
        }
    }

    #[test]
    fn explicit_shard_counts_agree_too() {
        let c = catalog(&test_edges());
        for p in [Pattern::Cycle3, Pattern::Path4] {
            let plan = CompiledQuery::compile(&p.query()).unwrap();
            let mut reference = CollectSink::new();
            Lftj::new().execute(&plan, &c, &mut reference).unwrap();
            for shards in [1, 2, 3, 7, 64] {
                let mut sink = CollectSink::new();
                let stats = ParLftj::with_shards(shards)
                    .execute(&plan, &c, &mut sink)
                    .unwrap();
                assert_eq!(sink.tuples(), reference.tuples(), "{p} x{shards}");
                assert!(
                    stats.shards >= 1 && stats.shards <= shards as u64,
                    "{p} x{shards}: reported {} shards",
                    stats.shards
                );
            }
        }
    }

    #[test]
    fn auto_pool_size_agrees_too() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut reference = CollectSink::new();
        Lftj::new().execute(&plan, &c, &mut reference).unwrap();
        let mut sink = CollectSink::new();
        ParLftj::new().execute(&plan, &c, &mut sink).unwrap();
        assert_eq!(sink.tuples(), reference.tuples());
    }

    #[test]
    fn untallied_parallel_run_matches() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::cycle4()).unwrap();
        let mut reference = CollectSink::new();
        Lftj::new().execute(&plan, &c, &mut reference).unwrap();
        let mut sink = CollectSink::new();
        let stats = ParLftj::with_pool(4)
            .run_tallied::<NoTally>(&plan, &c, &mut sink)
            .unwrap();
        assert_eq!(sink.tuples(), reference.tuples());
        assert_eq!(stats.memory_accesses(), 0);
        assert_eq!(stats.results as usize, reference.tuples().len());
    }

    #[test]
    fn multi_worker_runs_overshard_for_stealing() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut sink = CountSink::default();
        let stats = ParLftj::with_pool(4).execute(&plan, &c, &mut sink).unwrap();
        assert!(
            stats.shards > 4,
            "4 workers over a 40-value domain should overshard, got {}",
            stats.shards
        );
    }

    #[test]
    fn empty_graph_yields_nothing() {
        let c = catalog(&[]);
        let plan = CompiledQuery::compile(&patterns::cycle4()).unwrap();
        let mut sink = CountSink::default();
        let stats = ParLftj::with_pool(4).execute(&plan, &c, &mut sink).unwrap();
        assert_eq!(sink.count(), 0);
        assert_eq!(stats.results, 0);
    }

    #[test]
    fn more_shards_than_root_values_is_fine() {
        let c = catalog(&[(0, 1), (1, 0)]);
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut reference = CollectSink::new();
        Lftj::new().execute(&plan, &c, &mut reference).unwrap();
        let mut sink = CollectSink::new();
        ParLftj::with_shards(16)
            .execute(&plan, &c, &mut sink)
            .unwrap();
        assert_eq!(sink.tuples(), reference.tuples());
    }

    #[test]
    fn missing_relation_is_an_error() {
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let mut sink = CountSink::default();
        assert!(ParLftj::new()
            .execute(&plan, &Catalog::new(), &mut sink)
            .is_err());
    }

    #[test]
    fn row_limit_returns_cancelled_with_an_exact_prefix() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut reference = CollectSink::new();
        Lftj::new().execute(&plan, &c, &mut reference).unwrap();
        assert!(reference.tuples().len() > 3);
        for workers in [1, 2, 7] {
            let mut sink = CollectSink::new();
            let err = ParLftj::with_pool(workers)
                .with_row_limit(3)
                .execute(&plan, &c, &mut sink)
                .unwrap_err();
            match err {
                JoinError::Cancelled { reason, partial } => {
                    assert_eq!(reason, triejax_exec::CancelReason::RowLimit);
                    assert!(
                        partial.results >= 3,
                        "workers emitted at least the delivered rows"
                    );
                }
                other => panic!("expected Cancelled, got {other:?}"),
            }
            assert_eq!(
                sink.tuples(),
                &reference.tuples()[..3],
                "{workers} workers: the delivered rows must be the exact ordered prefix"
            );
        }
    }

    #[test]
    fn generous_row_limit_never_cancels() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut reference = CollectSink::new();
        Lftj::new().execute(&plan, &c, &mut reference).unwrap();
        let mut sink = CollectSink::new();
        let stats = ParLftj::with_pool(4)
            .with_row_limit(u64::MAX)
            .execute(&plan, &c, &mut sink)
            .unwrap();
        assert_eq!(sink.tuples(), reference.tuples());
        assert_eq!(stats.results as usize, reference.tuples().len());
    }

    #[test]
    fn pre_fired_token_cancels_before_any_row() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let token = triejax_exec::CancelToken::new();
        token.cancel();
        let mut sink = CollectSink::new();
        let err = ParLftj::with_pool(2)
            .with_cancel_token(token)
            .execute(&plan, &c, &mut sink)
            .unwrap_err();
        assert!(matches!(
            err,
            JoinError::Cancelled {
                reason: triejax_exec::CancelReason::External,
                ..
            }
        ));
        assert!(sink.tuples().is_empty(), "no rows after a pre-fired token");
    }

    #[test]
    fn elapsed_deadline_cancels_and_keeps_the_prefix_exact() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut reference = CollectSink::new();
        Lftj::new().execute(&plan, &c, &mut reference).unwrap();
        let mut sink = CollectSink::new();
        let err = ParLftj::with_pool(2)
            .with_deadline(Duration::ZERO)
            .execute(&plan, &c, &mut sink)
            .unwrap_err();
        assert!(matches!(
            err,
            JoinError::Cancelled {
                reason: triejax_exec::CancelReason::Deadline,
                ..
            }
        ));
        let delivered = sink.tuples();
        assert!(
            reference.tuples().starts_with(delivered),
            "whatever was delivered before the deadline is a prefix"
        );
    }

    #[test]
    fn effective_budget_is_none_without_knobs() {
        assert!(ParLftj::with_pool(4).effective_budget().is_none());
        let governed = ParLftj::new().with_row_limit(10).effective_budget();
        assert_eq!(governed.unwrap().row_limit(), Some(10));
    }

    #[test]
    fn projected_plans_error_gracefully() {
        let q = triejax_query::Query::builder("pairs")
            .head(["x", "z"])
            .atom("G", ["x", "y"])
            .atom("G", ["y", "z"])
            .build_projected()
            .unwrap();
        let plan = CompiledQuery::compile(&q).unwrap();
        let c = catalog(&test_edges());
        let mut sink = CountSink::default();
        let err = ParLftj::with_pool(2).execute(&plan, &c, &mut sink);
        assert!(matches!(err, Err(JoinError::Plan { .. })));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_shards_panics() {
        let _ = ParLftj::with_shards(0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_workers_panics() {
        let _ = ParLftj::with_pool(0);
    }
}
