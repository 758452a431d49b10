//! Cooperative cancellation conformance: budget-governed runs of the
//! parallel engines must terminate (no deadlock, no lost merge lane),
//! deliver an **exact ordered prefix** of the sequential result to the
//! sink, and report consistent partial statistics — at pool sizes 1, 2
//! and 7, for both `ParLftj` and `ParCtj`, with the cancellation point
//! varied across the whole run by a randomized row limit.

use proptest::prelude::*;
use std::time::Duration;

use triejax_join::{
    CancelReason, CancelToken, Catalog, CollectSink, JoinEngine, JoinError, Lftj, ParCtj, ParLftj,
};
use triejax_query::{patterns::Pattern, CompiledQuery};
use triejax_relation::Relation;

const POOL_SIZES: [usize; 3] = [1, 2, 7];

fn catalog_from(edges: Vec<(u32, u32)>) -> Catalog {
    let mut c = Catalog::new();
    c.insert("G", Relation::from_pairs(edges));
    c
}

/// Hub graph: many parents funnel through one hub vertex, giving the
/// pool enough root-level shards to cancel mid-run.
fn hub_edges() -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for i in 1..220u32 {
        edges.push((0, i));
        edges.push((i, 0));
    }
    edges
}

fn reference_tuples(plan: &CompiledQuery, catalog: &Catalog) -> Vec<Vec<u32>> {
    let mut sink = CollectSink::new();
    Lftj::new().execute(plan, catalog, &mut sink).expect("runs");
    sink.tuples().to_vec()
}

/// Runs one governed engine and checks the row-limit contract: when the
/// limit is at or below the total, the engine reports
/// `Cancelled(RowLimit)` and the sink holds exactly the first
/// `min(total, limit)` rows of the sequential stream; a limit above the
/// total never cancels and delivers everything.
fn check_row_limited(
    run: &mut dyn FnMut(&mut CollectSink) -> Result<u64, JoinError>,
    reference: &[Vec<u32>],
    limit: u64,
    context: &str,
) {
    let mut sink = CollectSink::new();
    let outcome = run(&mut sink);
    let total = reference.len() as u64;
    if limit <= total {
        // The charge that *reaches* the limit trips the flag, so
        // `limit == total` still reports a cancellation — with the full
        // result already delivered.
        match outcome {
            Err(JoinError::Cancelled { reason, partial }) => {
                assert_eq!(reason, CancelReason::RowLimit, "{context}");
                assert!(
                    partial.results >= limit.min(total),
                    "{context}: workers emitted at least the delivered rows"
                );
            }
            other => panic!("{context}: expected Cancelled(RowLimit), got {other:?}"),
        }
    } else {
        let results = outcome.unwrap_or_else(|e| panic!("{context}: unexpected error {e}"));
        assert_eq!(results, total, "{context}");
    }
    let expect = limit.min(total) as usize;
    assert_eq!(
        sink.tuples(),
        &reference[..expect],
        "{context}: delivered rows must be the exact ordered prefix"
    );
}

fn check_cancellation_matrix(catalog: &Catalog, pattern: Pattern, limit: u64) {
    let plan = CompiledQuery::compile(&pattern.query()).expect("compiles");
    let reference = reference_tuples(&plan, catalog);
    for pool in POOL_SIZES {
        check_row_limited(
            &mut |sink| {
                ParLftj::with_pool(pool)
                    .with_row_limit(limit)
                    .execute(&plan, catalog, sink)
                    .map(|s| s.results)
            },
            &reference,
            limit,
            &format!("{pattern} parlftj pool={pool} limit={limit}"),
        );
        check_row_limited(
            &mut |sink| {
                ParCtj::with_pool(pool)
                    .with_row_limit(limit)
                    .execute(&plan, catalog, sink)
                    .map(|s| s.results)
            },
            &reference,
            limit,
            &format!("{pattern} parctj pool={pool} limit={limit}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random graphs, random cancellation point: the row limit lands
    /// anywhere from "before the first row" to "past the end", and every
    /// pool size × engine combination must deliver the exact prefix
    /// without hanging.
    #[test]
    fn row_limited_runs_deliver_exact_prefixes(
        edges in prop::collection::btree_set((0u32..24, 0u32..24), 1..140),
        pattern_idx in 0usize..Pattern::PAPER.len(),
        limit in 0u64..40,
    ) {
        let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(a, b)| a != b).collect();
        prop_assume!(!edges.is_empty());
        let catalog = catalog_from(edges);
        check_cancellation_matrix(&catalog, Pattern::PAPER[pattern_idx], limit);
    }
}

/// Oversharded runs (8 planned shards, 4 workers) cancelled mid-run: the
/// shards claimed after the trip must still open and close their lanes —
/// the drain terminates and delivers the exact prefix — and the partial
/// stats stay consistent: every planned shard is counted as a pool task,
/// cancelled or not, and no shard was ever split.
#[test]
fn cancelled_static_run_keeps_stats_consistent() {
    let catalog = catalog_from(hub_edges());
    let plan = CompiledQuery::compile(&Pattern::Path3.query()).expect("compiles");
    let reference = reference_tuples(&plan, &catalog);
    assert!(reference.len() > 16, "fixture must have work to cancel");
    for limit in [1u64, 7, 16] {
        for engine in ["parlftj", "parctj"] {
            let mut sink = CollectSink::new();
            let result = if engine == "parlftj" {
                ParLftj::with_pool(4)
                    .with_granularity(8)
                    .with_row_limit(limit)
                    .execute(&plan, &catalog, &mut sink)
            } else {
                ParCtj::with_pool(4)
                    .with_granularity(8)
                    .with_row_limit(limit)
                    .execute(&plan, &catalog, &mut sink)
            };
            let err = result.expect_err("limit below total must cancel");
            match err {
                JoinError::Cancelled { reason, partial } => {
                    assert_eq!(reason, CancelReason::RowLimit, "{engine} limit={limit}");
                    assert_eq!(
                        partial.shards, 8,
                        "{engine} limit={limit}: every planned shard is a pool task"
                    );
                    assert_eq!(partial.splits, 0, "{engine} limit={limit}: static schedule");
                }
                other => panic!("{engine} limit={limit}: wrong error {other:?}"),
            }
            assert_eq!(
                sink.tuples(),
                &reference[..limit as usize],
                "{engine} limit={limit}"
            );
        }
    }
}

/// An external token fired from another thread mid-run: the engine either
/// finishes first (full result) or reports the external cancellation —
/// and in both cases the sink holds an exact prefix and the call returns.
#[test]
fn token_fired_from_another_thread_terminates_with_a_prefix() {
    let catalog = catalog_from(hub_edges());
    let plan = CompiledQuery::compile(&Pattern::Path3.query()).expect("compiles");
    let reference = reference_tuples(&plan, &catalog);
    for delay_us in [0u64, 50, 500] {
        let token = CancelToken::new();
        let firing = token.clone();
        let firer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_micros(delay_us));
            firing.cancel();
        });
        let mut sink = CollectSink::new();
        let outcome = ParLftj::with_pool(2)
            .with_cancel_token(token)
            .execute(&plan, &catalog, &mut sink);
        firer.join().expect("firer thread");
        match outcome {
            Ok(stats) => assert_eq!(stats.results as usize, reference.len()),
            Err(JoinError::Cancelled { reason, .. }) => {
                assert_eq!(reason, CancelReason::External, "delay={delay_us}us")
            }
            Err(other) => panic!("delay={delay_us}us: wrong error {other}"),
        }
        assert!(
            reference.starts_with(sink.tuples()),
            "delay={delay_us}us: delivered rows must be a prefix"
        );
    }
}

/// A zero deadline cancels before (or just after) the first poll; the
/// engines must report `Deadline` and still deliver only prefix rows.
#[test]
fn zero_deadline_cancels_both_engines() {
    let catalog = catalog_from(hub_edges());
    let plan = CompiledQuery::compile(&Pattern::Path3.query()).expect("compiles");
    let reference = reference_tuples(&plan, &catalog);
    for engine in ["parlftj", "parctj"] {
        let mut sink = CollectSink::new();
        let result = if engine == "parlftj" {
            ParLftj::with_pool(2)
                .with_deadline(Duration::ZERO)
                .execute(&plan, &catalog, &mut sink)
        } else {
            ParCtj::with_pool(2)
                .with_deadline(Duration::ZERO)
                .execute(&plan, &catalog, &mut sink)
        };
        let err = result.expect_err("a zero deadline must cancel");
        assert!(
            matches!(
                err,
                JoinError::Cancelled {
                    reason: CancelReason::Deadline,
                    ..
                }
            ),
            "{engine}: {err:?}"
        );
        assert!(reference.starts_with(sink.tuples()), "{engine}");
    }
}
