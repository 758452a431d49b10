//! The pool-based parallel engines must be **tuple-for-tuple identical**
//! (same tuples, same order) to their sequential counterparts — on uniform
//! random graphs, on power-law-skewed ones where a few hub roots carry
//! most of the work and the pool's work stealing actually rebalances, and
//! on hub-shaped inputs whose root domain is one or two values wide — at
//! pool sizes 1, 2, 4 and 7, in both `Counting` and `NoTally` modes.

use proptest::prelude::*;
use triejax_join::{
    Catalog, CollectSink, Counting, Ctj, JoinEngine, Lftj, NoTally, ParCtj, ParLftj,
};
use triejax_query::{patterns::Pattern, CompiledQuery, Query};
use triejax_relation::Relation;

const POOL_SIZES: [usize; 4] = [1, 2, 4, 7];

fn catalog_from(edges: Vec<(u32, u32)>) -> Catalog {
    let mut c = Catalog::new();
    c.insert("G", Relation::from_pairs(edges));
    c
}

/// Cubing a uniform sample in [0, 1) concentrates mass near zero: low
/// vertex ids become heavy hubs, giving the skewed (power-law-ish) root
/// domains the work-stealing pool exists for.
fn power_law(raw: u64, n: u32) -> u32 {
    let u = (raw % 1_000_000) as f64 / 1_000_000.0;
    ((u * u * u) * f64::from(n)) as u32
}

/// Runs one engine body and returns its ordered tuple stream plus the
/// result count it reported in its stats.
fn run_collect(
    engine: &mut dyn FnMut(&CompiledQuery, &Catalog, &mut CollectSink) -> u64,
    plan: &CompiledQuery,
    catalog: &Catalog,
) -> (Vec<Vec<u32>>, u64) {
    let mut sink = CollectSink::new();
    let results = engine(plan, catalog, &mut sink);
    (sink.tuples().to_vec(), results)
}

fn check_all_parallel_engines(catalog: &Catalog, pattern: Pattern) {
    let plan = CompiledQuery::compile(&pattern.query()).expect("compiles");
    check_plan(catalog, &plan, &pattern.to_string());
}

fn check_plan(catalog: &Catalog, plan: &CompiledQuery, label: &str) {
    let mut lftj_sink = CollectSink::new();
    Lftj::new()
        .execute(plan, catalog, &mut lftj_sink)
        .expect("runs");
    let reference = lftj_sink.tuples();

    // CTJ's emission order equals LFTJ's (cache replay preserves the
    // recorded ascending order), which is what lane-ordered merging of
    // the parallel engines relies on; assert it as part of the property.
    let mut ctj_sink = CollectSink::new();
    Ctj::new()
        .execute(plan, catalog, &mut ctj_sink)
        .expect("runs");
    assert_eq!(ctj_sink.tuples(), reference, "{label}: ctj order");

    for pool in POOL_SIZES {
        for counting in [true, false] {
            let (par_lftj, n1) = run_collect(
                &mut |p, c, s| {
                    let mut e = ParLftj::with_pool(pool);
                    if counting {
                        e.run_tallied::<Counting>(p, c, s).expect("runs").results
                    } else {
                        e.run_tallied::<NoTally>(p, c, s).expect("runs").results
                    }
                },
                plan,
                catalog,
            );
            assert_eq!(
                par_lftj, reference,
                "{label}: parlftj pool={pool} counting={counting}"
            );
            assert_eq!(n1 as usize, reference.len());

            let (par_ctj, n2) = run_collect(
                &mut |p, c, s| {
                    let mut e = ParCtj::with_pool(pool);
                    if counting {
                        e.run_tallied::<Counting>(p, c, s).expect("runs").results
                    } else {
                        e.run_tallied::<NoTally>(p, c, s).expect("runs").results
                    }
                },
                plan,
                catalog,
            );
            assert_eq!(
                par_ctj, reference,
                "{label}: parctj pool={pool} counting={counting}"
            );
            assert_eq!(n2 as usize, reference.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Uniform random graphs: every pool size and tally mode agrees with
    /// the sequential engines, in emission order.
    #[test]
    fn parallel_engines_agree_on_random_graphs(
        edges in prop::collection::btree_set((0u32..24, 0u32..24), 1..140),
        pattern_idx in 0usize..Pattern::PAPER.len(),
    ) {
        let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(a, b)| a != b).collect();
        prop_assume!(!edges.is_empty());
        let catalog = catalog_from(edges);
        check_all_parallel_engines(&catalog, Pattern::PAPER[pattern_idx]);
    }

    /// Power-law root domains: most edges hang off a few hub vertices, so
    /// shard work is heavily skewed and stolen shards must still merge in
    /// exact sequential order.
    #[test]
    fn parallel_engines_agree_on_skewed_graphs(
        raw in prop::collection::vec((0u64..1_000_000, 0u64..1_000_000), 20..160),
        pattern_idx in 0usize..Pattern::PAPER.len(),
    ) {
        let edges: Vec<(u32, u32)> = raw
            .into_iter()
            .map(|(a, b)| (power_law(a, 32), (power_law(b, 32) + 1) % 33))
            .filter(|(a, b)| a != b)
            .collect();
        prop_assume!(!edges.is_empty());
        let catalog = catalog_from(edges);
        check_all_parallel_engines(&catalog, Pattern::PAPER[pattern_idx]);
    }
}

/// `ans(x, y, z) :- R(x, y), S(y, z)` — `x` is the root variable and `R`
/// its only depth-0 participant, so `R`'s root values alone fix how many
/// shards the static schedule can cut.
fn two_hop_query() -> CompiledQuery {
    let q = Query::builder("two_hop")
        .head(["x", "y", "z"])
        .atom("R", ["x", "y"])
        .atom("S", ["y", "z"])
        .build()
        .unwrap();
    CompiledQuery::compile(&q).unwrap()
}

/// `roots` root values (`x`) fanning out to `spokes` values of `y`, where
/// `y = 0` is a hub whose `z` subtree dwarfs the fringe. With one or two
/// roots the whole join lives in one or two shards, so the pool cannot
/// rebalance it and the run must still be exact.
fn narrow_root_hub(roots: u32, spokes: u32, hub_fanout: u32) -> Catalog {
    let mut c = Catalog::new();
    c.insert(
        "R",
        Relation::from_pairs(
            (0..roots)
                .flat_map(|x| (0..spokes).map(move |y| (x, y)))
                .collect::<Vec<_>>(),
        ),
    );
    let mut s = Vec::new();
    for z in 0..hub_fanout {
        s.push((0u32, z));
    }
    for y in 1..spokes {
        for z in 0..4u32 {
            s.push((y, y.wrapping_mul(31).wrapping_add(z) % spokes));
        }
    }
    c.insert("S", Relation::from_pairs(s));
    c
}

/// Hub-shaped inputs: a directed star (the worst root-domain skew, one
/// hub joins everything), a single-root-domain hub and a two-root hub.
/// Deterministic, so the heavy-hub paths are exercised on every run.
#[test]
fn extreme_hub_skew_is_exact_at_every_pool_size() {
    let mut edges = Vec::new();
    for i in 1..200u32 {
        edges.push((0, i));
        edges.push((i, 0));
    }
    // A sparse fringe so sharding has more than one root value.
    for i in 1..40u32 {
        edges.push((i, i + 1));
    }
    let star = catalog_from(edges);
    for pattern in [Pattern::Cycle3, Pattern::Path4] {
        check_all_parallel_engines(&star, pattern);
    }
    let plan = two_hop_query();
    for (label, catalog) in [
        ("single-root hub", narrow_root_hub(1, 60, 400)),
        ("two-root hub", narrow_root_hub(2, 60, 400)),
    ] {
        check_plan(&catalog, &plan, label);
    }
}
