//! Single-root-domain battery: a workload whose **root domain is one
//! value**, so the static schedule (root-range oversharding plus work
//! stealing) can cut exactly one shard no matter how many workers the
//! pool has or how fine the requested granularity. Nothing below the root
//! is ever carved up, so every run must be that one shard, report zero
//! splits, and stay tuple-for-tuple identical to the sequential engines
//! across pool sizes and tally modes.

use triejax_join::{
    Catalog, CollectSink, Counting, Ctj, JoinEngine, Lftj, NoTally, ParCtj, ParLftj,
};
use triejax_query::{CompiledQuery, Query};
use triejax_relation::Relation;

const POOL_SIZES: [usize; 3] = [1, 2, 7];

/// `ans(x, y, z) :- R(x, y), S(y, z)` — `x` is the root variable and `R`
/// its only depth-0 participant, so giving `R` a single root value pins
/// the root domain to exactly one shard seed.
fn single_root_query() -> CompiledQuery {
    let q = Query::builder("single_root")
        .head(["x", "y", "z"])
        .atom("R", ["x", "y"])
        .atom("S", ["y", "z"])
        .build()
        .unwrap();
    CompiledQuery::compile(&q).unwrap()
}

/// One root (`x = 0`) fanning out to `spokes` values of `y`, where
/// `y = 0` is a hub whose `z` subtree dwarfs the fringe: all of the work
/// sits under the single root value.
fn single_root_hub(spokes: u32, hub_fanout: u32) -> Catalog {
    let mut c = Catalog::new();
    c.insert(
        "R",
        Relation::from_pairs((0..spokes).map(|y| (0, y)).collect::<Vec<_>>()),
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

/// Sequential reference stream, asserting LFTJ and CTJ agree on it first
/// (the parallel engines' ordered merge reproduces exactly this order).
fn reference(plan: &CompiledQuery, catalog: &Catalog) -> Vec<Vec<u32>> {
    let mut lftj_sink = CollectSink::new();
    Lftj::new()
        .execute(plan, catalog, &mut lftj_sink)
        .expect("runs");
    let mut ctj_sink = CollectSink::new();
    Ctj::new()
        .execute(plan, catalog, &mut ctj_sink)
        .expect("runs");
    assert_eq!(
        ctj_sink.tuples(),
        lftj_sink.tuples(),
        "sequential agreement"
    );
    lftj_sink.tuples().to_vec()
}

/// Exactness across the battery: pools 1/2/7 x both tally modes x both
/// parallel engines at granularity 1 on the single-root hub. Each run is
/// the exact sequential stream from one shard with no splits.
#[test]
fn deep_split_battery_is_exact_at_every_pool_size() {
    let plan = single_root_query();
    let catalog = single_root_hub(60, 400);
    let reference = reference(&plan, &catalog);
    for pool in POOL_SIZES {
        for counting in [true, false] {
            let mut lftj_engine = ParLftj::with_pool(pool).with_granularity(1);
            let mut ctj_engine = ParCtj::with_pool(pool).with_granularity(1);
            type Run<'a> = (&'a str, &'a mut dyn FnMut(&mut CollectSink) -> (u64, u64));
            let runs: [Run<'_>; 2] = [
                ("parlftj", &mut |sink| {
                    let s = if counting {
                        lftj_engine
                            .run_tallied::<Counting>(&plan, &catalog, sink)
                            .expect("runs")
                    } else {
                        lftj_engine
                            .run_tallied::<NoTally>(&plan, &catalog, sink)
                            .expect("runs")
                            .to_counting()
                    };
                    (s.shards, s.splits)
                }),
                ("parctj", &mut |sink| {
                    let s = if counting {
                        ctj_engine
                            .run_tallied::<Counting>(&plan, &catalog, sink)
                            .expect("runs")
                    } else {
                        ctj_engine
                            .run_tallied::<NoTally>(&plan, &catalog, sink)
                            .expect("runs")
                            .to_counting()
                    };
                    (s.shards, s.splits)
                }),
            ];
            for (name, run) in runs {
                let mut sink = CollectSink::new();
                let (shards, splits) = run(&mut sink);
                assert_eq!(
                    sink.tuples(),
                    reference,
                    "{name} pool={pool} counting={counting} stream"
                );
                assert_eq!(
                    shards, 1,
                    "{name} pool={pool} counting={counting}: a one-value root domain is one shard"
                );
                assert_eq!(
                    splits, 0,
                    "{name} pool={pool} counting={counting}: the static schedule never splits"
                );
            }
        }
    }
}
