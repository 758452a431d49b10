//! Cross-crate agreement: every software engine and the cycle-level
//! simulator must produce identical result sets on every query, for both
//! structured datasets and randomized graphs.

use proptest::prelude::*;
use triejax::{TrieJax, TrieJaxConfig};
use triejax_graph::{Dataset, Scale};
use triejax_join::{
    Catalog, CollectSink, CountSink, Counting, Ctj, GenericJoin, JoinEngine, Lftj, PairwiseHash,
    PairwiseSortMerge,
};
use triejax_query::{patterns::Pattern, CompiledQuery};
use triejax_relation::Relation;

fn engines() -> Vec<Box<dyn JoinEngine>> {
    vec![
        Box::new(Lftj::new()),
        Box::new(Ctj::new()),
        Box::new(GenericJoin::new()),
        Box::new(PairwiseHash::new()),
        Box::new(PairwiseSortMerge::new()),
    ]
}

#[test]
fn all_systems_agree_on_every_pattern_and_dataset() {
    for d in [Dataset::GrQc, Dataset::Bitcoin, Dataset::Gnutella04] {
        let mut catalog = Catalog::new();
        catalog.insert("G", d.generate(Scale::Tiny).edge_relation());
        for p in Pattern::PAPER {
            let plan = CompiledQuery::compile(&p.query()).expect("compiles");
            let mut reference = CountSink::default();
            Lftj::new()
                .execute(&plan, &catalog, &mut reference)
                .expect("runs");
            for mut e in engines() {
                let mut sink = CountSink::default();
                e.execute(&plan, &catalog, &mut sink).expect("runs");
                assert_eq!(
                    sink.count(),
                    reference.count(),
                    "{} on {d} via {}",
                    p,
                    e.name()
                );
            }
            let report = TrieJax::new(TrieJaxConfig::default())
                .run(&plan, &catalog)
                .expect("runs");
            assert_eq!(
                report.results,
                reference.count(),
                "{p} on {d} via simulator"
            );
        }
    }
}

#[test]
fn extension_patterns_agree_too() {
    let mut catalog = Catalog::new();
    catalog.insert("G", Dataset::GrQc.generate(Scale::Tiny).edge_relation());
    for p in [Pattern::Path5, Pattern::Cycle5, Pattern::Star3] {
        let plan = CompiledQuery::compile(&p.query()).expect("compiles");
        let mut reference = CountSink::default();
        Lftj::new()
            .execute(&plan, &catalog, &mut reference)
            .expect("runs");
        for mut e in engines() {
            let mut sink = CountSink::default();
            e.execute(&plan, &catalog, &mut sink).expect("runs");
            assert_eq!(sink.count(), reference.count(), "{p} via {}", e.name());
        }
        let report = TrieJax::new(TrieJaxConfig::default())
            .run(&plan, &catalog)
            .expect("runs");
        assert_eq!(report.results, reference.count(), "{p} via simulator");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On arbitrary random graphs, all five systems return the same
    /// *sorted tuple sets*, not just counts.
    #[test]
    fn agreement_on_random_graphs(
        edges in prop::collection::btree_set((0u32..24, 0u32..24), 1..120),
        pattern_idx in 0usize..Pattern::PAPER.len(),
    ) {
        let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(a, b)| a != b).collect();
        prop_assume!(!edges.is_empty());
        let mut catalog = Catalog::new();
        catalog.insert("G", Relation::from_pairs(edges));
        let pattern = Pattern::PAPER[pattern_idx];
        let plan = CompiledQuery::compile(&pattern.query()).expect("compiles");

        let mut reference = CollectSink::new();
        Lftj::new().execute(&plan, &catalog, &mut reference).expect("runs");
        let reference = reference.into_sorted();

        for mut e in engines() {
            let mut sink = CollectSink::new();
            e.execute(&plan, &catalog, &mut sink).expect("runs");
            prop_assert_eq!(sink.into_sorted(), reference.clone(), "{}", e.name());
        }

        let mut hw = CollectSink::new();
        TrieJax::new(TrieJaxConfig::default())
            .run_with_sink(&plan, &catalog, &mut hw)
            .expect("runs");
        prop_assert_eq!(hw.into_sorted(), reference, "simulator");
    }

    /// WCOJ premise (Figure 18): on the multi-join queries the paper
    /// plots (Path4/Cycle4/Clique4), CTJ materializes at most as many
    /// intermediates as the pairwise plan, up to a small additive slack
    /// for degenerate graphs whose pairwise plan dies early.
    #[test]
    fn ctj_intermediates_bounded_by_pairwise(
        edges in prop::collection::btree_set((0u32..20, 0u32..20), 1..100),
        pattern_idx in 0usize..3,
    ) {
        let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(a, b)| a != b).collect();
        prop_assume!(!edges.is_empty());
        let mut catalog = Catalog::new();
        catalog.insert("G", Relation::from_pairs(edges));
        let pattern = [Pattern::Path4, Pattern::Cycle4, Pattern::Clique4][pattern_idx];
        let plan = CompiledQuery::compile(&pattern.query()).expect("compiles");
        let mut s1 = CountSink::default();
        let ctj = Ctj::new().execute(&plan, &catalog, &mut s1).expect("runs");
        let mut s2 = CountSink::default();
        let pw = PairwiseHash::new().execute(&plan, &catalog, &mut s2).expect("runs");
        prop_assert!(ctj.intermediates <= pw.intermediates * 2 + 16,
            "ctj {} vs pairwise {}", ctj.intermediates, pw.intermediates);
    }
}

/// The sequential trie-indexed engines build their tries on every run and
/// must report that time — over frozen relations and over merged delta
/// views alike.
#[test]
fn sequential_engines_report_trie_build_time() {
    use triejax_join::{DeltaMap, RelationDelta};

    let base = Dataset::GrQc.generate(Scale::Tiny).edge_relation();
    let mut catalog = Catalog::new();
    catalog.insert("G", base.clone());
    let mut deltas = DeltaMap::new();
    deltas.insert(
        "G".to_owned(),
        RelationDelta::empty(2).unwrap().apply_batch(
            &base,
            &Relation::from_pairs(vec![(0, 100_000), (100_000, 0)]),
            &Relation::new(2).unwrap(),
        ),
    );
    let plan = CompiledQuery::compile(&Pattern::Cycle3.query()).expect("compiles");
    type Run<'a> = (&'a str, &'a dyn Fn(Option<&DeltaMap>) -> u64);
    let runs: [Run<'_>; 3] = [
        ("lftj", &|d| {
            let mut sink = CountSink::default();
            let stats = match d {
                None => Lftj::new().run_tallied::<Counting>(&plan, &catalog, &mut sink),
                Some(d) => Lftj::new().run_tallied_with::<Counting>(&plan, &catalog, d, &mut sink),
            };
            stats.expect("runs").trie_build_ns
        }),
        ("ctj", &|d| {
            let mut sink = CountSink::default();
            let stats = match d {
                None => Ctj::new().run_tallied::<Counting>(&plan, &catalog, &mut sink),
                Some(d) => Ctj::new().run_tallied_with::<Counting>(&plan, &catalog, d, &mut sink),
            };
            stats.expect("runs").trie_build_ns
        }),
        ("generic", &|d| {
            let mut sink = CountSink::default();
            let stats = match d {
                None => GenericJoin::new().run_tallied::<Counting>(&plan, &catalog, &mut sink),
                Some(d) => {
                    GenericJoin::new().run_tallied_with::<Counting>(&plan, &catalog, d, &mut sink)
                }
            };
            stats.expect("runs").trie_build_ns
        }),
    ];
    for (name, run) in runs {
        assert!(run(None) > 0, "{name}: frozen run must report its build");
        assert!(
            run(Some(&deltas)) > 0,
            "{name}: delta run must report its build"
        );
    }
}
