//! Inputs: the two graphs, the query texts and the seeded schedule of
//! write batches and read passes each workload replays.
//!
//! Every input is a pure function of the benchmark seed, so the same seed
//! always yields the same batches and hence the same exact counts.

use std::collections::HashSet;

use triejax_graph::{Dataset, Graph, Scale};
use triejax_relation::Relation;

/// SplitMix64: a tiny deterministic generator for the write batches.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Derives an independent sub-seed for one use of the benchmark seed.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    SplitMix::new(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// The repository's fixed `Scale::Mini` stand-in for `dataset` — the
/// graph its paper figures and tests use.
///
/// The seed draws the write batches, not the graph: re-drawing the
/// power-law recipe per seed moved GrQc's result count by ±12%, and even a
/// seeded vertex relabelling moved the first-row latency by up to 2x
/// between seeds, both far above the run-to-run spread the benchmark has
/// to resolve.
pub fn graph(dataset: Dataset) -> Graph {
    dataset.generate(Scale::Mini)
}

/// Query text in the paper's datalog syntax, parsed per request.
pub fn query_text(name: &str) -> &'static str {
    match name {
        "path3" => "path3(x,y,z) = G(x,y),G(y,z).",
        "path4" => "path4(x,y,z,w) = G(x,y),G(y,z),G(z,w).",
        "cycle3" => "cycle3(x,y,z) = G(x,y),G(y,z),G(z,x).",
        "cycle4" => "cycle4(x,y,z,w) = G(x,y),G(y,z),G(z,w),G(w,x).",
        "clique4" => "clique4(x,y,z,w) = G(x,y),G(y,z),G(z,w),G(w,x),G(z,x),G(w,y).",
        other => panic!("unknown query {other}"),
    }
}

/// One step of a workload's cycle.
pub enum Step {
    /// `Session::apply` of one batch to `G`; `verify` marks the batches
    /// whose watch emission is checked against a full re-query.
    Apply {
        ins: Relation,
        del: Relation,
        verify: bool,
    },
    /// One read pass over the workload's queries on every engine path;
    /// `state` indexes the edge set the session holds at this point.
    Read { state: usize },
}

/// A workload's replayable cycle of steps plus the edge set at each read.
pub struct Schedule {
    pub steps: Vec<Step>,
    pub states: Vec<Vec<(u32, u32)>>,
}

/// Edges of `graph` that `G` does not hold yet, drawn uniformly.
fn absent_edges(
    rng: &mut SplitMix,
    nodes: u32,
    live: &HashSet<(u32, u32)>,
    count: usize,
) -> Vec<(u32, u32)> {
    let mut out = HashSet::new();
    while out.len() < count {
        let a = rng.below(nodes as u64) as u32;
        let b = rng.below(nodes as u64) as u32;
        if a != b && !live.contains(&(a, b)) {
            out.insert((a, b));
        }
    }
    let mut v: Vec<_> = out.into_iter().collect();
    v.sort_unstable();
    v
}

/// The read workloads' cycle: `pairs` times, one batch of absent edges
/// is inserted and then deleted again, so every read sees the original
/// graph.
pub fn net_zero_schedule(graph: &Graph, batch: usize, pairs: usize, seed: u64) -> Schedule {
    let live: HashSet<(u32, u32)> = graph.edges().iter().copied().collect();
    let mut rng = SplitMix::new(sub_seed(seed, 0x57EA));
    let x = Relation::from_pairs(absent_edges(&mut rng, graph.num_nodes(), &live, batch));
    let none = Relation::from_pairs(Vec::new());
    let mut steps = Vec::new();
    for _ in 0..pairs {
        steps.push(Step::Apply {
            ins: x.clone(),
            del: none.clone(),
            verify: false,
        });
        steps.push(Step::Apply {
            ins: none.clone(),
            del: x.clone(),
            verify: false,
        });
    }
    steps.push(Step::Read { state: 0 });
    Schedule {
        steps,
        states: vec![graph.edges().to_vec()],
    }
}

/// The write workload's cycle: `batches` batches of `ins` absent-edge
/// inserts plus `del` deletes of live edges; a read pass (and a verified
/// watch emission) follows every `read_every`-th batch.
pub fn mutation_schedule(
    graph: &Graph,
    batches: usize,
    ins: usize,
    del: usize,
    read_every: usize,
    seed: u64,
) -> Schedule {
    let mut live: HashSet<(u32, u32)> = graph.edges().iter().copied().collect();
    let mut rng = SplitMix::new(sub_seed(seed, 0xBA7C));
    let mut steps = Vec::new();
    let mut states = Vec::new();
    for b in 0..batches {
        let adds = absent_edges(&mut rng, graph.num_nodes(), &live, ins);
        let mut pool: Vec<(u32, u32)> = live.iter().copied().collect();
        pool.sort_unstable();
        let mut dels = HashSet::new();
        while dels.len() < del.min(pool.len()) {
            dels.insert(pool[rng.below(pool.len() as u64) as usize]);
        }
        let mut dels: Vec<_> = dels.into_iter().collect();
        dels.sort_unstable();
        for e in &dels {
            live.remove(e);
        }
        live.extend(adds.iter().copied());
        let read = (b + 1) % read_every == 0;
        steps.push(Step::Apply {
            ins: Relation::from_pairs(adds),
            del: Relation::from_pairs(dels),
            verify: read,
        });
        if read {
            let mut edges: Vec<_> = live.iter().copied().collect();
            edges.sort_unstable();
            steps.push(Step::Read {
                state: states.len(),
            });
            states.push(edges);
        }
    }
    Schedule { steps, states }
}
