//! perfbench — the repository benchmark.
//!
//! Drives the TrieJax library from outside, through its public API only,
//! as one client thread issuing requests to a `Session` in a closed loop:
//!
//! ```text
//! perfbench --workload <interactive-collab|mutate-watch>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload replays a seeded cycle of `Session::apply` batches and
//! read passes. A read pass runs the workload's queries, each parsed and
//! compiled from text per request, once on every engine path: `ParLftj`
//! and `ParCtj` through `Session::query(..).run`, the sequential `Lftj`
//! and `Ctj` kernels through `run_tallied_with::<NoTally>`, and a
//! first-row pass through `QueryHandle::stream`. Every output is checked
//! against a sequential-`Lftj` oracle over a from-scratch catalog.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` records spans
//! around the calls into each layer, writes them to
//! `.bench_trace/<workload>-seed<n>.jsonl` and prints the per-layer
//! metrics. The last line of standard output is the result object.

mod inputs;
mod trace;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use triejax_exec::WorkerPool;
use triejax_graph::Dataset;
use triejax_join::{
    Catalog, CollectSink, CountSink, Ctj, EngineStats, Lftj, NoTally, ResultSink, Session, TrieSet,
    WatchStream,
};
use triejax_query::{parse_query, CompiledQuery};
use triejax_relation::{Relation, Value};

use inputs::{Schedule, Step};
use trace::Tracer;

/// Set-ups timed before the measured loop. The loop adds a throwaway
/// set-up whenever `SETUP_EVERY` has passed since the last one, so the
/// `setup_s` median draws on the whole run and not on its first second:
/// on a shared host, speed drifts by ±20% between 10-second windows.
const SETUP_REPS: usize = 3;
const SETUP_EVERY: Duration = Duration::from_secs(1);

struct Workload {
    name: &'static str,
    dataset: Dataset,
    queries: &'static [&'static str],
    /// Replays `mutation_schedule` under a standing query, with a fresh
    /// session per cycle, instead of the read workload's rounds of
    /// `WRITE_PAIRS` insert-then-delete pairs and one read pass.
    mutate: bool,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "interactive-collab",
        dataset: Dataset::GrQc,
        queries: &["path3", "path4", "cycle3", "cycle4", "clique4"],
        mutate: false,
    },
    Workload {
        name: "mutate-watch",
        dataset: Dataset::Bitcoin,
        queries: &["cycle3"],
        mutate: true,
    },
];

/// The standing query of `mutate-watch`.
const WATCHED: &str = "cycle3";
/// Rows per insert batch (and delete batch, in `mutate-watch`: half).
const BATCH: usize = 64;
/// `interactive-collab` insert-then-delete pairs per read pass.
const WRITE_PAIRS: usize = 3;
/// `mutate-watch` cycle: batches per cycle, and a read after every tenth.
const MUTATE_BATCHES: usize = 60;
const READ_EVERY: usize = 10;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    ParLftj,
    ParCtj,
    Lftj,
    Ctj,
}

const PATHS: [Path; 4] = [Path::ParLftj, Path::ParCtj, Path::Lftj, Path::Ctj];

impl Path {
    fn label(self) -> &'static str {
        match self {
            Path::ParLftj => "parlftj",
            Path::ParCtj => "parctj",
            Path::Lftj => "lftj",
            Path::Ctj => "ctj",
        }
    }
}

/// Row count plus an order-independent sum of per-tuple hashes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Digest {
    rows: u64,
    sum: u64,
}

fn tuple_hash(t: &[Value]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64;
    for &v in t {
        h = (h ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01B3);
        h ^= h >> 29;
    }
    h = (h ^ (h >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 33)
}

impl Digest {
    fn add(&mut self, t: &[Value]) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(tuple_hash(t));
    }
}

/// Checks outputs without storing them: digest plus the first row.
#[derive(Default)]
struct ChecksumSink {
    digest: Digest,
    first: Option<Vec<Value>>,
}

impl ResultSink for ChecksumSink {
    fn push(&mut self, tuple: &[Value]) {
        if self.first.is_none() {
            self.first = Some(tuple.to_vec());
        }
        self.digest.add(tuple);
    }
}

/// What the oracle says one query returns.
#[derive(Clone, Default)]
struct Expect {
    digest: Digest,
    first: Option<Vec<Value>>,
}

/// The counters of `stats` that must repeat exactly for a given input:
/// kernel work and results on every path, the PJR books of sequential CTJ
/// and the shard count of ParLftj. ParCtj's PJR counters, contention,
/// races and steals depend on thread timing and vary.
fn exact(s: &EngineStats, path: Path) -> Vec<u64> {
    let kernel = [s.lub_ops, s.expand_ops, s.match_ops, s.results];
    match path {
        Path::Lftj => kernel.to_vec(),
        Path::Ctj => [
            &kernel[..],
            &[s.cache_hits, s.cache_misses, s.intermediates],
        ]
        .concat(),
        Path::ParLftj => [&kernel[..], &[s.shards, s.splits]].concat(),
        Path::ParCtj => vec![s.results, s.shards],
    }
}

/// Every `TRIEJAX_*` knob is removed before the library first reads the
/// environment, so ambient settings cannot change what is measured.
fn pin_environment() -> Vec<String> {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TRIEJAX_"))
        .collect();
    for k in &knobs {
        std::env::remove_var(k);
    }
    knobs
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unavailable".to_owned())
}

/// Restarts the kernel's peak-RSS (`VmHWM`) count for this process.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile.
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// The highest of p90/p75/p50 with at least ten samples above it; with
/// fewer than twenty samples, the maximum. Returns the value and the
/// percentile's label.
///
/// The cap at p90 keeps the percentile from changing with host speed: a
/// run holds hundreds of samples of each tail metric, so only a host
/// several times slower falls to a lower one. Above p90 the parallel
/// paths' tails also moved by 20% between runs of one commit.
fn tail(v: &[f64]) -> (f64, String) {
    for q in [90.0, 75.0, 50.0] {
        let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
        if v.len() >= 20 && v.len() - rank >= 10 {
            return (percentile(v, q), format!("p{q} of {}", v.len()));
        }
    }
    let max = v.iter().copied().fold(0.0, f64::max);
    (max, format!("max of {}", v.len()))
}

fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(format!(
            "panicked: {}",
            p.downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        )),
    }
}

fn compile(name: &str) -> Result<CompiledQuery, String> {
    let q = parse_query(inputs::query_text(name)).map_err(|e| e.to_string())?;
    CompiledQuery::compile(&q).map_err(|e| e.to_string())
}

/// One live session with its standing query, if the workload has one.
struct Live {
    session: Session,
    watch: Option<WatchStream>,
    pool: WorkerPool,
}

#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    pass_ms: [Vec<f64>; 4],
    /// Per pass: pass time minus parse/compile and trie build time.
    run_ms: [Vec<f64>; 4],
    /// Engine counters summed over all passes of each path.
    work: [EngineStats; 4],
    passes: [u64; 4],
    first_row_ms: Vec<f64>,
    /// Peak RSS of each read pass, counted from the pass's start.
    rss_mb: Vec<f64>,
    /// Per first-row pass: time to drop (cancel and join) the streams.
    cancel_ms: Vec<f64>,
    parse_us: Vec<f64>,
    apply_ms: Vec<f64>,
    apply_plain_ms: Vec<f64>,
    apply_compacting_ms: Vec<f64>,
    read_over_delta_ms: Vec<f64>,
    compactions: u64,
    delta_rows: u64,
    watch_rows: u64,
    trie_cache_hits: u64,
    trie_cache_misses: u64,
    trie_cache_bytes: u64,
    // Traced run only.
    cold_build_ms: Vec<f64>,
    drain_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    rounds: u64,
}

struct Run<'w> {
    wl: &'w Workload,
    seed: u64,
    nproc: usize,
    tracer: Tracer,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    next_qid: u64,
    s: Samples,
    expected: HashMap<usize, Vec<Expect>>,
    exact: HashMap<(usize, usize), Vec<u64>>,
    emissions: HashMap<usize, Digest>,
    plans: Vec<CompiledQuery>,
    watched: CompiledQuery,
}

impl<'w> Run<'w> {
    fn tally<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => self.fail(format!("{what}: {e}")),
        }
    }

    fn fail<T>(&mut self, msg: String) -> Option<T> {
        self.failed += 1;
        if self.errors.len() < 8 {
            eprintln!("perfbench: FAILED {msg}");
            self.errors.push(msg);
        }
        None
    }

    fn qid(&mut self) -> u64 {
        self.next_qid += 1;
        self.next_qid
    }

    /// Input generation, catalog, session, standing query and the warm-up
    /// pass that fills the trie cache — timed as one `setup_s` sample.
    fn setup(&mut self) -> Live {
        let t = Instant::now();
        let graph = inputs::graph(self.wl.dataset);
        let mut catalog = Catalog::new();
        catalog.insert("G", graph.edge_relation());
        let session = Session::new(catalog).with_pool(self.nproc);
        let watch = self.wl.mutate.then(|| {
            session
                .watch(&self.watched)
                .expect("the standing query is a full join")
        });
        for i in 0..self.plans.len() {
            let plan = self.plans[i].clone();
            let r = guarded(|| {
                session
                    .query(&plan)
                    .run(&mut CountSink::new())
                    .map_err(|e| e.to_string())
            });
            self.tally("warm-up", r);
        }
        self.s.setup_s.push(t.elapsed().as_secs_f64());
        Live {
            session,
            watch,
            pool: WorkerPool::with_workers(self.nproc),
        }
    }

    /// Sequential LFTJ over a catalog rebuilt from the schedule's own edge
    /// list — independent of the session, its deltas and its caches.
    fn oracle(&mut self, edges: &[(u32, u32)]) -> Vec<Expect> {
        let mut catalog = Catalog::new();
        catalog.insert("G", Relation::from_pairs(edges.iter().copied()));
        let mut out = Vec::new();
        for plan in self.plans.clone() {
            let mut sink = ChecksumSink::default();
            let r = guarded(|| {
                Lftj::new()
                    .run_tallied::<NoTally>(&plan, &catalog, &mut sink)
                    .map_err(|e| e.to_string())
            });
            self.tally("oracle", r);
            out.push(Expect {
                digest: sink.digest,
                first: sink.first,
            });
        }
        out
    }

    fn collect_watched(&mut self, live: &Live) -> Vec<Vec<Value>> {
        let (catalog, deltas) = (live.session.catalog(), live.session.deltas());
        let mut sink = CollectSink::new();
        let plan = self.watched.clone();
        let r = guarded(|| {
            Lftj::new()
                .run_tallied_with::<NoTally>(&plan, &catalog, &deltas, &mut sink)
                .map_err(|e| e.to_string())
        });
        self.tally("re-query", r);
        sink.tuples().to_vec()
    }

    fn apply(&mut self, live: &Live, pos: usize, ins: &Relation, del: &Relation, verify: bool) {
        let before = verify.then(|| self.collect_watched(live));
        let catalog = live.session.catalog();
        let span = self.tracer.begin("session", "Session::apply", 0);
        let t = Instant::now();
        let r = guarded(|| live.session.apply("G", ins, del).map_err(|e| e.to_string()));
        let dt = ms(t.elapsed());
        self.tracer.end(span);
        if self.tally("apply", r).is_none() {
            return;
        }
        let compacted = !std::sync::Arc::ptr_eq(&catalog, &live.session.catalog());
        self.s.apply_ms.push(dt);
        if compacted {
            self.s.compactions += 1;
            self.s.apply_compacting_ms.push(dt);
        } else {
            self.s.apply_plain_ms.push(dt);
        }
        self.s.delta_rows += live.session.deltas().get("G").map_or(0, |d| d.len() as u64);

        let Some(watch) = &live.watch else {
            return;
        };
        let span = self.tracer.begin("session", "WatchStream::poll", 0);
        let update = watch.poll();
        self.tracer.end(span);
        let Some(update) = update else {
            self.fail::<()>("watch: no update after apply".into());
            return;
        };
        self.s.watch_rows += update.rows.len() as u64;
        let mut digest = Digest::default();
        update.rows.iter().for_each(|r| digest.add(r));
        match self.emissions.get(&pos) {
            Some(d) if *d != digest => {
                self.fail::<()>(format!(
                    "watch: emission at step {pos} differs from cycle 0"
                ));
            }
            Some(_) => {}
            None => {
                self.emissions.insert(pos, digest);
            }
        }
        if let Some(before) = before {
            let old: HashSet<Vec<Value>> = before.into_iter().collect();
            let new: Vec<Vec<Value>> = self
                .collect_watched(live)
                .into_iter()
                .filter(|r| !old.contains(r))
                .collect();
            self.attempted += 1;
            if new != update.rows {
                self.fail::<()>(format!(
                    "watch: emitted {} rows, re-query found {} new",
                    update.rows.len(),
                    new.len()
                ));
            }
        }
    }

    /// One pass of `path` over the workload's queries. Returns the pass
    /// time and the part of it spent parsing, compiling and building tries.
    fn path_pass(&mut self, live: &Live, state: usize, path: Path) -> (f64, f64, EngineStats) {
        let expected = self.expected[&state].clone();
        let mut work = EngineStats::default();
        let mut overhead_ms = 0.0;
        let pass = self.tracer.begin("bench", path.label(), 0);
        let t_pass = Instant::now();
        for (qi, name) in self.wl.queries.iter().enumerate() {
            let qid = self.qid();
            let t = Instant::now();
            let span = self.tracer.begin("query", "parse_query+compile", qid);
            let plan = compile(name);
            self.tracer.end(span);
            let parse = t.elapsed();
            self.s.parse_us.push(parse.as_secs_f64() * 1e6);
            overhead_ms += ms(parse);
            let Some(plan) = self.tally("compile", plan) else {
                continue;
            };
            let mut sink = ChecksumSink::default();
            let r = match path {
                Path::ParLftj | Path::ParCtj => {
                    let span = self.tracer.begin("session", "Session::query", qid);
                    let mut handle = live.session.query(&plan);
                    if path == Path::ParCtj {
                        handle = handle.with_ctj();
                    }
                    self.tracer.end(span);
                    let span = self.tracer.begin("exec", "QueryHandle::run", qid);
                    let r = guarded(|| handle.run(&mut sink).map_err(|e| e.to_string()));
                    self.tracer.end(span);
                    r.map(|s| {
                        overhead_ms += s.trie_build_ns as f64 / 1e6;
                        work.merge(&s)
                    })
                }
                Path::Lftj | Path::Ctj => {
                    let span = self.tracer.begin("session", "Session::catalog+deltas", qid);
                    let (catalog, deltas) = (live.session.catalog(), live.session.deltas());
                    self.tracer.end(span);
                    let span = if path == Path::Lftj {
                        self.tracer.begin("join", "Lftj::run_tallied_with", qid)
                    } else {
                        self.tracer.begin("pjr", "Ctj::run_tallied_with", qid)
                    };
                    let r = guarded(|| {
                        if path == Path::Lftj {
                            Lftj::new()
                                .run_tallied_with::<NoTally>(&plan, &catalog, &deltas, &mut sink)
                        } else {
                            Ctj::new()
                                .run_tallied_with::<NoTally>(&plan, &catalog, &deltas, &mut sink)
                        }
                        .map_err(|e| e.to_string())
                    });
                    self.tracer.end(span);
                    r.map(|s| work.merge(&s.to_counting()))
                }
            };
            if self.tally(path.label(), r).is_some() && sink.digest != expected[qi].digest {
                self.fail::<()>(format!(
                    "{} {name}: {:?}, oracle {:?}",
                    path.label(),
                    sink.digest,
                    expected[qi].digest
                ));
            }
        }
        let pass_ms = ms(t_pass.elapsed());
        self.tracer.end(pass);
        (pass_ms, overhead_ms, work)
    }

    fn read(&mut self, live: &Live, sched: &Schedule, state: usize) {
        if !self.expected.contains_key(&state) {
            let e = self.oracle(&sched.states[state]);
            self.expected.insert(state, e);
        }
        let over_delta = !live.session.deltas().is_empty();
        reset_peak_rss();
        for (pi, &path) in PATHS.iter().enumerate() {
            let tc = live.session.trie_cache();
            let (hits, misses) = (tc.hits(), tc.misses());
            let (pass_ms, overhead_ms, work) = self.path_pass(live, state, path);
            if path == Path::ParLftj {
                let tc = live.session.trie_cache();
                self.s.trie_cache_hits += tc.hits() - hits;
                self.s.trie_cache_misses += tc.misses() - misses;
                if over_delta {
                    self.s.read_over_delta_ms.push(pass_ms);
                }
            }
            self.s.pass_ms[pi].push(pass_ms);
            self.s.run_ms[pi].push(pass_ms - overhead_ms);
            self.s.work[pi].merge(&work);
            self.s.passes[pi] += 1;
            let exact = exact(&work, path);
            match self.exact.get(&(state, pi)) {
                Some(e) if *e != exact => {
                    self.fail::<()>(format!(
                        "{}: counters {exact:?} differ from the first pass {e:?}",
                        path.label()
                    ));
                }
                Some(_) => {}
                None => {
                    self.exact.insert((state, pi), exact);
                }
            }
        }
        self.first_row_pass(live, state);
        if self.tracer.on {
            self.traced_extras(live, state);
        }
        self.s.rss_mb.push(peak_rss_mb());
        self.s.rounds += 1;
    }

    /// `stream()` up to the first row, per query; the stream is then
    /// dropped, which cancels the rest of the query.
    fn first_row_pass(&mut self, live: &Live, state: usize) {
        let expected = self.expected[&state].clone();
        let (mut total, mut cancel) = (0.0, 0.0);
        for (qi, plan) in self.plans.clone().iter().enumerate() {
            let qid = self.qid();
            let span = self
                .tracer
                .begin("exec", "QueryHandle::stream first row", qid);
            let t = Instant::now();
            let r = guarded(|| {
                let mut stream = live.session.query(plan).stream();
                let first = stream.next();
                let dt = ms(t.elapsed());
                let t = Instant::now();
                drop(stream);
                Ok((first, dt, ms(t.elapsed())))
            });
            self.tracer.end(span);
            if let Some((first, dt, drop_ms)) = self.tally("stream", r) {
                total += dt;
                cancel += drop_ms;
                if first != expected[qi].first {
                    self.fail::<()>(format!("stream: first row {first:?} is not the oracle's"));
                }
            }
        }
        self.s.first_row_ms.push(total);
        self.s.cancel_ms.push(cancel);
    }

    /// Traced run only: cold trie builds, warm trie-cache fetches, a fully
    /// drained streamed pass, and an untraced ParLftj pass whose time the
    /// traced one is compared with.
    fn traced_extras(&mut self, live: &Live, state: usize) {
        let expected = self.expected[&state].clone();
        let catalog = live.session.catalog();
        let (mut build, mut drain) = (0.0, 0.0);
        for (qi, plan) in self.plans.clone().iter().enumerate() {
            let qid = self.qid();
            let span = self.tracer.begin("relation", "TrieSet::build", qid);
            let t = Instant::now();
            let r = guarded(|| TrieSet::build(plan, &catalog).map_err(|e| e.to_string()));
            build += ms(t.elapsed());
            self.tracer.end(span);
            self.tally("trie build", r);

            let span = self
                .tracer
                .begin("triecache", "TrieSet::build_on(cache)", qid);
            let cache = live.session.trie_cache().as_ref();
            let r = guarded(|| {
                TrieSet::build_on(plan, &catalog, &live.pool, Some(cache))
                    .map_err(|e| e.to_string())
            });
            self.tracer.end(span);
            self.tally("trie fetch", r);

            let span = self.tracer.begin("exec", "QueryHandle::stream drain", qid);
            let t = Instant::now();
            let r = guarded(|| {
                let mut d = Digest::default();
                live.session
                    .query(plan)
                    .stream()
                    .for_each(|row| d.add(&row));
                Ok(d)
            });
            drain += ms(t.elapsed());
            self.tracer.end(span);
            if let Some(d) = self.tally("stream drain", r) {
                if d != expected[qi].digest {
                    self.fail::<()>(format!(
                        "stream drain: {d:?}, oracle {:?}",
                        expected[qi].digest
                    ));
                }
            }
        }
        self.s.cold_build_ms.push(build);
        self.s.drain_ms.push(drain);
        self.tracer.on = false;
        let (pass_ms, _, _) = self.path_pass(live, state, Path::ParLftj);
        self.tracer.on = true;
        self.s.untraced_ms.push(pass_ms);
    }

    fn run(&mut self, seconds: u64) {
        let graph = inputs::graph(self.wl.dataset);
        let sched = if self.wl.mutate {
            inputs::mutation_schedule(
                &graph,
                MUTATE_BATCHES,
                BATCH,
                BATCH / 2,
                READ_EVERY,
                self.seed,
            )
        } else {
            inputs::net_zero_schedule(&graph, BATCH, WRITE_PAIRS, self.seed)
        };
        drop(graph);
        for _ in 1..SETUP_REPS {
            drop(self.setup());
        }
        let mut live = self.setup();
        let deadline = Instant::now() + Duration::from_secs(seconds);
        let mut last_setup = Instant::now();
        let mut cycle = 0;
        loop {
            if cycle > 0 && self.wl.mutate {
                live = self.setup();
                last_setup = Instant::now();
            } else if last_setup.elapsed() >= SETUP_EVERY {
                drop(self.setup());
                last_setup = Instant::now();
            }
            for (pos, step) in sched.steps.iter().enumerate() {
                match step {
                    Step::Apply { ins, del, verify } => {
                        self.apply(&live, pos, ins, del, *verify && cycle == 0)
                    }
                    Step::Read { state } => self.read(&live, &sched, *state),
                }
            }
            cycle += 1;
            if Instant::now() >= deadline {
                break;
            }
        }
        self.s.trie_cache_bytes = live.session.trie_cache().bytes();
    }
}

fn metric(out: &mut Vec<(String, f64, &'static str)>, name: &str, value: f64, unit: &'static str) {
    out.push((name.to_owned(), value, unit));
}

fn end_to_end(
    s: &Samples,
    info: &mut BTreeMap<String, String>,
) -> Vec<(String, f64, &'static str)> {
    let mut m = Vec::new();
    let tail_of = |name: &str, v: &[f64], info: &mut BTreeMap<String, String>| {
        let (value, label) = tail(v);
        info.insert(name.to_owned(), label);
        value
    };
    metric(&mut m, "setup_s", median(&s.setup_s), "s");
    metric(&mut m, "lftj_pass_ms_p50", median(&s.pass_ms[0]), "ms");
    let t = tail_of("lftj_pass_ms_tail", &s.pass_ms[0], info);
    metric(&mut m, "lftj_pass_ms_tail", t, "ms");
    metric(&mut m, "ctj_pass_ms_p50", median(&s.pass_ms[1]), "ms");
    let t = tail_of("ctj_pass_ms_tail", &s.pass_ms[1], info);
    metric(&mut m, "ctj_pass_ms_tail", t, "ms");
    metric(&mut m, "seq_lftj_pass_ms_p50", median(&s.pass_ms[2]), "ms");
    metric(&mut m, "seq_ctj_pass_ms_p50", median(&s.pass_ms[3]), "ms");
    metric(
        &mut m,
        "first_row_pass_ms_p50",
        median(&s.first_row_ms),
        "ms",
    );
    metric(&mut m, "apply_ms_p50", median(&s.apply_ms), "ms");
    let t = tail_of("apply_ms_tail", &s.apply_ms, info);
    metric(&mut m, "apply_ms_tail", t, "ms");
    metric(&mut m, "peak_rss_mb", median(&s.rss_mb), "MB");
    m
}

fn per_layer(run: &Run, info: &mut BTreeMap<String, String>) -> Vec<(String, f64, &'static str)> {
    let s = &run.s;
    let mut m = Vec::new();
    let per = |v: u64, n: u64| v as f64 / n.max(1) as f64;
    let rounds = s.rounds.max(1) as f64;
    let self_ms = run.tracer.self_ns();
    let layer_ms = |l: &str| self_ms.get(l).copied().unwrap_or(0) as f64 / 1e6 / rounds;
    let cold_build = median(&s.cold_build_ms);

    metric(&mut m, "query.parse_compile_us", median(&s.parse_us), "us");
    metric(&mut m, "query.self_ms", layer_ms("query"), "ms");
    metric(&mut m, "relation.trie_build_ms", cold_build, "ms");
    metric(&mut m, "relation.self_ms", layer_ms("relation"), "ms");
    metric(
        &mut m,
        "triecache.hits",
        per(s.trie_cache_hits, s.passes[0]),
        "count",
    );
    metric(
        &mut m,
        "triecache.misses",
        per(s.trie_cache_misses, s.passes[0]),
        "count",
    );
    metric(
        &mut m,
        "triecache.bytes",
        s.trie_cache_bytes as f64,
        "bytes",
    );
    metric(&mut m, "triecache.self_ms", layer_ms("triecache"), "ms");
    for (pi, path) in PATHS.iter().enumerate() {
        let (w, n) = (&s.work[pi], s.passes[pi]);
        let l = path.label();
        metric(
            &mut m,
            &format!("join.lub_ops.{l}"),
            per(w.lub_ops, n),
            "count",
        );
        metric(
            &mut m,
            &format!("join.expand_ops.{l}"),
            per(w.expand_ops, n),
            "count",
        );
        metric(
            &mut m,
            &format!("join.match_ops.{l}"),
            per(w.match_ops, n),
            "count",
        );
        let seq_build = if matches!(path, Path::Lftj | Path::Ctj) {
            cold_build
        } else {
            0.0
        };
        metric(
            &mut m,
            &format!("join.run_ms.{l}"),
            median(&s.run_ms[pi]) - seq_build,
            "ms",
        );
    }
    metric(
        &mut m,
        "join.results",
        per(s.work[2].results, s.passes[2]),
        "count",
    );
    metric(&mut m, "join.self_ms", layer_ms("join"), "ms");
    for (pi, l) in [(1usize, "parctj"), (3, "ctj")] {
        let (w, n) = (&s.work[pi], s.passes[pi]);
        metric(
            &mut m,
            &format!("pjr.hits.{l}"),
            per(w.cache_hits, n),
            "count",
        );
        metric(
            &mut m,
            &format!("pjr.misses.{l}"),
            per(w.cache_misses, n),
            "count",
        );
        let rate = w.cache_hit_rate();
        metric(&mut m, &format!("pjr.hit_rate.{l}"), rate, "ratio");
        metric(
            &mut m,
            &format!("pjr.intermediates.{l}"),
            per(w.intermediates, n),
            "count",
        );
    }
    metric(
        &mut m,
        "pjr.contention.parctj",
        per(s.work[1].cache_contention, s.passes[1]),
        "count",
    );
    metric(
        &mut m,
        "pjr.races.parctj",
        per(s.work[1].cache_races, s.passes[1]),
        "count",
    );
    metric(
        &mut m,
        "pjr.net_ms",
        median(&s.pass_ms[3]) - median(&s.pass_ms[2]),
        "ms",
    );
    metric(&mut m, "pjr.self_ms", layer_ms("pjr"), "ms");
    let w = &s.work[0];
    metric(&mut m, "exec.shards", per(w.shards, s.passes[0]), "count");
    metric(&mut m, "exec.steals", per(w.steals, s.passes[0]), "count");
    metric(&mut m, "exec.splits", per(w.splits, s.passes[0]), "count");
    let speedup = median(&s.pass_ms[2]) / median(&s.pass_ms[0]).max(1e-9);
    metric(&mut m, "exec.speedup", speedup, "ratio");
    metric(
        &mut m,
        "exec.stream_drain_ms",
        median(&s.drain_ms) - median(&s.pass_ms[0]),
        "ms",
    );
    metric(&mut m, "exec.stream_cancel_ms", median(&s.cancel_ms), "ms");
    metric(&mut m, "exec.self_ms", layer_ms("exec"), "ms");
    metric(
        &mut m,
        "session.apply_plain_ms_p50",
        median(&s.apply_plain_ms),
        "ms",
    );
    let applies = s.apply_ms.len() as u64;
    metric(
        &mut m,
        "session.compactions",
        100.0 * per(s.compactions, applies),
        "count",
    );
    metric(
        &mut m,
        "session.delta_rows",
        per(s.delta_rows, applies),
        "count",
    );
    metric(
        &mut m,
        "session.watch_rows_per_batch",
        per(s.watch_rows, applies),
        "count",
    );
    metric(&mut m, "session.self_ms", layer_ms("session"), "ms");
    let overhead = median(&s.pass_ms[0]) - median(&s.untraced_ms);
    metric(&mut m, "trace.overhead_ms", overhead, "ms");

    // Figures of one workload only; they stay out of the result object.
    if !s.apply_compacting_ms.is_empty() {
        info.insert(
            "session.apply_compacting_ms_p50".into(),
            format!(
                "{} of {}",
                median(&s.apply_compacting_ms),
                s.apply_compacting_ms.len()
            ),
        );
    }
    if !s.read_over_delta_ms.is_empty() {
        info.insert(
            "session.read_over_delta_ms".into(),
            format!(
                "{} of {}",
                median(&s.read_over_delta_ms),
                s.read_over_delta_ms.len()
            ),
        );
    }
    info.insert("spans".into(), run.tracer.len().to_string());
    m
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2)
}

fn main() {
    let pinned = pin_environment();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| usage())
    };
    let wl_name = flag("--workload");
    let Some(wl) = WORKLOADS.iter().find(|w| w.name == wl_name) else {
        usage()
    };
    let seed: u64 = flag("--seed").parse().unwrap_or_else(|_| usage());
    let seconds: u64 = flag("--seconds").parse().unwrap_or_else(|_| usage());
    let traced = match flag("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let plans: Vec<CompiledQuery> = wl
        .queries
        .iter()
        .map(|q| compile(q).expect("workload queries compile"))
        .collect();
    let mut run = Run {
        wl,
        seed,
        nproc,
        tracer: Tracer::new(traced),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        next_qid: 0,
        s: Samples::default(),
        expected: HashMap::new(),
        exact: HashMap::new(),
        emissions: HashMap::new(),
        plans,
        watched: compile(WATCHED).expect("the watched query compiles"),
    };
    run.run(seconds);

    let mut info = BTreeMap::new();
    let metrics = if traced {
        per_layer(&run, &mut info)
    } else {
        end_to_end(&run.s, &mut info)
    };
    // The exact counters of every (read state, path), hashed: equal seeds
    // must print equal digests on every machine.
    let mut keys: Vec<_> = run.exact.iter().collect();
    keys.sort_by_key(|(k, _)| **k);
    let mut counter_digest = Digest::default();
    for ((state, path), v) in keys {
        let mut row = vec![*state as u32, *path as u32];
        row.extend(v.iter().flat_map(|x| [*x as u32, (*x >> 32) as u32]));
        counter_digest.add(&row);
    }
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let env = [
        ("workload", quote(wl.name)),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", u8::from(traced).to_string()),
        ("nproc", nproc.to_string()),
        ("pool", run.nproc.to_string()),
        (
            "git_commit",
            quote(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", quote(&command_line("rustc", &["--version"]))),
        (
            "cleared_env",
            format!(
                "[{}]",
                pinned
                    .iter()
                    .map(|k| quote(k))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        (
            "counter_digest",
            quote(&format!("{:016x}", counter_digest.sum)),
        ),
        (
            "varying_counters",
            quote(
                "pjr.contention pjr.races exec.steals and ParCtj's pjr hits/misses/intermediates",
            ),
        ),
        (
            "errors",
            format!(
                "[{}]",
                run.errors
                    .iter()
                    .map(|e| quote(e))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ];
    let detail: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("{}:{}", quote(k), quote(v)))
        .collect();
    let header = format!(
        "{{\"perfbench\":{{{},\"detail\":{{{}}}}}}}",
        env.iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(","),
        detail.join(",")
    );
    if traced {
        let path =
            std::path::PathBuf::from(".bench_trace").join(format!("{}-seed{seed}.jsonl", wl.name));
        if let Err(e) = run.tracer.write(&path, &header) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    println!("{header}");
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{k}\":{{\"value\":{v},\"unit\":\"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.failed == 0,
        run.attempted.max(1),
        run.failed,
        body.join(",")
    );
}
