//! What the workloads share: query selection, the oracle, set-up timing, the
//! closed-loop client and the traced decomposition of one `Match+` query into its
//! layers.

use crate::stats::{mean, median, ms_since, percentile};
use crate::trace::Tracer;
use crate::Report;
use ssim_core::incremental::PreparedGlobal;
use ssim_core::minimize::minimize_pattern;
use ssim_core::strong::{
    match_with_prepared, strong_simulation, MatchConfig, MatchOutput, MatchStats,
};
use ssim_core::{dual_simulation_with, BallStrategy, MatchRelation, PerfectSubgraph, RefineSeed};
use ssim_experiments::workloads::experiment_pattern;
use ssim_graph::{BitSet, ExtractedSubgraph, Graph, Pattern};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Generator seed of every workload's data graph. Each workload runs on one fixed
/// dataset, as the paper's evaluation runs on fixed graphs, and its query pool is
/// selected from that graph, so it is fixed too; `--seed` sets the order of the mix
/// (see [`rotate`]) and, on `service-churn`, the churned edges. When the graph and so
/// the pool came from `--seed`, the seed-to-seed spread of `query_ms_p90` over ten seeds
/// reached 0.26 of its median on `oneshot-dense`: a p90 over a few dozen patterns whose
/// latencies spread over an order of magnitude moves with every draw of the patterns.
pub const DATASET_SEED: u64 = 1;

/// Set-ups per run, at least, and their least total time; `setup_s` is their median. A
/// set-up of a 2×10⁵-node graph takes under 0.1 s, where a handful of samples wanders
/// with the machine.
const SETUP_REPEATS: usize = 5;
const SETUP_SECONDS: f64 = 2.0;
/// Candidate pattern seeds tried per pool slot before selection gives up on a stratum.
const CANDIDATES_PER_SLOT: usize = 16;

/// The per-pattern input property a pool is stratified on.
#[derive(Clone, Copy)]
pub enum Property {
    /// Nodes of the match graph `Gm` (data nodes in the global dual-simulation
    /// relation), which sets the ball pipeline's work.
    GmNodes,
    /// Label candidates of the pattern (data nodes carrying each pattern node's
    /// label, summed), which sets global dual simulation's work.
    Candidates,
}

/// How a workload draws its queries: 6-node patterns `experiment_pattern(data, 6, s)`
/// for `s = 0, 1, 2, …`, kept when `Gm` has between `gm.0` and `gm.1` nodes
/// (half-open) and sorted into strata on `property` with `per_bin` patterns each.
///
/// Query cost varies by an order of magnitude between patterns. Equal quotas per stratum
/// give the pool a set mix of light and heavy queries; the `Gm` band drops the rare
/// patterns whose `Gm` covers a large part of the graph, which take seconds and would
/// decide a 10-second run alone.
pub struct Recipe {
    pub gm: (usize, usize),
    pub property: Property,
    pub bins: &'static [(usize, usize)],
    pub per_bin: usize,
}

/// Selects pattern seeds by `recipe`, skipping `taken`. The result interleaves the
/// strata (`bin 0, bin 1, …, bin 0, …`) so any prefix of it is stratified too. Runs
/// untimed: it is the benchmark's own computation, not the system's.
pub fn select(data: &Graph, recipe: &Recipe, taken: &[u64]) -> Vec<u64> {
    let mut bins: Vec<Vec<u64>> = vec![Vec::new(); recipe.bins.len()];
    let open = |bins: &[Vec<u64>], key: usize| {
        recipe
            .bins
            .iter()
            .position(|&(lo, hi)| lo <= key && key < hi)
            .filter(|&b| bins[b].len() < recipe.per_bin)
    };
    let limit = (CANDIDATES_PER_SLOT * recipe.bins.len() * recipe.per_bin) as u64;
    for s in (0..limit).filter(|s| !taken.contains(s)) {
        if bins.iter().all(|b| b.len() == recipe.per_bin) {
            break;
        }
        let pattern = experiment_pattern(data, 6, s);
        // The label-candidate key is cheap: test it before paying for `Gm`.
        let key = match recipe.property {
            Property::Candidates => Some(
                pattern
                    .nodes()
                    .map(|u| data.nodes_with_label(pattern.label(u)).len())
                    .sum(),
            ),
            Property::GmNodes => None,
        };
        if key.is_some_and(|key| open(&bins, key).is_none()) {
            continue;
        }
        let gm = gm_nodes(&pattern, data);
        if gm < recipe.gm.0 || gm >= recipe.gm.1 {
            continue;
        }
        if let Some(b) = open(&bins, key.unwrap_or(gm)) {
            bins[b].push(s);
        }
    }
    let mut seeds = Vec::new();
    for i in 0..recipe.per_bin {
        seeds.extend(bins.iter().filter_map(|b| b.get(i)));
    }
    assert!(!seeds.is_empty(), "no pattern fits the workload's recipe");
    seeds
}

/// Nodes of `Gm`: data nodes matched by the global dual simulation of the minimised
/// pattern (0 when the graph does not dual-simulate it).
fn gm_nodes(pattern: &Pattern, data: &Graph) -> usize {
    let config = MatchConfig::optimized();
    dual_simulation_with(
        &minimize_pattern(pattern).pattern,
        data,
        config.refine_strategy,
    )
    .map_or(0, |r| r.matched_data_nodes().len())
}

/// Rotates a pool drawn by [`select`] by `seed`: the mix starts at another query. A
/// rotation keeps the strata interleaved.
pub fn rotate(pool: &mut [u64], seed: u64) {
    let start = (seed % pool.len() as u64) as usize;
    pool.rotate_left(start);
}

pub fn extract(data: &Graph, seeds: &[u64]) -> Vec<Pattern> {
    seeds
        .iter()
        .map(|&s| experiment_pattern(data, 6, s))
        .collect()
}

/// The repository's oracle shape for `Match+` rows: fresh BFS balls, scratch
/// refinement, sequential, on the same match-graph substrate.
pub fn oracle_config() -> MatchConfig {
    MatchConfig::optimized()
        .sequential()
        .with_ball_strategy(BallStrategy::FreshBfs)
        .with_refine_seed(RefineSeed::FromScratch)
}

/// A fingerprint of a query's rows, so oracle rows need not be kept in memory. The
/// `shape` digest leaves out the relation pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub full: u64,
    pub shape: u64,
}

pub fn digest(rows: &[PerfectSubgraph]) -> Digest {
    let mut shape = DefaultHasher::new();
    rows.len().hash(&mut shape);
    for row in rows {
        (row.center, row.radius, &row.nodes, &row.edges).hash(&mut shape);
    }
    let mut full = DefaultHasher::new();
    shape.finish().hash(&mut full);
    for row in rows {
        row.relation.hash(&mut full);
    }
    Digest {
        full: full.finish(),
        shape: shape.finish(),
    }
}

/// Oracle row digests of every pattern, computed untimed on up to two threads (the
/// oracle itself is sequential).
pub fn oracle_digests(patterns: &[Pattern], data: &Graph) -> Vec<Digest> {
    let config = oracle_config();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let mut digests = vec![None; patterns.len()];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (t..patterns.len())
                        .step_by(threads)
                        .map(|q| {
                            (
                                q,
                                digest(&strong_simulation(&patterns[q], data, &config).subgraphs),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for (q, d) in worker.join().expect("an oracle worker panicked") {
                digests[q] = Some(d);
            }
        }
    });
    digests
        .into_iter()
        .map(|d| d.expect("every query has an oracle digest"))
        .collect()
}

/// Runs the set-up at least `SETUP_REPEATS` times and for at least `SETUP_SECONDS`,
/// records the median as `setup_s` and keeps the last result. Earlier results are
/// dropped before the next set-up starts.
pub fn timed_setup<T>(report: &mut Report, mut setup: impl FnMut() -> T) -> T {
    let mut seconds = Vec::new();
    let mut last = None;
    while seconds.len() < SETUP_REPEATS || seconds.iter().sum::<f64>() < SETUP_SECONDS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        seconds.push(start.elapsed().as_secs_f64());
    }
    report.metric("setup_s", median(&seconds), "s", Some(seconds.len()));
    last.expect("at least one set-up")
}

/// One closed-loop client: calls `op(i)` for `i = 0, 1, …` until `seconds` of wall
/// time have passed, stopping only when `i` is a multiple of `granule` so the run
/// covers whole mix cycles.
pub fn closed_loop(seconds: f64, granule: usize, mut op: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i % granule != 0 || start.elapsed().as_secs_f64() < seconds {
        op(i);
        i += 1;
    }
}

/// Reports `<prefix>_ms_p50` and `<prefix>_ms_p90` of a latency sample.
pub fn report_latency(report: &mut Report, prefix: &str, ms: &[f64]) {
    let n = Some(ms.len());
    report.metric(&format!("{prefix}_ms_p50"), percentile(ms, 50.0), "ms", n);
    report.metric(&format!("{prefix}_ms_p90"), percentile(ms, 90.0), "ms", n);
}

/// Operations per second of busy time: a client that sends the next operation as soon
/// as the previous one returns.
pub fn per_second(ms: &[f64]) -> f64 {
    ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3)
}

pub fn report_failed_frac(report: &mut Report) {
    let frac = report.failed() as f64 / report.attempted().max(1) as f64;
    report.metric(
        "failed_frac",
        frac,
        "fraction",
        Some(report.attempted() as usize),
    );
}

/// The global state the coordinator of a `Match+` query computes before any ball: the
/// global relation, `Gm` and the relation renumbered into `Gm`. `None` when the graph
/// does not dual-simulate the pattern (no ball can match).
pub type Global = Option<(MatchRelation, ExtractedSubgraph, MatchRelation)>;

/// Minimisation, global dual simulation and `Gm` extraction, each under its own span.
pub fn traced_global(tracer: &mut Tracer, pattern: &Pattern, data: &Graph) -> Global {
    let config = MatchConfig::optimized();
    let minimized = tracer.span("minimize", |_| minimize_pattern(pattern));
    let relation = tracer.span("dual", |_| {
        dual_simulation_with(&minimized.pattern, data, config.refine_strategy)
    });
    relation.map(|relation| {
        let (sub, inner) = tracer.span("gm", |_| {
            relation.extract_matched_subgraph(data, &mut BitSet::new(0))
        });
        (relation, sub, inner)
    })
}

/// The ball pipeline on the prepared global state, under the `balls` span.
pub fn traced_balls(
    tracer: &mut Tracer,
    pattern: &Pattern,
    data: &Graph,
    config: &MatchConfig,
    global: &Global,
) -> Option<MatchOutput> {
    let (relation, sub, inner) = global.as_ref()?;
    let prepared = PreparedGlobal {
        relation,
        gm: Some((sub, inner)),
    };
    Some(tracer.span("balls", |_| {
        match_with_prepared(pattern, data, config, Some(prepared), None)
    }))
}

/// Per-query layer counters summed over the traced queries.
#[derive(Default)]
pub struct Layers {
    globals: usize,
    pairs: f64,
    gm_nodes: f64,
    gm_edges: f64,
    data_nodes: f64,
    balls: Vec<MatchStats>,
}

impl Layers {
    pub fn add_global(&mut self, global: &Global, data_nodes: usize) {
        self.globals += 1;
        self.data_nodes += data_nodes as f64;
        if let Some((relation, sub, _)) = global {
            self.pairs += relation.pair_count() as f64;
            self.gm_nodes += sub.node_count() as f64;
            self.gm_edges += sub.edge_count() as f64;
        }
    }

    /// Keeps the counters of one ball-pipeline run.
    pub fn add_balls(&mut self, stats: MatchStats) {
        self.balls.push(stats);
    }

    /// Reports the minimise, dual, `Gm`, ball and pool layers. Busy times and counts
    /// are means per traced query; shares are against the traced `query` spans.
    pub fn report(&self, report: &mut Report, tracer: &Tracer, patterns: &[Pattern]) {
        let self_ms = tracer.self_ms();
        let busy = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
        let query_ms: f64 = tracer.durations_ms("query").iter().sum();
        let queries = tracer.durations_ms("query").len().max(1) as f64;
        let reduced = patterns
            .iter()
            .filter(|p| minimize_pattern(p).reduced())
            .count();
        report.metric("minimize.busy_ms", busy("minimize") / queries, "ms", None);
        report.metric("minimize.reduced_queries", reduced as f64, "count", None);
        report.metric("dual.busy_ms", busy("dual") / queries, "ms", None);
        report.metric("dual.share", busy("dual") / query_ms, "fraction", None);
        let globals = self.globals.max(1) as f64;
        report.metric("dual.pairs", self.pairs / globals, "pairs", None);
        report.metric("gm.busy_ms", busy("gm") / queries, "ms", None);
        report.metric("gm.nodes", self.gm_nodes / globals, "nodes", None);
        report.metric("gm.edges", self.gm_edges / globals, "edges", None);
        report.metric(
            "gm.fraction",
            self.gm_nodes / self.data_nodes.max(1.0),
            "fraction",
            None,
        );
        if self.balls.is_empty() {
            return;
        }
        let runs = self.balls.len() as f64;
        let sum = |f: fn(&MatchStats) -> usize| self.balls.iter().map(f).sum::<usize>() as f64;
        let processed = sum(|s| s.balls_processed);
        let built = sum(|s| s.balls_built);
        let reused = sum(|s| s.balls_reused);
        let warm = sum(|s| s.balls_warm_started);
        report.metric("balls.busy_ms", busy("balls") / queries, "ms", None);
        report.metric("balls.share", busy("balls") / query_ms, "fraction", None);
        report.metric("balls.processed", processed / runs, "balls", None);
        report.metric("balls.built", built / runs, "balls", None);
        report.metric("balls.reused", reused / runs, "balls", None);
        report.metric(
            "balls.reuse_ratio",
            reused / (built + reused).max(1.0),
            "fraction",
            None,
        );
        report.metric("balls.warm_started", warm / runs, "balls", None);
        report.metric(
            "balls.warm_ratio",
            warm / processed.max(1.0),
            "fraction",
            None,
        );
        let seeded = sum(|s| s.seeded_pairs);
        report.metric("balls.seeded_pairs", seeded / runs, "pairs", None);
        let removed = sum(|s| s.filter_removed_pairs);
        report.metric("balls.filter_removed_pairs", removed / runs, "pairs", None);
        let pool = ssim_core::parallel::available_threads() as f64;
        report.metric("parallel.workers", pool, "count", None);
        let chunks = sum(|s| s.chunks_processed);
        report.metric("parallel.chunks_processed", chunks / runs, "count", None);
        let stolen = sum(|s| s.chunks_stolen);
        report.metric("parallel.chunks_stolen", stolen / runs, "count", None);
        let split = sum(|s| s.chunks_split);
        report.metric("parallel.chunks_split", split / runs, "count", None);
    }
}

/// `parallel.speedup_vs_1`: the ball stage of the first `QUERIES` queries on the default
/// pool against the same stage with `with_thread_limit(1)`, alternating, best of
/// `ROUNDS`.
pub fn report_pool_speedup(report: &mut Report, patterns: &[Pattern], data: &Graph) {
    const QUERIES: usize = 16;
    const ROUNDS: usize = 2;
    let pool = MatchConfig::optimized();
    let single = pool.with_thread_limit(1);
    let mut tracer = Tracer::default();
    let (mut pool_ms, mut single_ms) = (0.0, 0.0);
    for pattern in patterns.iter().take(QUERIES) {
        let global = traced_global(&mut tracer, pattern, data);
        let mut best = [f64::INFINITY; 2];
        for _ in 0..ROUNDS {
            for (slot, config) in [&pool, &single].into_iter().enumerate() {
                let start = Instant::now();
                std::hint::black_box(traced_balls(&mut tracer, pattern, data, config, &global));
                best[slot] = best[slot].min(ms_since(start));
            }
        }
        pool_ms += best[0];
        single_ms += best[1];
    }
    report.metric("parallel.speedup_vs_1", single_ms / pool_ms, "ratio", None);
}

/// `trace.overhead_frac`: mean traced operation time against the untraced one.
pub fn report_overhead(report: &mut Report, traced_ms: &[f64], untraced_ms: &[f64]) {
    let frac = mean(traced_ms) / mean(untraced_ms) - 1.0;
    report.metric(
        "trace.overhead_frac",
        frac,
        "fraction",
        Some(traced_ms.len()),
    );
}
