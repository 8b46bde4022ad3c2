//! `oneshot-selective` and `oneshot-dense`: one-shot `Match+` queries, one at a time.
//!
//! * `oneshot-selective` — `amazon_like` at 10⁶ nodes, 3.3×10⁶ edges and 200 labels,
//!   queries whose `Gm` holds at most 100 nodes, stratified on label candidates.
//!   Chosen because global dual simulation is nearly the whole query and the ball
//!   pipeline is almost idle: a dual-simulation change moves it, a ball-layer change
//!   should not.
//! * `oneshot-dense` — `RealWorldConfig::amazon(2×10⁵)` with 8 labels, queries whose
//!   `Gm` holds 2k–9k nodes, stratified on `Gm` size. Chosen because the ball pipeline
//!   (forest slides, warm starts, compact balls, the steal scheduler) dominates and dual
//!   simulation is a minor share.

use crate::query::{
    closed_loop, digest, extract, oracle_digests, per_second, report_failed_frac, report_latency,
    report_overhead, report_pool_speedup, rotate, select, timed_setup, traced_balls, traced_global,
    Digest, Layers, Property, Recipe, DATASET_SEED,
};
use crate::stats::{ms_since, peak_rss_mb};
use crate::trace::Tracer;
use crate::{Args, Report, Workload};
use ssim_core::strong::{strong_simulation, MatchConfig};
use ssim_core::PerfectSubgraph;
use ssim_datasets::reallike::{amazon_like, generate, RealWorldConfig};
use ssim_graph::{Graph, Pattern};
use std::time::Instant;

const SELECTIVE: Recipe = Recipe {
    gm: (1, 101),
    property: Property::Candidates,
    bins: &[
        (0, 80_000),
        (80_000, 130_000),
        (130_000, 180_000),
        (180_000, usize::MAX),
    ],
    per_bin: 24,
};

const DENSE: Recipe = Recipe {
    gm: (2_000, 9_000),
    property: Property::GmNodes,
    bins: &[
        (2_000, 3_000),
        (3_000, 4_500),
        (4_500, 6_500),
        (6_500, 9_000),
    ],
    per_bin: 12,
};

fn graph(workload: Workload) -> Graph {
    match workload {
        Workload::OneshotSelective => amazon_like(1_000_000, DATASET_SEED),
        Workload::OneshotDense => generate(&RealWorldConfig {
            labels: 8,
            ..RealWorldConfig::amazon(200_000, DATASET_SEED)
        }),
        _ => unreachable!("not a one-shot workload"),
    }
}

pub fn run(workload: Workload, args: &Args, report: &mut Report) {
    let recipe = match workload {
        Workload::OneshotSelective => &SELECTIVE,
        _ => &DENSE,
    };
    let mut seeds = select(&graph(workload), recipe, &[]);
    rotate(&mut seeds, args.seed);
    let (data, patterns) = timed_setup(report, || {
        let data = graph(workload);
        let patterns = extract(&data, &seeds);
        (data, patterns)
    });
    report.info(format!(
        "graph seed {DATASET_SEED} nodes {} edges {} labels {}; {} queries of 6 nodes (pattern seeds {:?}); \
         Match+ on the default pool; one closed-loop client",
        data.node_count(),
        data.edge_count(),
        data.distinct_label_count(),
        patterns.len(),
        seeds
    ));
    let oracle = oracle_digests(&patterns, &data);
    let config = MatchConfig::optimized();
    let run_query = |report: &mut Report, q: usize| -> (f64, Digest) {
        let start = Instant::now();
        let out = strong_simulation(&patterns[q], &data, &config);
        let ms = ms_since(start);
        let rows = digest(&out.subgraphs);
        report.check(("query", q), rows == oracle[q]);
        (ms, rows)
    };
    let pool = patterns.len();
    // Untimed warm-up pass: the first queries of a process run cold.
    for q in 0..pool {
        run_query(report, q);
    }
    if !args.trace {
        // Whole passes over the pool, so every query weighs the same in the figures.
        let mut ms = Vec::new();
        closed_loop(args.seconds, pool, |i| {
            ms.push(run_query(report, i % pool).0)
        });
        report.metric("query_per_s", per_second(&ms), "1/s", Some(ms.len()));
        report_latency(report, "query", &ms);
        report.metric("peak_rss_mb", peak_rss_mb(), "MB", None);
        report_failed_frac(report);
        return;
    }

    // Traced run: half the time untraced, half decomposed into layer calls. Both halves
    // run whole passes over the queries.
    let mut untraced_ms = Vec::new();
    let mut untraced_rows = vec![None; pool];
    closed_loop(args.seconds / 2.0, pool, |i| {
        let (ms, rows) = run_query(report, i % pool);
        untraced_ms.push(ms);
        untraced_rows[i % pool] = Some(rows);
    });
    let mut tracer = Tracer::default();
    let mut layers = Layers::default();
    closed_loop(args.seconds / 2.0, pool, |i| {
        let q = i % pool;
        let rows = traced_query(&mut tracer, &mut layers, &patterns[q], &data, &config);
        report.check(("query", q), Some(digest(&rows)) == untraced_rows[q]);
    });
    layers.report(report, &tracer, &patterns);
    report_pool_speedup(report, &patterns, &data);
    report_overhead(report, &tracer.durations_ms("query"), &untraced_ms);
}

/// One query decomposed into its layer calls under a `query` request; returns its rows.
pub fn traced_query(
    tracer: &mut Tracer,
    layers: &mut Layers,
    pattern: &Pattern,
    data: &Graph,
    config: &MatchConfig,
) -> Vec<PerfectSubgraph> {
    tracer.request("query", |t| {
        let global = traced_global(t, pattern, data);
        layers.add_global(&global, data.node_count());
        match traced_balls(t, pattern, data, config, &global) {
            Some(out) => {
                layers.add_balls(out.stats);
                out.subgraphs
            }
            None => Vec::new(),
        }
    })
}
