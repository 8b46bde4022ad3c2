//! `distributed-oneshot`: `distributed_strong_simulation` with 2 sites (one thread
//! each), `Range` partitioning and the dual filter on, over the `service-churn` graph
//! and a stratified query pool.
//!
//! Chosen because the partition, shipment and site fan-out layer is measured nowhere
//! else.
//!
//! Known defect, counted as failed operations and not hidden: with `minimize_query` on
//! (the distributed default) the runtime keeps only the minimised pattern and never
//! expands its classes back to the caller's pattern nodes, so on every query that
//! minimisation reduces the rows keep the right nodes and edges but lose relation pairs.
//! `correct` stays true only while every failure has exactly that shape.
//!
//! Queries are drawn like `service-churn`'s ad-hoc queries: `Gm` of 100–3k nodes,
//! stratified on `Gm` size.

use crate::query::{
    closed_loop, digest, extract, oracle_digests, per_second, report_failed_frac, report_latency,
    report_overhead, rotate, select, timed_setup, traced_global, Digest, Layers, Property, Recipe,
    DATASET_SEED,
};
use crate::stats::{mean, ms_since, peak_rss_mb};
use crate::trace::Tracer;
use crate::{churn, Args, Report};
use ssim_core::minimize::minimize_pattern;
use ssim_distributed::{
    distributed_strong_simulation, DistributedConfig, DistributedOutput, GraphPartition,
    PartitionStrategy,
};
use ssim_graph::{Graph, Pattern};
use std::time::Instant;

const SITES: usize = 2;

const RECIPE: Recipe = Recipe {
    gm: (100, 3_000),
    property: Property::GmNodes,
    bins: &[(100, 300), (300, 1_000), (1_000, 3_000)],
    per_bin: 16,
};

fn config() -> DistributedConfig {
    DistributedConfig {
        sites: SITES,
        strategy: PartitionStrategy::Range,
        dual_filter: true,
        ..DistributedConfig::default()
    }
}

struct Query<'a> {
    patterns: &'a [Pattern],
    data: &'a Graph,
    oracle: &'a [Digest],
    /// Queries that minimisation reduces, where the known defect can show.
    reduced: Vec<bool>,
}

impl Query<'_> {
    /// Runs query `q`, checks its rows against the centralized rows and returns its
    /// latency, row digest and output.
    fn run(&self, report: &mut Report, q: usize) -> (f64, Option<(Digest, DistributedOutput)>) {
        let start = Instant::now();
        let out = distributed_strong_simulation(&self.patterns[q], self.data, &config());
        let ms = ms_since(start);
        (ms, self.check(report, q, out))
    }

    fn check(
        &self,
        report: &mut Report,
        q: usize,
        out: Result<DistributedOutput, ssim_distributed::DistError>,
    ) -> Option<(Digest, DistributedOutput)> {
        match out {
            Ok(out) => {
                let rows = digest(&out.subgraphs);
                // The known defect: nodes and edges right, relation pairs lost, on a
                // query that minimisation reduces.
                let explained = self.reduced[q] && rows.shape == self.oracle[q].shape;
                report.check_known(("query", q), rows == self.oracle[q], explained);
                Some((rows, out))
            }
            Err(err) => {
                eprintln!("query {q} failed: {err}");
                report.check(("query", q), false);
                None
            }
        }
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let mut seeds = select(&churn::graph(), &RECIPE, &[]);
    rotate(&mut seeds, args.seed);
    let (data, patterns) = timed_setup(report, || {
        let data = churn::graph();
        let patterns = extract(&data, &seeds);
        (data, patterns)
    });
    report.info(format!(
        "graph seed {DATASET_SEED} nodes {} edges {} labels {}; {} queries of 6 nodes (pattern seeds {:?}); \
         sites {SITES} (one thread each), Range partitions, dual filter on, minimisation on; \
         one closed-loop client",
        data.node_count(),
        data.edge_count(),
        data.distinct_label_count(),
        patterns.len(),
        seeds
    ));
    let oracle = oracle_digests(&patterns, &data);
    let query = Query {
        patterns: &patterns,
        data: &data,
        oracle: &oracle,
        reduced: patterns
            .iter()
            .map(|p| minimize_pattern(p).reduced())
            .collect(),
    };
    let pool = patterns.len();
    // Untimed warm-up pass.
    for q in 0..pool {
        query.run(report, q);
    }
    if !args.trace {
        let (mut ms, mut shipped) = (Vec::new(), Vec::new());
        // Whole passes over the pool, so every query weighs the same in the figures.
        closed_loop(args.seconds, pool, |i| {
            let (latency, out) = query.run(report, i % pool);
            ms.push(latency);
            shipped.extend(out.map(|(_, o)| o.traffic.shipped_nodes as f64));
        });
        report.metric("query_per_s", per_second(&ms), "1/s", Some(ms.len()));
        report_latency(report, "query", &ms);
        let per_query = mean(&shipped);
        report.metric(
            "shipped_nodes_per_query",
            per_query,
            "nodes",
            Some(shipped.len()),
        );
        report.metric("peak_rss_mb", peak_rss_mb(), "MB", None);
        report_failed_frac(report);
        return;
    }

    // Traced run: half untraced; half with the coordinator's stages replayed through
    // their public calls ahead of the runtime call, all under one `query` span.
    let mut untraced_ms = Vec::new();
    let mut untraced_rows = vec![None; pool];
    closed_loop(args.seconds / 2.0, pool, |i| {
        let (ms, out) = query.run(report, i % pool);
        untraced_ms.push(ms);
        untraced_rows[i % pool] = out.map(|(rows, _)| rows);
    });
    let mut tracer = Tracer::default();
    let mut layers = Layers::default();
    let mut traffic = Vec::new();
    closed_loop(args.seconds / 2.0, pool, |i| {
        let q = i % pool;
        let out = tracer.request("query", |t| {
            let global = traced_global(t, &patterns[q], &data);
            layers.add_global(&global, data.node_count());
            t.span("partition", |_| {
                GraphPartition::new(&data, SITES, PartitionStrategy::Range)
            });
            t.span("runtime", |_| {
                distributed_strong_simulation(&patterns[q], &data, &config())
            })
        });
        if let Some((rows, out)) = query.check(report, q, out) {
            report.check(("query", q), Some(rows) == untraced_rows[q]);
            traffic.push(out.traffic);
        }
    });
    layers.report(report, &tracer, &patterns);

    let partition = GraphPartition::new(&data, SITES, PartitionStrategy::Range);
    report.metric(
        "partition.edge_cut",
        partition.edge_cut(&data) as f64,
        "edges",
        None,
    );
    let sizes: Vec<f64> = partition
        .fragment_sizes()
        .iter()
        .map(|&n| n as f64)
        .collect();
    let imbalance = sizes.iter().copied().fold(0.0, f64::max) / mean(&sizes);
    report.metric("partition.imbalance", imbalance, "ratio", None);
    let self_ms = tracer.self_ms();
    let busy = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let queries = tracer.requests().max(1) as f64;
    let coordinator = busy("minimize") + busy("dual") + busy("gm") + busy("partition");
    report.metric("coordinator.busy_ms", coordinator / queries, "ms", None);
    // The runtime repeats the coordinator's stages inside its own call.
    let sites = busy("runtime") - coordinator;
    report.metric("sites.busy_ms", sites / queries, "ms", None);
    let per_query = |f: fn(&ssim_distributed::TrafficStats) -> f64| {
        traffic.iter().map(f).sum::<f64>() / traffic.len().max(1) as f64
    };
    report.metric(
        "traffic.border_balls",
        per_query(|t| t.border_balls as f64),
        "balls",
        None,
    );
    report.metric(
        "traffic.shipped_balls",
        per_query(|t| t.shipped_balls as f64),
        "balls",
        None,
    );
    report.metric(
        "traffic.shipped_edges",
        per_query(|t| t.shipped_edges as f64),
        "edges",
        None,
    );
    report.metric(
        "traffic.chunks_stolen",
        per_query(|t| t.chunks_stolen as f64),
        "count",
        None,
    );
    let skew = |t: &ssim_distributed::TrafficStats| {
        let balls: Vec<f64> = t.balls_per_site.iter().map(|&n| n as f64).collect();
        let mean_balls = mean(&balls);
        if mean_balls > 0.0 {
            balls.iter().copied().fold(0.0, f64::max) / mean_balls
        } else {
            1.0
        }
    };
    report.metric(
        "traffic.site_balls_max_over_mean",
        per_query(skew),
        "ratio",
        None,
    );
    report_overhead(report, &tracer.durations_ms("runtime"), &untraced_ms);
}
