//! `service-churn`: a `QueryService` holding four standing queries under an edge-churn
//! stream, one ad-hoc query per step.
//!
//! Chosen because the writes exercise overlay staging, fixpoint maintenance, `Gm`
//! re-extraction, the restricted pass and the splice, while the ad-hoc reads run the
//! matcher over the patched overlay — so a write-side gain that slows reads shows.
//!
//! The writes are 8 disjoint groups of 0.1% of the edges. Step `k` deletes group
//! `k % 8` if it is present and re-inserts it if it is not, so steps `16m..16m+7` delete
//! and `16m+8..16m+15` insert, and the graph is back at its start after every 16 steps.
//! After each apply the step registers one ad-hoc query, reads it and deregisters it.
//! At the end of each 16-step cycle, untimed, the oldest standing query is retired and
//! the next one of the standing pool registered: an insert apply costs from under 1 ms
//! to 40 ms per standing query depending on its pattern, so four fixed standing queries
//! would make the apply figures a property of four patterns rather than of the service.
//! `--seed` draws the edge groups and where the standing and ad-hoc pools start.

use crate::oneshot::traced_query;
use crate::query::{
    closed_loop, digest, extract, oracle_digests, per_second, report_failed_frac, report_latency,
    report_overhead, report_pool_speedup, rotate, select, timed_setup, Digest, Layers, Property,
    Recipe, DATASET_SEED,
};
use crate::stats::{mean, median, ms_since, peak_rss_mb, SplitMix};
use crate::trace::Tracer;
use crate::{Args, Report};
use ssim_core::incremental::{global_fixpoint, update_global_fixpoint};
use ssim_core::minimize::minimize_pattern;
use ssim_core::strong::MatchConfig;
use ssim_core::{MatchRelation, QueryId, QueryService, ServiceUpdate, UpdateStats};
use ssim_datasets::reallike::{generate, RealWorldConfig};
use ssim_graph::{Graph, GraphDelta, OverlayGraph, Pattern};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

const GROUPS: usize = 8;
const CYCLE: usize = 2 * GROUPS;
const STANDING: usize = 4;

/// The standing pool: one pattern per `Gm` stratum in every run of 4 consecutive
/// entries, so the four standing queries always span the strata.
const STANDING_RECIPE: Recipe = Recipe {
    gm: (100, 3_000),
    property: Property::GmNodes,
    bins: &[(100, 250), (250, 600), (600, 1_500), (1_500, 3_000)],
    per_bin: 3,
};

/// The ad-hoc pool, taken in turn, one query per step.
const ADHOC_RECIPE: Recipe = Recipe {
    gm: (100, 3_000),
    property: Property::GmNodes,
    bins: &[(100, 300), (300, 1_000), (1_000, 3_000)],
    per_bin: 12,
};

/// The `service-churn` (and `distributed-oneshot`) graph: Amazon-like, 2×10⁵ nodes,
/// 16 labels.
pub fn graph() -> Graph {
    generate(&RealWorldConfig {
        labels: 16,
        ..RealWorldConfig::amazon(200_000, DATASET_SEED)
    })
}

/// Deletion and re-insertion deltas of `GROUPS` disjoint groups of 0.1% of the edges.
fn edge_groups(data: &Graph, seed: u64) -> Vec<(GraphDelta, GraphDelta)> {
    let mut edges: Vec<_> = data.edges().collect();
    let size = edges.len() / 1000;
    let mut rng = SplitMix::new(seed);
    // Partial Fisher-Yates: the first GROUPS * size slots become a uniform sample.
    for i in 0..GROUPS * size {
        let j = i + rng.below(edges.len() - i);
        edges.swap(i, j);
    }
    edges[..GROUPS * size]
        .chunks(size)
        .map(|group| {
            let (mut delete, mut insert) = (GraphDelta::new(), GraphDelta::new());
            for &(from, to) in group {
                delete.delete_edge(from, to);
                insert.insert_edge(from, to);
            }
            (delete, insert)
        })
        .collect()
}

fn is_delete(k: usize) -> bool {
    k % CYCLE < GROUPS
}

fn ends_cycle(k: usize) -> bool {
    k % CYCLE == CYCLE - 1
}

/// The delta of step `k`.
fn delta(groups: &[(GraphDelta, GraphDelta)], k: usize) -> &GraphDelta {
    let (delete, insert) = &groups[k % GROUPS];
    if is_delete(k) {
        delete
    } else {
        insert
    }
}

struct Churn {
    service: QueryService,
    /// The standing pool, then the ad-hoc pool.
    patterns: Vec<Pattern>,
    standing_pool: usize,
    /// Registered standing queries with their pattern index, oldest first.
    standing: VecDeque<(QueryId, usize)>,
    /// Standing-pool index of the next standing query to register.
    next_standing: usize,
    groups: Vec<(GraphDelta, GraphDelta)>,
}

/// What one step measured.
struct Step {
    apply_ms: f64,
    adhoc_ms: f64,
    /// Digest of the ad-hoc rows, taken untimed when the step ends a cycle.
    adhoc_rows: Option<Digest>,
}

impl Churn {
    fn register_standing(&mut self) {
        let index = self.next_standing % self.standing_pool;
        let id = self
            .service
            .register(&self.patterns[index], MatchConfig::optimized());
        self.standing.push_back((id, index));
        self.next_standing += 1;
    }

    /// Retires the oldest standing query and registers the next one.
    fn rotate(&mut self) {
        if let Some((id, _)) = self.standing.pop_front() {
            self.service.deregister(id);
        }
        self.register_standing();
    }

    /// Ad-hoc query of step `k`: the ad-hoc pool in turn.
    fn adhoc(&self, k: usize) -> usize {
        self.standing_pool + k % (self.patterns.len() - self.standing_pool)
    }

    /// One step: the apply, then one ad-hoc query (register, read, deregister).
    fn step(&mut self, k: usize) -> Result<Step, String> {
        let start = Instant::now();
        self.service
            .apply(delta(&self.groups, k))
            .map_err(|e| format!("apply of step {k} failed: {e}"))?;
        let apply_ms = ms_since(start);
        let start = Instant::now();
        let id = self
            .service
            .register(&self.patterns[self.adhoc(k)], MatchConfig::optimized());
        let out = self
            .service
            .output(id)
            .expect("a registered query has an output");
        black_box(out.subgraphs.len());
        let mut adhoc_ms = ms_since(start);
        let adhoc_rows = ends_cycle(k).then(|| digest(&out.subgraphs));
        let start = Instant::now();
        self.service.deregister(id);
        adhoc_ms += ms_since(start);
        Ok(Step {
            apply_ms,
            adhoc_ms,
            adhoc_rows,
        })
    }

    /// At the end of a cycle the graph is back at its start: every standing query must
    /// return its start rows.
    fn check_standing(&self, report: &mut Report, start: &[Digest]) {
        for &(id, index) in &self.standing {
            let rows = self.service.output(id).map(|o| digest(&o.subgraphs));
            report.check(("query", index), rows == Some(start[index]));
        }
    }

    /// Checks step `k` — its delta, one of `CYCLE`, applied, and its ad-hoc query when
    /// the step checked it — and at the end of a cycle checks the standing queries and
    /// rotates them.
    fn finish_step(
        &mut self,
        report: &mut Report,
        k: usize,
        adhoc_ok: Option<bool>,
        start: &[Digest],
    ) {
        report.check(("delta", k % CYCLE), true);
        if let Some(ok) = adhoc_ok {
            report.check(("query", self.adhoc(k)), ok);
        }
        if ends_cycle(k) {
            self.check_standing(report, start);
            self.rotate();
        }
    }

    /// One checked step: the ad-hoc query must return its start rows when the step
    /// ends a cycle.
    fn checked_step(&mut self, report: &mut Report, k: usize, start: &[Digest]) -> Option<Step> {
        match self.step(k) {
            Ok(step) => {
                let adhoc_ok = step.adhoc_rows.map(|d| d == start[self.adhoc(k)]);
                self.finish_step(report, k, adhoc_ok, start);
                Some(step)
            }
            Err(err) => {
                eprintln!("{err}");
                report.check(("delta", k % CYCLE), false);
                None
            }
        }
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let selection_graph = graph();
    let mut seeds = select(&selection_graph, &STANDING_RECIPE, &[]);
    rotate(&mut seeds, args.seed);
    let standing_pool = seeds.len();
    assert!(
        standing_pool >= STANDING,
        "the standing pool holds the standing queries"
    );
    let mut adhoc = select(&selection_graph, &ADHOC_RECIPE, &seeds);
    rotate(&mut adhoc, args.seed);
    seeds.extend(adhoc);
    drop(selection_graph);
    let mut churn = timed_setup(report, || {
        let data = graph();
        let patterns = extract(&data, &seeds);
        let groups = edge_groups(&data, args.seed);
        let mut churn = Churn {
            service: QueryService::new(data),
            patterns,
            standing_pool,
            standing: VecDeque::new(),
            next_standing: 0,
            groups,
        };
        for _ in 0..STANDING {
            churn.register_standing();
        }
        churn
    });
    let start_graph = churn.service.data();
    report.info(format!(
        "graph seed {DATASET_SEED} nodes {} edges {} labels {}; {STANDING} standing queries from a pool of {} and \
         {} ad-hoc queries, 6 nodes each (pattern seeds {:?}); {GROUPS} groups of {} edges; \
         one closed-loop client",
        start_graph.node_count(),
        start_graph.edge_count(),
        start_graph.distinct_label_count(),
        standing_pool,
        churn.patterns.len() - standing_pool,
        seeds,
        churn.groups[0].0.op_count()
    ));
    let start_rows = oracle_digests(&churn.patterns, &start_graph);
    churn.check_standing(report, &start_rows);

    // Untimed warm-up: one whole cycle.
    for k in 0..CYCLE {
        churn.checked_step(report, k, &start_rows);
    }
    if !args.trace {
        let (mut delete_ms, mut insert_ms, mut adhoc_ms, mut step_ms) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        closed_loop(args.seconds, CYCLE, |i| {
            let k = CYCLE + i;
            if let Some(step) = churn.checked_step(report, k, &start_rows) {
                let applies = if is_delete(k) {
                    &mut delete_ms
                } else {
                    &mut insert_ms
                };
                applies.push(step.apply_ms);
                adhoc_ms.push(step.adhoc_ms);
                step_ms.push(step.apply_ms + step.adhoc_ms);
            }
        });
        // Every step completes one ad-hoc query, so queries and steps per second agree.
        report.metric(
            "query_per_s",
            per_second(&step_ms),
            "1/s",
            Some(step_ms.len()),
        );
        report_latency(report, "query", &adhoc_ms);
        report.metric(
            "apply_per_s",
            per_second(&step_ms),
            "1/s",
            Some(step_ms.len()),
        );
        report_latency(report, "delete_apply", &delete_ms);
        report_latency(report, "insert_apply", &insert_ms);
        report_latency(report, "adhoc", &adhoc_ms);
        report.metric("peak_rss_mb", peak_rss_mb(), "MB", None);
        report_failed_frac(report);
        return;
    }
    traced(args, report, churn, start_graph, &start_rows);
}

/// The traced run: half the time untraced, half traced. The traced half replays each
/// step's delta on a private overlay and through `update_global_fixpoint` for every
/// standing query, and decomposes the ad-hoc query into its layer calls on the step's
/// graph, checking the decomposed rows against the service's.
fn traced(
    args: &Args,
    report: &mut Report,
    mut churn: Churn,
    start_graph: Graph,
    start_rows: &[Digest],
) {
    // Tracing overhead is measured on the ad-hoc queries: the standing set rotates, so
    // the two halves apply under different standing queries.
    let mut untraced_ms = Vec::new();
    let mut k = CYCLE;
    closed_loop(args.seconds / 2.0, CYCLE, |_| {
        if let Some(step) = churn.checked_step(report, k, start_rows) {
            untraced_ms.push(step.adhoc_ms);
        }
        k += 1;
    });

    let refine = MatchConfig::optimized().refine_strategy;
    let mut overlay = OverlayGraph::new(start_graph.clone());
    // The replayed fixpoint of each standing query, oldest first like `churn.standing`.
    let replay_state = |pattern: &Pattern, overlay: &OverlayGraph| -> (Pattern, MatchRelation) {
        let pattern = minimize_pattern(pattern).pattern;
        let fixpoint = global_fixpoint(&pattern, overlay, refine);
        (pattern, fixpoint)
    };
    let mut replayed: VecDeque<_> = churn
        .standing
        .iter()
        .map(|&(_, index)| replay_state(&churn.patterns[index], &overlay))
        .collect();
    let mut tracer = Tracer::default();
    let mut layers = Layers::default();
    let mut updates = Vec::new();
    let (mut delete_steps, mut overlay_mass) = (0usize, Vec::new());
    let compactions_before = overlay.compactions();
    closed_loop(args.seconds / 2.0, CYCLE, |_| {
        let adhoc = churn.adhoc(k);
        let step = tracer.request("step", |t| {
            let update = t.span("apply", |_| churn.service.apply(delta(&churn.groups, k)));
            let rows = t.span("adhoc", |_| {
                let id = churn
                    .service
                    .register(&churn.patterns[adhoc], MatchConfig::optimized());
                let rows = churn.service.output(id).map(|o| o.subgraphs.clone());
                churn.service.deregister(id);
                rows
            });
            update.ok().zip(rows)
        });
        let Some((update, adhoc_rows)) = step else {
            eprintln!("step {k} failed");
            report.check(("delta", k % CYCLE), false);
            k += 1;
            return;
        };
        let delta = delta(&churn.groups, k);
        let label = if is_delete(k) {
            delete_steps += 1;
            "fixpoint.delete"
        } else {
            "fixpoint.insert"
        };
        tracer.request("replay", |t| {
            t.span("overlay", |_| overlay.apply_delta(delta))
                .expect("the replayed delta validates on the private overlay");
            for (pattern, fixpoint) in replayed.iter_mut() {
                *fixpoint = t
                    .span(label, |_| {
                        update_global_fixpoint(pattern, &overlay, delta, fixpoint, refine)
                    })
                    .relation;
            }
        });
        overlay_mass.push(overlay.overlay_mass() as f64);
        let flat = overlay.to_graph();
        let config = MatchConfig::optimized();
        let rows = traced_query(
            &mut tracer,
            &mut layers,
            &churn.patterns[adhoc],
            &flat,
            &config,
        );
        let adhoc_ok = rows == adhoc_rows && (!ends_cycle(k) || digest(&rows) == start_rows[adhoc]);
        churn.finish_step(report, k, Some(adhoc_ok), start_rows);
        if ends_cycle(k) {
            replayed.pop_front();
            let &(_, index) = churn
                .standing
                .back()
                .expect("standing queries are registered");
            replayed.push_back(replay_state(&churn.patterns[index], &overlay));
        }
        updates.push((is_delete(k), update));
        k += 1;
    });

    let steps = updates.len().max(1) as f64;
    let insert_steps = (updates.len() - delete_steps).max(1) as f64;
    let durations = |name: &str| tracer.durations_ms(name);
    let total = |name: &str| durations(name).iter().sum::<f64>();
    report.metric(
        "overlay.apply_us",
        1e3 * mean(&durations("overlay")),
        "us",
        None,
    );
    report.metric("overlay.mass", mean(&overlay_mass), "ops", None);
    let compactions = overlay.compactions() - compactions_before;
    report.metric("overlay.compactions", compactions as f64, "count", None);
    let fix_delete = total("fixpoint.delete") / delete_steps.max(1) as f64;
    report.metric("fixpoint.delete_ms", fix_delete, "ms", None);
    report.metric(
        "fixpoint.insert_ms",
        total("fixpoint.insert") / insert_steps,
        "ms",
        None,
    );
    let per_step = |f: &dyn Fn(&ServiceUpdate) -> usize| {
        updates.iter().map(|(_, u)| f(u)).sum::<usize>() as f64 / steps
    };
    let stat = |f: fn(&UpdateStats) -> usize| {
        per_step(&|u: &ServiceUpdate| u.queries.iter().map(|q| f(&q.stats)).sum())
    };
    report.metric(
        "fixpoint.pairs_gained",
        stat(|s| s.pairs_gained),
        "pairs",
        None,
    );
    report.metric("fixpoint.pairs_lost", stat(|s| s.pairs_lost), "pairs", None);
    let recomputed = stat(|s| usize::from(s.relation_recomputed));
    report.metric("fixpoint.recomputed", recomputed, "count", None);
    report.metric("dirty.balls", stat(|s| s.dirty_balls), "balls", None);
    report.metric(
        "dirty.bailed",
        stat(|s| usize::from(s.dirty_bailed)),
        "count",
        None,
    );
    let reextracted = stat(|s| usize::from(s.gm_reextracted));
    report.metric("gm.reextracted", reextracted, "count", None);
    let replayed_ms = total("overlay") + total("fixpoint.delete") + total("fixpoint.insert");
    report.metric(
        "service.apply_self_ms",
        (total("apply") - replayed_ms) / steps,
        "ms",
        None,
    );
    let applies = durations("apply");
    let by_kind = |delete: bool| {
        let ms: Vec<f64> = applies
            .iter()
            .zip(&updates)
            .filter(|(_, (d, _))| *d == delete)
            .map(|(ms, _)| *ms)
            .collect();
        if ms.is_empty() {
            0.0
        } else {
            median(&ms)
        }
    };
    report.metric("service.delete_apply_ms", by_kind(true), "ms", None);
    report.metric("service.insert_apply_ms", by_kind(false), "ms", None);
    let reuses = per_step(&|u| u.sharing.substrate_reuses);
    report.metric("sharing.substrate_reuses", reuses, "count", None);
    let consumers = per_step(&|u| u.sharing.edge_sweep_consumers);
    report.metric("sharing.edge_sweep_consumers", consumers, "count", None);
    layers.report(report, &tracer, &churn.patterns);
    report_pool_speedup(report, &churn.patterns, &start_graph);
    report_overhead(report, &durations("adhoc"), &untraced_ms);
}
