//! The neighbour-label signature prefilter leaves every dual-simulation result unchanged.
//!
//! The worklist engine starts the whole-graph dual simulation from
//! [`dual_candidates`]: label candidates whose neighbours' label signatures cover the
//! pattern node's children and parents. The naive fixpoint still starts from the plain
//! label candidates, so it is an independent oracle. These properties pin the two
//! bit-identical:
//!
//! * on random graphs with 2 to 200 labels (above 64, labels share signature bits) and
//!   self-loops, against patterns cut from the graph and random patterns;
//! * on an [`OverlayGraph`] along random insert/delete streams, where tombstones leave
//!   stale signature bits, under the default policy and with compaction after every
//!   batch;
//! * for graph simulation, which keeps the plain label candidates.

mod common;

use common::random_delta;
use proptest::prelude::*;
use ssim_core::dual::{dual_candidates, dual_simulation_with};
use ssim_core::incremental::global_fixpoint;
use ssim_core::simulation::{graph_simulation, graph_simulation_with, initial_candidates};
use ssim_core::{MatchRelation, RefineStrategy};
use ssim_datasets::patterns::{extract_pattern, random_pattern, PatternGenConfig};
use ssim_graph::{CompactionPolicy, Graph, GraphView, Label, NodeId, OverlayGraph, Pattern};

/// Strategy: `n ∈ [3, 40)` nodes, up to `3n` random edges plus up to 3 explicit
/// self-loops. Labels are drawn from an alphabet of 2 to 200 labels, or (`crowded`)
/// from 12 labels `c + 64k` that share only 4 signature bits, so repeated labels and
/// bit collisions are both common.
fn labelled_graph() -> impl Strategy<Value = Graph> {
    (3usize..40, 2u32..200, any::<bool>()).prop_flat_map(|(n, labels, crowded)| {
        let node_labels = proptest::collection::vec(0u32..labels, n);
        let edges = proptest::collection::vec((0u32..n as u32, 0u32..n as u32), 0..(3 * n));
        let loops = proptest::collection::vec(0u32..n as u32, 0..3);
        (node_labels, edges, loops).prop_map(move |(node_labels, mut edges, loops)| {
            edges.extend(loops.into_iter().map(|v| (v, v)));
            let label = |x: u32| match crowded {
                true => Label(x % 4 + 64 * (x / 4 % 3)),
                false => Label(x),
            };
            Graph::from_edges(node_labels.into_iter().map(label).collect(), &edges)
                .expect("endpoints are in range by construction")
        })
    })
}

/// A pattern for `data`: cut from the graph itself (so it usually matches) or drawn at
/// random over the graph's alphabet size.
fn pattern_for(data: &Graph, cut: bool, size: usize, seed: u64) -> Pattern {
    let alphabet = data
        .labels()
        .iter()
        .map(|l| l.0 as usize + 1)
        .max()
        .unwrap_or(1);
    cut.then(|| extract_pattern(data, size, seed))
        .flatten()
        .unwrap_or_else(|| {
            random_pattern(&PatternGenConfig {
                nodes: size,
                alpha: 1.2,
                labels: alphabet,
                seed,
            })
        })
}

fn pairs(relation: &Option<MatchRelation>) -> Option<Vec<(u32, u32)>> {
    relation.as_ref().map(MatchRelation::to_sorted_pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The filtered worklist run equals the unfiltered naive oracle, and the maximum dual
    /// simulation lies inside the filtered start relation.
    #[test]
    fn filtered_worklist_matches_naive_fixpoint(
        data in labelled_graph(),
        cut in any::<bool>(),
        size in 2usize..6,
        seed in any::<u64>(),
    ) {
        let q = pattern_for(&data, cut, size, seed);
        let fast = dual_simulation_with(&q, &data, RefineStrategy::Worklist);
        let naive = dual_simulation_with(&q, &data, RefineStrategy::NaiveFixpoint);
        prop_assert_eq!(pairs(&fast), pairs(&naive));
        let start = dual_candidates(&q, &data);
        prop_assert!(start.is_subrelation_of(&initial_candidates(&q, &data)));
        if let Some(maximum) = &naive {
            prop_assert!(maximum.is_subrelation_of(&start));
        }
        // A full view reads the same index as the graph itself.
        let full = dual_candidates(&q, &GraphView::full(&data));
        prop_assert_eq!(full.to_sorted_pairs(), start.to_sorted_pairs());
    }

    /// Along a random delta stream, the fixpoint over the overlay (signatures with stale
    /// tombstone bits) equals the naive fixpoint over the materialised graph.
    #[test]
    fn overlay_fixpoint_matches_naive_on_materialised_graph(
        data in labelled_graph(),
        cut in any::<bool>(),
        size in 2usize..6,
        seed in any::<u64>(),
        stream in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 1..8), 1..6),
        eager in any::<bool>(),
    ) {
        let q = pattern_for(&data, cut, size, seed);
        let policy = if eager { CompactionPolicy::eager() } else { CompactionPolicy::default() };
        let mut overlay = OverlayGraph::with_policy(data, policy);
        for (step, picks) in stream.iter().enumerate() {
            let delta = random_delta(&overlay.to_graph(), picks);
            overlay.apply_delta(&delta).expect("random_delta validates by construction");
            let flat = overlay.to_graph();
            let fast = global_fixpoint(&q, &overlay, RefineStrategy::Worklist);
            let naive = global_fixpoint(&q, &flat, RefineStrategy::NaiveFixpoint);
            prop_assert!(
                fast.to_sorted_pairs() == naive.to_sorted_pairs(),
                "step {step} (eager={eager}): overlay fixpoint diverged"
            );
            let flat_fast = global_fixpoint(&q, &flat, RefineStrategy::Worklist);
            prop_assert_eq!(flat_fast.to_sorted_pairs(), naive.to_sorted_pairs());
        }
    }

    /// Graph simulation keeps the plain label candidates; its worklist run still equals
    /// the naive run on the same graphs.
    #[test]
    fn graph_simulation_matches_naive_run(
        data in labelled_graph(),
        cut in any::<bool>(),
        size in 2usize..6,
        seed in any::<u64>(),
    ) {
        let q = pattern_for(&data, cut, size, seed);
        let fast = graph_simulation_with(&q, &data, RefineStrategy::Worklist);
        let naive = graph_simulation_with(&q, &data, RefineStrategy::NaiveFixpoint);
        prop_assert_eq!(pairs(&fast), pairs(&naive));
    }
}

/// Example 1's shape: a Bio node recommended by an SE without an HR parent. Graph
/// simulation only checks children, and Bio has none in the pattern, so it keeps the
/// node; dual simulation removes it, and the signature prefilter already drops it from
/// the start relation.
#[test]
fn bio_without_hr_parent_is_kept_by_simulation_and_removed_by_dual() {
    const HR: u32 = 0;
    const SE: u32 = 1;
    const BIO: u32 = 2;
    // Pattern: HR -> SE, HR -> Bio, SE -> Bio.
    let pattern = Pattern::from_edges(
        vec![Label(HR), Label(SE), Label(BIO)],
        &[(0, 1), (0, 2), (1, 2)],
    )
    .unwrap();
    // Data: HR0 -> SE1 -> Bio2 with HR0 -> Bio2, and HR0 -> SE3 -> Bio4 (no HR -> Bio4).
    let data = Graph::from_edges(
        vec![Label(HR), Label(SE), Label(BIO), Label(SE), Label(BIO)],
        &[(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)],
    )
    .unwrap();
    let (bio, bio_without_hr) = (NodeId(2), NodeId(4));
    let sim = graph_simulation(&pattern, &data).expect("simulation matches");
    assert!(sim.contains(bio, bio_without_hr), "simulation keeps Bio4");
    let dual = dual_simulation_with(&pattern, &data, RefineStrategy::Worklist)
        .expect("dual simulation matches");
    assert!(
        !dual.contains(bio, bio_without_hr),
        "dual simulation removes Bio4"
    );
    assert!(dual.contains(bio, NodeId(2)));
    let naive = dual_simulation_with(&pattern, &data, RefineStrategy::NaiveFixpoint).unwrap();
    assert_eq!(dual.to_sorted_pairs(), naive.to_sorted_pairs());
    let start = dual_candidates(&pattern, &data);
    assert!(
        !start.contains(bio, bio_without_hr),
        "the prefilter drops Bio4"
    );
    assert!(initial_candidates(&pattern, &data).contains(bio, bio_without_hr));
}
