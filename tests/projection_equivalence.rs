//! Differential properties of the two id-space hand-overs of `Match+`.
//!
//! Both hand-overs compute their sets by walking the smaller side. Each is checked here
//! against the algorithm that walks the larger side, kept in this file as the reference:
//!
//! * **per-ball projection** — [`MatchRelation::project_compact`] walks the ball's
//!   members and tests each pattern node's bit. The reference walks every pair of the
//!   relation and looks it up in the ball. The two must return equal relations for
//!   balls from [`CompactBall::build`] and from [`BallForest`] slides, for relations
//!   larger and smaller than the ball, for an empty relation, and for pairs outside the
//!   ball;
//! * **extraction** — [`ExtractedSubgraph`] translates outer ids with a rank directory
//!   over the membership bitset. The reference fills a `u32` table sized to the outer
//!   graph. Both must produce the same CSR, and `inner_of`/`outer_of` must round-trip
//!   for every outer id. Capacities that are not a multiple of 64 and the ids around
//!   word boundaries (63, 64, 65 and the last id) are pinned by a deterministic test.

mod common;

use common::{center_sequence, data_graph_sized, pattern};
use proptest::prelude::*;
use ssim_core::dual::dual_simulation;
use ssim_core::{BallForest, MatchRelation};
use ssim_graph::{BallScratch, BitSet, CompactBall, ExtractedSubgraph, Graph, Label, NodeId};

/// Reference projection: walks every pair of the relation and keeps those whose data
/// node is in the ball, under its local id.
fn project_by_pairs(relation: &MatchRelation, ball: &CompactBall) -> MatchRelation {
    let mut out = MatchRelation::empty(relation.pattern_node_count(), ball.node_count());
    for (u, v) in relation.pairs() {
        if let Some(local) = ball.local_of(v) {
            out.insert(u, local);
        }
    }
    out
}

/// A graph's CSR as plain arrays: labels, forward offsets and targets, reverse offsets
/// and targets.
type Csr = (Vec<Label>, Vec<usize>, Vec<u32>, Vec<usize>, Vec<u32>);

/// Reads a graph's CSR back through its public accessors.
fn csr_of(graph: &Graph) -> Csr {
    let mut csr: Csr = (Vec::new(), vec![0], Vec::new(), vec![0], Vec::new());
    for v in graph.nodes() {
        csr.0.push(graph.label(v));
        csr.2.extend(graph.out_neighbors(v).map(|t| t.0));
        csr.1.push(csr.2.len());
        csr.4.extend(graph.in_neighbors(v).map(|s| s.0));
        csr.3.push(csr.4.len());
    }
    csr
}

/// Reference extraction: a `u32` table over the whole outer graph maps every member to
/// its position among the members (`u32::MAX` for non-members), and the CSR is copied
/// through it. Returns the CSR, the inner → outer list and the table.
fn extract_by_table(outer: &Graph, members: &BitSet) -> (Csr, Vec<NodeId>, Vec<u32>) {
    let mut table = vec![u32::MAX; outer.node_count()];
    let mut to_outer = Vec::new();
    for (i, m) in members.iter().enumerate() {
        table[m] = i as u32;
        to_outer.push(NodeId::from_index(m));
    }
    let mut csr: Csr = (Vec::new(), vec![0], Vec::new(), vec![0], Vec::new());
    for &o in &to_outer {
        csr.0.push(outer.label(o));
        csr.2.extend(
            outer
                .out_neighbors(o)
                .map(|t| table[t.index()])
                .filter(|&t| t != u32::MAX),
        );
        csr.1.push(csr.2.len());
        csr.4.extend(
            outer
                .in_neighbors(o)
                .map(|s| table[s.index()])
                .filter(|&s| s != u32::MAX),
        );
        csr.3.push(csr.4.len());
    }
    (csr, to_outer, table)
}

/// Checks the rank-directory extraction against the table reference: same CSR, same
/// inner → outer list, and `inner_of` equal to the table for every outer id (and `None`
/// past the end).
fn check_extraction(outer: &Graph, members: &BitSet, context: &str) -> Result<(), String> {
    let sub = ExtractedSubgraph::induced(outer, members);
    let (csr, to_outer, table) = extract_by_table(outer, members);
    prop_assert!(csr_of(sub.graph()) == csr, "{context}: CSR differs");
    prop_assert!(
        sub.to_outer() == to_outer.as_slice(),
        "{context}: to_outer differs"
    );
    prop_assert_eq!(sub.node_count(), members.len());
    for (o, &want) in table.iter().enumerate() {
        let got = sub.inner_of(NodeId::from_index(o));
        let want = (want != u32::MAX).then_some(NodeId(want));
        prop_assert!(
            got == want,
            "{context}: inner_of({o}) = {got:?}, want {want:?}"
        );
        if let Some(inner) = got {
            prop_assert!(
                sub.outer_of(inner) == NodeId::from_index(o),
                "{context}: outer_of(inner_of({o})) does not round-trip"
            );
        }
    }
    prop_assert!(sub
        .inner_of(NodeId::from_index(outer.node_count()))
        .is_none());
    Ok(())
}

/// A relation over `data_nodes` for `pattern_nodes` pattern nodes, with each pair
/// present with probability `density / 4` (0 gives the empty relation, 4 the full one).
fn random_relation(
    pattern_nodes: usize,
    data_nodes: usize,
    density: u64,
    seed: u64,
) -> MatchRelation {
    let mut relation = MatchRelation::empty(pattern_nodes, data_nodes);
    let mut state = seed;
    for u in 0..pattern_nodes {
        for v in 0..data_nodes {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            if (z ^ (z >> 31)) % 4 < density {
                relation.insert(NodeId::from_index(u), NodeId::from_index(v));
            }
        }
    }
    relation
}

/// Checks the member-driven projection against the pairs-driven reference on one ball,
/// for the given relations.
fn check_projection(
    relations: &[MatchRelation],
    ball: &CompactBall,
    context: &str,
) -> Result<(), String> {
    for (i, relation) in relations.iter().enumerate() {
        let got = relation.project_compact(ball);
        let want = project_by_pairs(relation, ball);
        prop_assert_eq!(got.data_node_capacity(), ball.node_count());
        prop_assert!(
            got == want,
            "{context}, relation {i}: {:?} vs {:?}",
            got.to_sorted_pairs(),
            want.to_sorted_pairs()
        );
    }
    Ok(())
}

/// A graph of `n` nodes, three labels, a forward chain plus a long-range edge per node,
/// so that balls and extractions cross word boundaries.
fn chain_graph(n: usize) -> Graph {
    let labels = (0..n).map(|i| Label((i % 3) as u32)).collect();
    let n32 = n as u32;
    let edges: Vec<(u32, u32)> = (0..n32)
        .flat_map(|i| [(i, (i + 1) % n32), (i, (i * 7 + 3) % n32)])
        .collect();
    Graph::from_edges(labels, &edges).expect("endpoints are in range by construction")
}

fn bitset_of(capacity: usize, ids: impl IntoIterator<Item = usize>) -> BitSet {
    let mut set = BitSet::new(capacity);
    for i in ids {
        if i < capacity {
            set.insert(i);
        }
    }
    set
}

#[test]
fn extraction_edge_ids_and_capacities() {
    for n in [1usize, 2, 63, 64, 65, 127, 128, 129, 130, 200] {
        let g = chain_graph(n);
        let last = n - 1;
        let member_sets = [
            ("empty", BitSet::new(n)),
            ("full", BitSet::full(n)),
            ("word edges", bitset_of(n, [63, 64, 65, last])),
            ("last only", bitset_of(n, [last])),
            ("first only", bitset_of(n, [0])),
            ("every third", bitset_of(n, (0..n).step_by(3))),
            ("all but 64", bitset_of(n, (0..n).filter(|&i| i != 64))),
        ];
        for (name, members) in &member_sets {
            if let Err(e) = check_extraction(&g, members, &format!("n = {n}, {name}")) {
                panic!("{e}");
            }
        }
    }
}

#[test]
fn projection_edge_ids() {
    let n = 130;
    let g = chain_graph(n);
    let mut scratch = BallScratch::new();
    let mut relations = vec![MatchRelation::empty(3, n)];
    let mut edges = MatchRelation::empty(3, n);
    for u in 0..3 {
        for v in [0, 63, 64, 65, n - 1] {
            edges.insert(NodeId(u), NodeId::from_index(v));
        }
    }
    relations.push(edges);
    relations.push(random_relation(3, n, 1, 0));
    relations.push(random_relation(3, n, 4, 0));
    // Radius `n` covers the whole (strongly connected) graph, so local ids cross the
    // word boundaries too.
    for center in [0usize, 63, 64, 65, n - 1] {
        for radius in [0, 1, 2, 3, n] {
            let ball = CompactBall::build(&g, NodeId::from_index(center), radius, &mut scratch);
            let context = format!("ball({center}, {radius})");
            if let Err(e) = check_projection(&relations, &ball, &context) {
                panic!("{e}");
            }
            ball.recycle(&mut scratch);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Balls from `CompactBall::build` and from `BallForest` slides, against an empty,
    /// sparse, dense and full relation each.
    #[test]
    fn projection_equals_pairs_reference(
        data in data_graph_sized(200, 4),
        pattern_nodes in 1usize..6,
        seed in any::<u64>(),
        radius in 0usize..4,
        jumps in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        let n = data.node_count();
        let relations: Vec<MatchRelation> = (0..=4)
            .map(|density| random_relation(pattern_nodes, n, density, seed ^ density))
            .collect();
        let mut scratch = BallScratch::new();
        for center in data.nodes() {
            let ball = CompactBall::build(&data, center, radius, &mut scratch);
            check_projection(&relations, &ball, &format!("build({center}, {radius})"))?;
            ball.recycle(&mut scratch);
        }
        let mut forest = BallForest::new(&data, radius);
        for center in center_sequence(&data, &jumps) {
            forest.advance(center);
            let ball = forest.compact(&mut scratch);
            check_projection(&relations, &ball, &format!("slide({center}, {radius})"))?;
            ball.recycle(&mut scratch);
        }
    }

    /// The match-graph substrate as `Match+` runs it: the global dual-simulation
    /// relation renumbered into `Gm`, projected onto balls built inside `Gm`.
    #[test]
    fn projection_on_match_graph_equals_pairs_reference(
        data in data_graph_sized(200, 4),
        q in pattern(),
        radius in 0usize..4,
    ) {
        let Some(global) = dual_simulation(&q, &data) else {
            return Ok(());
        };
        let mut matched = BitSet::new(0);
        let (gm, inner) = global.extract_matched_subgraph(&data, &mut matched);
        let relations = [inner];
        let mut scratch = BallScratch::new();
        for center in gm.graph().nodes() {
            let ball = CompactBall::build(gm.graph(), center, radius, &mut scratch);
            check_projection(&relations, &ball, &format!("Gm ball({center}, {radius})"))?;
            ball.recycle(&mut scratch);
        }
    }

    /// Random membership sets over graphs of up to 200 nodes.
    #[test]
    fn extraction_equals_table_reference(
        data in data_graph_sized(200, 4),
        density in 0u64..5,
        seed in any::<u64>(),
    ) {
        let n = data.node_count();
        let picks = random_relation(1, n, density, seed);
        let members = picks.candidates(NodeId(0)).clone();
        check_extraction(&data, &members, &format!("n = {n}, density {density}/4"))?;
    }
}
