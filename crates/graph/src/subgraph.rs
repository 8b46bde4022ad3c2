//! Dense subgraph extraction: materialising an induced subgraph as its own CSR graph.
//!
//! The optimised matcher (`Match+`, Fig. 5) computes the global dual-simulation relation
//! once and then only ever works with the *matched* data nodes — the node set of the match
//! graph `Gm`. Running the downstream ball pipeline over the original graph makes every
//! ball BFS pay for the unmatched neighbourhood it traverses and discards; extracting `Gm`
//! once as a dense, renumbered graph shrinks the traversal substrate to the candidate
//! density instead of the raw degree.
//!
//! [`ExtractedSubgraph`] is that extraction: a membership bitset over the outer graph is
//! compacted into a fresh [`Graph`] (forward and reverse CSR plus label index, exactly
//! like any other graph — everything downstream works unchanged) together with the
//! id-translation table back to the outer graph. Inner ids are assigned in ascending
//! outer-id order, so the translation is **monotone**: sorted inner-id sequences stay
//! sorted after translation, which lets result emission skip re-sorts. It also makes an
//! inner id the member's rank in the bitset, so the way in (outer → inner) is a rank
//! query instead of a table sized to the outer graph.
//!
//! Unlike [`Graph::induced_subgraph`] — which routes through [`crate::builder::GraphBuilder`]
//! and re-sorts every adjacency list — the extraction here copies straight CSR-to-CSR:
//! outer adjacency lists are already sorted, and a monotone remap preserves that, so the
//! cost is one counting pass plus one fill pass over the members' incident edges.

use crate::bitset::BitSet;
use crate::graph::{Graph, NodeId};
use crate::labels::Label;
use crate::view::AdjView;

/// An induced subgraph materialised as a dense CSR [`Graph`], with the id translation
/// back to the graph it was extracted from.
///
/// Inner node ids are `0..member_count`, in ascending order of the outer ids, so
/// [`ExtractedSubgraph::outer_of`] is a monotone map.
#[derive(Debug, Clone)]
pub struct ExtractedSubgraph {
    /// The extracted subgraph: members only, all outer edges between them.
    graph: Graph,
    /// Inner id → outer id (ascending).
    to_outer: Vec<NodeId>,
    /// Outer id → inner id: the inner id of a member is its rank among the members.
    inner: RankDirectory,
}

/// Rank queries over a membership bitset: the rank of member `i` is the number of
/// members below it, which is exactly its inner id. One `u32` prefix count per 64-bit
/// word makes a query one word read plus a popcount, so the table costs ~0.19 B per
/// outer node (the bitset's 1 bit plus 32 bits per 64 nodes) instead of a `u32` per
/// outer node.
#[derive(Debug, Clone)]
struct RankDirectory {
    members: BitSet,
    /// `prefix[w]` = number of members in words `0..w`.
    prefix: Vec<u32>,
}

impl RankDirectory {
    fn new(members: &BitSet) -> Self {
        let mut total = 0u32;
        let prefix = members
            .words()
            .iter()
            .map(|w| {
                let before = total;
                total += w.count_ones();
                before
            })
            .collect();
        RankDirectory {
            members: members.clone(),
            prefix,
        }
    }

    /// Rank of `index` among the members, or `None` when it is not a member.
    #[inline]
    fn rank(&self, index: usize) -> Option<u32> {
        if !self.members.contains(index) {
            return None;
        }
        let below = self.members.words()[index / 64] & ((1u64 << (index % 64)) - 1);
        Some(self.prefix[index / 64] + below.count_ones())
    }
}

impl ExtractedSubgraph {
    /// Extracts the subgraph of `outer` induced by `members` (all edges of `outer` with
    /// both endpoints in the set).
    ///
    /// Generic over [`AdjView`] so the same straight-to-CSR copy works from a flat
    /// [`Graph`], an overlay ([`crate::OverlayGraph`] merges patches during iteration),
    /// or a restricted view. The view's adjacency must iterate in ascending id order —
    /// true for all of those — because the monotone remap relies on it to produce
    /// sorted inner lists without a per-node re-sort.
    ///
    /// # Panics
    /// Panics when the bitset capacity does not match the view's id space.
    pub fn induced<V: AdjView>(outer: &V, members: &BitSet) -> Self {
        assert_eq!(
            members.capacity(),
            outer.id_space(),
            "membership bitset must cover the outer graph"
        );
        let n = members.len();
        let to_outer: Vec<NodeId> = members.iter().map(NodeId::from_index).collect();
        let inner = RankDirectory::new(members);
        let mut labels: Vec<Label> = Vec::with_capacity(n);
        // Counting pass: surviving out-/in-degrees per member.
        let mut fwd_offsets: Vec<usize> = Vec::with_capacity(n + 1);
        let mut rev_offsets: Vec<usize> = Vec::with_capacity(n + 1);
        fwd_offsets.push(0);
        rev_offsets.push(0);
        let (mut fwd_total, mut rev_total) = (0usize, 0usize);
        for &o in &to_outer {
            labels.push(outer.label(o));
            fwd_total += outer
                .out_neighbors(o)
                .filter(|t| members.contains(t.index()))
                .count();
            rev_total += outer
                .in_neighbors(o)
                .filter(|s| members.contains(s.index()))
                .count();
            fwd_offsets.push(fwd_total);
            rev_offsets.push(rev_total);
        }
        // Fill pass: outer adjacency lists are sorted and the remap is monotone, so the
        // inner lists come out sorted without any per-node sort.
        let mut fwd_targets: Vec<NodeId> = Vec::with_capacity(fwd_total);
        let mut rev_targets: Vec<NodeId> = Vec::with_capacity(rev_total);
        for &o in &to_outer {
            fwd_targets.extend(
                outer
                    .out_neighbors(o)
                    .filter_map(|t| inner.rank(t.index()).map(NodeId)),
            );
            rev_targets.extend(
                outer
                    .in_neighbors(o)
                    .filter_map(|s| inner.rank(s.index()).map(NodeId)),
            );
        }
        ExtractedSubgraph {
            graph: Graph::from_csr(labels, fwd_offsets, fwd_targets, rev_offsets, rev_targets),
            to_outer,
            inner,
        }
    }

    /// The extracted subgraph. Everything that consumes a [`Graph`] — balls, views,
    /// matchers — works on it unchanged; only its node ids are inner ids.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of member nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.to_outer.len()
    }

    /// Number of surviving edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Inner id → outer id translation table (ascending in the inner id).
    #[inline]
    pub fn to_outer(&self) -> &[NodeId] {
        &self.to_outer
    }

    /// Outer id of inner node `inner`.
    ///
    /// # Panics
    /// Panics when `inner` is out of range.
    #[inline]
    pub fn outer_of(&self, inner: NodeId) -> NodeId {
        self.to_outer[inner.index()]
    }

    /// Inner id of outer node `outer`, when it is a member. `O(1)`: a rank query on
    /// the membership bitset.
    #[inline]
    pub fn inner_of(&self, outer: NodeId) -> Option<NodeId> {
        self.inner.rank(outer.index()).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_and_members() -> (Graph, BitSet) {
        // 0 -> 1 -> 2 -> 3 -> 4, 0 -> 2, 2 -> 0, 1 -> 3, self-loop on 3.
        let g = Graph::from_edges(
            vec![Label(0), Label(1), Label(0), Label(2), Label(1)],
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (0, 2),
                (2, 0),
                (1, 3),
                (3, 3),
            ],
        )
        .unwrap();
        let mut members = BitSet::new(g.node_count());
        for i in [0usize, 2, 3] {
            members.insert(i);
        }
        (g, members)
    }

    #[test]
    fn extraction_matches_builder_based_induced_subgraph() {
        let (g, members) = graph_and_members();
        let sub = ExtractedSubgraph::induced(&g, &members);
        let outer_members: Vec<NodeId> = members.iter().map(NodeId::from_index).collect();
        let (oracle, mapping) = g.induced_subgraph(&outer_members);
        assert_eq!(sub.node_count(), oracle.node_count());
        assert_eq!(sub.edge_count(), oracle.edge_count());
        assert_eq!(sub.to_outer(), mapping.as_slice());
        for v in oracle.nodes() {
            assert_eq!(sub.graph().label(v), oracle.label(v));
            let got: Vec<NodeId> = sub.graph().out_neighbors(v).collect();
            let want: Vec<NodeId> = oracle.out_neighbors(v).collect();
            assert_eq!(got, want, "out-adjacency of inner node {v}");
            let got_in: Vec<NodeId> = sub.graph().in_neighbors(v).collect();
            let want_in: Vec<NodeId> = oracle.in_neighbors(v).collect();
            assert_eq!(got_in, want_in, "in-adjacency of inner node {v}");
        }
    }

    #[test]
    fn id_translation_roundtrips_and_is_monotone() {
        let (g, members) = graph_and_members();
        let sub = ExtractedSubgraph::induced(&g, &members);
        for v in sub.graph().nodes() {
            assert_eq!(sub.inner_of(sub.outer_of(v)), Some(v));
        }
        assert_eq!(sub.inner_of(NodeId(1)), None);
        assert_eq!(sub.inner_of(NodeId(99)), None);
        // Monotone translation: ascending inner ids map to ascending outer ids.
        for pair in sub.to_outer().windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn label_index_of_extraction_is_queryable() {
        let (g, members) = graph_and_members();
        let sub = ExtractedSubgraph::induced(&g, &members);
        // Members 0 and 2 carry Label(0), member 3 carries Label(2).
        assert_eq!(
            sub.graph().nodes_with_label(Label(0)),
            &[NodeId(0), NodeId(1)]
        );
        assert_eq!(sub.graph().nodes_with_label(Label(2)), &[NodeId(2)]);
        assert_eq!(sub.graph().nodes_with_label(Label(1)), &[] as &[NodeId]);
    }

    #[test]
    fn empty_and_full_memberships() {
        let (g, _) = graph_and_members();
        let empty = ExtractedSubgraph::induced(&g, &BitSet::new(g.node_count()));
        assert_eq!(empty.node_count(), 0);
        assert_eq!(empty.edge_count(), 0);
        let full = ExtractedSubgraph::induced(&g, &BitSet::full(g.node_count()));
        assert_eq!(full.node_count(), g.node_count());
        assert_eq!(full.edge_count(), g.edge_count());
        for v in g.nodes() {
            assert_eq!(full.outer_of(v), v);
            let got: Vec<NodeId> = full.graph().out_neighbors(v).collect();
            let want: Vec<NodeId> = g.out_neighbors(v).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    #[should_panic(expected = "membership bitset must cover")]
    fn capacity_mismatch_panics() {
        let (g, _) = graph_and_members();
        let _ = ExtractedSubgraph::induced(&g, &BitSet::new(2));
    }
}
