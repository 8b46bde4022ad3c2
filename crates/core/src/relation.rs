//! The binary match relation `S ⊆ Vq × V`.
//!
//! Every simulation variant in the paper manipulates a relation between pattern nodes and
//! data nodes. [`MatchRelation`] stores it as one dense bitset of candidate data nodes per
//! pattern node, which makes the refinement loops of (dual) simulation cheap: membership is
//! a bit test and removal is a bit clear.

use ssim_graph::{BitSet, CompactBall, ExtractedSubgraph, NodeId, Pattern};

/// A binary relation between the nodes of a pattern and the nodes of a data graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchRelation {
    /// `sim[u]` = set of data-node indices currently matching pattern node `u`.
    sim: Vec<BitSet>,
    /// Node capacity of the data graph (all bitsets share it).
    data_nodes: usize,
}

impl MatchRelation {
    /// Creates an empty relation for a pattern with `pattern_nodes` nodes over a data graph
    /// with `data_nodes` nodes.
    pub fn empty(pattern_nodes: usize, data_nodes: usize) -> Self {
        MatchRelation {
            sim: vec![BitSet::new(data_nodes); pattern_nodes],
            data_nodes,
        }
    }

    /// Number of pattern nodes covered by the relation.
    #[inline]
    pub fn pattern_node_count(&self) -> usize {
        self.sim.len()
    }

    /// Empties the relation and re-sizes its data side to `data_nodes`, reusing the
    /// bitset storage — the allocation-free equivalent of `MatchRelation::empty` for
    /// per-ball relations recycled across a sliding-ball run.
    pub fn reset(&mut self, data_nodes: usize) {
        for set in &mut self.sim {
            set.reset(data_nodes);
        }
        self.data_nodes = data_nodes;
    }

    /// Node capacity of the data graph side.
    #[inline]
    pub fn data_node_capacity(&self) -> usize {
        self.data_nodes
    }

    /// The candidate set `sim(u)` of pattern node `u`.
    #[inline]
    pub fn candidates(&self, u: NodeId) -> &BitSet {
        &self.sim[u.index()]
    }

    /// Mutable access to `sim(u)`.
    #[inline]
    pub fn candidates_mut(&mut self, u: NodeId) -> &mut BitSet {
        &mut self.sim[u.index()]
    }

    /// Returns `true` when `(u, v)` is in the relation.
    #[inline]
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.sim[u.index()].contains(v.index())
    }

    /// Inserts `(u, v)`; returns `true` when newly added.
    #[inline]
    pub fn insert(&mut self, u: NodeId, v: NodeId) -> bool {
        self.sim[u.index()].insert(v.index())
    }

    /// Removes `(u, v)`; returns `true` when it was present.
    #[inline]
    pub fn remove(&mut self, u: NodeId, v: NodeId) -> bool {
        self.sim[u.index()].remove(v.index())
    }

    /// Returns `true` when every pattern node has at least one candidate — the condition for
    /// the relation to witness a match (condition (2)(a) of graph simulation).
    pub fn is_total(&self) -> bool {
        self.sim.iter().all(|s| !s.is_empty())
    }

    /// Returns `true` when no pair is present at all.
    pub fn is_empty(&self) -> bool {
        self.sim.iter().all(BitSet::is_empty)
    }

    /// Total number of `(u, v)` pairs.
    pub fn pair_count(&self) -> usize {
        self.sim.iter().map(BitSet::len).sum()
    }

    /// Iterates over all pairs `(pattern node, data node)` in ascending order.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.sim.iter().enumerate().flat_map(|(u, set)| {
            set.iter()
                .map(move |v| (NodeId::from_index(u), NodeId::from_index(v)))
        })
    }

    /// The set of data nodes that appear in the relation (the node set `Vs` of the match
    /// graph).
    pub fn matched_data_nodes(&self) -> BitSet {
        let mut out = BitSet::new(self.data_nodes);
        self.matched_data_nodes_into(&mut out);
        out
    }

    /// [`MatchRelation::matched_data_nodes`] into a caller-owned bitset, resetting it to
    /// this relation's data capacity first — the allocation-free variant for drivers that
    /// keep one matched-set buffer per run and consult it more than once.
    pub fn matched_data_nodes_into(&self, out: &mut BitSet) {
        out.reset(self.data_nodes);
        for set in &self.sim {
            out.union_with(set);
        }
    }

    /// Renumbers the relation's data side through an [`ExtractedSubgraph`]: every data
    /// node becomes its inner id, and the result's capacity is the subgraph's node count.
    ///
    /// This is the one-time id-space hand-over of the match-graph ball substrate: the
    /// global dual-simulation relation (outer ids) becomes the projection base for balls
    /// built inside the extraction. Pairs on non-member data nodes are dropped — when the
    /// extraction covers [`MatchRelation::matched_data_nodes`], nothing is.
    pub fn renumber_through(&self, sub: &ExtractedSubgraph) -> MatchRelation {
        let mut out = MatchRelation::empty(self.sim.len(), sub.node_count());
        for (u, set) in self.sim.iter().enumerate() {
            let u = NodeId::from_index(u);
            for outer in set.iter() {
                if let Some(inner) = sub.inner_of(NodeId::from_index(outer)) {
                    out.insert(u, inner);
                }
            }
        }
        out
    }

    /// Pattern nodes whose candidate set contains `v`.
    pub fn pattern_nodes_matching(&self, v: NodeId) -> Vec<NodeId> {
        self.sim
            .iter()
            .enumerate()
            .filter(|(_, set)| set.contains(v.index()))
            .map(|(u, _)| NodeId::from_index(u))
            .collect()
    }

    /// Restricts the relation to data nodes inside `members` (used to project a global
    /// dual-simulation relation onto a ball). Returns the projected relation.
    pub fn project(&self, members: &BitSet) -> MatchRelation {
        let mut out = self.clone();
        for set in &mut out.sim {
            set.intersect_with(members);
        }
        out
    }

    /// Projects the relation onto a compact ball, translating the data side into the ball's
    /// **local** id space: the result has `ball.node_count()` capacity, so per-ball
    /// refinement operates on ball-sized bitsets instead of `|V|`-sized ones.
    ///
    /// Iterates the ball's members (local id = position) and tests each pattern node's
    /// bit, so the cost is `O(|ball| · |Vq|)` whatever the size of the relation. On the
    /// match-graph substrate every ball is a subset of `Gm` and every `Gm` node holds at
    /// least one pair, so this never costs more than walking the relation's pairs by
    /// more than a factor `|Vq|`, and usually far less: a ball covers a small part of
    /// `Gm`.
    pub fn project_compact(&self, ball: &CompactBall) -> MatchRelation {
        let mut out = MatchRelation::empty(self.sim.len(), ball.node_count());
        for (set, out_set) in self.sim.iter().zip(&mut out.sim) {
            for (local, global) in ball.to_global().iter().enumerate() {
                if set.contains(global.index()) {
                    out_set.insert(local);
                }
            }
        }
        out
    }

    /// Extracts the induced subgraph of `data` on this relation's matched nodes and
    /// renumbers the relation into it — the match-graph substrate hand-over shared by
    /// the centralized driver and the distributed coordinator. `matched_buf` is the
    /// caller's reusable matched-set buffer ([`MatchRelation::matched_data_nodes_into`]).
    pub fn extract_matched_subgraph(
        &self,
        data: &ssim_graph::Graph,
        matched_buf: &mut BitSet,
    ) -> (ExtractedSubgraph, MatchRelation) {
        self.matched_data_nodes_into(matched_buf);
        let sub = ExtractedSubgraph::induced(data, matched_buf);
        let inner = self.renumber_through(&sub);
        (sub, inner)
    }

    /// Returns `true` when `self` is pair-wise contained in `other`.
    pub fn is_subrelation_of(&self, other: &MatchRelation) -> bool {
        self.sim.len() == other.sim.len()
            && self
                .sim
                .iter()
                .zip(&other.sim)
                .all(|(a, b)| a.is_subset_of(b))
    }

    /// Sorted list of pairs as raw indices, convenient for equality assertions in tests.
    pub fn to_sorted_pairs(&self) -> Vec<(u32, u32)> {
        self.pairs().map(|(u, v)| (u.0, v.0)).collect()
    }

    /// Checks the label condition (condition (1) of all simulation variants): every pair
    /// relates nodes with identical labels.
    pub fn respects_labels(&self, pattern: &Pattern, data: &ssim_graph::Graph) -> bool {
        self.pairs().all(|(u, v)| pattern.label(u) == data.label(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssim_graph::{Graph, Label};

    fn relation_3x4() -> MatchRelation {
        let mut r = MatchRelation::empty(3, 4);
        r.insert(NodeId(0), NodeId(1));
        r.insert(NodeId(0), NodeId(2));
        r.insert(NodeId(1), NodeId(3));
        r
    }

    #[test]
    fn insert_contains_remove() {
        let mut r = relation_3x4();
        assert!(r.contains(NodeId(0), NodeId(1)));
        assert!(!r.contains(NodeId(2), NodeId(0)));
        assert_eq!(r.pair_count(), 3);
        assert!(r.remove(NodeId(0), NodeId(1)));
        assert!(!r.remove(NodeId(0), NodeId(1)));
        assert_eq!(r.pair_count(), 2);
    }

    #[test]
    fn totality_and_emptiness() {
        let mut r = relation_3x4();
        assert!(!r.is_total()); // pattern node 2 has no candidate
        assert!(!r.is_empty());
        r.insert(NodeId(2), NodeId(0));
        assert!(r.is_total());
        let empty = MatchRelation::empty(2, 2);
        assert!(empty.is_empty());
        assert!(!empty.is_total());
    }

    #[test]
    fn pairs_and_matched_nodes() {
        let r = relation_3x4();
        assert_eq!(r.to_sorted_pairs(), vec![(0, 1), (0, 2), (1, 3)]);
        assert_eq!(r.matched_data_nodes().to_vec(), vec![1, 2, 3]);
        assert_eq!(r.pattern_nodes_matching(NodeId(2)), vec![NodeId(0)]);
        assert_eq!(r.pattern_nodes_matching(NodeId(0)), Vec::<NodeId>::new());
    }

    #[test]
    fn projection_restricts_candidates() {
        let r = relation_3x4();
        let mut members = BitSet::new(4);
        members.insert(1);
        members.insert(3);
        let p = r.project(&members);
        assert_eq!(p.to_sorted_pairs(), vec![(0, 1), (1, 3)]);
        assert!(p.is_subrelation_of(&r));
        assert!(!r.is_subrelation_of(&p));
    }

    #[test]
    fn label_condition() {
        let pattern = Pattern::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
        let data =
            Graph::from_edges(vec![Label(0), Label(1), Label(1)], &[(0, 1), (0, 2)]).unwrap();
        let mut r = MatchRelation::empty(2, 3);
        r.insert(NodeId(0), NodeId(0));
        r.insert(NodeId(1), NodeId(2));
        assert!(r.respects_labels(&pattern, &data));
        r.insert(NodeId(1), NodeId(0)); // label mismatch: pattern L1 vs data L0
        assert!(!r.respects_labels(&pattern, &data));
    }

    #[test]
    fn candidates_accessors() {
        let mut r = relation_3x4();
        assert_eq!(r.candidates(NodeId(0)).len(), 2);
        r.candidates_mut(NodeId(0)).clear();
        assert!(r.candidates(NodeId(0)).is_empty());
        assert_eq!(r.pattern_node_count(), 3);
        assert_eq!(r.data_node_capacity(), 4);
    }
}
