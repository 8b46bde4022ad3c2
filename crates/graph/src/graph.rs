//! The node-labelled directed graph `G(V, E, l)`.
//!
//! Graphs are immutable once built (see [`crate::builder::GraphBuilder`]) and store both the
//! forward and the reverse adjacency in CSR (compressed sparse row) form. The reverse
//! adjacency is what makes *dual* simulation — the parent-preserving half of strong
//! simulation — as cheap to evaluate as plain simulation.

use crate::bitset::BitSet;
use crate::error::GraphError;
use crate::labels::Label;
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a node inside a [`Graph`]: a dense index in `0..node_count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the node id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a node id from a dense index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A node-labelled directed graph in CSR form.
///
/// Nodes are identified by dense [`NodeId`]s; every node carries exactly one [`Label`].
/// Parallel edges are collapsed at build time and self-loops are allowed (the paper's model
/// does not forbid them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    labels: Vec<Label>,
    fwd_offsets: Vec<usize>,
    fwd_targets: Vec<NodeId>,
    rev_offsets: Vec<usize>,
    rev_targets: Vec<NodeId>,
    /// Nodes grouped by label, used to seed candidate sets in the matchers.
    ///
    /// Entries are sorted by label so lookups are binary searches and iteration order is
    /// deterministic (a `HashMap` here made candidate seeding order run-dependent).
    label_index: Vec<(Label, Vec<NodeId>)>,
    /// Per-node neighbour-label signatures, built on first use (see
    /// [`Graph::label_signature`]).
    signatures: SignatureIndex,
}

/// The labels around one node, folded into one word per direction: bit `l % 64` of
/// `children` (`parents`) is set when some out-neighbour (in-neighbour) carries label `l`.
///
/// A signature answers "can this node have a neighbour labelled `l`?" in one AND. Labels
/// that share a bit collide, so a set bit only says *maybe*; a clear bit says *no*. That
/// one-sidedness is what makes it a sound prefilter for dual-simulation candidates
/// (`ssim_core::dual::dual_candidates`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelSignature {
    /// Bits of the out-neighbours' labels.
    pub children: u64,
    /// Bits of the in-neighbours' labels.
    pub parents: u64,
}

impl LabelSignature {
    /// "No information": every bit set, so every [`LabelSignature::covers`] test passes.
    pub const ANY: LabelSignature = LabelSignature {
        children: u64::MAX,
        parents: u64::MAX,
    };

    /// The signature bit of `label`.
    #[inline]
    pub(crate) fn bit(label: Label) -> u64 {
        1u64 << (label.0 % 64)
    }

    /// Returns `true` when every bit of `need` is set in `self`, in both directions.
    #[inline]
    pub fn covers(self, need: LabelSignature) -> bool {
        self.children & need.children == need.children
            && self.parents & need.parents == need.parents
    }
}

/// The lazily built signature array, 16 B per node. It is derived from the adjacency, so
/// equality ignores it and `Debug` does not print it.
#[derive(Clone, Default)]
struct SignatureIndex(OnceLock<Vec<LabelSignature>>);

impl PartialEq for SignatureIndex {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for SignatureIndex {}

impl fmt::Debug for SignatureIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("..")
    }
}

impl Graph {
    pub(crate) fn from_csr(
        labels: Vec<Label>,
        fwd_offsets: Vec<usize>,
        fwd_targets: Vec<NodeId>,
        rev_offsets: Vec<usize>,
        rev_targets: Vec<NodeId>,
    ) -> Self {
        let label_index = build_label_index(&labels);
        Graph {
            labels,
            fwd_offsets,
            fwd_targets,
            rev_offsets,
            rev_targets,
            label_index,
            signatures: SignatureIndex::default(),
        }
    }

    /// [`Graph::from_csr`] with a prebuilt label index — for updates that keep the
    /// label vector untouched (edge deltas), where the index can be cloned instead of
    /// recounted.
    pub(crate) fn from_csr_with_index(
        labels: Vec<Label>,
        fwd_offsets: Vec<usize>,
        fwd_targets: Vec<NodeId>,
        rev_offsets: Vec<usize>,
        rev_targets: Vec<NodeId>,
        label_index: Vec<(Label, Vec<NodeId>)>,
    ) -> Self {
        debug_assert_eq!(label_index, build_label_index(&labels));
        Graph {
            labels,
            fwd_offsets,
            fwd_targets,
            rev_offsets,
            rev_targets,
            label_index,
            signatures: SignatureIndex::default(),
        }
    }

    /// Clone of the label index, for [`Graph::from_csr_with_index`].
    pub(crate) fn label_index_clone(&self) -> Vec<(Label, Vec<NodeId>)> {
        self.label_index.clone()
    }

    /// Out-neighbours of `node` as a raw sorted slice (hot-path form of
    /// [`Graph::out_neighbors`] for bulk copies).
    #[inline]
    pub(crate) fn out_neighbors_slice(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.fwd_targets[self.fwd_offsets[i]..self.fwd_offsets[i + 1]]
    }

    /// In-neighbours of `node` as a raw sorted slice.
    #[inline]
    pub(crate) fn in_neighbors_slice(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.rev_targets[self.rev_offsets[i]..self.rev_offsets[i + 1]]
    }

    /// Builds a graph directly from a label vector and an edge list.
    ///
    /// Convenience for tests and small examples; larger construction sites should prefer
    /// [`crate::builder::GraphBuilder`].
    pub fn from_edges(labels: Vec<Label>, edges: &[(u32, u32)]) -> Result<Self, GraphError> {
        let mut b = crate::builder::GraphBuilder::with_capacity(labels.len(), edges.len());
        for l in &labels {
            b.add_labeled_node(*l);
        }
        for &(s, t) in edges {
            b.try_add_edge(NodeId(s), NodeId(t))?;
        }
        Ok(b.build())
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of directed edges `|E|` (after parallel-edge deduplication).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.fwd_targets.len()
    }

    /// Total size `|V| + |E|`, the measure used in the paper's complexity statements.
    #[inline]
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// Iterates over all node ids `0..|V|`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// Returns the label of `node`.
    ///
    /// # Panics
    /// Panics when `node` is out of range.
    #[inline]
    pub fn label(&self, node: NodeId) -> Label {
        self.labels[node.index()]
    }

    /// Returns the label vector indexed by node id.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// All nodes carrying `label` (possibly empty), in ascending id order.
    pub fn nodes_with_label(&self, label: Label) -> &[NodeId] {
        self.label_index
            .binary_search_by_key(&label, |&(l, _)| l)
            .map(|i| self.label_index[i].1.as_slice())
            .unwrap_or(&[])
    }

    /// Number of distinct labels present in the graph.
    pub fn distinct_label_count(&self) -> usize {
        self.label_index.len()
    }

    /// Out-neighbours (children) of `node`.
    #[inline]
    pub fn out_neighbors(&self, node: NodeId) -> std::iter::Copied<std::slice::Iter<'_, NodeId>> {
        let i = node.index();
        self.fwd_targets[self.fwd_offsets[i]..self.fwd_offsets[i + 1]]
            .iter()
            .copied()
    }

    /// In-neighbours (parents) of `node`.
    #[inline]
    pub fn in_neighbors(&self, node: NodeId) -> std::iter::Copied<std::slice::Iter<'_, NodeId>> {
        let i = node.index();
        self.rev_targets[self.rev_offsets[i]..self.rev_offsets[i + 1]]
            .iter()
            .copied()
    }

    /// Neighbour-label signature of `node`. The index behind it is built on the first
    /// call, once per graph, in `O(|V| + |E|)`, and costs 16 B per node.
    #[inline]
    pub fn label_signature(&self, node: NodeId) -> LabelSignature {
        self.signatures.0.get_or_init(|| self.build_signatures())[node.index()]
    }

    fn build_signatures(&self) -> Vec<LabelSignature> {
        let fold = |m: u64, w: NodeId| m | LabelSignature::bit(self.label(w));
        self.nodes()
            .map(|v| LabelSignature {
                children: self.out_neighbors(v).fold(0, fold),
                parents: self.in_neighbors(v).fold(0, fold),
            })
            .collect()
    }

    /// Out-degree of `node`.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        let i = node.index();
        self.fwd_offsets[i + 1] - self.fwd_offsets[i]
    }

    /// In-degree of `node`.
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        let i = node.index();
        self.rev_offsets[i + 1] - self.rev_offsets[i]
    }

    /// Total (in + out) degree of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.out_degree(node) + self.in_degree(node)
    }

    /// Returns `true` when the directed edge `(from, to)` exists.
    ///
    /// Edge targets are sorted at build time, so this is a binary search over the smaller of
    /// the two adjacency lists.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        if from.index() >= self.node_count() || to.index() >= self.node_count() {
            return false;
        }
        if self.out_degree(from) <= self.in_degree(to) {
            let i = from.index();
            self.fwd_targets[self.fwd_offsets[i]..self.fwd_offsets[i + 1]]
                .binary_search(&to)
                .is_ok()
        } else {
            let i = to.index();
            self.rev_targets[self.rev_offsets[i]..self.rev_offsets[i + 1]]
                .binary_search(&from)
                .is_ok()
        }
    }

    /// Iterates over every directed edge `(source, target)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.out_neighbors(u).map(move |v| (u, v)))
    }

    /// Returns `true` when `node` is a valid id of this graph.
    #[inline]
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.node_count()
    }

    /// Extracts the subgraph induced by `nodes` (all edges of `G` between selected nodes).
    ///
    /// Returns the new graph together with the mapping *new id → original id*. Node ids in
    /// the result are assigned in the order of the (deduplicated, sorted) input slice.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut sorted: Vec<NodeId> = nodes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut membership = BitSet::new(self.node_count());
        for &n in &sorted {
            assert!(
                self.contains_node(n),
                "induced_subgraph: node {n} out of range"
            );
            membership.insert(n.index());
        }
        let mut to_new: Vec<u32> = vec![u32::MAX; self.node_count()];
        for (new, &orig) in sorted.iter().enumerate() {
            to_new[orig.index()] = new as u32;
        }
        let mut builder =
            crate::builder::GraphBuilder::with_capacity(sorted.len(), sorted.len() * 2);
        for &orig in &sorted {
            builder.add_labeled_node(self.label(orig));
        }
        for &orig in &sorted {
            let src_new = NodeId(to_new[orig.index()]);
            for t in self.out_neighbors(orig) {
                if membership.contains(t.index()) {
                    builder.add_edge(src_new, NodeId(to_new[t.index()]));
                }
            }
        }
        (builder.build(), sorted)
    }

    /// Extracts the subgraph `G[Vs, Es]` given an explicit node set and edge set
    /// (both expressed with original node ids). Edges whose endpoints are not both in
    /// `nodes` are ignored, matching the paper's definition of a subgraph.
    pub fn subgraph_with_edges(
        &self,
        nodes: &[NodeId],
        edges: &[(NodeId, NodeId)],
    ) -> (Graph, Vec<NodeId>) {
        let mut sorted: Vec<NodeId> = nodes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut to_new: Vec<u32> = vec![u32::MAX; self.node_count()];
        for (new, &orig) in sorted.iter().enumerate() {
            to_new[orig.index()] = new as u32;
        }
        let mut builder = crate::builder::GraphBuilder::with_capacity(sorted.len(), edges.len());
        for &orig in &sorted {
            builder.add_labeled_node(self.label(orig));
        }
        for &(s, t) in edges {
            let (sn, tn) = (to_new[s.index()], to_new[t.index()]);
            if sn != u32::MAX && tn != u32::MAX && self.has_edge(s, t) {
                builder.add_edge(NodeId(sn), NodeId(tn));
            }
        }
        (builder.build(), sorted)
    }
}

/// Buckets nodes by label, sorted by label with ascending node ids inside each bucket.
///
/// Dense label alphabets (the overwhelmingly common case: generators and extractions use
/// small numeric labels) take a counting pass — one histogram over label ids, one scan in
/// node-id order — instead of an `O(V log V)` sort. Sparse alphabets (a huge label id on
/// a small graph) would waste the histogram, so they keep the sort-based path; both
/// produce the identical index.
fn build_label_index(labels: &[Label]) -> Vec<(Label, Vec<NodeId>)> {
    let Some(max_label) = labels.iter().map(|l| l.0 as usize).max() else {
        return Vec::new();
    };
    if max_label <= 4 * labels.len() + 64 {
        // Counting pass: per-label bucket sizes, then distinct labels in ascending order
        // (slots reuses the histogram as a label → index map), then one id-order fill.
        let mut counts = vec![0u32; max_label + 1];
        for l in labels {
            counts[l.0 as usize] += 1;
        }
        let mut label_index: Vec<(Label, Vec<NodeId>)> = Vec::new();
        let mut slots = counts;
        for (id, slot) in slots.iter_mut().enumerate() {
            let count = *slot;
            if count > 0 {
                *slot = label_index.len() as u32;
                label_index.push((Label(id as u32), Vec::with_capacity(count as usize)));
            }
        }
        for (i, l) in labels.iter().enumerate() {
            label_index[slots[l.0 as usize] as usize]
                .1
                .push(NodeId::from_index(i));
        }
        label_index
    } else {
        let mut by_label: Vec<(Label, NodeId)> = labels
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, NodeId::from_index(i)))
            .collect();
        by_label.sort_by_key(|&(l, n)| (l, n));
        let mut label_index: Vec<(Label, Vec<NodeId>)> = Vec::new();
        for (l, n) in by_label {
            match label_index.last_mut() {
                Some((last, nodes)) if *last == l => nodes.push(n),
                _ => label_index.push((l, vec![n])),
            }
        }
        label_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn bucket_and_sort_label_index_paths_agree() {
        // Dense alphabet (bucket path) vs a sparse huge label (sort path): both orders
        // must be (label ascending, node ascending).
        let dense = vec![Label(2), Label(0), Label(2), Label(1), Label(0)];
        let got = build_label_index(&dense);
        assert_eq!(
            got,
            vec![
                (Label(0), vec![NodeId(1), NodeId(4)]),
                (Label(1), vec![NodeId(3)]),
                (Label(2), vec![NodeId(0), NodeId(2)]),
            ]
        );
        let sparse = vec![Label(u32::MAX - 1), Label(3), Label(u32::MAX - 1)];
        let got = build_label_index(&sparse);
        assert_eq!(
            got,
            vec![
                (Label(3), vec![NodeId(1)]),
                (Label(u32::MAX - 1), vec![NodeId(0), NodeId(2)]),
            ]
        );
        assert!(build_label_index(&[]).is_empty());
    }

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Graph::from_edges(
            vec![Label(0), Label(1), Label(1), Label(2)],
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap()
    }

    #[test]
    fn basic_counts_and_neighbors() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.size(), 8);
        assert_eq!(
            g.out_neighbors(NodeId(0)).collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(2)]
        );
        assert_eq!(
            g.in_neighbors(NodeId(3)).collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(2)]
        );
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(0)), 0);
        assert_eq!(g.degree(NodeId(3)), 2);
    }

    #[test]
    fn has_edge_checks_both_directions() {
        let g = diamond();
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(3)));
        assert!(!g.has_edge(NodeId(9), NodeId(0)));
    }

    #[test]
    fn labels_and_label_index() {
        let g = diamond();
        assert_eq!(g.label(NodeId(0)), Label(0));
        assert_eq!(g.nodes_with_label(Label(1)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.nodes_with_label(Label(9)), &[] as &[NodeId]);
        assert_eq!(g.distinct_label_count(), 3);
        assert_eq!(g.labels().len(), 4);
    }

    #[test]
    fn edges_iterator_enumerates_all() {
        let g = diamond();
        let mut edges: Vec<_> = g.edges().map(|(a, b)| (a.0, b.0)).collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn parallel_edges_are_deduplicated() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("x");
        let c = b.add_node("y");
        b.add_edge(a, c);
        b.add_edge(a, c);
        b.add_edge(a, c);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_are_preserved() {
        let g = Graph::from_edges(vec![Label(0)], &[(0, 0)]).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(NodeId(0), NodeId(0)));
        assert_eq!(
            g.out_neighbors(NodeId(0)).collect::<Vec<_>>(),
            vec![NodeId(0)]
        );
        assert_eq!(
            g.in_neighbors(NodeId(0)).collect::<Vec<_>>(),
            vec![NodeId(0)]
        );
    }

    #[test]
    fn from_edges_rejects_invalid_node() {
        let err = Graph::from_edges(vec![Label(0)], &[(0, 3)]).unwrap_err();
        assert_eq!(
            err,
            GraphError::InvalidNode {
                node: 3,
                node_count: 1
            }
        );
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = diamond();
        let (sub, mapping) = g.induced_subgraph(&[NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(sub.node_count(), 3);
        // edges 0->1 and 1->3 survive; 0->2->3 path does not.
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(mapping, vec![NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(sub.label(NodeId(2)), Label(2)); // new id 2 == original node 3
    }

    #[test]
    fn induced_subgraph_dedups_input() {
        let g = diamond();
        let (sub, mapping) = g.induced_subgraph(&[NodeId(1), NodeId(1), NodeId(0)]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(mapping, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn subgraph_with_edges_filters_missing_edges() {
        let g = diamond();
        let (sub, _) = g.subgraph_with_edges(
            &[NodeId(0), NodeId(1), NodeId(3)],
            &[
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(3)),
                (NodeId(1), NodeId(3)),
            ],
        );
        // (0,3) is not an edge of g, so it is dropped.
        assert_eq!(sub.edge_count(), 2);
    }

    #[test]
    fn label_signatures_fold_neighbour_labels_mod_64() {
        // 0 -> 1, 0 -> 2, 2 -> 2; label 65 shares label 1's bit.
        let build = || {
            Graph::from_edges(
                vec![Label(1), Label(65), Label(3)],
                &[(0, 1), (0, 2), (2, 2)],
            )
            .unwrap()
        };
        let g = build();
        let sig = |v: u32| g.label_signature(NodeId(v));
        assert_eq!(
            sig(0),
            LabelSignature {
                children: 1 << 1 | 1 << 3,
                parents: 0
            }
        );
        assert_eq!(
            sig(1),
            LabelSignature {
                children: 0,
                parents: 1 << 1
            }
        );
        assert_eq!(
            sig(2),
            LabelSignature {
                children: 1 << 3,
                parents: 1 << 1 | 1 << 3
            }
        );
        assert_eq!(
            LabelSignature::bit(Label(65)),
            LabelSignature::bit(Label(1))
        );
        assert!(sig(0).covers(LabelSignature {
            children: 1 << 3,
            parents: 0
        }));
        assert!(!sig(0).covers(LabelSignature {
            children: 0,
            parents: 1 << 1
        }));
        assert!(LabelSignature::ANY.covers(sig(2)));
        // Equality and Debug ignore whether the index has been built.
        let twin = build();
        assert_eq!(g, twin);
        assert_eq!(format!("{g:?}"), format!("{twin:?}"));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(vec![], &[]).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.nodes().count(), 0);
        assert!(!g.contains_node(NodeId(0)));
    }
}
