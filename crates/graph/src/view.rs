//! Restricted views over a [`Graph`].
//!
//! The Match algorithm of the paper repeatedly runs dual simulation *inside a ball*
//! `Ĝ[w, dQ]`. Materialising a fresh graph for every ball would dominate the running time,
//! so instead the matching algorithms operate on a [`GraphView`]: the original graph plus an
//! optional node-membership filter. Neighbour iteration silently skips nodes outside the
//! view, which yields exactly the ball subgraph semantics (all edges of `G` over the member
//! node set).

use crate::bitset::BitSet;
use crate::graph::{Graph, LabelSignature, NodeId};
use crate::labels::Label;

/// Node-addressed adjacency that the matching algorithms run over.
///
/// Two implementations exist: [`GraphView`] (the whole graph, or a membership-filtered
/// subset of it, addressed by **global** node ids) and
/// [`crate::ball::CompactBallView`] (a ball addressed by dense **local** ids `0..|ball|`,
/// translating to the underlying graph lazily). Matching code is generic over this trait,
/// so relations and scratch bitsets are sized by [`AdjView::id_space`] — `|V|` for graph
/// views, `|ball|` for compact balls.
pub trait AdjView {
    /// Size of the id space: every node id handled by this view is `< id_space()`.
    /// Relations and bitsets over the view's nodes use this as their capacity.
    fn id_space(&self) -> usize;

    /// Label of `node`.
    fn label(&self, node: NodeId) -> Label;

    /// Out-neighbours (children) of `node` inside the view.
    fn out_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_;

    /// In-neighbours (parents) of `node` inside the view.
    fn in_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_;

    /// Nodes of the view carrying `label`. The iteration order is implementation-defined:
    /// [`GraphView`] yields ascending ids, while a compact ball yields its BFS-position
    /// local ids in ascending *global* order — callers must not rely on sortedness.
    fn nodes_with_label(&self, label: Label) -> impl Iterator<Item = NodeId> + '_;

    /// A [`LabelSignature`] covering the labels of `node`'s neighbours inside the view.
    /// Extra set bits are allowed (they only weaken a filter); a missing bit is not. The
    /// default, [`LabelSignature::ANY`], carries no information and passes every node.
    #[inline]
    fn neighbor_label_signature(&self, _node: NodeId) -> LabelSignature {
        LabelSignature::ANY
    }
}

/// A flat [`Graph`] is itself an unrestricted adjacency view — equivalent to
/// [`GraphView::full`] without the wrapper. This lets code that is generic over
/// [`AdjView`] (locality sweeps, subgraph extraction, fixpoint maintenance) accept flat
/// graphs, [`crate::OverlayGraph`]s, and restricted views uniformly.
impl AdjView for Graph {
    #[inline]
    fn id_space(&self) -> usize {
        self.node_count()
    }

    #[inline]
    fn label(&self, node: NodeId) -> Label {
        Graph::label(self, node)
    }

    #[inline]
    fn out_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        Graph::out_neighbors(self, node)
    }

    #[inline]
    fn in_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        Graph::in_neighbors(self, node)
    }

    #[inline]
    fn nodes_with_label(&self, label: Label) -> impl Iterator<Item = NodeId> + '_ {
        Graph::nodes_with_label(self, label).iter().copied()
    }

    #[inline]
    fn neighbor_label_signature(&self, node: NodeId) -> LabelSignature {
        self.label_signature(node)
    }
}

/// A (possibly restricted) view of a graph.
#[derive(Clone, Copy)]
pub struct GraphView<'a> {
    graph: &'a Graph,
    restriction: Option<&'a BitSet>,
}

impl<'a> GraphView<'a> {
    /// A view over the whole graph.
    pub fn full(graph: &'a Graph) -> Self {
        GraphView {
            graph,
            restriction: None,
        }
    }

    /// A view restricted to the nodes whose indices are set in `members`.
    ///
    /// # Panics
    /// Panics when the bitset capacity does not cover the graph's node count.
    pub fn restricted(graph: &'a Graph, members: &'a BitSet) -> Self {
        assert!(
            members.capacity() >= graph.node_count(),
            "restriction bitset capacity {} smaller than node count {}",
            members.capacity(),
            graph.node_count()
        );
        GraphView {
            graph,
            restriction: Some(members),
        }
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// Returns `true` when the view is restricted to a node subset.
    #[inline]
    pub fn is_restricted(&self) -> bool {
        self.restriction.is_some()
    }

    /// Returns `true` when `node` belongs to the view.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        node.index() < self.graph.node_count()
            && self.restriction.is_none_or(|r| r.contains(node.index()))
    }

    /// Number of nodes in the view.
    pub fn node_count(&self) -> usize {
        match self.restriction {
            None => self.graph.node_count(),
            Some(r) => r.len(),
        }
    }

    /// Iterates over the nodes of the view in ascending id order.
    pub fn nodes(&self) -> Box<dyn Iterator<Item = NodeId> + 'a> {
        match self.restriction {
            None => Box::new(self.graph.nodes()),
            Some(r) => Box::new(r.iter().map(NodeId::from_index)),
        }
    }

    /// Label of `node` (delegates to the underlying graph).
    #[inline]
    pub fn label(&self, node: NodeId) -> Label {
        self.graph.label(node)
    }

    /// Out-neighbours of `node` that belong to the view.
    #[inline]
    pub fn out_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        let restriction = self.restriction;
        self.graph
            .out_neighbors(node)
            .filter(move |n| restriction.is_none_or(|r| r.contains(n.index())))
    }

    /// In-neighbours of `node` that belong to the view.
    #[inline]
    pub fn in_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        let restriction = self.restriction;
        self.graph
            .in_neighbors(node)
            .filter(move |n| restriction.is_none_or(|r| r.contains(n.index())))
    }

    /// Nodes of the view carrying `label`.
    pub fn nodes_with_label(&self, label: Label) -> impl Iterator<Item = NodeId> + 'a {
        let restriction = self.restriction;
        self.graph
            .nodes_with_label(label)
            .iter()
            .copied()
            .filter(move |n| restriction.is_none_or(|r| r.contains(n.index())))
    }

    /// Returns `true` when the directed edge `(from, to)` exists inside the view.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.contains(from) && self.contains(to) && self.graph.has_edge(from, to)
    }

    /// The number of ids the view's nodes are drawn from (the underlying graph's `|V|`).
    #[inline]
    pub fn id_space(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of edges with both endpoints inside the view. `O(|E|)` for restricted views.
    pub fn edge_count(&self) -> usize {
        match self.restriction {
            None => self.graph.edge_count(),
            Some(_) => self.nodes().map(|u| self.out_neighbors(u).count()).sum(),
        }
    }
}

impl AdjView for GraphView<'_> {
    #[inline]
    fn id_space(&self) -> usize {
        GraphView::id_space(self)
    }

    #[inline]
    fn label(&self, node: NodeId) -> Label {
        GraphView::label(self, node)
    }

    #[inline]
    fn out_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        GraphView::out_neighbors(self, node)
    }

    #[inline]
    fn in_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        GraphView::in_neighbors(self, node)
    }

    #[inline]
    fn nodes_with_label(&self, label: Label) -> impl Iterator<Item = NodeId> + '_ {
        GraphView::nodes_with_label(self, label)
    }

    /// The graph's index on a full view; a restricted view keeps the default.
    #[inline]
    fn neighbor_label_signature(&self, node: NodeId) -> LabelSignature {
        match self.restriction {
            None => self.graph.label_signature(node),
            Some(_) => LabelSignature::ANY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn chain() -> Graph {
        // 0 -> 1 -> 2 -> 3 with labels 0,1,0,1
        Graph::from_edges(
            vec![Label(0), Label(1), Label(0), Label(1)],
            &[(0, 1), (1, 2), (2, 3)],
        )
        .unwrap()
    }

    #[test]
    fn full_view_mirrors_graph() {
        let g = chain();
        let v = GraphView::full(&g);
        assert!(!v.is_restricted());
        assert_eq!(v.node_count(), 4);
        assert_eq!(v.edge_count(), 3);
        assert_eq!(v.nodes().count(), 4);
        assert!(v.contains(NodeId(3)));
        assert!(!v.contains(NodeId(4)));
        assert!(v.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(
            v.nodes_with_label(Label(0)).collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(2)]
        );
    }

    #[test]
    fn restricted_view_filters_nodes_and_edges() {
        let g = chain();
        let mut members = BitSet::new(g.node_count());
        members.insert(1);
        members.insert(2);
        let v = GraphView::restricted(&g, &members);
        assert!(v.is_restricted());
        assert_eq!(v.node_count(), 2);
        assert_eq!(v.nodes().collect::<Vec<_>>(), vec![NodeId(1), NodeId(2)]);
        assert!(!v.contains(NodeId(0)));
        // Edge 1->2 is inside; edges touching 0 or 3 are not.
        assert_eq!(v.edge_count(), 1);
        assert!(v.has_edge(NodeId(1), NodeId(2)));
        assert!(!v.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(v.out_neighbors(NodeId(2)).count(), 0);
        assert_eq!(v.in_neighbors(NodeId(1)).count(), 0);
        assert_eq!(
            v.nodes_with_label(Label(0)).collect::<Vec<_>>(),
            vec![NodeId(2)]
        );
    }

    #[test]
    #[should_panic(expected = "restriction bitset capacity")]
    fn restriction_capacity_must_cover_graph() {
        let g = chain();
        let small = BitSet::new(2);
        let _ = GraphView::restricted(&g, &small);
    }

    #[test]
    fn label_delegates() {
        let g = chain();
        let v = GraphView::full(&g);
        assert_eq!(v.label(NodeId(1)), Label(1));
        assert_eq!(v.graph().node_count(), 4);
    }
}
