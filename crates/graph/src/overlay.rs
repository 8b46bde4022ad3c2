//! Layered CSR overlay and epoch-tagged snapshots: the versioned graph substrate.
//!
//! [`Graph::apply_delta`] rebuilds both CSR directions in `O(|V| + |E|)` per batch, which
//! the update benchmarks show dominating per-delta cost once the dirty region stops
//! shrinking (high-churn streams). An [`OverlayGraph`] amortises that: it keeps the last
//! compacted flat CSR (the *base*) plus per-node sorted patch arrays — inserts and
//! tombstones, maintained for both adjacency directions — and merges them lazily during
//! neighbour iteration. Untouched nodes (almost all of them, for a small delta) take a
//! **zero-patch fast path**: one slot load and compare, then the raw base slice, so the
//! tight adjacency loops downstream (balls, locality orders, extractions) pay nothing
//! until a node is actually patched.
//!
//! Applying a delta is `O(|δ| log |δ| + patch sizes)` instead of a rebuild. Patch entries
//! cancel instead of stacking: deleting an overlay-inserted edge removes the insert, and
//! re-inserting a tombstoned base edge removes the tombstone — so an oscillating
//! delete/reinsert stream keeps the overlay mass bounded and, crucially, a
//! tombstone-then-reinsert cycle can never resurrect a stale patch after compaction.
//! When the live overlay mass exceeds a configurable fraction of `|E|`
//! ([`CompactionPolicy`]), the overlay **compacts**: the same sorted three-way merge that
//! [`Graph::apply_delta`] uses folds the patches into a fresh flat CSR, the patch tables
//! reset, and iteration is branch-free again.
//!
//! On top of the overlay sit **epoch-tagged snapshots**. Every applied delta bumps the
//! [`GraphEpoch`]; the base CSR is shared behind an `Arc`, so cloning an [`OverlayGraph`]
//! — and therefore pinning a version — costs `O(|V_slots| + patches)`, not
//! `O(|V| + |E|)`. [`VersionedGraph`] packages the serving pattern: readers
//! [`VersionedGraph::pin`] an immutable [`SnapshotHandle`] (an `Arc` bump) while a writer
//! stages the next delta batch and [`VersionedGraph::publish`]es it as the next epoch.

use crate::delta::{merge_patched, DeltaTarget};
use crate::error::GraphError;
use crate::graph::{Graph, LabelSignature, NodeId};
use crate::labels::Label;
use crate::view::AdjView;
use crate::GraphDelta;
use std::sync::Arc;

/// When the overlay folds itself back into a flat CSR.
///
/// Compaction triggers after a delta application leaves more than
/// `max(max_overlay_fraction · |E_base|, min_overlay_ops)` live patch entries (counted
/// over one direction; the reverse tables mirror them). The fraction keeps merge overhead
/// proportional to graph size; the floor stops tiny graphs from compacting on every
/// batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Live patch entries tolerated as a fraction of the base edge count.
    pub max_overlay_fraction: f64,
    /// Absolute floor below which the overlay never compacts.
    pub min_overlay_ops: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            max_overlay_fraction: 0.25,
            min_overlay_ops: 64,
        }
    }
}

impl CompactionPolicy {
    /// A policy that compacts after every non-empty batch — the patch tables never carry
    /// state across applications. Used by tests to cross compaction boundaries often.
    pub fn eager() -> Self {
        CompactionPolicy {
            max_overlay_fraction: 0.0,
            min_overlay_ops: 0,
        }
    }

    /// A policy that never compacts, regardless of overlay mass.
    pub fn never() -> Self {
        CompactionPolicy {
            max_overlay_fraction: f64::INFINITY,
            min_overlay_ops: usize::MAX,
        }
    }

    fn threshold(&self, base_edges: usize) -> usize {
        if self.max_overlay_fraction.is_infinite() {
            return usize::MAX;
        }
        ((self.max_overlay_fraction * base_edges as f64) as usize).max(self.min_overlay_ops)
    }
}

/// Monotonically increasing version tag of an [`OverlayGraph`]. Every applied delta
/// produces the next epoch; compaction changes the representation, not the version.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GraphEpoch(pub u64);

impl GraphEpoch {
    /// The epoch following this one.
    pub fn next(self) -> GraphEpoch {
        GraphEpoch(self.0 + 1)
    }
}

impl std::fmt::Display for GraphEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Patch state of one node in one direction: edges added on top of the base CSR and base
/// edges tombstoned out of it. Both lists stay sorted ascending, and the invariants
/// `ins ∩ base = ∅`, `del ⊆ base` hold at all times (cancellation maintains them).
#[derive(Debug, Clone, Default)]
struct NodePatch {
    ins: Vec<NodeId>,
    del: Vec<NodeId>,
}

impl NodePatch {
    fn is_empty(&self) -> bool {
        self.ins.is_empty() && self.del.is_empty()
    }
}

/// Per-node patch lookup for one adjacency direction: a `|V|`-sized slot array
/// (`u32::MAX` = never patched — the fast-path check) pointing into a dense patch pool.
#[derive(Debug, Clone)]
struct PatchTable {
    slot: Vec<u32>,
    patches: Vec<NodePatch>,
}

impl PatchTable {
    fn new(n: usize) -> Self {
        PatchTable {
            slot: vec![u32::MAX; n],
            patches: Vec::new(),
        }
    }

    #[inline]
    fn get(&self, node: NodeId) -> Option<&NodePatch> {
        match self.slot[node.index()] {
            u32::MAX => None,
            s => Some(&self.patches[s as usize]),
        }
    }

    fn entry(&mut self, node: NodeId) -> &mut NodePatch {
        let s = self.slot[node.index()];
        if s == u32::MAX {
            self.slot[node.index()] = self.patches.len() as u32;
            self.patches.push(NodePatch::default());
            self.patches.last_mut().expect("just pushed")
        } else {
            &mut self.patches[s as usize]
        }
    }

    fn clear(&mut self) {
        self.slot.fill(u32::MAX);
        self.patches.clear();
    }
}

fn sorted_insert(list: &mut Vec<NodeId>, value: NodeId) {
    let at = list.partition_point(|&x| x < value);
    debug_assert!(
        at == list.len() || list[at] != value,
        "duplicate patch entry"
    );
    list.insert(at, value);
}

fn sorted_remove(list: &mut Vec<NodeId>, value: NodeId) {
    let at = list
        .binary_search(&value)
        .expect("patch entry to cancel must exist");
    list.remove(at);
}

/// A flat CSR base plus per-node sorted insert/tombstone patches for both directions,
/// merged on iteration. See the module docs for the design.
///
/// The base is shared behind an `Arc`, so `Clone` — and therefore pinning the current
/// version before mutating — costs `O(|V| + patches)` rather than `O(|V| + |E|)`.
#[derive(Debug, Clone)]
pub struct OverlayGraph {
    base: Arc<Graph>,
    fwd: PatchTable,
    rev: PatchTable,
    /// Merged edge count (base − tombstones + inserts), maintained incrementally.
    edge_count: usize,
    /// Live inserted edges in the overlay (forward direction).
    overlay_ins: usize,
    /// Live tombstoned base edges (forward direction).
    overlay_del: usize,
    epoch: GraphEpoch,
    policy: CompactionPolicy,
    compactions: u64,
}

impl OverlayGraph {
    /// Wraps a flat graph as epoch 0 of a versioned substrate, with the default
    /// [`CompactionPolicy`].
    pub fn new(base: Graph) -> Self {
        Self::with_policy(base, CompactionPolicy::default())
    }

    /// [`OverlayGraph::new`] with an explicit compaction policy.
    pub fn with_policy(base: Graph, policy: CompactionPolicy) -> Self {
        let n = base.node_count();
        let edge_count = base.edge_count();
        OverlayGraph {
            base: Arc::new(base),
            fwd: PatchTable::new(n),
            rev: PatchTable::new(n),
            edge_count,
            overlay_ins: 0,
            overlay_del: 0,
            epoch: GraphEpoch::default(),
            policy,
            compactions: 0,
        }
    }

    /// The flat CSR the patches layer over (the state as of the last compaction).
    #[inline]
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// Current version tag; bumped by every [`OverlayGraph::apply_delta`].
    #[inline]
    pub fn epoch(&self) -> GraphEpoch {
        self.epoch
    }

    /// The compaction policy in force.
    #[inline]
    pub fn policy(&self) -> CompactionPolicy {
        self.policy
    }

    /// How many times the overlay has folded itself back into a flat CSR.
    #[inline]
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Live patch entries (inserted + tombstoned edges, forward direction).
    #[inline]
    pub fn overlay_mass(&self) -> usize {
        self.overlay_ins + self.overlay_del
    }

    /// Overlay mass as a fraction of the base edge count (0 for an edgeless base).
    pub fn overlay_fraction(&self) -> f64 {
        let base_edges = self.base.edge_count();
        if base_edges == 0 {
            return if self.overlay_mass() == 0 { 0.0 } else { 1.0 };
        }
        self.overlay_mass() as f64 / base_edges as f64
    }

    /// Returns `true` when no patches are live — iteration is pure base CSR.
    #[inline]
    pub fn is_flat(&self) -> bool {
        self.overlay_mass() == 0
    }

    /// Number of nodes (fixed across deltas, like [`Graph`]).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.base.node_count()
    }

    /// Number of edges of the merged graph.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.base.nodes()
    }

    /// Returns `true` when `node` is a node of the graph.
    #[inline]
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.base.contains_node(node)
    }

    /// Label of `node`. Labels never change under edge deltas, so this delegates to the
    /// base — as does the label index.
    #[inline]
    pub fn label(&self, node: NodeId) -> Label {
        self.base.label(node)
    }

    /// All node labels, indexed by node id.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        self.base.labels()
    }

    /// Nodes carrying `label`, ascending (the base's label index; valid because edge
    /// deltas never touch labels).
    #[inline]
    pub fn nodes_with_label(&self, label: Label) -> &[NodeId] {
        self.base.nodes_with_label(label)
    }

    /// Out-neighbours of `node` in the merged graph, ascending.
    #[inline]
    pub fn out_neighbors(&self, node: NodeId) -> OverlayNeighbors<'_> {
        Self::neighbors(&self.base, &self.fwd, node, Graph::out_neighbors_slice)
    }

    /// In-neighbours of `node` in the merged graph, ascending.
    #[inline]
    pub fn in_neighbors(&self, node: NodeId) -> OverlayNeighbors<'_> {
        Self::neighbors(&self.base, &self.rev, node, Graph::in_neighbors_slice)
    }

    #[inline]
    fn neighbors<'a>(
        base: &'a Graph,
        table: &'a PatchTable,
        node: NodeId,
        slice_of: impl Fn(&'a Graph, NodeId) -> &'a [NodeId],
    ) -> OverlayNeighbors<'a> {
        let slice = slice_of(base, node);
        match table.get(node) {
            None => OverlayNeighbors::base(slice),
            Some(p) if p.is_empty() => OverlayNeighbors::base(slice),
            Some(p) => OverlayNeighbors::merged(slice, &p.ins, &p.del),
        }
    }

    /// Out-degree of `node` in the merged graph.
    pub fn out_degree(&self, node: NodeId) -> usize {
        let base = self.base.out_degree(node);
        match self.fwd.get(node) {
            None => base,
            Some(p) => base + p.ins.len() - p.del.len(),
        }
    }

    /// In-degree of `node` in the merged graph.
    pub fn in_degree(&self, node: NodeId) -> usize {
        let base = self.base.in_degree(node);
        match self.rev.get(node) {
            None => base,
            Some(p) => base + p.ins.len() - p.del.len(),
        }
    }

    /// Returns `true` when the merged graph has the directed edge `(from, to)`.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        if !self.contains_node(from) || !self.contains_node(to) {
            return false;
        }
        match self.fwd.get(from) {
            None => self.base.has_edge(from, to),
            Some(p) => {
                if p.ins.binary_search(&to).is_ok() {
                    true
                } else if p.del.binary_search(&to).is_ok() {
                    false
                } else {
                    self.base.has_edge(from, to)
                }
            }
        }
    }

    /// Applies a validated batch of edge updates in place, in
    /// `O(|δ| log |δ| + patch sizes)`, and bumps the epoch. Compacts afterwards when the
    /// policy says so. On validation failure the overlay is left untouched.
    ///
    /// Patch entries cancel: deleting an overlay-inserted edge removes the insert and
    /// re-inserting a tombstoned base edge removes the tombstone, so the overlay mass
    /// tracks the *live* divergence from the base, not the update history.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> Result<(), GraphError> {
        delta.validate(self)?;
        for (from, to) in delta.inserted_edges() {
            self.insert_edge_unchecked(from, to);
        }
        for (from, to) in delta.deleted_edges() {
            self.delete_edge_unchecked(from, to);
        }
        self.epoch = self.epoch.next();
        if self.overlay_mass() > self.policy.threshold(self.base.edge_count()) {
            self.compact();
        }
        Ok(())
    }

    fn insert_edge_unchecked(&mut self, from: NodeId, to: NodeId) {
        if self.base.has_edge(from, to) {
            // Validation says the merged graph lacks the edge, so it must be tombstoned:
            // cancel the tombstone instead of stacking an insert on top of it.
            sorted_remove(&mut self.fwd.entry(from).del, to);
            sorted_remove(&mut self.rev.entry(to).del, from);
            self.overlay_del -= 1;
        } else {
            sorted_insert(&mut self.fwd.entry(from).ins, to);
            sorted_insert(&mut self.rev.entry(to).ins, from);
            self.overlay_ins += 1;
        }
        self.edge_count += 1;
    }

    fn delete_edge_unchecked(&mut self, from: NodeId, to: NodeId) {
        if self.base.has_edge(from, to) {
            sorted_insert(&mut self.fwd.entry(from).del, to);
            sorted_insert(&mut self.rev.entry(to).del, from);
            self.overlay_del += 1;
        } else {
            // The merged graph has the edge but the base does not: it is an overlay
            // insert, which the deletion cancels.
            sorted_remove(&mut self.fwd.entry(from).ins, to);
            sorted_remove(&mut self.rev.entry(to).ins, from);
            self.overlay_ins -= 1;
        }
        self.edge_count -= 1;
    }

    /// Materialises the merged graph as a flat CSR [`Graph`] without mutating the
    /// overlay. Untouched nodes take a bulk copy; patched nodes take the same sorted
    /// three-way merge [`Graph::apply_delta`] uses. The label index is cloned, never
    /// recounted.
    pub fn to_graph(&self) -> Graph {
        let n = self.node_count();
        let mut fwd_offsets = Vec::with_capacity(n + 1);
        let mut fwd_targets = Vec::with_capacity(self.edge_count);
        let mut rev_offsets = Vec::with_capacity(n + 1);
        let mut rev_targets = Vec::with_capacity(self.edge_count);
        fwd_offsets.push(0);
        rev_offsets.push(0);
        for v in 0..n {
            let node = NodeId::from_index(v);
            Self::merge_node(
                self.base.out_neighbors_slice(node),
                self.fwd.get(node),
                &mut fwd_targets,
            );
            fwd_offsets.push(fwd_targets.len());
            Self::merge_node(
                self.base.in_neighbors_slice(node),
                self.rev.get(node),
                &mut rev_targets,
            );
            rev_offsets.push(rev_targets.len());
        }
        debug_assert_eq!(fwd_targets.len(), self.edge_count);
        debug_assert_eq!(rev_targets.len(), self.edge_count);
        Graph::from_csr_with_index(
            self.base.labels().to_vec(),
            fwd_offsets,
            fwd_targets,
            rev_offsets,
            rev_targets,
            self.base.label_index_clone(),
        )
    }

    #[inline]
    fn merge_node(old: &[NodeId], patch: Option<&NodePatch>, out: &mut Vec<NodeId>) {
        match patch {
            None => out.extend_from_slice(old),
            Some(p) if p.is_empty() => out.extend_from_slice(old),
            Some(p) => merge_patched(old, &p.ins, &p.del, out),
        }
    }

    /// Folds the live patches into a fresh flat base CSR and resets the patch tables.
    /// The logical graph — and the epoch — are unchanged; snapshots pinned earlier keep
    /// the old base alive through their `Arc`.
    pub fn compact(&mut self) {
        if self.is_flat() {
            return;
        }
        self.base = Arc::new(self.to_graph());
        self.fwd.clear();
        self.rev.clear();
        self.overlay_ins = 0;
        self.overlay_del = 0;
        self.compactions += 1;
    }
}

impl AdjView for OverlayGraph {
    #[inline]
    fn id_space(&self) -> usize {
        self.node_count()
    }

    #[inline]
    fn label(&self, node: NodeId) -> Label {
        OverlayGraph::label(self, node)
    }

    #[inline]
    fn out_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        OverlayGraph::out_neighbors(self, node)
    }

    #[inline]
    fn in_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        OverlayGraph::in_neighbors(self, node)
    }

    #[inline]
    fn nodes_with_label(&self, label: Label) -> impl Iterator<Item = NodeId> + '_ {
        OverlayGraph::nodes_with_label(self, label).iter().copied()
    }

    /// The base signature plus the labels of the node's inserted patch entries.
    /// Tombstones are not subtracted: a stale bit only weakens the filter, so the
    /// signature stays a superset of the merged neighbourhood's labels.
    #[inline]
    fn neighbor_label_signature(&self, node: NodeId) -> LabelSignature {
        let inserted = |table: &PatchTable| {
            table.get(node).map_or(0, |p| {
                p.ins
                    .iter()
                    .fold(0, |m, &w| m | LabelSignature::bit(self.label(w)))
            })
        };
        let base = self.base.label_signature(node);
        LabelSignature {
            children: base.children | inserted(&self.fwd),
            parents: base.parents | inserted(&self.rev),
        }
    }
}

impl DeltaTarget for OverlayGraph {
    #[inline]
    fn node_count(&self) -> usize {
        OverlayGraph::node_count(self)
    }

    #[inline]
    fn label(&self, node: NodeId) -> Label {
        OverlayGraph::label(self, node)
    }

    #[inline]
    fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        OverlayGraph::has_edge(self, from, to)
    }
}

/// Merged neighbour iteration over one node's base slice and its patches. The zero-patch
/// fast path is a plain slice walk; patched nodes interleave sorted inserts and skip
/// tombstones with monotone cursors.
#[derive(Debug, Clone)]
pub struct OverlayNeighbors<'a> {
    base: &'a [NodeId],
    ins: &'a [NodeId],
    del: &'a [NodeId],
    bi: usize,
    ii: usize,
    di: usize,
}

impl<'a> OverlayNeighbors<'a> {
    #[inline]
    fn base(slice: &'a [NodeId]) -> Self {
        OverlayNeighbors {
            base: slice,
            ins: &[],
            del: &[],
            bi: 0,
            ii: 0,
            di: 0,
        }
    }

    #[inline]
    fn merged(base: &'a [NodeId], ins: &'a [NodeId], del: &'a [NodeId]) -> Self {
        OverlayNeighbors {
            base,
            ins,
            del,
            bi: 0,
            ii: 0,
            di: 0,
        }
    }
}

impl Iterator for OverlayNeighbors<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        loop {
            let b = self.base.get(self.bi).copied();
            let i = self.ins.get(self.ii).copied();
            return match (b, i) {
                (None, None) => None,
                (Some(bv), iv) if iv.is_none_or(|iv| bv < iv) => {
                    self.bi += 1;
                    if self.di < self.del.len() && self.del[self.di] == bv {
                        self.di += 1;
                        continue;
                    }
                    Some(bv)
                }
                (_, Some(iv)) => {
                    self.ii += 1;
                    Some(iv)
                }
                // `b` is Some here (first arm handles (None, None)), so the guard on the
                // second arm only fails when `i` is Some — already matched above.
                (Some(_), None) => unreachable!("guarded arm covers base-only state"),
            };
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining =
            (self.base.len() - self.bi) + (self.ins.len() - self.ii) - (self.del.len() - self.di);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for OverlayNeighbors<'_> {}

/// An immutable, epoch-tagged view of a [`VersionedGraph`] version. Cheap to clone;
/// keeps the pinned version's base CSR alive even across later compactions.
#[derive(Debug, Clone)]
pub struct SnapshotHandle {
    graph: Arc<OverlayGraph>,
}

impl SnapshotHandle {
    /// The pinned graph version.
    #[inline]
    pub fn graph(&self) -> &OverlayGraph {
        &self.graph
    }

    /// Epoch of the pinned version.
    #[inline]
    pub fn epoch(&self) -> GraphEpoch {
        self.graph.epoch()
    }
}

/// The serving wrapper over [`OverlayGraph`]: a published immutable version that readers
/// pin, plus an optional staged version a writer mutates. Publication swaps the staged
/// overlay in — `O(1)` beyond the `O(patches)` already paid while staging — and never
/// invalidates pinned snapshots.
#[derive(Debug, Clone)]
pub struct VersionedGraph {
    published: Arc<OverlayGraph>,
    staged: Option<OverlayGraph>,
}

impl VersionedGraph {
    /// Publishes `base` as epoch 0.
    pub fn new(base: Graph) -> Self {
        Self::from_overlay(OverlayGraph::new(base))
    }

    /// Publishes an existing overlay as the current version.
    pub fn from_overlay(overlay: OverlayGraph) -> Self {
        VersionedGraph {
            published: Arc::new(overlay),
            staged: None,
        }
    }

    /// The currently published version.
    #[inline]
    pub fn published(&self) -> &OverlayGraph {
        &self.published
    }

    /// Epoch of the currently published version.
    #[inline]
    pub fn epoch(&self) -> GraphEpoch {
        self.published.epoch()
    }

    /// Pins the published version. `O(1)`: an `Arc` clone.
    pub fn pin(&self) -> SnapshotHandle {
        SnapshotHandle {
            graph: Arc::clone(&self.published),
        }
    }

    /// Stages `delta` on top of the pending version (starting one from the published
    /// overlay if nothing is staged yet — an `O(|V| + patches)` copy, never a rebuild).
    /// Readers keep seeing the published epoch until [`VersionedGraph::publish`].
    pub fn stage(&mut self, delta: &GraphDelta) -> Result<(), GraphError> {
        let staged = self
            .staged
            .get_or_insert_with(|| self.published.as_ref().clone());
        staged.apply_delta(delta)
    }

    /// The staged (unpublished) version, when one exists.
    #[inline]
    pub fn staged(&self) -> Option<&OverlayGraph> {
        self.staged.as_ref()
    }

    /// Returns `true` when a staged version is pending publication.
    #[inline]
    pub fn has_staged(&self) -> bool {
        self.staged.is_some()
    }

    /// Atomically swaps the staged version in as the published one and returns its
    /// epoch. A no-op returning the current epoch when nothing is staged. Snapshots
    /// pinned before the publish keep reading the old version.
    pub fn publish(&mut self) -> GraphEpoch {
        if let Some(staged) = self.staged.take() {
            self.published = Arc::new(staged);
        }
        self.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        Graph::from_edges(
            vec![Label(0), Label(1), Label(1), Label(2)],
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap()
    }

    fn assert_matches_flat(overlay: &OverlayGraph, flat: &Graph) {
        assert_eq!(overlay.node_count(), flat.node_count());
        assert_eq!(overlay.edge_count(), flat.edge_count());
        for v in flat.nodes() {
            assert_eq!(overlay.label(v), flat.label(v));
            assert_eq!(overlay.out_degree(v), flat.out_degree(v));
            assert_eq!(overlay.in_degree(v), flat.in_degree(v));
            let out: Vec<NodeId> = overlay.out_neighbors(v).collect();
            let want: Vec<NodeId> = flat.out_neighbors(v).collect();
            assert_eq!(out, want, "out-adjacency of {v}");
            let inn: Vec<NodeId> = overlay.in_neighbors(v).collect();
            let want_in: Vec<NodeId> = flat.in_neighbors(v).collect();
            assert_eq!(inn, want_in, "in-adjacency of {v}");
            for w in flat.nodes() {
                assert_eq!(overlay.has_edge(v, w), flat.has_edge(v, w), "edge {v}->{w}");
            }
        }
        assert_eq!(&overlay.to_graph(), flat);
    }

    #[test]
    fn signatures_add_inserted_labels_and_keep_stale_tombstone_bits() {
        let sig = |o: &OverlayGraph, v: u32| AdjView::neighbor_label_signature(o, NodeId(v));
        let bit = |l: u32| LabelSignature::bit(Label(l));
        let mut overlay = OverlayGraph::with_policy(diamond(), CompactionPolicy::never());
        assert_eq!(sig(&overlay, 0), overlay.base().label_signature(NodeId(0)));
        let mut delta = GraphDelta::new();
        delta.insert_edge(NodeId(0), NodeId(3));
        delta.delete_edge(NodeId(1), NodeId(3));
        overlay.apply_delta(&delta).unwrap();
        // 0 -> 3 adds label 2 to 0's children and label 0 to 3's parents.
        assert_eq!(sig(&overlay, 0).children, bit(1) | bit(2));
        assert_eq!(sig(&overlay, 3).parents, bit(0) | bit(1));
        // The tombstoned 1 -> 3 leaves 1's child bit set: stale, but sound.
        assert_eq!(sig(&overlay, 1).children, bit(2));
        assert_eq!(overlay.to_graph().label_signature(NodeId(1)).children, 0);
        // Compaction rebuilds the base, whose fresh index is exact again.
        overlay.compact();
        assert_eq!(sig(&overlay, 1).children, 0);
        assert_eq!(sig(&overlay, 0).children, bit(1) | bit(2));
    }

    #[test]
    fn zero_patch_overlay_mirrors_base() {
        let g = diamond();
        let overlay = OverlayGraph::new(g.clone());
        assert!(overlay.is_flat());
        assert_eq!(overlay.epoch(), GraphEpoch(0));
        assert_eq!(overlay.overlay_fraction(), 0.0);
        assert_matches_flat(&overlay, &g);
    }

    #[test]
    fn apply_delta_tracks_flat_rebuild() {
        let g = diamond();
        let mut overlay = OverlayGraph::with_policy(g.clone(), CompactionPolicy::never());
        let mut delta = GraphDelta::new();
        delta
            .delete_edge(NodeId(0), NodeId(2))
            .insert_edge(NodeId(3), NodeId(0))
            .insert_edge(NodeId(2), NodeId(1));
        overlay.apply_delta(&delta).unwrap();
        let flat = g.apply_delta(&delta).unwrap();
        assert_eq!(overlay.epoch(), GraphEpoch(1));
        assert_eq!(overlay.overlay_mass(), 3);
        assert_eq!(overlay.compactions(), 0);
        assert_matches_flat(&overlay, &flat);
    }

    #[test]
    fn cancellation_keeps_overlay_mass_live() {
        let g = diamond();
        let mut overlay = OverlayGraph::with_policy(g.clone(), CompactionPolicy::never());
        let mut delta = GraphDelta::new();
        delta
            .delete_edge(NodeId(0), NodeId(1))
            .insert_edge(NodeId(3), NodeId(0));
        overlay.apply_delta(&delta).unwrap();
        assert_eq!(overlay.overlay_mass(), 2);
        overlay.apply_delta(&delta.inverse()).unwrap();
        // The inverse cancelled both patches instead of stacking two more.
        assert_eq!(overlay.overlay_mass(), 0);
        assert!(overlay.is_flat());
        assert_eq!(overlay.epoch(), GraphEpoch(2));
        assert_matches_flat(&overlay, &g);
    }

    #[test]
    fn eager_policy_compacts_every_batch() {
        let g = diamond();
        let mut overlay = OverlayGraph::with_policy(g.clone(), CompactionPolicy::eager());
        let mut delta = GraphDelta::new();
        delta.delete_edge(NodeId(1), NodeId(3));
        overlay.apply_delta(&delta).unwrap();
        assert_eq!(overlay.compactions(), 1);
        assert!(overlay.is_flat());
        assert_matches_flat(&overlay, &g.apply_delta(&delta).unwrap());
        // Tombstone-then-reinsert across the compaction boundary: the reinsert must be
        // a fresh overlay insert against the compacted base, not a resurrected patch.
        overlay.apply_delta(&delta.inverse()).unwrap();
        assert_eq!(overlay.compactions(), 2);
        assert_matches_flat(&overlay, &g);
    }

    #[test]
    fn validation_failures_leave_the_overlay_untouched() {
        let g = diamond();
        let mut overlay = OverlayGraph::new(g.clone());
        let mut bad = GraphDelta::new();
        bad.insert_edge(NodeId(0), NodeId(1));
        assert_eq!(
            overlay.apply_delta(&bad).unwrap_err(),
            GraphError::EdgeExists { from: 0, to: 1 }
        );
        assert_eq!(overlay.epoch(), GraphEpoch(0));
        assert_matches_flat(&overlay, &g);
        // Validation runs against the merged state, not the base: after deleting the
        // edge in the overlay, re-inserting it is legal even though the base has it.
        let mut del = GraphDelta::new();
        del.delete_edge(NodeId(0), NodeId(1));
        overlay.apply_delta(&del).unwrap();
        let mut reinsert = GraphDelta::new();
        reinsert.insert_edge(NodeId(0), NodeId(1));
        overlay.apply_delta(&reinsert).unwrap();
        assert_matches_flat(&overlay, &g);
    }

    #[test]
    fn adj_view_impl_merges_patches() {
        let g = diamond();
        let mut overlay = OverlayGraph::with_policy(g.clone(), CompactionPolicy::never());
        let mut delta = GraphDelta::new();
        delta.insert_edge(NodeId(3), NodeId(0));
        overlay.apply_delta(&delta).unwrap();
        let flat = g.apply_delta(&delta).unwrap();
        let view = &overlay;
        assert_eq!(AdjView::id_space(view), flat.node_count());
        for v in flat.nodes() {
            let out: Vec<NodeId> = AdjView::out_neighbors(view, v).collect();
            assert_eq!(out, flat.out_neighbors(v).collect::<Vec<_>>());
            let inn: Vec<NodeId> = AdjView::in_neighbors(view, v).collect();
            assert_eq!(inn, flat.in_neighbors(v).collect::<Vec<_>>());
        }
        let labelled: Vec<NodeId> = AdjView::nodes_with_label(view, Label(1)).collect();
        assert_eq!(labelled, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn snapshots_pin_versions_across_publish_and_compaction() {
        let g = diamond();
        let mut store = VersionedGraph::new(g.clone());
        let pinned = store.pin();
        assert_eq!(pinned.epoch(), GraphEpoch(0));

        let mut delta = GraphDelta::new();
        delta.delete_edge(NodeId(0), NodeId(1));
        store.stage(&delta).unwrap();
        // Staged but unpublished: readers still see epoch 0 with the edge intact.
        assert_eq!(store.epoch(), GraphEpoch(0));
        assert!(store.published().has_edge(NodeId(0), NodeId(1)));
        assert!(store.has_staged());

        let published = store.publish();
        assert_eq!(published, GraphEpoch(1));
        assert!(!store.published().has_edge(NodeId(0), NodeId(1)));
        assert!(!store.has_staged());
        // The pinned snapshot still reads the pre-update version.
        assert!(pinned.graph().has_edge(NodeId(0), NodeId(1)));
        assert_eq!(pinned.epoch(), GraphEpoch(0));
        assert_eq!(&pinned.graph().to_graph(), &g);
        // Publishing with nothing staged is a no-op.
        assert_eq!(store.publish(), GraphEpoch(1));
    }

    #[test]
    fn degenerate_empty_graph() {
        let g = Graph::from_edges(vec![], &[]).unwrap();
        let overlay = OverlayGraph::new(g.clone());
        assert_eq!(overlay.node_count(), 0);
        assert_eq!(overlay.edge_count(), 0);
        assert_eq!(overlay.overlay_fraction(), 0.0);
        assert_eq!(&overlay.to_graph(), &g);
    }
}
