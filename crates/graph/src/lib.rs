//! Graph substrate for the strong-simulation reproduction.
//!
//! This crate provides the data-graph and pattern-graph machinery that the paper
//! *"Capturing Topology in Graph Pattern Matching"* (Ma, Cao, Fan, Huai, Wo — VLDB 2011)
//! relies on:
//!
//! * node-labelled directed graphs stored in a compact CSR form with both forward and
//!   reverse adjacency ([`Graph`], [`GraphBuilder`]),
//! * pattern graphs with connectivity validation and pre-computed diameter ([`Pattern`]),
//! * balls `Ĝ[w, r]` — the radius-`r` undirected neighbourhood of a node — with border-node
//!   marking ([`Ball`]),
//! * undirected connected components and Tarjan strongly connected components
//!   ([`components`]),
//! * distance / diameter / cycle utilities ([`metrics`], [`cycles`]),
//! * a tiny dense [`bitset::BitSet`] and [`view::GraphView`] used by the matching
//!   algorithms in `ssim-core`.
//!
//! The representation favours dense, index-addressed vectors over hash maps on the hot
//! paths, following the performance guidance for database-style Rust code.
//!
//! # Quick example
//!
//! ```
//! use ssim_graph::{GraphBuilder, NodeId};
//!
//! let mut b = GraphBuilder::new();
//! let hr = b.add_node("HR");
//! let se = b.add_node("SE");
//! let bio = b.add_node("Bio");
//! b.add_edge(hr, se);
//! b.add_edge(hr, bio);
//! b.add_edge(se, bio);
//! let g = b.build();
//!
//! assert_eq!(g.node_count(), 3);
//! assert_eq!(g.edge_count(), 3);
//! assert_eq!(g.out_neighbors(hr).count(), 2);
//! assert_eq!(g.in_neighbors(bio).collect::<Vec<NodeId>>(), vec![hr, se]);
//! ```

pub mod ball;
pub mod bitset;
pub mod builder;
pub mod components;
pub mod cycles;
pub mod delta;
pub mod error;
pub mod graph;
pub mod io;
pub mod labels;
pub mod metrics;
pub mod overlay;
pub mod pattern;
pub mod subgraph;
pub mod traversal;
pub mod view;

pub use ball::{Ball, BallScratch, CompactBall, CompactBallView};
pub use bitset::BitSet;
pub use builder::GraphBuilder;
pub use delta::{DeltaTarget, GraphDelta};
pub use error::GraphError;
pub use graph::{Graph, LabelSignature, NodeId};
pub use labels::{Label, LabelInterner};
pub use overlay::{CompactionPolicy, GraphEpoch, OverlayGraph, SnapshotHandle, VersionedGraph};
pub use pattern::Pattern;
pub use subgraph::ExtractedSubgraph;
pub use view::{AdjView, GraphView};
