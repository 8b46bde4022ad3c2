//! Public entry points return `Ok` or `Err` on malformed input; they never panic.
//!
//! * `parse_edge_list` on arbitrary bytes, and on token soups built from the format's
//!   own vocabulary (record types, ids at and past the `u32` range, duplicate and sparse
//!   ids, comments), which reach far deeper into the parser than random bytes do.
//! * `GraphDelta::validate` on arbitrary node ids, in and out of range, with label pins
//!   that may disagree and operations that repeat or contradict each other. A batch that
//!   validates must then apply, to a flat graph and to an overlay, with equal results.

use proptest::prelude::*;
use ssim_graph::io::parse_edge_list;
use ssim_graph::{Graph, GraphDelta, Label, NodeId, OverlayGraph};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `f`, turning a panic into a failed case that names `context`.
fn no_panic<T>(context: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|_| format!("panicked on {context}"))
}

/// The edge-list format's vocabulary plus the values most likely to break it.
const TOKENS: &[&str] = &[
    "v",
    "e",
    "x",
    "#",
    "0",
    "1",
    "2",
    "3",
    "7",
    "-1",
    "4294967295",
    "4294967296",
    "99999999999999999999",
    "A",
    "B",
    "label",
    "\u{00e9}",
    "\t",
    " ",
    "\n",
    "\r\n",
    "\n#",
];

/// A small graph of `n` nodes with labels `0..3` and a fixed edge pattern, self-loop
/// included.
fn small_graph(n: u32) -> Graph {
    let labels = (0..n).map(|i| Label(i % 3)).collect();
    let edges: Vec<(u32, u32)> = (0..n)
        .map(|i| (i, (i * 7 + 1) % n))
        .chain([(0, 0)])
        .collect();
    Graph::from_edges(labels, &edges).expect("endpoints are in range")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_edge_list_never_panics_on_bytes(bytes in proptest::collection::vec(0u8..=255, 0..400)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        // `Ok` and `Err` are both fine; only a panic fails the case.
        let _ = no_panic(&format!("{text:?}"), || parse_edge_list(&text))?;
    }

    #[test]
    fn parse_edge_list_never_panics_on_token_soup(
        picks in proptest::collection::vec(0usize..TOKENS.len(), 0..120),
    ) {
        let mut text = String::new();
        for pick in picks {
            text.push_str(TOKENS[pick]);
            if !TOKENS[pick].trim().is_empty() {
                text.push(' ');
            }
        }
        let parsed = no_panic(&format!("{text:?}"), || parse_edge_list(&text))?;
        if let Ok((graph, _)) = parsed {
            // An accepted graph is well formed: every edge endpoint is a node.
            for (s, t) in graph.edges() {
                prop_assert!(graph.contains_node(s) && graph.contains_node(t));
            }
        }
    }

    #[test]
    fn delta_validation_never_panics(
        n in 1u32..12,
        ops in proptest::collection::vec((0u32..4, 0u32..16, 0u32..16, 0u32..4, 0u32..4), 0..24),
        huge in any::<bool>(),
    ) {
        let graph = small_graph(n);
        let mut delta = GraphDelta::new();
        for (kind, from, to, lf, lt) in ops {
            // Ids past `n` are out of range; `huge` pushes one to the end of the id space.
            let from = if huge && from == 15 { NodeId(u32::MAX) } else { NodeId(from) };
            let (to, lf, lt) = (NodeId(to), Label(lf), Label(lt));
            match kind {
                0 => delta.insert_edge(from, to),
                1 => delta.delete_edge(from, to),
                2 => delta.insert_edge_labeled(from, to, lf, lt),
                _ => delta.delete_edge_labeled(from, to, lf, lt),
            };
        }
        let context = format!("{delta:?} against {n} nodes");
        let verdict = no_panic(&context, || delta.validate(&graph))?;
        let mut overlay = OverlayGraph::new(graph.clone());
        let overlay_verdict = no_panic(&context, || overlay.apply_delta(&delta))?;
        prop_assert_eq!(&verdict, &overlay_verdict);
        let flat = no_panic(&context, || graph.apply_delta(&delta))?;
        match (verdict, flat) {
            (Ok(()), Ok(applied)) => prop_assert!(applied == overlay.to_graph(), "{context}"),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (v, f) => prop_assert!(false, "{context}: validate {v:?} but apply {:?}", f.map(|_| ())),
        }
    }
}
