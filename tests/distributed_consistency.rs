//! Distributed strong simulation (Section 4.3) agrees with the centralized algorithm.
//!
//! The paper's data-locality argument: strong simulation can be evaluated per ball, so a
//! partitioned evaluation that ships only boundary balls reproduces the centralized result.

use ssim_core::minimize::minimize_pattern;
use ssim_core::strong::{strong_simulation, MatchConfig};
use ssim_datasets::paper;
use ssim_datasets::patterns::extract_pattern;
use ssim_datasets::reallike::amazon_like;
use ssim_datasets::synthetic::{synthetic, SyntheticConfig};
use ssim_distributed::{
    distributed_strong_simulation, DistributedConfig, GraphPartition, PartitionStrategy,
};
use ssim_graph::{Graph, Label, Pattern};

#[test]
fn distributed_matches_centralized_across_sites_and_strategies() {
    let fig = paper::figure1();
    let central = strong_simulation(&fig.pattern, &fig.data, &MatchConfig::basic());
    for sites in [1usize, 2, 3, 4, 7] {
        for strategy in [PartitionStrategy::Hash, PartitionStrategy::Range] {
            for minimize_query in [false, true] {
                let out = distributed_strong_simulation(
                    &fig.pattern,
                    &fig.data,
                    &DistributedConfig {
                        sites,
                        strategy,
                        minimize_query,
                        ..DistributedConfig::default()
                    },
                )
                .expect("valid distributed config");
                assert_eq!(
                    central.matched_nodes(),
                    out.matched_nodes(),
                    "sites={sites} strategy={strategy:?} minQ={minimize_query}"
                );
                assert_eq!(central.subgraphs.len(), out.subgraphs.len());
            }
        }
    }
}

#[test]
fn distributed_matches_centralized_on_generated_workloads() {
    for seed in 0..4u64 {
        let data = synthetic(&SyntheticConfig {
            nodes: 150,
            alpha: 1.15,
            labels: 8,
            seed,
        });
        let Some(pattern) = extract_pattern(&data, 4, seed.wrapping_add(5)) else {
            continue;
        };
        let central = strong_simulation(&pattern, &data, &MatchConfig::basic());
        let out = distributed_strong_simulation(
            &pattern,
            &data,
            &DistributedConfig {
                sites: 5,
                strategy: PartitionStrategy::Hash,
                minimize_query: true,
                ..DistributedConfig::default()
            },
        )
        .expect("valid distributed config");
        assert_eq!(central.matched_nodes(), out.matched_nodes(), "seed={seed}");
    }
}

/// Regression: with `minimize_query` on, the sites match the minimised pattern, and the
/// coordinator must expand each class node back to the caller's pattern nodes. Before
/// the fix, rows kept their nodes and edges but reported relation pairs over class
/// nodes, so they differed from the centralized rows.
#[test]
fn minimized_rows_report_relation_over_callers_pattern() {
    // R -> A, R -> B1 -> C1 -> D1, R -> B2 -> C2 -> D2: the two B-C-D branches are
    // dual-simulation equivalent and collapse into one.
    let pattern = Pattern::from_edges(
        vec![
            Label(0),
            Label(1),
            Label(2),
            Label(2),
            Label(3),
            Label(3),
            Label(4),
            Label(4),
        ],
        &[(0, 1), (0, 2), (0, 3), (2, 4), (3, 5), (4, 6), (5, 7)],
    )
    .unwrap();
    assert!(minimize_pattern(&pattern).reduced());
    // Two copies of one branch-shaped match plus a dangling B, linked through A.
    let data = Graph::from_edges(
        vec![
            Label(0),
            Label(1),
            Label(2),
            Label(3),
            Label(4),
            Label(2),
            Label(0),
            Label(2),
            Label(3),
            Label(4),
        ],
        &[
            (0, 1),
            (0, 2),
            (2, 3),
            (3, 4),
            (0, 5),
            (6, 1),
            (6, 7),
            (7, 8),
            (8, 9),
        ],
    )
    .unwrap();
    let central = strong_simulation(&pattern, &data, &MatchConfig::optimized());
    assert!(!central.subgraphs.is_empty());
    for sites in [1usize, 2, 3] {
        for strategy in [PartitionStrategy::Hash, PartitionStrategy::Range] {
            let out = distributed_strong_simulation(
                &pattern,
                &data,
                &DistributedConfig {
                    sites,
                    strategy,
                    minimize_query: true,
                    ..DistributedConfig::default()
                },
            )
            .expect("valid distributed config");
            assert_eq!(
                central.subgraphs, out.subgraphs,
                "sites={sites} strategy={strategy:?}"
            );
        }
    }
}

#[test]
fn traffic_accounting_is_consistent() {
    let data = amazon_like(220, 6);
    let pattern = extract_pattern(&data, 4, 1).expect("extraction succeeds");
    let out = distributed_strong_simulation(
        &pattern,
        &data,
        &DistributedConfig {
            sites: 4,
            strategy: PartitionStrategy::Range,
            minimize_query: false,
            ..DistributedConfig::default()
        },
    )
    .expect("valid distributed config");
    // Every node is the center of exactly one ball, evaluated at its home site.
    assert_eq!(
        out.traffic.balls_per_site.iter().sum::<usize>(),
        data.node_count()
    );
    assert_eq!(out.traffic.balls_per_site.len(), 4);
    // Shipped balls are a subset of all balls; shipping implies a non-zero node count.
    assert!(out.traffic.shipped_balls <= data.node_count());
    if out.traffic.shipped_balls > 0 {
        assert!(out.traffic.shipped_nodes >= out.traffic.shipped_balls);
    }
    assert_eq!(out.traffic.result_subgraphs, out.subgraphs.len());
    // The fragments partition the node set.
    assert_eq!(
        out.partition.fragment_sizes().iter().sum::<usize>(),
        data.node_count()
    );
}

#[test]
fn partition_invariants() {
    let data = synthetic(&SyntheticConfig {
        nodes: 97,
        alpha: 1.2,
        labels: 5,
        seed: 9,
    });
    for sites in [2usize, 3, 10] {
        for strategy in [PartitionStrategy::Hash, PartitionStrategy::Range] {
            let p = GraphPartition::new(&data, sites, strategy);
            assert_eq!(p.fragment_sizes().iter().sum::<usize>(), data.node_count());
            // Every node belongs to exactly one site, and border nodes are exactly the nodes
            // with a cross-fragment neighbour.
            for v in data.nodes() {
                let home = p.site_of(v);
                assert!(home < sites);
                let has_foreign_neighbor = data
                    .out_neighbors(v)
                    .chain(data.in_neighbors(v))
                    .any(|w| p.site_of(w) != home);
                assert_eq!(p.is_border_node(&data, v), has_foreign_neighbor);
            }
        }
    }
}
