//! Multi-pattern query service: standing queries over one shared, mutating graph.
//!
//! Everything else in this crate is one-pattern-one-shot (or one-pattern-one-session);
//! production traffic is many concurrent patterns standing over the same data graph.
//! Naively that is N independent [`crate::incremental::IncrementalMatcher`] sessions —
//! N private copies of the substrate, N delta applications, N edge-ball sweeps and N
//! region extractions per update, even though every one of those is a pure function of
//! the *shared* graph. [`QueryService`] collapses the redundancy without giving up the
//! per-pattern bit-identity contract:
//!
//! 1. **One substrate.** The registry holds a single epoch-versioned
//!    [`VersionedGraph`]; every registered query's [`PatternState`] (fixpoint, matched
//!    set, `Gm` cache) is maintained against it. Readers pin epochs via
//!    [`QueryService::pin`], and a delta lands on the overlay exactly once per
//!    [`QueryService::apply`] — not once per query.
//! 2. **Single-sweep delta fan-out.** The dirty-ball edge sweeps
//!    ([`ssim_graph::delta::mark_edge_ball_centers`] over the deleted edges on the
//!    pre-update graph and the inserted edges on the post-update graph) depend only on
//!    `(graph, delta, radius)`. The service runs them **once per distinct radius** and
//!    routes the result into every pattern's dirty set; patterns on the `Gm` substrate
//!    sweep their own cached extractions exactly as a private session would.
//! 3. **Shared-work scheduling.** Per apply, one [`SubstrateCache`] memoises the flat
//!    materialisation of the overlay and each `(radius, dirty)` region extraction
//!    across the per-pattern passes, and at registration a query whose
//!    pattern-and-shape equals an already-registered one clones that query's
//!    maintained state instead of recomputing the global fixpoint. Queries with
//!    overlapping label signatures ([`QueryService::signature_groups`]) are where the
//!    sharing bites: same-radius patterns over the same labels produce identical dirty
//!    sets, so their sweeps and region extractions collapse to one.
//! 4. **Bit-identity.** Every shared value is a pure function of inputs an independent
//!    session would compute for itself, so each query's [`MatchOutput`] — rows *and*
//!    stats — is bit-identical to a private `IncrementalMatcher` fed the same deltas.
//!    `tests/service_equivalence.rs` pins that differential oracle property-style.
//!
//! Patterns enter through the fluent [`PatternBuilder`]
//! (`.component(..)`, `.one_way_direction(..)` chains → a validated [`Pattern`]):
//!
//! ```
//! use ssim_core::service::{PatternBuilder, QueryService};
//! use ssim_core::strong::MatchConfig;
//! use ssim_graph::{Graph, Label};
//!
//! let pattern = PatternBuilder::new()
//!     .component("student", Label(0))
//!     .component("book", Label(1))
//!     .one_way_direction("student", "book")
//!     .build()
//!     .unwrap();
//!
//! let data = Graph::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
//! let mut service = QueryService::new(data);
//! let id = service.register(&pattern, MatchConfig::optimized());
//! assert!(service.output(id).unwrap().is_match());
//! ```

use crate::incremental::{
    deduped_copy, refreshed_pattern_stats, run_pattern_pass, splice_rows, PatternState,
    SubstrateCache, UpdatePlan, UpdateStats, DIRTY_BAIL_FRACTION,
};
use crate::match_graph::PerfectSubgraph;
use crate::strong::{match_with_prepared, MatchConfig, MatchOutput};
use ssim_graph::delta::mark_edge_ball_centers;
use ssim_graph::{
    BitSet, Graph, GraphDelta, GraphEpoch, GraphError, Label, NodeId, Pattern, SnapshotHandle,
    VersionedGraph,
};
use std::collections::{BTreeMap, BTreeSet};

/// A structural error found while assembling a pattern through [`PatternBuilder`].
///
/// The builder is infallible while chaining (matching the fluent style it mirrors);
/// every error is reported at [`PatternBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuilderError {
    /// `build()` on a builder with no components.
    NoComponents,
    /// Two `component(..)` calls used the same id.
    DuplicateComponent(String),
    /// An edge endpoint names a component that was never defined; `missing` is the
    /// undefined side.
    UndefinedEndpoint {
        /// The edge's source component id.
        source: String,
        /// The edge's target component id.
        target: String,
        /// Whichever of the two ids has no matching `component(..)` call.
        missing: String,
    },
    /// The assembled component/edge set is not a valid pattern (patterns must be
    /// non-empty and connected).
    Pattern(GraphError),
}

impl std::fmt::Display for BuilderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuilderError::NoComponents => write!(f, "pattern has no components"),
            BuilderError::DuplicateComponent(id) => {
                write!(f, "component `{id}` is defined twice")
            }
            BuilderError::UndefinedEndpoint {
                source,
                target,
                missing,
            } => write!(
                f,
                "edge `{source}` -> `{target}`: `{missing}` has not been defined, \
                 use .component(\"{missing}\", ..) to define it"
            ),
            BuilderError::Pattern(e) => write!(f, "invalid pattern: {e:?}"),
        }
    }
}

impl std::error::Error for BuilderError {}

/// Fluent pattern assembly: named components with labels, one-way edges between them.
///
/// Component ids are arbitrary strings; the built [`Pattern`]'s node ids follow the
/// `component(..)` call order. Errors (duplicate ids, undefined endpoints, structurally
/// invalid patterns) surface at [`PatternBuilder::build`], so chains never panic:
///
/// ```
/// use ssim_core::service::PatternBuilder;
/// use ssim_graph::Label;
///
/// let pattern = PatternBuilder::new()
///     .component("a", Label(0))
///     .component("b", Label(1))
///     .component("c", Label(0))
///     .one_way_direction("a", "b")
///     .one_way_direction("b", "c")
///     .build()
///     .unwrap();
/// assert_eq!(pattern.node_count(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PatternBuilder {
    components: Vec<(String, Label)>,
    edges: Vec<(String, String)>,
}

impl PatternBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        PatternBuilder::default()
    }

    /// Defines a component (a pattern node) with the given id and label.
    pub fn component(mut self, id: impl Into<String>, label: Label) -> Self {
        self.components.push((id.into(), label));
        self
    }

    /// Adds a directed edge from `source` to `target`. Both must be defined via
    /// [`PatternBuilder::component`] (in any order — definition may follow use) by the
    /// time [`PatternBuilder::build`] runs.
    pub fn one_way_direction(
        mut self,
        source: impl Into<String>,
        target: impl Into<String>,
    ) -> Self {
        self.edges.push((source.into(), target.into()));
        self
    }

    /// Validates the assembled components and edges into a [`Pattern`].
    pub fn build(&self) -> Result<Pattern, BuilderError> {
        if self.components.is_empty() {
            return Err(BuilderError::NoComponents);
        }
        let mut index: BTreeMap<&str, u32> = BTreeMap::new();
        for (i, (id, _)) in self.components.iter().enumerate() {
            if index.insert(id.as_str(), i as u32).is_some() {
                return Err(BuilderError::DuplicateComponent(id.clone()));
            }
        }
        let mut edges = Vec::with_capacity(self.edges.len());
        for (source, target) in &self.edges {
            let resolve = |id: &String| {
                index
                    .get(id.as_str())
                    .copied()
                    .ok_or_else(|| BuilderError::UndefinedEndpoint {
                        source: source.clone(),
                        target: target.clone(),
                        missing: id.clone(),
                    })
            };
            edges.push((resolve(source)?, resolve(target)?));
        }
        let labels: Vec<Label> = self.components.iter().map(|(_, l)| *l).collect();
        Pattern::from_edges(labels, &edges).map_err(BuilderError::Pattern)
    }
}

/// Handle to a registered standing query. Ids are allocated monotonically and never
/// reused, so a stale handle after [`QueryService::deregister`] is simply unknown (the
/// accessors return `None`) rather than silently naming a different query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub usize);

/// One registered standing query: its pattern, configuration, maintained
/// [`PatternState`] and cached output — everything an [`IncrementalMatcher`] session
/// owns except the substrate.
///
/// [`IncrementalMatcher`]: crate::incremental::IncrementalMatcher
struct Session {
    pattern: Pattern,
    config: MatchConfig,
    signature: BTreeSet<Label>,
    state: PatternState,
    /// Pre-deduplication rows; present exactly when the configuration deduplicates
    /// (the same split [`IncrementalMatcher`] keeps).
    ///
    /// [`IncrementalMatcher`]: crate::incremental::IncrementalMatcher
    dedup_rows: Option<Vec<PerfectSubgraph>>,
    output: MatchOutput,
    last_update: UpdateStats,
}

/// Per-query slice of a [`ServiceUpdate`].
#[derive(Debug, Clone)]
pub struct QueryUpdate {
    /// The query the stats belong to.
    pub id: QueryId,
    /// The same accounting a private session's `last_update()` would report.
    pub stats: UpdateStats,
}

/// How much cross-pattern work one [`QueryService::apply`] shared.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharingStats {
    /// Live registered queries the delta fanned out to.
    pub sessions: usize,
    /// Distinct radii the data-edge ball sweeps ran at (each runs once per side).
    pub edge_sweep_radii: usize,
    /// Sessions that consumed a shared data-edge sweep. With N same-radius full-graph
    /// sessions this reads N while `edge_sweep_radii` reads 1 — the fan-out saving.
    pub edge_sweep_consumers: usize,
    /// Substrate representations (flat materialisations + region extractions) built
    /// into the shared cache this apply.
    pub substrate_builds: usize,
    /// Substrate representations served from the shared cache instead of rebuilt —
    /// each one a whole-graph merge or region BFS+extraction an independent session
    /// would have paid.
    pub substrate_reuses: usize,
}

/// What one [`QueryService::apply`] did: the substrate epoch it produced, per-query
/// update accounting, and the cross-pattern sharing counters.
#[derive(Debug, Clone)]
pub struct ServiceUpdate {
    /// Epoch of the published substrate after the apply.
    pub epoch: GraphEpoch,
    /// The overlay compacted back to a flat base CSR during this apply.
    pub compacted: bool,
    /// Per-query stats, ascending [`QueryId`].
    pub queries: Vec<QueryUpdate>,
    /// Cross-pattern sharing accounting.
    pub sharing: SharingStats,
}

/// A registry of standing queries over one shared, epoch-versioned data graph.
///
/// See the [module docs](self) for the sharing model. The contract: after every
/// [`QueryService::apply`], each registered query's [`QueryService::output`] is
/// bit-identical — rows and stats — to a private
/// [`crate::incremental::IncrementalMatcher`] constructed on the same initial graph
/// with the same configuration and fed the same deltas.
pub struct QueryService {
    substrate: VersionedGraph,
    sessions: Vec<Option<Session>>,
}

impl QueryService {
    /// A service over `data` with no registered queries.
    pub fn new(data: Graph) -> Self {
        QueryService {
            substrate: VersionedGraph::new(data),
            sessions: Vec::new(),
        }
    }

    /// Registers a standing query and runs its initial match over the current graph.
    ///
    /// `config.update_plan` is ignored: the service *is* the incremental plan (the
    /// recompute oracle exists as N independent sessions, which is exactly what the
    /// differential suite runs). If an already-registered query has the same pattern
    /// and shape-relevant configuration, its maintained state is cloned instead of
    /// recomputing the global fixpoint — bit-identical by purity, cheaper by one
    /// fixpoint and one `Gm` extraction.
    pub fn register(&mut self, pattern: &Pattern, config: MatchConfig) -> QueryId {
        let data = self.substrate.published();
        let state = self.reusable_state(pattern, &config).unwrap_or_else(|| {
            PatternState::new(
                pattern,
                data,
                config.minimize_query,
                config.radius_override,
                config.dual_filter,
                config.ball_substrate,
                config.refine_strategy,
            )
        });
        let run_cfg = MatchConfig {
            deduplicate: false,
            update_plan: UpdatePlan::Incremental,
            ..config
        };
        // Mirror `IncrementalMatcher::new`: one unrestricted prepared pass over the
        // current graph (copy-free off the base CSR while the overlay is flat).
        let out = if data.is_flat() {
            match_with_prepared(pattern, data.base(), &run_cfg, state.prepared(), None)
        } else {
            let flat = data.to_graph();
            match_with_prepared(pattern, &flat, &run_cfg, state.prepared(), None)
        };
        let (dedup_rows, subgraphs) = if config.deduplicate {
            let subgraphs = deduped_copy(&out.subgraphs);
            (Some(out.subgraphs), subgraphs)
        } else {
            (None, out.subgraphs)
        };
        let output = MatchOutput {
            stats: refreshed_pattern_stats(out.stats, &state, data.node_count(), subgraphs.len()),
            subgraphs,
        };
        let signature = pattern
            .nodes()
            .map(|u| pattern.label(u))
            .collect::<BTreeSet<Label>>();
        let n = data.node_count();
        self.sessions.push(Some(Session {
            pattern: pattern.clone(),
            config,
            signature,
            state,
            dedup_rows,
            output,
            last_update: UpdateStats {
                dirty_balls: n,
                clean_balls: 0,
                ..UpdateStats::default()
            },
        }));
        QueryId(self.sessions.len() - 1)
    }

    /// A clone of an already-registered query's maintained state, when one with the
    /// same pattern and the same shape-relevant configuration exists. The maintained
    /// state is a pure function of those inputs over the current graph, so the clone
    /// is bit-identical to recomputing.
    fn reusable_state(&self, pattern: &Pattern, config: &MatchConfig) -> Option<PatternState> {
        self.sessions.iter().flatten().find_map(|s| {
            let same_shape = s.pattern == *pattern
                && s.config.minimize_query == config.minimize_query
                && s.config.radius_override == config.radius_override
                && s.config.dual_filter == config.dual_filter
                && s.config.ball_substrate == config.ball_substrate
                && s.config.refine_strategy == config.refine_strategy;
            same_shape.then(|| s.state.clone())
        })
    }

    /// Removes a standing query. Returns `false` when the id is unknown or already
    /// deregistered. The id is never reused.
    pub fn deregister(&mut self, id: QueryId) -> bool {
        match self.sessions.get_mut(id.0) {
            Some(slot @ Some(_)) => {
                *slot = None;
                true
            }
            _ => false,
        }
    }

    /// Ids of the live registered queries, ascending.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.sessions
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| QueryId(i)))
            .collect()
    }

    /// Number of live registered queries.
    pub fn len(&self) -> usize {
        self.sessions.iter().flatten().count()
    }

    /// `true` when no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached match result of one query over the current graph.
    pub fn output(&self, id: QueryId) -> Option<&MatchOutput> {
        self.session(id).map(|s| &s.output)
    }

    /// Work accounting of the most recent apply for one query (or of its initial run,
    /// where every ball is dirty by definition).
    pub fn last_update(&self, id: QueryId) -> Option<&UpdateStats> {
        self.session(id).map(|s| &s.last_update)
    }

    /// The pattern a query was registered with.
    pub fn pattern(&self, id: QueryId) -> Option<&Pattern> {
        self.session(id).map(|s| &s.pattern)
    }

    /// The configuration a query was registered with.
    pub fn config(&self, id: QueryId) -> Option<&MatchConfig> {
        self.session(id).map(|s| &s.config)
    }

    /// The set of labels a query's pattern uses — its label signature.
    pub fn signature(&self, id: QueryId) -> Option<&BTreeSet<Label>> {
        self.session(id).map(|s| &s.signature)
    }

    /// Epoch of the currently published substrate version.
    pub fn epoch(&self) -> GraphEpoch {
        self.substrate.epoch()
    }

    /// Pins the published substrate version — an `O(1)` epoch-tagged snapshot that
    /// stays readable across later applies and compactions.
    pub fn pin(&self) -> SnapshotHandle {
        self.substrate.pin()
    }

    /// The current data graph, materialised flat — an `O(|V|+|E|)` merge meant for
    /// oracles and tests, not the serving path (use [`QueryService::pin`] to read
    /// without materialising).
    pub fn data(&self) -> Graph {
        self.substrate.published().to_graph()
    }

    /// Groups the live queries by *overlapping* label signatures (transitively: two
    /// queries sharing any label land in one group, and a third overlapping either
    /// joins them). Groups are where cross-pattern sharing concentrates — same-radius
    /// patterns over the same labels produce identical dirty sets — and they are the
    /// unit a deployment would shard by: queries in different groups share only the
    /// substrate itself.
    pub fn signature_groups(&self) -> Vec<Vec<QueryId>> {
        let mut groups: Vec<(BTreeSet<Label>, Vec<QueryId>)> = Vec::new();
        for (i, s) in self.sessions.iter().enumerate() {
            let Some(s) = s else { continue };
            let (mut overlapping, disjoint): (Vec<_>, Vec<_>) = groups
                .drain(..)
                .partition(|(sig, _)| !sig.is_disjoint(&s.signature));
            let mut merged = (s.signature.clone(), vec![QueryId(i)]);
            for (sig, ids) in overlapping.drain(..) {
                merged.0.extend(sig);
                // Earlier groups hold smaller ids; extending keeps ascending order.
                let mut ids = ids;
                ids.extend(std::mem::take(&mut merged.1));
                merged.1 = ids;
            }
            merged.1.sort_unstable();
            groups = disjoint;
            groups.push(merged);
        }
        groups.sort_by_key(|(_, ids)| ids[0]);
        groups.into_iter().map(|(_, ids)| ids).collect()
    }

    /// Applies one validated delta to the shared substrate and fans it out to every
    /// registered query in a single sweep: edge-ball marking once per distinct radius,
    /// one substrate cache across the per-query restricted passes. Fails (leaving the
    /// substrate and every query untouched) when the delta does not validate against
    /// the current graph.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<ServiceUpdate, GraphError> {
        delta.validate(self.substrate.published())?;
        let n = self.substrate.published().node_count();
        let deleted: Vec<(NodeId, NodeId)> = delta.deleted_edges().collect();
        let inserted: Vec<(NodeId, NodeId)> = delta.inserted_edges().collect();

        // The shared halves of the dirty sweep: deleted edges localise in the
        // pre-update graph, inserted edges in the post-update one, per distinct radius
        // among the queries that sweep data edges (full-graph localisation); `Gm`
        // queries sweep their own cached extractions inside `advance_applied`.
        let mut sweeps: BTreeMap<usize, (BitSet, BitSet)> = BTreeMap::new();
        let mut sweep_consumers = 0usize;
        for s in self.sessions.iter().flatten() {
            if s.state.sweeps_data_edges() {
                sweep_consumers += 1;
                sweeps
                    .entry(s.state.radius)
                    .or_insert_with(|| (BitSet::new(n), BitSet::new(n)));
            }
        }
        for (radius, (pre, _)) in sweeps.iter_mut() {
            mark_edge_ball_centers(self.substrate.published(), &deleted, *radius, pre);
        }

        let compactions_before = self.substrate.published().compactions();
        self.substrate
            .stage(delta)
            .expect("validated against the published version");
        self.substrate.publish();
        let data = self.substrate.published();
        let compacted = data.compactions() > compactions_before;

        for (radius, (_, post)) in sweeps.iter_mut() {
            mark_edge_ball_centers(data, &inserted, *radius, post);
        }

        let empty = BitSet::new(n);
        let mut cache = SubstrateCache::new();
        let mut queries = Vec::new();
        for (i, slot) in self.sessions.iter_mut().enumerate() {
            let Some(sess) = slot else { continue };
            let (pre, post) = match sweeps.get(&sess.state.radius) {
                Some((pre, post)) if sess.state.sweeps_data_edges() => (pre, post),
                _ => (&empty, &empty),
            };
            let effect = sess.state.advance_applied(data, delta, pre, post);
            // From here the per-query path mirrors `IncrementalMatcher::apply` exactly
            // — same bail, same restricted pass (modulo the shared cache, which only
            // memoises values the private pass would compute identically), same splice
            // and re-deduplication.
            let run_cfg = MatchConfig {
                deduplicate: false,
                ..sess.config
            };
            let bailed = effect.dirty.len() > (DIRTY_BAIL_FRACTION * n as f64) as usize;
            let (out, dirty) = if bailed {
                let out = run_pattern_pass(
                    &sess.pattern,
                    data,
                    &sess.state,
                    &run_cfg,
                    None,
                    Some(&mut cache),
                );
                (out, None)
            } else {
                let out = run_pattern_pass(
                    &sess.pattern,
                    data,
                    &sess.state,
                    &run_cfg,
                    Some(&effect.dirty),
                    Some(&mut cache),
                );
                (out, Some(&effect.dirty))
            };
            match (&mut sess.dedup_rows, dirty) {
                (Some(rows), Some(dirty)) => {
                    splice_rows(rows, dirty, out.subgraphs);
                    sess.output.subgraphs = deduped_copy(rows);
                }
                (Some(rows), None) => {
                    *rows = out.subgraphs;
                    sess.output.subgraphs = deduped_copy(rows);
                }
                (None, Some(dirty)) => {
                    splice_rows(&mut sess.output.subgraphs, dirty, out.subgraphs)
                }
                (None, None) => sess.output.subgraphs = out.subgraphs,
            }
            sess.output.stats =
                refreshed_pattern_stats(out.stats, &sess.state, n, sess.output.subgraphs.len());
            sess.last_update = UpdateStats {
                dirty_balls: if bailed { n } else { effect.dirty.len() },
                clean_balls: if bailed { 0 } else { n - effect.dirty.len() },
                pairs_gained: effect.pairs_gained,
                pairs_lost: effect.pairs_lost,
                pairs_admitted: effect.pairs_admitted,
                relation_recomputed: effect.relation_recomputed,
                gm_reextracted: effect.gm_reextracted,
                dirty_bailed: bailed,
                overlay_compacted: compacted,
            };
            queries.push(QueryUpdate {
                id: QueryId(i),
                stats: sess.last_update.clone(),
            });
        }

        let (substrate_reuses, substrate_builds) = cache.counters();
        Ok(ServiceUpdate {
            epoch: self.substrate.epoch(),
            compacted,
            queries,
            sharing: SharingStats {
                sessions: sweep_consumers.max(self.len()),
                edge_sweep_radii: sweeps.len(),
                edge_sweep_consumers: sweep_consumers,
                substrate_builds,
                substrate_reuses,
            },
        })
    }

    /// Applies a batch of deltas as **one** maintenance step, mirroring
    /// [`crate::incremental::IncrementalMatcher::apply_batch`]: the stream is staged on
    /// a cheap overlay clone to validate its order-sensitive legality up front, folded
    /// into its net delta ([`GraphDelta::then`]) and fed through a single
    /// [`QueryService::apply`] — so sweeps, fixpoint maintenance and the restricted
    /// passes are paid once per batch for *every* registered query. A mid-stream
    /// validation error leaves the substrate and every query untouched.
    pub fn apply_batch(&mut self, deltas: &[GraphDelta]) -> Result<ServiceUpdate, GraphError> {
        let [first, rest @ ..] = deltas else {
            return Ok(ServiceUpdate {
                epoch: self.substrate.epoch(),
                compacted: false,
                queries: Vec::new(),
                sharing: SharingStats {
                    sessions: self.len(),
                    ..SharingStats::default()
                },
            });
        };
        if rest.is_empty() {
            return self.apply(first);
        }
        // O(patch-slots) clone — the base CSR is shared behind an Arc.
        let mut staged = self.substrate.published().clone();
        for d in deltas {
            staged.apply_delta(d)?;
        }
        let mut net = first.clone();
        for d in rest {
            net = net.then(d);
        }
        self.apply(&net)
    }

    fn session(&self, id: QueryId) -> Option<&Session> {
        self.sessions.get(id.0).and_then(|s| s.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::IncrementalMatcher;

    fn chain_data() -> Graph {
        let labels: Vec<Label> = (0..12u32).map(|i| Label(i % 2)).collect();
        let edges: Vec<(u32, u32)> = (0..11u32).map(|i| (i, i + 1)).collect();
        Graph::from_edges(labels, &edges).unwrap()
    }

    fn path_pattern(labels: &[u32]) -> Pattern {
        let edges: Vec<(u32, u32)> = (0..labels.len() as u32 - 1).map(|i| (i, i + 1)).collect();
        Pattern::from_edges(labels.iter().map(|&l| Label(l)).collect(), &edges).unwrap()
    }

    #[test]
    fn builder_assembles_a_path() {
        let built = PatternBuilder::new()
            .component("a", Label(0))
            .component("b", Label(1))
            .one_way_direction("a", "b")
            .build()
            .unwrap();
        assert_eq!(built, path_pattern(&[0, 1]));
    }

    #[test]
    fn builder_reports_undefined_endpoints_and_duplicates() {
        let missing = PatternBuilder::new()
            .component("a", Label(0))
            .one_way_direction("a", "ghost")
            .build();
        assert_eq!(
            missing,
            Err(BuilderError::UndefinedEndpoint {
                source: "a".into(),
                target: "ghost".into(),
                missing: "ghost".into(),
            })
        );
        let dup = PatternBuilder::new()
            .component("a", Label(0))
            .component("a", Label(1))
            .build();
        assert_eq!(dup, Err(BuilderError::DuplicateComponent("a".into())));
        assert_eq!(
            PatternBuilder::new().build(),
            Err(BuilderError::NoComponents)
        );
    }

    #[test]
    fn service_tracks_independent_sessions_through_a_delta() {
        let data = chain_data();
        let patterns = [path_pattern(&[0, 1]), path_pattern(&[1, 0])];
        let config = MatchConfig::optimized();
        let mut service = QueryService::new(data.clone());
        let ids: Vec<QueryId> = patterns
            .iter()
            .map(|p| service.register(p, config))
            .collect();
        let mut oracles: Vec<IncrementalMatcher> = patterns
            .iter()
            .map(|p| IncrementalMatcher::new(p, data.clone(), config))
            .collect();
        for (id, oracle) in ids.iter().zip(&oracles) {
            assert_eq!(
                service.output(*id).unwrap(),
                oracle.output(),
                "initial output"
            );
        }
        let mut delta = GraphDelta::new();
        delta.delete_edge(NodeId(5), NodeId(6));
        delta.insert_edge(NodeId(6), NodeId(5));
        let update = service.apply(&delta).unwrap();
        assert_eq!(update.queries.len(), 2);
        // optimized() is a Gm-substrate shape: it sweeps its own cached extraction,
        // so the shared data-edge sweep plane stays idle.
        assert_eq!(update.sharing.edge_sweep_radii, 0);
        assert_eq!(update.sharing.edge_sweep_consumers, 0);
        for (id, oracle) in ids.iter().zip(oracles.iter_mut()) {
            oracle.apply(&delta).unwrap();
            assert_eq!(service.output(*id).unwrap(), oracle.output(), "post-delta");
            assert_eq!(
                service.last_update(*id).unwrap(),
                oracle.last_update(),
                "per-query stats"
            );
        }
    }

    #[test]
    fn registry_lifecycle_register_deregister_reuse() {
        let data = chain_data();
        let mut service = QueryService::new(data);
        let a = service.register(&path_pattern(&[0, 1]), MatchConfig::basic());
        let b = service.register(&path_pattern(&[0, 1]), MatchConfig::basic());
        assert_ne!(a, b, "identical queries get distinct ids");
        assert_eq!(service.len(), 2);
        assert_eq!(service.output(a), service.output(b));
        assert!(service.deregister(a));
        assert!(!service.deregister(a), "double deregister is a no-op");
        assert_eq!(service.len(), 1);
        assert!(service.output(a).is_none(), "stale handle goes dark");
        assert!(service.output(b).is_some());
        let c = service.register(&path_pattern(&[1, 0]), MatchConfig::basic());
        assert!(c > b, "ids are never reused");
        let mut delta = GraphDelta::new();
        delta.delete_edge(NodeId(0), NodeId(1));
        let update = service.apply(&delta).unwrap();
        assert_eq!(update.queries.len(), 2, "only live queries are updated");
    }

    #[test]
    fn signature_groups_merge_transitively() {
        let data = chain_data();
        let mut service = QueryService::new(data);
        let a = service.register(&path_pattern(&[0, 0]), MatchConfig::basic());
        let b = service.register(&path_pattern(&[1, 1]), MatchConfig::basic());
        assert_eq!(service.signature_groups(), vec![vec![a], vec![b]]);
        // {0,1} overlaps both — everything merges.
        let c = service.register(&path_pattern(&[0, 1]), MatchConfig::basic());
        assert_eq!(service.signature_groups(), vec![vec![a, b, c]]);
    }

    #[test]
    fn invalid_delta_leaves_every_query_untouched() {
        let data = chain_data();
        let mut service = QueryService::new(data);
        let id = service.register(&path_pattern(&[0, 1]), MatchConfig::basic());
        let before = service.output(id).unwrap().clone();
        let epoch = service.epoch();
        let mut bad = GraphDelta::new();
        bad.delete_edge(NodeId(1), NodeId(0)); // not present
        assert!(service.apply(&bad).is_err());
        assert_eq!(service.output(id).unwrap(), &before);
        assert_eq!(service.epoch(), epoch);
    }
}
