//! The serving session: one dataset, one engine, all prepared state.
//!
//! A [`Session`] owns everything about serving one evolving dataset against
//! a compiled [`Engine`]:
//!
//! * the **current instance** (an [`Arc<Relation>`] snapshot, re-gathered
//!   lazily after stream batches);
//! * the per-CFD **LHS indexes**, built once per snapshot and *shared*
//!   between the detector ([`cfd_detect::detect_with_index`]) and the repair
//!   engine's dirty-group tracking
//!   ([`Repairer::repair_with_indexes`](cfd_repair::Repairer::repair_with_indexes));
//! * the **prepared SQL plans** ([`cfd_sql::PreparedQuery`]) binding the
//!   engine's compiled `QC`/`QV` queries to the snapshot — compiled
//!   expressions and derived probe indexes persist across `detect` calls;
//! * an embedded [`IncrementalDetector`] so [`Session::apply_batch`] streams
//!   mixed insert/delete batches against the same handle with group-local
//!   maintenance instead of rescans.
//!
//! Everything is built lazily by the first method that needs it, so opening
//! a session is cheap, and a pure streaming session never materializes
//! prepared SQL it does not use.

use crate::engine::{Engine, DATA_NAME, JOINED_NAME, TABLEAU_NAME};
use crate::error::{Error, Result};
use cfd_core::{Cfd, PatternTuple, ViolationKind, ViolationWitness, WitnessCells};
use cfd_detect::{
    detect_with_index, BatchOp, DetectionPlan, DirectDetector, Planner, ShardedDetector,
    ViolationItem, Violations,
};
use cfd_relation::{
    project_cols, AttrId, Index, Relation, RelationStats, Schema, Tuple, Value, ValueId,
};
use cfd_repair::{RepairKind, RepairResult, Repairer};
use cfd_sql::{Catalog, Executor, PreparedQuery};
use cfd_sql::{ResultSet, SelectQuery};
use cfd_store::{ColumnStore, PoolStats};
use std::sync::Arc;

use cfd_detect::DetectorKind;

/// A serving session over one dataset (see the crate docs for the
/// lifecycle).
///
/// Obtained from [`Engine::session`]. Methods take `&mut self` because the
/// session caches prepared per-snapshot state internally; for concurrent
/// serving, open one session per thread over the same shared `Engine` and
/// `Arc<Relation>`.
#[derive(Debug)]
pub struct Session {
    engine: Engine,
    /// The disk-backed store of a session opened via
    /// [`Engine::session_on_disk`]; `None` for in-memory sessions. When
    /// present it is the authoritative instance — the snapshot is a
    /// materialized view of it, and batches commit through its WAL.
    store: Option<ColumnStore>,
    /// Stream maintenance state; created by the first preview/batch call.
    stream: Option<cfd_detect::IncrementalDetector>,
    /// Materialized snapshot of the current instance. `None` only while
    /// stale after a batch (re-gathered lazily from `stream`).
    snapshot: Option<Arc<Relation>>,
    /// Per-CFD LHS indexes over the snapshot (`None` slots for don't-care
    /// CFDs), built once per snapshot.
    indexes: Option<Vec<Option<Index>>>,
    /// Per-CFD prepared `QC`/`QV` plans bound to the snapshot.
    prepared: Option<Vec<(PreparedQuery, PreparedQuery)>>,
    /// The prepared merged pair (Section 4.2), when the engine compiled one.
    prepared_merged: Option<(PreparedQuery, PreparedQuery)>,
    /// Column/group statistics of the snapshot, collected lazily by the
    /// first [`DetectorKind::Auto`] detection and grown on demand as the
    /// planner asks about new attribute sets. Bound to the snapshot:
    /// invalidated (with [`Session::detection_plan`]) by every applied batch.
    stats: Option<RelationStats>,
    /// The detection plan of the most recent [`DetectorKind::Auto`] run.
    plan: Option<DetectionPlan>,
}

impl Session {
    pub(crate) fn new(engine: Engine, data: Arc<Relation>) -> Result<Self> {
        if let Some(rules_schema) = engine.schema() {
            if data.schema() != rules_schema {
                return Err(Error::SchemaMismatch {
                    rules: rules_schema.name().to_owned(),
                    data: data.schema().name().to_owned(),
                });
            }
        }
        Ok(Session {
            engine,
            store: None,
            stream: None,
            snapshot: Some(data),
            indexes: None,
            prepared: None,
            prepared_merged: None,
            stats: None,
            plan: None,
        })
    }

    /// Opens a session over an already-recovered [`ColumnStore`] (the
    /// store's schema was checked against the engine's when it was opened).
    pub(crate) fn on_store(engine: Engine, store: ColumnStore) -> Result<Self> {
        Ok(Session {
            engine,
            store: Some(store),
            stream: None,
            snapshot: None,
            indexes: None,
            prepared: None,
            prepared_merged: None,
            stats: None,
            plan: None,
        })
    }

    /// Whether this session serves a disk-backed store
    /// ([`Engine::session_on_disk`]) rather than an in-memory relation.
    pub fn is_disk_backed(&self) -> bool {
        self.store.is_some()
    }

    /// Buffer-pool accounting of the disk-backed store (`None` for
    /// in-memory sessions). `peak_resident` is the page-memory high-water
    /// mark — bounded by the configured
    /// [`StorageConfig::pool_pages`](crate::StorageConfig) however large
    /// the instance is.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.store.as_ref().map(ColumnStore::pool_stats)
    }

    /// Batches durably committed by the disk-backed store (`None` for
    /// in-memory sessions). After a crash and reopen, exactly the batches
    /// whose [`Session::apply_batch`]/[`Session::ingest`] call reported
    /// success are counted — the kill-and-recover harness asserts this.
    pub fn committed_batches(&self) -> Option<u64> {
        self.store.as_ref().map(ColumnStore::committed_batches)
    }

    /// Forces the disk-backed store to checkpoint now (no-op result on
    /// in-memory sessions): dirty pages, dictionary and metadata are made
    /// durable and the WAL is truncated.
    pub fn checkpoint(&mut self) -> Result<()> {
        if let Some(store) = self.store.as_mut() {
            store.checkpoint()?;
        }
        Ok(())
    }

    /// The engine this session serves.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The schema of the served instance.
    pub fn schema(&self) -> &Schema {
        if let Some(store) = &self.store {
            return store.schema();
        }
        match (&self.snapshot, &self.stream) {
            (Some(snap), _) => snap.schema(),
            (None, Some(stream)) => stream.schema(),
            (None, None) => unreachable!("session always holds a snapshot, stream or store"),
        }
    }

    /// Number of live rows in the served instance.
    pub fn len(&self) -> usize {
        if let Some(store) = &self.store {
            return store.len();
        }
        match (&self.snapshot, &self.stream) {
            (Some(snap), None) => snap.len(),
            (_, Some(stream)) => stream.len(),
            (None, None) => unreachable!("session always holds a snapshot, stream or store"),
        }
    }

    /// Whether the served instance is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current instance as a shared snapshot: re-gathered from the
    /// stream state when batches have been applied since the last call, and
    /// **materialized from the store** (in live-slot order) on disk-backed
    /// sessions — which is the only way this can fail.
    pub fn snapshot(&mut self) -> Result<Arc<Relation>> {
        if self.snapshot.is_none() {
            let gathered = if let Some(stream) = &self.stream {
                stream.current_relation()
            } else if let Some(store) = self.store.as_mut() {
                store.materialize()?
            } else {
                unreachable!("a stale snapshot implies stream or store state")
            };
            self.snapshot = Some(Arc::new(gathered));
        }
        Ok(Arc::clone(self.snapshot.as_ref().expect("just ensured")))
    }

    /// Detects the violations of the current instance with the engine's
    /// configured [`DetectorKind`], through the prepared state:
    ///
    /// * `Direct` — the group-driven scan over the session's shared LHS
    ///   indexes (don't-care CFDs fall back to the row scan);
    /// * `Sql` / `SqlParallel` — the prepared `QC`/`QV` plans, sequential or
    ///   spread over scoped worker threads;
    /// * `SqlMerged` — the prepared merged pair (Section 4.2);
    /// * `Sharded` — hash-partitioned parallel scan of the snapshot;
    /// * `Auto` — the cost-based [`Planner`](cfd_detect::Planner): per-CFD
    ///   strategies chosen from cached column statistics of the snapshot
    ///   (index-driven steps reuse the session's shared LHS indexes); the
    ///   chosen plan is kept for inspection via [`Session::detection_plan`].
    ///
    /// Reports are byte-identical to running the same [`DetectorKind`] from
    /// scratch on [`Session::snapshot`] — the differential harness pins
    /// this across every engine.
    ///
    /// A **disk-backed** session runs every kind the same way: over the
    /// snapshot materialized from the store, which the session caches, so
    /// the snapshot a caller publishes after a batch is the one detection
    /// already read. Page memory stays bounded by the buffer pool; the
    /// snapshot holds the live rows in memory.
    pub fn detect(&mut self) -> Result<Violations> {
        match self.engine.config().detector() {
            DetectorKind::Direct => self.detect_direct(),
            DetectorKind::Sql => {
                self.ensure_prepared()?;
                let mut out = Violations::new();
                for pair in self.prepared.as_ref().expect("just ensured") {
                    out.merge(run_pair(pair)?);
                }
                Ok(out)
            }
            DetectorKind::SqlParallel { threads } => {
                self.ensure_prepared()?;
                let pairs = self.prepared.as_ref().expect("just ensured");
                if pairs.is_empty() {
                    return Ok(Violations::new());
                }
                let threads = threads.max(1).min(pairs.len());
                let chunk_size = pairs.len().div_ceil(threads);
                let results = std::thread::scope(|scope| {
                    let mut handles = Vec::new();
                    for chunk in pairs.chunks(chunk_size) {
                        handles.push(scope.spawn(move || {
                            let mut out = Violations::new();
                            for pair in chunk {
                                out.merge(run_pair(pair)?);
                            }
                            Ok::<_, Error>(out)
                        }));
                    }
                    handles.into_iter().map(join_worker).collect::<Vec<_>>()
                });
                let mut out = Violations::new();
                for r in results {
                    out.merge(r?);
                }
                Ok(out)
            }
            DetectorKind::SqlMerged => {
                self.ensure_prepared_merged()?;
                run_pair(self.prepared_merged.as_ref().expect("just ensured"))
            }
            DetectorKind::Sharded { shards } => {
                let snapshot = self.snapshot()?;
                Ok(ShardedDetector::new(shards).detect_set(self.engine.rules().cfds(), &snapshot))
            }
            DetectorKind::Auto => {
                let snapshot = self.snapshot()?;
                let planner = Planner::new();
                // The plan is prepared state like the indexes and compiled
                // SQL: computed once per snapshot (batches invalidate it
                // with the statistics it came from) and served from cache
                // on repeated detections.
                if self.plan.is_none() {
                    if self.stats.is_none() {
                        self.stats = Some(RelationStats::new(&snapshot));
                    }
                    // Indexes amortize across detections on a served
                    // snapshot, so plan with `index_reusable = true`.
                    self.plan = Some(planner.plan(
                        self.engine.rules().cfds(),
                        &snapshot,
                        self.stats.as_mut().expect("just ensured"),
                        true,
                    ));
                }
                if self.plan.as_ref().expect("just ensured").needs_indexes() {
                    self.ensure_indexes()?;
                }
                Ok(planner.execute(
                    self.plan.as_ref().expect("just ensured"),
                    self.engine.rules().cfds(),
                    &snapshot,
                    self.indexes.as_deref(),
                ))
            }
        }
    }

    /// The plan chosen by the most recent [`DetectorKind::Auto`] detection
    /// on this session: per fused step, the strategy the cost model picked,
    /// every scored candidate, and the group-cardinality estimate it was
    /// based on. `None` before the first `Auto` detection and after every
    /// applied batch (a batch invalidates the statistics the plan was built
    /// from). Disk-backed sessions plan over their materialized snapshot
    /// like in-memory ones.
    pub fn detection_plan(&self) -> Option<&DetectionPlan> {
        self.plan.as_ref()
    }

    /// Repairs the current instance with the given engine kind (all other
    /// repair options from the engine configuration), handing the
    /// equivalence-class engine the session's shared LHS indexes.
    ///
    /// The session itself is **not** mutated — the result carries the
    /// repaired instance, byte-identical to the one-shot
    /// [`repair_violations`](crate::repair_violations) on
    /// [`Session::snapshot`]. To keep serving the repaired data, open a
    /// session over `result.repaired`, or feed the changes back as a
    /// delete/insert batch via [`Session::apply_batch`].
    pub fn repair(&mut self, kind: RepairKind) -> Result<RepairResult> {
        let threads = self.engine.config().repair().threads;
        self.repair_with_threads(kind, threads)
    }

    /// [`Session::repair`] with an explicit worker-thread budget for the
    /// equivalence-class engine, overriding the configured
    /// `repair_threads` (clamped to ≥ 1; the engine further clamps by its
    /// spawn-amortization rule). Results are **byte-identical at any
    /// budget** — this knob only trades wall-clock for cores, which is how
    /// the serving layer caps a tenant's repair fan-out without changing
    /// its answers.
    pub fn repair_with_threads(
        &mut self,
        kind: RepairKind,
        threads: usize,
    ) -> Result<RepairResult> {
        let snapshot = self.snapshot()?;
        let mut config = self.engine.config().repair().clone();
        config.kind = kind;
        config.threads = threads.max(1);
        let repairer = Repairer::with_config(config);
        // Only the class engine consumes LHS indexes; the pass-loop
        // heuristic re-detects from scratch, so don't build or clone any
        // for it.
        if kind == RepairKind::Heuristic {
            return Ok(repairer.repair(self.engine.rules().cfds(), &snapshot));
        }
        self.ensure_indexes()?;
        let indexes = self.indexes.as_ref().expect("just ensured").clone();
        Ok(repairer.repair_with_indexes(self.engine.rules().cfds(), &snapshot, indexes))
    }

    /// Applies a mixed insert/delete batch to the served instance through
    /// the embedded [`IncrementalDetector`](cfd_detect::IncrementalDetector)
    /// and returns the complete violation report of the **new** instance —
    /// equal to a from-scratch detection, at group-local maintenance cost
    /// (`O(batch + touched groups)` instead of `O(|I|)`).
    ///
    /// Note on per-row cost-model weights: `TupleWeights` overrides in the
    /// engine's [`CostModel`](cfd_repair::CostModel) are bound to **row
    /// positions of the current snapshot**. Deletions renumber subsequent
    /// rows, so positional weight overrides do not follow tuples across
    /// batches that delete — use uniform weights (the default) on streaming
    /// sessions, or re-open a session with re-derived weights after
    /// deletions.
    ///
    /// # Failure atomicity
    ///
    /// A **rejected** batch (e.g. an op whose arity does not match the
    /// schema) leaves the session exactly as it was: the instance is
    /// untouched *and* every piece of prepared per-snapshot state — LHS
    /// indexes, prepared SQL plans, column statistics, the cached
    /// [`Session::detection_plan`] — remains valid and is **not**
    /// invalidated. Validation happens before any mutation, and caches are
    /// only cleared after the batch succeeds, so an error never costs the
    /// session its prepared state (the root regression test pins this).
    ///
    /// On a **disk-backed** session the batch additionally commits through
    /// the store's WAL before this returns — see the durability contract
    /// on [`cfd_store::ColumnStore`].
    pub fn apply_batch(&mut self, ops: &[BatchOp]) -> Result<Violations> {
        if self.store.is_some() {
            // Validation happens inside the store before any mutation; on
            // error nothing below runs and all caches stay valid.
            self.store
                .as_mut()
                .expect("just matched")
                .apply_batch(ops)?;
            self.invalidate_after_batch();
            // Stream state (previews) was derived from the superseded
            // materialization.
            self.stream = None;
            return self.detect();
        }
        self.ensure_stream()?;
        let report = self
            .stream
            .as_mut()
            .expect("just ensured")
            .apply_batch(ops)?;
        // The snapshot and everything bound to it are now stale — including
        // the column statistics and the detection plan derived from them:
        // the planner must never choose a strategy against counts of a
        // superseded instance.
        self.invalidate_after_batch();
        Ok(report)
    }

    /// Durably applies a batch to a **disk-backed** session without
    /// computing a violation report — the bulk-load path: the WAL commit
    /// (one fsync) is the whole cost, detection is deferred until the next
    /// [`Session::detect`]. Errors with
    /// [`Error::Config`](crate::Error::Config) on in-memory sessions
    /// (whose `apply_batch` always maintains a report anyway).
    ///
    /// Shares [`Session::apply_batch`]'s failure atomicity: a rejected
    /// batch mutates nothing and invalidates nothing.
    pub fn ingest(&mut self, ops: &[BatchOp]) -> Result<()> {
        let Some(store) = self.store.as_mut() else {
            return Err(Error::Config(
                "ingest requires a disk-backed session (use apply_batch on in-memory sessions)"
                    .into(),
            ));
        };
        store.apply_batch(ops)?;
        self.invalidate_after_batch();
        self.stream = None;
        Ok(())
    }

    /// Applies a [`RepairResult`] (from [`Session::repair`] on **this**
    /// session, unmodified) back to the served instance and returns the
    /// report of the repaired instance.
    ///
    /// On a disk-backed session the modifications become one durably
    /// logged cell-edit batch ([`cfd_store::ColumnStore::set_cells`] —
    /// one WAL fsync), translated from the result's live-row indices to
    /// store slots; on an in-memory session the session simply adopts
    /// `result.repaired` as its new snapshot. Either way the session
    /// serves the repaired data afterwards.
    ///
    /// The result must come from this session's current instance: row
    /// indices are positions of the snapshot the repair ran over, so
    /// applying a stale result (after an intervening batch) errors on
    /// out-of-range rows or silently edits the wrong tuples.
    pub fn commit_repair(&mut self, result: &RepairResult) -> Result<Violations> {
        if let Some(store) = self.store.as_mut() {
            let live = store.live_slots();
            let mut edits = Vec::with_capacity(result.modifications.len());
            for m in &result.modifications {
                let slot = *live.get(m.row).ok_or_else(|| {
                    Error::Config(format!(
                        "repair result row {} is out of range for this instance ({} live rows); \
                         was the result produced by an earlier snapshot?",
                        m.row,
                        live.len()
                    ))
                })?;
                edits.push((slot, m.attr.index() as u32, m.new.clone()));
            }
            store.set_cells(&edits)?;
            self.invalidate_after_batch();
            self.stream = None;
        } else {
            // Invalidate first: the repaired relation *is* the new snapshot
            // and must survive the cache clear.
            self.invalidate_after_batch();
            self.snapshot = Some(Arc::new(result.repaired.clone()));
            self.stream = None;
        }
        self.detect()
    }

    /// Drops every cache bound to the superseded snapshot. Callers decide
    /// what happens to the stream state (the in-memory batch path keeps it
    /// — it *is* the instance there).
    fn invalidate_after_batch(&mut self) {
        self.snapshot = None;
        self.indexes = None;
        self.prepared = None;
        self.prepared_merged = None;
        self.stats = None;
        self.plan = None;
    }

    /// Previews the violations `batch` would introduce if inserted — the
    /// violations of `current ∪ batch` involving at least one batch tuple —
    /// without changing the session.
    pub fn preview_insertions(&mut self, batch: &[Tuple]) -> Result<Violations> {
        self.ensure_stream()?;
        Ok(self
            .stream
            .as_ref()
            .expect("just ensured")
            .detect_insertions(batch))
    }

    /// Previews the currently-reported violations that deleting `batch`
    /// (bag semantics) would resolve, without changing the session.
    pub fn preview_deletions(&mut self, batch: &[Tuple]) -> Result<Violations> {
        self.ensure_stream()?;
        Ok(self
            .stream
            .as_ref()
            .expect("just ensured")
            .detect_deletions(batch))
    }

    /// Explains one report finding: which CFDs and pattern tuples it
    /// violates, on which rows, with the witness-cell obligations and the
    /// repair plan the cost model would choose.
    ///
    /// Takes the [`ViolationItem`]s yielded by
    /// [`Violations::items`](cfd_detect::Violations::items), fusing report
    /// iteration with provenance lookup. Each returned [`Explanation`]
    /// carries the violated pattern tuple, the involved row indices, the
    /// cell-level obligations ([`Cfd::witness_cells`]) and — for every RHS
    /// obligation — the [`PlannedEdit`] with the chosen class target and its
    /// weighted cost. Findings that no longer exist on the current instance
    /// (or were produced by other rules) explain to an empty list.
    ///
    /// Multi-tuple keys are interpreted in each same-arity CFD's own LHS
    /// attribute order — the key space of every per-CFD detector. The
    /// multi-CFD [`DetectorKind::SqlMerged`] path reports `QV` keys over the
    /// *merged* `X`-attribute union instead (its long-documented exception),
    /// and those union keys generally resolve to no per-CFD group here;
    /// explain per-CFD findings (any other detector kind, or a single-CFD
    /// merged engine) when key provenance matters.
    ///
    /// Planned edits apply the cost model's selection rule to **this
    /// witness's cells in isolation**. The equivalence-class repair engine
    /// additionally unions cells across *all* witnesses of a round, so when
    /// witnesses overlap (a row shared by several patterns or CFDs) the
    /// larger merged class can settle on a different target than the
    /// per-witness preview shows — [`Session::repair`] is the authority on
    /// what actually gets applied.
    ///
    /// Results are ordered by `(CFD index, rows, pattern index)` and are
    /// deterministic.
    pub fn explain(&mut self, item: &ViolationItem) -> Result<Vec<Explanation>> {
        let snapshot = self.snapshot()?;
        self.ensure_indexes()?;
        // A value never interned cannot occur in any relation: no provenance.
        let ids: Option<Vec<ValueId>> = item.values().iter().map(ValueId::get).collect();
        let Some(ids) = ids else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        match item {
            ViolationItem::Constant(_) => {
                if ids.len() != snapshot.schema().arity() {
                    return Ok(Vec::new());
                }
                let cols: Vec<&[ValueId]> = snapshot
                    .schema()
                    .attr_ids()
                    .map(|a| snapshot.column(a))
                    .collect();
                let full_match = |i: usize| cols.iter().zip(&ids).all(|(col, id)| col[i] == *id);
                // Locate the tuple's rows through any shared LHS index: the
                // tuple fixes its projection onto every CFD's LHS, so one
                // group lookup narrows the candidates to a single group
                // instead of scanning the instance (full scan only when no
                // keyed CFD exists).
                let indexes = self.indexes.as_ref().expect("just ensured");
                let keyed = self
                    .engine
                    .rules()
                    .iter()
                    .zip(indexes)
                    .find_map(|(cfd, index)| index.as_ref().map(|i| (cfd, i)));
                let rows: Vec<usize> = match keyed {
                    Some((cfd, index)) => {
                        let key: Vec<ValueId> = cfd.lhs().iter().map(|a| ids[a.index()]).collect();
                        let mut rows: Vec<usize> = index
                            .lookup_ids(&key)
                            .iter()
                            .copied()
                            .filter(|&i| full_match(i))
                            .collect();
                        rows.sort_unstable();
                        rows
                    }
                    None => (0..snapshot.len()).filter(|&i| full_match(i)).collect(),
                };
                for (cfd_index, cfd) in self.engine.rules().iter().enumerate() {
                    let xcols = snapshot.columns_for(cfd.lhs());
                    let ycols = snapshot.columns_for(cfd.rhs());
                    for &row in &rows {
                        let x = project_cols(&xcols, row);
                        let y = project_cols(&ycols, row);
                        for (pattern_index, pattern) in cfd.tableau().iter().enumerate() {
                            if pattern.lhs_matches_ids(&x) && !pattern.rhs_matches_ids(&y) {
                                let witness = ViolationWitness {
                                    pattern_index,
                                    kind: ViolationKind::SingleTuple,
                                    rows: vec![row],
                                };
                                out.push(self.explanation(cfd_index, cfd, &snapshot, witness));
                            }
                        }
                    }
                }
            }
            ViolationItem::MultiTupleKey(_) => {
                for (cfd_index, cfd) in self.engine.rules().iter().enumerate() {
                    if cfd.lhs().len() != ids.len() {
                        continue;
                    }
                    let rows = self.group_rows(cfd_index, cfd, &snapshot, &ids);
                    if rows.len() < 2 {
                        continue;
                    }
                    let ycols = snapshot.columns_for(cfd.rhs());
                    for (pattern_index, pattern) in cfd.tableau().iter().enumerate() {
                        if !pattern.lhs_matches_ids(&ids) {
                            continue;
                        }
                        let first = project_cols(&ycols, rows[0]);
                        if rows[1..].iter().any(|&r| project_cols(&ycols, r) != first) {
                            let witness = ViolationWitness {
                                pattern_index,
                                kind: ViolationKind::MultiTuple,
                                rows: rows.clone(),
                            };
                            out.push(self.explanation(cfd_index, cfd, &snapshot, witness));
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// The rows whose full-LHS projection under `cfd` equals `key`: an index
    /// lookup for keyed CFDs, a column scan for don't-care ones (whose `QV`
    /// keys the direct detector also reports over the full LHS).
    fn group_rows(
        &self,
        cfd_index: usize,
        cfd: &Cfd,
        snapshot: &Relation,
        key: &[ValueId],
    ) -> Vec<usize> {
        let indexes = self.indexes.as_ref().expect("ensured by caller");
        if let Some(index) = &indexes[cfd_index] {
            let mut rows = index.lookup_ids(key).to_vec();
            rows.sort_unstable();
            return rows;
        }
        let xcols = snapshot.columns_for(cfd.lhs());
        (0..snapshot.len())
            .filter(|&i| xcols.iter().zip(key).all(|(col, id)| col[i] == *id))
            .collect()
    }

    /// Packages one witness into an [`Explanation`] with its planned edits.
    fn explanation(
        &self,
        cfd_index: usize,
        cfd: &Cfd,
        snapshot: &Relation,
        witness: ViolationWitness,
    ) -> Explanation {
        let cells = cfd.witness_cells(&witness);
        let model = &self.engine.config().repair().cost_model;
        let mut planned = Vec::new();
        // Pin obligations: one edit per pinned RHS attribute (all pins of
        // one attribute share the pattern constant), priced over the
        // disagreeing cells.
        let mut pinned_attrs: Vec<(AttrId, ValueId)> = Vec::new();
        for &(_, attr, target) in &cells.pins {
            if !pinned_attrs.contains(&(attr, target)) {
                pinned_attrs.push((attr, target));
            }
        }
        for (attr, target) in pinned_attrs {
            let rows: Vec<usize> = cells
                .pins
                .iter()
                .filter(|&&(_, a, t)| a == attr && t == target)
                .map(|&(row, _, _)| row)
                .collect();
            let target_value = target.resolve();
            let cost: f64 = rows
                .iter()
                .filter(|&&row| snapshot.column(attr)[row] != target)
                .map(|&row| {
                    model.weight(row)
                        * model
                            .distance
                            .distance(snapshot.column(attr)[row].resolve(), target_value)
                })
                .sum();
            planned.push(PlannedEdit {
                attr,
                rows,
                target: target_value.clone(),
                cost,
            });
        }
        // Merge obligations: the class target the cost model would choose.
        for (attr, rows) in &cells.merges {
            let class: Vec<(usize, AttrId)> = rows.iter().map(|&r| (r, *attr)).collect();
            if let Some((target, cost)) = model.class_target(snapshot, &class) {
                planned.push(PlannedEdit {
                    attr: *attr,
                    rows: rows.clone(),
                    target: target.resolve().clone(),
                    cost,
                });
            }
        }
        Explanation {
            cfd_index,
            cfd_name: cfd.name().map(str::to_owned),
            pattern_index: witness.pattern_index,
            pattern: cfd.tableau().rows()[witness.pattern_index].clone(),
            kind: witness.kind,
            rows: witness.rows,
            cells,
            planned,
        }
    }

    /// The `Direct` path: group-driven detection over the shared indexes.
    fn detect_direct(&mut self) -> Result<Violations> {
        let snapshot = self.snapshot()?;
        self.ensure_indexes()?;
        let indexes = self.indexes.as_ref().expect("just ensured");
        let mut out = Violations::new();
        for (cfd, index) in self.engine.rules().iter().zip(indexes) {
            match index {
                Some(index) => out.merge(detect_with_index(cfd, &snapshot, index)),
                None => out.merge(DirectDetector::new().detect(cfd, &snapshot)),
            }
        }
        Ok(out)
    }

    fn ensure_indexes(&mut self) -> Result<()> {
        if self.indexes.is_some() {
            return Ok(());
        }
        let snapshot = self.snapshot()?;
        self.indexes = Some(
            self.engine
                .plans()
                .iter()
                .zip(self.engine.rules().iter())
                .map(|(plan, cfd)| plan.keyed.then(|| snapshot.build_index(cfd.lhs())))
                .collect(),
        );
        Ok(())
    }

    fn ensure_prepared(&mut self) -> Result<()> {
        if self.prepared.is_some() {
            return Ok(());
        }
        let snapshot = self.snapshot()?;
        let strategy = self.engine.config().strategy();
        let mut prepared = Vec::with_capacity(self.engine.plans().len());
        for plan in self.engine.plans() {
            prepared.push(prepare_pair(
                &snapshot,
                TABLEAU_NAME,
                &plan.tableau,
                &plan.qc,
                &plan.qv,
                strategy,
            )?);
        }
        self.prepared = Some(prepared);
        Ok(())
    }

    fn ensure_prepared_merged(&mut self) -> Result<()> {
        if self.prepared_merged.is_some() {
            return Ok(());
        }
        let plan = self.engine.merged_plan().ok_or_else(|| {
            Error::Sql(cfd_sql::SqlError::Unsupported(
                "engine compiled without a merged plan".into(),
            ))
        })?;
        let (joined, qc, qv) = (Arc::clone(&plan.joined), plan.qc.clone(), plan.qv.clone());
        let snapshot = self.snapshot()?;
        let strategy = self.engine.config().strategy();
        self.prepared_merged = Some(prepare_pair(
            &snapshot,
            JOINED_NAME,
            &joined,
            &qc,
            &qv,
            strategy,
        )?);
        Ok(())
    }

    fn ensure_stream(&mut self) -> Result<()> {
        if self.stream.is_some() {
            return Ok(());
        }
        let base = self.snapshot()?;
        self.stream = Some(cfd_detect::IncrementalDetector::new(
            (*base).clone(),
            self.engine.rules().cfds().to_vec(),
        ));
        Ok(())
    }
}

/// Joins one scoped detection worker, converting a worker panic into
/// [`Error::WorkerPanicked`] instead of re-panicking on the serving thread.
/// The session's prepared state is only ever *read* by workers, so after a
/// contained panic the session stays fully usable — the next `detect()`
/// re-runs the same prepared plans.
fn join_worker<T>(handle: std::thread::ScopedJoinHandle<'_, Result<T>>) -> Result<T> {
    handle.join().map_err(|_| Error::WorkerPanicked)?
}

/// Binds one compiled `QC`/`QV` pair to a data snapshot: an ephemeral
/// catalog + executor compile the plans once; the returned
/// [`PreparedQuery`]s own `Arc`s of both relations and outlive the catalog.
fn prepare_pair(
    data: &Arc<Relation>,
    tableau_name: &str,
    tableau: &Arc<Relation>,
    qc: &SelectQuery,
    qv: &SelectQuery,
    strategy: cfd_sql::Strategy,
) -> Result<(PreparedQuery, PreparedQuery)> {
    let mut catalog = Catalog::new();
    catalog.register_arc(DATA_NAME, Arc::clone(data));
    catalog.register_arc(tableau_name, Arc::clone(tableau));
    let executor = Executor::new(&catalog).with_strategy(strategy);
    Ok((executor.prepare(qc)?, executor.prepare(qv)?))
}

/// Runs one prepared `QC`/`QV` pair into a [`Violations`] report (the same
/// folding as `cfd_detect::Detector::detect_shared`).
fn run_pair(pair: &(PreparedQuery, PreparedQuery)) -> Result<Violations> {
    let mut out = Violations::new();
    let qc: ResultSet = pair.0.run()?;
    for row in qc.rows() {
        out.add_constant_violation(row.clone());
    }
    let qv: ResultSet = pair.1.run()?;
    for row in qv.rows() {
        out.add_multi_tuple_key(row.clone());
    }
    Ok(out)
}

/// The provenance of one report finding (see [`Session::explain`]): the
/// violated CFD and pattern tuple, the involved rows, the witness-cell
/// obligations, and the repair plan the cost model would choose.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Index of the violated CFD within [`Engine::rules`].
    pub cfd_index: usize,
    /// The CFD's name, when it has one.
    pub cfd_name: Option<String>,
    /// Index of the violated pattern tuple within the CFD's tableau.
    pub pattern_index: usize,
    /// The violated pattern tuple itself.
    pub pattern: PatternTuple,
    /// Single- or multi-tuple violation.
    pub kind: ViolationKind,
    /// The involved row indices (sorted).
    pub rows: Vec<usize>,
    /// The cell-level repair obligations ([`Cfd::witness_cells`]): which
    /// cells must agree, which are pinned to pattern constants.
    pub cells: WitnessCells,
    /// Per RHS obligation, the edit a repair would apply.
    pub planned: Vec<PlannedEdit>,
}

/// One planned repair edit of an [`Explanation`]: the target value the cost
/// model selects for an equivalence class (or the pattern constant a pin
/// demands) and its weighted cost over the disagreeing cells — the same
/// selection rule as [`cfd_repair::CostModel::class_target`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedEdit {
    /// The edited attribute.
    pub attr: AttrId,
    /// The rows of the obligation's cells.
    pub rows: Vec<usize>,
    /// The chosen target value.
    pub target: Value,
    /// `Σ weight(row) × dist(current, target)` over the disagreeing cells.
    pub cost: f64,
}

/// Sessions hold only owned state and can move across threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Session>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use cfd_datagen::cust::{cust_instance, phi2};

    #[test]
    fn worker_panics_surface_as_errors_and_leave_the_session_usable() {
        // The exact join the SqlParallel path performs, against a worker
        // that panics: the panic must come back as Error::WorkerPanicked,
        // not abort the joining (serving) thread.
        let joined: Result<Violations> = std::thread::scope(|scope| {
            let ok = scope.spawn(|| Ok(Violations::new()));
            let bad = scope.spawn(|| -> Result<Violations> { panic!("worker bug") });
            let first = join_worker(ok);
            assert!(first.is_ok());
            join_worker(bad)
        });
        assert_eq!(joined.unwrap_err(), Error::WorkerPanicked);

        // A session on the same thread keeps serving afterwards: prepared
        // state is read-only to workers, so nothing was corrupted.
        let engine = Engine::builder().rule(phi2()).build().unwrap();
        let mut session = engine.session(Arc::new(cust_instance())).unwrap();
        let report = session.detect().unwrap();
        assert_eq!(report.constant_violations().len(), 2);
    }
}
