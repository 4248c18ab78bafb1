//! Layer replays: the calls a request makes into each layer, made again
//! from outside through the layers' public functions, each in a span.

use crate::flushes::Flush;
use crate::load::fingerprint;
use crate::trace::Tracer;
use cfd::core::Cfd;
use cfd::detect::{BatchOp, Detector, IncrementalDetector, Planner, Violations};
use cfd::relation::{Index, Relation, RelationStats};
use cfd::repair::{RepairKind, RepairResult, Repairer};
use cfd::sql::ExecStats;
use cfd::store::ColumnStore;
use cfd::{Engine, PoolStats, Session};
use std::sync::Arc;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The per-CFD LHS indexes a session shares between detection, repair and
/// explain (`None` for CFDs with don't-care patterns).
pub fn indexes(cfds: &[Cfd], rel: &Relation) -> Vec<Option<Index>> {
    cfds.iter()
        .map(|cfd| (!cfd.has_dont_care()).then(|| rel.build_index(cfd.lhs())))
        .collect()
}

/// Replays an `Auto` detection of `rel` as a fresh session runs it:
/// statistics of every left-hand side, the plan, the shared LHS indexes,
/// then the plan's execution. Returns the report and the plan's step count.
pub fn detect(t: &mut Tracer, cfds: &[Cfd], rel: &Relation, request: u64) -> (Violations, usize) {
    let parent = t.open("replay.detect", None, request);
    let planner = Planner::new();
    let mut stats = t.time("detect.stats", Some(parent), request, || {
        let mut stats = RelationStats::new(rel);
        for cfd in cfds {
            stats.group_stats(rel, cfd.lhs());
        }
        stats
    });
    let plan = t.time("detect.plan", Some(parent), request, || {
        planner.plan(cfds, rel, &mut stats, true)
    });
    let indexes = t.time("relation.index_build", Some(parent), request, || {
        indexes(cfds, rel)
    });
    let report = t.time("detect.execute", Some(parent), request, || {
        planner.execute(&plan, cfds, rel, Some(&indexes))
    });
    t.close(parent);
    (report, plan.steps().len())
}

/// Replays an equivalence-class repair on prebuilt indexes.
pub fn repair(
    t: &mut Tracer,
    engine: &Engine,
    threads: usize,
    rel: &Relation,
    request: u64,
) -> RepairResult {
    let cfds = engine.rules().cfds();
    let parent = t.open("replay.repair", None, request);
    let indexes = t.time("relation.index_build", Some(parent), request, || {
        indexes(cfds, rel)
    });
    let mut config = engine.config().repair().clone();
    config.kind = RepairKind::EquivClass;
    config.threads = threads;
    let repairer = Repairer::with_config(config);
    let result = t.time("repair.run", Some(parent), request, || {
        repairer.repair_with_indexes(cfds, rel, indexes)
    });
    t.close(parent);
    result
}

/// Replays the paper's per-CFD `QC`/`QV` detection, one query at a time.
pub fn sql(
    t: &mut Tracer,
    engine: &Engine,
    rel: &Arc<Relation>,
    request: u64,
) -> Result<(Violations, ExecStats), String> {
    let detector = Detector::new().with_strategy(engine.config().strategy());
    let parent = t.open("replay.sql", None, request);
    let mut report = Violations::new();
    let mut total = ExecStats::default();
    for cfd in engine.rules().cfds() {
        for (name, constant) in [("sql.qc", true), ("sql.qv", false)] {
            let (found, stats) = t
                .time(name, Some(parent), request, || {
                    if constant {
                        detector.qc_only(cfd, Arc::clone(rel))
                    } else {
                        detector.qv_only(cfd, Arc::clone(rel))
                    }
                })
                .map_err(err)?;
            report.merge(found);
            total.rows_examined += stats.rows_examined;
            total.index_probes += stats.index_probes;
        }
    }
    t.close(parent);
    Ok((report, total))
}

/// Opens an in-memory session and primes its incremental state, as a
/// serving tenant does when it is created.
pub fn open_session(
    t: &mut Tracer,
    engine: &Engine,
    base: &Arc<Relation>,
) -> Result<Session, String> {
    t.time("session.open", None, 0, || {
        let mut session = engine.session(Arc::clone(base)).map_err(err)?;
        session.apply_batch(&[]).map_err(err)?;
        Ok(session)
    })
}

/// Span names of one session replay, so replays at two scales stay apart.
pub struct SessionSpans {
    pub apply: &'static str,
    pub snapshot: &'static str,
}

/// Replays `flushes` through `session`: each flush's batch, then the
/// snapshot the server would publish. With `check`, every replayed report
/// must match the fingerprint of the report published for that
/// generation; the generations that did not are returned.
pub fn session_flushes(
    t: &mut Tracer,
    session: &mut Session,
    flushes: &[Flush<BatchOp>],
    names: &SessionSpans,
    check: bool,
) -> Result<Vec<u64>, String> {
    let mut mismatched = Vec::new();
    for f in flushes {
        let g = f.generation;
        let parent = t.open("replay.flush", None, g);
        let report = t.time(names.apply, Some(parent), g, || session.apply_batch(&f.ops));
        let snapshot = t.time(names.snapshot, Some(parent), g, || session.snapshot());
        t.close(parent);
        let report = report.map_err(err)?;
        snapshot.map_err(err)?;
        if check && fingerprint(&report) != f.report {
            mismatched.push(g);
        }
    }
    Ok(mismatched)
}

/// Replays `flushes` through a bare incremental detector over `base`.
pub fn incremental_flushes(
    t: &mut Tracer,
    cfds: &[Cfd],
    base: &Relation,
    flushes: &[Flush<BatchOp>],
) -> Result<Vec<u64>, String> {
    let mut detector = IncrementalDetector::new(base.clone(), cfds.to_vec());
    let mut mismatched = Vec::new();
    for f in flushes {
        let g = f.generation;
        let report = t.time("detect.incremental.apply_batch", None, g, || {
            detector.apply_batch(&f.ops)
        });
        let relation = t.time("detect.incremental.current_relation", None, g, || {
            detector.current_relation()
        });
        drop(relation);
        if fingerprint(&report.map_err(err)?) != f.report {
            mismatched.push(g);
        }
    }
    Ok(mismatched)
}

/// Counters of a store replay.
#[derive(Debug, Default)]
pub struct StoreReplay {
    pub mismatched: Vec<u64>,
    pub fsyncs: u64,
    pub before: PoolStats,
    pub after: PoolStats,
    pub scan_misses: u64,
}

/// Replays `flushes` through `store` as a disk-backed tenant applies them:
/// the durable commit, the detection scan, and the materialized snapshot.
pub fn store_flushes(
    t: &mut Tracer,
    store: &mut ColumnStore,
    cfds: &[Cfd],
    flushes: &[Flush<BatchOp>],
) -> Result<StoreReplay, String> {
    let mut out = StoreReplay {
        before: store.pool_stats(),
        ..StoreReplay::default()
    };
    let committed = store.committed_batches();
    for f in flushes {
        let g = f.generation;
        let parent = t.open("replay.flush", None, g);
        let commit = t.time("store.commit", Some(parent), g, || {
            store.apply_batch(&f.ops)
        });
        let misses = store.pool_stats().misses;
        let report = t.time("store.scan", Some(parent), g, || store.detect(cfds));
        out.scan_misses += store.pool_stats().misses - misses;
        let relation = t.time("store.materialize", Some(parent), g, || store.materialize());
        t.close(parent);
        commit.map_err(err)?;
        relation.map_err(err)?;
        if fingerprint(&report.map_err(err)?) != f.report {
            out.mismatched.push(g);
        }
    }
    out.fsyncs = store.committed_batches() - committed;
    out.after = store.pool_stats();
    Ok(out)
}
