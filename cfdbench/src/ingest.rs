//! `ingest`: two writers stream single-op inserts and deletes into one
//! in-memory tenant of 200k rows.
//!
//! Write cost here is rebuilding the whole report and gathering a new
//! snapshot per flush, plus the server's group commit; kernels, repair,
//! SQL and the store do no work.

use crate::flushes;
use crate::inputs;
use crate::load::{self, Client, LoadOptions, Request};
use crate::replay::{self, SessionSpans};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{durations, err, repeated_setup, Run};
use cfd::relation::interner::interned_count;
use cfd::Engine;
use cfd_serve::Server;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const TENANT: &str = "ingest";
const ROWS: usize = 200_000;
/// Base size of the second replay, for the per-flush cost slope.
const SMALL_ROWS: usize = 5_000;
/// Rows a writer inserts before it starts deleting.
const LAG: usize = 16;
/// Writes per second both writers together complete on the reference
/// machine (2 cores); sets the fixed request count of a run.
const NOMINAL_WRITES_PER_S: f64 = 290.0;
/// Final-report detections replayed for the detect-layer figures.
const DETECT_REPLAYS: usize = 5;

pub fn run(run: &Run) -> Result<Outcome, String> {
    let base = Arc::new(inputs::tax(ROWS, run.seed));
    let rules = inputs::serving_rules();
    let per_writer = (NOMINAL_WRITES_PER_S * run.seconds / 2.0).ceil() as usize;
    let requests: Vec<Vec<Request>> = (0..2u64)
        .map(|w| {
            let pool = inputs::fresh_rows(
                inputs::pool_size(per_writer, LAG),
                run.seed ^ (0x1000 + w),
                &format!("ingest-w{w}"),
            );
            inputs::writer_ops(&pool, per_writer, LAG)
                .into_iter()
                .map(|op| Request::Stream { tenant: TENANT, op })
                .collect()
        })
        .collect();

    let server = Server::new().map_err(err)?;
    let ((), setup_s) = repeated_setup(
        || {
            let engine = Engine::builder()
                .rules(rules.clone())
                .build()
                .map_err(err)?;
            server
                .create_tenant(TENANT, engine, Arc::clone(&base))
                .map_err(err)?;
            Ok(())
        },
        |()| server.drop_tenant(TENANT).map_err(err),
    )?;

    let epoch = Instant::now();
    let mut clients: Vec<Client> = requests
        .into_iter()
        .map(|r| Client::new(r, None, epoch))
        .collect();
    let interned_before = interned_count();
    let opts = LoadOptions {
        seed: run.seed,
        rounds: true,
        fingerprint: run.traced,
        quiescent: BTreeMap::new(),
    };
    load::run(&server, &mut clients, &opts);
    let interned_after = interned_count();

    let mut out = Outcome::default();
    out.absorb_clients(&clients);
    let writes = durations(&clients, "write");
    out.add("setup_s", setup_s, "s", crate::SETUPS);
    out.add(
        "ops_per_s",
        load::throughput(&clients),
        "1/s",
        out.attempted as usize,
    );
    out.latency("write", &writes, "ms");
    out.primary(&writes);

    let published = server.detect(TENANT).map_err(err)?;
    let fresh = server.detect_fresh(TENANT).map_err(err)?;
    out.check(
        published.canonical_bytes() == fresh.canonical_bytes(),
        || "ingest: published report differs from detect_fresh".into(),
    );
    out.add("peak_rss_mb", crate::report::peak_rss_mb()?, "MB", 1);
    if !run.traced {
        return Ok(out);
    }

    let mut t = Tracer::new(epoch);
    for c in clients.iter_mut() {
        t.absorb(std::mem::replace(&mut c.tracer, Tracer::new(epoch)));
    }
    let acks = clients
        .iter_mut()
        .flat_map(|c| std::mem::take(&mut c.acks))
        .collect();
    let flushes = flushes::rebuild(1, acks)?;
    let ops: usize = flushes.iter().map(|f| f.ops.len()).sum();
    out.add(
        "serve.flushes",
        flushes.len() as f64,
        "count",
        flushes.len(),
    );
    out.add(
        "serve.ops_per_flush",
        ops as f64 / flushes.len().max(1) as f64,
        "ops",
        flushes.len(),
    );

    let engine = t
        .time("core.engine_build", None, 0, || {
            Engine::builder().rules(rules.clone()).build()
        })
        .map_err(err)?;
    let cfds = engine.rules().cfds().to_vec();
    let mut session = replay::open_session(&mut t, &engine, &base)?;
    let big = SessionSpans {
        apply: "session.apply_batch",
        snapshot: "session.snapshot",
    };
    let bad = replay::session_flushes(&mut t, &mut session, &flushes, &big, true)?;
    out.check(bad.is_empty(), || {
        format!("ingest: session replay diverged at generations {bad:?}")
    });
    drop(session);
    let bad = replay::incremental_flushes(&mut t, &cfds, &base, &flushes)?;
    out.check(bad.is_empty(), || {
        format!("ingest: incremental replay diverged at generations {bad:?}")
    });
    let small_base = Arc::new(inputs::tax(SMALL_ROWS, run.seed));
    let mut small = engine.session(small_base).map_err(err)?;
    small.apply_batch(&[]).map_err(err)?;
    let small_spans = SessionSpans {
        apply: "session.apply_batch.5k",
        snapshot: "session.snapshot.5k",
    };
    replay::session_flushes(&mut t, &mut small, &flushes, &small_spans, false)?;
    drop(small);

    let final_rel = Arc::clone(server.snapshot(TENANT).map_err(err)?.relation());
    crate::detect_figures(
        &mut t,
        &mut out,
        &cfds,
        &final_rel,
        DETECT_REPLAYS,
        &published,
    );

    let flush_ms = |apply: &str, snap: &str| {
        crate::p50(&t.durations_ms(apply)) + crate::p50(&t.durations_ms(snap))
    };
    let session_ms = flush_ms(big.apply, big.snapshot);
    out.latency_p50(
        "session.apply_batch_ms_p50",
        &t.durations_ms(big.apply),
        "ms",
    );
    out.latency_p50(
        "session.snapshot_ms_p50",
        &t.durations_ms(big.snapshot),
        "ms",
    );
    out.add(
        "session.flush_slope",
        session_ms / flush_ms(small_spans.apply, small_spans.snapshot),
        "ratio",
        flushes.len(),
    );
    out.add(
        "serve.self_ms_p50",
        crate::p50(&writes) - session_ms,
        "ms",
        flushes.len(),
    );
    out.latency_p50(
        "detect.incremental.apply_batch_ms_p50",
        &t.durations_ms("detect.incremental.apply_batch"),
        "ms",
    );
    out.latency_p50(
        "detect.incremental.current_relation_ms_p50",
        &t.durations_ms("detect.incremental.current_relation"),
        "ms",
    );
    crate::common_layer_figures(&t, &mut out);
    out.add(
        "relation.interned_per_write",
        (interned_after - interned_before) as f64 / ops.max(1) as f64,
        "count",
        ops,
    );
    run.write_spans(&t)?;
    Ok(out)
}
