//! `disk`: one writer and one reader on a disk-backed tenant of 40k rows
//! whose buffer pool holds 64 pages, about a ninth of its data pages.
//!
//! This is the only workload where the store's pager, buffer pool and WAL
//! run. Every flush is a WAL fsync, a detection scan of the store through
//! the pool and a materialized snapshot. The reader's `detect_fresh` runs
//! over the published snapshot in memory, as the server serves it.

use crate::flushes;
use crate::inputs;
use crate::load::{self, Client, LoadOptions, Request};
use crate::replay;
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{durations, err, p50, repeated_setup, Run};
use cfd::detect::BatchOp;
use cfd::store::{ColumnStore, StoreOptions};
use cfd::{Engine, EngineConfig, StorageConfig};
use cfd_serve::Server;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

const TENANT: &str = "disk";
const ROWS: usize = 40_000;
/// Buffer-pool frames (4 KiB pages); the relation needs about 590.
const POOL_PAGES: usize = 64;
/// Rows the writer inserts before it starts deleting.
const LAG: usize = 16;
/// Requests per second of `--seconds` each client sends, at the reference
/// machine's speed (2 cores): a fixed amount of work per run.
const WRITES_PER_S: f64 = 12.0;
const DETECTS_PER_S: f64 = 90.0;
/// Detections of the final snapshot replayed for the detect-layer figures.
const REPLAYS: usize = 5;

fn engine() -> Result<Engine, String> {
    let storage = StorageConfig {
        pool_pages: POOL_PAGES,
        ..StorageConfig::default()
    };
    Engine::builder()
        .rules(inputs::serving_rules())
        .config(
            EngineConfig::builder()
                .storage(storage)
                .build()
                .map_err(err)?,
        )
        .build()
        .map_err(err)
}

fn store_options() -> StoreOptions {
    StoreOptions {
        pool_pages: POOL_PAGES,
        ..StoreOptions::default()
    }
}

/// Bytes of all files directly in `dir`.
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(err)? {
        total += entry.map_err(err)?.metadata().map_err(err)?.len();
    }
    Ok(total)
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let base = inputs::tax(ROWS, run.seed);
    let bulk: Vec<BatchOp> = base.to_tuples().into_iter().map(BatchOp::Insert).collect();
    let writes = (WRITES_PER_S * run.seconds).ceil() as usize;
    let pool = inputs::fresh_rows(inputs::pool_size(writes, LAG), run.seed ^ 0x4000, "disk-w");
    let writer: Vec<Request> = inputs::writer_ops(&pool, writes, LAG)
        .into_iter()
        .map(|op| Request::Stream { tenant: TENANT, op })
        .collect();
    let reader: Vec<Request> = (0..(DETECTS_PER_S * run.seconds).ceil() as usize)
        .map(|_| Request::DetectFresh {
            tenant: TENANT,
            class: "detect",
        })
        .collect();

    let server = Server::new().map_err(err)?;
    let mut setups = 0;
    let (dir, setup_s) = repeated_setup(
        || {
            setups += 1;
            let dir = run.dir.join(format!("setup-{setups}"));
            let engine = engine()?;
            let mut session = engine.session_on_disk(&dir).map_err(err)?;
            session.ingest(&bulk).map_err(err)?;
            drop(session);
            server
                .create_tenant_on_disk(TENANT, engine, &dir)
                .map_err(err)?;
            Ok(dir)
        },
        |_| server.drop_tenant(TENANT).map_err(err),
    )?;

    let epoch = Instant::now();
    let mut clients = vec![
        Client::new(writer, None, epoch),
        Client::new(reader, None, epoch),
    ];
    let opts = LoadOptions {
        seed: run.seed,
        rounds: false,
        fingerprint: run.traced,
        quiescent: BTreeMap::new(),
    };
    load::run(&server, &mut clients, &opts);

    let mut out = Outcome::default();
    out.absorb_clients(&clients);
    let write_ms = durations(&clients, "write");
    out.add("setup_s", setup_s, "s", crate::SETUPS);
    out.add(
        "ops_per_s",
        load::throughput(&clients),
        "1/s",
        out.attempted as usize,
    );
    out.latency("write", &write_ms, "ms");
    out.latency("detect", &durations(&clients, "detect"), "ms");
    out.primary(&write_ms);

    let published = server.snapshot(TENANT).map_err(err)?;
    let fresh = server.detect_fresh(TENANT).map_err(err)?;
    out.check(
        published.report().canonical_bytes() == fresh.canonical_bytes(),
        || "disk: published report differs from detect_fresh".into(),
    );
    let rows = published.relation().len();
    server.drop_tenant(TENANT).map_err(err)?;
    let bytes = dir_bytes(&dir)?;
    out.add("space_bytes_per_row", bytes as f64 / rows as f64, "B", rows);
    let pages = std::fs::metadata(dir.join("pages.dat")).map_err(err)?.len() / 4096;
    out.add(
        "store.data_pages_per_pool_page",
        pages as f64 / POOL_PAGES as f64,
        "ratio",
        1,
    );
    let reopened = server
        .create_tenant_on_disk("disk-reopened", engine()?, &dir)
        .map_err(err)?;
    out.check(
        reopened.report().canonical_bytes() == published.report().canonical_bytes()
            && reopened.relation().len() == rows,
        || "disk: the reopened tenant differs from the dropped one".into(),
    );
    server.drop_tenant("disk-reopened").map_err(err)?;
    drop(reopened);
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

    let engine = t.time("core.engine_build", None, 0, engine)?;
    let cfds = engine.rules().cfds().to_vec();
    // A second store loaded from the same seed, opened the way the tenant
    // was: bulk load, close, reopen, first scan and snapshot.
    let replay_dir = run.dir.join("replay");
    let mut store =
        ColumnStore::open_or_create(&replay_dir, base.schema(), store_options()).map_err(err)?;
    store.apply_batch(&bulk).map_err(err)?;
    drop(store);
    t.time("session.open", None, 0, || {
        let mut session = engine.session_on_disk(&replay_dir).map_err(err)?;
        session.detect().map_err(err)?;
        session.snapshot().map_err(err)
    })?;
    let mut store =
        ColumnStore::open_or_create(&replay_dir, base.schema(), store_options()).map_err(err)?;
    store.detect(&cfds).map_err(err)?;
    store.materialize().map_err(err)?;
    let replayed = replay::store_flushes(&mut t, &mut store, &cfds, &flushes)?;
    drop(store);
    out.check(replayed.mismatched.is_empty(), || {
        format!(
            "disk: store replay diverged at generations {:?}",
            replayed.mismatched
        )
    });
    let n = flushes.len();
    let (hits, misses) = (
        replayed.after.hits - replayed.before.hits,
        replayed.after.misses - replayed.before.misses,
    );
    for (span, name) in [
        ("store.commit", "store.commit_ms_p50"),
        ("store.scan", "store.scan_ms_p50"),
        ("store.materialize", "store.materialize_ms_p50"),
    ] {
        out.latency_p50(name, &t.durations_ms(span), "ms");
    }
    out.add(
        "store.pool_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        n,
    );
    out.add(
        "store.misses_per_scan",
        replayed.scan_misses as f64 / n.max(1) as f64,
        "pages",
        n,
    );
    out.add(
        "store.evictions",
        (replayed.after.evictions - replayed.before.evictions) as f64,
        "count",
        n,
    );
    out.add(
        "store.writebacks",
        (replayed.after.writebacks - replayed.before.writebacks) as f64,
        "count",
        n,
    );
    out.add("store.fsyncs", replayed.fsyncs as f64, "count", n);
    let layer_ms: f64 = ["store.commit", "store.scan", "store.materialize"]
        .iter()
        .map(|s| p50(&t.durations_ms(s)))
        .sum();
    out.add("serve.self_ms_p50", p50(&write_ms) - layer_ms, "ms", n);

    crate::detect_figures(
        &mut t,
        &mut out,
        &cfds,
        published.relation(),
        REPLAYS,
        published.report(),
    );
    crate::common_layer_figures(&t, &mut out);
    run.write_spans(&t)?;
    Ok(out)
}
