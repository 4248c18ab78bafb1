//! Storage-layer bench: detection over a disk-backed store vs. in-memory
//! detection, and the group-commit latency of the WAL write path.
//!
//! Three series over a generated tax-records workload:
//!
//! * `in_memory` — [`DirectDetector`] over the materialized [`Relation`]:
//!   the kernel alone, the floor a store detection is compared against;
//! * `warm_scan` — [`ColumnStore::detect`], which materializes the live
//!   rows and runs the same kernel over them, with the buffer pool left
//!   warm from the previous iteration (page hits, no I/O);
//! * `cold_scan` — the same materialize plus kernel after
//!   [`ColumnStore::drop_page_cache`], so every page is read back through
//!   the (out-of-core, 64-frame) pool;
//!
//! plus `group_commit` — one durable [`ColumnStore::apply_batch`] of 64
//! insert/delete ops (net size zero, so the store stays fixed): the
//! number reported is the full commit latency including the WAL fsync.
//!
//! Besides the harness output, the bench writes
//! `crates/bench/BENCH_store.json` — `{rows, series, ns_per_iter}`
//! records the CI workflow uploads as an artifact.

use cfd::store::{ColumnStore, StoreOptions};
use cfd_core::Cfd;
use cfd_datagen::records::{TaxConfig, TaxGenerator};
use cfd_datagen::{CfdWorkload, EmbeddedFd};
use cfd_detect::{BatchOp, DirectDetector, Violations};
use cfd_relation::{Relation, Tuple, Value};
use criterion::{criterion_group, criterion_main, Criterion};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tax_cfds() -> Vec<Cfd> {
    let workload = CfdWorkload::new(13);
    [
        EmbeddedFd::ZipToState,
        EmbeddedFd::AreaToCity,
        EmbeddedFd::StateMaritalToExemption,
    ]
    .iter()
    .map(|&fd| workload.single(fd, 40, 60.0))
    .collect()
}

fn detect_in_memory(cfds: &[Cfd], data: &Relation) -> Violations {
    let direct = DirectDetector::new();
    let mut out = Violations::new();
    for cfd in cfds {
        out.merge(direct.detect(cfd, data));
    }
    out
}

/// A batch of 64 ops that leaves the store unchanged: 32 inserts of rows
/// distinct from the workload (a sentinel name column), each paired with
/// its delete.
fn churn_batch(data: &Relation) -> Vec<BatchOp> {
    let mut ops = Vec::with_capacity(64);
    for i in 0..32usize {
        let mut cells = data.row(i).expect("workload has 32 rows").to_values();
        cells[3] = Value::from(format!("churn-{i}").as_str());
        let t = Tuple::new(cells);
        ops.push(BatchOp::Insert(t.clone()));
        ops.push(BatchOp::Delete(t));
    }
    ops
}

fn scratch_dir(rows: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cfd-bench-store-{rows}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn time_ns_per_iter<T>(iters: usize, mut f: impl FnMut() -> T) -> u128 {
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() / iters as u128
}

fn bench(c: &mut Criterion) {
    let cfds = tax_cfds();
    let mut json_entries: Vec<String> = Vec::new();

    for rows in [10_000usize, 40_000] {
        let data = TaxGenerator::new(TaxConfig {
            size: rows,
            noise_percent: 5.0,
            seed: 23,
        })
        .generate()
        .relation;

        let dir = scratch_dir(rows);
        let opts = StoreOptions {
            // 64 frames = 256 KiB of page memory; the 40k-row workload
            // holds ~600 pages of cells, so cold reads are out-of-core.
            pool_pages: 64,
            ..StoreOptions::default()
        };
        let mut store =
            ColumnStore::open_or_create(&dir, data.schema(), opts).expect("create store");
        let ops: Vec<BatchOp> = data.to_tuples().into_iter().map(BatchOp::Insert).collect();
        store.apply_batch(&ops).expect("load workload");

        // Sanity outside the timed region: store detection is
        // byte-identical to in-memory detection, cold or warm.
        let memory_report = detect_in_memory(&cfds, &data);
        assert!(!memory_report.is_clean(), "workload must carry noise");
        store.drop_page_cache().expect("drop cache");
        assert_eq!(
            store.detect(&cfds).expect("cold scan").canonical_bytes(),
            memory_report.canonical_bytes(),
            "cold store detection diverged at {rows} rows"
        );

        let mut group = c.benchmark_group(format!("store/{rows}"));
        group
            .sample_size(5)
            .measurement_time(Duration::from_secs(if rows >= 40_000 { 15 } else { 5 }));
        group.bench_function("in_memory", |b| {
            b.iter(|| detect_in_memory(&cfds, &data));
        });
        group.bench_function("warm_scan", |b| {
            b.iter(|| store.detect(&cfds).expect("warm scan"));
        });
        group.bench_function("cold_scan", |b| {
            b.iter(|| {
                store.drop_page_cache().expect("drop cache");
                store.detect(&cfds).expect("cold scan")
            });
        });
        let churn = churn_batch(&data);
        group.bench_function("group_commit", |b| {
            b.iter(|| store.apply_batch(&churn).expect("churn batch"));
        });
        group.finish();

        // Hand-timed JSON series (the criterion shim prints text only).
        let iters = if rows >= 40_000 { 3 } else { 10 };
        let in_memory_ns = time_ns_per_iter(iters, || detect_in_memory(&cfds, &data));
        let warm_ns = time_ns_per_iter(iters, || store.detect(&cfds).expect("warm"));
        let cold_ns = time_ns_per_iter(iters, || {
            store.drop_page_cache().expect("drop cache");
            store.detect(&cfds).expect("cold")
        });
        let commit_ns = time_ns_per_iter(iters, || store.apply_batch(&churn).expect("churn"));
        for (series, ns) in [
            ("in_memory", in_memory_ns),
            ("warm_scan", warm_ns),
            ("cold_scan", cold_ns),
            ("group_commit_64ops", commit_ns),
        ] {
            json_entries.push(format!(
                "{{\"rows\": {rows}, \"series\": \"{series}\", \"ns_per_iter\": {ns}}}"
            ));
        }
        let stats = store.pool_stats();
        println!(
            "store/{rows}: in_memory {in_memory_ns} ns/iter, warm {warm_ns} ns/iter, \
             cold {cold_ns} ns/iter ({:.2}x over in-memory), group_commit(64 ops) {commit_ns} ns \
             [pool: capacity {}, peak {}]",
            cold_ns as f64 / in_memory_ns as f64,
            stats.capacity,
            stats.peak_resident
        );
        assert!(
            stats.peak_resident <= stats.capacity,
            "pool exceeded its budget under the bench workload"
        );

        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // BENCH_store.json: one JSON document, entries in measurement order.
    let mut json = String::from("{\n  \"bench\": \"store\",\n  \"entries\": [\n");
    for (i, e) in json_entries.iter().enumerate() {
        let sep = if i + 1 == json_entries.len() { "" } else { "," };
        let _ = writeln!(json, "    {e}{sep}");
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_store.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
