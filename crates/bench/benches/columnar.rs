//! Columnar detection bench: the narrow-CFD / wide-schema workload the
//! struct-of-arrays layout targets.
//!
//! The data relation has a deliberately **wide** schema (24 text attributes)
//! while the CFD constrains only 3 of them (`X = [K0, K1] → Y = [V0]`), so a
//! detector that scans whole rows drags 8× more cells through cache than the
//! query needs. Two series are measured at 100k rows (plus a 10k warm-up
//! size):
//!
//! * `columnar` — [`DirectDetector::detect`] over the columnar [`Relation`]:
//!   the vectorized block kernel reading only the 3 `X ∪ Y` column slices;
//! * `columnar_sharded/N` — [`ShardedDetector`] on the columnar store (the
//!   partition pass also reads only the LHS columns).
//!
//! Besides the usual harness output, the bench writes
//! `crates/bench/BENCH_columnar.json` — machine-readable
//! `{rows, shards, ns_per_iter}` records for each series — which the CI
//! workflow uploads as an artifact.

use cfd_core::Cfd;
use cfd_datagen::rng::StdRng;
use cfd_detect::{DirectDetector, ShardedDetector};
use cfd_relation::{Relation, Schema, Tuple, Value};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Wide schema: the 3 constrained attributes first, then 21 filler columns.
fn wide_schema() -> Schema {
    let mut b = Schema::builder("wide").text("K0").text("K1").text("V0");
    for i in 0..21 {
        b = b.text(format!("F{i:02}"));
    }
    b.build()
}

/// `rows` tuples over the wide schema: `(K0, K1)` keys drawn from a keyspace
/// with real collisions (so QV groups exist), `V0` functionally determined
/// with a small noise rate (so both violation kinds appear), fillers random.
fn wide_data(rows: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rel = Relation::with_capacity(wide_schema(), rows);
    for _ in 0..rows {
        let k0 = rng.gen_range(0usize..50);
        let k1 = rng.gen_range(0usize..rows / 8 + 1);
        let clean = (k0 * 31 + k1 * 7) % 97;
        let v0 = if rng.gen_bool(0.02) { clean + 1 } else { clean };
        let mut values: Vec<Value> = Vec::with_capacity(24);
        values.push(Value::from(format!("k{k0:02}")));
        values.push(Value::from(format!("g{k1:06}")));
        values.push(Value::from(format!("v{v0:02}")));
        for f in 0..21u32 {
            values.push(Value::from(format!("f{f}-{}", rng.gen_range(0usize..1000))));
        }
        rel.push(Tuple::new(values)).expect("row matches schema");
    }
    rel
}

/// The narrow CFD: `[K0, K1] → [V0]` with a few constant rows + the FD row.
fn narrow_cfd() -> Cfd {
    Cfd::builder(wide_schema(), ["K0", "K1"], ["V0"])
        .pattern(["k00", "_"], ["_"])
        .pattern(["k01", "_"], ["_"])
        .pattern(["_", "_"], ["_"])
        .named("narrow")
        .build()
        .expect("narrow CFD is well-formed")
}

/// Times `f` over `iters` iterations (after one warm-up call), returning the
/// mean ns/iter — the number recorded in `BENCH_columnar.json`.
fn time_ns_per_iter<T>(iters: usize, mut f: impl FnMut() -> T) -> u128 {
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() / iters as u128
}

fn bench(c: &mut Criterion) {
    let cfd = narrow_cfd();
    let mut json_entries: Vec<String> = Vec::new();

    for rows in [10_000usize, 100_000] {
        let data = wide_data(rows, 0xC0_1B_A5);

        // Sanity outside the timed region: the sharded scans report the
        // direct scan's bytes, and the workload is dirty.
        let direct = DirectDetector::new();
        let columnar_report = direct.detect(&cfd, &data);
        assert!(!columnar_report.is_clean(), "workload must carry noise");
        for shards in [2usize, 4] {
            assert_eq!(
                ShardedDetector::new(shards).detect(&cfd, &data),
                columnar_report,
                "sharded({shards}) diverged at {rows} rows"
            );
        }

        let mut group = c.benchmark_group(format!("columnar_detect/{rows}"));
        group
            .sample_size(if rows >= 100_000 { 5 } else { 10 })
            .measurement_time(Duration::from_secs(if rows >= 100_000 { 20 } else { 5 }));
        group.bench_function("columnar", |b| {
            b.iter(|| direct.detect(&cfd, &data));
        });
        for shards in [2usize, 4] {
            group.bench_with_input(
                BenchmarkId::new("columnar_sharded", shards),
                &shards,
                |b, &shards| {
                    let detector = ShardedDetector::new(shards);
                    b.iter(|| detector.detect(&cfd, &data));
                },
            );
        }
        group.finish();

        // Hand-timed JSON series (the criterion shim prints text only).
        let iters = if rows >= 100_000 { 5 } else { 20 };
        let columnar_ns = time_ns_per_iter(iters, || direct.detect(&cfd, &data));
        json_entries.push(format!(
            "{{\"rows\": {rows}, \"shards\": 1, \"series\": \"columnar\", \"ns_per_iter\": {columnar_ns}}}"
        ));
        for shards in [2usize, 4] {
            let detector = ShardedDetector::new(shards);
            let ns = time_ns_per_iter(iters, || detector.detect(&cfd, &data));
            json_entries.push(format!(
                "{{\"rows\": {rows}, \"shards\": {shards}, \"series\": \"columnar_sharded\", \"ns_per_iter\": {ns}}}"
            ));
        }
        println!("columnar_detect/{rows}: columnar {columnar_ns} ns/iter");
    }

    // BENCH_columnar.json: one JSON document, entries in measurement order.
    let mut json = String::from("{\n  \"bench\": \"columnar\",\n  \"entries\": [\n");
    for (i, e) in json_entries.iter().enumerate() {
        let sep = if i + 1 == json_entries.len() { "" } else { "," };
        let _ = writeln!(json, "    {e}{sep}");
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_columnar.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
