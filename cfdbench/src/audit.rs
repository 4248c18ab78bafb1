//! `audit`: two clients send a fixed, seeded mix of reads to two quiescent
//! tenants.
//!
//! Tenant `audit` (100k rows, `DetectorKind::Auto`) serves `detect_fresh`,
//! equivalence-class `repair`, and `explain` of report items through a
//! session each client holds; tenant `paper` (20k rows,
//! `DetectorKind::Sql`, the paper's per-CFD `QC`/`QV`) serves
//! `detect_fresh`. Cold-session requests (fresh statistics, plan and
//! indexes each time) mix with warm-session ones (`explain`). There are no
//! writes, so a write-path change should leave this workload unchanged.

use crate::inputs;
use crate::load::{self, Client, LoadOptions, Request};
use crate::replay;
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{durations, err, repeated_setup, Run};
use cfd::datagen::rng::StdRng;
use cfd::detect::DetectorKind;
use cfd::relation::Relation;
use cfd::{Engine, EngineConfig};
use cfd_serve::Server;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const AUDIT_ROWS: usize = 100_000;
const PAPER_ROWS: usize = 20_000;

/// Requests of each class one client sends per second of `--seconds`, at
/// the reference machine's speed (2 cores): the run does this fixed amount
/// of work however fast the code is.
const DETECTS_PER_S: f64 = 6.0;
const SQL_DETECTS_PER_S: f64 = 1.0;
const REPAIRS_PER_S: f64 = 0.2;
const EXPLAINS_PER_S: f64 = 20.0;
/// Requests of each layer replayed in the traced run.
const REPLAYS: usize = 5;

fn engine(kind: DetectorKind) -> Result<Engine, String> {
    Engine::builder()
        .rules(inputs::mixed_rules())
        .config(
            EngineConfig::builder()
                .detector(kind)
                .build()
                .map_err(err)?,
        )
        .build()
        .map_err(err)
}

fn count(rate: f64, seconds: f64) -> usize {
    ((rate * seconds).round() as usize).max(1)
}

/// One client's requests: the fixed class counts in a seeded order.
fn requests(seconds: f64, items: &[cfd::detect::ViolationItem], rng: &mut StdRng) -> Vec<Request> {
    let mut out = Vec::new();
    for _ in 0..count(DETECTS_PER_S, seconds) {
        out.push(Request::DetectFresh {
            tenant: "audit",
            class: "detect",
        });
    }
    for _ in 0..count(SQL_DETECTS_PER_S, seconds) {
        out.push(Request::DetectFresh {
            tenant: "paper",
            class: "sql_detect",
        });
    }
    for _ in 0..count(REPAIRS_PER_S, seconds) {
        out.push(Request::Repair { tenant: "audit" });
    }
    for _ in 0..count(EXPLAINS_PER_S, seconds) {
        let item = items[rng.gen_range(0..items.len())].clone();
        out.push(Request::Explain { item });
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..i + 1));
    }
    out
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let audit_rel = Arc::new(inputs::tax(AUDIT_ROWS, run.seed));
    let paper_rel = Arc::new(inputs::tax(PAPER_ROWS, run.seed ^ 0x2000));

    let server = Server::new().map_err(err)?;
    let (sessions, setup_s) = repeated_setup(
        || {
            let auto = engine(DetectorKind::Auto)?;
            let sql = engine(DetectorKind::Sql)?;
            let audit = server
                .create_tenant("audit", auto.clone(), Arc::clone(&audit_rel))
                .map_err(err)?;
            server
                .create_tenant("paper", sql, Arc::clone(&paper_rel))
                .map_err(err)?;
            // Each client's explain session, warmed by one explain so the
            // timed requests see its prepared indexes.
            let first = audit
                .report()
                .items()
                .next()
                .ok_or("audit report is empty")?;
            let mut sessions = Vec::new();
            for _ in 0..2 {
                let mut s = auto.session(Arc::clone(audit.relation())).map_err(err)?;
                s.explain(&first).map_err(err)?;
                sessions.push(s);
            }
            Ok(sessions)
        },
        |sessions| {
            drop(sessions);
            server.drop_tenant("audit").map_err(err)?;
            server.drop_tenant("paper").map_err(err)
        },
    )?;

    let audit_report = server.detect("audit").map_err(err)?;
    let paper_report = server.detect("paper").map_err(err)?;
    let items: Vec<_> = audit_report.items().collect();
    let mut rng = StdRng::seed_from_u64(run.seed ^ 0x3000);
    let epoch = Instant::now();
    let mut clients: Vec<Client> = sessions
        .into_iter()
        .map(|s| Client::new(requests(run.seconds, &items, &mut rng), Some(s), epoch))
        .collect();
    let opts = LoadOptions {
        seed: run.seed,
        rounds: false,
        fingerprint: false,
        quiescent: BTreeMap::from([
            ("audit", Arc::clone(&audit_report)),
            ("paper", Arc::clone(&paper_report)),
        ]),
    };
    load::run(&server, &mut clients, &opts);

    let mut out = Outcome::default();
    out.absorb_clients(&clients);
    out.add("setup_s", setup_s, "s", crate::SETUPS);
    out.add(
        "ops_per_s",
        load::throughput(&clients),
        "1/s",
        out.attempted as usize,
    );
    let detect_ms = durations(&clients, "detect");
    out.latency("detect", &detect_ms, "ms");
    out.latency("repair", &durations(&clients, "repair"), "ms");
    out.latency("explain", &durations(&clients, "explain"), "us");
    out.latency("sql_detect", &durations(&clients, "sql_detect"), "ms");
    out.primary(&detect_ms);

    for (tenant, published) in [("audit", &audit_report), ("paper", &paper_report)] {
        let fresh = server.detect_fresh(tenant).map_err(err)?;
        out.check(
            published.canonical_bytes() == fresh.canonical_bytes(),
            || format!("{tenant}: published report differs from detect_fresh"),
        );
    }
    let first_repair = clients.iter().find_map(|c| c.first_repair.clone());
    if let Some(repair) = &first_repair {
        let recheck = server_free_detect(&repair.repaired)?;
        out.check(recheck.is_clean(), || {
            format!("repair output still has {} violations", recheck.total())
        });
    }
    out.add("peak_rss_mb", crate::report::peak_rss_mb()?, "MB", 1);
    if !run.traced {
        return Ok(out);
    }

    let mut t = Tracer::new(epoch);
    for c in clients.iter_mut() {
        t.absorb(std::mem::replace(&mut c.tracer, Tracer::new(epoch)));
    }
    out.add("serve.flushes", 0.0, "count", 0);
    out.latency_p50("session.explain_us_p50", &t.durations_ms("explain"), "us");
    let auto = t.time("core.engine_build", None, 0, || engine(DetectorKind::Auto))?;
    let sql = engine(DetectorKind::Sql)?;
    replay::open_session(&mut t, &auto, &audit_rel)?;
    let cfds = auto.rules().cfds().to_vec();
    crate::detect_figures(&mut t, &mut out, &cfds, &audit_rel, REPLAYS, &audit_report);

    let threads = auto
        .config()
        .repair()
        .threads
        .min(server.repair_thread_cap())
        .max(1);
    let (mut changes, mut passes) = (0, 0);
    for r in 0..REPLAYS {
        let result = replay::repair(&mut t, &auto, threads, &audit_rel, r as u64);
        out.check(
            first_repair
                .as_ref()
                .is_none_or(|f| f.modifications == result.modifications),
            || format!("repair replay {r} differs from the served repair"),
        );
        (changes, passes) = (result.changes(), result.passes);
    }
    out.latency_p50("repair.run_ms_p50", &t.durations_ms("repair.run"), "ms");
    out.add("repair.changes", changes as f64, "count", REPLAYS);
    out.add("repair.passes", passes as f64, "count", REPLAYS);

    let mut exec = cfd::sql::ExecStats::default();
    for r in 0..REPLAYS {
        let (report, stats) = replay::sql(&mut t, &sql, &paper_rel, r as u64)?;
        out.check(
            report.canonical_bytes() == paper_report.canonical_bytes(),
            || format!("SQL replay {r} differs from the published paper report"),
        );
        exec = stats;
    }
    out.latency_p50("sql.qc_ms", &t.totals_ms("sql.qc"), "ms");
    out.latency_p50("sql.qv_ms", &t.totals_ms("sql.qv"), "ms");
    out.add(
        "sql.rows_examined",
        exec.rows_examined as f64,
        "count",
        REPLAYS,
    );
    out.add(
        "sql.index_probes",
        exec.index_probes as f64,
        "count",
        REPLAYS,
    );
    crate::common_layer_figures(&t, &mut out);
    run.write_spans(&t)?;
    Ok(out)
}

/// Detects `rel` from scratch, outside the server.
fn server_free_detect(rel: &Relation) -> Result<cfd::detect::Violations, String> {
    cfd::detect_violations(
        DetectorKind::Direct,
        &inputs::mixed_rules(),
        Arc::new(rel.clone()),
    )
    .map_err(err)
}
