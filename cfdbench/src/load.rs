//! The closed-loop load: each client thread sends its next request only
//! when the last one has returned, from a request list fixed in advance.

use crate::flushes::Ack;
use crate::trace::Tracer;
use cfd::datagen::rng::StdRng;
use cfd::detect::{BatchOp, ViolationItem, Violations};
use cfd::repair::{RepairKind, RepairResult};
use cfd::Session;
use cfd_serve::Server;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One request a client sends. `class` names the request class; it is the
/// span name and the key of the class's latency figures.
#[derive(Debug, Clone)]
pub enum Request {
    Stream {
        tenant: &'static str,
        op: BatchOp,
    },
    DetectFresh {
        tenant: &'static str,
        class: &'static str,
    },
    Repair {
        tenant: &'static str,
    },
    /// Explains one report item through the session the client holds.
    Explain {
        item: ViolationItem,
    },
}

impl Request {
    pub fn class(&self) -> &'static str {
        match self {
            Request::Stream { .. } => "write",
            Request::DetectFresh { class, .. } => class,
            Request::Repair { .. } => "repair",
            Request::Explain { .. } => "explain",
        }
    }
}

/// A 64-bit fingerprint of a report's contents. Equal reports render to
/// equal canonical bytes, so equal fingerprints stand for byte-identical
/// reports; hashing the values skips rendering them.
pub fn fingerprint(report: &Violations) -> u64 {
    let mut h = DefaultHasher::new();
    report.constant_violations().hash(&mut h);
    report.multi_tuple_keys().hash(&mut h);
    h.finish()
}

/// One client: its request list, the state it holds, and what it saw.
pub struct Client {
    pub requests: Vec<Request>,
    /// The session `Explain` requests go through.
    pub session: Option<Session>,
    pub tracer: Tracer,
    pub acks: Vec<Ack<BatchOp>>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Replies that came back but were wrong.
    pub wrong: Vec<String>,
    /// The first repair result, which later repairs of the same quiescent
    /// tenant must equal.
    pub first_repair: Option<RepairResult>,
}

impl Client {
    pub fn new(requests: Vec<Request>, session: Option<Session>, epoch: Instant) -> Client {
        Client {
            requests,
            session,
            tracer: Tracer::new(epoch),
            acks: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            wrong: Vec::new(),
            first_repair: None,
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    fn wrong(&mut self, what: String) {
        if self.wrong.len() < 5 {
            self.wrong.push(what);
        }
    }
}

/// What a request returned, checked after its span has closed.
enum Reply {
    /// The written op, the generation it landed in and that generation's
    /// report; the snapshot's relation is let go at once, as a client that
    /// only needs the report would.
    Written(BatchOp, u64, Arc<Violations>),
    Report(&'static str, Violations),
    Repair(RepairResult),
    Explained(usize),
}

/// Upper bound of the random pause before each request, in microseconds.
/// Free-running clients with no pause lock into one phase for a whole run;
/// a seeded pause of up to 4 ms gives every run the same mix of phases.
const THINK_MAX_US: u64 = 4_000;

/// Settings of one load run.
pub struct LoadOptions {
    /// Seeds the clients' pauses.
    pub seed: u64,
    /// Clients send in rounds: all start each request together, with no
    /// pause, so concurrent writes share one group commit. Free-running
    /// writers drift between sharing a flush and queueing behind each
    /// other's, and that mix moved `ingest` write latency by up to a third
    /// between runs of the same code.
    pub rounds: bool,
    /// Fingerprint every published report a write returns, so a replay can
    /// be checked against it (traced runs only: it costs a pass over the
    /// report).
    pub fingerprint: bool,
    /// Tenants that receive no writes, with their published report: every
    /// `detect_fresh` of one must return exactly this report.
    pub quiescent: BTreeMap<&'static str, Arc<Violations>>,
}

/// Runs every client's request list on its own thread, all starting
/// together.
pub fn run(server: &Server, clients: &mut [Client], opts: &LoadOptions) {
    assert!(
        !opts.rounds
            || clients
                .iter()
                .all(|c| c.requests.len() == clients[0].requests.len()),
        "clients sending in rounds need equally long request lists"
    );
    let start = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        for (index, client) in clients.iter_mut().enumerate() {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                drive(server, index, client, opts, start);
            });
        }
    });
}

/// Completed requests per second: each client's requests over the time from
/// its first request to its last reply, summed. Clients with different
/// request mixes finish at different times; this keeps the one that
/// finishes last from running alone for the tail of the measurement.
pub fn throughput(clients: &[Client]) -> f64 {
    clients
        .iter()
        .filter_map(|c| {
            let spans = c.tracer.spans();
            let first = spans.iter().map(|s| s.start_ns).min()?;
            let last = spans.iter().map(|s| s.end_ns).max()?;
            Some(spans.len() as f64 / ((last - first) as f64 / 1e9))
        })
        .sum()
}

fn drive(server: &Server, index: usize, client: &mut Client, opts: &LoadOptions, round: &Barrier) {
    let requests = std::mem::take(&mut client.requests);
    let mut rng = StdRng::seed_from_u64(opts.seed ^ ((index as u64 + 1) << 40));
    for (seq, request) in requests.iter().enumerate() {
        if opts.rounds {
            round.wait();
        } else {
            std::thread::sleep(Duration::from_micros(rng.gen_range(0..THINK_MAX_US)));
        }
        let id = ((index as u64) << 32) | seq as u64;
        client.attempted += 1;
        let session = &mut client.session;
        let reply = client
            .tracer
            .time(request.class(), None, id, || send(server, session, request));
        match reply {
            Ok(reply) => check(client, reply, opts),
            Err(e) => client.fail(format!("{} request {seq}: {e}", request.class())),
        }
    }
}

fn send(
    server: &Server,
    session: &mut Option<Session>,
    request: &Request,
) -> Result<Reply, String> {
    let reply = match request {
        Request::Stream { tenant, op } => {
            let snapshot = server
                .stream(tenant, vec![op.clone()])
                .map_err(|e| e.to_string())?;
            Reply::Written(
                op.clone(),
                snapshot.generation(),
                Arc::clone(snapshot.report()),
            )
        }
        Request::DetectFresh { tenant, .. } => Reply::Report(
            tenant,
            server.detect_fresh(tenant).map_err(|e| e.to_string())?,
        ),
        Request::Repair { tenant } => Reply::Repair(
            server
                .repair(tenant, RepairKind::EquivClass)
                .map_err(|e| e.to_string())?,
        ),
        Request::Explain { item } => {
            let session = session.as_mut().ok_or("explain without a session")?;
            Reply::Explained(session.explain(item).map_err(|e| e.to_string())?.len())
        }
    };
    Ok(reply)
}

fn check(client: &mut Client, reply: Reply, opts: &LoadOptions) {
    match reply {
        Reply::Written(op, generation, report) => {
            let report = if opts.fingerprint {
                fingerprint(&report)
            } else {
                0
            };
            client.acks.push(Ack {
                generation,
                ops: vec![op],
                report,
            });
        }
        Reply::Report(tenant, report) => {
            if let Some(published) = opts.quiescent.get(tenant) {
                if report != **published {
                    client.wrong(format!(
                        "detect_fresh({tenant}) differs from its published report"
                    ));
                }
            }
        }
        Reply::Repair(result) => {
            let agrees = match &client.first_repair {
                Some(first) => first.modifications == result.modifications,
                None => true,
            };
            if !result.satisfied || !agrees {
                client.wrong(format!(
                    "repair: satisfied={}, same edits as the first repair={agrees}",
                    result.satisfied
                ));
            } else if client.first_repair.is_none() {
                client.first_repair = Some(result);
            }
        }
        Reply::Explained(0) => client.wrong("explain of a reported item found nothing".into()),
        Reply::Explained(_) => {}
    }
}
