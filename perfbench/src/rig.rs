//! Setting up each workload's server and driving it over TCP.
//!
//! The client side is one process with at most [`CLIENTS`] connections
//! and threads. Every operation is timed from the client: a query from
//! its `QUERY` frame to its `DONE` frame, a connect from the TCP connect
//! to the server's `HELLO`, a refresh from the moment it was due.

use crate::inputs::{Query, TemplateGen};
use crate::stats::ms;
use crate::worlds::{self, FetchTimer};
use mdq_model::rng::{splitmix64, Rng};
use mdq_runtime::{NetClient, NetServer, QueryOutcome, QueryServer, TenantPolicy};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client connections and threads, one per core of the 2-core machine
/// the benchmark was sized on.
pub const CLIENTS: usize = 2;
/// Queries per cold-templates connection before it reconnects.
const COLD_SESSION: usize = 32;
/// Never-seen templates run at setup, warming pages and code paths.
const COLD_WARMUP: usize = 32;
/// Templates in the warm-sessions pool.
const WARM_POOL: usize = 16;
/// Queries per warm session (connect, handshake, queries, `QUIT`).
const WARM_SESSION: usize = 8;
/// Tenants registered for the warm sessions.
const WARM_TENANTS: usize = 4;
/// Standing queries registered at drift setup.
const DRIFT_SUBS: usize = 64;
/// One-shot templates the drift read side mixes into its polls.
const DRIFT_ONESHOTS: usize = 12;
/// Every `DRIFT_QUERY_EVERY`-th reader operation is a one-shot query,
/// the others poll a subscription.
const DRIFT_QUERY_EVERY: usize = 4;
/// The write side's open-loop period between `REFRESH` frames.
const REFRESH_PERIOD: Duration = Duration::from_millis(250);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Cold,
    Warm,
    Drift,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold-templates" => Some(Workload::Cold),
            "warm-sessions" => Some(Workload::Warm),
            "standing-drift" => Some(Workload::Drift),
            _ => None,
        }
    }
}

/// One query answered over the wire, kept for the oracle.
pub struct Answered {
    pub query: Query,
    pub answers: Vec<String>,
    /// Drift only: the epochs whose data the answers may reflect. One
    /// epoch when no refresh pass overlapped the query; a span when one
    /// did, since its pages may then come from either side of the pass.
    pub epochs: Option<(u64, u64)>,
}

/// One `DELTA` row: `(epoch, added, tuple)`.
pub type DeltaRow = (u64, bool, String);

/// Everything one stretch of load produced.
#[derive(Default)]
pub struct Tally {
    pub query_ms: Vec<f64>,
    pub connect_ms: Vec<f64>,
    pub poll_ms: Vec<f64>,
    pub refresh_ms: Vec<f64>,
    pub refresh_late_ms: Vec<f64>,
    pub refresh_calls: Vec<u64>,
    /// Forwarded calls summed from `DONE` frames.
    pub done_calls: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub answered: Vec<Answered>,
    /// Drift: delta rows per subscription id, in arrival order.
    pub deltas: BTreeMap<u64, Vec<DeltaRow>>,
    /// Drift: every subscription's answers after each epoch's pass.
    pub snapshots: BTreeMap<u64, Vec<Vec<String>>>,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.query_ms.extend(other.query_ms);
        self.connect_ms.extend(other.connect_ms);
        self.poll_ms.extend(other.poll_ms);
        self.refresh_ms.extend(other.refresh_ms);
        self.refresh_late_ms.extend(other.refresh_late_ms);
        self.refresh_calls.extend(other.refresh_calls);
        self.done_calls += other.done_calls;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
        self.answered.extend(other.answered);
        for (id, rows) in other.deltas {
            self.deltas.entry(id).or_default().extend(rows);
        }
        self.snapshots.extend(other.snapshots);
    }

    /// Connects, timing TCP connect through `HELLO`.
    fn connect(&mut self, rig: &Rig) -> Option<NetClient> {
        self.attempted += 1;
        let started = Instant::now();
        match NetClient::connect(rig.net.addr()) {
            Ok(c) => {
                self.connect_ms.push(ms(started.elapsed()));
                Some(c)
            }
            Err(e) => {
                self.fail(format!("connect: {e}"));
                None
            }
        }
    }

    /// One timed `QUERY`; `Err` means the connection is unusable.
    pub fn query(&mut self, client: &mut NetClient, q: &Query) -> io::Result<Option<Vec<String>>> {
        self.attempted += 1;
        let started = Instant::now();
        let outcome = client.query(&q.text, Some(q.k));
        let took = ms(started.elapsed());
        match outcome {
            Ok(QueryOutcome::Done {
                answers,
                calls,
                partial: false,
                ..
            }) => {
                self.query_ms.push(took);
                self.done_calls += calls;
                Ok(Some(answers))
            }
            Ok(other) => {
                self.fail(format!("query: {other:?}"));
                Ok(None)
            }
            Err(e) => {
                self.fail(format!("query io: {e}"));
                Err(e)
            }
        }
    }
}

/// A standing query registered at drift setup.
pub struct Sub {
    pub id: u64,
    pub initial: Vec<String>,
}

/// A workload's server, ready to drive.
pub struct Rig {
    pub workload: Workload,
    pub seed: u64,
    pub server: Arc<QueryServer>,
    pub net: NetServer,
    pub timer: Arc<FetchTimer>,
    /// Cold: the stream of never-seen templates.
    pub fresh: Mutex<TemplateGen>,
    /// Warm: the template pool. Drift: the one-shot templates.
    pub pool: Vec<Query>,
    /// Drift: the standing queries.
    pub subs: Vec<Sub>,
    /// What setup's warm-up produced (answers and deltas the oracle
    /// checks too).
    pub baseline: Tally,
    /// Drift: odd while a refresh pass is in flight, bumped at each
    /// `REFRESH` send and `REFRESHED` receipt.
    refresh_gen: AtomicU64,
    /// Drift: the next subscription the read side polls, and the next
    /// one-shot template it runs (both round robin).
    next_poll: AtomicU64,
    next_oneshot: AtomicU64,
}

pub const READER: &str = "reader";
const OPS: &str = "ops";

fn setup_err(what: &str, detail: impl std::fmt::Debug) -> io::Error {
    io::Error::other(format!("setup: {what}: {detail:?}"))
}

impl Rig {
    /// World build, server start and warm-up — the span `setup_s`
    /// times. Drift warm-up includes registering the subscriptions and
    /// one refresh pass.
    pub fn setup(workload: Workload, seed: u64) -> io::Result<Rig> {
        let timer = Arc::new(FetchTimer::default());
        let server = Arc::new(match workload {
            Workload::Drift => worlds::drift_server(&timer),
            _ => worlds::travel_server(workload, &timer),
        });
        let net = NetServer::start(Arc::clone(&server), "127.0.0.1:0")?;
        let mut inputs = TemplateGen::new(seed, 1);
        // one-shot drift templates each cover a disjoint slice of the
        // cool cities' conference dates (one every 11 days from day 43),
        // outside the subscriptions' pinned frontier: every refresh pass
        // drops their pages, and a rotation through them outlasts a
        // refresh period, so reads keep paying for cold pages
        let pool = match workload {
            Workload::Cold => Vec::new(),
            Workload::Warm => (0..WARM_POOL).map(|_| inputs.fresh()).collect(),
            Workload::Drift => (0..DRIFT_ONESHOTS as u32)
                .map(|i| inputs.date_slice(43 + 11 * i, 10, 4 + u64::from(i % 4)))
                .collect(),
        };
        let mut rig = Rig {
            workload,
            seed,
            server,
            net,
            timer,
            fresh: Mutex::new(TemplateGen::new(seed, 2)),
            pool,
            subs: Vec::new(),
            baseline: Tally::default(),
            refresh_gen: AtomicU64::new(0),
            next_poll: AtomicU64::new(0),
            next_oneshot: AtomicU64::new(0),
        };
        match workload {
            Workload::Cold => rig.warm_cold()?,
            Workload::Warm => rig.warm_warm()?,
            Workload::Drift => rig.warm_drift(&mut inputs)?,
        }
        if rig.baseline.failed > 0 {
            return Err(setup_err("warm-up failed", &rig.baseline.failures));
        }
        Ok(rig)
    }

    pub fn client(&self) -> io::Result<NetClient> {
        NetClient::connect(self.net.addr())
    }

    fn warm_cold(&mut self) -> io::Result<()> {
        let mut client = self.client()?;
        let mut tally = Tally::default();
        for _ in 0..COLD_WARMUP {
            let q = self.next_fresh();
            if let Some(answers) = tally.query(&mut client, &q)? {
                tally.answered.push(Answered {
                    query: q,
                    answers,
                    epochs: None,
                });
            }
        }
        client.quit()?;
        self.baseline.merge(tally);
        Ok(())
    }

    fn warm_warm(&mut self) -> io::Result<()> {
        for t in 0..WARM_TENANTS {
            self.server
                .register_tenant(&format!("tenant-{t}"), TenantPolicy::default());
        }
        let mut client = self.client()?;
        let mut tally = Tally::default();
        for _ in 0..2 {
            for q in &self.pool {
                if let Some(answers) = tally.query(&mut client, q)? {
                    tally.answered.push(Answered {
                        query: q.clone(),
                        answers,
                        epochs: None,
                    });
                }
            }
        }
        client.quit()?;
        self.baseline.merge(tally);
        Ok(())
    }

    fn warm_drift(&mut self, inputs: &mut TemplateGen) -> io::Result<()> {
        self.server.register_tenant(
            READER,
            TenantPolicy {
                max_subscriptions: Some(DRIFT_SUBS),
                ..TenantPolicy::default()
            },
        );
        self.server.register_tenant(
            OPS,
            TenantPolicy {
                operator: true,
                ..TenantPolicy::default()
            },
        );
        let mut reader = self.client()?;
        reader.tenant(READER)?;
        // a fixed mix for every seed: one AI subscription in four,
        // thresholds 27..=30 °C (the hot cities), k from 3 to 8
        for i in 0..DRIFT_SUBS as u32 {
            let topic = if i % 4 == 3 { "AI" } else { "DB" };
            let query = inputs.standing(topic, 27 + (i / 4) % 4, 3 + u64::from(i % 6));
            let (id, _epoch, initial) = reader.subscribe(&query.text, Some(query.k))?;
            self.subs.push(Sub { id, initial });
        }
        let mut tally = Tally::default();
        for q in &self.pool {
            if let Some(answers) = tally.query(&mut reader, q)? {
                tally.answered.push(Answered {
                    query: q.clone(),
                    answers,
                    epochs: Some((self.server.epoch(), self.server.epoch())),
                });
            }
        }
        let mut ops = self.client()?;
        ops.tenant(OPS)?;
        let (epoch, ..) = ops.refresh_all()?;
        tally.snapshots.insert(epoch, self.snapshot()?);
        for sub in &self.subs {
            let rows = reader.poll(sub.id)?;
            tally.deltas.entry(sub.id).or_default().extend(rows);
        }
        ops.quit()?;
        reader.quit()?;
        self.baseline.merge(tally);
        Ok(())
    }

    /// Every subscription's current answers, rendered as on the wire.
    pub fn snapshot(&self) -> io::Result<Vec<Vec<String>>> {
        let ops = self
            .server
            .tenant_id(OPS)
            .ok_or_else(|| setup_err("ops tenant", OPS))?;
        self.subs
            .iter()
            .map(|s| {
                self.server
                    .subscription_answers(ops, s.id)
                    .map(|rows| rows.iter().map(|t| t.to_string()).collect())
                    .ok_or_else(|| setup_err("subscription vanished", s.id))
            })
            .collect()
    }

    fn next_fresh(&self) -> Query {
        self.fresh.lock().expect("generator lock").fresh()
    }

    /// Drives the workload until `until`; returns the merged tally.
    pub fn drive(&self, until: Instant) -> Tally {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    s.spawn(move || match self.workload {
                        Workload::Cold => self.cold_client(until),
                        Workload::Warm => self.warm_client(c, until),
                        Workload::Drift if c == 0 => self.drift_writer(until),
                        Workload::Drift => self.drift_reader(until),
                    })
                })
                .collect();
            let mut tally = Tally::default();
            for h in handles {
                tally.merge(h.join().expect("client thread panicked"));
            }
            tally
        })
    }

    fn cold_client(&self, until: Instant) -> Tally {
        let mut t = Tally::default();
        while Instant::now() < until {
            let Some(mut client) = t.connect(self) else {
                continue;
            };
            let mut usable = true;
            for _ in 0..COLD_SESSION {
                if Instant::now() >= until {
                    break;
                }
                let q = self.next_fresh();
                match t.query(&mut client, &q) {
                    Ok(Some(answers)) => t.answered.push(Answered {
                        query: q,
                        answers,
                        epochs: None,
                    }),
                    Ok(None) => {}
                    Err(_) => {
                        usable = false;
                        break;
                    }
                }
            }
            if usable {
                let _ = client.quit();
            }
        }
        t
    }

    fn warm_client(&self, c: usize, until: Instant) -> Tally {
        let mut t = Tally::default();
        let mut rng = Rng::new(splitmix64(self.seed ^ (0x5eed + c as u64)));
        while Instant::now() < until {
            let Some(mut client) = t.connect(self) else {
                continue;
            };
            let tenant = format!("tenant-{}", rng.range_usize(0, WARM_TENANTS));
            t.attempted += 1;
            if let Err(e) = client.tenant(&tenant) {
                t.fail(format!("tenant: {e}"));
                continue;
            }
            let mut usable = true;
            for _ in 0..WARM_SESSION {
                let q = &self.pool[rng.range_usize(0, self.pool.len())];
                match t.query(&mut client, q) {
                    Ok(Some(answers)) => t.answered.push(Answered {
                        query: q.clone(),
                        answers,
                        epochs: None,
                    }),
                    Ok(None) => {}
                    Err(_) => {
                        usable = false;
                        break;
                    }
                }
            }
            if usable {
                let _ = client.quit();
            }
        }
        t
    }

    /// The write side: one operator connection sending `REFRESH` every
    /// [`REFRESH_PERIOD`] (open loop), timing each from when it was
    /// due, and snapshotting every subscription after each pass.
    fn drift_writer(&self, until: Instant) -> Tally {
        let mut t = Tally::default();
        let Some(mut client) = t.connect(self) else {
            return t;
        };
        t.attempted += 1;
        if let Err(e) = client.tenant(OPS) {
            t.fail(format!("tenant: {e}"));
            return t;
        }
        let start = Instant::now();
        for i in 0u32.. {
            let due = start + REFRESH_PERIOD * i;
            if due >= until {
                break;
            }
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            t.refresh_late_ms
                .push(ms(Instant::now().saturating_duration_since(due)));
            t.attempted += 1;
            self.refresh_gen.fetch_add(1, Ordering::SeqCst);
            let outcome = client.refresh_all();
            let took = ms(due.elapsed());
            match outcome {
                Ok((epoch, _refreshed, _changed, calls, _deltas)) => {
                    self.refresh_gen.fetch_add(1, Ordering::SeqCst);
                    t.refresh_ms.push(took);
                    t.refresh_calls.push(calls);
                    match self.snapshot() {
                        Ok(snap) => {
                            t.snapshots.insert(epoch, snap);
                        }
                        Err(e) => t.fail(format!("snapshot: {e}")),
                    }
                }
                Err(e) => {
                    self.refresh_gen.fetch_add(1, Ordering::SeqCst);
                    t.fail(format!("refresh: {e}"));
                    return t;
                }
            }
        }
        let _ = client.quit();
        t
    }

    /// The read side, a closed loop on one thread: a subscriber
    /// connection polls the subscriptions round robin, and every
    /// [`DRIFT_QUERY_EVERY`]-th operation is instead a one-shot query
    /// from a client of its own (connect, `QUERY`, `QUIT`).
    fn drift_reader(&self, until: Instant) -> Tally {
        let mut t = Tally::default();
        let mut poller: Option<NetClient> = None;
        for op in 0usize.. {
            if Instant::now() >= until {
                break;
            }
            if op % DRIFT_QUERY_EVERY == DRIFT_QUERY_EVERY - 1 {
                self.one_shot(&mut t);
                continue;
            }
            let client = match poller.as_mut() {
                Some(client) => client,
                None => {
                    let Some(mut client) = t.connect(self) else {
                        continue;
                    };
                    t.attempted += 1;
                    if let Err(e) = client.tenant(READER) {
                        t.fail(format!("tenant: {e}"));
                        continue;
                    }
                    poller.insert(client)
                }
            };
            let next = self.next_poll.fetch_add(1, Ordering::Relaxed) as usize;
            let sub = &self.subs[next % self.subs.len()];
            t.attempted += 1;
            let started = Instant::now();
            match client.poll(sub.id) {
                Ok(rows) => {
                    t.poll_ms.push(ms(started.elapsed()));
                    t.deltas.entry(sub.id).or_default().extend(rows);
                }
                Err(e) => {
                    t.fail(format!("poll: {e}"));
                    poller = None;
                }
            }
        }
        if let Some(client) = poller {
            let _ = client.quit();
        }
        t
    }

    /// One drift one-shot query on a fresh connection. The templates
    /// rotate, and with a connect per query a rotation outlasts a
    /// refresh period, so each read refetches the pages the last pass
    /// invalidated. The answers are tagged with the epochs they may
    /// reflect for the oracle.
    fn one_shot(&self, t: &mut Tally) {
        let Some(mut client) = t.connect(self) else {
            return;
        };
        let next = self.next_oneshot.fetch_add(1, Ordering::Relaxed) as usize;
        let q = &self.pool[next % self.pool.len()];
        let gen = self.refresh_gen.load(Ordering::SeqCst);
        let first = self.server.epoch();
        let Ok(answers) = t.query(&mut client, q) else {
            return; // the connection broke; `query` counted the failure
        };
        let last = self.server.epoch();
        let epochs = if gen % 2 == 1 {
            // a pass was in flight: its epoch is advanced, its pages may
            // not be yet
            (first.saturating_sub(1), last)
        } else if self.refresh_gen.load(Ordering::SeqCst) == gen {
            (first, first)
        } else {
            (first, last)
        };
        if let Some(answers) = answers {
            t.answered.push(Answered {
                query: q.clone(),
                answers,
                epochs: Some(epochs),
            });
        }
        let _ = client.quit();
    }

    /// Drift: drains every subscription's remaining deltas once the
    /// load has stopped (untimed), so the fold covers every epoch.
    pub fn drain(&self) -> io::Result<Tally> {
        let mut t = Tally::default();
        if self.workload != Workload::Drift {
            return Ok(t);
        }
        let mut reader = self.client()?;
        reader.tenant(READER)?;
        for sub in &self.subs {
            let rows = reader.poll(sub.id)?;
            t.deltas.entry(sub.id).or_default().extend(rows);
        }
        reader.quit()?;
        Ok(t)
    }
}
