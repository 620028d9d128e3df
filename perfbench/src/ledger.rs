//! The traced run: a seeded sample of the workload's inputs replayed
//! through each layer's public functions, one layer at a time, every
//! call timed from the benchmark's own code (the program itself adds no
//! tracing). The per-query layer times form a ledger that must add up
//! to the round trip the client measured:
//!
//! ```text
//! client round trip = net.transport   (PING→PONG frames, as many as the query got back)
//!                   + net.codec       (encode + parse of the query's frames)
//!                   + model.parse + model.fingerprint
//!                   + plan            (optimizer on a plan-cache miss, else 0)
//!                   + exec.kernel     (top-k pull over the warm shared state)
//!                   + server.residual (in-process round trip minus the above)
//!                   + ledger.unattributed
//! ```
//!
//! Every term is a mean over the same sampled queries, less the fifth
//! with the slowest and the fifth with the fastest client round trip,
//! and the server residual is the in-process round trip less the layers
//! inside it. The client round trip and the in-process round trip are
//! measured on separate executions, so `ledger.unattributed` is what the
//! transport probe and the frame codec leave of the wire's real cost. The
//! run fails when it exceeds [`TOLERANCE_SHARE`] of the client round trip
//! plus [`TOLERANCE_MS`].

use crate::inputs::Query;
use crate::rig::{Answered, Rig, Tally, Workload, READER};
use crate::stats::{mean, median, ms, ratio, tail};
use crate::Load;
use mdq_cost::metrics::ExecutionTime;
use mdq_exec::topk::TopKExecution;
use mdq_model::fingerprint::fingerprint;
use mdq_optimizer::bnb::OptimizerConfig;
use mdq_runtime::{ClientFrame, RefreshSummary, ServerFrame};
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The ledger may leave this share of the client round trip
/// unattributed (no probe isolates the handler and worker handing a
/// query's answers to each other one by one; on sub-millisecond warm
/// queries that hand-off is about a third of the round trip)...
pub const TOLERANCE_SHARE: f64 = 0.5;
/// ...plus this many milliseconds (loopback jitter on sub-millisecond
/// round trips).
pub const TOLERANCE_MS: f64 = 0.25;
/// Twin pairs of never-seen templates the cold-templates ledger samples.
const COLD_SAMPLES: usize = 48;
/// Times the warm and drift ledgers replay their template pools.
const POOL_ROUNDS: usize = 4;
/// Alternating rounds of the tracing-overhead comparison...
const OBS_ROUNDS: usize = 3;
/// ...each driving the workload this long with tracing off, then on.
const OBS_WINDOW: Duration = Duration::from_millis(500);

pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub reconciled: bool,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// One sampled query's layer times (ms unless named `_us`).
#[derive(Default)]
struct Sample {
    /// Service atoms in the sampled query.
    atoms: usize,
    tcp: f64,
    transport: f64,
    codec_us: f64,
    inproc: f64,
    parse_us: f64,
    fingerprint_us: f64,
    /// Optimizer time the query paid: its own on a miss, 0 on a hit.
    plan: f64,
    considered: f64,
    pruned: f64,
    costed: f64,
    kernel: f64,
    lookups: u64,
    hits: u64,
    sub_result_hits: u64,
}

/// One in-process refresh pass the drift ledger ran.
struct Pass {
    summary: RefreshSummary,
    wall_s: f64,
    fetch_s: f64,
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("traced run: {what}: {e}")
}

pub fn run(rig: &Rig, load: &Load, all: &mut Tally) -> Result<Traced, String> {
    let drift = rig.workload == Workload::Drift;
    let pairs: Vec<(Query, Query)> = match rig.workload {
        Workload::Cold => {
            let mut fresh = rig.fresh.lock().expect("generator lock");
            (0..COLD_SAMPLES).map(|_| fresh.fresh_twins()).collect()
        }
        Workload::Warm | Workload::Drift => (0..POOL_ROUNDS)
            .flat_map(|_| rig.pool.iter().map(|q| (q.clone(), q.clone())))
            .collect(),
    };
    let mut t = Tally::default();
    let mut client = rig.client().map_err(|e| err("connect", e))?;
    if drift {
        client.tenant(READER).map_err(|e| err("tenant", e))?;
    }
    let mut probe = Pinger::connect(rig.net.addr()).map_err(|e| err("probe connect", e))?;
    let mut passes = Vec::new();
    let mut samples = Vec::new();
    for (a, b) in &pairs {
        // drift: every step starts from a fresh pass, so each pays for
        // the same cold pages
        if drift {
            passes.push(refresh(rig, &mut t)?);
        }
        let mut s = Sample {
            atoms: b.atoms,
            ..Sample::default()
        };
        let calls_before = t.done_calls;
        let Some(answers) = t.query(&mut client, a).map_err(|e| err("query", e))? else {
            continue;
        };
        s.tcp = *t.query_ms.last().expect("a timed query");
        // the same number of frames back (answers and DONE), no query
        let started = Instant::now();
        probe
            .burst(answers.len() + 1)
            .map_err(|e| err("probe", e))?;
        s.transport = ms(started.elapsed());
        s.codec_us = codec_us(a, &answers, t.done_calls - calls_before);
        t.answered.push(answered(rig, a, answers));

        if drift {
            passes.push(refresh(rig, &mut t)?);
        }
        let started = Instant::now();
        let result = rig.server.submit(&b.text, Some(b.k)).collect();
        s.inproc = ms(started.elapsed());
        let plan_cache_hit = match result {
            Ok(r) => {
                let rows = r.answers.iter().map(|t| t.to_string()).collect();
                t.answered.push(answered(rig, b, rows));
                r.stats.plan_cache_hit
            }
            Err(e) => {
                t.fail(format!("in-process: {e}"));
                continue;
            }
        };

        if drift {
            passes.push(refresh(rig, &mut t)?);
        }
        replay(rig, b, plan_cache_hit, &mut s, &mut t)?;
        samples.push(s);
    }
    client.quit().map_err(|e| err("quit", e))?;

    let overhead = tracing_overhead(rig, &mut t);
    t.merge(rig.drain().map_err(|e| err("drain", e))?);

    // the ledger: means over the samples, leaving out the fifth with the
    // slowest and the fifth with the fastest client round trip. Every
    // term is a mean over the same samples, so the terms add up; the
    // trimming keeps a stall on a few sampled queries out of them
    let n = samples.len() as f64;
    let avg = |f: &dyn Fn(&Sample) -> f64| mean(&samples.iter().map(f).collect::<Vec<_>>());
    let mut by_client: Vec<&Sample> = samples.iter().collect();
    by_client.sort_by(|a, b| a.tcp.total_cmp(&b.tcp));
    let trim = by_client.len() / 5;
    let kept = &by_client[trim..by_client.len() - trim];
    let ledger = |f: &dyn Fn(&Sample) -> f64| mean(&kept.iter().map(|s| f(s)).collect::<Vec<_>>());
    let tcp = ledger(&|s| s.tcp);
    let inproc = ledger(&|s| s.inproc);
    let transport = ledger(&|s| s.transport);
    let codec_us = ledger(&|s| s.codec_us);
    let parse_us = ledger(&|s| s.parse_us);
    let fingerprint_us = ledger(&|s| s.fingerprint_us);
    let plan = ledger(&|s| s.plan);
    let kernel = ledger(&|s| s.kernel);
    let residual = inproc - (parse_us + fingerprint_us) / 1e3 - plan - kernel;
    let unattributed = tcp - transport - codec_us / 1e3 - inproc;
    let tolerance = TOLERANCE_SHARE * tcp + TOLERANCE_MS;
    let reconciled = !samples.is_empty() && unattributed.abs() <= tolerance;
    println!(
        "# ledger over the middle {} of {n} sampled queries (means, ms): client {tcp:.4} = transport {transport:.4} + codec {:.4} + parse {:.4} + fingerprint {:.4} + plan {plan:.4} + kernel {kernel:.4} + server residual {residual:.4} + unattributed {unattributed:.4}; tolerance ±{tolerance:.4} ({}% of client + {TOLERANCE_MS} ms): {}",
        kept.len(),
        codec_us / 1e3,
        parse_us / 1e3,
        fingerprint_us / 1e3,
        TOLERANCE_SHARE * 100.0,
        if reconciled { "reconciled" } else { "NOT RECONCILED" }
    );
    for atoms in [3, 4] {
        let of: Vec<&Sample> = samples.iter().filter(|s| s.atoms == atoms).collect();
        if !of.is_empty() {
            println!(
                "# ledger, {atoms}-atom queries ({}): client {:.4} ms, plan {:.4} ms",
                of.len(),
                median(&of.iter().map(|s| s.tcp).collect::<Vec<_>>()),
                median(&of.iter().map(|s| s.plan).collect::<Vec<_>>())
            );
        }
    }
    println!(
        "# plan share of the client round trip: {:.3}; plan-cache hit rate under load: {}",
        ratio(plan, tcp),
        load.plan_cache_hit_rate
    );
    let lookups: u64 = samples.iter().map(|s| s.lookups).sum();
    let hits: u64 = samples.iter().map(|s| s.hits).sum();
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| ratio(passes.iter().map(f).sum::<f64>(), passes.len() as f64);
    let metrics = vec![
        ("model.parse_us", parse_us, "us"),
        ("model.fingerprint_us", fingerprint_us, "us"),
        ("optimizer.optimize_ms", plan, "ms"),
        (
            "optimizer.partials_considered",
            avg(&|s| s.considered),
            "count",
        ),
        ("optimizer.partials_pruned", avg(&|s| s.pruned), "count"),
        ("optimizer.vectors_costed", avg(&|s| s.costed), "count"),
        ("plan_cache.hit_rate", load.plan_cache_hit_rate, "ratio"),
        ("exec.kernel_ms", kernel, "ms"),
        (
            "exec.page_lookups_per_query",
            ratio(lookups as f64, n),
            "count",
        ),
        (
            "exec.page_cache_hit_rate",
            ratio(hits as f64, lookups as f64),
            "ratio",
        ),
        (
            "exec.sub_result_hits_per_query",
            avg(&|s| s.sub_result_hits as f64),
            "count",
        ),
        ("exec.calls_per_query", load.calls_per_query, "count"),
        (
            "exec.sim_latency_s_per_query",
            load.sim_latency_s_per_query,
            "s",
        ),
        ("services.fetch_ms", load.fetch_ms, "ms"),
        (
            "services.fetches_per_query",
            load.fetches_per_query,
            "count",
        ),
        (
            "services.retries_per_query",
            load.retries_per_query,
            "count",
        ),
        ("subscribe.refreshed", load.refreshed_per_pass, "count"),
        ("subscribe.changed", load.changed_per_pass, "count"),
        (
            "subscribe.subs_evaluated",
            per_pass(&|p| p.summary.subscriptions_evaluated as f64),
            "count",
        ),
        ("subscribe.deltas", load.deltas_per_pass, "count"),
        (
            "subscribe.sub_results_retained",
            load.retained_per_pass,
            "count",
        ),
        (
            "subscribe.fetch_overlap",
            ratio(
                passes.iter().map(|p| p.fetch_s).sum(),
                passes.iter().map(|p| p.wall_s).sum(),
            ),
            "ratio",
        ),
        (
            "subscribe.refresh_calls_per_pass",
            load.refresh_calls_per_pass,
            "count",
        ),
        ("subscribe.refresh_p50_ms", median(&load.refresh_ms), "ms"),
        ("subscribe.refresh_p99_ms", tail(&load.refresh_ms).1, "ms"),
        ("subscribe.poll_p50_ms", median(&load.poll_ms), "ms"),
        ("net.codec_us_per_query", codec_us, "us"),
        ("net.transport_ms", transport, "ms"),
        ("net.wire_overhead_ms", tcp - inproc, "ms"),
        ("net.connect_p50_ms", median(&load.connect_ms), "ms"),
        ("server.inproc_roundtrip_ms", inproc, "ms"),
        ("server.residual_ms", residual, "ms"),
        ("obs.traced_over_untraced_pct", overhead, "%"),
        ("ledger.client_roundtrip_ms", tcp, "ms"),
        ("ledger.unattributed_ms", unattributed, "ms"),
        ("ledger.samples", n, "count"),
        ("loadgen.query_p99_ms", tail(&load.query_ms).1, "ms"),
        (
            "loadgen.refresh_late_ms",
            tail(&load.refresh_late_ms).1,
            "ms",
        ),
    ];
    let (attempted, failed) = (t.attempted, t.failed);
    all.merge(t);
    Ok(Traced {
        attempted,
        failed,
        reconciled,
        metrics,
    })
}

/// A raw connection for the transport probe: `PING`s sent in one write,
/// each answered by its own `PONG` frame, as a query's answers are.
struct Pinger {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Pinger {
    fn connect(addr: SocketAddr) -> io::Result<Pinger> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut pinger = Pinger {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        };
        pinger.expect("HELLO")?;
        Ok(pinger)
    }

    fn expect(&mut self, verb: &str) -> io::Result<()> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        if line.starts_with(verb) {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected {verb}, got {line:?}"),
            ))
        }
    }

    /// `frames` round trips' worth of frames: one write out, `frames`
    /// `PONG`s back.
    fn burst(&mut self, frames: usize) -> io::Result<()> {
        self.writer.write_all("PING\n".repeat(frames).as_bytes())?;
        (0..frames).try_for_each(|_| self.expect("PONG"))
    }
}

/// Records an answered query for the oracle; drift answers carry the
/// epoch they were computed in (no pass runs concurrently here).
fn answered(rig: &Rig, q: &Query, answers: Vec<String>) -> Answered {
    Answered {
        query: q.clone(),
        answers,
        epochs: (rig.workload == Workload::Drift).then(|| (rig.server.epoch(), rig.server.epoch())),
    }
}

/// One in-process refresh pass, with the subscription snapshot the
/// oracle folds against.
fn refresh(rig: &Rig, t: &mut Tally) -> Result<Pass, String> {
    let (_, fetch_before) = rig.timer.read();
    let started = Instant::now();
    let summary = rig.server.refresh();
    let wall_s = started.elapsed().as_secs_f64();
    let (_, fetch_after) = rig.timer.read();
    let snapshot = rig.snapshot().map_err(|e| err("snapshot", e))?;
    t.snapshots.insert(summary.epoch, snapshot);
    Ok(Pass {
        summary,
        wall_s,
        fetch_s: fetch_after - fetch_before,
    })
}

/// Encode + parse of the frames one query put on the wire: its `QUERY`,
/// one `ANSWER` per row and its `DONE`.
fn codec_us(q: &Query, answers: &[String], calls: u64) -> f64 {
    const REPS: u32 = 4;
    let started = Instant::now();
    for _ in 0..REPS {
        let line = ClientFrame::Query {
            k: Some(q.k),
            text: q.text.clone(),
        }
        .encode();
        black_box(ClientFrame::parse(&line).ok());
        for tuple in answers {
            let line = ServerFrame::Answer {
                tuple: tuple.clone(),
            }
            .encode();
            black_box(ServerFrame::parse(&line).ok());
        }
        let line = ServerFrame::Done {
            answers: answers.len() as u64,
            calls,
            wall_ms: 0,
            partial: false,
        }
        .encode();
        black_box(ServerFrame::parse(&line).ok());
    }
    started.elapsed().as_secs_f64() * 1e6 / f64::from(REPS)
}

/// Replays `q` through the model, optimizer and exec layers one call at
/// a time, against the server's own engine and shared state.
fn replay(
    rig: &Rig,
    q: &Query,
    plan_cache_hit: bool,
    s: &mut Sample,
    t: &mut Tally,
) -> Result<(), String> {
    let engine = rig.server.engine();
    let started = Instant::now();
    let query = engine.parse(&q.text).map_err(|e| err("parse", e))?;
    s.parse_us = started.elapsed().as_secs_f64() * 1e6;

    let started = Instant::now();
    black_box(fingerprint(black_box(&query)));
    s.fingerprint_us = started.elapsed().as_secs_f64() * 1e6;

    let started = Instant::now();
    let optimized = engine
        .optimize(
            query,
            &ExecutionTime,
            OptimizerConfig {
                k: q.k,
                cache: crate::worlds::config(rig.workload).cache,
                ..OptimizerConfig::default()
            },
        )
        .map_err(|e| err("optimize", e))?;
    if !plan_cache_hit {
        s.plan = ms(started.elapsed());
        let stats = &optimized.stats.phase2;
        s.considered = stats.partials_considered as f64;
        s.pruned = stats.partials_pruned as f64;
        s.costed = stats.fetch.vectors_costed as f64;
    }

    let shared = rig.server.shared_state();
    let before = shared.total_cache_stats();
    let started = Instant::now();
    let mut exec = TopKExecution::with_shared_tenant(
        &optimized.candidate.plan,
        engine.schema(),
        engine.registry(),
        Arc::clone(shared),
        None,
        false,
        true,
        None,
    )
    .map_err(|e| err("kernel", e))?;
    let mut rows = Vec::new();
    while (rows.len() as u64) < q.k {
        match exec.next_answer() {
            Some(row) => rows.push(row),
            None => break,
        }
    }
    s.kernel = ms(started.elapsed());
    if let Some(e) = exec.error() {
        t.fail(format!("kernel: {e}"));
    }
    let after = shared.total_cache_stats();
    s.hits = after.hits - before.hits;
    s.lookups = s.hits + after.misses - before.misses;
    s.sub_result_hits = exec.sub_result_hits();
    t.answered.push(answered(
        rig,
        q,
        rows.iter().map(|r| r.to_string()).collect(),
    ));
    Ok(())
}

/// Drives the workload in alternating windows with the span recorder
/// detached and attached; the median round trip traced over untraced,
/// in percent.
fn tracing_overhead(rig: &Rig, t: &mut Tally) -> f64 {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..OBS_ROUNDS {
        let load = rig.drive(Instant::now() + OBS_WINDOW);
        off.extend_from_slice(&load.query_ms);
        t.merge(load);
        rig.server.enable_tracing();
        let load = rig.drive(Instant::now() + OBS_WINDOW);
        rig.server.shared_state().set_trace(None);
        on.extend_from_slice(&load.query_ms);
        t.merge(load);
    }
    100.0 * ratio(median(&on), median(&off))
}
