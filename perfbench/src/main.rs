//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-templates|warm-sessions|standing-drift> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --spec > BENCHMARK.json
//! ```
//!
//! One run sets the workload's server up several times (the median is
//! `setup_s`), drives it over TCP for `--seconds` with the seeded
//! inputs, and checks every answer against the oracle. With `--trace 0`
//! it reports the end-to-end metrics; with `--trace 1` it then replays a
//! seeded sample of the inputs through each layer's public functions and
//! reports the per-layer metrics and the ledger that reconciles them
//! with the client's round trip. Human-readable notes go to stdout
//! first; the last line is the JSON result.

mod inputs;
mod ledger;
mod oracle;
mod rig;
mod spec;
mod stats;
mod worlds;

use mdq_runtime::MetricsSnapshot;
use rig::{Rig, Tally, Workload};
use stats::{median, ratio, tail};
use std::time::{Duration, Instant};

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--spec" {
            print!("{}", spec::render());
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or_else(|| {
        let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; expected one of {names:?}")
    })?;
    Ok(Some(Args {
        workload,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    }))
}

/// Metric name, value, unit — in the order printed.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let why = spec::WORKLOADS
        .iter()
        .find(|w| w.name == args.name)
        .map_or("", |w| w.why);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} client_threads={} cores={}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rig::CLIENTS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "# why: {}",
        why.split_whitespace().collect::<Vec<_>>().join(" ")
    );

    // setup, several times: every rig but the last is torn down
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut rig = None;
    for _ in 0..SETUP_REPS {
        drop(rig.take());
        let started = Instant::now();
        let r = Rig::setup(args.workload, args.seed).map_err(|e| e.to_string())?;
        setups.push(started.elapsed().as_secs_f64());
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one setup");

    // the timed load, tracing off
    let before = (rig.server.metrics(), rig.timer.read());
    let started = Instant::now();
    let mut tally = rig.drive(started + Duration::from_secs_f64(args.seconds));
    let wall = started.elapsed().as_secs_f64();
    let after = (rig.server.metrics(), rig.timer.read());
    let load = Load::of(&tally, &before, &after);
    tally.merge(rig.drain().map_err(|e| format!("drain: {e}"))?);
    let (mut attempted, mut failed) = (tally.attempted, tally.failed);
    let mut all = std::mem::take(&mut rig.baseline);
    all.merge(tally);

    let mut metrics: Metrics = Vec::new();
    let mut reconciled = true;
    if args.trace {
        let traced = ledger::run(&rig, &load, &mut all)?;
        attempted += traced.attempted;
        failed += traced.failed;
        reconciled = traced.reconciled;
        metrics = traced.metrics;
    }

    let verdict = oracle::check(&rig, &all);
    let errors = failed + verdict.mismatches;
    let error_share = ratio(errors as f64, attempted as f64);
    let (tail_pct, _) = tail(&load.query_ms);
    println!(
        "# setup_s samples (s): {}",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "# timed load: {} queries, {} connects, {} polls, {} refreshes in {wall:.3} s; loadgen.query_p99_ms is the p{tail_pct} of {} samples",
        load.query_ms.len(),
        load.connect_ms.len(),
        load.poll_ms.len(),
        load.refresh_ms.len(),
        load.query_ms.len()
    );
    println!(
        "# oracle: {} checks, {} mismatches, {} drift one-shots overlapped a refresh pass and mixed two epochs' pages (not errors); {failed} of {attempted} operations failed; error_share={error_share}",
        verdict.checked, verdict.mismatches, verdict.mixed
    );
    for note in verdict.notes.iter().chain(&all.failures) {
        println!("# error: {note}");
    }
    load.print_counters();
    if args.trace {
        metrics.push(("loadgen.error_share", error_share, "ratio"));
        metrics.push(("loadgen.oracle_checked", verdict.checked as f64, "count"));
    } else {
        // a query whose answers the oracle rejected does not count as
        // served
        let verified = (load.query_ms.len() as u64).saturating_sub(verdict.mismatches);
        metrics = vec![
            ("setup_s", median(&setups), "s"),
            ("query_p50_ms", median(&load.query_ms), "ms"),
            ("queries_per_s", verified as f64 / wall, "1/s"),
        ];
    }
    let expected: Vec<&str> = if args.trace {
        spec::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        spec::END_TO_END.iter().map(|m| m.name).collect()
    };
    let reported: Vec<&str> = metrics.iter().map(|m| m.0).collect();
    assert_eq!(
        reported, expected,
        "the run reports the spec's metrics in order"
    );
    let correct = errors == 0 && reconciled;
    println!("{}", result_json(correct, attempted, errors, &metrics));
    Ok(())
}

/// What the timed load measured: its client-side samples, and the
/// server's counters normalised per query or per refresh pass.
pub struct Load {
    pub query_ms: Vec<f64>,
    pub connect_ms: Vec<f64>,
    pub poll_ms: Vec<f64>,
    pub refresh_ms: Vec<f64>,
    pub refresh_late_ms: Vec<f64>,
    pub calls_per_query: f64,
    pub sim_latency_s_per_query: f64,
    pub retries_per_query: f64,
    pub plan_cache_hit_rate: f64,
    pub refresh_calls_per_pass: f64,
    pub refreshed_per_pass: f64,
    pub changed_per_pass: f64,
    pub deltas_per_pass: f64,
    pub retained_per_pass: f64,
    pub fetch_ms: f64,
    pub fetches_per_query: f64,
}

type Counters = (MetricsSnapshot, (u64, f64));

impl Load {
    fn of(t: &Tally, (m0, f0): &Counters, (m1, f1): &Counters) -> Load {
        let queries = t.query_ms.len() as f64;
        let passes = (m1.refresh_passes - m0.refresh_passes) as f64;
        let probes = (m1.plan_cache_hits + m1.plan_cache_misses)
            - (m0.plan_cache_hits + m0.plan_cache_misses);
        let fetches = (f1.0 - f0.0) as f64;
        Load {
            query_ms: t.query_ms.clone(),
            connect_ms: t.connect_ms.clone(),
            poll_ms: t.poll_ms.clone(),
            refresh_ms: t.refresh_ms.clone(),
            refresh_late_ms: t.refresh_late_ms.clone(),
            calls_per_query: ratio(t.done_calls as f64, queries),
            sim_latency_s_per_query: ratio(
                m1.total_service_latency - m0.total_service_latency,
                queries,
            ),
            retries_per_query: ratio((m1.retries - m0.retries) as f64, queries),
            plan_cache_hit_rate: ratio(
                (m1.plan_cache_hits - m0.plan_cache_hits) as f64,
                probes as f64,
            ),
            refresh_calls_per_pass: ratio(
                t.refresh_calls.iter().sum::<u64>() as f64,
                t.refresh_calls.len() as f64,
            ),
            refreshed_per_pass: ratio(
                (m1.invocations_refreshed - m0.invocations_refreshed) as f64,
                passes,
            ),
            changed_per_pass: ratio(
                (m1.invocations_changed - m0.invocations_changed) as f64,
                passes,
            ),
            deltas_per_pass: ratio((m1.deltas_emitted - m0.deltas_emitted) as f64, passes),
            retained_per_pass: ratio(
                (m1.sub_results_retained - m0.sub_results_retained) as f64,
                passes,
            ),
            fetch_ms: ratio((f1.1 - f0.1) * 1e3, fetches),
            fetches_per_query: ratio(fetches, queries),
        }
    }

    fn print_counters(&self) {
        let q = |p| stats::quantile(&self.query_ms, p);
        println!(
            "# query_ms quantiles p50/p90/p99/max: {:.4} {:.4} {:.4} {:.4}",
            q(0.5),
            q(0.9),
            q(0.99),
            q(1.0)
        );
        println!(
            "# counters: calls_per_query={} sim_latency_s_per_query={} plan_cache_hit_rate={} fetch_ms={} refresh_calls_per_pass={} refresh_p50_ms={} refresh_tail_ms={:?} poll_p50_ms={} refresh_late_tail_ms={:?}",
            self.calls_per_query,
            self.sim_latency_s_per_query,
            self.plan_cache_hit_rate,
            self.fetch_ms,
            self.refresh_calls_per_pass,
            median(&self.refresh_ms),
            tail(&self.refresh_ms),
            median(&self.poll_ms),
            tail(&self.refresh_late_ms),
        );
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                spec::quote(name),
                json_number(*value),
                spec::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip
/// formatting keeps.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metrics are finite, got {v}");
    format!("{v:?}")
}
