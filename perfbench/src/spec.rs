//! The benchmark's contract: workloads, metric names, units and bounds.
//!
//! `BENCHMARK.json` at the repository root is rendered from these
//! tables (`perfbench --spec`), so the names the binary prints and the
//! names the spec lists cannot drift apart.

/// One workload: its command-line name and why it is in the benchmark.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 3] = [
    WorkloadSpec {
        name: "cold-templates",
        why: "never-seen 3- and 4-atom travel templates over 2 connections: every query misses \
              the plan cache, so branch-and-bound optimization dominates the round trip",
    },
    WorkloadSpec {
        name: "warm-sessions",
        why: "short tenant sessions over a fixed pool of 16 templates: plan and page caches are \
              warm, so wire, scheduler, parse and kernel cost show and the optimizer does nothing",
    },
    WorkloadSpec {
        name: "standing-drift",
        why: "64 standing queries over a drifting world with slept service latency: an \
              open-loop REFRESH every 250 ms beside POLLs and one-shot queries that refetch cold pages",
    },
];

/// An end-to-end metric, measured with tracing off (`--trace 0`).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
];

/// A per-layer metric, measured by the traced run (`--trace 1`).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 40] = [
    // model: parser and fingerprint
    layer("model.parse_us", "us", "lower"),
    layer("model.fingerprint_us", "us", "lower"),
    // optimizer: branch-and-bound with phases 2 and 3
    layer("optimizer.optimize_ms", "ms", "lower"),
    layer("optimizer.partials_considered", "count", "lower"),
    layer("optimizer.partials_pruned", "count", "higher"),
    layer("optimizer.vectors_costed", "count", "lower"),
    // runtime::plan_cache
    layer("plan_cache.hit_rate", "ratio", "higher"),
    // exec: top-k kernel, gateway, page cache, sub-result store
    layer("exec.kernel_ms", "ms", "lower"),
    layer("exec.page_lookups_per_query", "count", "lower"),
    layer("exec.page_cache_hit_rate", "ratio", "higher"),
    layer("exec.sub_result_hits_per_query", "count", "higher"),
    layer("exec.calls_per_query", "count", "lower"),
    layer("exec.sim_latency_s_per_query", "s", "lower"),
    // services, timed by the benchmark's own wrapper
    layer("services.fetch_ms", "ms", "lower"),
    layer("services.fetches_per_query", "count", "lower"),
    layer("services.retries_per_query", "count", "lower"),
    // runtime::subscribe, per refresh pass
    layer("subscribe.refreshed", "count", "lower"),
    layer("subscribe.changed", "count", "lower"),
    layer("subscribe.subs_evaluated", "count", "lower"),
    layer("subscribe.deltas", "count", "lower"),
    layer("subscribe.sub_results_retained", "count", "higher"),
    layer("subscribe.fetch_overlap", "ratio", "higher"),
    layer("subscribe.refresh_calls_per_pass", "count", "lower"),
    layer("subscribe.refresh_p50_ms", "ms", "lower"),
    layer("subscribe.refresh_p99_ms", "ms", "lower"),
    layer("subscribe.poll_p50_ms", "ms", "lower"),
    // runtime::net
    layer("net.codec_us_per_query", "us", "lower"),
    layer("net.transport_ms", "ms", "lower"),
    layer("net.wire_overhead_ms", "ms", "lower"),
    layer("net.connect_p50_ms", "ms", "lower"),
    // runtime::server
    layer("server.inproc_roundtrip_ms", "ms", "lower"),
    layer("server.residual_ms", "ms", "lower"),
    // obs
    layer("obs.traced_over_untraced_pct", "%", "lower"),
    // the ledger and the load generator
    layer("ledger.client_roundtrip_ms", "ms", "lower"),
    layer("ledger.unattributed_ms", "ms", "lower"),
    layer("ledger.samples", "count", "higher"),
    layer("loadgen.query_p99_ms", "ms", "lower"),
    layer("loadgen.refresh_late_ms", "ms", "lower"),
    layer("loadgen.error_share", "ratio", "lower"),
    layer("loadgen.oracle_checked", "count", "higher"),
];

/// Seconds one run measures, as `BENCHMARK.json` states it for `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// Renders `BENCHMARK.json`.
pub fn render() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(&squash(w.why))
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Collapses the runs of spaces a wrapped string literal leaves.
fn squash(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// A JSON string literal (the spec's strings need no escapes beyond
/// quotes and backslashes).
pub fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}
