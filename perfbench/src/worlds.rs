//! The worlds the benchmark serves: the calibrated travel world, and
//! its drifting variant whose services sleep a scaled share of their
//! simulated latency. Every service is wrapped in a [`TimedService`],
//! the benchmark's own probe around the `services` layer.

use crate::rig::Workload;
use mdq_core::Mdq;
use mdq_model::value::Value;
use mdq_runtime::{QueryServer, RuntimeConfig};
use mdq_services::domains::travel::travel_world;
use mdq_services::domains::World;
use mdq_services::refresh::{refreshing_registry, EpochClock, RefreshConfig, RefreshPolicy};
use mdq_services::registry::ServiceRegistry;
use mdq_services::service::{Service, ServiceFault, ServiceResponse};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of the travel world's incidental values (prices, shuffles).
/// Fixed: the workload seed varies the inputs, not the world.
const WORLD_SEED: u64 = 2008;
/// Seed of the drifting world's per-epoch mutation schedule.
const DRIFT_SEED: u64 = 7;
/// Real seconds slept per simulated second in the drifting world, so a
/// 9.7 s flight search sleeps 4.85 ms.
const SLEEP_SCALE: f64 = 5e-4;

/// Fetch time and count summed over every wrapped service.
#[derive(Default)]
pub struct FetchTimer {
    nanos: AtomicU64,
    fetches: AtomicU64,
}

impl FetchTimer {
    /// `(fetches, total seconds)` so far.
    pub fn read(&self) -> (u64, f64) {
        (
            self.fetches.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        )
    }

    fn add(&self, started: Instant) {
        self.nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.fetches.fetch_add(1, Ordering::Relaxed);
    }
}

/// Times every fetch of `inner`, first sleeping `scale` real seconds
/// per simulated second of the response's latency.
struct TimedService {
    inner: Arc<dyn Service>,
    scale: f64,
    timer: Arc<FetchTimer>,
}

impl TimedService {
    fn sleep_for(&self, r: &ServiceResponse) {
        if self.scale > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(r.latency * self.scale));
        }
    }
}

impl Service for TimedService {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fetch(&self, pattern: usize, inputs: &[Value], page: u32) -> ServiceResponse {
        let started = Instant::now();
        let r = self.inner.fetch(pattern, inputs, page);
        self.sleep_for(&r);
        self.timer.add(started);
        r
    }

    fn try_fetch(
        &self,
        pattern: usize,
        inputs: &[Value],
        page: u32,
    ) -> Result<ServiceResponse, ServiceFault> {
        let started = Instant::now();
        let r = self.inner.try_fetch(pattern, inputs, page);
        if let Ok(r) = &r {
            self.sleep_for(r);
        }
        self.timer.add(started);
        r
    }
}

fn timed(registry: &ServiceRegistry, scale: f64, timer: &Arc<FetchTimer>) -> ServiceRegistry {
    let mut wrapped = ServiceRegistry::new();
    for id in registry.ids().collect::<Vec<_>>() {
        wrapped.register(
            id,
            TimedService {
                inner: Arc::clone(registry.get(id).expect("listed id resolves")),
                scale,
                timer: Arc::clone(timer),
            },
        );
    }
    wrapped
}

/// The calibrated travel world with every service timed.
pub fn travel(timer: &Arc<FetchTimer>) -> Mdq {
    let w = travel_world(WORLD_SEED);
    Mdq::from_world(World {
        registry: timed(&w.registry, 0.0, timer),
        schema: w.schema,
        query: w.query,
    })
}

/// The drifting travel world on `clock`, its services sleeping
/// `scale` real seconds per simulated second.
pub fn drifting(clock: &Arc<EpochClock>, scale: f64, timer: &Arc<FetchTimer>) -> Mdq {
    let w = travel_world(WORLD_SEED);
    let config = RefreshConfig::seeded(DRIFT_SEED)
        .with_change_rate(0.05)
        .with_drop_rate(0.01);
    let registry = refreshing_registry(&w.registry, clock, config);
    Mdq::from_world(World {
        registry: timed(&registry, scale, timer),
        schema: w.schema,
        query: w.query,
    })
}

/// Server policies: the defaults, except that the drifting workload
/// turns sub-result sharing on and refreshes on two threads.
pub fn config(workload: Workload) -> RuntimeConfig {
    match workload {
        Workload::Drift => RuntimeConfig {
            sub_results: 512,
            refresh_workers: 2,
            ..RuntimeConfig::default()
        },
        Workload::Cold | Workload::Warm => RuntimeConfig::default(),
    }
}

/// A travel-world server under `workload`'s policies.
pub fn travel_server(workload: Workload, timer: &Arc<FetchTimer>) -> QueryServer {
    QueryServer::new(travel(timer), config(workload))
}

/// A drifting-world server with its refresh clock attached (TTL of one
/// epoch: every pass refetches every tracked invocation).
pub fn drift_server(timer: &Arc<FetchTimer>) -> QueryServer {
    let clock = EpochClock::new();
    let server = QueryServer::new(
        drifting(&clock, SLEEP_SCALE, timer),
        config(Workload::Drift),
    );
    server.attach_refresh(clock, RefreshPolicy::every(1));
    server
}

/// A fresh drifting-world server whose clock stands at `epoch`: the
/// oracle's reference for one-shot queries answered in that epoch.
pub fn drift_reference(epoch: u64) -> QueryServer {
    let clock = EpochClock::new();
    clock.set(epoch);
    let timer = Arc::new(FetchTimer::default());
    QueryServer::new(drifting(&clock, 0.0, &timer), config(Workload::Drift))
}
