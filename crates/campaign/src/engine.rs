//! The shared work-stealing execution engine.
//!
//! One [`Engine`] multiplexes `(point, port)` jobs from any number of
//! concurrently submitted campaigns across a single worker pool. Two
//! properties make it safe to share:
//!
//! 1. **Work stealing, not work ordering.** Each worker owns a deque;
//!    submissions land in a global injector, workers refill from it in
//!    chunks and steal half of the longest peer deque when both run dry.
//!    Scheduling order is irrelevant to results — every job is a pure
//!    function of `(config, workload, port)` and each submission merges
//!    its port observations in ascending port order — so stealing buys
//!    throughput without costing a bit of determinism.
//! 2. **Per-job policy.** A [`Job`] carries its submission's retry
//!    budget, chaos plan, and reply channel, so campaigns with different
//!    configurations coexist on one pool. The queue is refillable: a
//!    gatherer pushes fresh attempts for retried points into the same
//!    injector.
//!
//! Workers are spawned lazily on first submission. Dropping the
//! [`Engine`] closes the queue and joins every worker, so no worker of a
//! dropped engine can still touch a process-global metric. A parked pool
//! costs nothing but stack pages, so the process-wide [`Engine::global`]
//! can live for the whole process.

use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mn_core::{try_simulate_port, PortObservation};
use mn_telemetry::registry::{self, Counter};

use crate::chaos::ChaosPlan;
use crate::error::CampaignError;
use crate::point::CampaignPoint;

/// How long an idle worker parks before re-scanning peer deques for
/// stealable work. Wakeups on submission are immediate (condvar notify);
/// the timeout only bounds the window of a missed-steal race.
const IDLE_RESCAN: Duration = Duration::from_millis(50);

/// Largest injector chunk a worker moves into its own deque at once.
/// Small enough that an unlucky grab is cheap to steal back from.
const CHUNK_MAX: usize = 32;

/// What the engine delivers to a submission's reply channel: one port
/// of one attempt finished (successfully or not).
pub(crate) struct Delivery {
    /// The submission-local slot (index into its unique points).
    pub(crate) slot: usize,
    /// Which port landed.
    pub(crate) port: u32,
    /// Wall-clock the worker spent on this job.
    pub(crate) host: Duration,
    /// The observation, or why there is none.
    pub(crate) outcome: Result<PortObservation, CampaignError>,
}

/// One schedulable unit: a single port of a single point attempt,
/// carrying its submission's execution policy and reply channel.
pub(crate) struct Job {
    pub(crate) slot: usize,
    pub(crate) port: u32,
    pub(crate) attempt: u32,
    pub(crate) point: Arc<CampaignPoint>,
    /// Scheduling-independent hash of the point's cache key, the chaos
    /// schedule's injection-site coordinate.
    pub(crate) key_hash: u64,
    pub(crate) retries: u32,
    pub(crate) chaos: Option<ChaosPlan>,
    pub(crate) reply: mpsc::Sender<Delivery>,
}

/// The injector: submissions push here; workers refill from it.
struct Injector {
    queue: VecDeque<Job>,
    closed: bool,
    /// The spawned workers (empty until the first submission); joined
    /// when the engine drops.
    handles: Vec<JoinHandle<()>>,
}

struct Core {
    workers: usize,
    injector: Mutex<Injector>,
    ready: Condvar,
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Lifetime jobs executed, on the mn-metrics [`Counter`] type
    /// (always-on: the atomic add *is* the pre-registry baseline) so the
    /// tests and the Prometheus export read one source of truth.
    /// Per-engine, not global — tests and benches build private pools
    /// and assert on their counts.
    executed: Counter,
}

/// A shared work-stealing worker pool. Cheap to create (workers spawn
/// on first submission) and safe to share across threads behind an
/// `Arc`; dropping the handle closes the pool and joins its workers.
pub struct Engine {
    core: Arc<Core>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.core.workers)
            .field("executed", &self.core.executed.get())
            .finish()
    }
}

impl Engine {
    /// An engine with `workers` worker threads (at least one). Threads
    /// are spawned lazily on the first submission.
    pub fn new(workers: usize) -> Engine {
        let workers = workers.max(1);
        Engine {
            core: Arc::new(Core {
                workers,
                injector: Mutex::new(Injector {
                    queue: VecDeque::new(),
                    closed: false,
                    handles: Vec::new(),
                }),
                ready: Condvar::new(),
                deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
                executed: Counter::new(),
            }),
        }
    }

    /// The process-wide shared engine, sized by `MN_JOBS` (or available
    /// parallelism) at first use. Every [`Campaign::from_env`] campaign
    /// submits here, so concurrent campaigns in one process share one
    /// worker pool.
    ///
    /// [`Campaign::from_env`]: crate::Campaign::from_env
    pub fn global() -> Arc<Engine> {
        static GLOBAL: OnceLock<Arc<Engine>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let engine = Arc::new(Engine::new(crate::env::jobs_from_env()));
                registry::metrics()
                    .engine_workers
                    .set(engine.workers() as u64);
                // The shared engine's lifetime totals join the Prometheus
                // snapshot; private pools (tests, benches) stay local.
                let core = Arc::clone(&engine.core);
                registry::register_collector("engine", move |out| {
                    registry::render_labeled_counters(
                        out,
                        "mn_engine_jobs_executed_total",
                        "Jobs executed by the shared engine since process start.",
                        &[("pool", "global", core.executed.get())],
                    );
                });
                engine
            })
            .clone()
    }

    /// The worker-pool size.
    pub fn workers(&self) -> usize {
        self.core.workers
    }

    /// Total jobs executed since the engine was created.
    pub fn jobs_executed(&self) -> u64 {
        self.core.executed.get()
    }

    /// Submits jobs to the injector, spawning the worker pool on first
    /// use. Called both for a campaign's initial fan-out and for retry
    /// refills.
    pub(crate) fn submit(&self, jobs: impl IntoIterator<Item = Job>) {
        let mut injector = lock(&self.core.injector);
        injector.queue.extend(jobs);
        if injector.queue.is_empty() {
            return;
        }
        if injector.handles.is_empty() {
            for index in 0..self.core.workers {
                let core = Arc::clone(&self.core);
                let spawned = std::thread::Builder::new()
                    .name(format!("mn-engine-{index}"))
                    .spawn(move || worker_loop(&core, index));
                match spawned {
                    Ok(handle) => injector.handles.push(handle),
                    // A thread that failed to spawn is a smaller pool,
                    // not a lost job: any live worker drains the shared
                    // injector. Worker 0 must exist for progress.
                    Err(err) if index == 0 => {
                        panic!("mn-engine: could not spawn worker 0: {err}")
                    }
                    Err(err) => {
                        eprintln!("warning: mn-engine worker {index} did not spawn: {err}")
                    }
                }
            }
        }
        drop(injector);
        self.core.ready.notify_all();
    }
}

impl Drop for Engine {
    /// Closes the queue, then joins every worker: they drain what is
    /// left and exit, so nothing of this engine runs after the drop.
    fn drop(&mut self) {
        let mut injector = lock(&self.core.injector);
        injector.closed = true;
        let handles = std::mem::take(&mut injector.handles);
        drop(injector);
        self.core.ready.notify_all();
        for handle in handles {
            // A worker's own panics are caught per job; a join error
            // would be a panic in the loop itself, already reported.
            let _ = handle.join();
        }
    }
}

/// Poison-tolerant lock: a worker that panicked while holding a queue
/// mutex left plain data (a deque of jobs), never a broken invariant.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn worker_loop(core: &Core, me: usize) {
    loop {
        // Local deque first: lock-local, contention-free in steady state.
        let local = lock(&core.deques[me]).pop_front();
        if let Some(job) = local {
            execute(core, job);
            continue;
        }
        match acquire(core, me) {
            Some(job) => execute(core, job),
            None => return, // closed and drained
        }
    }
}

/// Refills an idle worker: an injector chunk, else half a peer's deque,
/// else park until submission or the rescan timeout.
fn acquire(core: &Core, me: usize) -> Option<Job> {
    loop {
        {
            let mut injector = lock(&core.injector);
            if !injector.queue.is_empty() {
                // Metrics hook (free when off): queue depth at refill
                // time and the chunk size actually moved.
                if registry::metrics_enabled() {
                    let m = registry::metrics();
                    m.engine_injector_refills.inc();
                    m.engine_queue_depth.set(injector.queue.len() as u64);
                }
                let chunk = injector
                    .queue
                    .len()
                    .div_ceil(core.workers)
                    .clamp(1, CHUNK_MAX);
                let first = injector.queue.pop_front().expect("nonempty");
                let mut moved = 1u64;
                if chunk > 1 {
                    let mut local = lock(&core.deques[me]);
                    for _ in 1..chunk {
                        match injector.queue.pop_front() {
                            Some(job) => {
                                local.push_back(job);
                                moved += 1;
                            }
                            None => break,
                        }
                    }
                }
                registry::metrics().engine_refill_chunk.observe(moved);
                let more = !injector.queue.is_empty();
                drop(injector);
                if more {
                    core.ready.notify_all();
                }
                return Some(first);
            }
            if injector.closed {
                return None;
            }
        }
        if let Some(job) = steal(core, me) {
            return Some(job);
        }
        // Park. Re-checking the injector under the lock closes the
        // submission race; the timeout bounds the steal race (work that
        // appeared in a peer deque after the scan above).
        let injector = lock(&core.injector);
        if injector.queue.is_empty() && !injector.closed {
            registry::metrics().engine_parks.inc();
            let _ = core
                .ready
                .wait_timeout(injector, IDLE_RESCAN)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            registry::metrics().engine_unparks.inc();
        }
    }
}

/// Steal-half: takes the back half of the longest peer deque into our
/// own and returns one job from it.
fn steal(core: &Core, me: usize) -> Option<Job> {
    registry::metrics().engine_steal_attempts.inc();
    let mut victim = None;
    let mut victim_len = 0;
    for (index, deque) in core.deques.iter().enumerate() {
        if index == me {
            continue;
        }
        let len = lock(deque).len();
        if len > victim_len {
            victim_len = len;
            victim = Some(index);
        }
    }
    let victim = victim?;
    let mut stolen = {
        let mut deque = lock(&core.deques[victim]);
        let keep = deque.len() / 2;
        deque.split_off(keep)
    };
    let first = stolen.pop_front()?;
    registry::metrics().engine_steals.inc();
    if !stolen.is_empty() {
        lock(&core.deques[me]).append(&mut stolen);
    }
    Some(first)
}

/// Runs one job and replies. Panic isolation: one poisoned point becomes
/// a structured record, not a dead worker. The closure only touches
/// owned/`Copy` data, so unwinding cannot leave broken invariants behind
/// (`AssertUnwindSafe` is sound here).
fn execute(core: &Core, job: Job) {
    let start = Instant::now();
    if job.attempt > 0 {
        registry::metrics().engine_retry_escalations.inc();
    }
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(chaos) = job.chaos {
            assert!(
                !chaos.injects_panic(job.key_hash, job.port, job.attempt, job.retries),
                "chaos: injected worker panic"
            );
        }
        if job.attempt == 0 {
            try_simulate_port(&job.point.config, job.point.workload, job.port)
        } else {
            // A stall diagnosis depends on the watchdog budget; retries
            // widen it. The limit is outside the result fingerprint, so
            // a completing rerun is bit-identical.
            let mut config = job.point.config.clone();
            config.escalate_watchdog(job.attempt);
            try_simulate_port(&config, job.point.workload, job.port)
        }
    }));
    let outcome = match caught {
        Ok(Ok(observation)) => Ok(observation),
        Ok(Err(error)) => Err(CampaignError::Sim {
            port: job.port,
            error,
        }),
        Err(payload) => {
            registry::metrics().engine_panics_isolated.inc();
            Err(CampaignError::PointPanicked {
                label: job.point.config.label(),
                payload: panic_payload_string(payload.as_ref()),
            })
        }
    };
    core.executed.inc_always();
    // A dropped receiver means the submission is gone (its campaign
    // already returned); the result is simply discarded.
    let _ = job.reply.send(Delivery {
        slot: job.slot,
        port: job.port,
        host: start.elapsed(),
        outcome,
    });
}

/// Renders a caught panic payload for the error record: panics raised
/// with a string literal or a formatted message carry it; anything else
/// becomes a placeholder (payloads are `Box<dyn Any>`, not `Display`).
pub(crate) fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_core::SystemConfig;
    use mn_topo::TopologyKind;
    use mn_workloads::Workload;

    fn tiny_point(seed: u64) -> Arc<CampaignPoint> {
        let mut config = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
        config.requests_per_port = 120;
        config.seed = seed;
        Arc::new(CampaignPoint::new(config, Workload::Nw))
    }

    fn job_for(point: &Arc<CampaignPoint>, port: u32, reply: &mpsc::Sender<Delivery>) -> Job {
        Job {
            slot: 0,
            port,
            attempt: 0,
            point: Arc::clone(point),
            key_hash: 0,
            retries: 0,
            chaos: None,
            reply: reply.clone(),
        }
    }

    #[test]
    fn executes_submitted_jobs_and_replies() {
        let engine = Engine::new(2);
        let (tx, rx) = mpsc::channel();
        let point = tiny_point(1);
        let ports = mn_core::port_count(&point.config);
        engine.submit((0..ports).map(|port| job_for(&point, port, &tx)));
        let mut landed = 0;
        for _ in 0..ports {
            assert!(rx.recv().unwrap().outcome.is_ok());
            landed += 1;
        }
        assert_eq!(landed, ports);
        assert_eq!(engine.jobs_executed(), u64::from(ports));
    }

    #[test]
    fn steal_rebalances_a_lopsided_pool() {
        // More jobs than CHUNK_MAX on a 4-worker pool: the first worker
        // to wake grabs a chunk, the rest refill and steal. All jobs
        // complete exactly once regardless of who ran them.
        let engine = Engine::new(4);
        let (tx, rx) = mpsc::channel();
        let points: Vec<_> = (0..12).map(|seed| tiny_point(100 + seed)).collect();
        let ports = mn_core::port_count(&points[0].config);
        engine.submit(points.iter().flat_map(|point| {
            let tx = tx.clone();
            (0..ports).map(move |port| job_for(point, port, &tx))
        }));
        let expected = points.len() * ports as usize;
        for _ in 0..expected {
            assert!(rx.recv().unwrap().outcome.is_ok());
        }
        assert_eq!(engine.jobs_executed(), expected as u64);
    }

    #[test]
    fn drop_closes_the_pool() {
        let engine = Engine::new(2);
        let (tx, rx) = mpsc::channel();
        let point = tiny_point(9);
        engine.submit([job_for(&point, 0, &tx)]);
        assert!(rx.recv().unwrap().outcome.is_ok());
        let core = Arc::clone(&engine.core);
        drop(engine);
        // Every worker held a clone of the core; drop joined them all, so
        // only ours is left.
        assert_eq!(Arc::strong_count(&core), 1);
    }
}
