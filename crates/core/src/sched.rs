//! Admission-controlled session scheduler: the platform's overload
//! backbone.
//!
//! [`CentralPlatform::submit`](crate::CentralPlatform::submit) used to
//! spawn one OS thread per session and hard-reject everything past
//! `max_concurrent_sessions`. This module replaces that with a bounded
//! worker pool fed by an admission queue:
//!
//! - **Backpressure** — the queue has a configurable depth; submissions
//!   past it are shed *at submit time* with
//!   [`CoreError::Overloaded`], carrying the queue depth and a
//!   `retry_after_ms` hint derived from an EWMA of recent session run
//!   times (see [`crate::retry`] for the matching client-side backoff).
//! - **Fairness** — the queue is keyed by the request's self-declared
//!   `requester` label and drained round-robin across keys, so one
//!   requester flooding the platform cannot starve everyone else. The
//!   label is cooperative, not authenticated: it bounds accidental
//!   monopolization, not adversarial impersonation.
//! - **Deadline-aware shedding** — a session whose deadline has already
//!   passed, or provably will pass before its estimated queue wait, is
//!   answered immediately with a zero-round reply marked
//!   [`StopReason::Shed`] instead of wasting a worker on doomed work.
//!   The same preflight runs again at dequeue, so a session cancelled or
//!   expired *while queued* never runs a round.
//! - **Panic isolation** — workers run sessions under `catch_unwind`; a
//!   panicking search produces a typed `Internal` error reply, never a
//!   hung client, and the worker thread survives to serve the next job.
//! - **Graceful drain** — dropping the scheduler (platform shutdown)
//!   cancels in-flight sessions at their next round boundary, answers
//!   every queued session with [`CoreError::Shutdown`], and joins the
//!   pool. Every admitted session terminates with a reply or a typed
//!   error; slot and queue counters return to zero.
//!
//! Chaos hooks: a [`FaultPlan`] (shared with the storage engine) can
//! inject panics, errors, and latency at the [`FaultSite::Worker`] site,
//! which is how `tests/chaos.rs` proves the termination invariant.

use crate::error::{CoreError, Result};
use crate::platform::SessionGuard;
use crate::wire::{SchedulerReport, SearchReply, StopCounts};
use mileena_obs::Histogram;
use mileena_search::{SearchControl, StopReason};
use mileena_storage::{FaultKind, FaultPlan, FaultSite};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Retry hint returned before any session has completed (no EWMA yet).
const DEFAULT_RETRY_HINT_MS: u64 = 50;
/// Clamp bounds for the overload retry hint.
const MIN_RETRY_HINT_MS: u64 = 10;
const MAX_RETRY_HINT_MS: u64 = 5_000;

/// Scheduler tuning, part of
/// [`PlatformConfig`](crate::platform::PlatformConfig).
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker-pool size; `None` sizes it to the host's available
    /// parallelism. The effective pool is additionally capped by
    /// `max_concurrent_sessions` and never smaller than 1.
    pub workers: Option<usize>,
    /// Admission-queue bound: submissions arriving with this many
    /// sessions already waiting are shed with [`CoreError::Overloaded`].
    /// A depth of 0 is treated as 1.
    pub queue_depth: usize,
    /// Chaos hook: fault plan rolled at [`FaultSite::Worker`] before each
    /// dispatched session. Share the same plan with
    /// [`StoragePolicy`](crate::durable::StoragePolicy) to exercise
    /// storage and scheduler faults from one deterministic schedule.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig { workers: None, queue_depth: 256, faults: None }
    }
}

impl SchedulerConfig {
    /// The pool size this config yields on this host, given the
    /// platform's session cap.
    pub fn effective_workers(&self, max_concurrent_sessions: usize) -> usize {
        let requested = self
            .workers
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4));
        requested.clamp(1, max_concurrent_sessions.max(1))
    }
}

/// How a worker (or inline shed) executes a session.
pub(crate) enum ExecMode {
    /// Run the full greedy search. Carries the measured admission-queue
    /// wait so the session can report it in its span breakdown.
    Run {
        /// Enqueue → worker dequeue.
        queue_wait: Duration,
    },
    /// Skip the search: answer with a zero-round reply carrying this
    /// stop reason (queued-cancel, queued-deadline-expiry, admission
    /// shed).
    Immediate(StopReason),
}

/// One admitted session, queued until a worker picks it up.
pub(crate) struct SessionJob {
    /// Fair-queueing key (empty string when the request carried none).
    pub(crate) requester: Arc<str>,
    /// The session's run control (shared with the requester's handle).
    pub(crate) control: SearchControl,
    /// Holds the platform's active-session slot until the job finishes.
    pub(crate) guard: SessionGuard,
    /// Where the final reply goes.
    pub(crate) result_tx: mpsc::SyncSender<Result<SearchReply>>,
    /// When the platform built this job (queue-wait measurement anchor).
    pub(crate) enqueued: Instant,
    /// The session body, built by the platform at submit time over a
    /// frozen corpus snapshot.
    pub(crate) exec: Box<dyn FnOnce(ExecMode) -> Result<SearchReply> + Send>,
}

/// Per-requester FIFO queues drained round-robin. Invariant: a requester
/// key is in `ring` exactly once iff its queue is non-empty.
struct QueueState {
    queues: HashMap<Arc<str>, VecDeque<SessionJob>>,
    ring: VecDeque<Arc<str>>,
    queued: usize,
    /// Controls of sessions currently executing, by worker slot — what
    /// shutdown cancels.
    running_controls: Vec<Option<SearchControl>>,
    shutdown: bool,
}

impl QueueState {
    fn enqueue(&mut self, job: SessionJob) {
        let key = Arc::clone(&job.requester);
        let queue = self.queues.entry(Arc::clone(&key)).or_default();
        if queue.is_empty() {
            self.ring.push_back(key);
        }
        queue.push_back(job);
        self.queued += 1;
    }

    fn pop_next(&mut self) -> Option<SessionJob> {
        let key = self.ring.pop_front()?;
        let queue = self.queues.get_mut(&key).expect("ring key has a queue");
        let job = queue.pop_front().expect("ring key queue is non-empty");
        if queue.is_empty() {
            self.queues.remove(&key);
        } else {
            self.ring.push_back(key);
        }
        self.queued -= 1;
        Some(job)
    }

    fn drain_all(&mut self) -> Vec<SessionJob> {
        let mut out = Vec::with_capacity(self.queued);
        while let Some(job) = self.pop_next() {
            out.push(job);
        }
        out
    }
}

#[derive(Default)]
struct Counters {
    admitted: AtomicU64,
    completed: AtomicU64,
    shed_overload: AtomicU64,
    shed_deadline: AtomicU64,
    shed_shutdown: AtomicU64,
    panicked: AtomicU64,
    queue_high_water: AtomicUsize,
}

struct Inner {
    workers: usize,
    queue_depth: usize,
    faults: Option<Arc<FaultPlan>>,
    state: Mutex<QueueState>,
    cv: Condvar,
    running: AtomicUsize,
    /// EWMA of executed-session wall time in nanoseconds (0 = no sample
    /// yet). Feeds the deadline-shed wait estimate and the retry hint.
    avg_run_ns: AtomicU64,
    counters: Counters,
    stops: Mutex<StopCounts>,
    /// Admission-queue wait of every job a worker dequeued.
    queue_wait: Histogram,
    /// Worker execution time of jobs that actually ran.
    run_time: Histogram,
}

impl Inner {
    /// Poison-tolerant lock: a worker can only panic *outside* the lock
    /// (sessions run under `catch_unwind`), but the termination invariant
    /// must not hinge on that.
    fn lock_state(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Estimated wait for a session admitted now; `None` until the first
    /// session completes (no EWMA sample — admission never sheds on a
    /// guess it cannot back).
    fn estimated_wait(&self) -> Option<Duration> {
        let avg = self.avg_run_ns.load(Ordering::Relaxed);
        if avg == 0 {
            return None;
        }
        let queued = self.lock_state().queued;
        let idle = self.workers.saturating_sub(self.running.load(Ordering::Relaxed));
        if queued == 0 && idle > 0 {
            return Some(Duration::ZERO);
        }
        let drain_rounds = (queued as u64) / (self.workers as u64) + 1;
        Some(Duration::from_nanos(avg.saturating_mul(drain_rounds)))
    }

    /// How soon a retry is likely to find a free queue slot: one session
    /// drains roughly every `avg / workers`.
    fn retry_after_ms(&self) -> u64 {
        let avg = self.avg_run_ns.load(Ordering::Relaxed);
        if avg == 0 {
            return DEFAULT_RETRY_HINT_MS;
        }
        let per_slot_ms = avg / (self.workers as u64) / 1_000_000;
        per_slot_ms.clamp(MIN_RETRY_HINT_MS, MAX_RETRY_HINT_MS)
    }

    fn note_run(&self, elapsed: Duration) {
        let ns = (elapsed.as_nanos().min(u64::MAX as u128) as u64).max(1);
        let old = self.avg_run_ns.load(Ordering::Relaxed);
        let new = if old == 0 { ns } else { (3 * old + ns) / 4 };
        self.avg_run_ns.store(new.max(1), Ordering::Relaxed);
    }
}

/// The bounded worker pool + admission queue. One per platform.
pub(crate) struct SessionScheduler {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

impl fmt::Debug for SessionScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionScheduler")
            .field("workers", &self.inner.workers)
            .field("queue_depth", &self.inner.queue_depth)
            .finish()
    }
}

impl SessionScheduler {
    pub(crate) fn new(workers: usize, queue_depth: usize, faults: Option<Arc<FaultPlan>>) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            workers,
            queue_depth: queue_depth.max(1),
            faults,
            state: Mutex::new(QueueState {
                queues: HashMap::new(),
                ring: VecDeque::new(),
                queued: 0,
                running_controls: vec![None; workers],
                shutdown: false,
            }),
            cv: Condvar::new(),
            running: AtomicUsize::new(0),
            avg_run_ns: AtomicU64::new(0),
            counters: Counters::default(),
            stops: Mutex::new(StopCounts::default()),
            queue_wait: Histogram::new(),
            run_time: Histogram::new(),
        });
        let handles = (0..workers)
            .map(|slot| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("mileena-session-{slot}"))
                    .spawn(move || worker_loop(inner, slot))
                    .expect("spawn session worker")
            })
            .collect();
        SessionScheduler { inner, handles }
    }

    /// Admit a session: enqueue it for a worker, shed it inline with a
    /// `StopReason::Shed` reply when its deadline is hopeless, or refuse
    /// it with a typed error when the queue is full / the platform is
    /// shutting down. On `Err` the job is dropped here, which releases
    /// its session slot and closes its reply channel.
    pub(crate) fn admit(&self, job: SessionJob) -> Result<()> {
        let inner = &self.inner;
        if let Some(deadline) = job.control.deadline() {
            let now = Instant::now();
            let hopeless = now >= deadline
                || inner.estimated_wait().is_some_and(|wait| now + wait >= deadline);
            if hopeless {
                inner.counters.admitted.fetch_add(1, Ordering::Relaxed);
                inner.counters.shed_deadline.fetch_add(1, Ordering::Relaxed);
                finish_job(inner, job, ExecMode::Immediate(StopReason::Shed), None);
                return Ok(());
            }
        }
        let mut state = inner.lock_state();
        if state.shutdown {
            return Err(CoreError::Shutdown);
        }
        if state.queued >= inner.queue_depth {
            drop(state);
            inner.counters.shed_overload.fetch_add(1, Ordering::Relaxed);
            return Err(CoreError::Overloaded {
                queue_depth: inner.queue_depth,
                retry_after_ms: inner.retry_after_ms(),
            });
        }
        state.enqueue(job);
        let depth_now = state.queued;
        drop(state);
        inner.counters.admitted.fetch_add(1, Ordering::Relaxed);
        inner.counters.queue_high_water.fetch_max(depth_now, Ordering::Relaxed);
        inner.cv.notify_one();
        Ok(())
    }

    /// Sessions currently waiting in the admission queue.
    pub(crate) fn queued(&self) -> usize {
        self.inner.lock_state().queued
    }

    /// Counters for `stats()`.
    pub(crate) fn report(&self) -> SchedulerReport {
        let inner = &self.inner;
        let queued = inner.lock_state().queued;
        SchedulerReport {
            workers: inner.workers,
            queued,
            queue_depth_limit: inner.queue_depth,
            queue_high_water: inner.counters.queue_high_water.load(Ordering::Relaxed),
            admitted: inner.counters.admitted.load(Ordering::Relaxed),
            completed: inner.counters.completed.load(Ordering::Relaxed),
            shed_overload: inner.counters.shed_overload.load(Ordering::Relaxed),
            shed_deadline: inner.counters.shed_deadline.load(Ordering::Relaxed),
            shed_shutdown: inner.counters.shed_shutdown.load(Ordering::Relaxed),
            panicked: inner.counters.panicked.load(Ordering::Relaxed),
            stops: *inner.stops.lock().unwrap_or_else(|e| e.into_inner()),
            queue_wait: inner.queue_wait.summary(),
            run_time: inner.run_time.summary(),
        }
    }

    /// The live queue-wait and run-time histograms (for the platform's
    /// metrics dump, which wants full bucket reports, not summaries).
    pub(crate) fn histograms(&self) -> (&Histogram, &Histogram) {
        (&self.inner.queue_wait, &self.inner.run_time)
    }
}

impl Drop for SessionScheduler {
    /// Graceful drain: no admitted session is left without an answer.
    fn drop(&mut self) {
        let (drained, running) = {
            let mut state = self.inner.lock_state();
            state.shutdown = true;
            let drained = state.drain_all();
            let running: Vec<SearchControl> =
                state.running_controls.iter().flatten().cloned().collect();
            (drained, running)
        };
        // In-flight sessions stop at their next round boundary and reply
        // normally (StopReason::Cancelled).
        for control in &running {
            control.cancel();
        }
        self.inner.cv.notify_all();
        // Queued sessions never run: typed Shutdown error, slot released.
        for job in drained {
            self.inner.counters.shed_shutdown.fetch_add(1, Ordering::Relaxed);
            let SessionJob { guard, result_tx, .. } = job;
            drop(guard);
            let _ = result_tx.send(Err(CoreError::Shutdown));
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: Arc<Inner>, slot: usize) {
    loop {
        let job = {
            let mut state = inner.lock_state();
            loop {
                if let Some(job) = state.pop_next() {
                    // Register as running under the same lock that
                    // dequeues, so shutdown observes the session as
                    // queued or running — never neither.
                    state.running_controls[slot] = Some(job.control.clone());
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state = inner.cv.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { return };
        inner.running.fetch_add(1, Ordering::SeqCst);

        let queue_wait = job.enqueued.elapsed();
        inner.queue_wait.record_duration(queue_wait);

        // Dequeue preflight: sessions cancelled or expired while queued
        // never run a round.
        let mode = if job.control.is_cancelled() {
            ExecMode::Immediate(StopReason::Cancelled)
        } else if job.control.deadline_exceeded() {
            inner.counters.shed_deadline.fetch_add(1, Ordering::Relaxed);
            ExecMode::Immediate(StopReason::Shed)
        } else {
            ExecMode::Run { queue_wait }
        };
        let executed = matches!(mode, ExecMode::Run { .. });
        let inject = match (&mode, &inner.faults) {
            (ExecMode::Run { .. }, Some(plan)) => plan.decide(FaultSite::Worker),
            _ => None,
        };
        let start = Instant::now();
        finish_job(&inner, job, mode, inject);
        if executed {
            let elapsed = start.elapsed();
            inner.note_run(elapsed);
            inner.run_time.record_duration(elapsed);
        }

        inner.running.fetch_sub(1, Ordering::SeqCst);
        inner.lock_state().running_controls[slot] = None;
    }
}

/// Execute one session under panic isolation and deliver its reply.
/// Ordering contract (shared with the pre-scheduler implementation): the
/// event stream closes, then the session slot frees, *then* the reply
/// becomes visible — a caller that `wait()`s and immediately resubmits
/// must find its slot free.
fn finish_job(inner: &Inner, job: SessionJob, mode: ExecMode, inject: Option<FaultKind>) {
    let SessionJob { guard, result_tx, exec, control, .. } = job;
    let outcome = catch_unwind(AssertUnwindSafe(move || {
        match inject {
            Some(FaultKind::Panic) => panic!("injected worker panic (chaos)"),
            Some(FaultKind::Error) => {
                return Err(CoreError::Service("injected worker fault (chaos)".into()));
            }
            // A stalled worker still hears a cancel: the session stops
            // waiting and answers at its first round boundary.
            Some(FaultKind::Latency(delay)) => control.pause(delay),
            None => {}
        }
        exec(mode)
    }));
    let reply = match outcome {
        Ok(reply) => reply,
        Err(panic) => {
            inner.counters.panicked.fetch_add(1, Ordering::Relaxed);
            Err(CoreError::Service(format!(
                "search worker panicked: {}",
                panic_message(panic.as_ref())
            )))
        }
    };
    if let Ok(reply) = &reply {
        inner.counters.completed.fetch_add(1, Ordering::Relaxed);
        inner.stops.lock().unwrap_or_else(|e| e.into_inner()).record(reply.stop_reason);
    }
    drop(guard);
    let _ = result_tx.send(reply);
}

fn panic_message(panic: &(dyn Any + Send)) -> &str {
    panic
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn dummy_job(
        requester: &str,
        active: &Arc<AtomicUsize>,
        exec: Box<dyn FnOnce(ExecMode) -> Result<SearchReply> + Send>,
    ) -> (SessionJob, mpsc::Receiver<Result<SearchReply>>) {
        active.fetch_add(1, Ordering::SeqCst);
        let (result_tx, result_rx) = mpsc::sync_channel(1);
        let job = SessionJob {
            requester: Arc::from(requester),
            control: SearchControl::new(),
            guard: SessionGuard(Arc::clone(active)),
            result_tx,
            enqueued: Instant::now(),
            exec,
        };
        (job, result_rx)
    }

    fn failing_exec() -> Box<dyn FnOnce(ExecMode) -> Result<SearchReply> + Send> {
        Box::new(|_| Err(CoreError::Service("dummy session".into())))
    }

    #[test]
    fn fair_queue_drains_round_robin_across_requesters() {
        let active = Arc::new(AtomicUsize::new(0));
        let mut state = QueueState {
            queues: HashMap::new(),
            ring: VecDeque::new(),
            queued: 0,
            running_controls: Vec::new(),
            shutdown: false,
        };
        // A hog enqueues 3 before b and c get one each.
        for requester in ["hog", "hog", "hog", "b", "c"] {
            let (job, _rx) = dummy_job(requester, &active, failing_exec());
            state.enqueue(job);
        }
        let order: Vec<String> =
            std::iter::from_fn(|| state.pop_next()).map(|job| job.requester.to_string()).collect();
        assert_eq!(order, ["hog", "b", "c", "hog", "hog"]);
        assert_eq!(state.queued, 0);
        assert!(state.queues.is_empty() && state.ring.is_empty());
    }

    #[test]
    fn overload_shed_is_typed_and_releases_the_slot() {
        let active = Arc::new(AtomicUsize::new(0));
        let sched = SessionScheduler::new(1, 1, None);
        // Occupy the single worker with a job that blocks until released.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (blocker, blocker_rx) = dummy_job(
            "a",
            &active,
            Box::new(move |_| {
                let _ = gate_rx.recv();
                Err(CoreError::Service("blocker done".into()))
            }),
        );
        sched.admit(blocker).unwrap();
        // Wait until the worker has actually dequeued it.
        while sched.queued() > 0 {
            std::thread::yield_now();
        }
        // Fill the queue, then overflow it.
        let (queued_job, queued_rx) = dummy_job("a", &active, failing_exec());
        sched.admit(queued_job).unwrap();
        let (overflow, overflow_rx) = dummy_job("a", &active, failing_exec());
        let err = sched.admit(overflow).unwrap_err();
        assert!(
            matches!(err, CoreError::Overloaded { queue_depth: 1, .. }),
            "want Overloaded, got {err}"
        );
        // The shed job's slot was released and its channel closed.
        assert!(overflow_rx.recv().is_err(), "shed job must not get a reply");
        assert_eq!(active.load(Ordering::SeqCst), 2, "shed job's slot released");

        gate_tx.send(()).unwrap();
        assert!(blocker_rx.recv().unwrap().is_err());
        assert!(queued_rx.recv().unwrap().is_err());
        drop(sched);
        assert_eq!(active.load(Ordering::SeqCst), 0, "all slots released");
    }

    #[test]
    fn shutdown_answers_queued_jobs_with_typed_error() {
        let active = Arc::new(AtomicUsize::new(0));
        let sched = SessionScheduler::new(1, 8, None);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (blocker, blocker_rx) = dummy_job(
            "a",
            &active,
            Box::new(move |_| {
                let _ = gate_rx.recv();
                Err(CoreError::Service("blocker done".into()))
            }),
        );
        sched.admit(blocker).unwrap();
        while sched.queued() > 0 {
            std::thread::yield_now();
        }
        let mut queued_rxs = Vec::new();
        for _ in 0..3 {
            let (job, rx) = dummy_job("b", &active, failing_exec());
            sched.admit(job).unwrap();
            queued_rxs.push(rx);
        }
        // Unblock the worker right as shutdown begins, then drop.
        gate_tx.send(()).unwrap();
        let report_before = sched.report();
        assert_eq!(report_before.admitted, 4);
        drop(sched);
        for rx in queued_rxs {
            match rx.recv() {
                Ok(Err(CoreError::Shutdown)) => {}
                // The worker may have legitimately dequeued one more job
                // between the gate release and the drain.
                Ok(Err(CoreError::Service(_))) => {}
                other => panic!("queued job must get Shutdown or run: {other:?}"),
            }
        }
        assert!(blocker_rx.recv().unwrap().is_err());
        assert_eq!(active.load(Ordering::SeqCst), 0, "every slot released on shutdown");
    }

    #[test]
    fn worker_panic_yields_typed_error_and_worker_survives() {
        let active = Arc::new(AtomicUsize::new(0));
        let sched = SessionScheduler::new(1, 8, None);
        let (job, rx) = dummy_job("a", &active, Box::new(|_| panic!("search exploded")));
        sched.admit(job).unwrap();
        let reply = rx.recv().unwrap();
        match reply {
            Err(CoreError::Service(msg)) => {
                assert!(msg.contains("panicked"), "{msg}");
                assert!(msg.contains("search exploded"), "{msg}");
            }
            other => panic!("want typed panic error, got {other:?}"),
        }
        // The same worker serves the next session.
        let (job, rx) = dummy_job("a", &active, failing_exec());
        sched.admit(job).unwrap();
        assert!(rx.recv().unwrap().is_err());
        let report = sched.report();
        assert_eq!(report.panicked, 1);
        assert_eq!(report.admitted, 2);
        drop(sched);
        assert_eq!(active.load(Ordering::SeqCst), 0);
    }
}
