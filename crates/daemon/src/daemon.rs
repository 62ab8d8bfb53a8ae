//! The daemon proper: session registry, worker pool, and run lifecycle.
//!
//! A submission is validated and placed up front (the same builder as
//! in-process runs — invalid scenarios are rejected at the door, not at
//! run time), keyed for the plan cache, and queued together with its
//! scenario and assignment. Worker threads pull jobs off the queue,
//! resolve the plan through [`PlanCache`] (lowering a miss from the job's
//! assignment, once per key while it stays cached), attach the job's
//! faults and compute costs to a view of the cached plan
//! (`ExecPlan::share`), execute on the event engine under a
//! [`RunControl`], validate against the cached reference trace, persist a
//! [`RunRecord`], and stream [`Event`]s to subscribers. The cached plan is
//! only read and no cache lock is held while a run executes or is
//! validated, so a paused run blocks neither its key nor anyone else. A
//! run that panics fails its session and leaves its worker serving.
//!
//! Session lifecycle: `Queued → Running ⇄ Paused → Done | Failed |
//! Cancelled` (a session paused while queued starts `Paused`). Pause and
//! cancel are cooperative — the engine observes the control only at
//! checkpoint boundaries, so a paused run holds all simulation state
//! intact and a resumed run is bit-identical to an uninterrupted one.
//! Nothing is persisted from a cancelled run, and it has nothing to
//! restore.
//!
//! Retention: the registry keeps every queued, running and paused
//! session, and the newest [`MAX_FINISHED_SESSIONS`] terminal ones. An
//! older session's id is unknown again (HTTP 404); its runs stay in the
//! [`RunStore`].

use crate::cache::{CacheStats, PlanCache};
use crate::lock;
use crate::store::{MemStore, RunRecord, RunStore};
use overlap_core::{Error, ScenarioSpec};
use overlap_sim::engine::{Engine, RunError, RunOutcome};
use overlap_sim::validate::validate_run;
use overlap_sim::{Assignment, RunControl};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Emit a `Progress` event every this many control checkpoints (the
/// progress *counter* still updates at every checkpoint; this only
/// throttles the event stream).
const PROGRESS_EVERY: u64 = 16;

/// Terminal sessions the registry keeps; older ones are forgotten (their
/// runs stay in the store).
pub const MAX_FINISHED_SESSIONS: usize = 1024;

/// A session's observable lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Status {
    /// Accepted, waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Paused at a checkpoint; all simulation state held intact.
    Paused,
    /// Completed; a [`RunRecord`] was persisted.
    Done,
    /// The run errored; see the `Failed` event for the message.
    Failed,
    /// Cancelled before completion; nothing was persisted.
    Cancelled,
}

impl Status {
    /// Terminal states never change again.
    pub fn is_terminal(self) -> bool {
        matches!(self, Status::Done | Status::Failed | Status::Cancelled)
    }
}

/// One entry of a session's event stream, in order of occurrence.
///
/// `Done` carries the full persisted record and dominates the enum's
/// size; events live briefly in per-session logs, so the variance is
/// cheaper than boxing every terminal event.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// The session was accepted and queued.
    Queued,
    /// A worker began executing; `cache_hit` tells whether the plan came
    /// out of the cache or was lowered for this session.
    Started {
        /// Plan-cache verdict for this session.
        cache_hit: bool,
    },
    /// Periodic progress (dispatch units completed so far).
    Progress {
        /// Dispatch units completed.
        done: u64,
    },
    /// The run reached a checkpoint while a pause was requested.
    Paused,
    /// The run resumed.
    Resumed,
    /// Stall-attribution totals (traced runs only), streamed before
    /// `Done` so subscribers see where the ticks went.
    Stalls {
        /// Category totals over all copies.
        totals: overlap_sim::trace::StallBreakdown,
    },
    /// The run completed; the record has been persisted.
    Done {
        /// The persisted record.
        record: RunRecord,
    },
    /// The run errored.
    Failed {
        /// Human-readable error.
        error: String,
    },
    /// The run was cancelled after `at` dispatch units.
    Cancelled {
        /// Dispatch units completed when the cancel was observed.
        at: u64,
    },
}

/// Point-in-time view of a session, as returned by `GET /v1/sessions/:id`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionView {
    /// Session id.
    pub id: u64,
    /// Lifecycle state.
    pub status: Status,
    /// Dispatch units completed, as last published by the engine.
    pub progress: u64,
    /// FNV-1a hash of the session's plan-cache key.
    pub plan_hash: u64,
    /// Events recorded so far (poll `events_since` to read them).
    pub events: u64,
}

struct SessionState {
    status: Status,
    events: Vec<Event>,
}

/// The part of a session shared with the control's progress sink (the
/// sink closure is fixed at [`RunControl`] construction, so it captures
/// this `Arc` rather than the session that owns the control).
struct Shared {
    state: Mutex<SessionState>,
    cv: Condvar,
}

impl Shared {
    fn push(&self, event: Event) {
        let mut st = lock(&self.state);
        st.events.push(event);
        self.cv.notify_all();
    }

    /// Enter terminal `status` with its `event`, unless the session is
    /// terminal already (a terminal state never changes again).
    fn finish(&self, status: Status, event: Event) {
        let mut st = lock(&self.state);
        if st.status.is_terminal() {
            return;
        }
        st.status = status;
        st.events.push(event);
        self.cv.notify_all();
    }
}

struct Session {
    id: u64,
    hash: u64,
    control: Arc<RunControl>,
    shared: Arc<Shared>,
}

impl std::ops::Deref for Session {
    type Target = Shared;

    fn deref(&self) -> &Shared {
        &self.shared
    }
}

/// A queued session with its scenario and what admission computed for
/// it: the plan-cache key and the placed assignment. The worker takes all
/// three, so a finished session keeps none of them.
struct Job {
    session: u64,
    spec: ScenarioSpec,
    key: String,
    assignment: Assignment,
}

/// Daemon construction options.
pub struct DaemonConfig {
    /// Worker threads executing simulations (≥ 1).
    pub workers: usize,
    /// Where completed runs are persisted.
    pub store: Box<dyn RunStore>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            store: Box::new(MemStore::new()),
        }
    }
}

/// Every session the daemon still answers for: all live ones, and the
/// newest terminal ones, whose ids `finished` lists oldest first.
#[derive(Default)]
struct Registry {
    sessions: HashMap<u64, Arc<Session>>,
    finished: VecDeque<u64>,
}

struct Inner {
    cache: PlanCache,
    store: Box<dyn RunStore>,
    registry: Mutex<Registry>,
    /// How many terminal sessions the registry keeps.
    keep_finished: usize,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    next_session: AtomicU64,
    next_run: AtomicU64,
    shutdown: AtomicBool,
}

/// The simulation service. Cheap to share (`Arc<Daemon>`); all methods
/// take `&self`.
pub struct Daemon {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Daemon {
    /// Start a daemon with `config.workers` worker threads.
    pub fn start(config: DaemonConfig) -> Self {
        Self::start_with(config, PlanCache::new(), MAX_FINISHED_SESSIONS)
    }

    /// [`start`](Self::start) with the given plan cache, keeping
    /// `keep_finished` terminal sessions (tests shrink both bounds).
    pub(crate) fn start_with(config: DaemonConfig, cache: PlanCache, keep_finished: usize) -> Self {
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            cache,
            store: config.store,
            registry: Mutex::default(),
            keep_finished,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            next_session: AtomicU64::new(1),
            next_run: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("overlap-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Self {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// Validate and enqueue a scenario. Returns the session id, or the
    /// same typed error the in-process builder would produce (a
    /// disconnected host, a strategy the guest does not take, …).
    pub fn submit(&self, spec: ScenarioSpec) -> Result<u64, Error> {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(Error::Config("daemon is shutting down".into()));
        }
        // Admission: placement + full validation matrix. The key is the
        // canonical lowering input; the hash is its display form. A cache
        // miss lowers from this assignment instead of placing again.
        let assignment = spec.ready()?.assignment().clone();
        let key = overlap_sim::scenario_key(&spec.guest, &spec.host, &assignment, spec.config);
        let hash = overlap_sim::fnv1a(key.as_bytes());
        let id = self.inner.next_session.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::new(Shared {
            state: Mutex::new(SessionState {
                status: Status::Queued,
                events: vec![Event::Queued],
            }),
            cv: Condvar::new(),
        });
        // Every engine checkpoint lands here; every PROGRESS_EVERY-th one
        // becomes a streamed Progress event.
        let sink_shared = Arc::clone(&shared);
        let checkpoints = AtomicU64::new(0);
        let control = RunControl::with_progress_sink(move |done| {
            if checkpoints
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(PROGRESS_EVERY)
            {
                sink_shared.push(Event::Progress { done });
            }
        });
        let session = Arc::new(Session {
            id,
            hash,
            control: Arc::new(control),
            shared,
        });
        lock(&self.inner.registry).sessions.insert(id, session);
        lock(&self.inner.queue).push_back(Job {
            session: id,
            spec,
            key,
            assignment,
        });
        self.inner.queue_cv.notify_one();
        Ok(id)
    }

    /// Current view of a session, `None` for unknown ids and for terminal
    /// sessions older than the newest [`MAX_FINISHED_SESSIONS`].
    pub fn status(&self, id: u64) -> Option<SessionView> {
        let s = self.inner.session(id)?;
        let st = lock(&s.shared.state);
        Some(SessionView {
            id,
            status: st.status,
            progress: s.control.progress(),
            plan_hash: s.hash,
            events: st.events.len() as u64,
        })
    }

    /// Request a pause; the run holds at its next checkpoint. Returns
    /// false for unknown ids; no-op on terminal sessions.
    pub fn pause(&self, id: u64) -> bool {
        let Some(s) = self.inner.session(id) else {
            return false;
        };
        let mut st = lock(&s.shared.state);
        if !st.status.is_terminal() && !s.control.is_paused() {
            s.control.pause();
            st.events.push(Event::Paused);
            if st.status == Status::Running {
                st.status = Status::Paused;
            }
            s.cv.notify_all();
        }
        true
    }

    /// Resume a paused session. Returns false for unknown ids.
    pub fn resume(&self, id: u64) -> bool {
        let Some(s) = self.inner.session(id) else {
            return false;
        };
        let mut st = lock(&s.shared.state);
        if !st.status.is_terminal() && s.control.is_paused() {
            s.control.resume();
            st.events.push(Event::Resumed);
            if st.status == Status::Paused {
                st.status = Status::Running;
            }
            s.cv.notify_all();
        }
        true
    }

    /// Cancel a queued or running session (wakes it first if paused).
    /// Returns false for unknown ids; no-op on terminal sessions.
    pub fn cancel(&self, id: u64) -> bool {
        let Some(s) = self.inner.session(id) else {
            return false;
        };
        s.control.cancel();
        true
    }

    /// Events `since..` of a session, blocking up to `wait` for at least
    /// one new event (long-poll). Returns `None` for unknown ids; an
    /// empty vec on timeout or when the session is terminal with no
    /// further events.
    pub fn events_since(&self, id: u64, since: usize, wait: Duration) -> Option<Vec<Event>> {
        let s = self.inner.session(id)?;
        let mut st = lock(&s.shared.state);
        if st.events.len() <= since && !st.status.is_terminal() && !wait.is_zero() {
            let (guard, _timeout) =
                s.cv.wait_timeout_while(st, wait, |st| {
                    st.events.len() <= since && !st.status.is_terminal()
                })
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
        Some(st.events.get(since..).unwrap_or_default().to_vec())
    }

    /// Block until the session reaches a terminal state (up to `wait`).
    /// Returns the final status, or the current one on timeout.
    pub fn wait(&self, id: u64, wait: Duration) -> Option<Status> {
        let s = self.inner.session(id)?;
        let st = lock(&s.shared.state);
        let (st, _timeout) =
            s.cv.wait_timeout_while(st, wait, |st| !st.status.is_terminal())
                .unwrap_or_else(PoisonError::into_inner);
        Some(st.status)
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// Persisted runs, oldest first, optionally filtered to one plan
    /// hash (runs of the same lowered scenario across engines and
    /// daemon restarts).
    pub fn runs(&self, plan_hash: Option<u64>) -> std::io::Result<Vec<RunRecord>> {
        let mut all = self.inner.store.load_all()?;
        if let Some(h) = plan_hash {
            all.retain(|r| r.plan_hash == h);
        }
        Ok(all)
    }

    /// Has [`shutdown`](Self::shutdown) been called (e.g. via
    /// `POST /v1/shutdown`)?
    pub fn is_shut_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Stop accepting work, cancel in-flight sessions, and join the
    /// workers. Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for s in lock(&self.inner.registry).sessions.values() {
            s.control.cancel();
        }
        self.inner.queue_cv.notify_all();
        for h in lock(&self.workers).drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    fn session(&self, id: u64) -> Option<Arc<Session>> {
        lock(&self.registry).sessions.get(&id).cloned()
    }

    /// Record that session `id` reached a terminal state, forgetting the
    /// oldest terminal sessions beyond `keep_finished`.
    fn retire(&self, id: u64) {
        let mut reg = lock(&self.registry);
        reg.finished.push_back(id);
        while reg.finished.len() > self.keep_finished {
            if let Some(old) = reg.finished.pop_front() {
                reg.sessions.remove(&old);
            }
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut q = lock(&inner.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = inner
                    .queue_cv
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(session) = inner.session(job.session) else {
            continue;
        };
        if session.control.is_cancelled() {
            session.finish(Status::Cancelled, Event::Cancelled { at: 0 });
        } else if let Err(panic) =
            panic::catch_unwind(AssertUnwindSafe(|| run_session(inner, &session, job)))
        {
            // The worker survives; the session fails with the message.
            let msg = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            session.finish(
                Status::Failed,
                Event::Failed {
                    error: format!("run panicked: {msg}"),
                },
            );
        }
        inner.retire(session.id);
        inner.cache.free_evicted();
    }
}

/// Execute one session end-to-end: plan resolution, engine dispatch on a
/// view of the cached plan, validation, persistence, event emission.
fn run_session(inner: &Inner, session: &Arc<Session>, job: Job) {
    {
        // Decided under the state lock that pause and resume take: a
        // session paused while queued holds at its first checkpoint, so
        // it reports Paused until resumed.
        let mut st = lock(&session.state);
        st.status = if session.control.is_paused() {
            Status::Paused
        } else {
            Status::Running
        };
        session.cv.notify_all();
    }
    let Job {
        spec,
        key,
        assignment,
        ..
    } = job;
    let result: Result<(RunOutcome, u64, bool), Error> = inner
        .cache
        .get(&key, &spec, assignment)
        .and_then(|(entry, hit)| {
            session.push(Event::Started { cache_hit: hit });
            // The cached plan is only read: the session's variant rides
            // on a view of it.
            let mut plan = entry.plan.share();
            if let Some(faults) = &spec.faults {
                plan = plan.with_faults(faults.clone())?;
            }
            if let Some(costs) = &spec.compute_costs {
                plan = plan.with_compute_costs(costs.clone());
            }
            #[cfg(test)]
            crate::failpoint::hit("run", session.hash);
            let engine = Engine::from_plan(&plan).with_control(&session.control);
            let outcome = if spec.trace {
                engine.run_traced()
            } else {
                engine.run()
            }?;
            let errors = validate_run(&entry.reference, &outcome);
            Ok((outcome, errors.len() as u64, hit))
        });
    match result {
        Ok((outcome, mismatches, cache_hit)) => {
            let record = RunRecord {
                run_id: inner.next_run.fetch_add(1, Ordering::SeqCst),
                session: session.id,
                plan_hash: session.hash,
                cache_hit,
                engine: "event".into(),
                strategy: spec.strategy.label(),
                host: spec.host.name().to_string(),
                stats: outcome.stats,
                validated: mismatches == 0,
                mismatches,
                stalls: outcome.trace.as_ref().map(|t| t.totals),
            };
            if let Some(t) = &outcome.trace {
                session.push(Event::Stalls { totals: t.totals });
            }
            match inner.store.append(&record) {
                Ok(()) => session.finish(Status::Done, Event::Done { record }),
                Err(e) => session.finish(
                    Status::Failed,
                    Event::Failed {
                        error: format!("run completed but persisting failed: {e}"),
                    },
                ),
            }
        }
        Err(Error::Run(RunError::Cancelled { at })) => {
            session.finish(Status::Cancelled, Event::Cancelled { at });
        }
        Err(e) => {
            session.finish(
                Status::Failed,
                Event::Failed {
                    error: e.to_string(),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint;
    use overlap_core::Strategy;
    use overlap_model::{GuestSpec, ProgramKind};
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;
    use std::time::Instant;

    const WAIT: Duration = Duration::from_secs(60);

    /// A 16-cell line guest of `steps` steps on an 8-processor line; the
    /// guest `seed` keeps each test's keys its own.
    fn spec(steps: u32, seed: u64) -> ScenarioSpec {
        let mut s = ScenarioSpec::new(
            GuestSpec::array(16, ProgramKind::KvWorkload, seed, steps),
            linear_array(8, DelayModel::uniform(1, 6), 7),
        );
        s.strategy = Strategy::Overlap { c: 4.0 };
        s
    }

    fn plan_hash(spec: &ScenarioSpec) -> u64 {
        overlap_sim::fnv1a(spec.plan_key().unwrap().as_bytes())
    }

    fn daemon(cache: PlanCache, keep_finished: usize) -> Daemon {
        let config = DaemonConfig {
            workers: 2,
            store: Box::new(MemStore::new()),
        };
        Daemon::start_with(config, cache, keep_finished)
    }

    /// Submit `spec` and wait for it to end: its final status and events.
    fn run(daemon: &Daemon, spec: &ScenarioSpec) -> (Status, Vec<Event>) {
        let id = daemon.submit(spec.clone()).unwrap();
        let status = daemon.wait(id, WAIT).unwrap();
        (status, daemon.events_since(id, 0, Duration::ZERO).unwrap())
    }

    fn failure(events: &[Event]) -> &str {
        events
            .iter()
            .find_map(|e| match e {
                Event::Failed { error } => Some(error.as_str()),
                _ => None,
            })
            .expect("a Failed event")
    }

    fn record(events: &[Event]) -> &RunRecord {
        events
            .iter()
            .find_map(|e| match e {
                Event::Done { record } => Some(record),
                _ => None,
            })
            .expect("a Done event")
    }

    /// Wait for `cond` to hold, failing after [`WAIT`].
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + WAIT;
        while !cond() {
            assert!(Instant::now() < deadline, "never: {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Submit a long run paused, and wait until a worker holds it at a
    /// checkpoint.
    fn held(daemon: &Daemon, seed: u64) -> u64 {
        let id = daemon.submit(spec(4000, seed)).unwrap();
        assert!(daemon.pause(id));
        eventually("a paused run reaches a checkpoint", || {
            daemon.status(id).unwrap().progress > 0
        });
        assert_eq!(daemon.status(id).unwrap().status, Status::Paused);
        id
    }

    /// A panic while lowering and a panic while running each fail their
    /// session with the panic's message and cost no worker: the key then
    /// lowers cleanly, and both workers still serve at once.
    #[test]
    fn panics_fail_their_session_and_keep_the_pool() {
        let daemon = daemon(PlanCache::new(), MAX_FINISHED_SESSIONS);
        let spec = spec(32, 901);
        failpoint::arm("lower", plan_hash(&spec));
        let (status, events) = run(&daemon, &spec);
        assert_eq!(status, Status::Failed);
        assert!(failure(&events).contains("failpoint lower"), "{events:?}");

        failpoint::arm("run", plan_hash(&spec));
        let (status, events) = run(&daemon, &spec);
        assert_eq!(status, Status::Failed);
        assert!(events.contains(&Event::Started { cache_hit: false }));
        assert!(failure(&events).contains("failpoint run"), "{events:?}");

        let (status, events) = run(&daemon, &spec);
        assert_eq!(status, Status::Done);
        assert!(record(&events).validated && record(&events).cache_hit);
        let c = daemon.cache_stats();
        assert_eq!((c.hits, c.misses, c.entries), (1, 2, 1));

        assert!(
            lock(&daemon.workers).iter().all(|w| !w.is_finished()),
            "a worker exited"
        );
        // Two runs held at a checkpoint at once: both workers are alive.
        let both = [held(&daemon, 902), held(&daemon, 903)];
        for id in both {
            assert!(daemon.resume(id));
            assert_eq!(daemon.wait(id, WAIT), Some(Status::Done));
        }
        daemon.shutdown();
    }

    /// An entry evicted while a session runs on it still serves that run,
    /// and its key's next submission is a miss that lowers to the same
    /// result.
    #[test]
    fn an_entry_evicted_under_a_run_still_serves_it() {
        // A 1-byte budget caches only the newest entry.
        let daemon = daemon(PlanCache::with_budget(1), MAX_FINISHED_SESSIONS);
        let id = held(&daemon, 911);
        let (status, _) = run(&daemon, &spec(32, 912));
        assert_eq!(status, Status::Done);
        let c = daemon.cache_stats();
        assert_eq!((c.misses, c.entries, c.evictions), (2, 1, 1));

        assert!(daemon.resume(id));
        assert_eq!(daemon.wait(id, WAIT), Some(Status::Done));
        let events = daemon.events_since(id, 0, Duration::ZERO).unwrap();
        let first = record(&events);
        assert!(first.validated && !first.cache_hit);

        let (status, events) = run(&daemon, &spec(4000, 911));
        assert_eq!(status, Status::Done);
        let again = record(&events);
        assert!(again.validated && !again.cache_hit, "an evicted key misses");
        assert_eq!(again.stats, first.stats);
        let c = daemon.cache_stats();
        assert_eq!((c.hits, c.misses, c.entries, c.evictions), (0, 3, 1, 2));
        daemon.shutdown();
    }

    /// The registry keeps the newest terminal sessions only; older ids are
    /// unknown, a paused session is never dropped, and the store keeps
    /// every run.
    #[test]
    fn only_the_newest_finished_sessions_are_kept() {
        let daemon = daemon(PlanCache::new(), 2);
        let paused = held(&daemon, 921);
        let done: Vec<u64> = (0..4)
            .map(|_| {
                let id = daemon.submit(spec(32, 922)).unwrap();
                assert_eq!(daemon.wait(id, WAIT), Some(Status::Done));
                id
            })
            .collect();
        eventually("the oldest two are dropped", || {
            done[..2].iter().all(|&id| daemon.status(id).is_none())
        });
        for &id in &done[..2] {
            assert!(daemon.events_since(id, 0, Duration::ZERO).is_none());
            assert!(!daemon.pause(id));
        }
        for &id in &done[2..] {
            assert_eq!(daemon.status(id).unwrap().status, Status::Done);
        }
        assert_eq!(daemon.status(paused).unwrap().status, Status::Paused);
        assert_eq!(daemon.runs(None).unwrap().len(), 4);

        // Once cancelled, the held session is the newest terminal one.
        assert!(daemon.cancel(paused));
        assert_eq!(daemon.wait(paused, WAIT), Some(Status::Cancelled));
        eventually("the next oldest is dropped", || {
            daemon.status(done[2]).is_none()
        });
        assert!(daemon.status(done[3]).is_some());
        assert!(daemon.status(paused).is_some());
        daemon.shutdown();
    }
}
