//! The daemon proper: session registry, worker pool, and run lifecycle.
//!
//! A submission is validated and placed up front (the same builder as
//! in-process runs — invalid scenarios are rejected at the door, not at
//! run time), keyed for the plan cache, and queued together with its
//! assignment. Worker threads pull jobs off the queue, resolve the plan
//! through [`PlanCache`] (lowering a miss from the job's assignment, at
//! most once per key), attach the session's faults and compute costs to
//! a view of the cached plan (`ExecPlan::share`), execute through
//! `EngineKind::run` under a [`RunControl`], validate against the cached
//! reference trace, persist a [`RunRecord`], and stream [`Event`]s to
//! subscribers. The cached plan is only read and no cache lock is held
//! while a run executes or is validated, so a paused run blocks neither
//! its key nor anyone else.
//!
//! Session lifecycle: `Queued → Running ⇄ Paused → Done | Failed |
//! Cancelled` (a session paused while queued starts `Paused`). Pause and
//! cancel are cooperative — the engine observes the control only at
//! checkpoint boundaries, so a paused run holds all simulation state
//! intact and a resumed run is bit-identical to an uninterrupted one.
//! Nothing is persisted from a cancelled run, and it has nothing to
//! restore.

use crate::cache::{CacheStats, PlanCache};
use crate::store::{MemStore, RunRecord, RunStore};
use overlap_core::{Error, ScenarioSpec};
use overlap_sim::engine::{RunError, RunOutcome};
use overlap_sim::trace::TraceConfig;
use overlap_sim::validate::validate_run;
use overlap_sim::{Assignment, RunControl};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Emit a `Progress` event every this many control checkpoints (the
/// progress *counter* still updates at every checkpoint; this only
/// throttles the event stream).
const PROGRESS_EVERY: u64 = 16;

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
        let mut st = self.state.lock().unwrap();
        st.events.push(event);
        self.cv.notify_all();
    }

    fn finish(&self, status: Status, event: Event) {
        let mut st = self.state.lock().unwrap();
        st.status = status;
        st.events.push(event);
        self.cv.notify_all();
    }
}

struct Session {
    id: u64,
    spec: ScenarioSpec,
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

/// A queued session with what admission computed for it: the plan-cache
/// key and the placed assignment. The worker takes both, so a finished
/// session keeps neither.
struct Job {
    session: u64,
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

struct Inner {
    cache: PlanCache,
    store: Box<dyn RunStore>,
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
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
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            cache: PlanCache::new(),
            store: config.store,
            sessions: Mutex::new(HashMap::new()),
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
    /// same typed error the in-process builder would produce (invalid
    /// engine config, unsupported feature × engine combination, …).
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
            spec,
            hash,
            control: Arc::new(control),
            shared,
        });
        self.inner.sessions.lock().unwrap().insert(id, session);
        self.inner.queue.lock().unwrap().push_back(Job {
            session: id,
            key,
            assignment,
        });
        self.inner.queue_cv.notify_one();
        Ok(id)
    }

    fn session(&self, id: u64) -> Option<Arc<Session>> {
        self.inner.sessions.lock().unwrap().get(&id).cloned()
    }

    /// Current view of a session, `None` for unknown ids.
    pub fn status(&self, id: u64) -> Option<SessionView> {
        let s = self.session(id)?;
        let st = s.shared.state.lock().unwrap();
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
        let Some(s) = self.session(id) else {
            return false;
        };
        let mut st = s.shared.state.lock().unwrap();
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
        let Some(s) = self.session(id) else {
            return false;
        };
        let mut st = s.shared.state.lock().unwrap();
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
        let Some(s) = self.session(id) else {
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
        let s = self.session(id)?;
        let mut st = s.shared.state.lock().unwrap();
        if st.events.len() <= since && !st.status.is_terminal() && !wait.is_zero() {
            let (guard, _timeout) =
                s.cv.wait_timeout_while(st, wait, |st| {
                    st.events.len() <= since && !st.status.is_terminal()
                })
                .unwrap();
            st = guard;
        }
        Some(st.events.get(since..).unwrap_or_default().to_vec())
    }

    /// Block until the session reaches a terminal state (up to `wait`).
    /// Returns the final status, or the current one on timeout.
    pub fn wait(&self, id: u64, wait: Duration) -> Option<Status> {
        let s = self.session(id)?;
        let st = s.shared.state.lock().unwrap();
        let (st, _timeout) =
            s.cv.wait_timeout_while(st, wait, |st| !st.status.is_terminal())
                .unwrap();
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
        for s in self.inner.sessions.lock().unwrap().values() {
            s.control.cancel();
        }
        self.inner.queue_cv.notify_all();
        for h in self.workers.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut q = inner.queue.lock().unwrap();
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = inner.queue_cv.wait(q).unwrap();
            }
        };
        let Some(session) = inner.sessions.lock().unwrap().get(&job.session).cloned() else {
            continue;
        };
        if session.control.is_cancelled() {
            session.finish(Status::Cancelled, Event::Cancelled { at: 0 });
            continue;
        }
        run_session(inner, &session, job);
    }
}

/// Execute one session end-to-end: plan resolution, engine dispatch on a
/// view of the cached plan, validation, persistence, event emission.
fn run_session(inner: &Inner, session: &Arc<Session>, job: Job) {
    {
        // Decided under the state lock that pause and resume take: a
        // session paused while queued holds at its first checkpoint, so
        // it reports Paused until resumed.
        let mut st = session
            .state
            .lock()
            .expect("a session state lock is poisoned");
        st.status = if session.control.is_paused() {
            Status::Paused
        } else {
            Status::Running
        };
        session.cv.notify_all();
    }
    let spec = &session.spec;
    let result: Result<(RunOutcome, u64, bool), Error> = inner
        .cache
        .get(&job.key, spec, job.assignment)
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
            let trace = spec.trace.then(TraceConfig::default);
            let outcome = spec.engine.run(&plan, Some(&*session.control), trace)?;
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
                engine: spec.engine.label().into(),
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
