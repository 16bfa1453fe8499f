//! A parallel, deadline-aware query harness.
//!
//! The paper's evaluation (Figure 17) sweeps dozens of bounded
//! model-finding queries whose runtimes span three orders of magnitude;
//! running them sequentially with no wall-clock control means one
//! pathological query stalls the whole sweep. This module fans a list of
//! [`Query`] jobs across a `std::thread` worker pool, enforces a
//! per-query timeout, and emits one [`QueryRecord`] per query — in JSON
//! Lines form via [`QueryRecord::to_json`] when machine-readable output
//! is wanted.
//!
//! Timeout enforcement is two-layered:
//!
//! 1. **Cooperative**: each job receives a [`QueryCtx`] carrying a
//!    [`CancelToken`] and the per-query time budget. Jobs that discharge
//!    to the SAT solver thread these straight into
//!    [`crate::Options::with_cancel`] / [`crate::Options::with_deadline`]
//!    and stop promptly, yielding a verdict of `Unknown`.
//! 2. **Supervised**: a dispatcher fires the token once a job passes its
//!    deadline, and if the job still has not returned after a grace
//!    period (a job that never polls the token, e.g. a pure enumeration),
//!    the worker is *abandoned*: a timeout record is emitted, a
//!    replacement worker is spawned, and the stuck thread is left to die
//!    with the process. The sweep therefore always completes — a timeout
//!    degrades to `Unknown`, never to a hang.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use satsolver::CancelToken;

/// Context handed to a running query: its cancellation token and time
/// budget, for threading into whatever engine the job drives.
#[derive(Debug, Clone)]
pub struct QueryCtx {
    /// Fired by the dispatcher when the query passes its deadline.
    pub cancel: CancelToken,
    /// The per-query wall-clock budget, if one is configured.
    pub timeout: Option<Duration>,
    /// This query's private observability registry. Enabled when
    /// [`HarnessOptions::obs`] is enabled (or tracing is on, so a
    /// timeout autopsy has counters to snapshot); whatever the job
    /// records here is merged into that parent registry when the query
    /// finishes (the per-query contents survive on
    /// [`QueryRecord::obs`]).
    pub obs: obs::Registry,
    /// The run's event tracer — thread the clone into
    /// [`crate::Options::with_tracer`] / [`crate::Session::set_tracer`]
    /// so the query's phases land on this worker's flight-recorder ring.
    pub trace: obs::trace::Tracer,
}

/// What a query reports back when it completes on its own.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// Verdict label (`"Sat"`, `"Unsat"`, `"Unknown"`, `"Ok"`, …).
    pub verdict: String,
    /// CNF variables, when the query ran the SAT pipeline (else 0).
    pub sat_vars: u64,
    /// CNF clauses, when the query ran the SAT pipeline (else 0).
    pub sat_clauses: u64,
    /// SAT conflicts spent (else 0).
    pub conflicts: u64,
    /// How the query was answered, when the caller distinguishes
    /// encoding modes (`"symbolic"` for the relational SAT encoding,
    /// `"enumeration"` for exhaustive execution enumeration). `None`
    /// for queries without a meaningful mode.
    pub path: Option<String>,
    /// Free-form extra information carried into the record.
    pub detail: Option<String>,
}

/// A named unit of work for the harness.
pub struct Query {
    /// Display/record name of the query.
    pub name: String,
    run: Box<dyn FnOnce(&QueryCtx) -> QueryOutput + Send + 'static>,
}

impl Query {
    /// Creates a query running `f`.
    pub fn new(
        name: impl Into<String>,
        f: impl FnOnce(&QueryCtx) -> QueryOutput + Send + 'static,
    ) -> Query {
        Query {
            name: name.into(),
            run: Box::new(f),
        }
    }
}

impl std::fmt::Debug for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Query").field("name", &self.name).finish()
    }
}

/// The per-query result row.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Query name.
    pub name: String,
    /// Verdict label; `"Unknown"` for a timed-out or panicked query.
    pub verdict: String,
    /// Whether the query exceeded its deadline.
    pub timed_out: bool,
    /// CNF variables (0 when not applicable).
    pub sat_vars: u64,
    /// CNF clauses (0 when not applicable).
    pub sat_clauses: u64,
    /// SAT conflicts spent (0 when not applicable).
    pub conflicts: u64,
    /// Wall-clock time the query ran (or ran until abandonment).
    pub wall: Duration,
    /// Encoding mode (`"symbolic"` / `"enumeration"`), when reported.
    pub path: Option<String>,
    /// Free-form extra information.
    pub detail: Option<String>,
    /// The query's observability registry (disabled/empty unless
    /// [`HarnessOptions::obs`] was enabled). Holds only this query's
    /// counters; the harness has already merged them into the parent.
    pub obs: obs::Registry,
    /// The query's postmortem — the last flight-recorder events and a
    /// counter snapshot, captured at completion. `Some` exactly when the
    /// query timed out or was cancelled.
    pub autopsy: Option<obs::trace::Autopsy>,
}

impl QueryRecord {
    /// This record as one JSON Lines object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"test\":");
        json_string(&mut s, &self.name);
        s.push_str(",\"verdict\":");
        json_string(&mut s, &self.verdict);
        s.push_str(&format!(
            ",\"timed_out\":{},\"vars\":{},\"clauses\":{},\"conflicts\":{},\"wall_secs\":{:.6}",
            self.timed_out,
            self.sat_vars,
            self.sat_clauses,
            self.conflicts,
            self.wall.as_secs_f64()
        ));
        if let Some(p) = &self.path {
            s.push_str(",\"path\":");
            json_string(&mut s, p);
        }
        if let Some(d) = &self.detail {
            s.push_str(",\"detail\":");
            json_string(&mut s, d);
        }
        if let Some(a) = &self.autopsy {
            s.push_str(",\"autopsy\":");
            s.push_str(&a.to_json());
        }
        s.push('}');
        s
    }
}

/// Appends `value` to `out` as a JSON string literal with escaping.
///
/// Delegates to [`obs::json::escape_into`], the workspace's one JSON
/// string encoder (round-trip tested against [`obs::json::unescape`]).
pub fn json_string(out: &mut String, value: &str) {
    obs::json::escape_into(out, value);
}

/// A keyed checkout/checkin pool of reusable per-worker state —
/// typically one [`crate::Session`] per (model, bound) key and worker.
///
/// Harness jobs run on up to `jobs` workers, so at most `jobs` values
/// exist per key: each job checks a value out, uses it exclusively, and
/// checks it back in for the next job with the same key. A job that
/// panics or is abandoned by the dispatcher simply never returns its
/// value, which is exactly right — an interrupted solver is mid-search
/// and must not be handed to another query.
#[derive(Debug, Default)]
pub struct SessionPool<K, S> {
    idle: Mutex<HashMap<K, Vec<S>>>,
    created: Mutex<u64>,
    reused: Mutex<u64>,
}

impl<K: std::hash::Hash + Eq, S> SessionPool<K, S> {
    /// Creates an empty pool.
    pub fn new() -> SessionPool<K, S> {
        SessionPool {
            idle: Mutex::new(HashMap::new()),
            created: Mutex::new(0),
            reused: Mutex::new(0),
        }
    }

    /// Takes an idle value for `key`, or builds one with `make`.
    ///
    /// `make` runs outside the pool lock, so concurrent checkouts of the
    /// same key may build several values — bounded by the number of
    /// workers, which is the intended "one session per worker" shape.
    pub fn checkout(&self, key: &K, make: impl FnOnce() -> S) -> S {
        let existing = self.idle.lock().unwrap().get_mut(key).and_then(Vec::pop);
        match existing {
            Some(s) => {
                *self.reused.lock().unwrap() += 1;
                s
            }
            None => {
                *self.created.lock().unwrap() += 1;
                make()
            }
        }
    }

    /// Returns a value to the pool for later checkouts of `key`.
    pub fn checkin(&self, key: K, value: S) {
        self.idle
            .lock()
            .unwrap()
            .entry(key)
            .or_default()
            .push(value);
    }

    /// (values built, checkouts served by reuse) so far.
    pub fn stats(&self) -> (u64, u64) {
        (*self.created.lock().unwrap(), *self.reused.lock().unwrap())
    }

    /// Idle values currently parked in the pool, across all keys — a
    /// liveness gauge for long-running services: a cancelled or crashed
    /// query that failed to check its session back in shows up as a
    /// permanently lower idle count.
    pub fn idle_count(&self) -> usize {
        self.idle.lock().unwrap().values().map(Vec::len).sum()
    }
}

/// Worker-pool configuration.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Worker threads. 1 (with no timeout) runs inline on the caller.
    pub jobs: usize,
    /// Per-query wall-clock budget; `None` disables timeouts.
    pub timeout: Option<Duration>,
    /// How long after firing a query's cancel token the dispatcher waits
    /// before abandoning the worker running it.
    pub grace: Duration,
    /// Parent observability registry. Disabled (the default) costs
    /// nothing; when enabled, every query gets a fresh child registry
    /// in its [`QueryCtx`] whose contents are merged here as the query
    /// finishes. Merge order follows completion order, so run totals
    /// are deterministic for single-job runs.
    pub obs: obs::Registry,
    /// The run's event tracer. Defaults to the always-on flight
    /// recorder ([`obs::trace::Tracer::flight_recorder`]): bounded
    /// per-worker rings whose tail becomes the timeout autopsy. Swap in
    /// [`obs::trace::Tracer::for_export`] for a full `--trace-out`
    /// timeline, or [`obs::trace::Tracer::disabled`] to turn tracing
    /// off entirely.
    pub trace: obs::trace::Tracer,
}

impl Default for HarnessOptions {
    fn default() -> HarnessOptions {
        HarnessOptions {
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            timeout: None,
            grace: Duration::from_secs(2),
            obs: obs::Registry::disabled(),
            trace: obs::trace::Tracer::flight_recorder(),
        }
    }
}

impl HarnessOptions {
    /// The options a command line asks for: `--jobs` (default 1),
    /// `--timeout-secs`, a recording registry under `--stats` or
    /// `--stats-json`, and the export tracer under `--trace-out`.
    pub fn for_run(run: &obs::cli::RunFlags) -> HarnessOptions {
        HarnessOptions {
            jobs: run.jobs.unwrap_or(1),
            timeout: run.timeout(),
            obs: run.registry(),
            trace: run.tracer(),
            ..HarnessOptions::default()
        }
    }
}

/// Runs every query, invoking `on_record` as each finishes (completion
/// order), and returns the records in input order.
///
/// With `jobs <= 1` and no timeout the queries run inline on the calling
/// thread; otherwise a worker pool is used. Verdicts are identical
/// either way for queries that finish within budget — scheduling affects
/// only wall-clock numbers.
pub fn run_queries(
    queries: Vec<Query>,
    options: &HarnessOptions,
    mut on_record: impl FnMut(&QueryRecord),
) -> Vec<QueryRecord> {
    if options.jobs <= 1 && options.timeout.is_none() {
        return queries
            .into_iter()
            .map(|q| {
                let rec = run_one(q, options.timeout, &options.obs, &options.trace);
                on_record(&rec);
                rec
            })
            .collect();
    }

    let total = queries.len();
    let names: Vec<String> = queries.iter().map(|q| q.name.clone()).collect();
    let queue: Arc<Mutex<VecDeque<(usize, Query)>>> =
        Arc::new(Mutex::new(queries.into_iter().enumerate().collect()));
    // Queries currently executing: index -> (start time, token).
    let inflight: Arc<Mutex<HashMap<usize, (Instant, CancelToken)>>> =
        Arc::new(Mutex::new(HashMap::new()));
    let (tx, rx) = mpsc::channel::<(usize, QueryRecord)>();

    let worker_counter = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let spawn_worker = {
        let queue = Arc::clone(&queue);
        let inflight = Arc::clone(&inflight);
        let timeout = options.timeout;
        let parent_obs = options.obs.clone();
        let trace = options.trace.clone();
        let worker_counter = Arc::clone(&worker_counter);
        move |tx: mpsc::Sender<(usize, QueryRecord)>| {
            let queue = Arc::clone(&queue);
            let inflight = Arc::clone(&inflight);
            let parent_obs = parent_obs.clone();
            let trace = trace.clone();
            let worker = worker_counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            std::thread::spawn(move || {
                trace.set_thread_label(&format!("worker-{worker}"));
                loop {
                    let Some((idx, query)) = queue.lock().unwrap().pop_front() else {
                        return;
                    };
                    let token = CancelToken::new();
                    let start = Instant::now();
                    inflight.lock().unwrap().insert(idx, (start, token.clone()));
                    let rec = execute(query, token.clone(), timeout, start, &parent_obs, &trace);
                    let still_ours = inflight.lock().unwrap().remove(&idx).is_some();
                    if !still_ours {
                        // The dispatcher abandoned this query (and spawned a
                        // replacement worker): drop the late result and exit
                        // rather than oversubscribe the pool.
                        return;
                    }
                    if tx.send((idx, rec)).is_err() {
                        return;
                    }
                }
            });
        }
    };

    for _ in 0..options.jobs.max(1).min(total.max(1)) {
        spawn_worker(tx.clone());
    }

    // Every query fills its slot exactly once: a worker send for a
    // completed query, or an abandonment record minted here. The
    // dispatcher holds `tx` for replacement workers, so the channel never
    // disconnects while we wait.
    let mut slots: Vec<Option<QueryRecord>> = (0..total).map(|_| None).collect();
    let mut filled = 0usize;
    while filled < total {
        if let Ok((idx, rec)) = rx.recv_timeout(Duration::from_millis(50)) {
            if slots[idx].is_none() {
                on_record(&rec);
                slots[idx] = Some(rec);
                filled += 1;
            }
        }
        let Some(timeout) = options.timeout else {
            continue;
        };
        let now = Instant::now();
        let abandoned: Vec<(usize, Instant)> = {
            let mut table = inflight.lock().unwrap();
            let mut overdue = Vec::new();
            for (&idx, (start, token)) in table.iter() {
                if now >= *start + timeout {
                    token.cancel();
                    if now >= *start + timeout + options.grace {
                        overdue.push((idx, *start));
                    }
                }
            }
            for (idx, _) in &overdue {
                table.remove(idx);
            }
            overdue
        };
        for (idx, start) in abandoned {
            // The worker ignored its token past the grace period: record
            // the timeout, replace the worker, leave the thread behind.
            if slots[idx].is_none() {
                let obs = options.obs.child();
                obs.add("harness.queries", 1);
                obs.add("harness.timeouts", 1);
                options.obs.merge_from(&obs);
                // The stuck worker can't snapshot its own ring, so read
                // the merged tail from here — the seqlock read path skips
                // any slot the worker is mid-write on.
                let autopsy =
                    obs::trace::Autopsy::capture(options.trace.tail(AUTOPSY_EVENTS), &obs);
                let rec = QueryRecord {
                    name: names[idx].clone(),
                    verdict: "Unknown".to_string(),
                    timed_out: true,
                    sat_vars: 0,
                    sat_clauses: 0,
                    conflicts: 0,
                    wall: now - start,
                    path: None,
                    detail: Some("abandoned: deadline and grace period expired".to_string()),
                    obs,
                    autopsy: Some(autopsy),
                };
                on_record(&rec);
                slots[idx] = Some(rec);
                filled += 1;
            }
            spawn_worker(tx.clone());
        }
    }

    slots
        .into_iter()
        .map(|slot| slot.expect("every query fills its slot"))
        .collect()
}

/// Flight-recorder events attached to a timeout autopsy: the last K
/// events of the thread that ran the query.
const AUTOPSY_EVENTS: usize = 64;

/// Runs one query inline (the sequential path).
fn run_one(
    query: Query,
    timeout: Option<Duration>,
    parent_obs: &obs::Registry,
    trace: &obs::trace::Tracer,
) -> QueryRecord {
    let token = CancelToken::new();
    execute(query, token, timeout, Instant::now(), parent_obs, trace)
}

/// Executes a query body, converting panics into `Unknown` records, and
/// merges the query's registry into the parent.
fn execute(
    query: Query,
    token: CancelToken,
    timeout: Option<Duration>,
    start: Instant,
    parent_obs: &obs::Registry,
    trace: &obs::trace::Tracer,
) -> QueryRecord {
    let ctx = QueryCtx {
        cancel: token.clone(),
        timeout,
        // Tracing implies an enabled per-query registry so a timeout
        // autopsy has counters to snapshot; merging it into a disabled
        // parent is a no-op, so flagless output is unaffected.
        obs: if parent_obs.enabled() || trace.enabled() {
            obs::Registry::new()
        } else {
            obs::Registry::disabled()
        },
        trace: trace.clone(),
    };
    let name = query.name.clone();
    let query_span = trace.span(&format!("query:{name}"));
    let outcome = catch_unwind(AssertUnwindSafe(|| (query.run)(&ctx)));
    drop(query_span);
    let wall = start.elapsed();
    // The solver may observe its own deadline and return just before the
    // supervisor cancels the token — count that as a timeout too.
    let timed_out = token.is_cancelled() || timeout.is_some_and(|t| wall >= t);
    ctx.obs.add("harness.queries", 1);
    if timed_out {
        ctx.obs.add("harness.timeouts", 1);
    }
    if outcome.is_err() {
        ctx.obs.add("harness.panics", 1);
    }
    ctx.obs.record_duration("time.query_wall", wall);
    parent_obs.merge_from(&ctx.obs);
    let autopsy = timed_out
        .then(|| obs::trace::Autopsy::capture(trace.tail_current_thread(AUTOPSY_EVENTS), &ctx.obs));
    match outcome {
        Ok(out) => QueryRecord {
            name,
            verdict: out.verdict,
            timed_out,
            sat_vars: out.sat_vars,
            sat_clauses: out.sat_clauses,
            conflicts: out.conflicts,
            wall,
            path: out.path,
            detail: out.detail,
            obs: ctx.obs,
            autopsy,
        },
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "query panicked".to_string());
            QueryRecord {
                name,
                verdict: "Unknown".to_string(),
                timed_out,
                sat_vars: 0,
                sat_clauses: 0,
                conflicts: 0,
                wall,
                path: None,
                detail: Some(format!("panic: {msg}")),
                obs: ctx.obs,
                autopsy,
            }
        }
    }
}
