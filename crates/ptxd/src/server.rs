//! The `ptxd` server: connection handling, workers, and the query path.
//!
//! One accept loop hands each TCP connection to a reader thread; reader
//! threads decode requests and submit jobs through the
//! [`crate::sched::Scheduler`]; a fixed pool of worker threads answers
//! them. Replies go back through a per-connection locked writer, so
//! workers can answer out of order while each reply line stays intact.
//!
//! The query path per `run` job: deadline check → content-addressed
//! cache lookup ([`crate::cache`]) → compute (warm [`SatSession`] from
//! the [`SessionPool`], or the enumeration oracle) → cache insert →
//! reply. After answering a SAT job, the worker scans queue fronts for
//! another job with the same universe signature and answers it on the
//! still-warm session before checking it back in (batching).
//!
//! Cancellation: every submitted job carries a [`CancelToken`]; when a
//! client disconnects, its reader fires the tokens of everything it
//! submitted (aborting in-flight solves at the next solver checkpoint)
//! and purges its queued jobs.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use litmus::sat::{self, SatSession};
use litmus::{canon, Expectation, Model, PtxLitmus, SatLitmusResult, Signature};
use modelfinder::{CancelToken, Options, SessionPool};
use obs::trace::{Autopsy, Tracer};
use obs::Registry;

use crate::access::{self, AccessLog};
use crate::cache::{self, CacheKey, Entry, Lookup, VerdictCache};
use crate::proto::{self, Mode, ParsedTest, Request, RunReply};
use crate::sched::{Scheduler, Shed};

/// Flight-recorder events attached to a timeout autopsy.
const AUTOPSY_EVENTS: usize = 64;

/// `watch` interval clamp: ticks faster than this would make the
/// telemetry sampler itself a load source.
const MIN_WATCH_INTERVAL_MS: u64 = 20;
/// `watch` interval clamp, upper bound.
const MAX_WATCH_INTERVAL_MS: u64 = 60_000;
/// Longest request line accepted, newline included. A longer line gets
/// a `proto` error and the connection is closed, so a client that never
/// sends a newline cannot grow server memory without limit.
const MAX_LINE: u64 = 1 << 20;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads answering queries.
    pub jobs: usize,
    /// Global queued-job bound; beyond it, requests are shed.
    pub queue_bound: usize,
    /// Per-connection queued-job cap (fairness).
    pub fair_cap: usize,
    /// Verdict-cache capacity, entries.
    pub cache_cap: usize,
    /// Open SAT sessions with proof logging, and fingerprint each
    /// query's DRAT delta into its cache entry. Off by default: the
    /// proof log is append-only, which is unbounded memory in a
    /// long-lived daemon.
    pub certify: bool,
    /// Accept the debug `sleep` op (tests use it to occupy workers
    /// deterministically).
    pub debug_ops: bool,
    /// Append one JSONL access-log record per `run` request to this
    /// path (see [`crate::access`]). `None` keeps the in-memory ring
    /// only.
    pub access_log: Option<String>,
    /// In-memory access-log ring capacity, records (0 disables the
    /// ring and the `log` op returns nothing).
    pub log_ring: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            addr: "127.0.0.1:0".to_string(),
            jobs: 2,
            queue_bound: 256,
            fair_cap: 64,
            cache_cap: 4096,
            certify: false,
            debug_ops: false,
            access_log: None,
            log_ring: 256,
        }
    }
}

const RUNNING: u8 = 0;
const DRAINING: u8 = 1;

/// One job's payload.
enum Payload {
    Run {
        test: ParsedTest,
        mode: Mode,
        /// Consistency model (PTX tests; C++ tests ignore it).
        model: Model,
        /// (Model, universe signature), for PTX SAT jobs — the batching
        /// key. Sessions are warm per model *and* signature: the two
        /// models translate to different axiom clauses, so they must
        /// never share learnt state.
        sig: Option<(Model, Signature)>,
    },
    Sleep {
        ms: u64,
    },
}

/// One admitted unit of work.
struct Job {
    id: Option<u64>,
    payload: Payload,
    cancel: CancelToken,
    deadline: Option<Instant>,
    received: Instant,
    writer: Arc<LineWriter>,
    conn: u64,
    peer: Arc<str>,
}

/// A per-connection reply writer: one lock per line keeps concurrent
/// workers' replies from interleaving.
struct LineWriter {
    stream: Mutex<TcpStream>,
}

impl LineWriter {
    /// Sends one reply line; `false` means the peer is gone. A dead
    /// peer is detected by its reader thread, so most callers drop the
    /// result — `watch` streamers use it to stop ticking.
    fn send(&self, line: &str) -> bool {
        // One write per line (with NODELAY on the stream) so no reply
        // waits out a Nagle/delayed-ACK round.
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        let mut stream = self.stream.lock().unwrap();
        stream.write_all(framed.as_bytes()).is_ok()
    }
}

struct Shared {
    cfg: Config,
    sched: Scheduler<Job>,
    pool: SessionPool<(Model, Signature), SatSession>,
    cache: VerdictCache,
    obs: Registry,
    access: AccessLog,
    trace: Tracer,
    state: AtomicU8,
    conn_ids: AtomicU64,
    local_addr: SocketAddr,
    started: Instant,
}

impl Shared {
    fn trigger_shutdown(&self) {
        if self.state.swap(DRAINING, Ordering::SeqCst) == DRAINING {
            return;
        }
        self.sched.begin_drain();
        // Wake the accept loop so it observes the state change.
        let _ = TcpStream::connect(self.local_addr);
    }

    /// Samples the live gauges into the registry — called at every
    /// `stats` reply, every `watch` tick, and at drain, so gauge
    /// values in a snapshot are at most one sampling event old.
    fn sample_gauges(&self) {
        self.obs
            .set_gauge("ptxd.gauge.queue_depth", self.sched.queued() as u64);
        self.obs
            .set_gauge("ptxd.gauge.inflight", self.sched.inflight() as u64);
        self.obs
            .set_gauge("ptxd.gauge.warm_sessions", self.pool.idle_count() as u64);
        self.obs
            .set_gauge("ptxd.gauge.cache_entries", self.cache.len() as u64);
        self.obs
            .set_gauge("ptxd.gauge.uptime_ms", whole_ms(self.started.elapsed()));
    }

    /// The `stats` payload: gauges sampled now, then a snapshot.
    fn snapshot_sampled(&self) -> obs::Snapshot {
        self.sample_gauges();
        self.obs.snapshot()
    }
}

/// `d` as saturating whole nanoseconds.
fn whole_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// `d` as saturating whole milliseconds.
fn whole_ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// The access-log rendering of a universe signature.
fn sig_string(sig: Signature) -> String {
    format!("e{}t{}l{}", sig.events, sig.threads, sig.locs)
}

/// A handle to a spawned server: its address, a shutdown trigger, and
/// introspection hooks for tests and the bench driver.
pub struct Handle {
    shared: Arc<Shared>,
    thread: Option<thread::JoinHandle<obs::Snapshot>>,
}

impl Handle {
    /// The bound address, `host:port`.
    pub fn addr(&self) -> String {
        self.shared.local_addr.to_string()
    }

    /// Begins graceful shutdown: stop admitting, drain in-flight work.
    /// Idempotent; returns immediately.
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// A detached shutdown trigger (for signal-watcher threads).
    pub fn trigger(&self) -> Trigger {
        Trigger {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Waits for the server to finish draining and returns its final
    /// observability snapshot. Call once; the handle stays usable for
    /// post-mortem introspection (trace export, pool stats).
    pub fn join(&mut self) -> obs::Snapshot {
        self.thread
            .take()
            .expect("join called once")
            .join()
            .expect("server thread panicked")
    }

    /// A live observability snapshot (counters keep moving after this).
    pub fn snapshot(&self) -> obs::Snapshot {
        self.shared.obs.snapshot()
    }

    /// A live snapshot with gauges sampled now — exactly the `stats`
    /// v2 payload.
    pub fn sampled_snapshot(&self) -> obs::Snapshot {
        self.shared.snapshot_sampled()
    }

    /// The newest `n` access-log ring records, oldest first.
    pub fn access_tail(&self, n: usize) -> Vec<String> {
        self.shared.access.tail(n)
    }

    /// Total access-log records recorded since startup.
    pub fn access_written(&self) -> u64 {
        self.shared.access.written()
    }

    /// The flight recorder's current contents as Chrome trace JSON
    /// (for `--trace-out`).
    pub fn trace_chrome_json(&self) -> String {
        self.shared.trace.snapshot().to_chrome_json()
    }

    /// Session-pool `(created, reused)` counters.
    pub fn pool_stats(&self) -> (u64, u64) {
        self.shared.pool.stats()
    }

    /// Warm sessions currently checked in — the session-leak gauge.
    pub fn idle_sessions(&self) -> usize {
        self.shared.pool.idle_count()
    }

    /// Test hook: corrupts the cached entry for `source` (as the given
    /// mode) without resealing its fingerprint, simulating cache rot.
    /// Returns whether an entry was present to corrupt.
    pub fn corrupt_cache_entry(&self, source: &str, mode: &str) -> bool {
        let Ok(test) = proto::parse_source(source) else {
            return false;
        };
        let (tag, canonical) = canonical_of(&test, Model::Axiomatic);
        self.shared
            .cache
            .corrupt_for_test(&cache::key_for(tag, mode, &canonical))
    }
}

/// A cloneable shutdown trigger detached from the [`Handle`].
pub struct Trigger {
    shared: Arc<Shared>,
}

impl Trigger {
    /// Begins graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }
}

/// The server: bind with [`Server::spawn`], which returns a [`Handle`].
pub struct Server;

impl Server {
    /// Binds the configured address and starts the accept loop, workers,
    /// and admission machinery on background threads.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(cfg: Config) -> io::Result<Handle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let obs = Registry::new();
        let shared = Arc::new(Shared {
            sched: Scheduler::new(cfg.queue_bound, cfg.fair_cap)
                .with_queue_hist(obs.histogram("ptxd.queue_wait_ns")),
            pool: SessionPool::new(),
            cache: VerdictCache::new(cfg.cache_cap),
            access: AccessLog::open(cfg.access_log.as_deref(), cfg.log_ring)?,
            obs,
            trace: Tracer::flight_recorder(),
            state: AtomicU8::new(RUNNING),
            conn_ids: AtomicU64::new(0),
            local_addr,
            started: Instant::now(),
            cfg,
        });
        let main = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("ptxd-accept".to_string())
                .spawn(move || run_server(&shared, listener))?
        };
        Ok(Handle {
            shared,
            thread: Some(main),
        })
    }
}

fn run_server(shared: &Arc<Shared>, listener: TcpListener) -> obs::Snapshot {
    let workers: Vec<thread::JoinHandle<()>> = (0..shared.cfg.jobs.max(1))
        .map(|k| {
            let shared = Arc::clone(shared);
            thread::Builder::new()
                .name(format!("ptxd-worker-{k}"))
                .spawn(move || {
                    shared.trace.set_thread_label(&format!("ptxd-worker-{k}"));
                    while let Some(job) = shared.sched.next() {
                        handle_job(&shared, job);
                    }
                })
                .expect("spawn worker")
        })
        .collect();

    for stream in listener.incoming() {
        if shared.state.load(Ordering::SeqCst) == DRAINING {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        shared.obs.add("ptxd.conns", 1);
        let shared = Arc::clone(shared);
        let _ = thread::Builder::new()
            .name("ptxd-conn".to_string())
            .spawn(move || serve_conn(&shared, stream));
    }
    drop(listener);

    // Drain: admission already rejects (state flipped before the wake
    // connection), queued and in-flight work runs to completion.
    shared.sched.begin_drain();
    shared.sched.wait_drained();
    shared.sched.close();
    for w in workers {
        let _ = w.join();
    }
    // Final cache/pool stats, flushed as counters so `--stats-json`
    // carries them.
    let (created, reused) = shared.pool.stats();
    shared.obs.add("ptxd.pool.created", created);
    shared.obs.add("ptxd.pool.reused", reused);
    shared
        .obs
        .add("ptxd.cache.entries", shared.cache.len() as u64);
    shared.sample_gauges();
    shared.obs.snapshot()
}

fn serve_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let conn = shared.conn_ids.fetch_add(1, Ordering::Relaxed);
    let peer: Arc<str> = stream
        .peer_addr()
        .map_or_else(|_| "?".to_string(), |a| a.to_string())
        .into();
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(LineWriter {
        stream: Mutex::new(write_half),
    });
    let mut reader = BufReader::new(stream);
    let mut tokens: Vec<CancelToken> = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        match (&mut reader).take(MAX_LINE + 1).read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(n) if n as u64 > MAX_LINE => {
                shared.obs.add("ptxd.errors", 1);
                writer.send(&proto::error_reply(
                    None,
                    "proto",
                    &format!("request line longer than {MAX_LINE} bytes"),
                ));
                break;
            }
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match proto::parse_request(trimmed) {
            Err((id, e)) => {
                shared.obs.add("ptxd.errors", 1);
                writer.send(&proto::error_reply(id, e.kind, &e.message));
            }
            Ok(Request::Ping { id }) => {
                writer.send(&proto::pong_reply(id));
            }
            Ok(Request::Stats { id }) => {
                writer.send(&proto::stats_v2_reply(id, &shared.snapshot_sampled()));
            }
            Ok(Request::Watch {
                id,
                interval_ms,
                count,
            }) => {
                shared.obs.add("ptxd.watches", 1);
                let shared = Arc::clone(shared);
                let writer = Arc::clone(&writer);
                let _ = thread::Builder::new()
                    .name("ptxd-watch".to_string())
                    .spawn(move || run_watch(&shared, &writer, id, interval_ms, count));
            }
            Ok(Request::Log { id, n }) => {
                let n = n.map_or(usize::MAX, |n| usize::try_from(n).unwrap_or(usize::MAX));
                writer.send(&proto::log_reply(id, &shared.access.tail(n)));
            }
            Ok(Request::Shutdown { id }) => {
                writer.send(&proto::shutdown_reply(id));
                shared.trigger_shutdown();
            }
            Ok(Request::Sleep { id, ms }) => {
                if shared.cfg.debug_ops {
                    submit(
                        shared,
                        &writer,
                        &mut tokens,
                        conn,
                        &peer,
                        id,
                        Payload::Sleep { ms },
                        None,
                    );
                } else {
                    shared.obs.add("ptxd.errors", 1);
                    writer.send(&proto::error_reply(
                        id,
                        "proto",
                        "sleep requires the server's debug_ops",
                    ));
                }
            }
            Ok(Request::Run {
                id,
                source,
                deadline_ms,
                mode,
                model,
            }) => {
                shared.obs.add("ptxd.requests", 1);
                match proto::parse_source(&source) {
                    Err(msg) => {
                        shared.obs.add("ptxd.errors", 1);
                        shared.access.record(&access::Record {
                            ts_ms: whole_ms(shared.started.elapsed()),
                            id,
                            conn,
                            addr: &peer,
                            name: "?",
                            model: model.as_str(),
                            mode: mode.as_str(),
                            sig: None,
                            cache: "none",
                            queue_wait_ns: 0,
                            solve_ns: 0,
                            verdict: "-",
                            disposition: "parse-error",
                        });
                        writer.send(&proto::error_reply(id, "parse", &msg));
                    }
                    Ok(test) => {
                        let sig = match (&test, mode) {
                            (ParsedTest::Ptx(t), Mode::Sat) => {
                                Some((model, sat::signature(&t.program)))
                            }
                            _ => None,
                        };
                        submit(
                            shared,
                            &writer,
                            &mut tokens,
                            conn,
                            &peer,
                            id,
                            Payload::Run {
                                test,
                                mode,
                                model,
                                sig,
                            },
                            deadline_ms,
                        );
                    }
                }
            }
        }
    }
    // Disconnect: abort everything this connection submitted. Queued
    // jobs are dropped here; the in-flight one aborts at the solver's
    // next cancellation checkpoint, and its session returns to the pool.
    for t in &tokens {
        t.cancel();
    }
    let purged = shared.sched.purge_conn(conn);
    if !purged.is_empty() {
        shared.obs.add("ptxd.dropped", purged.len() as u64);
    }
    shared.obs.add("ptxd.conn_closed", 1);
}

#[allow(clippy::too_many_arguments)]
fn submit(
    shared: &Arc<Shared>,
    writer: &Arc<LineWriter>,
    tokens: &mut Vec<CancelToken>,
    conn: u64,
    peer: &Arc<str>,
    id: Option<u64>,
    payload: Payload,
    deadline_ms: Option<u64>,
) {
    // The scheduler consumes (and on rejection drops) the job, so the
    // shed access record's routing fields are captured up front. Sleep
    // is a debug op and is never logged.
    let run_meta = match &payload {
        Payload::Run {
            test, mode, model, ..
        } => Some((
            test.name().to_string(),
            model_tag(test, *model),
            mode.as_str(),
        )),
        Payload::Sleep { .. } => None,
    };
    let cancel = CancelToken::new();
    tokens.push(cancel.clone());
    let now = Instant::now();
    let job = Job {
        id,
        payload,
        cancel,
        deadline: deadline_ms.map(|ms| now + Duration::from_millis(ms)),
        received: now,
        writer: Arc::clone(writer),
        conn,
        peer: Arc::clone(peer),
    };
    match shared.sched.submit(conn, job) {
        Ok(depth) => shared.obs.observe("ptxd.queue_depth", depth as u64),
        Err(shed) => {
            let (kind, counter, msg) = match shed {
                Shed::Queue => ("shed", "ptxd.shed.queue", "queue full"),
                Shed::Fairness => ("shed", "ptxd.shed.fairness", "per-connection cap reached"),
                Shed::Draining => ("draining", "ptxd.shed.draining", "server is draining"),
            };
            if kind == "shed" {
                shared.obs.add("ptxd.shed", 1);
            }
            shared.obs.add(counter, 1);
            if let Some((name, model, mode)) = &run_meta {
                shared.access.record(&access::Record {
                    ts_ms: whole_ms(shared.started.elapsed()),
                    id,
                    conn,
                    addr: peer,
                    name,
                    model,
                    mode,
                    sig: None,
                    cache: "none",
                    queue_wait_ns: 0,
                    solve_ns: 0,
                    verdict: "-",
                    disposition: kind,
                });
            }
            writer.send(&proto::error_reply(id, kind, msg));
        }
    }
}

/// The cache-key model tag without canonicalizing (for records emitted
/// before — or instead of — a cache lookup).
fn model_tag(test: &ParsedTest, model: Model) -> &'static str {
    match test {
        ParsedTest::Ptx(_) => model.as_str(),
        ParsedTest::C11(_) => "c11",
    }
}

/// Streams `watch` ticks to one client: a tick-0 baseline snapshot,
/// then a delta every interval until `count` is reached, the peer goes
/// away, or the server drains (one final delta is sent after the drain
/// flag is observed, then the stream ends).
fn run_watch(
    shared: &Arc<Shared>,
    writer: &Arc<LineWriter>,
    id: Option<u64>,
    interval_ms: u64,
    count: Option<u64>,
) {
    let interval =
        Duration::from_millis(interval_ms.clamp(MIN_WATCH_INTERVAL_MS, MAX_WATCH_INTERVAL_MS));
    let mut prev = shared.snapshot_sampled();
    if !writer.send(&proto::watch_tick_reply(id, 0, &prev)) {
        return;
    }
    let mut tick = 0u64;
    loop {
        if count.is_some_and(|n| tick >= n) {
            return;
        }
        thread::sleep(interval);
        tick += 1;
        let snap = shared.snapshot_sampled();
        let delta = snap.delta(&prev);
        if !writer.send(&proto::watch_tick_reply(id, tick, &delta)) {
            return;
        }
        prev = snap;
        if shared.state.load(Ordering::SeqCst) == DRAINING {
            return;
        }
    }
}

fn handle_job(shared: &Arc<Shared>, job: Job) {
    shared
        .obs
        .record_duration("ptxd.queue_wait", job.received.elapsed());
    match job.payload {
        Payload::Sleep { .. } => {
            run_sleep(shared, &job);
            shared.sched.done();
        }
        Payload::Run { .. } => {
            // Batching chain: answer the job, then keep pulling jobs
            // with the same (model, signature) onto the warm session.
            let mut slot: Option<((Model, Signature), SatSession)> = None;
            let mut current = job;
            loop {
                execute_run(shared, &mut slot, &current);
                shared.sched.done();
                let Some((sig, _)) = &slot else { break };
                let sig = *sig;
                let next = shared.sched.take_matching(
                    |j| matches!(&j.payload, Payload::Run { sig: Some(s), .. } if *s == sig),
                );
                match next {
                    Some(n) => {
                        shared.obs.add("ptxd.batched", 1);
                        shared
                            .obs
                            .record_duration("ptxd.queue_wait", n.received.elapsed());
                        current = n;
                    }
                    None => break,
                }
            }
            if let Some((sig, session)) = slot {
                shared.pool.checkin(sig, session);
            }
        }
    }
}

/// The debug `sleep` op: hold the worker, polling for cancellation and
/// deadline, so tests can stage overload and disconnect scenarios.
fn run_sleep(shared: &Arc<Shared>, job: &Job) {
    let Payload::Sleep { ms } = &job.payload else {
        unreachable!()
    };
    let start = Instant::now();
    // Tests poll this to know a worker is now occupied by the sleep.
    shared.obs.add("ptxd.sleep.started", 1);
    let budget = Duration::from_millis(*ms);
    let mut cancelled = false;
    while start.elapsed() < budget {
        if job.cancel.is_cancelled() || job.deadline.is_some_and(|d| Instant::now() >= d) {
            cancelled = true;
            break;
        }
        thread::sleep(Duration::from_millis(2));
    }
    if cancelled {
        shared.obs.add("ptxd.cancelled", 1);
    }
    shared.obs.add("ptxd.completed", 1);
    job.writer.send(&proto::run_reply(
        job.id,
        &RunReply {
            name: "sleep".to_string(),
            verdict: if cancelled { "Unknown" } else { "Ok" },
            observable: None,
            cached: false,
            timed_out: false,
            wall_secs: start.elapsed().as_secs_f64(),
            path: "debug",
            detail: format!("slept={}ms cancelled={cancelled}", *ms),
            autopsy: None,
        },
    ));
}

/// The cache-key tag and canonical text for a test. The tag carries the
/// consistency-model *variant* for PTX tests (`"ptx"` /
/// `"ptx-cumulative"`), so the same source queried under both models
/// occupies two distinct cache slots — the verdicts legitimately differ
/// on distinguishing tests.
fn canonical_of(test: &ParsedTest, model: Model) -> (&'static str, String) {
    match test {
        ParsedTest::Ptx(t) => (model.as_str(), canon::canonical_ptx_text(t)),
        ParsedTest::C11(t) => ("c11", canon::canonical_c11_text(t)),
    }
}

fn verdict_for(observable: bool, expectation: Expectation) -> &'static str {
    if observable == (expectation == Expectation::Allowed) {
        "Ok"
    } else {
        "FAILED"
    }
}

/// Per-request context shared by every reply path of one `run` job:
/// identity and routing for the access log, plus the verdict counter
/// and solve-latency histogram updates every disposition makes.
struct RunCtx<'a> {
    shared: &'a Arc<Shared>,
    job: &'a Job,
    name: String,
    model_tag: &'static str,
    mode: &'static str,
    sig_str: Option<String>,
    /// Cache outcome, updated after the lookup (`none` before it).
    cache: &'static str,
    start: Instant,
}

impl RunCtx<'_> {
    /// Seals the request's telemetry: one `ptxd.solve_ns` observation,
    /// one per-model verdict counter bump (when a verdict was
    /// produced), and exactly one access-log record.
    fn finish(&self, verdict: &str, disposition: &str) {
        let solve_ns = whole_ns(self.start.elapsed());
        self.shared.obs.observe("ptxd.solve_ns", solve_ns);
        if verdict != "-" {
            self.shared
                .obs
                .add(&format!("ptxd.verdict.{}.{verdict}", self.model_tag), 1);
        }
        self.shared.access.record(&access::Record {
            ts_ms: whole_ms(self.shared.started.elapsed()),
            id: self.job.id,
            conn: self.job.conn,
            addr: &self.job.peer,
            name: &self.name,
            model: self.model_tag,
            mode: self.mode,
            sig: self.sig_str.as_deref(),
            cache: self.cache,
            queue_wait_ns: whole_ns(self.start.saturating_duration_since(self.job.received)),
            solve_ns,
            verdict,
            disposition,
        });
    }
}

fn execute_run(
    shared: &Arc<Shared>,
    slot: &mut Option<((Model, Signature), SatSession)>,
    job: &Job,
) {
    let Payload::Run {
        test,
        mode,
        model,
        sig,
    } = &job.payload
    else {
        unreachable!()
    };
    let start = Instant::now();
    let _span = shared.trace.span("ptxd.request");
    let expectation = match test {
        ParsedTest::Ptx(t) => t.expectation,
        ParsedTest::C11(t) => t.expectation,
    };
    let mut ctx = RunCtx {
        shared,
        job,
        name: test.name().to_string(),
        model_tag: model_tag(test, *model),
        mode: mode.as_str(),
        sig_str: sig.map(|(_, s)| sig_string(s)),
        cache: "none",
        start,
    };
    // Count completion before the write: a client that has its reply in
    // hand must never observe a `stats` snapshot that predates it.
    let reply = |r: &RunReply| {
        shared.obs.add("ptxd.completed", 1);
        job.writer.send(&proto::run_reply(job.id, r));
    };

    if job.cancel.is_cancelled() {
        shared.obs.add("ptxd.cancelled", 1);
        ctx.finish("Unknown", "cancelled");
        reply(&RunReply {
            name: test.name().to_string(),
            verdict: "Unknown",
            wall_secs: start.elapsed().as_secs_f64(),
            path: "none",
            detail: "cancelled before start".to_string(),
            ..RunReply::default()
        });
        return;
    }
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        timeout_reply(&ctx);
        return;
    }

    let (tag, canonical) = canonical_of(test, *model);
    let key = cache::key_for(tag, mode.as_str(), &canonical);
    match shared.cache.lookup(&key) {
        Lookup::Hit(entry) => {
            shared.obs.add("ptxd.cache_hits", 1);
            ctx.cache = "hit";
            let verdict = verdict_for(entry.observable, expectation);
            ctx.finish(verdict, "ok");
            reply(&RunReply {
                name: test.name().to_string(),
                verdict,
                observable: Some(entry.observable),
                cached: true,
                timed_out: false,
                wall_secs: start.elapsed().as_secs_f64(),
                path: entry.path,
                detail: format!(
                    "observable={} expected={:?} cache=hit drat_hash={:016x}",
                    entry.observable, expectation, entry.drat_hash
                ),
                autopsy: None,
            });
            return;
        }
        Lookup::Invalid => {
            shared.obs.add("ptxd.cache_invalid", 1);
            ctx.cache = "invalid";
        }
        Lookup::Miss => {
            shared.obs.add("ptxd.cache_misses", 1);
            ctx.cache = "miss";
        }
    }

    match (test, mode) {
        (ParsedTest::Ptx(t), Mode::Sat) => {
            run_ptx_sat(slot, &ctx, t, sig.expect("sat job has sig"), key);
        }
        (ParsedTest::Ptx(t), Mode::Enum) => {
            let r = litmus::run_ptx_model(t, *model);
            finish_enum(
                &ctx,
                key,
                r.observable,
                expectation,
                &reply,
                format!(
                    "consistent={} candidates={}",
                    r.consistent_executions, r.candidates
                ),
            );
        }
        (ParsedTest::C11(t), _) => {
            let r = litmus::run_rc11(t);
            finish_enum(
                &ctx,
                key,
                r.observable,
                expectation,
                &reply,
                format!(
                    "consistent={} candidates={}",
                    r.consistent_executions, r.candidates
                ),
            );
        }
    }
}

fn finish_enum(
    ctx: &RunCtx<'_>,
    key: CacheKey,
    observable: bool,
    expectation: Expectation,
    reply: &impl Fn(&RunReply),
    stats: String,
) {
    ctx.shared
        .cache
        .insert(key, Entry::new(key, observable, "enumeration", 0, 0, 0, 0));
    let verdict = verdict_for(observable, expectation);
    ctx.finish(verdict, "ok");
    reply(&RunReply {
        name: ctx.name.clone(),
        verdict,
        observable: Some(observable),
        cached: false,
        timed_out: false,
        wall_secs: ctx.start.elapsed().as_secs_f64(),
        path: "enumeration",
        detail: format!("observable={observable} expected={expectation:?} {stats}"),
        autopsy: None,
    });
}

fn run_ptx_sat(
    slot: &mut Option<((Model, Signature), SatSession)>,
    ctx: &RunCtx<'_>,
    test: &PtxLitmus,
    sig: (Model, Signature),
    key: CacheKey,
) {
    let (shared, job, start) = (ctx.shared, ctx.job, ctx.start);
    // Reuse the batching slot when it matches; otherwise return it and
    // check out (or build) a session for this (model, signature).
    if slot.as_ref().is_some_and(|(s, _)| *s != sig) {
        let (old_sig, old) = slot.take().expect("checked above");
        shared.pool.checkin(old_sig, old);
    }
    if slot.is_none() {
        let certify = shared.cfg.certify;
        let session = shared.pool.checkout(&sig, || {
            let options = if certify {
                Options::default().with_proof_logging()
            } else {
                Options::default()
            };
            let session = SatSession::with_options_model(sig.1, sig.0, options)
                .expect("internal encoding error");
            session.stats().open.record_obs(&shared.obs);
            session
        });
        *slot = Some((sig, session));
    }
    let (_, session) = slot.as_mut().expect("slot populated");

    session.set_cancel(Some(job.cancel.clone()));
    session.set_deadline(
        job.deadline
            .map(|d| d.saturating_duration_since(Instant::now())),
    );
    session.set_tracer(shared.trace.clone());
    let proof_before = session.proof().map_or(0, modelfinder::Proof::len);
    let result = session.run(test);
    session.set_cancel(None);
    session.set_deadline(None);

    match result {
        Ok(SatLitmusResult {
            observable: Some(observable),
            report,
            encoding,
            ..
        }) => {
            report.record_obs(&shared.obs);
            shared
                .obs
                .add("sat.symbolic_rf_vars", encoding.symbolic_rf_vars);
            shared.obs.add("sat.value_bits", encoding.value_bits);
            let drat_hash = session
                .proof()
                .map_or(0, |p| p.drat_hash_from(proof_before));
            let entry = Entry::new(
                key,
                observable,
                "symbolic",
                drat_hash,
                report.solver_stats.conflicts,
                report.sat_vars as u64,
                report.sat_clauses as u64,
            );
            shared.cache.insert(key, entry);
            let verdict = verdict_for(observable, test.expectation);
            ctx.finish(verdict, "ok");
            shared.obs.add("ptxd.completed", 1);
            job.writer.send(&proto::run_reply(
                job.id,
                &RunReply {
                    name: test.name.clone(),
                    verdict,
                    observable: Some(observable),
                    cached: false,
                    timed_out: false,
                    wall_secs: start.elapsed().as_secs_f64(),
                    path: "symbolic",
                    detail: format!(
                        "observable={observable} expected={:?} cache_hits={} \
                         t_translate={:.6}s t_solve={:.6}s drat_hash={drat_hash:016x}",
                        test.expectation,
                        report.gate_cache_hits,
                        report.translate_time.as_secs_f64(),
                        report.solve_time.as_secs_f64(),
                    ),
                    autopsy: None,
                },
            ));
        }
        Ok(_) => {
            // Undecided: deadline or disconnect. Never cached.
            if job.cancel.is_cancelled() && job.deadline.is_none_or(|d| Instant::now() < d) {
                shared.obs.add("ptxd.cancelled", 1);
                ctx.finish("Unknown", "cancelled");
                shared.obs.add("ptxd.completed", 1);
                job.writer.send(&proto::run_reply(
                    job.id,
                    &RunReply {
                        name: test.name.clone(),
                        verdict: "Unknown",
                        wall_secs: start.elapsed().as_secs_f64(),
                        path: "symbolic",
                        detail: "cancelled".to_string(),
                        ..RunReply::default()
                    },
                ));
            } else {
                timeout_reply(ctx);
            }
        }
        Err(e) => {
            shared.obs.add("ptxd.internal_errors", 1);
            ctx.finish("-", "internal-error");
            shared.obs.add("ptxd.completed", 1);
            job.writer
                .send(&proto::error_reply(job.id, "internal", &e.to_string()));
        }
    }
}

/// A deadline miss: `Unknown` + `timed_out` + a flight-recorder autopsy,
/// mirroring the harness's timeout records.
fn timeout_reply(ctx: &RunCtx<'_>) {
    let (shared, job, name, start) = (ctx.shared, ctx.job, &ctx.name, ctx.start);
    shared.obs.add("ptxd.timeouts", 1);
    ctx.finish("Unknown", "timeout");
    shared.obs.add("ptxd.completed", 1);
    let autopsy = Autopsy::capture(
        shared.trace.tail_current_thread(AUTOPSY_EVENTS),
        &shared.obs,
    );
    job.writer.send(&proto::run_reply(
        job.id,
        &RunReply {
            name: name.to_string(),
            verdict: "Unknown",
            observable: None,
            cached: false,
            timed_out: true,
            wall_secs: start.elapsed().as_secs_f64(),
            path: "symbolic",
            detail: "deadline exceeded".to_string(),
            autopsy: Some(autopsy.to_json()),
        },
    ));
}
