//! `ptxherd` — a herd7-style litmus-test runner for the PTX and scoped
//! C++ memory models.
//!
//! ```text
//! ptxherd test1.litmus [test2.litmus …]
//! ptxherd --suite                        # run the built-in library
//! ptxherd --suite --jobs 4 --timeout-secs 10 --json
//! ptxherd --suite --sat --jobs 4 --json  # answer via incremental SAT
//! ```
//!
//! Files starting with `PTX <name>` run under the PTX model; files
//! starting with `C11 <name>` run under scoped RC11. The default output
//! mimics herd: the observed outcome states, whether the tagged condition
//! was observable, and the verdict against the file's expectation.
//!
//! With `--jobs N` the tests fan out over a worker pool; `--timeout-secs
//! S` bounds each test's wall clock (an overrunning test is recorded as
//! `Unknown`, never hangs the sweep); `--json` emits one JSON Lines
//! record per test instead of the herd-style report.
//!
//! With `--sat` the PTX tests are answered through incremental
//! [`litmus::sat::SatSession`]s pooled per universe signature: the PTX
//! axioms are translated and CNF-encoded once per signature, and learnt
//! clauses persist across the tests sharing it. The encoding is fully
//! symbolic — barriers and data-dependent values included — so every
//! PTX test takes the SAT path; there is no enumeration fallback.
//! Verdicts are identical to the enumeration engine (enforced by the
//! `sat_equivalence` regression suite); records gain a detail field
//! with the translation-cache hits. C11 tests always use the RC11
//! enumeration engine.
//!
//! The human lines carry no wall times, so flagless stdout is
//! byte-identical between runs (`tests/golden/`); each test's wall time
//! is the `--json` `wall_secs` field, and the translate/solve phase
//! times are the `--stats` `time.*` rows.
//!
//! JSON records carry a `"path"` field naming the encoding mode:
//! `"symbolic"` for SAT-path answers, `"enumeration"` for the
//! enumeration engines (PTX without `--sat`, and all C11 tests).
//!
//! `--stats` prints an observability table after the sweep — totals plus
//! per-test counters under `test.<name>.` (propagations, conflicts,
//! learnt clauses, circuit gates, gate-cache hits, translate/solve wall
//! times); `--stats-json PATH` writes the same snapshot as JSON Lines in
//! the shared `obs` schema. Counter values are deterministic for
//! fixed-seed single-job runs; timings are not.
//!
//! The shared run flags (`--jobs`, `--timeout-secs`, `--json`,
//! `--stats`, `--stats-json`, `--trace-out`) are parsed by
//! [`modelfinder::obs::cli`], which also writes the stats and trace at
//! exit; an argument error prints `ptxherd: message` and the usage line.

use std::process::ExitCode;
use std::sync::Arc;

use litmus::sat::{self, SatSession, Signature};
use litmus::{library, parse_c11_litmus, parse_ptx_litmus, run_ptx, run_rc11, Expectation};
use modelfinder::harness::{run_queries, HarnessOptions, Query, QueryOutput};
use modelfinder::obs::cli::{Cli, Flag, RunFlags};
use modelfinder::SessionPool;

static CLI: Cli = Cli {
    prog: "ptxherd",
    usage: "[--sat] [--server ADDR] <file.litmus>… | --suite",
    flags: Flag::ALL,
    stats_to_stderr: false,
};

/// `ptxherd`'s own arguments; the shared ones are in [`RunFlags`].
struct Input {
    suite: bool,
    server: Option<String>,
    sat: bool,
    files: Vec<String>,
}

fn parse_args() -> Result<(RunFlags, Input), String> {
    let mut input = Input {
        suite: false,
        server: None,
        sat: false,
        files: Vec::new(),
    };
    let run = CLI.parse(std::env::args().skip(1), |arg, rest| {
        match arg {
            "--suite" => input.suite = true,
            "--sat" => input.sat = true,
            "--server" => input.server = Some(rest.value(arg)?),
            path if !path.starts_with("--") => input.files.push(path.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if !input.suite && input.files.is_empty() {
        return Err("no input: pass litmus files or --suite".to_string());
    }
    if input.server.is_some() && run.trace_out.is_some() {
        return Err("--server does not combine with --trace-out".to_string());
    }
    Ok((run, input))
}

enum AnyTest {
    Ptx(litmus::PtxLitmus),
    C11(litmus::C11Litmus),
}

impl AnyTest {
    fn name(&self) -> &str {
        match self {
            AnyTest::Ptx(t) => &t.name,
            AnyTest::C11(t) => &t.name,
        }
    }
}

/// Loads a litmus file, sniffing the dialect from its header line.
fn load_file(path: &str) -> Result<AnyTest, String> {
    let source =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read file: {e}"))?;
    let header = source
        .lines()
        .map(|l| l.split("//").next().unwrap_or("").trim())
        .find(|l| !l.is_empty())
        .unwrap_or("");
    if header.starts_with("PTX ") {
        parse_ptx_litmus(&source)
            .map(AnyTest::Ptx)
            .map_err(|e| format!("{path}: {e}"))
    } else if header.starts_with("C11 ") {
        parse_c11_litmus(&source)
            .map(AnyTest::C11)
            .map_err(|e| format!("{path}: {e}"))
    } else {
        Err(format!(
            "{path}: expected a `PTX <name>` or `C11 <name>` header"
        ))
    }
}

fn main() -> ExitCode {
    let (run, input) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => return CLI.fail(&e),
    };

    if let Some(addr) = &input.server {
        return run_server_mode(addr, &run, &input);
    }

    let mut tests: Vec<AnyTest> = Vec::new();
    let mut failures = 0usize;
    if input.suite {
        tests.extend(library::extended_suite().into_iter().map(AnyTest::Ptx));
        tests.extend(library::c11_suite().into_iter().map(AnyTest::C11));
    }
    for path in &input.files {
        match load_file(path) {
            Ok(t) => tests.push(t),
            Err(e) => {
                eprintln!("{e}");
                failures += 1;
            }
        }
    }

    // The herd-style detailed report stays the default single-threaded
    // behavior; any harness flag switches to the one-line-per-test sweep.
    let use_harness = run.jobs.is_some_and(|j| j > 1)
        || run.timeout_secs.is_some()
        || run.json
        || input.sat
        || run.stats_wanted()
        || run.trace_out.is_some();
    if !use_harness {
        for test in &tests {
            let ok = match test {
                AnyTest::Ptx(t) => report_ptx(t),
                AnyTest::C11(t) => report_c11(t),
            };
            failures += usize::from(!ok);
        }
    } else {
        // One incremental session per universe signature and worker: a
        // job checks a session out of the pool, runs its query under the
        // harness's cancel token and deadline, and checks it back in with
        // its gate cache and learnt clauses intact for the next test.
        let pool: Arc<SessionPool<Signature, SatSession>> = Arc::new(SessionPool::new());
        let queries: Vec<Query> = tests
            .into_iter()
            .map(|test| {
                let name = test.name().to_string();
                let pool = Arc::clone(&pool);
                let sat_mode = input.sat;
                Query::new(name, move |ctx| match &test {
                    AnyTest::Ptx(t) if sat_mode => sat_output(&pool, t, ctx),
                    AnyTest::Ptx(t) => {
                        let r = run_ptx(t);
                        ctx.obs.add("litmus.candidates", r.candidates);
                        litmus_output(t.expectation, r.observable, r.passed, r.candidates)
                    }
                    AnyTest::C11(t) => {
                        let r = run_rc11(t);
                        ctx.obs.add("litmus.candidates", r.candidates);
                        litmus_output(t.expectation, r.observable, r.passed, r.candidates)
                    }
                })
            })
            .collect();
        let options = HarnessOptions::for_run(&run);
        let records = run_queries(queries, &options, |rec| {
            options
                .obs
                .merge_prefixed(&rec.obs, &format!("test.{}.", rec.name));
            if run.json {
                println!("{}", rec.to_json());
            } else {
                println!(
                    "{:<24} {:<8}{}{}",
                    rec.name,
                    rec.verdict,
                    if rec.timed_out { "  TIMEOUT" } else { "" },
                    rec.detail
                        .as_deref()
                        .map(|d| format!("  {d}"))
                        .unwrap_or_default()
                );
            }
        });
        failures += records.iter().filter(|r| r.verdict == "FAILED").count();
        let timeouts = records.iter().filter(|r| r.timed_out).count();
        if !run.json && timeouts > 0 {
            eprintln!("{timeouts} test(s) timed out (reported as Unknown)");
        }
        failures += run.finish(&options.obs.snapshot(), || {
            options.trace.snapshot().to_chrome_json()
        });
    }

    if failures > 0 {
        eprintln!("\n{failures} test(s) failed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs the workload against a remote `ptxd` instead of solving
/// locally. Suite tests are serialized through `litmus::canon`; files
/// are shipped as raw text (the server parses). All requests are
/// pipelined over one connection before the first reply is read, and
/// replies — which may arrive out of order when the server batches —
/// are matched back by `id` and printed in input order.
fn run_server_mode(addr: &str, run: &RunFlags, input: &Input) -> ExitCode {
    let mut sources: Vec<(String, String)> = Vec::new();
    let mut failures = 0usize;
    if input.suite {
        for t in library::extended_suite() {
            sources.push((t.name.clone(), litmus::canon::format_ptx_litmus(&t)));
        }
        for t in library::c11_suite() {
            sources.push((t.name.clone(), litmus::canon::format_c11_litmus(&t)));
        }
    }
    for path in &input.files {
        match std::fs::read_to_string(path) {
            Ok(text) => sources.push((path.clone(), text)),
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                failures += 1;
            }
        }
    }

    let mut client = match litmus::ServerClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ptxherd: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let deadline_ms = run.timeout_secs.map(|s| s.saturating_mul(1000));
    for (i, (name, source)) in sources.iter().enumerate() {
        if let Err(e) = client.send_run(i as u64, source, deadline_ms) {
            eprintln!("ptxherd: send {name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut replies: Vec<Option<litmus::Reply>> = sources.iter().map(|_| None).collect();
    for _ in 0..sources.len() {
        match client.recv() {
            Ok(reply) => match reply.id.and_then(|id| replies.get_mut(id as usize)) {
                Some(slot) => *slot = Some(reply),
                None => {
                    eprintln!("ptxherd: reply with unknown id {:?}", reply.id);
                    failures += 1;
                }
            },
            Err(e) => {
                eprintln!("ptxherd: lost server connection: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    for (i, (name, _)) in sources.iter().enumerate() {
        match &replies[i] {
            None => {
                eprintln!("{name}: no reply");
                failures += 1;
            }
            Some(r) if !r.ok => {
                eprintln!(
                    "{name}: {}: {}",
                    r.kind.as_deref().unwrap_or("error"),
                    r.error.as_deref().unwrap_or("?")
                );
                failures += 1;
            }
            Some(r) => {
                failures += usize::from(r.verdict.as_deref() == Some("FAILED"));
                if run.json {
                    println!("{}", r.to_record_json());
                } else {
                    println!(
                        "{:<24} {:<8} {:>9.3}s{}{}{}",
                        r.name.as_deref().unwrap_or(name),
                        r.verdict.as_deref().unwrap_or("?"),
                        r.wall_secs,
                        if r.timed_out { "  TIMEOUT" } else { "" },
                        if r.cached { "  CACHED" } else { "" },
                        r.detail
                            .as_deref()
                            .map(|d| format!("  {d}"))
                            .unwrap_or_default()
                    );
                }
            }
        }
    }

    if run.stats_wanted() {
        match client.stats_v2() {
            // --trace-out is refused with --server, so there is no trace.
            Ok(snap) => failures += run.finish(&snap, String::new),
            Err(e) => {
                eprintln!("ptxherd: stats query failed: {e}");
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("\n{failures} test(s) failed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Answers one supported PTX test through a pooled incremental session.
fn sat_output(
    pool: &SessionPool<Signature, SatSession>,
    test: &litmus::PtxLitmus,
    ctx: &modelfinder::harness::QueryCtx,
) -> QueryOutput {
    let sig = sat::signature(&test.program);
    let mut session = pool.checkout(&sig, || {
        SatSession::new(sig).expect("internal encoding error")
    });
    session.set_cancel(Some(ctx.cancel.clone()));
    session.set_deadline(ctx.timeout);
    session.set_tracer(ctx.trace.clone());
    let result = session.run(test);
    session.set_cancel(None);
    session.set_deadline(None);
    let out = match &result {
        Ok(r) => {
            r.report.record_obs(&ctx.obs);
            ctx.obs
                .add("sat.symbolic_rf_vars", r.encoding.symbolic_rf_vars);
            ctx.obs.add("sat.value_bits", r.encoding.value_bits);
            let verdict = match r.passed {
                Some(true) => "Ok",
                Some(false) => "FAILED",
                None => "Unknown",
            };
            let detail = match r.observable {
                Some(observable) => format!(
                    "observable={observable} expected={:?} cache_hits={}",
                    test.expectation, r.report.gate_cache_hits
                ),
                None => format!("expected={:?} interrupted", test.expectation),
            };
            QueryOutput {
                verdict: verdict.to_string(),
                sat_vars: r.report.sat_vars as u64,
                sat_clauses: r.report.sat_clauses as u64,
                conflicts: r.report.solver_stats.conflicts,
                path: Some("symbolic".to_string()),
                detail: Some(detail),
            }
        }
        // The encoding is total over parseable PTX tests, so this is an
        // internal encoding error; surface it as Unknown rather than
        // aborting the sweep.
        Err(e) => QueryOutput {
            verdict: "Unknown".to_string(),
            path: Some("symbolic".to_string()),
            detail: Some(format!("sat path error: {e}")),
            ..QueryOutput::default()
        },
    };
    // A cancelled query leaves the solver consistent (it backtracks to the
    // root on interruption), so the session is safe to reuse either way.
    pool.checkin(sig, session);
    out
}

/// Maps a litmus result onto a harness record payload.
fn litmus_output(
    expectation: Expectation,
    observable: bool,
    passed: bool,
    candidates: u64,
) -> QueryOutput {
    QueryOutput {
        verdict: if passed { "Ok" } else { "FAILED" }.to_string(),
        path: Some("enumeration".to_string()),
        detail: Some(format!(
            "observable={observable} expected={expectation:?} candidates={candidates}"
        )),
        ..QueryOutput::default()
    }
}

fn report_ptx(test: &litmus::PtxLitmus) -> bool {
    let enumeration = ptx::enumerate_executions(&test.program);
    println!("Test {} (PTX)", test.name);
    print!("{}", test.program);
    let mut states: Vec<String> = enumeration
        .executions
        .iter()
        .map(|e| litmus::format_registers(&e.final_registers))
        .collect();
    states.sort();
    states.dedup();
    println!("States {}", states.len());
    for s in &states {
        println!("  {}", if s.is_empty() { "<no registers>" } else { s });
    }
    let result = run_ptx(test);
    print_verdict(
        &test.name,
        test.expectation,
        &test.cond.to_string(),
        result.observable,
        result.passed,
    );
    result.passed
}

fn report_c11(test: &litmus::C11Litmus) -> bool {
    let enumeration = rc11::enumerate_executions(&test.program);
    println!("Test {} (scoped C++)", test.name);
    let mut states: Vec<String> = enumeration
        .executions
        .iter()
        .map(|e| litmus::format_registers(&e.final_registers))
        .collect();
    states.sort();
    states.dedup();
    println!("States {}", states.len());
    for s in &states {
        println!("  {}", if s.is_empty() { "<no registers>" } else { s });
    }
    let result = run_rc11(test);
    print_verdict(
        &test.name,
        test.expectation,
        &test.cond.to_string(),
        result.observable,
        result.passed,
    );
    result.passed
}

fn print_verdict(name: &str, expectation: Expectation, cond: &str, observable: bool, passed: bool) {
    println!("Condition {} ({:?})", cond, expectation);
    println!(
        "Observation {} {}",
        name,
        if observable { "Sometimes" } else { "Never" }
    );
    println!("{}\n", if passed { "Ok" } else { "FAILED" });
}
