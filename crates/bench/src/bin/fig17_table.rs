//! One-off driver that prints Figure 17-style rows (also used to collect
//! data for EXPERIMENTS.md).
//!
//! ```text
//! fig17_table [bounds…] [--jobs N] [--timeout-secs S] [--json]
//!             [--sessions] [--stats] [--stats-json PATH] [--trace-out PATH]
//! ```
//!
//! Each (scope mode × bound × axiom) verification is one query. With
//! `--jobs N` the queries fan out over a worker pool; `--timeout-secs S`
//! bounds each query's wall clock via the solver's cooperative deadline
//! (an overrunning query is reported as `Unknown`, never hangs the
//! sweep); `--json` emits one JSON Lines record per query.
//!
//! `--sessions` answers the queries through incremental
//! [`mapping::AxiomSession`]s pooled per (mode, bound): the combined
//! model's hypotheses are translated and encoded once per session, each
//! axiom only adds its negated goal, and learnt clauses persist between
//! axioms. Verdicts are identical to the scratch path; records gain a
//! detail field with the translation-cache hits and per-phase timings.
//!
//! The sweep itself lives in the `ptxmm_bench` library, shared with
//! `benchgate`, which runs bounds 2–3 on both paths and gates their
//! counters.
//!
//! `--stats` prints an observability table after the sweep — totals plus
//! per-query counters under `query.<name>.`; `--stats-json PATH` writes
//! the same snapshot as JSON Lines.
//!
//! `--trace-out PATH` writes the sweep's event timeline as Chrome
//! trace-event JSON (translate/encode/solve spans per query, worker-
//! tagged), loadable in Perfetto; summarize offline with `traceview`.

use std::process::ExitCode;
use std::time::Duration;

use modelfinder::obs;
use ptxmm_bench::run_sweep;

fn main() -> ExitCode {
    let mut bounds: Vec<usize> = Vec::new();
    let mut jobs = 1usize;
    let mut timeout_secs: Option<u64> = None;
    let mut json = false;
    let mut sessions = false;
    let mut stats = false;
    let mut stats_json: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--sessions" => sessions = true,
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => return usage("--jobs needs a positive integer"),
            },
            "--timeout-secs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => timeout_secs = Some(s),
                None => return usage("--timeout-secs needs an integer"),
            },
            "--stats" => stats = true,
            "--stats-json" => match it.next() {
                Some(path) => stats_json = Some(path.clone()),
                None => return usage("--stats-json needs a file path"),
            },
            "--trace-out" => match it.next() {
                Some(path) => trace_out = Some(path.clone()),
                None => return usage("--trace-out needs a file path"),
            },
            other => match other.parse() {
                Ok(b) => bounds.push(b),
                Err(_) => return usage(&format!("unrecognized argument `{other}`")),
            },
        }
    }
    let bounds = if bounds.is_empty() {
        vec![2, 3, 4]
    } else {
        bounds
    };
    let timeout = timeout_secs.map(Duration::from_secs);

    let stats_wanted = stats || stats_json.is_some();
    let reg = if stats_wanted {
        obs::Registry::new()
    } else {
        obs::Registry::disabled()
    };
    let tracer = if trace_out.is_some() {
        obs::trace::Tracer::for_export()
    } else {
        obs::trace::Tracer::flight_recorder()
    };
    let records = run_sweep(&bounds, jobs, timeout, sessions, &reg, &tracer, |rec| {
        reg.merge_prefixed(&rec.obs, &format!("query.{}.", rec.name));
        if json {
            println!("{}", rec.to_json());
        } else {
            println!(
                "{:<28} unsat={:<5} vars={} clauses={} conflicts={} t={:.3}s{}",
                rec.name,
                rec.verdict == "Unsat",
                rec.sat_vars,
                rec.sat_clauses,
                rec.conflicts,
                rec.wall.as_secs_f64(),
                if rec.timed_out { "  TIMEOUT" } else { "" },
            );
        }
    });
    let unknown = records.iter().filter(|r| r.verdict == "Unknown").count();
    if !json && unknown > 0 {
        eprintln!("{unknown} quer(ies) did not finish within budget");
    }
    if stats_wanted {
        let snap = reg.snapshot();
        if let Some(path) = &stats_json {
            if let Err(e) = std::fs::write(path, snap.to_jsonl()) {
                eprintln!("fig17_table: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if stats {
            print!("{}", snap.render_table());
        }
    }
    if let Some(path) = &trace_out {
        if let Err(e) = std::fs::write(path, tracer.snapshot().to_chrome_json()) {
            eprintln!("fig17_table: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("fig17_table: {err}");
    eprintln!(
        "usage: fig17_table [bounds…] [--jobs N] [--timeout-secs S] [--json] \
         [--sessions] [--stats] [--stats-json PATH] [--trace-out PATH]"
    );
    ExitCode::FAILURE
}
