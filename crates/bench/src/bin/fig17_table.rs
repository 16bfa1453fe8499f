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
//! The human rows carry no wall time, so flagless stdout is
//! byte-identical between runs (`tests/golden/`); each query's time is
//! the `--json` `wall_secs` field.
//!
//! `--stats` prints an observability table after the sweep — totals plus
//! per-query counters under `query.<name>.`; `--stats-json PATH` writes
//! the same snapshot as JSON Lines. All flags but `--sessions` are the
//! shared run flags of [`modelfinder::obs::cli`].
//!
//! `--trace-out PATH` writes the sweep's event timeline as Chrome
//! trace-event JSON (translate/encode/solve spans per query, worker-
//! tagged), loadable in Perfetto; summarize offline with `traceview`.

use std::process::ExitCode;

use modelfinder::harness::HarnessOptions;
use modelfinder::obs::cli::{Cli, Flag};
use ptxmm_bench::run_sweep;

static CLI: Cli = Cli {
    prog: "fig17_table",
    usage: "[--sessions] [bounds…]",
    flags: Flag::ALL,
    stats_to_stderr: false,
};

fn main() -> ExitCode {
    let mut bounds: Vec<usize> = Vec::new();
    let mut sessions = false;
    let parsed = CLI.parse(std::env::args().skip(1), |arg, _| {
        if arg == "--sessions" {
            sessions = true;
        } else if let Ok(b) = arg.parse() {
            bounds.push(b);
        } else {
            return Ok(false);
        }
        Ok(true)
    });
    let run = match parsed {
        Ok(run) => run,
        Err(e) => return CLI.fail(&e),
    };
    if bounds.is_empty() {
        bounds = vec![2, 3, 4];
    }

    let options = HarnessOptions::for_run(&run);
    let records = run_sweep(&bounds, sessions, &options, |rec| {
        options
            .obs
            .merge_prefixed(&rec.obs, &format!("query.{}.", rec.name));
        if run.json {
            println!("{}", rec.to_json());
        } else {
            println!(
                "{:<28} unsat={:<5} vars={} clauses={} conflicts={}{}",
                rec.name,
                rec.verdict == "Unsat",
                rec.sat_vars,
                rec.sat_clauses,
                rec.conflicts,
                if rec.timed_out { "  TIMEOUT" } else { "" },
            );
        }
    });
    let unknown = records.iter().filter(|r| r.verdict == "Unknown").count();
    if !run.json && unknown > 0 {
        eprintln!("{unknown} quer(ies) did not finish within budget");
    }
    let failures = run.finish(&options.obs.snapshot(), || {
        options.trace.snapshot().to_chrome_json()
    });
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
