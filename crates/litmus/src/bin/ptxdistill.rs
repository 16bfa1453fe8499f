//! `ptxdistill` — model-distinguishing search and automatic litmus
//! synthesis (memalloy-style) for the PTX memory models.
//!
//! ```text
//! ptxdistill --max-bound 5
//! ptxdistill --models ptx,ptx-cumulative --max-bound 6 --jobs 4 \
//!            --emit-dir litmus/synth/
//! ```
//!
//! The search sweeps every universe shape up to `--max-bound` total
//! events (including per-location init writes), asking at each shape
//! for an execution consistent under one model and inconsistent under
//! the other — in both directions ([`litmus::distill()`]). Every witness
//! is lifted into a concrete litmus test and round-trip verified under
//! *both* models on *both* engines (enumeration and symbolic SAT, with
//! `Unsat` answers DRAT-certified); only tests whose *verdicts* differ
//! across the models survive (PTX's partial coherence order means an
//! execution-level distinguisher does not always lift to a test-level
//! one).
//!
//! Per-point progress goes to stderr; the result — one line per kept
//! test, in deterministic bound-first order — goes to stdout, so two
//! runs with the same flags produce byte-identical stdout regardless of
//! `--jobs`. With `--emit-dir` each kept test is also written as a
//! `.litmus` file named after the test.
//!
//! `--json` switches stdout to one JSON Lines record per kept test;
//! `--stats` / `--stats-json PATH` and `--trace-out PATH` mirror
//! `ptxherd`'s observability flags, except that the `--stats` table goes
//! to stderr so stdout stays the result. These and `--jobs` /
//! `--timeout-secs` are the shared run flags of
//! [`modelfinder::obs::cli`].

use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use litmus::distill::{
    model_short, search_point_with_options, verify_round_trip, SearchPoint, Synthesized,
};
use litmus::{canonical_ptx_text, format_ptx_litmus, Model};
use modelfinder::harness::{run_queries, HarnessOptions, Query, QueryOutput};
use modelfinder::obs::cli::{Cli, Flag, RunFlags};
use modelfinder::Options;

static CLI: Cli = Cli {
    prog: "ptxdistill",
    usage: "[--models ptx,ptx-cumulative] [--max-bound N] [--min-bound N] \
            [--threads N] [--witnesses N] [--emit-dir DIR]",
    flags: Flag::ALL,
    stats_to_stderr: true,
};

/// `ptxdistill`'s own arguments; the shared ones are in [`RunFlags`].
struct Search {
    models: (Model, Model),
    max_bound: usize,
    min_bound: usize,
    threads: usize,
    witnesses: usize,
    emit_dir: Option<String>,
}

fn parse_models(v: &str) -> Result<(Model, Model), String> {
    let parts: Vec<&str> = v.split(',').collect();
    if parts.len() != 2 {
        return Err(format!(
            "--models wants two comma-separated models, got `{v}`"
        ));
    }
    let a = Model::parse(parts[0]).ok_or(format!("unknown model `{}`", parts[0]))?;
    let b = Model::parse(parts[1]).ok_or(format!("unknown model `{}`", parts[1]))?;
    if a == b {
        return Err("--models wants two distinct models".to_string());
    }
    Ok((a, b))
}

fn parse_args() -> Result<(RunFlags, Search), String> {
    let mut search = Search {
        models: (Model::Axiomatic, Model::Cumulative),
        max_bound: 6,
        min_bound: 3,
        threads: 2,
        witnesses: 16,
        emit_dir: None,
    };
    let run = CLI.parse(std::env::args().skip(1), |arg, rest| {
        match arg {
            "--models" => search.models = parse_models(&rest.value(arg)?)?,
            "--max-bound" => search.max_bound = rest.parse(arg)?,
            "--min-bound" => search.min_bound = rest.parse(arg)?,
            "--threads" => search.threads = rest.positive(arg)?,
            "--witnesses" => search.witnesses = rest.parse(arg)?,
            "--emit-dir" => search.emit_dir = Some(rest.value(arg)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if search.max_bound < search.min_bound {
        return Err("--max-bound must be at least --min-bound".to_string());
    }
    Ok((run, search))
}

fn main() -> ExitCode {
    let (run, search) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => return CLI.fail(&e),
    };

    // One harness query per search point; the synthesized (not yet
    // verified) tests land in a shared vector keyed by point index so
    // the result is deterministic regardless of completion order.
    let points: Vec<SearchPoint> = litmus::search_points(search.max_bound, search.threads)
        .into_iter()
        .filter(|p| p.events >= search.min_bound)
        .filter(|p| {
            let pair = (p.consistent, p.inconsistent);
            pair == search.models || pair == (search.models.1, search.models.0)
        })
        .collect();
    type FoundByPoint = Vec<(usize, Vec<Synthesized>)>;
    let found: Arc<Mutex<FoundByPoint>> = Arc::new(Mutex::new(Vec::new()));
    let witnesses = search.witnesses;
    let queries: Vec<Query> = points
        .iter()
        .enumerate()
        .map(|(idx, point)| {
            let point = *point;
            let found = Arc::clone(&found);
            Query::new(point.to_string(), move |ctx| {
                let mut options = Options::default().with_cancel(ctx.cancel.clone());
                if let Some(t) = ctx.timeout {
                    options = options.with_deadline(t);
                }
                match search_point_with_options(&point, witnesses, options) {
                    Ok(synth) => {
                        let n = synth.len();
                        found.lock().unwrap().push((idx, synth));
                        QueryOutput {
                            verdict: if n > 0 { "Sat" } else { "Unsat" }.to_string(),
                            path: Some("symbolic".to_string()),
                            detail: Some(format!("witnesses={n}")),
                            ..QueryOutput::default()
                        }
                    }
                    Err(e) => QueryOutput {
                        verdict: "Unknown".to_string(),
                        detail: Some(format!("encoding error: {e}")),
                        ..QueryOutput::default()
                    },
                }
            })
        })
        .collect();

    let options = HarnessOptions::for_run(&run);
    let records = run_queries(queries, &options, |rec| {
        options
            .obs
            .merge_prefixed(&rec.obs, &format!("point.{}.", rec.name));
        eprintln!(
            "{:<28} {:<8} {:>9.3}s{}{}",
            rec.name,
            rec.verdict,
            rec.wall.as_secs_f64(),
            if rec.timed_out { "  TIMEOUT" } else { "" },
            rec.detail
                .as_deref()
                .map(|d| format!("  {d}"))
                .unwrap_or_default()
        );
    });
    let timeouts = records.iter().filter(|r| r.timed_out).count();
    if timeouts > 0 {
        eprintln!("{timeouts} point(s) timed out (their witnesses are incomplete)");
    }

    // Deterministic order: points ascend (bound-first), witnesses in
    // enumeration order within a point; dedup by canonical text across
    // the sweep; then round-trip verify and keep the verdict-differing.
    let mut collected = Arc::try_unwrap(found)
        .expect("workers are done")
        .into_inner()
        .unwrap();
    collected.sort_by_key(|(idx, _)| *idx);
    let mut seen = std::collections::BTreeSet::new();
    let mut failures = 0usize;
    let mut kept = Vec::new();
    let mut lifted = 0usize;
    for (idx, synth) in collected {
        for s in synth {
            lifted += 1;
            if !seen.insert(canonical_ptx_text(&s.test)) {
                continue;
            }
            match verify_round_trip(&s.test) {
                Ok(rt) if rt.distinguishing() => kept.push((points[idx], rt)),
                Ok(_) => {}
                Err(e) => {
                    eprintln!("ptxdistill: {}: round-trip failed: {e}", s.test.name);
                    failures += 1;
                }
            }
        }
    }

    // Stable names: the permissive model's tag, the bound, and a
    // per-tag sequence number in sweep order.
    let mut counters = std::collections::BTreeMap::new();
    for (point, rt) in &mut kept {
        let tag = if rt.cumulative_observable {
            model_short(Model::Cumulative)
        } else {
            model_short(Model::Axiomatic)
        };
        let seq = counters.entry(tag).or_insert(0usize);
        rt.test.name = format!("synth-{tag}-only-b{}-{seq}", point.events);
        *seq += 1;
    }

    if let Some(dir) = &search.emit_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("ptxdistill: cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
        for (_, rt) in &kept {
            let path = format!("{dir}/{}.litmus", rt.test.name);
            if let Err(e) = std::fs::write(&path, format_ptx_litmus(&rt.test)) {
                eprintln!("ptxdistill: cannot write {path}: {e}");
                failures += 1;
            }
        }
    }

    for (point, rt) in &kept {
        if run.json {
            let mut s = String::from("{\"test\":");
            modelfinder::harness::json_string(&mut s, &rt.test.name);
            s.push_str(&format!(
                ",\"bound\":{},\"threads\":{},\"locs\":{},\"layout\":{},\
                 \"ptx_observable\":{},\"ptx_cumulative_observable\":{}}}",
                point.events,
                point.threads,
                point.locs,
                point.layout_kind,
                rt.axiomatic_observable,
                rt.cumulative_observable
            ));
            println!("{s}");
        } else {
            println!(
                "{:<24} bound={} ptx={} ptx-cumulative={}",
                rt.test.name,
                point.events,
                if rt.axiomatic_observable {
                    "Allow"
                } else {
                    "Forbid"
                },
                if rt.cumulative_observable {
                    "Allow"
                } else {
                    "Forbid"
                },
            );
        }
    }
    if !run.json {
        println!(
            "searched {} points to bound {}, lifted {} tests, {} distinguishing",
            points.len(),
            search.max_bound,
            lifted,
            kept.len()
        );
    }

    failures += run.finish(&options.obs.snapshot(), || {
        options.trace.snapshot().to_chrome_json()
    });

    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
