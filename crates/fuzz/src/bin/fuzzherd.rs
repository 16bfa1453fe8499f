//! `fuzzherd` — the cross-layer differential fuzzing driver.
//!
//! ```text
//! fuzzherd --rounds 200 --seed 7
//! fuzzherd --rounds 50 --seed 7 --jobs 4 --timeout-secs 60 --json
//! ```
//!
//! Each round derives a deterministic seed per generator
//! ([`fuzzkit::round_seed`]) and runs one case from each of the five
//! generators — random CNF against a DPLL oracle, random relational
//! formulas against ground enumeration, random litmus programs against
//! execution enumeration, random barrier/data-dependency programs
//! against the symbolic value encoding, and random litmus programs
//! answered under both PTX consistency models (axiomatic vs the
//! cumulative draft) — as jobs on the workspace's worker-pool harness
//! ([`modelfinder::harness`]). Litmus and barrier rounds share
//! incremental SAT sessions (with their proof checkers) through a
//! [`modelfinder::SessionPool`], exactly like `ptxherd --sat`; model
//! rounds share a second pool keyed by `(model, signature)`.
//! Cross-model verdict divergence in a model round is not a failure —
//! it is counted under `gen.model.fuzz.model_diffs`.
//!
//! Every `Unsat` any engine produces is certified against the
//! independent DRAT checker. On disagreement the round's seed and a
//! shrunk minimal case are printed and the exit code is nonzero;
//! timeouts degrade to `Unknown` records, never hangs.
//!
//! `--stats` prints an observability table after the run — totals plus
//! per-generator counters under `gen.{cnf,relform,litmus,barrier}.`;
//! `--stats-json PATH` writes the snapshot as JSON Lines in the shared
//! `obs` schema. `--trace-out PATH` writes the run's event timeline as
//! Chrome trace-event JSON (per-round `query:*` spans, worker-tagged),
//! loadable in Perfetto. All flags but `--rounds` and `--seed` are the
//! shared run flags of [`modelfinder::obs::cli`].

use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use fuzzkit::litmusgen::CertSession;
use fuzzkit::{
    barriergen, cnf, litmusgen, modelgen, relform, round_seed, Disagreement, RoundStats,
};
use litmus::sat::Signature;
use modelfinder::harness::{run_queries, HarnessOptions, Query, QueryOutput};
use modelfinder::obs::cli::{Cli, Flag};
use modelfinder::SessionPool;

static CLI: Cli = Cli {
    prog: "fuzzherd",
    usage: "[--rounds N] [--seed S]",
    flags: Flag::ALL,
    stats_to_stderr: false,
};

fn parse_seed(v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("bad --seed value `{v}`"))
}

fn output(
    result: Result<RoundStats, Disagreement>,
    failures: &Mutex<Vec<Disagreement>>,
    obs: &modelfinder::obs::Registry,
) -> QueryOutput {
    obs.add("fuzz.rounds", 1);
    match result {
        Ok(stats) => {
            obs.add("fuzz.sat_vars", stats.sat_vars);
            obs.add("fuzz.sat_clauses", stats.sat_clauses);
            obs.add("fuzz.conflicts", stats.conflicts);
            QueryOutput {
                verdict: "Ok".to_string(),
                sat_vars: stats.sat_vars,
                sat_clauses: stats.sat_clauses,
                conflicts: stats.conflicts,
                path: None,
                detail: None,
            }
        }
        Err(d) => {
            obs.add("fuzz.disagreements", 1);
            let detail = format!("{}: {} (seed {:#018x})", d.generator, d.what, d.seed);
            failures.lock().unwrap().push(d);
            QueryOutput {
                verdict: "Disagree".to_string(),
                detail: Some(detail),
                ..QueryOutput::default()
            }
        }
    }
}

fn main() -> ExitCode {
    let mut rounds = 100u64;
    let mut base_seed = 7u64;
    let parsed = CLI.parse(std::env::args().skip(1), |arg, rest| {
        match arg {
            "--rounds" => rounds = rest.parse(arg)?,
            "--seed" => base_seed = parse_seed(&rest.value(arg)?)?,
            _ => return Ok(false),
        }
        Ok(true)
    });
    let run = match parsed {
        Ok(run) => run,
        Err(e) => return CLI.fail(&e),
    };

    let pool: Arc<SessionPool<Signature, CertSession>> = Arc::new(SessionPool::new());
    let model_pool: Arc<SessionPool<modelgen::PoolKey, CertSession>> = Arc::new(SessionPool::new());
    let failures: Arc<Mutex<Vec<Disagreement>>> = Arc::new(Mutex::new(Vec::new()));
    let mut queries = Vec::new();
    for round in 0..rounds {
        let f = Arc::clone(&failures);
        let seed = round_seed(base_seed, "cnf", round);
        queries.push(Query::new(format!("cnf/{round}"), move |ctx| {
            output(cnf::run_round(seed), &f, &ctx.obs)
        }));
        let f = Arc::clone(&failures);
        let seed = round_seed(base_seed, "relform", round);
        queries.push(Query::new(format!("relform/{round}"), move |ctx| {
            output(relform::run_round(seed), &f, &ctx.obs)
        }));
        let f = Arc::clone(&failures);
        let p = Arc::clone(&pool);
        let seed = round_seed(base_seed, "litmusgen", round);
        queries.push(Query::new(format!("litmus/{round}"), move |ctx| {
            output(litmusgen::run_round(seed, &p), &f, &ctx.obs)
        }));
        let f = Arc::clone(&failures);
        let p = Arc::clone(&pool);
        let seed = round_seed(base_seed, "barriergen", round);
        queries.push(Query::new(format!("barrier/{round}"), move |ctx| {
            output(barriergen::run_round(seed, &p), &f, &ctx.obs)
        }));
        let f = Arc::clone(&failures);
        let p = Arc::clone(&model_pool);
        let seed = round_seed(base_seed, "modelgen", round);
        queries.push(Query::new(format!("model/{round}"), move |ctx| {
            let result = modelgen::run_round(seed, &p).map(|(stats, diverged)| {
                if diverged {
                    ctx.obs.add("fuzz.model_diffs", 1);
                }
                stats
            });
            output(result, &f, &ctx.obs)
        }));
    }

    let options = HarnessOptions::for_run(&run);
    let json = run.json;
    let records = run_queries(queries, &options, |rec| {
        let generator = rec.name.split('/').next().unwrap_or("unknown");
        options
            .obs
            .merge_prefixed(&rec.obs, &format!("gen.{generator}."));
        if json {
            println!("{}", rec.to_json());
        } else if rec.verdict != "Ok" {
            println!(
                "{:<16} {:<9} {:.3}s{}",
                rec.name,
                rec.verdict,
                rec.wall.as_secs_f64(),
                rec.detail
                    .as_deref()
                    .map(|d| format!("  {d}"))
                    .unwrap_or_default()
            );
        }
    });

    let timeouts = records.iter().filter(|r| r.timed_out).count();
    let failures = failures.lock().unwrap();
    let (created, reused) = pool.stats();
    let (m_created, m_reused) = model_pool.stats();
    if !json {
        println!(
            "fuzzherd: {} rounds x 5 generators, {} disagreements, {} timeouts \
             (litmus sessions: {} created, {} reused; model sessions: {} created, {} reused)",
            rounds,
            failures.len(),
            timeouts,
            created,
            reused,
            m_created,
            m_reused
        );
    }
    let write_failures = run.finish(&options.obs.snapshot(), || {
        options.trace.snapshot().to_chrome_json()
    });
    for d in failures.iter() {
        eprintln!("{d}");
    }
    if failures.is_empty() && write_failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
