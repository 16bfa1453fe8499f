//! The Figure 17 sweep shared by the `fig17_table` binary and the
//! `benchgate` counter gate.

use std::sync::Arc;

use mapping::{AxiomSession, RecipeVariant, ScopeMode};
use modelfinder::harness::{run_queries, HarnessOptions, Query, QueryOutput};
use modelfinder::{Options, QueryRecord, SessionPool, Verdict};

/// The axioms checked per (scope mode, bound), in sweep order.
const AXIOMS: [&str; 3] = ["Coherence", "Atomicity", "SC"];

/// Runs the full (mode × bound × axiom) sweep on either the scratch or
/// the incremental path under `options`, streaming records to
/// `on_record`.
pub fn run_sweep(
    bounds: &[usize],
    sessions: bool,
    options: &HarnessOptions,
    on_record: impl FnMut(&QueryRecord),
) -> Vec<QueryRecord> {
    // One incremental session per (mode, bound) key and worker; workers
    // check sessions out per query, so at most `jobs` exist per key.
    let pool: Arc<SessionPool<(ScopeMode, usize), AxiomSession>> = Arc::new(SessionPool::new());
    let mut queries = Vec::new();
    for mode in [ScopeMode::Scoped, ScopeMode::Descoped] {
        for &bound in bounds {
            for axiom in AXIOMS {
                let name = format!("{mode:?}/bound{bound}/{axiom}");
                let pool = Arc::clone(&pool);
                queries.push(Query::new(name, move |ctx| {
                    if sessions {
                        let mut session = pool.checkout(&(mode, bound), || {
                            AxiomSession::new(bound, mode, RecipeVariant::Correct, Options::check())
                                .expect("internal encoding error")
                        });
                        session.set_cancel(Some(ctx.cancel.clone()));
                        session.set_deadline(ctx.timeout);
                        session.set_tracer(ctx.trace.clone());
                        let row = session.verify(axiom).expect("internal encoding error");
                        session.set_cancel(None);
                        session.set_deadline(None);
                        row.report.record_obs(&ctx.obs);
                        let out = query_output(&row, true);
                        pool.checkin((mode, bound), session);
                        out
                    } else {
                        let model = mapping::build(bound, mode, RecipeVariant::Correct);
                        let mut opts = Options::check()
                            .with_cancel(ctx.cancel.clone())
                            .with_tracer(ctx.trace.clone());
                        opts.deadline = ctx.timeout;
                        let row = mapping::verify_axiom(&model, axiom, mode, opts)
                            .expect("internal encoding error");
                        row.report.record_obs(&ctx.obs);
                        query_output(&row, false)
                    }
                }));
            }
        }
    }
    run_queries(queries, options, on_record)
}

/// Converts a verification row into a harness record payload. Session
/// rows carry the incremental counters in the detail field.
fn query_output(row: &mapping::AxiomCheckRow, sessions: bool) -> QueryOutput {
    let mut detail = row
        .report
        .interrupted
        .map(|reason| format!("stopped early: {reason}"));
    if sessions {
        let phases = format!(
            "cache_hits={} t_translate={:.6}s t_solve={:.6}s",
            row.report.gate_cache_hits,
            row.report.translate_time.as_secs_f64(),
            row.report.solve_time.as_secs_f64(),
        );
        detail = Some(match detail {
            Some(d) => format!("{d}; {phases}"),
            None => phases,
        });
    }
    QueryOutput {
        verdict: match &row.verdict {
            Verdict::Sat(_) => "Sat".to_string(),
            Verdict::Unsat => "Unsat".to_string(),
            Verdict::Unknown => "Unknown".to_string(),
        },
        sat_vars: row.report.sat_vars as u64,
        sat_clauses: row.report.sat_clauses as u64,
        conflicts: row.report.solver_stats.conflicts,
        path: None,
        detail,
    }
}
