//! Random PTX litmus tests checked differentially across consistency
//! models: the paper's axiomatic model against the cumulative-across-
//! scopes draft ([`ptx::cumulative`]).
//!
//! Each generated case (the [`crate::litmusgen`] program shape: loads,
//! stores, and fences over two threads and two locations) is answered
//! under *both* models, and under each model by three engines —
//! exhaustive execution enumeration, a scratch
//! [`modelfinder::ModelFinder`] on
//! [`litmus::sat::scratch_problem_model`] (a fresh one-query session),
//! and a pooled, reused [`litmus::sat::SatSession`] keyed by
//! `(model, signature)` with every `Unsat` DRAT-certified.
//!
//! The failure condition is *per-model* engine disagreement (or a
//! rejected certificate): all three engines implement the same model,
//! so any split is a bug regardless of which model it happens under.
//! *Cross-model* verdict differences are not failures — they are the
//! distinguishing fragment the `ptxdistill` search mines deliberately
//! (CoRR-style shapes whose Read→Read coherence the cumulative draft
//! drops) — and are only counted, surfacing in `fuzzherd --stats` as
//! `gen.model.fuzz.model_diffs`.

use litmus::sat::{self, Signature};
use litmus::{run_ptx_model, Model, PtxLitmus};
use modelfinder::harness::SessionPool;
use modelfinder::{drat, ModelFinder, Options, Verdict};
use ptx::cumulative::ALL_MODELS;
use testkit::Rng;

use crate::litmusgen::{self, CertSession, LitmusCase};
use crate::{Disagreement, RoundStats};

/// The session-pool key: sessions are warm per model *and* universe
/// signature.
pub type PoolKey = (Model, Signature);

/// Runs one case under one model through all three engines. `Err`
/// explains the first engine disagreement or certificate failure;
/// `Ok` carries the model's (agreed) observability verdict.
pub fn check_model(
    test: &PtxLitmus,
    model: Model,
    pool: &SessionPool<PoolKey, CertSession>,
) -> Result<(bool, RoundStats), String> {
    let ground = run_ptx_model(test, model);
    let mut stats = RoundStats::default();

    // Pooled incremental session (checked back in only on success — a
    // failed certification leaves the checker desynced from the proof).
    let sig = sat::signature(&test.program);
    let key = (model, sig);
    let mut cs = pool.checkout(&key, || CertSession::open_model(sig, model));
    let result = cs
        .session
        .run(test)
        .map_err(|e| format!("{model}: session error: {e}"))?;
    stats.sat_vars = result.report.sat_vars as u64;
    stats.sat_clauses = result.report.sat_clauses as u64;
    stats.conflicts += result.report.solver_stats.conflicts;
    cs.checker
        .absorb(cs.session.proof().expect("proof logging enabled"))
        .map_err(|e| format!("{model}: session proof rejected: {e}"))?;
    if result.observable == Some(false) {
        let core = cs.session.last_core().expect("unsat records a core");
        cs.checker
            .expect_core(core)
            .map_err(|e| format!("{model}: session core rejected: {e}"))?;
    }
    match result.observable {
        Some(o) if o != ground.observable => {
            return Err(format!(
                "{model}: session says observable={o}, enumeration says {}",
                ground.observable
            ));
        }
        None => return Err(format!("{model}: session answered Unknown with no budget")),
        _ => {}
    }
    pool.checkin(key, cs);

    // Scratch model finder on the self-contained problem.
    let problem = sat::scratch_problem_model(test, model);
    let (verdict, report) = ModelFinder::new(Options::default().with_proof_logging())
        .solve(&problem)
        .map_err(|e| format!("{model}: scratch finder type error: {e:?}"))?;
    stats.conflicts += report.solver_stats.conflicts;
    match &verdict {
        Verdict::Sat(_) => {
            if !ground.observable {
                return Err(format!(
                    "{model}: scratch finder says observable, enumeration says not"
                ));
            }
        }
        Verdict::Unsat => {
            if ground.observable {
                return Err(format!(
                    "{model}: scratch finder says not observable, enumeration says observable"
                ));
            }
            let proof = report.proof.as_ref().expect("proof logging enabled");
            drat::certify_unsat(proof, &[])
                .map_err(|e| format!("{model}: scratch DRAT certificate rejected: {e}"))?;
        }
        Verdict::Unknown => {
            return Err(format!(
                "{model}: scratch finder answered Unknown with no budget"
            ))
        }
    }
    Ok((ground.observable, stats))
}

/// Runs one case under both models. `Ok` carries the accumulated stats
/// plus whether the models' verdicts diverged (the distinguishing
/// fragment — counted, never a failure).
pub fn check(
    case: &LitmusCase,
    pool: &SessionPool<PoolKey, CertSession>,
) -> Result<(RoundStats, bool), String> {
    let test = case.to_test();
    let mut stats = RoundStats::default();
    let mut verdicts = [false; 2];
    for (i, model) in ALL_MODELS.into_iter().enumerate() {
        let (observable, s) = check_model(&test, model, pool)?;
        verdicts[i] = observable;
        stats.sat_vars = stats.sat_vars.max(s.sat_vars);
        stats.sat_clauses = stats.sat_clauses.max(s.sat_clauses);
        stats.conflicts += s.conflicts;
    }
    Ok((stats, verdicts[0] != verdicts[1]))
}

/// One fuzz round against a shared session pool: generate from `seed`,
/// check under both models, shrink on failure (shrink candidates get
/// throwaway pools, so a broken shared session cannot mask the minimal
/// case). The `bool` reports cross-model divergence.
///
/// # Errors
///
/// The shrunk [`Disagreement`] when any per-model check fails.
pub fn run_round(
    seed: u64,
    pool: &SessionPool<PoolKey, CertSession>,
) -> Result<(RoundStats, bool), Disagreement> {
    let mut rng = Rng::seed(seed);
    let case = litmusgen::generate(&mut rng);
    match check(&case, pool) {
        Ok(r) => Ok(r),
        Err(what) => {
            let minimal = crate::shrink::shrink(
                case,
                litmusgen::candidates,
                |c| check(c, &SessionPool::new()).is_err(),
                60,
            );
            Err(Disagreement {
                generator: "modelgen",
                seed,
                what,
                shrunk: minimal.to_string(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memmodel::Location;
    use ptx::inst::build;

    #[test]
    fn rounds_agree_on_a_seeded_sweep() {
        let pool = SessionPool::new();
        let mut diverged = 0;
        for round in 0..12 {
            let seed = crate::round_seed(0xF00D, "modelgen", round);
            let (_, d) = run_round(seed, &pool).unwrap_or_else(|d| panic!("{d}"));
            diverged += u64::from(d);
        }
        // The pool actually shared per-(model, signature) sessions.
        let (created, reused) = pool.stats();
        assert!(created >= 2, "both models opened sessions");
        assert!(created + reused >= 24);
        let _ = diverged; // any count is legal on a small sweep
    }

    #[test]
    fn the_corr_relaxed_shape_diverges_across_models_without_failing() {
        // The known distinguishing fragment: a relaxed store against two
        // same-location relaxed reads observing new-then-stale. The
        // axiomatic model forbids it (SC-per-Location); the cumulative
        // draft drops Read→Read coherence and allows it. The check must
        // report divergence, not failure.
        let x = Location(0);
        let case = LitmusCase {
            layout_kind: 0,
            threads: vec![
                vec![build::st_relaxed(memmodel::Scope::Sys, x, 1)],
                vec![
                    build::ld_relaxed(memmodel::Scope::Sys, memmodel::Register(0), x),
                    build::ld_relaxed(memmodel::Scope::Sys, memmodel::Register(1), x),
                ],
            ],
            conds: vec![(1, 0, 1), (1, 1, 0)],
        };
        let (_, diverged) = check(&case, &SessionPool::new()).expect("engines agree per model");
        assert!(diverged, "CoRR-relaxed must distinguish the models");
    }
}
