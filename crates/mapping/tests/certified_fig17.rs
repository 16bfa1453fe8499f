//! DRAT certification of the Figure 17 mapping check.
//!
//! Every bound-2 scratch query (both scope modes × the three RC11
//! axioms) must come back `Unsat` with a proof that the independent
//! checker in `satsolver::drat` accepts. These refutations learn long
//! clauses, so the check also covers learnt-clause minimization on real
//! instances: a minimized clause that is not RUP fails here.

use mapping::{build, verify_axiom, RecipeVariant, ScopeMode};
use modelfinder::{drat, Options, Verdict};

#[test]
fn bound2_scratch_refutations_are_drat_certified() {
    for mode in [ScopeMode::Scoped, ScopeMode::Descoped] {
        let model = build(2, mode, RecipeVariant::Correct);
        for axiom in ["Coherence", "Atomicity", "SC"] {
            let options = Options::check().with_proof_logging();
            let row = verify_axiom(&model, axiom, mode, options).expect("encoding");
            assert_eq!(row.verdict, Verdict::Unsat, "{axiom} {mode:?}");
            let proof = row.report.proof.as_ref().expect("Unsat carries a proof");
            drat::certify_unsat(proof, &[])
                .unwrap_or_else(|e| panic!("{axiom} {mode:?}: proof rejected: {e:?}"));
        }
    }
}
