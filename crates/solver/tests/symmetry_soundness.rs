//! Symmetry breaking must preserve satisfiability (never verdicts) while
//! genuinely pruning models: for problems with interchangeable atoms, the
//! lex-leader-constrained model count is strictly smaller than the full
//! count but nonzero whenever the full count is nonzero.

use modelfinder::{ModelFinder, Options, Problem, Session};
use relational::patterns;
use relational::schema::rel;
use relational::{Bounds, Expr, Formula, Schema, TupleSet};

/// Counts all models by enumerating a fresh session without symmetry
/// breaking, keeping the count exact.
fn count_models(problem: &Problem) -> usize {
    Session::new(
        &problem.schema,
        &problem.bounds,
        &problem.formula,
        Options::default(),
    )
    .unwrap()
    .enumerate(&Formula::True, 10_000, |_| {})
    .unwrap()
}

#[test]
fn verdicts_agree_across_structured_problems() {
    // A family of problems over one binary relation with varying
    // constraints; symmetry breaking must never flip SAT/UNSAT.
    let mut schema = Schema::new();
    let r = schema.relation("r", 2);
    let bounds = Bounds::new(&schema, 4);
    let formulas: Vec<(&str, Formula)> = vec![
        (
            "acyclic+some",
            patterns::acyclic(&rel(r)).and(&rel(r).some()),
        ),
        ("total-order", {
            let univ = relational::Expr::Univ;
            patterns::strict_total_order_on(&rel(r), &univ)
        }),
        ("symmetric+irreflexive", {
            patterns::symmetric(&rel(r))
                .and(&patterns::irreflexive(&rel(r)))
                .and(&rel(r).some())
        }),
        ("impossible", {
            // r non-empty, transitive, irreflexive, and r ; r = r with
            // r ⊆ iden — contradiction.
            rel(r)
                .some()
                .and(&rel(r).in_(&relational::Expr::Iden))
                .and(&patterns::irreflexive(&rel(r)))
        }),
    ];
    for (name, formula) in formulas {
        let problem = Problem {
            schema: schema.clone(),
            bounds: bounds.clone(),
            formula,
        };
        let (plain, _) = ModelFinder::new(Options::default())
            .solve(&problem)
            .unwrap();
        let (broken, _) = ModelFinder::new(Options::check()).solve(&problem).unwrap();
        assert_eq!(
            plain.instance().is_some(),
            broken.instance().is_some(),
            "symmetry breaking changed the verdict for {name}"
        );
    }
}

#[test]
fn lex_leader_prunes_but_keeps_witnesses() {
    // Over 3 fully interchangeable atoms, a strict total order has 6
    // models; symmetry breaking must keep at least one and the verdict
    // SAT. (Model counting under symmetry is not part of the public API;
    // we check pruning indirectly through solver statistics: the broken
    // problem carries extra clauses.)
    let mut schema = Schema::new();
    let r = schema.relation("r", 2);
    let bounds = Bounds::new(&schema, 3);
    let formula = patterns::strict_total_order_on(&rel(r), &relational::Expr::Univ);
    let problem = Problem {
        schema,
        bounds,
        formula,
    };
    assert_eq!(count_models(&problem), 6, "3! total orders");
    let (verdict, report) = ModelFinder::new(Options::check()).solve(&problem).unwrap();
    assert!(verdict.instance().is_some());
    assert_eq!(report.symmetry_classes, 1);
    let (_, plain_report) = ModelFinder::new(Options::default())
        .solve(&problem)
        .unwrap();
    assert!(
        report.sat_clauses > plain_report.sat_clauses,
        "lex-leader constraints must add clauses"
    );
}

/// A problem whose formula pins atom 0 by identity: `r = {atom 0}` over a
/// fully free unary relation. Atoms 0..2 are interchangeable by *bounds*,
/// so naive lex-leader breaking would force the lex-minimal orbit
/// representative (`r = {atom 2}` under our ordering) and wrongly report
/// Unsat. The guard must detect the pin and downgrade instead.
fn pinning_problem() -> Problem {
    let mut schema = Schema::new();
    let r = schema.relation("r", 1);
    let bounds = Bounds::new(&schema, 3);
    let formula = rel(r).equal(&Expr::constant(TupleSet::from_atoms([0])));
    Problem {
        schema,
        bounds,
        formula,
    }
}

#[test]
fn pinning_formula_downgrades_symmetry_and_stays_sat() {
    let problem = pinning_problem();
    let (verdict, report) = ModelFinder::new(Options::check()).solve(&problem).unwrap();
    assert!(
        verdict.instance().is_some(),
        "r = {{atom 0}} is satisfiable; lex-leader predicates must not be applied"
    );
    assert!(
        report.symmetry_downgraded,
        "guard must record the downgrade"
    );
    assert_eq!(report.symmetry_classes, 0, "no predicates were emitted");
    // A permutation-invariant problem on the same options keeps symmetry
    // breaking active and does not report a downgrade.
    let mut schema = Schema::new();
    let r = schema.relation("r", 2);
    let clean = Problem {
        bounds: Bounds::new(&schema, 3),
        formula: patterns::acyclic(&rel(r)).and(&rel(r).some()),
        schema,
    };
    let (_, clean_report) = ModelFinder::new(Options::check()).solve(&clean).unwrap();
    assert!(!clean_report.symmetry_downgraded);
    assert!(clean_report.symmetry_classes > 0);
}

#[test]
fn session_with_pinning_base_downgrades_and_still_enumerates() {
    let problem = pinning_problem();
    let mut session = Session::new(
        &problem.schema,
        &problem.bounds,
        &problem.formula,
        Options::check(),
    )
    .unwrap();
    let (verdict, report) = session.solve(&Formula::True).unwrap();
    assert!(verdict.instance().is_some());
    assert!(report.symmetry_downgraded);
    // The downgrade clears the asserted predicates, so enumeration (which
    // a symmetry-active session must refuse) is permitted again and exact.
    let n = session.enumerate(&Formula::True, 10, |_| {}).unwrap();
    assert_eq!(n, 1, "exactly one model: r = {{atom 0}}");
}

#[test]
#[should_panic(expected = "unsound")]
fn pinning_query_on_symmetry_session_panics() {
    // The base is permutation-invariant, so Session::new legitimately
    // asserts lex-leader predicates. A later query that pins atoms cannot
    // be answered soundly against them — and they cannot be retracted —
    // so Session::solve must refuse loudly rather than misjudge.
    let mut schema = Schema::new();
    let r = schema.relation("r", 1);
    let bounds = Bounds::new(&schema, 3);
    let mut session = Session::new(&schema, &bounds, &Formula::True, Options::check()).unwrap();
    let pinned = rel(r).equal(&Expr::constant(TupleSet::from_atoms([0])));
    let _ = session.solve(&pinned);
}
