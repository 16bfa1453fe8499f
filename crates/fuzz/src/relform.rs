//! Random relational formulas: the bounded model finder against ground
//! enumeration.
//!
//! The universe is tiny (2–3 atoms) with one binary relation `r` and one
//! unary `s`, both bounded above by their full tuple sets — so *every*
//! instance can be enumerated (≤ 2¹² of them) and the generated formula
//! evaluated on each with [`relational::eval_formula`]. That ground truth
//! is compared against:
//!
//! * a scratch [`modelfinder::ModelFinder`] run with proof logging — a
//!   fresh session whose base is the formula, answering the one query
//!   `true` — with `Sat` witnesses re-evaluated and `Unsat` proofs
//!   certified;
//! * a reused [`modelfinder::Session`] over an empty base answering the
//!   formula and then its negation, with the session's append-only proof
//!   absorbed by one [`modelfinder::drat::Checker`] across both queries
//!   and each `Unsat` core certified.
//!
//! The two finder paths share one pipeline, so what they differentially
//! test is fresh-session versus reused-session state: activation
//! literals, retired queries, and learnt clauses carried across queries.
//!
//! Formulas draw from the full AST: the boolean connectives, every
//! multiplicity, subset/equality, the expression algebra including
//! transpose/closure/products, and depth-limited quantifiers.

use modelfinder::{drat, ModelFinder, Options, Problem, Session, Verdict};
use relational::{
    eval_formula, rel, Bounds, Expr, Formula, Instance, RelId, Schema, TupleSet, VarId,
};
use testkit::Rng;

use crate::{Disagreement, RoundStats};

/// A generated case: a universe size and a closed formula over `r`
/// (binary) and `s` (unary).
#[derive(Debug, Clone)]
pub struct RelCase {
    /// Universe size (2 or 3).
    pub universe: usize,
    /// The formula under test.
    pub formula: Formula,
}

impl std::fmt::Display for RelCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "universe {}: {:?}", self.universe, self.formula)
    }
}

/// Declares the fixed two-relation schema.
fn declare() -> (Schema, RelId, RelId) {
    let mut schema = Schema::new();
    let r = schema.relation("r", 2);
    let s = schema.relation("s", 1);
    (schema, r, s)
}

/// Draws a random case.
pub fn generate(rng: &mut Rng) -> RelCase {
    let universe = rng.range(2, 4) as usize;
    let mut gen = Gen {
        rng,
        universe,
        vars: Vec::new(),
        next_var: 0,
    };
    let formula = gen.formula(3);
    RelCase { universe, formula }
}

struct Gen<'a> {
    rng: &'a mut Rng,
    universe: usize,
    vars: Vec<VarId>,
    next_var: u32,
}

impl Gen<'_> {
    fn formula(&mut self, depth: u32) -> Formula {
        let (_, r, s) = declare();
        if depth == 0 {
            return self.atomic(r, s);
        }
        match self.rng.below(8) {
            0 | 1 => self.atomic(r, s),
            2 => self.formula(depth - 1).and(&self.formula(depth - 1)),
            3 => self.formula(depth - 1).or(&self.formula(depth - 1)),
            4 => self.formula(depth - 1).not(),
            5 => self.formula(depth - 1).implies(&self.formula(depth - 1)),
            6 => self.formula(depth - 1).iff(&self.formula(depth - 1)),
            _ => {
                let v = VarId::new(self.next_var);
                self.next_var += 1;
                let domain = self.expr(1, 1);
                self.vars.push(v);
                let body = self.formula(depth - 1);
                self.vars.pop();
                if self.rng.flip() {
                    Formula::for_all(v, domain, body)
                } else {
                    Formula::exists(v, domain, body)
                }
            }
        }
    }

    fn atomic(&mut self, r: RelId, s: RelId) -> Formula {
        let _ = (r, s);
        let kind = self.rng.below(6);
        let a = self.arity();
        match kind {
            0 => self.expr(a, 2).in_(&self.expr(a, 2)),
            1 => self.expr(a, 2).equal(&self.expr(a, 2)),
            2 => self.expr(a, 2).some(),
            3 => self.expr(a, 2).no(),
            4 => self.expr(a, 2).one(),
            _ => self.expr(a, 2).lone(),
        }
    }

    fn arity(&mut self) -> usize {
        if self.rng.flip() {
            1
        } else {
            2
        }
    }

    fn expr(&mut self, arity: usize, depth: u32) -> Expr {
        if depth == 0 {
            return self.leaf(arity);
        }
        match (arity, self.rng.below(8)) {
            (_, 0 | 1) => self.leaf(arity),
            (_, 2) => self
                .expr(arity, depth - 1)
                .union(&self.expr(arity, depth - 1)),
            (_, 3) => self
                .expr(arity, depth - 1)
                .intersect(&self.expr(arity, depth - 1)),
            (_, 4) => self
                .expr(arity, depth - 1)
                .difference(&self.expr(arity, depth - 1)),
            (1, 5) => self.expr(1, depth - 1).join(&self.expr(2, depth - 1)),
            (1, _) => self.expr(2, depth - 1).join(&self.expr(1, depth - 1)),
            (2, 5) => self.expr(1, depth - 1).product(&self.expr(1, depth - 1)),
            (2, 6) => self.expr(2, depth - 1).transpose(),
            (2, _) => {
                let inner = self.expr(2, depth - 1);
                if self.rng.flip() {
                    inner.closure()
                } else {
                    inner.reflexive_closure()
                }
            }
            _ => unreachable!("arities are 1 or 2"),
        }
    }

    fn leaf(&mut self, arity: usize) -> Expr {
        let (_, r, s) = declare();
        let n = self.universe as relational::Atom;
        if arity == 1 {
            if !self.vars.is_empty() && self.rng.chance(0.3) {
                return Expr::Var(*self.rng.choose(&self.vars));
            }
            match self.rng.below(4) {
                0 => rel(s),
                1 => Expr::Univ,
                2 => Expr::None(1),
                _ => {
                    let atoms = (0..n).filter(|_| self.rng.chance(0.4));
                    Expr::constant(TupleSet::from_atoms(atoms))
                }
            }
        } else {
            match self.rng.below(4) {
                0 | 1 => rel(r),
                2 => Expr::Iden,
                _ => {
                    let pairs: Vec<(relational::Atom, relational::Atom)> =
                        (0..n).flat_map(|a| (0..n).map(move |b| (a, b))).collect();
                    let chosen = pairs.into_iter().filter(|_| self.rng.chance(0.3));
                    Expr::constant(TupleSet::from_pairs(chosen))
                }
            }
        }
    }
}

/// Evaluates the formula on every instance within the bounds; returns
/// `(some instance satisfies it, some instance falsifies it)`.
fn oracle(case: &RelCase) -> Result<(bool, bool), String> {
    let (schema, r, s) = declare();
    let n = case.universe;
    let r_slots: Vec<(relational::Atom, relational::Atom)> = (0..n as relational::Atom)
        .flat_map(|a| (0..n as relational::Atom).map(move |b| (a, b)))
        .collect();
    let bits = r_slots.len() + n;
    let (mut any_true, mut any_false) = (false, false);
    for mask in 0u32..1 << bits {
        let r_val = TupleSet::from_pairs(
            r_slots
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &p)| p),
        );
        let s_val = TupleSet::from_atoms(
            (0..n)
                .filter(|i| mask & (1 << (r_slots.len() + i)) != 0)
                .map(|i| i as relational::Atom),
        );
        let mut inst = Instance::empty(&schema, n);
        inst.set(r, r_val);
        inst.set(s, s_val);
        match eval_formula(&schema, &inst, &case.formula) {
            Ok(true) => any_true = true,
            Ok(false) => any_false = true,
            Err(e) => return Err(format!("ground evaluator type error: {e:?}")),
        }
        if any_true && any_false {
            break;
        }
    }
    Ok((any_true, any_false))
}

/// Full bounds for the case's universe.
fn bounds(schema: &Schema, r: RelId, s: RelId, n: usize) -> Bounds {
    let mut b = Bounds::new(schema, n);
    b.bound_upper(r, relational::full_set(2, n));
    b.bound_upper(s, relational::full_set(1, n));
    b
}

/// Runs one case through the scratch finder (a fresh one-query session)
/// and a reused session (formula, then its negation), checking every verdict against the
/// ground enumeration and certifying every proof.
pub fn check(case: &RelCase) -> Result<RoundStats, String> {
    let (any_true, any_false) = oracle(case)?;
    let (schema, r, s) = declare();
    let bnds = bounds(&schema, r, s, case.universe);
    let mut stats = RoundStats::default();

    // Scratch finder on the formula itself.
    let problem = Problem {
        schema: schema.clone(),
        bounds: bnds.clone(),
        formula: case.formula.clone(),
    };
    let (verdict, report) = ModelFinder::new(Options::default().with_proof_logging())
        .solve(&problem)
        .map_err(|e| format!("scratch finder type error: {e:?}"))?;
    stats.sat_vars = report.sat_vars as u64;
    stats.sat_clauses = report.sat_clauses as u64;
    stats.conflicts += report.solver_stats.conflicts;
    match &verdict {
        Verdict::Sat(inst) => {
            if !any_true {
                return Err("scratch finder answered Sat, enumeration finds no model".to_string());
            }
            match eval_formula(&schema, inst, &case.formula) {
                Ok(true) => {}
                Ok(false) => {
                    return Err("scratch finder's witness does not satisfy the formula".to_string())
                }
                Err(e) => return Err(format!("witness evaluation type error: {e:?}")),
            }
        }
        Verdict::Unsat => {
            if any_true {
                return Err("scratch finder answered Unsat, enumeration finds a model".to_string());
            }
            let proof = report.proof.as_ref().expect("proof logging enabled");
            drat::certify_unsat(proof, &[])
                .map_err(|e| format!("scratch DRAT certificate rejected: {e}"))?;
        }
        Verdict::Unknown => {
            return Err("scratch finder answered Unknown with no budget".to_string())
        }
    }

    // Incremental session: the formula, then its negation, one checker.
    let mut session = Session::new(
        &schema,
        &bnds,
        &Formula::True,
        Options::default().with_proof_logging(),
    )
    .map_err(|e| format!("session type error: {e:?}"))?;
    let mut checker = drat::Checker::new();
    let queries = [
        (case.formula.clone(), any_true, "formula"),
        (case.formula.not(), any_false, "negation"),
    ];
    for (f, expected_sat, label) in queries {
        let (v, rep) = session
            .solve(&f)
            .map_err(|e| format!("session type error on {label}: {e:?}"))?;
        stats.conflicts += rep.solver_stats.conflicts;
        checker
            .absorb(session.proof().expect("proof logging enabled"))
            .map_err(|e| format!("session proof rejected on {label}: {e}"))?;
        match &v {
            Verdict::Sat(inst) => {
                if !expected_sat {
                    return Err(format!(
                        "session answered Sat on {label}, enumeration finds no model"
                    ));
                }
                match eval_formula(&schema, inst, &f) {
                    Ok(true) => {}
                    Ok(false) => {
                        return Err(format!("session witness does not satisfy the {label}"))
                    }
                    Err(e) => return Err(format!("witness evaluation type error: {e:?}")),
                }
            }
            Verdict::Unsat => {
                if expected_sat {
                    return Err(format!(
                        "session answered Unsat on {label}, enumeration finds a model"
                    ));
                }
                let core = session.last_core().expect("unsat records a core");
                checker
                    .expect_core(core)
                    .map_err(|e| format!("session core rejected on {label}: {e}"))?;
            }
            Verdict::Unknown => {
                return Err(format!(
                    "session answered Unknown on {label} with no budget"
                ))
            }
        }
    }
    Ok(stats)
}

/// One fuzz round: generate from `seed`, check, shrink on failure.
///
/// # Errors
///
/// The shrunk [`Disagreement`] when any check fails.
pub fn run_round(seed: u64) -> Result<RoundStats, Disagreement> {
    let mut rng = Rng::seed(seed);
    let case = generate(&mut rng);
    match check(&case) {
        Ok(stats) => Ok(stats),
        Err(what) => {
            let minimal = crate::shrink::shrink(case, candidates, |c| check(c).is_err(), 200);
            Err(Disagreement {
                generator: "relform",
                seed,
                what,
                shrunk: minimal.to_string(),
            })
        }
    }
}

/// Reduction step: shrink the universe, or replace the formula by one of
/// its immediate subformulas (quantifier bodies are skipped — they may
/// have free variables).
fn candidates(case: &RelCase) -> Vec<RelCase> {
    let mut out = Vec::new();
    if case.universe > 2 {
        out.push(RelCase {
            universe: case.universe - 1,
            formula: case.formula.clone(),
        });
    }
    for sub in subformulas(&case.formula) {
        out.push(RelCase {
            universe: case.universe,
            formula: sub,
        });
    }
    out
}

fn subformulas(f: &Formula) -> Vec<Formula> {
    match f {
        Formula::Not(a) => vec![(**a).clone()],
        Formula::And(fs) | Formula::Or(fs) => {
            let mut out: Vec<Formula> = fs.clone();
            if fs.len() > 1 {
                for i in 0..fs.len() {
                    let rest: Vec<Formula> = fs
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != i)
                        .map(|(_, g)| g.clone())
                        .collect();
                    out.push(if matches!(f, Formula::And(_)) {
                        Formula::and_all(rest)
                    } else {
                        Formula::or_all(rest)
                    });
                }
            }
            out
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => vec![(**a).clone(), (**b).clone()],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_agrees_on_known_formulas() {
        let (_, r, _) = declare();
        let taut = RelCase {
            universe: 2,
            formula: rel(r).equal(&rel(r)),
        };
        assert_eq!(oracle(&taut).unwrap(), (true, false));
        let contingent = RelCase {
            universe: 2,
            formula: rel(r).some(),
        };
        assert_eq!(oracle(&contingent).unwrap(), (true, true));
        let contradiction = RelCase {
            universe: 2,
            formula: rel(r).some().and(&rel(r).no()),
        };
        assert_eq!(oracle(&contradiction).unwrap(), (false, true));
    }

    #[test]
    fn rounds_agree_on_a_seeded_sweep() {
        for round in 0..24 {
            let seed = crate::round_seed(0xF00D, "relform", round);
            run_round(seed).unwrap_or_else(|d| panic!("{d}"));
        }
    }
}
