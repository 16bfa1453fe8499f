//! Differential testing: the SAT-based model finder against the ground
//! evaluator and exhaustive instance enumeration.

use modelfinder::{ModelFinder, Options, Problem};
use relational::schema::rel;
use relational::{eval_formula, patterns, Bounds, Expr, Formula, Instance, Schema, TupleSet};
use testkit::Rng;

#[derive(Debug, Clone, Copy)]
enum ExprSpec {
    R,
    S,
    Iden,
    RTrans,
    RJoinR,
    RClos,
    SProdS,
}

const LEAVES: [ExprSpec; 7] = [
    ExprSpec::R,
    ExprSpec::S,
    ExprSpec::Iden,
    ExprSpec::RTrans,
    ExprSpec::RJoinR,
    ExprSpec::RClos,
    ExprSpec::SProdS,
];

#[derive(Debug, Clone, Copy)]
struct FormulaSpec {
    a: ExprSpec,
    b: ExprSpec,
    op: u8,
}

/// A small random formula over one binary relation `r` and one unary set
/// `s`.
fn gen_spec(rng: &mut Rng) -> FormulaSpec {
    FormulaSpec {
        a: *rng.choose(&LEAVES),
        b: *rng.choose(&LEAVES),
        op: rng.below(6) as u8,
    }
}

struct Ctx {
    schema: Schema,
    r: relational::RelId,
    s: relational::RelId,
}

fn ctx() -> Ctx {
    let mut schema = Schema::new();
    let r = schema.relation("r", 2);
    let s = schema.relation("s", 1);
    Ctx { schema, r, s }
}

fn build_expr(c: &Ctx, spec: ExprSpec) -> (Expr, usize) {
    match spec {
        ExprSpec::R => (rel(c.r), 2),
        ExprSpec::S => (rel(c.s), 1),
        ExprSpec::Iden => (Expr::Iden, 2),
        ExprSpec::RTrans => (rel(c.r).transpose(), 2),
        ExprSpec::RJoinR => (rel(c.r).join(&rel(c.r)), 2),
        ExprSpec::RClos => (rel(c.r).closure(), 2),
        ExprSpec::SProdS => (rel(c.s).product(&rel(c.s)), 2),
    }
}

fn build_formula(c: &Ctx, spec: FormulaSpec) -> Formula {
    let (ea, aa) = build_expr(c, spec.a);
    let (eb, ab) = build_expr(c, spec.b);
    match spec.op {
        0 if aa == ab => ea.in_(&eb),
        1 if aa == ab => ea.equal(&eb).not(),
        2 => ea.some().and(&eb.some()),
        3 => ea.no().or(&eb.some()),
        4 if aa == ab => ea.intersect(&eb).some(),
        5 => patterns::acyclic(&rel(c.r)).and(&ea.some()),
        _ => ea.some(),
    }
}

/// Exhaustively enumerates all instances over a tiny universe of `n`
/// atoms, with `r` drawn from pairs over `block`, and checks whether any
/// satisfies the formula.
fn brute_force_sat(c: &Ctx, n: usize, block: &[u32], formula: &Formula) -> bool {
    let b = block.len();
    let pair_count = b * b;
    assert!(pair_count <= 9, "keep brute force tiny");
    for r_bits in 0u32..(1 << pair_count) {
        for s_bits in 0u32..(1 << n) {
            let mut inst = Instance::empty(&c.schema, n);
            let mut pairs = Vec::new();
            for i in 0..pair_count {
                if (r_bits >> i) & 1 == 1 {
                    pairs.push((block[i / b], block[i % b]));
                }
            }
            inst.set(c.r, TupleSet::from_pairs(pairs));
            let atoms: Vec<u32> = (0..n as u32).filter(|&a| (s_bits >> a) & 1 == 1).collect();
            inst.set(c.s, TupleSet::from_atoms(atoms));
            if eval_formula(&c.schema, &inst, formula).unwrap() {
                return true;
            }
        }
    }
    false
}

/// SAT-pipeline verdict == brute-force verdict; SAT models satisfy the
/// formula under the ground evaluator. Each formula is checked with `r`
/// spanning a 3-atom universe, and with `r` bounded to a 3-atom block of
/// a 5-atom universe, where closure is sized by the block rather than by
/// the universe.
#[test]
fn finder_matches_brute_force() {
    testkit::forall("finder_matches_brute_force", 64, |rng| {
        let spec = gen_spec(rng);
        let c = ctx();
        let formula = build_formula(&c, spec);
        let offset = rng.below(3) as u32;
        for (n, block) in [(3, [0, 1, 2]), (5, [offset, offset + 1, offset + 2])] {
            let mut bounds = Bounds::new(&c.schema, n);
            let pairs = block
                .iter()
                .flat_map(|&x| block.iter().map(move |&y| (x, y)));
            bounds.bound_upper(c.r, TupleSet::from_pairs(pairs));
            let problem = Problem {
                schema: c.schema.clone(),
                bounds,
                formula: formula.clone(),
            };
            let expected = brute_force_sat(&c, n, &block, &formula);
            let (verdict, _) = ModelFinder::new(Options::default())
                .solve(&problem)
                .unwrap();
            match verdict {
                modelfinder::Verdict::Sat(inst) => {
                    assert!(expected, "finder SAT, brute force UNSAT (n={n})");
                    assert!(
                        eval_formula(&c.schema, &inst, &formula).unwrap(),
                        "decoded instance does not satisfy formula (n={n})"
                    );
                }
                modelfinder::Verdict::Unsat => {
                    assert!(!expected, "finder UNSAT, brute force SAT (n={n})");
                }
                modelfinder::Verdict::Unknown => panic!("no budget set"),
            }
        }
    });
}

/// Symmetry breaking never changes the verdict.
#[test]
fn symmetry_breaking_preserves_verdict() {
    testkit::forall("symmetry_breaking_preserves_verdict", 64, |rng| {
        let spec = gen_spec(rng);
        let c = ctx();
        let formula = build_formula(&c, spec);
        let problem = Problem {
            schema: c.schema.clone(),
            bounds: Bounds::new(&c.schema, 3),
            formula,
        };
        let (plain, _) = ModelFinder::new(Options::default())
            .solve(&problem)
            .unwrap();
        let (broken, _) = ModelFinder::new(Options::check()).solve(&problem).unwrap();
        assert_eq!(plain.instance().is_some(), broken.instance().is_some());
    });
}
