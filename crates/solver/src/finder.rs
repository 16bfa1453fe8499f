//! One-shot model finding, plus the option, verdict, and report types
//! shared with [`crate::Session`].
//!
//! A [`ModelFinder`] run is a fresh session whose base is the problem's
//! formula, answering the one query `true`: the session's
//! translate/encode/solve/decode pipeline is the only one.

use std::time::{Duration, Instant};

use relational::{Bounds, Formula, Instance, Schema, TypeError};
use satsolver::{CancelToken, Interrupt, Solver, Var};

use crate::session::Session;
use crate::translate::ClosureStrategy;

/// A bounded relational satisfiability problem.
#[derive(Debug, Clone)]
pub struct Problem {
    /// The relation vocabulary.
    pub schema: Schema,
    /// Per-relation lower/upper bounds over a finite universe.
    pub bounds: Bounds,
    /// The formula to satisfy.
    pub formula: Formula,
}

/// Model finding options.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// How to encode transitive closure.
    pub closure: ClosureStrategy,
    /// Whether to add lex-leader symmetry-breaking predicates.
    ///
    /// Sound for satisfiability checks but removes isomorphic models, so it
    /// must be disabled when enumerating all models.
    pub symmetry_breaking: bool,
    /// Optional conflict budget for the SAT solver.
    pub conflict_budget: Option<u64>,
    /// Optional propagation budget for the SAT solver.
    pub propagation_budget: Option<u64>,
    /// Optional wall-clock budget for the whole run (translation +
    /// solving), measured from the start of the `solve` call. On expiry
    /// the verdict is [`Verdict::Unknown`] and the [`Report`] records
    /// [`Interrupt::Deadline`].
    pub deadline: Option<Duration>,
    /// Optional cancellation token polled by the SAT solver, for stopping
    /// a run from another thread (see [`satsolver::CancelToken`]).
    pub cancel: Option<CancelToken>,
    /// Record a DRAT proof log while solving, returned in
    /// [`Report::proof`] (scratch runs) or kept on the session
    /// ([`crate::Session::proof`]). `Unsat` verdicts then carry an
    /// independently checkable certificate (see [`satsolver::drat`]).
    /// Off by default; roughly doubles clause bookkeeping cost.
    pub proof_logging: bool,
    /// Event tracer bracketing the translate/encode/solve phases and
    /// receiving the SAT solver's milestone events. The
    /// [`obs::trace::Tracer::disabled`] default records nothing.
    pub tracer: obs::trace::Tracer,
    /// Overrides the SAT solver's learnt-database reduction cadence
    /// (conflicts between sweeps; see
    /// [`satsolver::Solver::set_reduce_interval`]). `None` keeps the
    /// solver default, which is tuned for real workloads; tests and
    /// stress harnesses lower it to force sweeps on small instances.
    pub reduce_interval: Option<u64>,
}

impl Options {
    /// Options for a plain satisfiability check (symmetry breaking on).
    pub fn check() -> Options {
        Options {
            symmetry_breaking: true,
            ..Options::default()
        }
    }

    /// This configuration with a wall-clock budget.
    pub fn with_deadline(mut self, deadline: Duration) -> Options {
        self.deadline = Some(deadline);
        self
    }

    /// This configuration with a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Options {
        self.cancel = Some(token);
        self
    }

    /// This configuration with DRAT proof logging turned on.
    pub fn with_proof_logging(mut self) -> Options {
        self.proof_logging = true;
        self
    }

    /// This configuration with an event tracer.
    pub fn with_tracer(mut self, tracer: obs::trace::Tracer) -> Options {
        self.tracer = tracer;
        self
    }

    /// This configuration with an explicit learnt-database reduction
    /// cadence (conflicts between sweeps).
    pub fn with_reduce_interval(mut self, interval: u64) -> Options {
        self.reduce_interval = Some(interval);
        self
    }
}

/// The verdict of a model finding run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A satisfying instance exists.
    Sat(Instance),
    /// No satisfying instance exists within the bounds.
    Unsat,
    /// The conflict budget ran out.
    Unknown,
}

impl Verdict {
    /// The instance, if satisfiable.
    pub fn instance(&self) -> Option<&Instance> {
        match self {
            Verdict::Sat(i) => Some(i),
            _ => None,
        }
    }

    /// True iff the verdict is [`Verdict::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, Verdict::Unsat)
    }
}

/// Statistics about one model finding run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Gates in the translated circuit.
    pub gates: usize,
    /// Free boolean inputs (relation tuples not fixed by bounds).
    pub inputs: usize,
    /// Variables in the CNF handed to the SAT solver.
    pub sat_vars: usize,
    /// Clauses in the CNF.
    pub sat_clauses: usize,
    /// Sparse matrix cells materialized during translation (for a
    /// session query: cells this query added; for a scratch run: all).
    pub matrix_cells: u64,
    /// Tseitin defining clauses emitted while encoding (for a session
    /// query: clauses this query added; for a scratch run: all).
    pub tseitin_clauses: u64,
    /// Number of symmetry classes broken.
    pub symmetry_classes: usize,
    /// True when [`Options::symmetry_breaking`] was requested but the
    /// formula pins atoms by identity (see
    /// [`crate::symmetry::formula_pins_atoms`]), so the predicates were
    /// skipped to preserve soundness.
    pub symmetry_downgraded: bool,
    /// Time spent translating to CNF (for a scratch run: translation
    /// plus encoding).
    pub translate_time: Duration,
    /// Time spent in the SAT solver.
    pub solve_time: Duration,
    /// SAT solver counters (for a session query: this query's search;
    /// for a scratch run: cumulative, so the level-0 propagations made
    /// while adding unit clauses count too).
    pub solver_stats: satsolver::SolverStats,
    /// Gates found already encoded by an earlier query on the same
    /// incremental session (0 for a scratch run).
    pub gate_cache_hits: u64,
    /// Why the run stopped early, when the verdict is
    /// [`Verdict::Unknown`]. `None` for a completed run.
    pub interrupted: Option<Interrupt>,
    /// The DRAT proof recorded for this run when
    /// [`Options::proof_logging`] is set (scratch runs only; session
    /// proofs accumulate on the session instead). An `Unsat` verdict is
    /// certified by `satsolver::drat::certify_unsat(proof, &[])`.
    pub proof: Option<satsolver::Proof>,
}

impl Report {
    /// Records this report's counters, timings, and size histograms
    /// into an observability registry under the workspace's canonical
    /// stat names (`circuit.*`, `sat.*`, `solver.*`, `time.*`). No-op
    /// for a disabled registry. Counter values are deterministic for a
    /// fixed problem; the `time.*` entries are wall clock and excluded
    /// from exact comparisons by the JSONL schema.
    pub fn record_obs(&self, reg: &obs::Registry) {
        if !reg.enabled() {
            return;
        }
        reg.add("circuit.gates", self.gates as u64);
        reg.add("circuit.inputs", self.inputs as u64);
        reg.add("circuit.matrix_cells", self.matrix_cells);
        reg.add("circuit.gate_cache_hits", self.gate_cache_hits);
        reg.add("sat.vars", self.sat_vars as u64);
        reg.add("sat.clauses", self.sat_clauses as u64);
        reg.add("sat.tseitin_clauses", self.tseitin_clauses);
        reg.add("sym.classes", self.symmetry_classes as u64);
        if self.symmetry_downgraded {
            reg.add("sym.downgraded", 1);
        }
        let s = &self.solver_stats;
        reg.add("solver.propagations", s.propagations);
        reg.add("solver.root_propagations", s.root_propagations);
        reg.add("solver.binary_propagations", s.binary_propagations);
        reg.add("solver.conflicts", s.conflicts);
        reg.add("solver.decisions", s.decisions);
        reg.add("solver.restarts", s.restarts);
        reg.add("solver.learnt_clauses", s.learnt_clauses);
        reg.add("solver.learnt_literals", s.learnt_literals);
        reg.add("solver.lbd_sum", s.lbd_sum);
        reg.add("solver.lbd_glue_learnts", s.lbd_glue_learnts);
        reg.add("solver.reduce_sweeps", s.reduce_sweeps);
        reg.add("solver.deleted_clauses", s.deleted_clauses);
        if let Some(proof) = &self.proof {
            reg.add("proof.drat_bytes", proof.drat_bytes());
        }
        reg.observe("hist.sat_clauses", self.sat_clauses as u64);
        reg.record_duration("time.translate", self.translate_time);
        reg.record_duration("time.solve", self.solve_time);
    }
}

/// A model finder for bounded relational problems.
///
/// # Examples
///
/// Find a non-trivial acyclic relation:
///
/// ```
/// use relational::{Schema, Bounds, patterns};
/// use relational::schema::rel;
/// use modelfinder::{ModelFinder, Problem, Options};
///
/// let mut schema = Schema::new();
/// let r = schema.relation("r", 2);
/// let bounds = Bounds::new(&schema, 3);
/// let formula = patterns::acyclic(&rel(r)).and(&rel(r).some());
/// let problem = Problem { schema, bounds, formula };
///
/// let (verdict, _report) = ModelFinder::new(Options::check()).solve(&problem)?;
/// let instance = verdict.instance().expect("satisfiable");
/// assert!(!instance.get(r).is_empty());
/// # Ok::<(), relational::TypeError>(())
/// ```
#[derive(Debug, Default)]
pub struct ModelFinder {
    options: Options,
}

impl ModelFinder {
    /// Creates a finder with the given options.
    pub fn new(options: Options) -> ModelFinder {
        ModelFinder { options }
    }

    /// Solves the problem, returning the verdict and a run report.
    ///
    /// A scratch run is a fresh [`Session`] over `problem.formula`
    /// answering the one query `true`: the solver sees exactly the
    /// base CNF, with no activation literal. The report's translation
    /// and solver counters are the session's totals.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] if the formula violates arity discipline.
    pub fn solve(&self, problem: &Problem) -> Result<(Verdict, Report), TypeError> {
        let t0 = Instant::now();
        let mut session = Session::new(
            &problem.schema,
            &problem.bounds,
            &problem.formula,
            self.options.clone(),
        )?;
        // The deadline covers translation too: the query gets what is left.
        session.set_deadline(
            self.options
                .deadline
                .map(|d| d.saturating_sub(t0.elapsed())),
        );
        let (verdict, mut report) = session.solve(&Formula::True)?;
        let stats = session.stats();
        report.matrix_cells = stats.matrix_cells;
        report.tseitin_clauses = stats.tseitin_clauses;
        report.translate_time = stats.translate_time + stats.encode_time;
        report.solver_stats = session.solver_stats();
        report.proof = session.take_proof();
        Ok((verdict, report))
    }
}

/// Warns (once per process) that a symmetry-breaking request was
/// downgraded because the formula pins atoms. The downgrade itself is
/// also visible programmatically via [`Report::symmetry_downgraded`]
/// and the `sym.downgraded` stats counter.
pub(crate) fn warn_symmetry_downgrade() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        eprintln!(
            "warning: symmetry breaking downgraded: the formula pins atoms by \
             identity (non-empty constant expression), which lex-leader \
             predicates over bounds symmetries would make unsound; solving \
             without symmetry breaking"
        );
    });
}

/// Reads a satisfying assignment back into a relational [`Instance`].
pub(crate) fn decode(
    schema: &Schema,
    bounds: &Bounds,
    rel_inputs: &[std::collections::BTreeMap<relational::Tuple, u32>],
    input_vars: &std::collections::HashMap<u32, Var>,
    solver: &Solver,
) -> Instance {
    let mut inst = Instance::empty(schema, bounds.universe_size());
    for (id, d) in schema.iter() {
        let mut value = bounds.lower(id).clone();
        let _ = d;
        for (tuple, input_idx) in &rel_inputs[id.index()] {
            // Inputs outside the root's cone of influence have no SAT
            // variable; they are unconstrained, so leave them absent.
            if let Some(var) = input_vars.get(input_idx) {
                if solver.model_value(*var) == Some(true) {
                    value.insert(tuple.clone());
                }
            }
        }
        inst.set(id, value);
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::patterns;
    use relational::schema::rel;
    use relational::{eval_formula, TupleSet};

    fn simple_problem() -> (Problem, relational::RelId) {
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let bounds = Bounds::new(&schema, 3);
        let formula = patterns::acyclic(&rel(r)).and(&rel(r).some());
        (
            Problem {
                schema,
                bounds,
                formula,
            },
            r,
        )
    }

    #[test]
    fn finds_satisfying_instance() {
        let (problem, r) = simple_problem();
        let (verdict, report) = ModelFinder::new(Options::default())
            .solve(&problem)
            .unwrap();
        let inst = verdict.instance().expect("sat");
        assert!(!inst.get(r).is_empty());
        assert!(eval_formula(&problem.schema, inst, &problem.formula).unwrap());
        assert!(report.sat_vars > 0);
    }

    #[test]
    fn unsat_when_formula_contradictory() {
        let (mut problem, _) = simple_problem();
        // r must be non-empty, acyclic, and empty: contradiction.
        let r = problem.schema.find("r").unwrap();
        problem.formula = problem.formula.and(&rel(r).no());
        let (verdict, _) = ModelFinder::new(Options::default())
            .solve(&problem)
            .unwrap();
        assert!(verdict.is_unsat());
    }

    #[test]
    fn symmetry_breaking_preserves_satisfiability() {
        let (problem, _) = simple_problem();
        let (v1, _) = ModelFinder::new(Options::default())
            .solve(&problem)
            .unwrap();
        let (v2, r2) = ModelFinder::new(Options::check()).solve(&problem).unwrap();
        assert!(v1.instance().is_some());
        assert!(v2.instance().is_some());
        assert!(r2.symmetry_classes >= 1);
        // The symmetric model must still satisfy the formula.
        assert!(eval_formula(&problem.schema, v2.instance().unwrap(), &problem.formula).unwrap());
    }

    #[test]
    fn exact_bounds_need_no_search() {
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let mut bounds = Bounds::new(&schema, 2);
        bounds.bound_exact(r, TupleSet::from_pairs([(0, 1)]));
        let formula = rel(r).some();
        let problem = Problem {
            schema,
            bounds,
            formula,
        };
        let (verdict, report) = ModelFinder::new(Options::default())
            .solve(&problem)
            .unwrap();
        assert!(verdict.instance().is_some());
        assert_eq!(report.inputs, 0);
    }

    #[test]
    fn closure_strategies_agree() {
        let (problem, _) = simple_problem();
        for strategy in [
            ClosureStrategy::IterativeSquaring,
            ClosureStrategy::Unrolled,
        ] {
            let opts = Options {
                closure: strategy,
                ..Options::default()
            };
            let (verdict, _) = ModelFinder::new(opts).solve(&problem).unwrap();
            assert!(verdict.instance().is_some(), "{strategy:?}");
        }
    }
}
