//! Incremental model finding sessions.
//!
//! A [`Session`] amortizes the fixed cost of a family of closely related
//! queries — the same (schema, bounds) universe, the same base formula
//! (well-formedness + axioms), but a different assertion or litmus
//! postcondition each time. Three layers persist across queries:
//!
//! 1. **Translation** ([`IncrementalTranslator`]): relation matrices are
//!    allocated once, and structural hashing dedups any subcircuit later
//!    queries share with earlier ones (closure squaring chains, join
//!    products, quantifier expansions).
//! 2. **Encoding** ([`CircuitEncoder`]): Tseitin clauses are emitted only
//!    for gates not already in the solver, so a query pays CNF cost only
//!    for its genuinely new subformula.
//! 3. **Search** ([`satsolver::Solver`]): one long-lived CDCL solver keeps
//!    learnt clauses, VSIDS activities, and saved phases. Each query's
//!    root is guarded by a fresh activation literal `act` via the clause
//!    `¬act ∨ root`; the query is solved with `act` assumed and retired
//!    afterwards with a permanent unit `¬act`, so its constraint can never
//!    leak into later queries. A query that translates to constant true
//!    is not encoded and gets no activation literal: the solver searches
//!    exactly the base CNF, with no assumptions.
//!
//! That last rule makes a scratch [`crate::ModelFinder`] run nothing but
//! a fresh session over `base ∧ query` answering the query `true`, so
//! the scratch-versus-session regression tests compare a fresh session
//! with a reused one: same verdicts, different work.

use std::time::{Duration, Instant};

use relational::{Bounds, Formula, Instance, Schema, TypeError};
use satsolver::{CancelToken, Interrupt, Lit, Proof, SolveResult, Solver, SolverStats};

use crate::circuit::{CircuitEncoder, GateId};
use crate::finder::{decode, Options, Report, Verdict};
use crate::symmetry::{break_symmetries, formula_pins_atoms, symmetry_classes};
use crate::translate::IncrementalTranslator;

/// Cumulative work counters for a session.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Queries dispatched (solve calls; enumerate counts once).
    pub queries: u64,
    /// Total time translating formulas to circuit gates.
    pub translate_time: Duration,
    /// Total time Tseitin-encoding new gates into the solver.
    pub encode_time: Duration,
    /// Total time inside the SAT solver.
    pub solve_time: Duration,
    /// Gates whose defining clauses were emitted.
    pub gates_encoded: u64,
    /// Gates found already encoded by an earlier query — translation work
    /// a scratch run would have repeated.
    pub gate_cache_hits: u64,
    /// Sparse matrix cells materialized by the session's translator.
    pub matrix_cells: u64,
    /// Tseitin defining clauses emitted by the session's encoder.
    pub tseitin_clauses: u64,
    /// What opening the session cost (included in the totals above).
    pub open: OpenStats,
}

impl SessionStats {
    /// Records these cumulative counters and timings into an
    /// observability registry under `session.*`/`time.*` names. No-op
    /// for a disabled registry.
    pub fn record_obs(&self, reg: &obs::Registry) {
        if !reg.enabled() {
            return;
        }
        reg.add("session.queries", self.queries);
        reg.add("session.gates_encoded", self.gates_encoded);
        reg.add("session.gate_cache_hits", self.gate_cache_hits);
        reg.add("session.matrix_cells", self.matrix_cells);
        reg.add("session.tseitin_clauses", self.tseitin_clauses);
        reg.record_duration("time.session_translate", self.translate_time);
        reg.record_duration("time.session_encode", self.encode_time);
        reg.record_duration("time.session_solve", self.solve_time);
    }
}

/// The one-time cost of [`Session::new`]: translating and encoding the
/// base formula and asserting it at level 0, before any query.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenStats {
    /// Time translating the base formula (and any symmetry-breaking
    /// predicates).
    pub translate_time: Duration,
    /// Time Tseitin-encoding the base and asserting its root.
    pub encode_time: Duration,
    /// Circuit gates after the base translation.
    pub gates: u64,
    /// Tseitin defining clauses the base emitted.
    pub tseitin_clauses: u64,
    /// Level-0 propagations of asserting the base (its root unit and the
    /// constant gates' units): the search work every query inherits and
    /// no query report counts.
    pub propagations: u64,
}

impl OpenStats {
    /// Records one open under `session.open.*` (counters) and
    /// `time.session_open_*` (timings; their count is the number of
    /// opens). Callers record each session once, when it is created.
    /// No-op for a disabled registry.
    pub fn record_obs(&self, reg: &obs::Registry) {
        if !reg.enabled() {
            return;
        }
        reg.add("session.open.gates", self.gates);
        reg.add("session.open.tseitin_clauses", self.tseitin_clauses);
        reg.add("session.open.propagations", self.propagations);
        reg.record_duration("time.session_open_translate", self.translate_time);
        reg.record_duration("time.session_open_encode", self.encode_time);
    }
}

/// An incremental model-finding session over one (schema, bounds, base
/// formula) triple.
///
/// # Examples
///
/// ```
/// use relational::{Schema, Bounds, patterns};
/// use relational::schema::rel;
/// use modelfinder::{Session, Options, Verdict};
///
/// let mut schema = Schema::new();
/// let r = schema.relation("r", 2);
/// let bounds = Bounds::new(&schema, 3);
/// let base = patterns::acyclic(&rel(r));
/// let mut session = Session::new(&schema, &bounds, &base, Options::default())?;
/// // Queries against the shared base, answered on one solver:
/// let (v1, _) = session.solve(&rel(r).some())?;
/// assert!(v1.instance().is_some());
/// let (v2, _) = session.solve(&rel(r).some().not())?;
/// assert!(v2.instance().is_some());
/// # Ok::<(), relational::TypeError>(())
/// ```
#[derive(Debug)]
pub struct Session {
    translator: IncrementalTranslator,
    encoder: CircuitEncoder,
    solver: Solver,
    base_root: GateId,
    options: Options,
    num_symmetry_classes: usize,
    /// True when symmetry breaking was requested but the base formula
    /// pins atoms, so the predicates were skipped (see
    /// [`formula_pins_atoms`]). Reported on every query's [`Report`].
    symmetry_downgraded: bool,
    stats: SessionStats,
    /// The assumption core of the most recent query, when it was `Unsat`.
    last_core: Option<Vec<Lit>>,
}

impl Session {
    /// Creates a session: translates and encodes `base` once, asserting
    /// it permanently in the solver.
    ///
    /// With [`Options::symmetry_breaking`] on, lex-leader predicates for
    /// the bounds' interchangeable-atom classes are asserted alongside the
    /// base. They are sound only for queries invariant under
    /// bound-respecting atom permutations — in particular, queries that
    /// pin individual atoms through `Expr::Const` may be misjudged, and
    /// [`Session::enumerate`] refuses to run (the predicates cannot be
    /// retracted). Use [`Options::default`] for such workloads.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] if `base` violates arity discipline.
    pub fn new(
        schema: &Schema,
        bounds: &Bounds,
        base: &Formula,
        options: Options,
    ) -> Result<Session, TypeError> {
        let mut options = options;
        let t0 = Instant::now();
        let translate_span = options.tracer.span("translate");
        let mut translator = IncrementalTranslator::new(schema, bounds);
        let mut base_root = translator.formula(base)?;
        let mut num_symmetry_classes = 0;
        let mut symmetry_downgraded = false;
        if options.symmetry_breaking && formula_pins_atoms(base) {
            // The base pins atoms, so lex-leader predicates over bounds
            // symmetries would be unsound; run the whole session without
            // them (which also re-permits enumeration).
            options.symmetry_breaking = false;
            symmetry_downgraded = true;
            crate::finder::warn_symmetry_downgrade();
        }
        if options.symmetry_breaking {
            let classes = symmetry_classes(schema, bounds);
            num_symmetry_classes = classes.len();
            let (circuit, rel_inputs) = translator.parts_mut();
            let sym = break_symmetries(schema, bounds, circuit, rel_inputs, &classes);
            base_root = circuit.and(base_root, sym);
        }
        drop(translate_span);
        let translate_time = t0.elapsed();
        let gates = translator.circuit().num_gates() as u64;

        let t1 = Instant::now();
        let mut solver = Solver::new();
        if options.proof_logging {
            solver.enable_proof_logging();
        }
        solver.set_tracer(&options.tracer);
        if let Some(interval) = options.reduce_interval {
            solver.set_reduce_interval(interval);
        }
        let encode_span = options.tracer.span("encode");
        let mut encoder = CircuitEncoder::new();
        let base_lit = encoder.encode(translator.circuit(), base_root, &mut solver);
        solver.add_clause(&[base_lit]);
        drop(encode_span);
        let open = OpenStats {
            translate_time,
            encode_time: t1.elapsed(),
            gates,
            tseitin_clauses: encoder.tseitin_clauses(),
            propagations: solver.stats().propagations,
        };
        let stats = SessionStats {
            translate_time: open.translate_time,
            encode_time: open.encode_time,
            open,
            ..SessionStats::default()
        };

        Ok(Session {
            translator,
            encoder,
            solver,
            base_root,
            options,
            num_symmetry_classes,
            symmetry_downgraded,
            stats,
            last_core: None,
        })
    }

    /// Replaces the per-query wall-clock budget.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.options.deadline = deadline;
    }

    /// Replaces the per-query conflict budget.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.options.conflict_budget = budget;
    }

    /// Replaces the per-query cancellation token.
    pub fn set_cancel(&mut self, token: Option<CancelToken>) {
        self.options.cancel = token;
    }

    /// Replaces the session's event tracer: subsequent queries emit
    /// translate/encode/solve spans and the solver's milestone events
    /// into it.
    pub fn set_tracer(&mut self, tracer: obs::trace::Tracer) {
        self.solver.set_tracer(&tracer);
        self.options.tracer = tracer;
    }

    /// Cumulative work counters, and what the open cost
    /// ([`SessionStats::open`]).
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            gates_encoded: self.encoder.gates_encoded(),
            gate_cache_hits: self.encoder.cache_hits(),
            matrix_cells: self.translator.matrix_cells(),
            tseitin_clauses: self.encoder.tseitin_clauses(),
            ..self.stats
        }
    }

    /// Searches for an instance satisfying `base ∧ formula`.
    ///
    /// Same verdict as [`crate::ModelFinder::solve`] on the conjoined
    /// problem, but incremental: only `formula`'s new subcircuit is
    /// translated and encoded, and the solver resumes with everything it
    /// learnt from earlier queries. A `formula` that translates to
    /// constant true adds nothing: the search runs on the base CNF with
    /// no assumptions, which is exactly a scratch run.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] if `formula` violates arity discipline.
    pub fn solve(&mut self, formula: &Formula) -> Result<(Verdict, Report), TypeError> {
        assert!(
            !(self.options.symmetry_breaking && formula_pins_atoms(formula)),
            "query pins atoms by identity, but this session's permanently \
             asserted symmetry-breaking predicates would make the verdict \
             unsound; create the session with Options::default()"
        );
        let t0 = Instant::now();
        let deadline = self.options.deadline.map(|d| t0 + d);
        self.stats.queries += 1;

        let cells_before = self.translator.matrix_cells();
        let translate_span = self.options.tracer.span("translate");
        let query_root = self.translator.formula(formula)?;
        drop(translate_span);
        let translate_time = t0.elapsed();
        self.stats.translate_time += translate_time;

        let t1 = Instant::now();
        let hits_before = self.encoder.cache_hits();
        let tseitin_before = self.encoder.tseitin_clauses();
        // A constant-true query adds nothing to the base: it is not
        // encoded and needs no activation literal, so the solver sees
        // exactly the base CNF with no assumptions.
        let act = if self.translator.circuit().is_true(query_root) {
            None
        } else {
            let encode_span = self.options.tracer.span("encode");
            let root_lit =
                self.encoder
                    .encode(self.translator.circuit(), query_root, &mut self.solver);
            let act = self.solver.new_var();
            self.solver.add_clause(&[act.negative(), root_lit]);
            drop(encode_span);
            Some(act.positive())
        };
        self.stats.encode_time += t1.elapsed();

        let mut report = Report {
            gates: self.translator.circuit().num_gates(),
            inputs: self.translator.circuit().num_inputs(),
            sat_vars: self.solver.num_vars(),
            sat_clauses: self.solver.num_clauses(),
            symmetry_classes: self.num_symmetry_classes,
            symmetry_downgraded: self.symmetry_downgraded,
            translate_time,
            gate_cache_hits: self.encoder.cache_hits() - hits_before,
            matrix_cells: self.translator.matrix_cells() - cells_before,
            tseitin_clauses: self.encoder.tseitin_clauses() - tseitin_before,
            ..Report::default()
        };

        self.solver
            .set_conflict_budget(self.options.conflict_budget);
        self.solver
            .set_propagation_budget(self.options.propagation_budget);
        self.solver.set_deadline(deadline);
        self.solver.set_cancel_token(self.options.cancel.clone());

        // The deadline covers translation and encoding too.
        let expired = deadline.is_some_and(|d| Instant::now() >= d);
        let cancelled = self
            .options
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled);
        if expired || cancelled {
            report.interrupted = Some(if cancelled {
                Interrupt::Cancelled
            } else {
                Interrupt::Deadline
            });
            self.last_core = None;
            self.retire_query(act);
            return Ok((Verdict::Unknown, report));
        }

        let t2 = Instant::now();
        let stats_before = self.solver.stats();
        let solve_span = self.options.tracer.span("solve");
        let result = self.solver.solve_with_assumptions(act.as_slice());
        drop(solve_span);
        report.solve_time = t2.elapsed();
        self.stats.solve_time += report.solve_time;
        report.solver_stats = self.solver.stats().since(&stats_before);

        let verdict = match result {
            SolveResult::Unsat => {
                self.last_core = Some(self.solver.final_conflict().to_vec());
                Verdict::Unsat
            }
            SolveResult::Unknown(reason) => {
                self.last_core = None;
                report.interrupted = Some(reason);
                Verdict::Unknown
            }
            SolveResult::Sat => {
                self.last_core = None;
                Verdict::Sat(decode(
                    self.translator.schema(),
                    self.translator.bounds(),
                    self.translator.rel_inputs(),
                    self.encoder.input_vars(),
                    &self.solver,
                ))
            }
        };
        self.retire_query(act);
        Ok((verdict, report))
    }

    /// Enumerates instances satisfying `base ∧ formula`, invoking `visit`
    /// for each, up to `limit`. Returns the number found.
    ///
    /// Blocking clauses carry the query's activation literal, so they
    /// retire together with the query instead of constraining later ones.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] if `formula` violates arity discipline.
    ///
    /// # Panics
    ///
    /// Panics if the session was created with symmetry breaking: its
    /// predicates are permanently asserted and would make the enumeration
    /// incomplete.
    pub fn enumerate<F: FnMut(&Instance)>(
        &mut self,
        formula: &Formula,
        limit: usize,
        mut visit: F,
    ) -> Result<usize, TypeError> {
        assert!(
            !self.options.symmetry_breaking,
            "enumeration on a symmetry-breaking session is incomplete; \
             create the session with Options::default()"
        );
        self.stats.queries += 1;
        self.last_core = None;
        let t0 = Instant::now();
        let query_root = self.translator.formula(formula)?;
        self.stats.translate_time += t0.elapsed();

        let t1 = Instant::now();
        let root_lit = self
            .encoder
            .encode(self.translator.circuit(), query_root, &mut self.solver);
        let act = self.solver.new_var();
        self.solver.add_clause(&[act.negative(), root_lit]);
        // Enumeration is projected onto the inputs both roots can see —
        // the same set a scratch run over `base ∧ formula` would use.
        let block_vars = self
            .encoder
            .cone_input_vars(self.translator.circuit(), &[self.base_root, query_root]);
        self.stats.encode_time += t1.elapsed();

        self.solver
            .set_conflict_budget(self.options.conflict_budget);
        self.solver
            .set_propagation_budget(self.options.propagation_budget);
        self.solver
            .set_deadline(self.options.deadline.map(|d| Instant::now() + d));
        self.solver.set_cancel_token(self.options.cancel.clone());

        let t2 = Instant::now();
        let mut count = 0;
        while count < limit
            && self.solver.solve_with_assumptions(&[act.positive()]) == SolveResult::Sat
        {
            let inst = decode(
                self.translator.schema(),
                self.translator.bounds(),
                self.translator.rel_inputs(),
                self.encoder.input_vars(),
                &self.solver,
            );
            visit(&inst);
            count += 1;
            if block_vars.is_empty() {
                break;
            }
            // A query-local blocking clause: vacuous once `act` retires.
            let mut lits = vec![act.negative()];
            for &v in &block_vars {
                match self.solver.model_value(v) {
                    Some(true) => lits.push(v.negative()),
                    Some(false) => lits.push(v.positive()),
                    None => {}
                }
            }
            if !self.solver.add_clause(&lits) {
                break;
            }
        }
        self.stats.solve_time += t2.elapsed();
        self.retire(act.negative());
        Ok(count)
    }

    /// Permanently disables a query's activation literal so its clauses
    /// (and any blocking clauses carrying it) become vacuous.
    fn retire(&mut self, not_act: satsolver::Lit) {
        self.solver.add_clause(&[not_act]);
    }

    /// Retires a solved query's activation literal, if it has one.
    fn retire_query(&mut self, act: Option<Lit>) {
        if let Some(act) = act {
            self.retire(!act);
        }
    }

    /// The DRAT proof accumulated across every query of this session,
    /// when the session was created with [`Options::proof_logging`].
    ///
    /// The log is append-only, so an incremental
    /// [`satsolver::drat::Checker`] can re-verify just the steps each
    /// query adds; after an `Unsat` query, checking the proof and then
    /// [`expect_core`](satsolver::drat::Checker::expect_core) with
    /// [`Session::last_core`] certifies the verdict.
    pub fn proof(&self) -> Option<&Proof> {
        self.solver.proof()
    }

    /// Moves the proof log out of the session, turning logging off.
    pub(crate) fn take_proof(&mut self) -> Option<Proof> {
        self.solver.take_proof()
    }

    /// The assumption core of the most recent query, `Some` exactly when
    /// that query answered `Unsat`. For session queries the core is over
    /// the query's activation literal: `[act]` when the query formula
    /// conflicts with the base, empty when the base itself (plus retired
    /// activations) became unsatisfiable.
    pub fn last_core(&self) -> Option<&[Lit]> {
        self.last_core.as_deref()
    }

    /// Number of live learnt clauses in the session's solver — the
    /// search state that persists across queries.
    pub fn num_learnts(&self) -> usize {
        self.solver.num_learnts()
    }

    /// Cumulative counters of the session's long-lived solver (across
    /// every query so far) — lets callers assert that cross-query
    /// policies such as learnt-DB reduction actually fire.
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finder::{ModelFinder, Problem};
    use relational::eval_formula;
    use relational::patterns;
    use relational::schema::rel;

    fn acyclic_base() -> (Schema, Bounds, Formula) {
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let bounds = Bounds::new(&schema, 3);
        (schema, bounds, patterns::acyclic(&rel(r)))
    }

    #[test]
    fn session_verdicts_match_scratch() {
        let (schema, bounds, base) = acyclic_base();
        let r = schema.find("r").unwrap();
        let queries = [
            rel(r).some(),
            rel(r).no(),
            rel(r).one(),
            rel(r).join(&rel(r)).some(),
            patterns::irreflexive(&rel(r)).not(),
        ];
        let mut session = Session::new(&schema, &bounds, &base, Options::default()).unwrap();
        let finder = ModelFinder::new(Options::default());
        for q in &queries {
            let (sv, _) = session.solve(q).unwrap();
            let (fv, _) = finder
                .solve(&Problem {
                    schema: schema.clone(),
                    bounds: bounds.clone(),
                    formula: base.and(q),
                })
                .unwrap();
            assert_eq!(
                sv.is_unsat(),
                fv.is_unsat(),
                "session and scratch disagree on {q:?}"
            );
            if let Verdict::Sat(inst) = &sv {
                assert!(eval_formula(&schema, inst, &base.and(q)).unwrap());
            }
        }
    }

    #[test]
    fn queries_do_not_leak_into_later_ones() {
        let (schema, bounds, base) = acyclic_base();
        let r = schema.find("r").unwrap();
        let mut session = Session::new(&schema, &bounds, &base, Options::default()).unwrap();
        // An unsatisfiable query must not poison the session.
        let (v, _) = session.solve(&rel(r).some().and(&rel(r).no())).unwrap();
        assert!(v.is_unsat());
        let (v, _) = session.solve(&rel(r).some()).unwrap();
        assert!(v.instance().is_some());
        // Two contradictory queries each satisfiable on their own.
        let (v1, _) = session.solve(&rel(r).no()).unwrap();
        assert!(v1.instance().is_some());
        let (v2, _) = session.solve(&rel(r).some()).unwrap();
        assert!(v2.instance().is_some());
    }

    #[test]
    fn open_stats_cover_the_base_and_stay_fixed() {
        let (schema, bounds, base) = acyclic_base();
        let r = schema.find("r").unwrap();
        let mut session = Session::new(&schema, &bounds, &base, Options::default()).unwrap();
        let open = session.stats().open;
        assert_eq!(open.gates, session.translator.circuit().num_gates() as u64);
        assert_eq!(open.tseitin_clauses, session.encoder.tseitin_clauses());
        assert_eq!(open.propagations, session.solver_stats().propagations);
        assert!(open.tseitin_clauses > 0 && open.propagations > 0);

        let _ = session.solve(&rel(r).join(&rel(r)).some()).unwrap();
        let after = session.stats();
        assert_eq!(after.open.gates, open.gates);
        assert_eq!(after.open.propagations, open.propagations);
        assert!(after.tseitin_clauses > open.tseitin_clauses);

        let reg = obs::Registry::new();
        open.record_obs(&reg);
        open.record_obs(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("session.open.gates"), 2 * open.gates);
        assert_eq!(
            snap.counter("session.open.propagations"),
            2 * open.propagations
        );
    }

    #[test]
    fn later_queries_hit_the_gate_cache() {
        let (schema, bounds, base) = acyclic_base();
        let r = schema.find("r").unwrap();
        let mut session = Session::new(&schema, &bounds, &base, Options::default()).unwrap();
        // Both queries contain the subcircuit r;r.
        let (_, _) = session.solve(&rel(r).join(&rel(r)).some()).unwrap();
        let (_, r2) = session
            .solve(&rel(r).join(&rel(r)).join(&rel(r)).some())
            .unwrap();
        assert!(
            r2.gate_cache_hits > 0,
            "second query should reuse the r;r encoding"
        );
    }

    #[test]
    fn session_enumerate_matches_scratch_count() {
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let bounds = Bounds::new(&schema, 2);
        let mut session =
            Session::new(&schema, &bounds, &Formula::True, Options::default()).unwrap();
        // `one r` has exactly 4 models over a 2-atom universe.
        let n = session.enumerate(&rel(r).one(), 100, |_| {}).unwrap();
        assert_eq!(n, 4);
        // `no r` has exactly 1; the blocking clauses above must be gone.
        let n = session.enumerate(&rel(r).no(), 100, |_| {}).unwrap();
        assert_eq!(n, 1);
        // And `some r` has 2^4 - 1.
        let n = session.enumerate(&rel(r).some(), 100, |_| {}).unwrap();
        assert_eq!(n, 15);
    }

    #[test]
    fn constant_true_query_solves_the_base_cnf_alone() {
        // A total order on 3 atoms always has r;r ∩ r ≠ ∅: an
        // unsatisfiable base that takes real search to refute.
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let bounds = Bounds::new(&schema, 3);
        let base = patterns::strict_total_order_on(&rel(r), &relational::Expr::Univ)
            .and(&rel(r).join(&rel(r)).intersect(&rel(r)).no());
        let mut session = Session::new(
            &schema,
            &bounds,
            &base,
            Options::default().with_proof_logging(),
        )
        .unwrap();
        let vars = session.solver.num_vars();
        let clauses = session.solver.num_clauses();
        let (v, report) = session.solve(&Formula::True).unwrap();
        assert!(v.is_unsat());
        // The search ran on the base CNF: no encoding, no activation
        // literal, and no retiring unit afterwards.
        assert_eq!((report.sat_vars, report.sat_clauses), (vars, clauses));
        assert_eq!(session.solver.num_vars(), vars);
        assert_eq!(session.last_core(), Some(&[][..]));
        let proof = session.proof().expect("proof logging enabled");
        crate::drat::certify_unsat(proof, &[]).expect("formula-level Unsat certifies");
    }

    #[test]
    #[should_panic(expected = "enumeration on a symmetry-breaking session")]
    fn enumerate_rejects_symmetry_breaking() {
        let (schema, bounds, base) = acyclic_base();
        let mut session = Session::new(&schema, &bounds, &base, Options::check()).unwrap();
        let r = schema.find("r").unwrap();
        let _ = session.enumerate(&rel(r).some(), 10, |_| {});
    }

    #[test]
    fn per_query_deadline_yields_unknown_not_poison() {
        let (schema, bounds, base) = acyclic_base();
        let r = schema.find("r").unwrap();
        let mut session = Session::new(&schema, &bounds, &base, Options::default()).unwrap();
        session.set_deadline(Some(Duration::ZERO));
        let (v, report) = session.solve(&rel(r).some()).unwrap();
        assert_eq!(v, Verdict::Unknown);
        assert_eq!(report.interrupted, Some(Interrupt::Deadline));
        // Clearing the deadline restores normal solving.
        session.set_deadline(None);
        let (v, _) = session.solve(&rel(r).some()).unwrap();
        assert!(v.instance().is_some());
    }

    #[test]
    fn reduce_db_keeps_firing_across_session_queries() {
        // Regression test for the learnt-clause retention bug: the old
        // `max_learnt` threshold grew geometrically on every sweep and
        // was never reset between queries, so a long-lived session
        // progressively stopped deleting learnt clauses. The
        // conflict-cadence policy must keep sweeping on late queries.
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let bounds = Bounds::new(&schema, 6);
        let base = patterns::acyclic(&rel(r));
        let mut session = Session::new(
            &schema,
            &bounds,
            &base,
            Options::default().with_reduce_interval(1),
        )
        .unwrap();
        // Warm up the session with many easy queries: the point is query
        // *count*, not difficulty — the old policy's threshold only ever
        // ratcheted up across queries, so late queries stopped sweeping.
        let queries = [
            rel(r).some(),
            rel(r).no(),
            rel(r).one(),
            rel(r).join(&rel(r)).some(),
            patterns::irreflexive(&rel(r)),
        ];
        for _ in 0..4 {
            for q in &queries {
                let _ = session.solve(q).unwrap();
            }
        }
        // Late, conflict-heavy work on the same solver must still run
        // reduction sweeps. Enumeration blocks each model it finds, so
        // walking hundreds of models forces conflicts regardless of how
        // lucky the saved phases are; the fresh UNSAT query adds an
        // exhaustive search on top.
        let before = session.solver.stats();
        let _ = session.enumerate(&rel(r).some(), 300, |_| {}).unwrap();
        let fresh = patterns::strict_total_order_on(&rel(r), &relational::Expr::Univ)
            .and(&rel(r).join(&rel(r)).intersect(&rel(r)).no());
        let (v, _) = session.solve(&fresh).unwrap();
        assert!(
            v.is_unsat(),
            "a total order on 6 atoms always has r;r ∩ r ≠ ∅"
        );
        let late = session.solver.stats().since(&before);
        assert!(
            late.conflicts > 0,
            "late phase produced no conflicts; test needs harder queries"
        );
        assert!(
            late.reduce_sweeps > 0,
            "reduce_db stopped firing on late session queries \
             ({} conflicts in the late phase)",
            late.conflicts
        );
    }
}
