//! The CDCL search engine.
//!
//! A conflict-driven clause-learning solver in the MiniSat lineage,
//! modernized along Glucose/CaDiCaL lines:
//!
//! * two-watched-literal propagation with blocking literals, and
//!   special-cased binary-clause watch lists that inline the other
//!   literal so binary propagation never dereferences clause memory;
//! * first-UIP conflict analysis with recursive clause minimization
//!   (MiniSat's `lit_redundant` with an abstract-level filter) into
//!   reused scratch buffers, so analysis allocates nothing per conflict;
//! * LBD ("glue") based learnt-clause retention: the literal-block
//!   distance is computed at learn time, refreshed whenever a learnt
//!   clause re-enters conflict analysis, glue ≤ [`GLUE_LBD`] clauses are
//!   never deleted, and reduction sweeps sort by (LBD, activity);
//! * conflict-cadence database reduction: a sweep runs every
//!   `reduce_interval` conflicts (the interval grows linearly), a
//!   schedule that keeps firing across incremental
//!   [`Solver::solve_with_assumptions`] queries — unlike the previous
//!   ever-growing `max_learnt` threshold, which a long-lived session
//!   would outgrow until deletion silently stopped;
//! * VSIDS variable activities with phase saving;
//! * Luby-sequence restarts whose position persists across incremental
//!   queries instead of rewinding to the start of the schedule;
//! * bump-arena clause storage with compact inline headers
//!   ([`crate::arena`]).

use std::time::Instant;

use crate::arena::{Arena, ArenaMode, ClauseRef};
use crate::heap::VarHeap;
use crate::interrupt::{CancelToken, Interrupt};
use crate::proof::Proof;
use crate::types::{LBool, Lit, Var};

/// The outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::model_value`].
    Sat,
    /// The clause set is unsatisfiable.
    Unsat,
    /// The solve stopped early for the carried reason (budget exhausted,
    /// deadline, or external cancellation). Partial statistics for the
    /// interrupted run are available through [`Solver::stats`].
    Unknown(Interrupt),
}

impl SolveResult {
    /// True iff the solve ended without a verdict.
    pub fn is_unknown(&self) -> bool {
        matches!(self, SolveResult::Unknown(_))
    }
}

/// Learnt clauses with LBD at or below this glue level are never deleted
/// by database reduction (Glucose's "glue clause" protection).
pub const GLUE_LBD: u32 = 2;

/// Conflicts before the first learnt-database reduction sweep.
const REDUCE_INTERVAL_START: u64 = 2000;

/// Linear growth of the sweep interval: each sweep pushes the next one
/// this many conflicts further out. Linear growth keeps sweeps firing
/// for the whole life of an incremental session (geometric growth is
/// what caused the cross-query retention bug this replaced).
const REDUCE_INTERVAL_INC: u64 = 300;

/// Counters describing the work a solve performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Propagations made inside [`Solver::add_clause`] when a unit
    /// clause is asserted at level 0 (a subset of `propagations`).
    pub root_propagations: u64,
    /// Number of enqueues produced by the binary-clause watch lists
    /// (a subset of implications; these never touch clause memory).
    pub binary_propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of clauses learnt from conflict analysis.
    pub learnt_clauses: u64,
    /// Total literals across all learnt clauses.
    pub learnt_literals: u64,
    /// Total learn-time LBD across all learnt clauses
    /// (`lbd_sum / learnt_clauses` is the mean glue).
    pub lbd_sum: u64,
    /// Learnt clauses whose learn-time LBD was at most [`GLUE_LBD`]
    /// (these are permanently protected from deletion).
    pub lbd_glue_learnts: u64,
    /// Number of learnt-database reduction sweeps.
    pub reduce_sweeps: u64,
    /// Number of learnt clauses deleted by database reduction.
    pub deleted_clauses: u64,
}

/// Implements the per-field operations of [`SolverStats`] from one list
/// of its fields; each field's stat name is `solver.<field>`.
macro_rules! solver_stats_fields {
    ($($field:ident),* $(,)?) => {
        impl SolverStats {
            /// Adds every counter to `reg` under its `solver.<field>`
            /// name (no-op for a disabled registry).
            pub fn record_obs(&self, reg: &obs::Registry) {
                $(reg.add(concat!("solver.", stringify!($field)), self.$field);)*
            }

            /// The work done since `before`, an earlier snapshot of the
            /// same solver's cumulative counters.
            pub fn since(&self, before: &SolverStats) -> SolverStats {
                SolverStats {
                    $($field: self.$field - before.$field,)*
                }
            }
        }
    };
}

solver_stats_fields!(
    conflicts,
    decisions,
    propagations,
    root_propagations,
    binary_propagations,
    restarts,
    learnt_clauses,
    learnt_literals,
    lbd_sum,
    lbd_glue_learnts,
    reduce_sweeps,
    deleted_clauses,
);

#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// A watch-list entry for a binary clause: the implied literal is stored
/// inline, so propagation needs no clause dereference at all. The clause
/// handle is kept only for conflict analysis (reason bookkeeping).
#[derive(Debug, Clone, Copy)]
struct BinWatcher {
    other: Lit,
    cref: ClauseRef,
}

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use satsolver::{Solver, SolveResult};
///
/// let mut solver = Solver::new();
/// let a = solver.new_var().positive();
/// let b = solver.new_var().positive();
/// solver.add_clause(&[a, b]);
/// solver.add_clause(&[!a, b]);
/// solver.add_clause(&[a, !b]);
/// assert_eq!(solver.solve(), SolveResult::Sat);
/// assert_eq!(solver.model_value(a.var()), Some(true));
/// assert_eq!(solver.model_value(b.var()), Some(true));
/// ```
#[derive(Debug, Default)]
pub struct Solver {
    db: Arena,
    /// Watch lists for clauses of three or more literals.
    watches: Vec<Vec<Watcher>>,
    /// Watch lists for binary clauses (other literal inlined).
    bin_watches: Vec<Vec<BinWatcher>>,
    assigns: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// Conflict-analysis scratch, reused across conflicts: the learnt
    /// clause under construction, the reason-chain walk of
    /// [`Solver::lit_redundant`], and every variable whose `seen` mark
    /// must be cleared when analysis ends.
    learnt: Vec<Lit>,
    analyze_stack: Vec<Var>,
    analyze_toclear: Vec<Var>,
    lbd: LbdStamps,
    ok: bool,
    stats: SolverStats,
    /// Conflicts since the last reduction sweep; a sweep fires when this
    /// reaches `reduce_interval`. Both persist across incremental queries.
    conflicts_since_reduce: u64,
    reduce_interval: u64,
    /// How much each sweep pushes `reduce_interval` out; zeroed by
    /// [`Solver::set_reduce_interval`] to pin a fixed cadence.
    reduce_interval_inc: u64,
    /// Position in the Luby restart schedule; persists across
    /// incremental queries so a session's restart cadence keeps maturing.
    luby_index: u32,
    restart_limit: u64,
    conflicts_this_restart: u64,
    conflict_budget: Option<u64>,
    propagation_budget: Option<u64>,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    model: Vec<LBool>,
    final_conflict: Vec<Lit>,
    proof: Option<Proof>,
    trace: Option<TraceHooks>,
}

/// Pre-interned trace event ids, resolved once in
/// [`Solver::set_tracer`] so the search loop emits without locking.
#[derive(Debug, Clone)]
struct TraceHooks {
    tracer: obs::trace::Tracer,
    restart: obs::trace::NameId,
    reduce: obs::trace::NameId,
    conflicts: obs::trace::NameId,
}

/// Per-decision-level stamps for LBD computation (generation-counter
/// scheme: no clearing between measurements).
#[derive(Debug, Default)]
struct LbdStamps {
    stamp: Vec<u64>,
    gen: u64,
}

impl LbdStamps {
    /// The literal-block distance (LBD, "glue") of a clause: the number
    /// of distinct nonzero decision levels among its literals.
    fn measure(&mut self, level: &[u32], lits: &[Lit]) -> u32 {
        self.gen += 1;
        let mut lbd = 0;
        for &l in lits {
            let lev = level[l.var().index()] as usize;
            if lev == 0 {
                continue;
            }
            if lev >= self.stamp.len() {
                self.stamp.resize(lev + 1, 0);
            }
            if self.stamp[lev] != self.gen {
                self.stamp[lev] = self.gen;
                lbd += 1;
            }
        }
        lbd
    }
}

/// Conflict-milestone sampling period: the conflict counter is traced
/// once every this many conflicts, so tracing cost is amortized to
/// nothing on the search hot path.
const TRACE_CONFLICT_PERIOD: u64 = 2048;

/// The arena mode `Solver::new` uses, resolved once per process from the
/// `SATSOLVER_ARENA` environment variable (`huge` selects
/// [`ArenaMode::HugePages`]) so every layer of the stack can switch
/// without plumbing a flag through five crates.
fn default_arena_mode() -> ArenaMode {
    static MODE: std::sync::OnceLock<ArenaMode> = std::sync::OnceLock::new();
    *MODE.get_or_init(|| match std::env::var("SATSOLVER_ARENA") {
        Ok(v) if v == "huge" => ArenaMode::HugePages,
        _ => ArenaMode::Standard,
    })
}

impl Solver {
    /// Creates a solver with no variables or clauses.
    ///
    /// The clause arena uses [`ArenaMode::Standard`] unless the
    /// `SATSOLVER_ARENA=huge` environment variable selects the
    /// huge-page mode; see [`Solver::with_arena_mode`] for explicit
    /// control.
    pub fn new() -> Solver {
        Solver::with_arena_mode(default_arena_mode())
    }

    /// Creates a solver whose clause arena uses the given allocation
    /// mode. Allocation only; verdicts and counters are identical
    /// across modes.
    pub fn with_arena_mode(mode: ArenaMode) -> Solver {
        Solver {
            db: Arena::new(mode),
            var_inc: 1.0,
            ok: true,
            reduce_interval: REDUCE_INTERVAL_START,
            reduce_interval_inc: REDUCE_INTERVAL_INC,
            restart_limit: 100 * luby(0),
            ..Solver::default()
        }
    }

    /// Adds a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assigns.len());
        self.assigns.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.heap.grow_to(self.assigns.len());
        self.heap.insert(v, &self.activity);
        v
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of live clauses (original + learnt).
    pub fn num_clauses(&self) -> usize {
        self.db.live_count()
    }

    /// Statistics for all solving performed so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Limits the number of conflicts any single `solve` call may spend.
    ///
    /// A budget of `N` permits exactly `N` conflicts; when the `N`-th
    /// conflict occurs, [`Solver::solve`] returns
    /// [`SolveResult::Unknown`] with [`Interrupt::ConflictBudget`].
    /// `None` removes the limit.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Limits the number of propagations any single `solve` call may
    /// spend. `None` removes the limit.
    pub fn set_propagation_budget(&mut self, budget: Option<u64>) {
        self.propagation_budget = budget;
    }

    /// Sets a wall-clock deadline for subsequent `solve` calls; the search
    /// loop polls the clock and exits with [`Interrupt::Deadline`] once it
    /// passes. `None` removes the deadline.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Installs a cancellation token polled by the search loop. Firing it
    /// from another thread makes `solve` return
    /// [`SolveResult::Unknown`] with [`Interrupt::Cancelled`] at the next
    /// loop iteration. `None` removes the token.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Pins the conflict cadence of learnt-database reduction: a sweep
    /// fires every `interval` conflicts, with the default linear
    /// interval growth disabled so the cadence stays fixed. The default
    /// schedule (sweep after 2000 conflicts, each sweep pushing the next
    /// 300 further out) is tuned for real workloads; tests and fuzzers
    /// pin a low cadence to force sweeps on small instances.
    pub fn set_reduce_interval(&mut self, interval: u64) {
        self.reduce_interval = interval.max(1);
        self.reduce_interval_inc = 0;
        self.conflicts_since_reduce = 0;
    }

    /// Installs an event tracer. The search loop then emits `sat.restart`
    /// and `sat.reduce_db` instants plus a `sat.conflicts` counter sample
    /// every [`TRACE_CONFLICT_PERIOD`] conflicts — rare milestone events
    /// only, so the hot path stays hot. A disabled tracer uninstalls the
    /// hooks.
    pub fn set_tracer(&mut self, tracer: &obs::trace::Tracer) {
        self.trace = if tracer.enabled() {
            Some(TraceHooks {
                restart: tracer.intern("sat.restart"),
                reduce: tracer.intern("sat.reduce_db"),
                conflicts: tracer.intern("sat.conflicts"),
                tracer: tracer.clone(),
            })
        } else {
            None
        };
    }

    /// Turns on DRAT proof logging. From this point on, every clause
    /// added, learnt, or deleted is recorded in an append-only [`Proof`]
    /// that the independent checker in [`crate::drat`] can validate.
    ///
    /// Must be called at decision level zero. Enabling logging on a
    /// solver that already holds clauses snapshots the current live
    /// clause set as proof inputs (so the proof certifies answers
    /// relative to the solver's state at the time of the call); enabling
    /// it on a fresh solver certifies answers relative to the original
    /// problem. Logging roughly doubles clause bookkeeping cost and is
    /// off by default. Idempotent.
    pub fn enable_proof_logging(&mut self) {
        assert_eq!(
            self.decision_level(),
            0,
            "proof logging must be enabled at level 0"
        );
        if self.proof.is_some() {
            return;
        }
        let mut proof = Proof::default();
        for cref in self.db.iter() {
            proof.push_input(self.db.lits(cref));
        }
        // Level-0 trail literals: roots (no reason) are axioms, propagated
        // literals are unit-propagation consequences of the clauses above,
        // so the checker can re-verify them.
        for &l in &self.trail {
            match self.reason[l.var().index()] {
                None => proof.push_input(&[l]),
                Some(_) => proof.push_derive(&[l]),
            }
        }
        // A solver already known unsatisfiable may have dropped the clause
        // that refuted it, so the refutation cannot be re-derived; it is
        // part of the snapshotted state and enters as an axiom.
        if !self.ok {
            proof.push_input(&[]);
        }
        self.proof = Some(proof);
    }

    /// The proof log accumulated so far, if logging is enabled.
    pub fn proof(&self) -> Option<&Proof> {
        self.proof.as_ref()
    }

    /// Removes and returns the proof log, turning logging off.
    pub fn take_proof(&mut self) -> Option<Proof> {
        self.proof.take()
    }

    /// Number of live learnt clauses currently in the database.
    pub fn num_learnts(&self) -> usize {
        self.db.learnt_count()
    }

    fn log_input(&mut self, lits: &[Lit]) {
        if let Some(p) = &mut self.proof {
            p.push_input(lits);
        }
    }

    fn log_derive(&mut self, lits: &[Lit]) {
        if let Some(p) = &mut self.proof {
            p.push_derive(lits);
        }
    }

    /// Adds a clause. Returns `false` if the solver is already known to be
    /// unsatisfiable (in which case the clause is ignored).
    ///
    /// Tautologies are dropped and duplicate literals removed. Must be
    /// called at decision level zero (i.e., not from inside a solve).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert_eq!(self.decision_level(), 0, "clauses must be added at level 0");
        if !self.ok {
            return false;
        }
        // The clause as given is an axiom of the proof; simplified forms
        // derived below are logged as RUP consequences of it.
        self.log_input(lits);
        let mut cl: Vec<Lit> = lits.to_vec();
        cl.sort_unstable();
        cl.dedup();
        // Drop tautologies and already-satisfied/false literals at level 0.
        let mut out = Vec::with_capacity(cl.len());
        for (i, &l) in cl.iter().enumerate() {
            if i + 1 < cl.len() && cl[i + 1] == !l {
                return true; // tautology: contains l and ¬l
            }
            match self.value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => continue,   // falsified at level 0: drop literal
                LBool::Undef => out.push(l),
            }
        }
        // Literals falsified at level 0 were dropped: the shortened clause
        // follows from the input by unit propagation, so it is RUP.
        if out.len() != cl.len() {
            self.log_derive(&out);
        }
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(out[0], None);
                let before = self.stats.propagations;
                if self.propagate().is_some() {
                    self.ok = false;
                    self.log_derive(&[]);
                }
                self.stats.root_propagations += self.stats.propagations - before;
                self.ok
            }
            _ => {
                let cref = self.db.alloc(&out, false, 0);
                self.attach(cref);
                true
            }
        }
    }

    /// Solves the current clause set.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves the current clause set under the given assumptions.
    ///
    /// Each assumption is enqueued as a pseudo-decision on its own decision
    /// level, below any real decision the search makes, so all of them hold
    /// in any model found. On [`SolveResult::Unsat`] the subset of
    /// assumptions responsible is available from
    /// [`Solver::final_conflict`]; the clause set itself stays intact, and
    /// learnt clauses, variable activities, saved phases, the restart
    /// schedule, and the reduction cadence all carry over to later calls —
    /// this is the incremental-solving entry point.
    ///
    /// Assumption literals must refer to variables already created with
    /// [`Solver::new_var`].
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.final_conflict.clear();
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.model.clear();
        let budget_start = self.stats.conflicts;
        let prop_start = self.stats.propagations;
        let mut probe: u32 = 0;

        loop {
            // Cooperative interruption: the cancel token and propagation
            // budget are cheap enough to poll every iteration; the clock is
            // probed every 64th iteration (including the first, so an
            // already-expired deadline returns before any search).
            if let Some(reason) = self.check_interrupt(prop_start, probe) {
                self.cancel_until(0);
                return SolveResult::Unknown(reason);
            }
            probe = probe.wrapping_add(1);
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                self.conflicts_this_restart += 1;
                self.conflicts_since_reduce += 1;
                if self.stats.conflicts.is_multiple_of(TRACE_CONFLICT_PERIOD) {
                    if let Some(hooks) = &self.trace {
                        hooks
                            .tracer
                            .counter_id(hooks.conflicts, self.stats.conflicts);
                    }
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.log_derive(&[]);
                    return SolveResult::Unsat;
                }
                if let Some(budget) = self.conflict_budget {
                    if self.stats.conflicts - budget_start >= budget {
                        self.cancel_until(0);
                        return SolveResult::Unknown(Interrupt::ConflictBudget);
                    }
                }
                let (backtrack_level, lbd) = self.analyze(confl);
                // Borrow the learnt buffer out for the rest of this branch
                // and hand it back afterwards, keeping its allocation.
                let learnt = std::mem::take(&mut self.learnt);
                self.stats.learnt_clauses += 1;
                self.stats.learnt_literals += learnt.len() as u64;
                self.stats.lbd_sum += lbd as u64;
                if lbd <= GLUE_LBD {
                    self.stats.lbd_glue_learnts += 1;
                }
                self.log_derive(&learnt);
                self.cancel_until(backtrack_level);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let cref = self.db.alloc(&learnt, true, lbd);
                    self.attach(cref);
                    self.db.bump_activity(cref);
                    self.unchecked_enqueue(learnt[0], Some(cref));
                }
                self.learnt = learnt;
                self.decay_var_activity();
                self.db.decay_activity();
            } else {
                if self.conflicts_this_restart >= self.restart_limit {
                    // Restart: the Luby position is solver state, so an
                    // incremental session keeps walking the schedule
                    // instead of rewinding to 100-conflict restarts on
                    // every query.
                    self.stats.restarts += 1;
                    if let Some(hooks) = &self.trace {
                        hooks.tracer.instant_id(hooks.restart, self.stats.restarts);
                    }
                    self.cancel_until(0);
                    self.luby_index += 1;
                    self.restart_limit = 100 * luby(self.luby_index);
                    self.conflicts_this_restart = 0;
                    continue;
                }
                if self.conflicts_since_reduce >= self.reduce_interval {
                    self.reduce_db();
                    self.conflicts_since_reduce = 0;
                    self.reduce_interval += self.reduce_interval_inc;
                }
                // Re-take any assumptions not currently on the trail (a
                // restart or backjump may have undone them) before making
                // real decisions. One decision level per assumption — a
                // dummy level when the assumption already holds — so real
                // decisions always sit strictly above assumption levels.
                let mut enqueued_assumption = false;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.value(p) {
                        LBool::True => {
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.final_conflict = self.analyze_final(p);
                            // The negation of the core is a clause the
                            // checker can verify by RUP, certifying this
                            // assumption-level Unsat without touching the
                            // clause set.
                            if self.proof.is_some() {
                                let negated: Vec<Lit> =
                                    self.final_conflict.iter().map(|&l| !l).collect();
                                self.log_derive(&negated);
                            }
                            self.cancel_until(0);
                            return SolveResult::Unsat;
                        }
                        LBool::Undef => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(p, None);
                            enqueued_assumption = true;
                            break;
                        }
                    }
                }
                if enqueued_assumption {
                    continue;
                }
                match self.pick_branch_var() {
                    None => {
                        // All variables assigned: record model.
                        self.model = self.assigns.clone();
                        self.cancel_until(0);
                        return SolveResult::Sat;
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        let lit = Lit::new(v, !self.phase[v.index()]);
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(lit, None);
                    }
                }
            }
        }
    }

    /// The assumptions responsible for the most recent
    /// [`SolveResult::Unsat`] answer of
    /// [`Solver::solve_with_assumptions`]: a subset of the assumptions
    /// passed in whose conjunction with the clause set is unsatisfiable
    /// (an unsat core over the assumptions).
    ///
    /// Empty when the clause set is unsatisfiable on its own, and after
    /// any `Sat`/`Unknown` answer.
    pub fn final_conflict(&self) -> &[Lit] {
        &self.final_conflict
    }

    /// The value of `v` in the most recent satisfying model, if any.
    pub fn model_value(&self, v: Var) -> Option<bool> {
        match self.model.get(v.index())? {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// The value of a literal in the most recent satisfying model.
    pub fn model_lit_value(&self, l: Lit) -> Option<bool> {
        self.model_value(l.var()).map(|b| b != l.is_negative())
    }

    /// Adds a clause blocking the most recent model, projected onto `vars`.
    ///
    /// Useful for model enumeration. Returns `false` if this makes the
    /// instance unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if there is no model.
    pub fn block_model(&mut self, vars: &[Var]) -> bool {
        assert!(!self.model.is_empty(), "no model to block");
        let lits: Vec<Lit> = vars
            .iter()
            .filter_map(|&v| match self.model[v.index()] {
                LBool::True => Some(v.negative()),
                LBool::False => Some(v.positive()),
                LBool::Undef => None,
            })
            .collect();
        self.add_clause(&lits)
    }

    // ---- internals ------------------------------------------------------

    /// Polls the interruption sources at the top of the search loop.
    ///
    /// The conflict-budget case here only fires for a budget of zero (the
    /// in-loop check after each conflict handles positive budgets before
    /// analysis runs); it makes `solve` with a zero budget return
    /// immediately instead of spending one conflict.
    fn check_interrupt(&self, prop_start: u64, probe: u32) -> Option<Interrupt> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(Interrupt::Cancelled);
            }
        }
        if let Some(budget) = self.propagation_budget {
            if self.stats.propagations - prop_start >= budget {
                return Some(Interrupt::PropagationBudget);
            }
        }
        if self.conflict_budget == Some(0) {
            return Some(Interrupt::ConflictBudget);
        }
        if let Some(deadline) = self.deadline {
            if probe.is_multiple_of(64) && Instant::now() >= deadline {
                return Some(Interrupt::Deadline);
            }
        }
        None
    }

    #[inline]
    fn value(&self, l: Lit) -> LBool {
        self.assigns[l.var().index()].negate_if(l.is_negative())
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn attach(&mut self, cref: ClauseRef) {
        debug_assert!(!self.db.is_deleted(cref));
        let lits = self.db.lits(cref);
        debug_assert!(lits.len() >= 2);
        let (l0, l1) = (lits[0], lits[1]);
        if lits.len() == 2 {
            self.bin_watches[(!l0).code()].push(BinWatcher { other: l1, cref });
            self.bin_watches[(!l1).code()].push(BinWatcher { other: l0, cref });
        } else {
            self.watches[(!l0).code()].push(Watcher { cref, blocker: l1 });
            self.watches[(!l1).code()].push(Watcher { cref, blocker: l0 });
        }
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        let v = l.var().index();
        self.assigns[v] = LBool::from_bool(l.is_positive());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Propagates all enqueued literals. Returns a conflicting clause if one
    /// is found.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        'queue: while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            // Binary pass first: the implied literal is inline in the
            // watcher, so this touches no clause memory and resolves the
            // common case before the expensive long-clause walk.
            for i in 0..self.bin_watches[p.code()].len() {
                let w = self.bin_watches[p.code()][i];
                match self.value(w.other) {
                    LBool::True => {}
                    LBool::False => {
                        self.qhead = self.trail.len();
                        conflict = Some(w.cref);
                        break 'queue;
                    }
                    LBool::Undef => {
                        self.stats.binary_propagations += 1;
                        self.unchecked_enqueue(w.other, Some(w.cref));
                    }
                }
            }

            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut kept = 0;
            let mut i = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Fast path: blocker already true.
                if self.value(w.blocker) == LBool::True {
                    ws[kept] = w;
                    kept += 1;
                    continue;
                }
                let false_lit = !p;
                {
                    let lits = self.db.lits_mut(w.cref);
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_lit);
                }
                let first = self.db.lits(w.cref)[0];
                if first != w.blocker && self.value(first) == LBool::True {
                    ws[kept] = Watcher {
                        cref: w.cref,
                        blocker: first,
                    };
                    kept += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.db.lits(w.cref).len();
                for k in 2..len {
                    let lk = self.db.lits(w.cref)[k];
                    if self.value(lk) != LBool::False {
                        let lits = self.db.lits_mut(w.cref);
                        lits[1] = lk;
                        lits[k] = false_lit;
                        self.watches[(!lk).code()].push(Watcher {
                            cref: w.cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // No new watch: clause is unit or conflicting.
                ws[kept] = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                kept += 1;
                if self.value(first) == LBool::False {
                    // Conflict: retain remaining watchers and bail out.
                    while i < ws.len() {
                        ws[kept] = ws[i];
                        kept += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(w.cref);
                } else {
                    self.unchecked_enqueue(first, Some(w.cref));
                }
            }
            ws.truncate(kept);
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    /// First-UIP conflict analysis into `self.learnt` (asserting literal
    /// first, then the literal of the backtrack level). Returns the level
    /// to backtrack to and the learnt clause's LBD.
    fn analyze(&mut self, confl: ClauseRef) -> (u32, u32) {
        self.learnt.clear();
        self.learnt.push(Lit::from_code(0)); // slot for asserting literal
        let mut counter = 0usize;
        let mut p: Option<Var> = None;
        let mut index = self.trail.len();
        let mut confl = confl;
        let current_level = self.decision_level();

        loop {
            self.db.bump_activity(confl);
            // Glucose-style LBD refresh: a learnt clause re-entering
            // conflict analysis gets its glue re-measured against the
            // current trail, and keeps the better (smaller) value —
            // clauses that prove themselves sticky are protected from the
            // next reduction sweep.
            if self.db.is_learnt(confl) && self.db.lbd(confl) > GLUE_LBD {
                let fresh = self.lbd.measure(&self.level, self.db.lits(confl));
                if fresh < self.db.lbd(confl) {
                    self.db.set_lbd(confl, fresh);
                }
            }
            for i in 0..self.db.len(confl) {
                let q = self.db.lits(confl)[i];
                let v = q.var();
                // When resolving on `p`, skip its own literal by variable:
                // binary-clause reasons keep their stored literal order
                // (the binary pass never touches clause memory), so the
                // implied literal is not necessarily at index 0.
                if Some(v) == p || self.seen[v.index()] || self.level[v.index()] == 0 {
                    continue;
                }
                self.seen[v.index()] = true;
                self.bump_var_activity(v);
                if self.level[v.index()] >= current_level {
                    counter += 1;
                } else {
                    self.learnt.push(q);
                }
            }
            // Select the next trail literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                self.learnt[0] = !pl;
                break;
            }
            p = Some(pl.var());
            confl = self.reason[pl.var().index()].expect("non-decision on conflict path");
        }

        // Recursive clause minimization: drop every literal implied by
        // the rest of the clause through the implication graph. The
        // abstract level set (one bit per decision level, mod 32) lets
        // a reason-chain walk give up as soon as it reaches a level no
        // clause literal lives on.
        self.analyze_toclear.clear();
        let mut abstract_levels = 0u32;
        for &l in &self.learnt[1..] {
            self.analyze_toclear.push(l.var());
            abstract_levels |= self.abstract_level(l.var());
        }
        let mut kept = 1;
        for i in 1..self.learnt.len() {
            let l = self.learnt[i];
            if self.reason[l.var().index()].is_none()
                || !self.lit_redundant(l.var(), abstract_levels)
            {
                self.learnt[kept] = l;
                kept += 1;
            }
        }
        self.learnt.truncate(kept);
        for &v in &self.analyze_toclear {
            self.seen[v.index()] = false;
        }
        debug_assert!(
            self.seen.iter().all(|&s| !s),
            "analyze left `seen` marks behind"
        );

        let lbd = self.lbd.measure(&self.level, &self.learnt);

        // Compute backtrack level: highest level among learnt[1..].
        let backtrack_level = if self.learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..self.learnt.len() {
                if self.level[self.learnt[i].var().index()]
                    > self.level[self.learnt[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            self.learnt.swap(1, max_i);
            self.level[self.learnt[1].var().index()]
        };
        (backtrack_level, lbd)
    }

    /// One bit per decision level (mod 32), for cheap "could this level
    /// be covered by the learnt clause?" tests during minimization.
    #[inline]
    fn abstract_level(&self, v: Var) -> u32 {
        1 << (self.level[v.index()] & 31)
    }

    /// Whether learnt-clause variable `v` (which has a reason) is implied
    /// by the other clause literals, i.e. every path back from it through
    /// reason clauses ends in a `seen` variable or at level 0. Walks the
    /// reason chains depth-first on `analyze_stack`, marking each
    /// variable it enters as `seen` (recorded in `analyze_toclear`) so
    /// later walks stop there; on failure the marks this walk added are
    /// rolled back, so only variables proven covered stay marked.
    fn lit_redundant(&mut self, v: Var, abstract_levels: u32) -> bool {
        self.analyze_stack.clear();
        self.analyze_stack.push(v);
        let top = self.analyze_toclear.len();
        while let Some(x) = self.analyze_stack.pop() {
            let cref = self.reason[x.index()].expect("only implied literals are walked");
            for i in 0..self.db.len(cref) {
                let u = self.db.lits(cref)[i].var();
                if u == x || self.seen[u.index()] || self.level[u.index()] == 0 {
                    continue;
                }
                if self.reason[u.index()].is_some() && self.abstract_level(u) & abstract_levels != 0
                {
                    self.seen[u.index()] = true;
                    self.analyze_stack.push(u);
                    self.analyze_toclear.push(u);
                } else {
                    for u in self.analyze_toclear.drain(top..) {
                        self.seen[u.index()] = false;
                    }
                    return false;
                }
            }
        }
        true
    }

    /// Computes the unsat core for a failed assumption `p` (its value on
    /// the trail is false): the subset of taken assumptions, `p` included,
    /// that together imply the conflict. Walks the implication graph from
    /// `¬p` back to the pseudo-decisions; every decision reached is an
    /// assumption, because real decisions are never made while an
    /// assumption is still pending.
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        let mut core = vec![p];
        if self.decision_level() == 0 {
            return core;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let x = self.trail[i].var();
            if !self.seen[x.index()] {
                continue;
            }
            match self.reason[x.index()] {
                // A pseudo-decision: the trail literal is the assumption
                // exactly as it was enqueued.
                None => core.push(self.trail[i]),
                Some(cref) => {
                    for &q in self.db.lits(cref) {
                        if q.var() != x && self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[x.index()] = false;
        }
        self.seen[p.var().index()] = false;
        core
    }

    fn cancel_until(&mut self, target_level: u32) {
        if self.decision_level() <= target_level {
            return;
        }
        let lim = self.trail_lim[target_level as usize];
        while self.trail.len() > lim {
            let l = self.trail.pop().expect("trail non-empty");
            let v = l.var();
            self.phase[v.index()] = l.is_positive();
            self.assigns[v.index()] = LBool::Undef;
            self.reason[v.index()] = None;
            self.heap.insert(v, &self.activity);
        }
        self.trail_lim.truncate(target_level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    fn bump_var_activity(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(v, &self.activity);
    }

    fn decay_var_activity(&mut self) {
        self.var_inc /= 0.95;
    }

    /// One learnt-database reduction sweep: LBD-based retention.
    ///
    /// Candidates are learnt clauses that are not glue
    /// (LBD > [`GLUE_LBD`]), not binary, and not currently a reason on
    /// the trail. They are sorted worst-first by (LBD descending,
    /// activity ascending) and the worse half deleted, each deletion
    /// logged to the DRAT proof when logging is enabled. The deleted
    /// clauses leave the watch lists in one pass after the sweep, or
    /// with the lists' rebuild when the arena is compacted.
    fn reduce_db(&mut self) {
        self.stats.reduce_sweeps += 1;
        let mut candidates: Vec<ClauseRef> = self
            .db
            .iter_learnt()
            .filter(|&c| self.db.lbd(c) > GLUE_LBD && self.db.len(c) > 2 && !self.locked(c))
            .collect();
        candidates.sort_by(|&a, &b| {
            self.db.lbd(b).cmp(&self.db.lbd(a)).then_with(|| {
                self.db
                    .activity(a)
                    .partial_cmp(&self.db.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        });
        let remove_count = candidates.len() / 2;
        for &cref in candidates.iter().take(remove_count) {
            if let Some(p) = &mut self.proof {
                p.push_delete(self.db.lits(cref));
            }
            self.db.delete(cref);
            self.stats.deleted_clauses += 1;
        }
        if let Some(hooks) = &self.trace {
            hooks.tracer.instant_id(hooks.reduce, remove_count as u64);
        }
        if self.db.should_compact() {
            self.compact_arena();
        } else {
            // Only clauses of three or more literals are ever deleted,
            // so the binary watch lists need no purge.
            let db = &self.db;
            for ws in &mut self.watches {
                ws.retain(|w| !db.is_deleted(w.cref));
            }
        }
    }

    /// Whether clause `c` (of three or more literals) is the reason of a
    /// trail assignment. Propagation and analysis always put the implied
    /// literal at `lits[0]`, and neither propagation nor compaction ever
    /// moves a reason clause's first literal, so checking that one
    /// variable suffices.
    fn locked(&self, c: ClauseRef) -> bool {
        self.reason[self.db.lits(c)[0].var().index()] == Some(c)
    }

    /// Compacts the clause arena and patches every outstanding reference:
    /// trail reasons are translated through the relocation map, and both
    /// watch systems are rebuilt from the surviving clauses (the watched
    /// pair is always `lits[0]`/`lits[1]`, which compaction preserves).
    fn compact_arena(&mut self) {
        let map = self.db.compact();
        for r in self.reason.iter_mut() {
            if let Some(cref) = r.as_mut() {
                *cref = map.new_ref(*cref);
            }
        }
        for ws in &mut self.watches {
            ws.clear();
        }
        for ws in &mut self.bin_watches {
            ws.clear();
        }
        let live: Vec<ClauseRef> = self.db.iter().collect();
        for cref in live {
            self.attach(cref);
        }
    }
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, …
/// (`i` is zero-based).
fn luby(i: u32) -> u64 {
    let mut x = i as u64 + 1; // one-based position
    loop {
        // Find k with 2^(k-1) <= x < 2^k, i.e. x has k bits.
        let k = 64 - x.leading_zeros() as u64;
        if x == (1u64 << k) - 1 {
            return 1u64 << (k - 1);
        }
        x -= (1u64 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| solver.new_var().positive()).collect()
    }

    #[test]
    fn stats_record_every_field_and_subtract_fieldwise() {
        let before = SolverStats {
            conflicts: 1,
            deleted_clauses: 2,
            ..SolverStats::default()
        };
        let after = SolverStats {
            conflicts: 5,
            decisions: 7,
            deleted_clauses: 2,
            ..SolverStats::default()
        };
        let delta = after.since(&before);
        assert_eq!((delta.conflicts, delta.decisions), (4, 7));
        assert_eq!(delta.deleted_clauses, 0);
        let reg = obs::Registry::new();
        delta.record_obs(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), 12);
        assert!(snap.counters.keys().all(|k| k.starts_with("solver.")));
        assert_eq!(snap.counter("solver.conflicts"), 4);
        assert_eq!(snap.counter("solver.decisions"), 7);
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[v[0]]));
        assert!(s.add_clause(&[!v[0], v[1]]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_lit_value(v[0]), Some(true));
        assert_eq!(s.model_lit_value(v[1]), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[v[0]]);
        assert!(!s.add_clause(&[!v[0]]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = lits(&mut s, 1);
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn no_clauses_is_sat() {
        let mut s = Solver::new();
        let _ = lits(&mut s, 3);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn tautologies_are_dropped() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause(&[v[0], !v[0]]));
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    /// The unsatisfiable pigeonhole problem PHP(n+1, n): n+1 pigeons in n
    /// holes. Exercises real conflict analysis and restarts.
    fn pigeonhole(pigeons: usize, holes: usize) -> (Solver, bool) {
        let mut s = Solver::new();
        let mut var = vec![vec![Lit::from_code(0); holes]; pigeons];
        for row in var.iter_mut() {
            for x in row.iter_mut() {
                *x = s.new_var().positive();
            }
        }
        // Each pigeon in some hole.
        for row in &var {
            s.add_clause(row);
        }
        // No two pigeons share a hole.
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                for (&a, &b) in var[p1].iter().zip(&var[p2]) {
                    s.add_clause(&[!a, !b]);
                }
            }
        }
        let sat_expected = pigeons <= holes;
        (s, sat_expected)
    }

    #[test]
    fn pigeonhole_unsat() {
        for n in 2..=6 {
            let (mut s, _) = pigeonhole(n + 1, n);
            assert_eq!(s.solve(), SolveResult::Unsat, "PHP({}, {})", n + 1, n);
        }
    }

    #[test]
    fn pigeonhole_sat() {
        let (mut s, _) = pigeonhole(5, 5);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn pigeonhole_unsat_with_huge_page_arena() {
        let mut s = Solver::with_arena_mode(ArenaMode::HugePages);
        let holes = 5;
        let pigeons = 6;
        let mut var = vec![vec![Lit::from_code(0); holes]; pigeons];
        for row in var.iter_mut() {
            for x in row.iter_mut() {
                *x = s.new_var().positive();
            }
        }
        for row in &var {
            s.add_clause(row);
        }
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                for (&a, &b) in var[p1].iter().zip(&var[p2]) {
                    s.add_clause(&[!a, !b]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        let (mut s, _) = pigeonhole(9, 8);
        s.set_conflict_budget(Some(5));
        assert_eq!(s.solve(), SolveResult::Unknown(Interrupt::ConflictBudget));
        // A budget of N permits exactly N conflicts, not N+1.
        assert_eq!(s.stats().conflicts, 5);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn zero_conflict_budget_spends_no_conflicts() {
        let (mut s, _) = pigeonhole(7, 6);
        s.set_conflict_budget(Some(0));
        assert_eq!(s.solve(), SolveResult::Unknown(Interrupt::ConflictBudget));
        assert_eq!(s.stats().conflicts, 0);
    }

    #[test]
    fn propagation_budget_returns_unknown() {
        let (mut s, _) = pigeonhole(9, 8);
        s.set_propagation_budget(Some(10));
        assert_eq!(
            s.solve(),
            SolveResult::Unknown(Interrupt::PropagationBudget)
        );
        s.set_propagation_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn expired_deadline_returns_unknown_immediately() {
        let (mut s, _) = pigeonhole(9, 8);
        s.set_deadline(Some(std::time::Instant::now()));
        let t0 = std::time::Instant::now();
        assert_eq!(s.solve(), SolveResult::Unknown(Interrupt::Deadline));
        assert!(t0.elapsed() < std::time::Duration::from_secs(2));
        s.set_deadline(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn cancellation_from_another_thread_stops_solve() {
        // PHP(11, 10) takes far longer than the cancellation latency, so a
        // prompt Unknown demonstrates the flag is being polled.
        let (mut s, _) = pigeonhole(11, 10);
        let token = CancelToken::new();
        s.set_cancel_token(Some(token.clone()));
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            token.cancel();
        });
        let t0 = std::time::Instant::now();
        let result = s.solve();
        canceller.join().unwrap();
        assert_eq!(result, SolveResult::Unknown(Interrupt::Cancelled));
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "cancellation took {:?}",
            t0.elapsed()
        );
        // Partial stats from the interrupted run are visible.
        assert!(s.stats().propagations > 0);
    }

    #[test]
    fn pre_cancelled_token_returns_before_searching() {
        let (mut s, _) = pigeonhole(11, 10);
        let token = CancelToken::new();
        token.cancel();
        s.set_cancel_token(Some(token));
        assert_eq!(s.solve(), SolveResult::Unknown(Interrupt::Cancelled));
        assert_eq!(s.stats().decisions, 0);
        // Clearing the token restores normal solving.
        s.set_cancel_token(None);
        s.set_conflict_budget(Some(1));
        assert!(s.solve().is_unknown());
    }

    #[test]
    fn model_enumeration_via_blocking() {
        // x or y: 3 models over {x, y}.
        let mut s = Solver::new();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause(&[x.positive(), y.positive()]);
        let mut count = 0;
        while s.solve() == SolveResult::Sat {
            count += 1;
            assert!(count <= 3, "too many models");
            if !s.block_model(&[x, y]) {
                break;
            }
        }
        assert_eq!(count, 3);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0], v[1], v[2]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&[!v[0]]);
        s.add_clause(&[!v[1]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_lit_value(v[2]), Some(true));
        s.add_clause(&[!v[2]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_constrain_without_committing() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        // Under ¬x the clause forces y.
        assert_eq!(s.solve_with_assumptions(&[!v[0]]), SolveResult::Sat);
        assert_eq!(s.model_lit_value(v[0]), Some(false));
        assert_eq!(s.model_lit_value(v[1]), Some(true));
        // The assumptions do not persist: x alone is fine afterwards.
        assert_eq!(s.solve_with_assumptions(&[v[0], !v[1]]), SolveResult::Sat);
        assert_eq!(s.model_lit_value(v[0]), Some(true));
    }

    #[test]
    fn failed_assumptions_yield_core() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[!v[0], v[1]]);
        s.add_clause(&[!v[1], v[2]]);
        // x0 ∧ ¬x2 is inconsistent through the implication chain; x3 is
        // irrelevant and must not appear in the core.
        let result = s.solve_with_assumptions(&[v[3], v[0], !v[2]]);
        assert_eq!(result, SolveResult::Unsat);
        let mut core = s.final_conflict().to_vec();
        core.sort_unstable();
        let mut expect = vec![v[0], !v[2]];
        expect.sort_unstable();
        assert_eq!(core, expect);
        // The solver is still usable and satisfiable without assumptions.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.final_conflict().is_empty());
    }

    #[test]
    fn contradictory_assumption_pair_is_its_own_core() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.solve_with_assumptions(&[v[0], !v[0]]), SolveResult::Unsat);
        let mut core = s.final_conflict().to_vec();
        core.sort_unstable();
        let mut expect = vec![v[0], !v[0]];
        expect.sort_unstable();
        assert_eq!(core, expect);
    }

    #[test]
    fn formula_level_unsat_has_empty_core() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0]]);
        s.add_clause(&[!v[0]]);
        assert_eq!(s.solve_with_assumptions(&[v[1]]), SolveResult::Unsat);
        assert!(s.final_conflict().is_empty());
    }

    #[test]
    fn assumption_falsified_at_level_zero_is_the_core() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[!v[0]]);
        assert_eq!(s.solve_with_assumptions(&[v[1], v[0]]), SolveResult::Unsat);
        assert_eq!(s.final_conflict(), &[v[0]]);
        // The formula alone stays satisfiable.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn assumptions_survive_restarts_on_hard_instances() {
        // PHP(7, 6) forces many conflicts and restarts; an assumed hole
        // assignment must still hold in the end-of-search state.
        let (mut s, _) = pigeonhole(6, 6);
        let first = Lit::from_code(0).var().positive();
        assert_eq!(s.solve_with_assumptions(&[first]), SolveResult::Sat);
        assert_eq!(s.model_lit_value(first), Some(true));
        assert_eq!(s.solve_with_assumptions(&[!first]), SolveResult::Sat);
        assert_eq!(s.model_lit_value(first), Some(false));
    }

    #[test]
    fn activation_literal_workflow() {
        // The Session pattern: guard a constraint behind an activation
        // literal, solve with it assumed, then retire it permanently.
        let mut s = Solver::new();
        let x = s.new_var().positive();
        let act1 = s.new_var().positive();
        let act2 = s.new_var().positive();
        s.add_clause(&[!act1, x]);
        s.add_clause(&[!act2, !x]);
        assert_eq!(s.solve_with_assumptions(&[act1]), SolveResult::Sat);
        assert_eq!(s.model_lit_value(x), Some(true));
        assert_eq!(s.solve_with_assumptions(&[act2]), SolveResult::Sat);
        assert_eq!(s.model_lit_value(x), Some(false));
        assert_eq!(s.solve_with_assumptions(&[act1, act2]), SolveResult::Unsat);
        assert_eq!(s.final_conflict().len(), 2);
        // Retire act1; act2 alone still works.
        s.add_clause(&[!act1]);
        assert_eq!(s.solve_with_assumptions(&[act2]), SolveResult::Sat);
    }

    #[test]
    fn recursive_minimization_drops_literal_covered_through_a_chain() {
        // Level 1 assumes `a`, which implies `y`, which implies `x`.
        // Level 2 assumes `d`, which implies `z`, and (¬d ∨ ¬x ∨ ¬z)
        // conflicts. First-UIP analysis learns (¬d ∨ ¬x ∨ ¬a). `x` is
        // implied by `a` only through `y`, which is not in the clause:
        // basic minimization keeps `¬x`, the recursive walk drops it.
        let mut s = Solver::new();
        let v = lits(&mut s, 5);
        let (a, y, x, d, z) = (v[0], v[1], v[2], v[3], v[4]);
        s.enable_proof_logging();
        s.add_clause(&[!a, y]);
        s.add_clause(&[!y, x]);
        s.add_clause(&[!d, !a, z]);
        s.add_clause(&[!d, !x, !z]);
        assert_eq!(s.solve_with_assumptions(&[a, d]), SolveResult::Unsat);
        let st = s.stats();
        assert_eq!(st.conflicts, 1);
        assert_eq!(st.learnt_clauses, 1);
        assert_eq!(
            st.learnt_literals, 2,
            "expected the learnt clause (¬d ∨ ¬a)"
        );
        let proof = s.proof().expect("logging enabled");
        crate::drat::certify_unsat(proof, s.final_conflict())
            .expect("the minimized clause must stay RUP");
    }

    #[test]
    fn stats_are_populated() {
        let (mut s, _) = pigeonhole(6, 5);
        s.solve();
        let st = s.stats();
        assert!(st.conflicts > 0);
        assert!(st.decisions > 0);
        assert!(st.propagations > 0);
        // Pigeonhole CNF is mostly binary clauses, so the specialized
        // binary watch lists must be doing real propagation work.
        assert!(st.binary_propagations > 0);
        assert!(st.binary_propagations <= st.propagations + st.conflicts * 1000);
        // Every learnt clause contributed its glue to the LBD telemetry.
        assert!(st.learnt_clauses > 0);
        assert!(
            st.lbd_sum >= st.learnt_clauses,
            "LBD of a learnt clause is >= 1"
        );
    }

    #[test]
    fn luby_position_persists_across_incremental_queries() {
        // The restart schedule is solver state: a second query must
        // continue the Luby sequence where the first stopped, not rewind
        // to the first 100-conflict limit. Pin `luby_index == restarts`
        // (each restart advances the position exactly once, and nothing
        // resets it) and the limit's place in the schedule.
        let (mut s, _) = pigeonhole(8, 7);
        s.set_conflict_budget(Some(600));
        let _ = s.solve();
        let after_first = s.luby_index;
        assert!(
            s.stats().restarts > 0,
            "600 conflicts at limit 100 must restart at least once"
        );
        assert_eq!(s.luby_index as u64, s.stats().restarts);
        assert_eq!(s.restart_limit, 100 * luby(s.luby_index));
        let _ = s.solve();
        assert!(
            s.luby_index >= after_first,
            "second query rewound the Luby schedule: {} -> {}",
            after_first,
            s.luby_index
        );
        assert_eq!(s.luby_index as u64, s.stats().restarts);
        assert_eq!(s.restart_limit, 100 * luby(s.luby_index));
    }

    #[test]
    fn reduce_cadence_is_conflict_based_and_persists() {
        // Sweeps are driven by conflicts-since-last-sweep, so they keep
        // firing across queries on one long-lived solver; the geometric
        // `max_learnt` threshold this replaced stopped firing instead.
        let (mut s, _) = pigeonhole(8, 7);
        s.set_reduce_interval(100);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(
            s.stats().reduce_sweeps > 0,
            "expected sweeps with a 100-conflict cadence, got stats {:?}",
            s.stats()
        );
        assert!(s.stats().deleted_clauses > 0);
    }

    #[test]
    fn glue_clauses_survive_reduction() {
        // After heavy reduction every surviving non-binary learnt clause
        // is either glue or was recently locked/active; at minimum, no
        // glue clause may ever be deleted. Solve, then audit the arena
        // via the public learnt counter and a fresh solve's correctness.
        let (mut s, _) = pigeonhole(8, 7);
        s.set_reduce_interval(50);
        assert_eq!(s.solve(), SolveResult::Unsat);
        // Re-derive the verdict from scratch state: deletions must not
        // have removed anything needed for soundness.
        let (mut fresh, _) = pigeonhole(8, 7);
        fresh.set_reduce_interval(50);
        fresh.enable_proof_logging();
        assert_eq!(fresh.solve(), SolveResult::Unsat);
        let proof = fresh.proof().expect("logging enabled");
        crate::drat::certify_unsat(proof, &[]).expect("reduction must stay DRAT-certifiable");
    }
}
