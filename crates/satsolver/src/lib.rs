//! A conflict-driven clause learning (CDCL) SAT solver built from scratch.
//!
//! This crate is the bottom layer of the PTX memory model analysis stack:
//! the bounded relational model finder in `ptxmm-solver` compiles memory
//! model questions into CNF and discharges them here, exactly as Alloy
//! discharges Kodkod translations to an off-the-shelf SAT solver.
//!
//! The implementation follows the MiniSat architecture with
//! Glucose-style refinements:
//!
//! * two-watched-literal unit propagation with blocker literals and
//!   dedicated binary-clause watch lists,
//! * first-UIP conflict analysis with recursive clause minimization,
//! * VSIDS variable activities with phase saving,
//! * Luby-sequence restarts that persist across incremental queries,
//! * LBD ("glue") based learnt clause retention on a conflict cadence,
//! * bump-arena clause storage with compaction and an optional
//!   huge-page allocation mode ([`ArenaMode`]).
//!
//! # Examples
//!
//! ```
//! use satsolver::{Solver, SolveResult};
//!
//! let mut solver = Solver::new();
//! let x = solver.new_var();
//! let y = solver.new_var();
//! // (x ∨ y) ∧ (¬x ∨ y) ∧ (¬y ∨ x)
//! solver.add_clause(&[x.positive(), y.positive()]);
//! solver.add_clause(&[x.negative(), y.positive()]);
//! solver.add_clause(&[y.negative(), x.positive()]);
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert_eq!(solver.model_value(x), Some(true));
//! assert_eq!(solver.model_value(y), Some(true));
//! ```

#![warn(missing_docs)]

mod arena;
mod dimacs;
pub mod drat;
pub mod hash;
mod heap;
mod interrupt;
mod proof;
mod solver;
mod types;

pub use arena::ArenaMode;
pub use dimacs::{Cnf, ParseDimacsError};
pub use drat::{DratError, DratOutcome};
pub use interrupt::{CancelToken, Interrupt};
pub use proof::{Proof, ProofStep};
pub use solver::{SolveResult, Solver, SolverStats};
pub use types::{LBool, Lit, Var};
