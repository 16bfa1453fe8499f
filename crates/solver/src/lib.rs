//! A Kodkod-style bounded relational model finder.
//!
//! This crate plays the role of Alloy's Kodkod engine in the paper's
//! workflow: a [`Problem`] pairs a relational [`relational::Formula`] with
//! per-relation [`relational::Bounds`] over a finite universe; a
//! [`Session`] translates it into a boolean circuit (relations as
//! matrices of gates), Tseitin-encodes the circuit into CNF, discharges it
//! to the from-scratch CDCL solver in `ptxmm-satsolver`, and decodes any
//! model back into a relational [`relational::Instance`].
//!
//! There is one such pipeline. A session keeps it warm across many
//! queries over the same base formula; a scratch [`ModelFinder`] run is
//! a fresh session answering the one query `true`, which adds nothing
//! to the base CNF. The differential tests therefore compare a fresh
//! session with a reused one.
//!
//! Features mirroring Kodkod:
//!
//! * sparse gate matrices with constant folding and structural hashing,
//! * transitive closure by iterative squaring, with the step count sized
//!   by the atoms the closed relation actually touches rather than by
//!   the universe,
//! * each shared subterm translated once per binding of its quantified
//!   variables (a per-formula translation cache),
//! * exact lower bounds contribute no SAT variables,
//! * lex-leader symmetry breaking over interchangeable atoms.
//!
//! See the crate-level example on [`ModelFinder`].

#![warn(missing_docs)]

pub mod circuit;
pub mod finder;
pub mod harness;
pub mod session;
pub mod symmetry;
pub mod translate;

pub use finder::{ModelFinder, Options, Problem, Report, Verdict};
pub use harness::{HarnessOptions, Query, QueryCtx, QueryOutput, QueryRecord, SessionPool};
pub use obs;
pub use satsolver::{drat, hash, CancelToken, Interrupt, Lit, Proof, SolverStats};
pub use session::{OpenStats, Session, SessionStats};
pub use translate::IncrementalTranslator;
