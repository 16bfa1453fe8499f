//! Model-distinguishing search and automatic litmus synthesis
//! (memalloy-style).
//!
//! Given two consistency models over the same candidate-execution
//! vocabulary — here the paper's axiomatic PTX model and the cumulative
//! draft ([`ptx::cumulative`]) — a *distinguishing execution* is a
//! candidate that one model accepts and the other rejects. Following
//! Wickerson et al.'s memalloy recipe, we find them with a single
//! bounded relational query per universe shape:
//!
//! ```text
//! well_formed ∧ liftable-structure ∧ M1-axioms ∧ ¬M2-axioms
//! ```
//!
//! where — unlike the litmus SAT path ([`crate::sat`]), which pins a
//! known program — the *program structure itself is free*: event kinds,
//! strength/acquire/release flags, scopes, locations, thread
//! assignment, and `po` are all unknowns, constrained only enough to
//! keep every witness liftable back into a concrete PTX program
//! (see [`SearchPoint`]). Minimality comes from iterating universe
//! bounds upward; each satisfying instance is decoded, lifted into a
//! [`PtxLitmus`] test, and round-trip verified through the ordinary
//! enumeration and SAT paths under *both* models
//! ([`verify_round_trip`]).
//!
//! Lifting pins the witness's `rf` through values: every write to a
//! location gets a distinct nonzero value, every read gets a fresh
//! register, and the outcome condition asserts each register holds its
//! rf-source's value (0 for the init write). An execution-level
//! distinguisher does not always survive the lift — PTX's coherence
//! order is partial, so a test-level query may find an alternative
//! `co`/`sc` witness for the same outcome under the second model. The
//! round-trip filter (keep a test only if its *verdicts* differ across
//! models) is therefore load-bearing, playing the role of memalloy's
//! "dead" predicate.
//!
//! The `ptxdistill` binary drives [`search_point`] across bounds on the
//! shared query harness and emits the surviving corpus into
//! `litmus/synth/`.

use std::collections::BTreeMap;

use memmodel::{Location, Register, Scope, SystemLayout, ThreadId};
use modelfinder::{drat, Options, Session};
use ptx::alloy::PtxVocab;
use ptx::cumulative::Model;
use ptx::inst::build;
use ptx::Instruction;
use relational::{eval_expr, Atom, Expr, Formula, Instance, Schema, TupleSet, VarGen};

use crate::canon::canonical_ptx_text;
use crate::cond::Cond;
use crate::sat::{self, SatSession, Signature};
use crate::test::{run_ptx_model, Expectation, PtxLitmus};

/// One point of the search lattice: a universe shape, a thread layout,
/// and an ordered model pair. A witness at this point is an execution
/// consistent under [`SearchPoint::consistent`] and inconsistent under
/// [`SearchPoint::inconsistent`].
///
/// The liftable fragment searched is deliberately the Q2 shape from the
/// paper's model-comparison question: loads, stores, and fences at
/// every strength and scope, no RMWs, no barriers, no register-operand
/// stores (so the syntactic dependency relation is empty). The first
/// `locs` events are pinned as the per-location init writes, exactly as
/// the litmus SAT encoding lays them out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchPoint {
    /// The model the witness must satisfy.
    pub consistent: Model,
    /// The model the witness must violate.
    pub inconsistent: Model,
    /// Total events, *including* the `locs` init writes.
    pub events: usize,
    /// Program threads (the init-write thread is added internally).
    pub threads: usize,
    /// Distinct memory locations.
    pub locs: usize,
    /// Thread layout: 0 = single CTA, 1 = CTA per thread, 2 = GPU per
    /// thread (the presets of [`SystemLayout`]).
    pub layout_kind: u8,
    /// Restrict the fragment to at most one real write per location.
    /// The coherence order is then *forced* (init-first plus a single
    /// successor), so a lifted test's outcome condition determines the
    /// whole execution up to `sc`: a witness in the
    /// (consistent = axiomatic, inconsistent = cumulative) direction is
    /// guaranteed to lift to a verdict-differing test, because the
    /// cumulative axioms never read `sc` — every execution matching the
    /// outcome violates them, while the witness itself satisfies the
    /// axiomatic side. Without this restriction the free coherence
    /// order lets the second model dodge the violation, and most
    /// execution-level distinguishers die in the round-trip filter.
    pub single_writer: bool,
}

impl SearchPoint {
    /// The universe signature of this point (shared with the litmus SAT
    /// path, so sessions could be pooled by the same key).
    pub fn signature(&self) -> Signature {
        Signature {
            events: self.events,
            threads: self.threads,
            locs: self.locs,
        }
    }

    /// The concrete thread layout.
    pub fn layout(&self) -> SystemLayout {
        match self.layout_kind {
            0 => SystemLayout::single_cta(self.threads),
            1 => SystemLayout::cta_per_thread(self.threads),
            _ => SystemLayout::gpu_per_thread(self.threads),
        }
    }
}

impl std::fmt::Display for SearchPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}-not-{}-b{}-t{}-l{}-y{}{}",
            model_short(self.consistent),
            model_short(self.inconsistent),
            self.events,
            self.threads,
            self.locs,
            self.layout_kind,
            if self.single_writer { "-w1" } else { "" }
        )
    }
}

/// A short tag for a model, used in synthesized test names ("ax" for
/// the axiomatic model, "cum" for the cumulative draft).
pub fn model_short(model: Model) -> &'static str {
    match model {
        Model::Axiomatic => "ax",
        Model::Cumulative => "cum",
    }
}

/// Every search point with at most `max_bound` total events, smallest
/// first: bounds ascend, and within a bound the location count, layout,
/// and model ordering ascend. Points with fewer than two real
/// (non-init) events cannot involve two threads and are skipped. The
/// sweep uses the single-writer fragment (see
/// [`SearchPoint::single_writer`]), where witnesses lift reliably;
/// callers wanting the unrestricted fragment build points by hand.
pub fn search_points(max_bound: usize, threads: usize) -> Vec<SearchPoint> {
    let mut out = Vec::new();
    for events in 3..=max_bound {
        for locs in 1..=2usize {
            if events <= locs + 1 {
                continue; // fewer than two real events
            }
            for layout_kind in 0..3u8 {
                for (consistent, inconsistent) in [
                    (Model::Axiomatic, Model::Cumulative),
                    (Model::Cumulative, Model::Axiomatic),
                ] {
                    out.push(SearchPoint {
                        consistent,
                        inconsistent,
                        events,
                        threads,
                        locs,
                        layout_kind,
                        single_writer: true,
                    });
                }
            }
        }
    }
    out
}

/// A lifted (but not yet round-trip-verified) witness: the synthesized
/// test together with the point that produced it. The test's
/// `expectation` is provisional until [`verify_round_trip`] fixes it
/// from the axiomatic verdict.
#[derive(Debug, Clone)]
pub struct Synthesized {
    /// The search point whose query produced the witness.
    pub point: SearchPoint,
    /// The lifted litmus test.
    pub test: PtxLitmus,
}

/// The liftable-structure constraints for one search point: init writes
/// pinned first, real events on program threads, the layout pinned, and
/// the searched fragment restricted to what [`lift`] can express.
fn pinned_structure(point: &SearchPoint, vocab: &PtxVocab, dep: &Expr) -> Formula {
    let sig = point.signature();
    let layout = point.layout();
    let e = sig.events;
    let init_thread = (e + sig.threads) as Atom;
    let thread_atom = |t: usize| (e + t) as Atom;
    let loc_atom = |i: usize| (e + sig.threads + 1 + i) as Atom;
    let atoms = |v: Vec<Atom>| Expr::constant(TupleSet::from_atoms(v));
    let pairs = |v: Vec<(Atom, Atom)>| Expr::constant(TupleSet::from_pairs(v));
    let mut fs = Vec::new();

    // The first `locs` events are the init writes: weak system-scoped
    // writes on the internal init thread, one per location, po-chained
    // in index order (the chain is inert — see the litmus SAT encoding).
    let init = atoms((0..sig.locs).map(|i| i as Atom).collect());
    fs.push(init.in_(&vocab.write));
    fs.push(init.in_(&vocab.scope_sys));
    fs.push(vocab.strong.intersect(&init).no());
    fs.push(pairs((0..sig.locs).map(|i| (i as Atom, loc_atom(i))).collect()).in_(&vocab.loc));
    fs.push(pairs((0..sig.locs).map(|i| (i as Atom, init_thread)).collect()).in_(&vocab.thread));
    let chain: Vec<(Atom, Atom)> = (0..sig.locs)
        .flat_map(|i| ((i + 1)..sig.locs).map(move |j| (i as Atom, j as Atom)))
        .collect();
    if !chain.is_empty() {
        fs.push(pairs(chain).in_(&vocab.po));
    }

    // Real events live on the program threads, and every program thread
    // runs at least one of them (smaller programs appear at lower
    // bounds or thread counts, so degenerate witnesses are redundant).
    let real = atoms((sig.locs..e).map(|i| i as Atom).collect());
    fs.push(
        vocab
            .thread
            .intersect(&real.product(&atoms(vec![init_thread])))
            .no(),
    );
    for t in 0..sig.threads {
        fs.push(vocab.thread.join(&atoms(vec![thread_atom(t)])).some());
    }

    // The liftable fragment: no barriers, no RMW pairs, no syntactic
    // dependencies (no register-operand stores are synthesized), fences
    // carry at least one of the acquire/release semantics (so each maps
    // to a `fence.sem` instruction), and weak memory accesses sit at
    // the default system scope exactly as expansion leaves them.
    fs.push(vocab.barrier.no());
    fs.push(vocab.rmw.no());
    fs.push(dep.no());
    fs.push(vocab.fence.in_(&vocab.acq.union(&vocab.rel)));
    fs.push(
        vocab
            .memory()
            .difference(&vocab.strong)
            .in_(&vocab.scope_sys),
    );

    // Per location: some real event touches it (a silent location means
    // the same witness exists at a smaller bound), and the init write
    // is coherence-first among its writes (§8.8.6).
    for i in 0..sig.locs {
        let at_loc = vocab.loc.join(&atoms(vec![loc_atom(i)]));
        fs.push(at_loc.intersect(&real).some());
        let init_i = atoms(vec![i as Atom]);
        let others = vocab.write.intersect(&at_loc).difference(&init_i);
        fs.push(init_i.product(&others).in_(&vocab.co));
        if point.single_writer {
            fs.push(others.intersect(&real).lone());
        }
    }

    // Every read observes some write (the init writes guarantee a
    // source exists; well-formedness caps it at one).
    let mut fresh = VarGen::new();
    let v = fresh.var();
    fs.push(Formula::for_all(
        v,
        vocab.read.clone(),
        vocab.rf.join(&Expr::Var(v)).some(),
    ));

    // The thread layout, pinned exactly; the init thread is alone in
    // its own CTA (and GPU), matching the litmus SAT encoding.
    let mut cta = vec![(init_thread, init_thread)];
    let mut gpu = vec![(init_thread, init_thread)];
    for a in 0..sig.threads {
        for b in 0..sig.threads {
            let (ta, tb) = (ThreadId(a as u32), ThreadId(b as u32));
            if layout.same_cta(ta, tb) {
                cta.push((thread_atom(a), thread_atom(b)));
            }
            if layout.same_gpu(ta, tb) {
                gpu.push((thread_atom(a), thread_atom(b)));
            }
        }
    }
    fs.push(vocab.same_cta.equal(&pairs(cta)));
    fs.push(vocab.same_gpu.equal(&pairs(gpu)));

    Formula::and_all(fs)
}

/// A decoded witness execution: per-event structure plus the witness
/// relations, in the relational universe's atom layout.
struct Decoded {
    kind: Vec<DecodedKind>,
    strong: Vec<bool>,
    acq: Vec<bool>,
    rel: Vec<bool>,
    sc_fence: Vec<bool>,
    scope: Vec<Scope>,
    /// Location index per event (`None` for fences).
    loc: Vec<Option<usize>>,
    /// Program thread per event (`None` for init writes).
    thread: Vec<Option<usize>>,
    po: Vec<(usize, usize)>,
    rf: Vec<(usize, usize)>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum DecodedKind {
    Read,
    Write,
    Fence,
}

/// Reads the witness structure back out of a satisfying instance.
fn decode(schema: &Schema, inst: &Instance, vocab: &PtxVocab, sig: &Signature) -> Decoded {
    let e = sig.events;
    let unary = |expr: &Expr| -> Vec<bool> {
        let ts = eval_expr(schema, inst, expr).expect("vocabulary expr is well-typed");
        let mut member = vec![false; e];
        for t in ts.iter() {
            let a = t.atoms()[0] as usize;
            if a < e {
                member[a] = true;
            }
        }
        member
    };
    let binary = |expr: &Expr| -> Vec<(usize, usize)> {
        let ts = eval_expr(schema, inst, expr).expect("vocabulary expr is well-typed");
        let mut out: Vec<(usize, usize)> = ts
            .iter()
            .filter(|t| (t.atoms()[0] as usize) < e && (t.atoms()[1] as usize) < e)
            .map(|t| (t.atoms()[0] as usize, t.atoms()[1] as usize))
            .collect();
        out.sort_unstable();
        out
    };
    let reads = unary(&vocab.read);
    let writes = unary(&vocab.write);
    let cta = unary(&vocab.scope_cta);
    let gpu = unary(&vocab.scope_gpu);
    let kind = (0..e)
        .map(|i| {
            if reads[i] {
                DecodedKind::Read
            } else if writes[i] {
                DecodedKind::Write
            } else {
                DecodedKind::Fence
            }
        })
        .collect();
    let scope = (0..e)
        .map(|i| {
            if cta[i] {
                Scope::Cta
            } else if gpu[i] {
                Scope::Gpu
            } else {
                Scope::Sys
            }
        })
        .collect();
    let loc_ts = eval_expr(schema, inst, &vocab.loc).expect("vocabulary expr is well-typed");
    let thread_ts = eval_expr(schema, inst, &vocab.thread).expect("vocabulary expr is well-typed");
    let loc_base = sig.events + sig.threads + 1;
    let loc = (0..e)
        .map(|i| {
            loc_ts
                .iter()
                .find(|t| t.atoms()[0] as usize == i)
                .map(|t| t.atoms()[1] as usize - loc_base)
        })
        .collect();
    let thread = (0..e)
        .map(|i| {
            let t = thread_ts
                .iter()
                .find(|t| t.atoms()[0] as usize == i)
                .map(|t| t.atoms()[1] as usize - sig.events)
                .expect("well-formedness assigns every event a thread");
            (t < sig.threads).then_some(t)
        })
        .collect();
    Decoded {
        kind,
        strong: unary(&vocab.strong),
        acq: unary(&vocab.acq),
        rel: unary(&vocab.rel),
        sc_fence: unary(&vocab.sc_fence),
        scope,
        loc,
        thread,
        po: binary(&vocab.po),
        rf: binary(&vocab.rf),
    }
}

/// Lifts a decoded witness into a concrete litmus test: per-thread
/// events ordered by `po` become instructions, every write to a
/// location gets a distinct nonzero value (so the outcome condition
/// pins the witness's `rf` exactly), every read gets a fresh register,
/// and the condition asserts each register holds its rf-source's value.
///
/// Returns `None` only for structurally unliftable witnesses, which the
/// pinned structure is meant to exclude — a `None` here is a search
/// bug, and callers treat it as "drop the witness".
fn lift(point: &SearchPoint, d: &Decoded, name: String) -> Option<PtxLitmus> {
    let sig = point.signature();

    // Distinct values per location: real writes in event-id order get
    // 1, 2, …; the init write keeps 0.
    let mut value: BTreeMap<usize, u64> = BTreeMap::new();
    for l in 0..sig.locs {
        let mut next = 1u64;
        for ev in sig.locs..sig.events {
            if d.kind[ev] == DecodedKind::Write && d.loc[ev] == Some(l) {
                value.insert(ev, next);
                next += 1;
            }
        }
    }

    // Per-thread program order: po is total within a thread, so the
    // number of same-thread po-predecessors ranks each event.
    let mut threads: Vec<Vec<Instruction>> = vec![Vec::new(); sig.threads];
    let mut conds: Vec<Cond> = Vec::new();
    let mut next_reg = vec![0u32; sig.threads];
    for t in 0..sig.threads {
        let mut evs: Vec<usize> = (sig.locs..sig.events)
            .filter(|&ev| d.thread[ev] == Some(t))
            .collect();
        evs.sort_by_key(|&ev| {
            d.po.iter()
                .filter(|&&(a, b)| b == ev && d.thread[a] == Some(t))
                .count()
        });
        for &ev in &evs {
            let scope = d.scope[ev];
            let instr = match d.kind[ev] {
                DecodedKind::Read => {
                    let loc = Location(d.loc[ev]? as u32);
                    let reg = Register(next_reg[t]);
                    next_reg[t] += 1;
                    let src = d.rf.iter().find(|&&(_, r)| r == ev).map(|&(w, _)| w)?;
                    let expect = value.get(&src).copied().unwrap_or(0);
                    conds.push(Cond::reg(t as u32, reg.0, expect));
                    if !d.strong[ev] {
                        build::ld_weak(reg, loc)
                    } else if d.acq[ev] {
                        build::ld_acquire(scope, reg, loc)
                    } else {
                        build::ld_relaxed(scope, reg, loc)
                    }
                }
                DecodedKind::Write => {
                    let loc = Location(d.loc[ev]? as u32);
                    let v = *value.get(&ev)?;
                    if !d.strong[ev] {
                        build::st_weak(loc, v)
                    } else if d.rel[ev] {
                        build::st_release(scope, loc, v)
                    } else {
                        build::st_relaxed(scope, loc, v)
                    }
                }
                DecodedKind::Fence => {
                    if d.sc_fence[ev] {
                        build::fence_sc(scope)
                    } else if d.acq[ev] && d.rel[ev] {
                        build::fence_acq_rel(scope)
                    } else if d.acq[ev] {
                        build::fence_acquire(scope)
                    } else {
                        build::fence_release(scope)
                    }
                }
            };
            threads[t].push(instr);
        }
    }

    let cond = conds
        .into_iter()
        .reduce(|a, b| a.and(b))
        .unwrap_or(Cond::True);
    let test = PtxLitmus {
        name,
        description: format!(
            "synthesized: execution consistent under {} only, bound {}",
            point.consistent, point.events
        ),
        program: ptx::Program::new(threads, point.layout()),
        cond,
        expectation: Expectation::Allowed, // provisional; fixed by round-trip
    };
    // The lift must land back in the same universe; a mismatch would
    // mean the witness used structure the fragment was meant to forbid.
    (sat::signature(&test.program) == sig).then_some(test)
}

/// Runs the distinguishing query at one search point and lifts up to
/// `max_witnesses` satisfying instances. Lifted tests are deduplicated
/// by canonical text (co/sc variations of one program collapse), in
/// deterministic enumeration order.
///
/// # Errors
///
/// Returns a [`relational::TypeError`] only on an internal encoding
/// bug — every vocabulary formula is well-typed by construction.
pub fn search_point(
    point: &SearchPoint,
    max_witnesses: usize,
) -> Result<Vec<Synthesized>, relational::TypeError> {
    search_point_with_options(point, max_witnesses, Options::default())
}

/// [`search_point`] with explicit model-finder options, for callers
/// threading deadlines or cancellation tokens (the `ptxdistill`
/// harness). Symmetry breaking must stay off: the pinned structure pins
/// atoms by identity.
pub fn search_point_with_options(
    point: &SearchPoint,
    max_witnesses: usize,
    options: Options,
) -> Result<Vec<Synthesized>, relational::TypeError> {
    let sig = point.signature();
    let (schema, bounds, vocab, dep) = sat::declare_universe(&sig);
    let mut fresh = VarGen::new();
    let base = Formula::and_all([
        vocab.well_formed(&mut fresh),
        pinned_structure(point, &vocab, &dep),
        sat::model_axioms(&vocab, &dep, point.consistent),
        sat::model_axioms(&vocab, &dep, point.inconsistent).not(),
    ]);
    let mut session = Session::new(&schema, &bounds, &base, options)?;
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    let mut idx = 0usize;
    session.enumerate(&Formula::True, max_witnesses, |inst| {
        let d = decode(&schema, inst, &vocab, &sig);
        let name = format!("{point}-{idx}");
        idx += 1;
        if let Some(test) = lift(point, &d, name) {
            if seen.insert(canonical_ptx_text(&test)) {
                out.push(Synthesized {
                    point: *point,
                    test,
                });
            }
        }
    })?;
    Ok(out)
}

/// The round-trip verdicts of one synthesized test: observability under
/// each model, agreed between the enumeration and SAT paths (with every
/// `Unsat` DRAT-certified).
#[derive(Debug, Clone)]
pub struct RoundTrip {
    /// The test, with `expectation` fixed from the axiomatic verdict.
    pub test: PtxLitmus,
    /// Observability under the paper's axiomatic model.
    pub axiomatic_observable: bool,
    /// Observability under the cumulative draft model.
    pub cumulative_observable: bool,
}

impl RoundTrip {
    /// Whether the test's verdict differs across the two models — the
    /// property that makes it worth keeping.
    pub fn distinguishing(&self) -> bool {
        self.axiomatic_observable != self.cumulative_observable
    }
}

/// Verifies a synthesized test end to end: reparse-stable emission is
/// the caller's concern ([`crate::canon`] tests cover it); here the
/// test is answered under *both* models on *both* engines — exhaustive
/// enumeration and the symbolic SAT path — and the two must agree per
/// model, with `Unsat` answers DRAT-certified.
///
/// # Errors
///
/// Any engine disagreement, budget exhaustion, or certificate failure,
/// as a human-readable message. These are internal-consistency bugs,
/// not properties of the test.
pub fn verify_round_trip(test: &PtxLitmus) -> Result<RoundTrip, String> {
    let sig = sat::signature(&test.program);
    let mut observable = [false; 2];
    for (i, model) in ptx::ALL_MODELS.iter().enumerate() {
        let ground = run_ptx_model(test, *model);
        let mut session =
            SatSession::with_options_model(sig, *model, Options::default().with_proof_logging())
                .map_err(|e| format!("{model}: encoding error: {e}"))?;
        let result = session
            .run(test)
            .map_err(|e| format!("{model}: session error: {e}"))?;
        match result.observable {
            None => return Err(format!("{model}: SAT path answered Unknown with no budget")),
            Some(o) if o != ground.observable => {
                return Err(format!(
                    "{model}: SAT path says observable={o}, enumeration says {}",
                    ground.observable
                ));
            }
            Some(false) => {
                let mut checker = drat::Checker::new();
                checker
                    .absorb(session.proof().expect("proof logging enabled"))
                    .map_err(|e| format!("{model}: proof rejected: {e}"))?;
                checker
                    .expect_core(session.last_core().expect("unsat records a core"))
                    .map_err(|e| format!("{model}: core rejected: {e}"))?;
            }
            Some(true) => {}
        }
        observable[i] = ground.observable;
    }
    let mut test = test.clone();
    test.expectation = if observable[0] {
        Expectation::Allowed
    } else {
        Expectation::Forbidden
    };
    Ok(RoundTrip {
        test,
        axiomatic_observable: observable[0],
        cumulative_observable: observable[1],
    })
}

/// A synthesized, round-trip-verified, verdict-differing litmus test.
#[derive(Debug, Clone)]
pub struct DistilledTest {
    /// The search point whose query produced it.
    pub point: SearchPoint,
    /// The round-trip verdicts (always distinguishing here).
    pub round_trip: RoundTrip,
}

/// The sequential search driver: sweeps every [`search_points`] shape
/// up to `max_bound`, lifts at most `max_witnesses` executions per
/// point, round-trip verifies each, and keeps the verdict-differing
/// tests, deduplicated by canonical text across the whole sweep.
/// Deterministic: points are visited smallest-first and witnesses in
/// enumeration order.
///
/// # Errors
///
/// Propagates [`verify_round_trip`] failures (internal-consistency
/// bugs) and encoding errors, as human-readable messages.
pub fn distill(
    max_bound: usize,
    threads: usize,
    max_witnesses: usize,
) -> Result<Vec<DistilledTest>, String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for point in search_points(max_bound, threads) {
        let found =
            search_point(&point, max_witnesses).map_err(|e| format!("{point}: encoding: {e}"))?;
        for s in found {
            if !seen.insert(canonical_ptx_text(&s.test)) {
                continue;
            }
            let rt = verify_round_trip(&s.test).map_err(|e| format!("{}: {e}", s.test.name))?;
            if rt.distinguishing() {
                out.push(DistilledTest {
                    point,
                    round_trip: rt,
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CoRR-with-relaxed-accesses shape: the axiomatic model's
    /// SC-per-Location forbids a stale second read, the cumulative
    /// draft's ScPerLocLLH (which drops Read→Read program order) allows
    /// it. Four events (one init write + three real), so the smallest
    /// cumulative-only direction must appear by bound 4.
    #[test]
    fn corr_relaxed_distinguisher_found_at_bound_four() {
        let point = SearchPoint {
            consistent: Model::Cumulative,
            inconsistent: Model::Axiomatic,
            events: 4,
            threads: 2,
            locs: 1,
            layout_kind: 0,
            single_writer: true,
        };
        let found = search_point(&point, 32).expect("encoding is well-typed");
        assert!(
            !found.is_empty(),
            "bound 4 must hold a cumulative-only execution"
        );
        let mut distinguishing = 0;
        for s in &found {
            let rt = verify_round_trip(&s.test).unwrap_or_else(|e| panic!("{}: {e}", s.test.name));
            if rt.distinguishing() {
                distinguishing += 1;
                assert!(
                    rt.cumulative_observable && !rt.axiomatic_observable,
                    "{}: the cumulative side must be the permissive one",
                    s.test.name
                );
            }
        }
        assert!(
            distinguishing >= 1,
            "at least one lifted test must differ across models"
        );
    }

    #[test]
    fn witnesses_lift_into_their_own_universe() {
        let point = SearchPoint {
            consistent: Model::Cumulative,
            inconsistent: Model::Axiomatic,
            events: 4,
            threads: 2,
            locs: 1,
            layout_kind: 1,
            single_writer: true,
        };
        for s in search_point(&point, 8).expect("encoding is well-typed") {
            assert_eq!(sat::signature(&s.test.program), point.signature());
            assert_eq!(s.test.program.num_threads(), 2);
        }
    }

    #[test]
    fn distill_sweep_is_deterministic_and_finds_both_directions_by_bound_five() {
        let a = distill(5, 2, 16).expect("sweep succeeds");
        let b = distill(5, 2, 16).expect("sweep succeeds");
        let names = |v: &[DistilledTest]| {
            v.iter()
                .map(|d| d.round_trip.test.name.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&a), names(&b), "the sweep must be deterministic");
        assert!(
            a.iter().any(|d| d.round_trip.cumulative_observable),
            "some test must be cumulative-only observable"
        );
        // The sweep lifts only the first `max_witnesses` witnesses per
        // point, so an encoding change that reorders `Session::enumerate`
        // can quietly trade distinguishing tests for duplicates or
        // non-distinguishing ones. The current encoding keeps 144; fewer
        // is a regression.
        const KEPT_AT_BOUND_FIVE: usize = 144;
        assert!(
            a.len() >= KEPT_AT_BOUND_FIVE,
            "the sweep kept {} distinguishing tests, fewer than {KEPT_AT_BOUND_FIVE}",
            a.len()
        );
    }
}
