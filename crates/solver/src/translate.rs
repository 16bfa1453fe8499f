//! Translation from bounded relational logic to boolean circuits.
//!
//! Every relation becomes a sparse matrix of gates indexed by tuple: tuples
//! in the lower bound map to constant-true, tuples outside the upper bound
//! are absent (constant-false), and tuples in between become free inputs.
//! Relational operators combine matrices pointwise or by join; transitive
//! closure uses iterative squaring (or naive unrolling, for the ablation
//! study), sized by the *support* of the matrix being closed — the atoms
//! in its non-false entries — rather than by the universe: no simple path
//! or cycle over `k` atoms is longer than `k` edges, so the support bounds
//! the squaring chain exactly. Formulas reduce to a single root gate.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use relational::ast::{Expr, Formula, VarId};
use relational::{Atom, Bounds, Schema, Tuple, TupleSet, TypeError};

use crate::circuit::{Circuit, GateId};

/// Strategy for encoding transitive closure. Step counts are in terms of
/// `k`, the support size of the matrix being closed (the number of atoms
/// in its non-false entries), not the universe size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClosureStrategy {
    /// `⌈log₂ k⌉` squaring steps: `r ← r ∪ r;r`.
    #[default]
    IterativeSquaring,
    /// `k-1` linear unrolling steps: `acc ← r ∪ acc;r`.
    Unrolled,
}

/// A sparse boolean matrix over tuples: the translated value of an
/// expression. Tuples absent from `entries` are constant-false.
#[derive(Debug, Clone)]
pub struct Matrix {
    arity: usize,
    entries: BTreeMap<Tuple, GateId>,
}

impl Matrix {
    fn empty(arity: usize) -> Matrix {
        Matrix {
            arity,
            entries: BTreeMap::new(),
        }
    }

    fn constant(c: &mut Circuit, ts: &TupleSet) -> Matrix {
        let mut m = Matrix::empty(ts.arity());
        let t = c.tru();
        for tuple in ts.iter() {
            m.entries.insert(tuple.clone(), t);
        }
        m
    }

    fn insert(&mut self, c: &Circuit, t: Tuple, g: GateId) {
        if !c.is_false(g) {
            self.entries.insert(t, g);
        }
    }

    fn get(&self, c: &Circuit, t: &Tuple) -> GateId {
        self.entries.get(t).copied().unwrap_or(c.fls())
    }

    /// The arity of this matrix.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The non-false entries.
    pub fn entries(&self) -> impl Iterator<Item = (&Tuple, GateId)> {
        self.entries.iter().map(|(t, &g)| (t, g))
    }

    /// The number of distinct atoms in the non-false entries.
    fn support_size(&self) -> usize {
        let atoms: BTreeSet<Atom> = self
            .entries
            .keys()
            .flat_map(|t| t.atoms().iter().copied())
            .collect();
        atoms.len()
    }
}

/// A persistent translator: one circuit accumulating the translations of
/// many formulas over the same (schema, bounds).
///
/// The relation matrices are allocated once at construction, so every
/// translated formula refers to the *same* input gates, and structural
/// hashing in the shared [`Circuit`] dedups any subexpression (joins,
/// closure squaring chains, quantifier expansions) that later formulas
/// have in common with earlier ones. This is the translation half of the
/// incremental `Session` pipeline.
#[derive(Debug)]
pub struct IncrementalTranslator {
    inner: Translator,
}

impl IncrementalTranslator {
    /// Creates a translator for `(schema, bounds)`, allocating the
    /// relation matrices.
    pub fn new(
        schema: &Schema,
        bounds: &Bounds,
        strategy: ClosureStrategy,
    ) -> IncrementalTranslator {
        let mut inner = Translator {
            schema: schema.clone(),
            bounds: bounds.clone(),
            circuit: Circuit::new(),
            rel_matrices: Vec::new(),
            rel_inputs: Vec::new(),
            env: HashMap::new(),
            strategy,
            bool_inputs: HashMap::new(),
            cells: 0,
        };
        inner.allocate_relations();
        IncrementalTranslator { inner }
    }

    /// Translates one more formula into the shared circuit and returns
    /// its root gate.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] if the formula violates arity discipline.
    pub fn formula(&mut self, formula: &Formula) -> Result<GateId, TypeError> {
        relational::check_formula(formula, &self.inner.schema)?;
        self.inner.formula(formula)
    }

    /// The shared circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.inner.circuit
    }

    /// Mutable access to the shared circuit (symmetry-breaking predicates
    /// are built directly into it).
    pub fn circuit_mut(&mut self) -> &mut Circuit {
        &mut self.inner.circuit
    }

    /// The mutable circuit together with the relation input maps, for
    /// callers (symmetry breaking) that need both at once.
    pub fn parts_mut(&mut self) -> (&mut Circuit, &[BTreeMap<Tuple, u32>]) {
        (&mut self.inner.circuit, &self.inner.rel_inputs)
    }

    /// For each relation id: tuple → circuit input index.
    pub fn rel_inputs(&self) -> &[BTreeMap<Tuple, u32>] {
        &self.inner.rel_inputs
    }

    /// The schema this translator was built for.
    pub fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    /// The bounds this translator was built for.
    pub fn bounds(&self) -> &Bounds {
        &self.inner.bounds
    }

    /// Cumulative count of sparse matrix cells materialized by this
    /// translator: the relation matrices allocated at construction plus
    /// every entry of every operator result (union, join, closure
    /// squaring steps, …). A measure of translation-side work that is
    /// deterministic for a fixed (schema, bounds, formula) sequence.
    pub fn matrix_cells(&self) -> u64 {
        self.inner.cells
    }
}

#[derive(Debug)]
struct Translator {
    schema: Schema,
    bounds: Bounds,
    circuit: Circuit,
    rel_matrices: Vec<Matrix>,
    rel_inputs: Vec<BTreeMap<Tuple, u32>>,
    env: HashMap<VarId, Atom>,
    strategy: ClosureStrategy,
    /// Circuit input allocated for each free boolean, keyed by
    /// [`relational::BoolId`] index. Persistent across formulas so a
    /// `Free(b)` in two formulas of one session refers to the same input;
    /// queries that want independent booleans must use distinct ids.
    bool_inputs: HashMap<u32, GateId>,
    /// Matrix cells materialized so far; see
    /// [`IncrementalTranslator::matrix_cells`].
    cells: u64,
}

impl Translator {
    fn allocate_relations(&mut self) {
        for (id, d) in self.schema.iter() {
            let lower = self.bounds.lower(id);
            let upper = self.bounds.upper(id);
            let mut m = Matrix::empty(d.arity);
            let mut inputs = BTreeMap::new();
            for t in upper.iter() {
                let g = if lower.contains(t) {
                    self.circuit.tru()
                } else {
                    let g = self.circuit.input();
                    inputs.insert(t.clone(), (self.circuit.num_inputs() - 1) as u32);
                    g
                };
                m.entries.insert(t.clone(), g);
            }
            self.cells += m.entries.len() as u64;
            self.rel_matrices.push(m);
            self.rel_inputs.push(inputs);
        }
    }

    /// Notes a freshly materialized matrix for the cell counter.
    fn built(&mut self, m: Matrix) -> Matrix {
        self.cells += m.entries.len() as u64;
        m
    }

    fn expr(&mut self, e: &Expr) -> Result<Matrix, TypeError> {
        let n = self.bounds.universe_size();
        Ok(match e {
            Expr::Rel(r) => self.rel_matrices[r.index()].clone(),
            Expr::Var(v) => {
                let atom = *self.env.get(v).ok_or(TypeError::UnboundVar(*v))?;
                let mut m = Matrix::empty(1);
                m.entries.insert(Tuple::new(vec![atom]), self.circuit.tru());
                self.built(m)
            }
            Expr::Const(ts) => {
                let m = Matrix::constant(&mut self.circuit, ts);
                self.built(m)
            }
            Expr::Iden => {
                let m = Matrix::constant(&mut self.circuit, &TupleSet::iden(n));
                self.built(m)
            }
            Expr::Univ => {
                let m = Matrix::constant(&mut self.circuit, &TupleSet::universe(n));
                self.built(m)
            }
            Expr::None(a) => Matrix::empty(*a),
            Expr::Union(a, b) => {
                let (ma, mb) = (self.expr(a)?, self.expr(b)?);
                self.union(&ma, &mb)
            }
            Expr::Intersect(a, b) => {
                let (ma, mb) = (self.expr(a)?, self.expr(b)?);
                self.intersect(&ma, &mb)
            }
            Expr::Difference(a, b) => {
                let (ma, mb) = (self.expr(a)?, self.expr(b)?);
                self.difference(&ma, &mb)
            }
            Expr::Join(a, b) => {
                let (ma, mb) = (self.expr(a)?, self.expr(b)?);
                self.join(&ma, &mb)
            }
            Expr::Product(a, b) => {
                let (ma, mb) = (self.expr(a)?, self.expr(b)?);
                self.product(&ma, &mb)
            }
            Expr::Transpose(a) => {
                let ma = self.expr(a)?;
                let mut m = Matrix::empty(2);
                for (t, g) in ma.entries {
                    m.entries.insert(t.reversed(), g);
                }
                self.built(m)
            }
            Expr::Closure(a) => {
                let ma = self.expr(a)?;
                self.closure(&ma)
            }
            Expr::ReflexiveClosure(a) => {
                let ma = self.expr(a)?;
                let closed = self.closure(&ma);
                let iden = Matrix::constant(&mut self.circuit, &TupleSet::iden(n));
                self.union(&closed, &iden)
            }
        })
    }

    fn union(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        let mut m = Matrix::empty(a.arity);
        for (t, &g) in &a.entries {
            m.entries.insert(t.clone(), g);
        }
        for (t, &g) in &b.entries {
            let existing = m.get(&self.circuit, t);
            let merged = self.circuit.or(existing, g);
            m.insert(&self.circuit, t.clone(), merged);
        }
        self.built(m)
    }

    fn intersect(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        let mut m = Matrix::empty(a.arity);
        for (t, &ga) in &a.entries {
            let gb = b.get(&self.circuit, t);
            let g = self.circuit.and(ga, gb);
            m.insert(&self.circuit, t.clone(), g);
        }
        self.built(m)
    }

    fn difference(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        let mut m = Matrix::empty(a.arity);
        for (t, &ga) in &a.entries {
            let gb = b.get(&self.circuit, t);
            let ngb = self.circuit.not(gb);
            let g = self.circuit.and(ga, ngb);
            m.insert(&self.circuit, t.clone(), g);
        }
        self.built(m)
    }

    fn join(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        let result_arity = a.arity + b.arity - 2;
        // Index b by first atom.
        let mut index: HashMap<Atom, Vec<(&Tuple, GateId)>> = HashMap::new();
        for (t, &g) in &b.entries {
            index.entry(t.atoms()[0]).or_default().push((t, g));
        }
        // Group products by result tuple, then OR them together.
        let mut products: BTreeMap<Tuple, Vec<GateId>> = BTreeMap::new();
        for (ta, &ga) in &a.entries {
            let last = *ta.atoms().last().expect("tuples are non-empty");
            if let Some(matches) = index.get(&last) {
                for &(tb, gb) in matches {
                    let mut atoms = ta.atoms()[..a.arity - 1].to_vec();
                    atoms.extend_from_slice(&tb.atoms()[1..]);
                    let g = self.circuit.and(ga, gb);
                    if !self.circuit.is_false(g) {
                        products.entry(Tuple::new(atoms)).or_default().push(g);
                    }
                }
            }
        }
        let mut m = Matrix::empty(result_arity);
        for (t, gates) in products {
            let g = self.circuit.or_all(gates);
            m.insert(&self.circuit, t, g);
        }
        self.built(m)
    }

    fn product(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        let mut m = Matrix::empty(a.arity + b.arity);
        for (ta, &ga) in &a.entries {
            for (tb, &gb) in &b.entries {
                let g = self.circuit.and(ga, gb);
                m.insert(&self.circuit, ta.concat(tb), g);
            }
        }
        self.built(m)
    }

    /// `^a`, covering paths of up to `k` edges where `k` is the support
    /// size of `a`: any longer path revisits an atom, so it contains a
    /// shorter path over a subset of its edges and adds nothing.
    fn closure(&mut self, a: &Matrix) -> Matrix {
        let k = a.support_size();
        match self.strategy {
            ClosureStrategy::IterativeSquaring => {
                let mut acc = a.clone();
                let mut span = 1usize;
                while span < k {
                    let squared = self.join(&acc, &acc);
                    acc = self.union(&acc, &squared);
                    span *= 2;
                }
                acc
            }
            ClosureStrategy::Unrolled => {
                let mut acc = a.clone();
                for _ in 1..k {
                    let step = self.join(&acc, a);
                    acc = self.union(a, &step);
                }
                acc
            }
        }
    }

    fn formula(&mut self, f: &Formula) -> Result<GateId, TypeError> {
        Ok(match f {
            Formula::True => self.circuit.tru(),
            Formula::False => self.circuit.fls(),
            Formula::Free(b) => {
                let circuit = &mut self.circuit;
                *self
                    .bool_inputs
                    .entry(b.0)
                    .or_insert_with(|| circuit.input())
            }
            Formula::Subset(a, b) => {
                let (ma, mb) = (self.expr(a)?, self.expr(b)?);
                self.subset(&ma, &mb)
            }
            Formula::Equal(a, b) => {
                let (ma, mb) = (self.expr(a)?, self.expr(b)?);
                let fwd = self.subset(&ma, &mb);
                let back = self.subset(&mb, &ma);
                self.circuit.and(fwd, back)
            }
            Formula::Some(a) => {
                let ma = self.expr(a)?;
                let gates: Vec<GateId> = ma.entries.values().copied().collect();
                self.circuit.or_all(gates)
            }
            Formula::No(a) => {
                let ma = self.expr(a)?;
                let gates: Vec<GateId> = ma.entries.values().copied().collect();
                let any = self.circuit.or_all(gates);
                self.circuit.not(any)
            }
            Formula::One(a) => {
                let ma = self.expr(a)?;
                let some = {
                    let gates: Vec<GateId> = ma.entries.values().copied().collect();
                    self.circuit.or_all(gates)
                };
                let lone = self.at_most_one(&ma);
                self.circuit.and(some, lone)
            }
            Formula::Lone(a) => {
                let ma = self.expr(a)?;
                self.at_most_one(&ma)
            }
            Formula::Not(inner) => {
                let g = self.formula(inner)?;
                self.circuit.not(g)
            }
            Formula::And(fs) => {
                let mut gates = Vec::with_capacity(fs.len());
                for f in fs {
                    gates.push(self.formula(f)?);
                }
                self.circuit.and_all(gates)
            }
            Formula::Or(fs) => {
                let mut gates = Vec::with_capacity(fs.len());
                for f in fs {
                    gates.push(self.formula(f)?);
                }
                self.circuit.or_all(gates)
            }
            Formula::Implies(a, b) => {
                let (ga, gb) = (self.formula(a)?, self.formula(b)?);
                self.circuit.implies(ga, gb)
            }
            Formula::Iff(a, b) => {
                let (ga, gb) = (self.formula(a)?, self.formula(b)?);
                self.circuit.iff(ga, gb)
            }
            Formula::ForAll(v, domain, body) => {
                let md = self.expr(domain)?;
                let mut gates = Vec::new();
                for (t, gd) in md.entries.clone() {
                    self.env.insert(*v, t.atoms()[0]);
                    let gb = self.formula(body)?;
                    self.env.remove(v);
                    gates.push(self.circuit.implies(gd, gb));
                }
                self.circuit.and_all(gates)
            }
            Formula::Exists(v, domain, body) => {
                let md = self.expr(domain)?;
                let mut gates = Vec::new();
                for (t, gd) in md.entries.clone() {
                    self.env.insert(*v, t.atoms()[0]);
                    let gb = self.formula(body)?;
                    self.env.remove(v);
                    gates.push(self.circuit.and(gd, gb));
                }
                self.circuit.or_all(gates)
            }
        })
    }

    fn subset(&mut self, a: &Matrix, b: &Matrix) -> GateId {
        let mut gates = Vec::with_capacity(a.entries.len());
        for (t, &ga) in &a.entries {
            let gb = b.get(&self.circuit, t);
            gates.push(self.circuit.implies(ga, gb));
        }
        self.circuit.and_all(gates)
    }

    fn at_most_one(&mut self, a: &Matrix) -> GateId {
        let gates: Vec<GateId> = a.entries.values().copied().collect();
        let mut constraints = Vec::new();
        for i in 0..gates.len() {
            for j in (i + 1)..gates.len() {
                let both = self.circuit.and(gates[i], gates[j]);
                constraints.push(self.circuit.not(both));
            }
        }
        self.circuit.and_all(constraints)
    }
}

// Re-check that arity discipline is validated before translation: the
// public entry point calls `relational::check_formula` first, so the
// matrix operations may assume consistent arities.
#[cfg(test)]
mod tests {
    use super::*;
    use relational::schema::rel;

    /// Translates `f` with a fresh translator, returning it and the root.
    fn translate(schema: &Schema, bounds: &Bounds, f: &Formula) -> (IncrementalTranslator, GateId) {
        let mut tr = IncrementalTranslator::new(schema, bounds, ClosureStrategy::default());
        let root = tr.formula(f).unwrap();
        (tr, root)
    }

    #[test]
    fn translation_counts_inputs() {
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let mut bounds = Bounds::new(&schema, 2);
        bounds.bound_upper(r, TupleSet::from_pairs([(0, 0), (0, 1), (1, 0), (1, 1)]));
        let (tr, root) = translate(&schema, &bounds, &rel(r).some());
        assert_eq!(tr.rel_inputs()[0].len(), 4);
        assert!(!tr.circuit().is_false(root));
    }

    #[test]
    fn lower_bound_tuples_are_constant_true() {
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let mut bounds = Bounds::new(&schema, 2);
        bounds.bound(
            r,
            TupleSet::from_pairs([(0, 1)]),
            TupleSet::from_pairs([(0, 1), (1, 0)]),
        );
        // `some r` must be constant-true: (0,1) is always present.
        let (tr, root) = translate(&schema, &bounds, &rel(r).some());
        assert!(tr.circuit().is_true(root));
        assert_eq!(tr.rel_inputs()[0].len(), 1); // only (1,0) is free
    }

    #[test]
    fn matrix_cells_are_counted_and_deterministic() {
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let mut bounds = Bounds::new(&schema, 3);
        bounds.bound_upper(r, TupleSet::universe(3).product(&TupleSet::universe(3)));
        let f = rel(r)
            .closure()
            .intersect(&relational::ast::Expr::Iden)
            .no();
        let (a, _) = translate(&schema, &bounds, &f);
        let (b, _) = translate(&schema, &bounds, &f);
        assert!(a.matrix_cells() > 9, "closure work must be counted");
        assert_eq!(a.matrix_cells(), b.matrix_cells());
    }

    /// Edge `i` of a chain or ring over atoms `5..5+k`: `5+i → 5+(i+1)%k`.
    fn edge(i: usize, k: usize) -> (Atom, Atom) {
        (5 + i as Atom, 5 + ((i + 1) % k) as Atom)
    }

    /// Closes a chain (`ring = false`) or a ring over atoms `5..5+k` of a
    /// 32-atom universe, with every edge free. Returns the translator, the
    /// closure, and the matrix cells the closure materialized.
    fn close_chain_or_ring(
        k: usize,
        ring: bool,
        strategy: ClosureStrategy,
    ) -> (IncrementalTranslator, Matrix, u64) {
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let mut bounds = Bounds::new(&schema, 32);
        let edges = if ring { k } else { k - 1 };
        bounds.bound_upper(r, TupleSet::from_pairs((0..edges).map(|i| edge(i, k))));
        let mut tr = IncrementalTranslator::new(&schema, &bounds, strategy);
        let before = tr.matrix_cells();
        let closed = tr.inner.expr(&rel(r).closure()).unwrap();
        let cells = tr.matrix_cells() - before;
        (tr, closed, cells)
    }

    /// The closure is exact when sized by the support: cutting any one
    /// edge of a chain or ring over `k` atoms (in a 32-atom universe)
    /// breaks exactly the pairs whose forward path crosses it, including
    /// the `k`-edge cycles of a ring.
    #[test]
    fn support_sized_closure_is_exact() {
        for strategy in [
            ClosureStrategy::IterativeSquaring,
            ClosureStrategy::Unrolled,
        ] {
            for k in [2usize, 3, 4, 5, 8, 9, 17] {
                for ring in [false, true] {
                    let (tr, closed, _) = close_chain_or_ring(k, ring, strategy);
                    let c = tr.circuit();
                    let edges = if ring { k } else { k - 1 };
                    // `cut == edges` cuts nothing.
                    for cut in 0..=edges {
                        let mut inputs = vec![true; c.num_inputs()];
                        if cut < edges {
                            let (x, y) = edge(cut, k);
                            inputs[tr.rel_inputs()[0][&Tuple::new(vec![x, y])] as usize] = false;
                        }
                        for i in 0..k {
                            for j in 0..k {
                                // Forward path i → j: edges i, i+1, … (mod k).
                                let len = match (ring, j > i) {
                                    (_, true) => j - i,
                                    (true, false) => j + k - i,
                                    (false, false) => 0,
                                };
                                let crosses = (0..len).any(|step| (i + step) % k == cut);
                                let t = Tuple::new(vec![5 + i as Atom, 5 + j as Atom]);
                                let got = c.eval(closed.get(c, &t), &inputs);
                                assert_eq!(
                                    got,
                                    len > 0 && !crosses,
                                    "{strategy:?} k={k} ring={ring} cut={cut} ({i},{j})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Closing a chain over `k` atoms of a 32-atom universe takes
    /// `⌈log₂ k⌉` squarings, not `⌈log₂ 32⌉`. Squaring `s` (from 0)
    /// materializes its join (pairs `2..=reach` apart) and its union
    /// (`1..=reach` apart), `reach = min(2^(s+1), k-1)`; any extra
    /// squaring would add cells.
    #[test]
    fn closure_squarings_follow_support_not_universe() {
        for k in [2usize, 3, 4, 5, 8, 9, 17] {
            let (_, _, cells) = close_chain_or_ring(k, false, ClosureStrategy::IterativeSquaring);
            let pairs_apart = |lo: usize, hi: usize| (lo..=hi).map(|d| k - d).sum::<usize>();
            let squarings = k.next_power_of_two().trailing_zeros();
            let want: usize = (0..squarings)
                .map(|s| {
                    let reach = (2usize << s).min(k - 1);
                    pairs_apart(2, reach) + pairs_apart(1, reach)
                })
                .sum();
            assert_eq!(cells, want as u64, "k={k}");
        }
    }

    #[test]
    fn type_errors_propagate() {
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let s = schema.relation("s", 1);
        let bounds = Bounds::new(&schema, 2);
        let bad = rel(r).union(&rel(s)).some();
        let mut tr = IncrementalTranslator::new(&schema, &bounds, ClosureStrategy::default());
        assert!(tr.formula(&bad).is_err());
    }
}
