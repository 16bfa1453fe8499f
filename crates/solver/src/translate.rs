//! Translation from bounded relational logic to boolean circuits.
//!
//! Every relation becomes a sparse matrix of gates indexed by tuple: tuples
//! in the lower bound map to constant-true, tuples outside the upper bound
//! are absent (constant-false), and tuples in between become free inputs.
//! Relational operators combine matrices pointwise or by join; transitive
//! closure uses iterative squaring, sized by the *support* of the matrix
//! being closed — the atoms in its non-false entries — rather than by the
//! universe: no simple path or cycle over `k` atoms is longer than `k`
//! edges, so `⌈log₂ k⌉` squarings cover every path exactly. Formulas
//! reduce to a single root gate.
//!
//! # The translation cache
//!
//! Memory-model axioms share derived relations: each axiom of the PTX
//! model builds its own copy of `morally_strong`, `obs`, `sw` and so on,
//! and a quantifier body asks, for every atom, for the subterms that do
//! not mention its variable. Each [`IncrementalTranslator::formula`]
//! call therefore first interns the formula bottom-up into a DAG of
//! distinct subterms: structurally equal trees get one node however they
//! were built, and each node records its free quantifier variables. A
//! node that can be asked for twice under one binding of those variables
//! — it has several parents, or a parent binds more variables than it
//! mentions — is translated once per binding, and later requests reuse
//! its matrix (or its root gate, for a formula). A relation's matrix is
//! shared by `Arc`, as is every cached matrix, so a reuse costs a
//! reference count, not a copy.
//!
//! The cache lives for one `formula` call and is dropped when it returns,
//! so a long-lived session keeps no translation state beyond its circuit
//! and relation matrices. Translating a subterm a second time would only
//! rebuild the gates of the first translation (structural hashing returns
//! their existing ids), so the cache changes no gate, gate order or CNF;
//! it skips that work, which [`IncrementalTranslator::matrix_cells`]
//! counts.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use relational::{
    Atom, BoolId, Bounds, Expr, Formula, RelId, Schema, Tuple, TupleSet, TypeError, VarId,
};

use crate::circuit::{Circuit, GateId};

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
    pub fn new(schema: &Schema, bounds: &Bounds) -> IncrementalTranslator {
        let mut inner = Translator {
            schema: schema.clone(),
            bounds: bounds.clone(),
            circuit: Circuit::new(),
            rel_matrices: Vec::new(),
            rel_inputs: Vec::new(),
            env: HashMap::new(),
            bool_inputs: HashMap::new(),
            cells: 0,
        };
        inner.allocate_relations();
        IncrementalTranslator { inner }
    }

    /// Translates one more formula into the shared circuit and returns
    /// its root gate. Each distinct subterm is translated once per
    /// binding of its free variables (see the module docs); the cache
    /// doing this is dropped on return.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] if the formula violates arity discipline.
    pub fn formula(&mut self, formula: &Formula) -> Result<GateId, TypeError> {
        relational::check_formula(formula, &self.inner.schema)?;
        let dag = Dag::build(|b| b.formula(formula));
        self.inner.formula(&mut Call::new(&dag), dag.root)
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
    /// squaring steps, …). A subterm answered from the translation cache
    /// materializes nothing. A measure of translation-side work that is
    /// deterministic for a fixed (schema, bounds, formula) sequence.
    pub fn matrix_cells(&self) -> u64 {
        self.inner.cells
    }
}

/// Dense index of a node of a [`Dag`].
type NodeId = u32;

/// One distinct subterm of a translated formula, with its operands
/// replaced by their node ids. Expressions and formulas share the one
/// id space; the variants mirror [`Expr`] and [`Formula`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Node {
    Rel(RelId),
    Var(VarId),
    Const(Arc<TupleSet>),
    Iden,
    Univ,
    None(usize),
    Union(NodeId, NodeId),
    Intersect(NodeId, NodeId),
    Difference(NodeId, NodeId),
    Join(NodeId, NodeId),
    Product(NodeId, NodeId),
    Transpose(NodeId),
    Closure(NodeId),
    ReflexiveClosure(NodeId),
    True,
    False,
    Free(BoolId),
    Subset(NodeId, NodeId),
    Equal(NodeId, NodeId),
    Some(NodeId),
    No(NodeId),
    One(NodeId),
    Lone(NodeId),
    Not(NodeId),
    And(Box<[NodeId]>),
    Or(Box<[NodeId]>),
    Implies(NodeId, NodeId),
    Iff(NodeId, NodeId),
    ForAll(VarId, NodeId, NodeId),
    Exists(VarId, NodeId, NodeId),
}

impl Node {
    /// The operands, in translation order (a quantifier's domain before
    /// its body).
    fn operands(&self) -> Vec<NodeId> {
        match self {
            Node::Rel(_)
            | Node::Var(_)
            | Node::Const(_)
            | Node::Iden
            | Node::Univ
            | Node::None(_)
            | Node::True
            | Node::False
            | Node::Free(_) => Vec::new(),
            Node::Transpose(a)
            | Node::Closure(a)
            | Node::ReflexiveClosure(a)
            | Node::Some(a)
            | Node::No(a)
            | Node::One(a)
            | Node::Lone(a)
            | Node::Not(a) => vec![*a],
            Node::Union(a, b)
            | Node::Intersect(a, b)
            | Node::Difference(a, b)
            | Node::Join(a, b)
            | Node::Product(a, b)
            | Node::Subset(a, b)
            | Node::Equal(a, b)
            | Node::Implies(a, b)
            | Node::Iff(a, b)
            | Node::ForAll(_, a, b)
            | Node::Exists(_, a, b) => vec![*a, *b],
            Node::And(fs) | Node::Or(fs) => fs.to_vec(),
        }
    }

    /// Leaves are not cached: a relation leaf shares its matrix already,
    /// and the others are constants built without gate work.
    fn is_leaf(&self) -> bool {
        self.operands().is_empty()
    }
}

/// A formula's subterms interned bottom-up: structurally equal subtrees,
/// however they were built, share one node, and operands always have
/// smaller ids than their users.
#[derive(Debug)]
struct Dag {
    nodes: Vec<Node>,
    /// Each node's free quantifier variables, sorted.
    free: Vec<Box<[VarId]>>,
    /// Whether a node can be asked for twice under one binding of its
    /// free variables; only these nodes are cached.
    cached: Vec<bool>,
    root: NodeId,
}

impl Dag {
    /// Interns the term `intern` walks and marks the nodes worth caching.
    fn build(intern: impl FnOnce(&mut DagBuilder) -> NodeId) -> Dag {
        let mut b = DagBuilder::default();
        let root = intern(&mut b);
        let mut uses = vec![0u32; b.nodes.len()];
        let mut cached = vec![false; b.nodes.len()];
        for (p, node) in b.nodes.iter().enumerate() {
            let bound = &b.free[p];
            for (i, c) in node.operands().into_iter().enumerate() {
                let c = c as usize;
                // The variables bound while `c` is translated: the
                // parent's, plus a quantifier's own for its body.
                let in_scope = match node {
                    Node::ForAll(v, ..) | Node::Exists(v, ..) if i == 1 => {
                        bound.len() + usize::from(bound.binary_search(v).is_err())
                    }
                    _ => bound.len(),
                };
                uses[c] += 1;
                // `c`'s free variables are among those in scope. If it
                // ignores one of them, the parent's requests for different
                // values of that variable share `c`'s binding.
                cached[c] |= uses[c] > 1 || in_scope > b.free[c].len();
            }
        }
        for (c, node) in b.nodes.iter().enumerate() {
            cached[c] &= !node.is_leaf();
        }
        Dag {
            nodes: b.nodes,
            free: b.free,
            cached,
            root,
        }
    }
}

/// Hash-conses nodes for [`Dag::build`]. The walked term stays borrowed
/// for the whole build, so a subtree reached twice through one `Arc`
/// (same address) is interned once without being walked again.
#[derive(Debug, Default)]
struct DagBuilder {
    nodes: Vec<Node>,
    free: Vec<Box<[VarId]>>,
    ids: HashMap<Node, NodeId>,
    seen_exprs: HashMap<*const Expr, NodeId>,
    seen_formulas: HashMap<*const Formula, NodeId>,
}

impl DagBuilder {
    fn expr(&mut self, e: &Expr) -> NodeId {
        if let Some(&id) = self.seen_exprs.get(&std::ptr::from_ref(e)) {
            return id;
        }
        let node = match e {
            Expr::Rel(r) => Node::Rel(*r),
            Expr::Var(v) => Node::Var(*v),
            Expr::Const(ts) => Node::Const(Arc::clone(ts)),
            Expr::Iden => Node::Iden,
            Expr::Univ => Node::Univ,
            Expr::None(a) => Node::None(*a),
            Expr::Union(a, b) => Node::Union(self.expr(a), self.expr(b)),
            Expr::Intersect(a, b) => Node::Intersect(self.expr(a), self.expr(b)),
            Expr::Difference(a, b) => Node::Difference(self.expr(a), self.expr(b)),
            Expr::Join(a, b) => Node::Join(self.expr(a), self.expr(b)),
            Expr::Product(a, b) => Node::Product(self.expr(a), self.expr(b)),
            Expr::Transpose(a) => Node::Transpose(self.expr(a)),
            Expr::Closure(a) => Node::Closure(self.expr(a)),
            Expr::ReflexiveClosure(a) => Node::ReflexiveClosure(self.expr(a)),
        };
        let id = self.intern(node);
        self.seen_exprs.insert(std::ptr::from_ref(e), id);
        id
    }

    fn formula(&mut self, f: &Formula) -> NodeId {
        if let Some(&id) = self.seen_formulas.get(&std::ptr::from_ref(f)) {
            return id;
        }
        let node = match f {
            Formula::True => Node::True,
            Formula::False => Node::False,
            Formula::Free(b) => Node::Free(*b),
            Formula::Subset(a, b) => Node::Subset(self.expr(a), self.expr(b)),
            Formula::Equal(a, b) => Node::Equal(self.expr(a), self.expr(b)),
            Formula::Some(a) => Node::Some(self.expr(a)),
            Formula::No(a) => Node::No(self.expr(a)),
            Formula::One(a) => Node::One(self.expr(a)),
            Formula::Lone(a) => Node::Lone(self.expr(a)),
            Formula::Not(a) => Node::Not(self.formula(a)),
            Formula::And(fs) => Node::And(fs.iter().map(|f| self.formula(f)).collect()),
            Formula::Or(fs) => Node::Or(fs.iter().map(|f| self.formula(f)).collect()),
            Formula::Implies(a, b) => Node::Implies(self.formula(a), self.formula(b)),
            Formula::Iff(a, b) => Node::Iff(self.formula(a), self.formula(b)),
            Formula::ForAll(v, d, body) => Node::ForAll(*v, self.expr(d), self.formula(body)),
            Formula::Exists(v, d, body) => Node::Exists(*v, self.expr(d), self.formula(body)),
        };
        let id = self.intern(node);
        self.seen_formulas.insert(std::ptr::from_ref(f), id);
        id
    }

    fn intern(&mut self, node: Node) -> NodeId {
        if let Some(&id) = self.ids.get(&node) {
            return id;
        }
        let mut free: Vec<VarId> = node
            .operands()
            .into_iter()
            .enumerate()
            .flat_map(|(i, c)| {
                let body_of = match node {
                    Node::ForAll(v, ..) | Node::Exists(v, ..) if i == 1 => Some(v),
                    _ => None,
                };
                self.free[c as usize]
                    .iter()
                    .copied()
                    .filter(move |&w| Some(w) != body_of)
            })
            .collect();
        if let Node::Var(v) = node {
            free.push(v);
        }
        free.sort_unstable();
        free.dedup();
        let id = self.nodes.len() as NodeId;
        self.nodes.push(node.clone());
        self.free.push(free.into());
        self.ids.insert(node, id);
        id
    }
}

/// One `formula` call's DAG and translation cache: each cached node's
/// matrix (expressions) or gate (formulas), keyed by the node and the
/// atoms bound to its free variables, in [`Dag::free`] order.
struct Call<'d> {
    dag: &'d Dag,
    matrices: HashMap<(NodeId, Box<[Atom]>), Arc<Matrix>>,
    gates: HashMap<(NodeId, Box<[Atom]>), GateId>,
}

impl<'d> Call<'d> {
    fn new(dag: &'d Dag) -> Call<'d> {
        Call {
            dag,
            matrices: HashMap::new(),
            gates: HashMap::new(),
        }
    }
}

#[derive(Debug)]
struct Translator {
    schema: Schema,
    bounds: Bounds,
    circuit: Circuit,
    rel_matrices: Vec<Arc<Matrix>>,
    rel_inputs: Vec<BTreeMap<Tuple, u32>>,
    env: HashMap<VarId, Atom>,
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
            self.rel_matrices.push(Arc::new(m));
            self.rel_inputs.push(inputs);
        }
    }

    /// Notes a freshly materialized matrix for the cell counter.
    fn built(&mut self, m: Matrix) -> Arc<Matrix> {
        self.cells += m.entries.len() as u64;
        Arc::new(m)
    }

    /// The cache key of node `id` under the current bindings, or `None`
    /// when the node is not cached (or mentions an unbound variable,
    /// which its translation reports).
    fn key(&self, dag: &Dag, id: NodeId) -> Option<(NodeId, Box<[Atom]>)> {
        if !dag.cached[id as usize] {
            return None;
        }
        let atoms: Option<Box<[Atom]>> = dag.free[id as usize]
            .iter()
            .map(|v| self.env.get(v).copied())
            .collect();
        Some((id, atoms?))
    }

    fn expr(&mut self, cx: &mut Call<'_>, id: NodeId) -> Result<Arc<Matrix>, TypeError> {
        let key = self.key(cx.dag, id);
        if let Some(m) = key.as_ref().and_then(|k| cx.matrices.get(k)) {
            return Ok(Arc::clone(m));
        }
        let n = self.bounds.universe_size();
        let dag = cx.dag;
        let m = match &dag.nodes[id as usize] {
            Node::Rel(r) => Arc::clone(&self.rel_matrices[r.index()]),
            Node::Var(v) => {
                let atom = *self.env.get(v).ok_or(TypeError::UnboundVar(*v))?;
                let mut m = Matrix::empty(1);
                m.entries.insert(Tuple::new(vec![atom]), self.circuit.tru());
                self.built(m)
            }
            Node::Const(ts) => {
                let m = Matrix::constant(&mut self.circuit, ts);
                self.built(m)
            }
            Node::Iden => {
                let m = Matrix::constant(&mut self.circuit, &TupleSet::iden(n));
                self.built(m)
            }
            Node::Univ => {
                let m = Matrix::constant(&mut self.circuit, &TupleSet::universe(n));
                self.built(m)
            }
            Node::None(a) => Arc::new(Matrix::empty(*a)),
            Node::Union(a, b) => {
                let (ma, mb) = (self.expr(cx, *a)?, self.expr(cx, *b)?);
                self.union(&ma, &mb)
            }
            Node::Intersect(a, b) => {
                let (ma, mb) = (self.expr(cx, *a)?, self.expr(cx, *b)?);
                self.intersect(&ma, &mb)
            }
            Node::Difference(a, b) => {
                let (ma, mb) = (self.expr(cx, *a)?, self.expr(cx, *b)?);
                self.difference(&ma, &mb)
            }
            Node::Join(a, b) => {
                let (ma, mb) = (self.expr(cx, *a)?, self.expr(cx, *b)?);
                self.join(&ma, &mb)
            }
            Node::Product(a, b) => {
                let (ma, mb) = (self.expr(cx, *a)?, self.expr(cx, *b)?);
                self.product(&ma, &mb)
            }
            Node::Transpose(a) => {
                let ma = self.expr(cx, *a)?;
                let mut m = Matrix::empty(2);
                for (t, &g) in &ma.entries {
                    m.entries.insert(t.reversed(), g);
                }
                self.built(m)
            }
            Node::Closure(a) => {
                let ma = self.expr(cx, *a)?;
                self.closure(&ma)
            }
            Node::ReflexiveClosure(a) => {
                let ma = self.expr(cx, *a)?;
                let closed = self.closure(&ma);
                let iden = Matrix::constant(&mut self.circuit, &TupleSet::iden(n));
                self.union(&closed, &iden)
            }
            node => unreachable!("formula node {node:?} translated as an expression"),
        };
        if let Some(k) = key {
            cx.matrices.insert(k, Arc::clone(&m));
        }
        Ok(m)
    }

    fn union(&mut self, a: &Matrix, b: &Matrix) -> Arc<Matrix> {
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

    fn intersect(&mut self, a: &Matrix, b: &Matrix) -> Arc<Matrix> {
        let mut m = Matrix::empty(a.arity);
        for (t, &ga) in &a.entries {
            let gb = b.get(&self.circuit, t);
            let g = self.circuit.and(ga, gb);
            m.insert(&self.circuit, t.clone(), g);
        }
        self.built(m)
    }

    fn difference(&mut self, a: &Matrix, b: &Matrix) -> Arc<Matrix> {
        let mut m = Matrix::empty(a.arity);
        for (t, &ga) in &a.entries {
            let gb = b.get(&self.circuit, t);
            let ngb = self.circuit.not(gb);
            let g = self.circuit.and(ga, ngb);
            m.insert(&self.circuit, t.clone(), g);
        }
        self.built(m)
    }

    fn join(&mut self, a: &Matrix, b: &Matrix) -> Arc<Matrix> {
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

    fn product(&mut self, a: &Matrix, b: &Matrix) -> Arc<Matrix> {
        let mut m = Matrix::empty(a.arity + b.arity);
        for (ta, &ga) in &a.entries {
            for (tb, &gb) in &b.entries {
                let g = self.circuit.and(ga, gb);
                m.insert(&self.circuit, ta.concat(tb), g);
            }
        }
        self.built(m)
    }

    /// `^a` by iterative squaring (`r ← r ∪ r;r`), covering paths of up
    /// to `k` edges where `k` is the support size of `a`: any longer path
    /// revisits an atom, so it contains a shorter path over a subset of
    /// its edges and adds nothing.
    fn closure(&mut self, a: &Arc<Matrix>) -> Arc<Matrix> {
        let k = a.support_size();
        let mut acc = Arc::clone(a);
        let mut span = 1usize;
        while span < k {
            let squared = self.join(&acc, &acc);
            acc = self.union(&acc, &squared);
            span *= 2;
        }
        acc
    }

    fn formula(&mut self, cx: &mut Call<'_>, id: NodeId) -> Result<GateId, TypeError> {
        let key = self.key(cx.dag, id);
        if let Some(&g) = key.as_ref().and_then(|k| cx.gates.get(k)) {
            return Ok(g);
        }
        let dag = cx.dag;
        let g = match &dag.nodes[id as usize] {
            Node::True => self.circuit.tru(),
            Node::False => self.circuit.fls(),
            Node::Free(b) => {
                let circuit = &mut self.circuit;
                *self
                    .bool_inputs
                    .entry(b.0)
                    .or_insert_with(|| circuit.input())
            }
            Node::Subset(a, b) => {
                let (ma, mb) = (self.expr(cx, *a)?, self.expr(cx, *b)?);
                self.subset(&ma, &mb)
            }
            Node::Equal(a, b) => {
                let (ma, mb) = (self.expr(cx, *a)?, self.expr(cx, *b)?);
                let fwd = self.subset(&ma, &mb);
                let back = self.subset(&mb, &ma);
                self.circuit.and(fwd, back)
            }
            Node::Some(a) => {
                let ma = self.expr(cx, *a)?;
                self.circuit.or_all(ma.entries.values().copied())
            }
            Node::No(a) => {
                let ma = self.expr(cx, *a)?;
                let any = self.circuit.or_all(ma.entries.values().copied());
                self.circuit.not(any)
            }
            Node::One(a) => {
                let ma = self.expr(cx, *a)?;
                let some = self.circuit.or_all(ma.entries.values().copied());
                let lone = self.at_most_one(&ma);
                self.circuit.and(some, lone)
            }
            Node::Lone(a) => {
                let ma = self.expr(cx, *a)?;
                self.at_most_one(&ma)
            }
            Node::Not(inner) => {
                let g = self.formula(cx, *inner)?;
                self.circuit.not(g)
            }
            Node::And(fs) => {
                let mut gates = Vec::with_capacity(fs.len());
                for &f in fs.iter() {
                    gates.push(self.formula(cx, f)?);
                }
                self.circuit.and_all(gates)
            }
            Node::Or(fs) => {
                let mut gates = Vec::with_capacity(fs.len());
                for &f in fs.iter() {
                    gates.push(self.formula(cx, f)?);
                }
                self.circuit.or_all(gates)
            }
            Node::Implies(a, b) => {
                let (ga, gb) = (self.formula(cx, *a)?, self.formula(cx, *b)?);
                self.circuit.implies(ga, gb)
            }
            Node::Iff(a, b) => {
                let (ga, gb) = (self.formula(cx, *a)?, self.formula(cx, *b)?);
                self.circuit.iff(ga, gb)
            }
            Node::ForAll(v, domain, body) => {
                let md = self.expr(cx, *domain)?;
                let mut gates = Vec::new();
                for (t, &gd) in &md.entries {
                    self.env.insert(*v, t.atoms()[0]);
                    let gb = self.formula(cx, *body)?;
                    self.env.remove(v);
                    gates.push(self.circuit.implies(gd, gb));
                }
                self.circuit.and_all(gates)
            }
            Node::Exists(v, domain, body) => {
                let md = self.expr(cx, *domain)?;
                let mut gates = Vec::new();
                for (t, &gd) in &md.entries {
                    self.env.insert(*v, t.atoms()[0]);
                    let gb = self.formula(cx, *body)?;
                    self.env.remove(v);
                    gates.push(self.circuit.and(gd, gb));
                }
                self.circuit.or_all(gates)
            }
            node => unreachable!("expression node {node:?} translated as a formula"),
        };
        if let Some(k) = key {
            cx.gates.insert(k, g);
        }
        Ok(g)
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
    use relational::Instance;

    /// Translates `f` with a fresh translator, returning it and the root.
    fn translate(schema: &Schema, bounds: &Bounds, f: &Formula) -> (IncrementalTranslator, GateId) {
        let mut tr = IncrementalTranslator::new(schema, bounds);
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
        let f = rel(r).closure().intersect(&Expr::Iden).no();
        let (a, _) = translate(&schema, &bounds, &f);
        let (b, _) = translate(&schema, &bounds, &f);
        assert!(a.matrix_cells() > 9, "closure work must be counted");
        assert_eq!(a.matrix_cells(), b.matrix_cells());

        // With cache hits (a shared subterm, a quantifier body that does
        // not mention its variable) the count is just as repeatable.
        let v = VarId::new(0);
        let shared = rel(r).join(&rel(r));
        let g = Formula::for_all(
            v,
            Expr::Univ,
            shared.some().and(&Expr::Var(v).join(&shared).lone()),
        )
        .and(&rel(r).join(&rel(r)).no());
        let (a, _) = translate(&schema, &bounds, &g);
        let (b, _) = translate(&schema, &bounds, &g);
        assert_eq!(a.matrix_cells(), b.matrix_cells());
    }

    /// A `morally_strong`-shaped derived relation over a binary `r` and
    /// a unary `s`, built afresh (new `Arc`s) on every call.
    fn strong(r: relational::RelId, s: relational::RelId) -> Expr {
        let scoped = rel(r).intersect(&rel(s).product(&rel(s)));
        scoped.union(&scoped.transpose()).difference(&Expr::Iden)
    }

    /// Two separately built, structurally equal subterms hit the cache:
    /// the second copy materializes nothing and adds no gate, exactly as
    /// when both uses share one tree.
    #[test]
    fn structurally_equal_subterms_translate_once() {
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let s = schema.relation("s", 1);
        let bounds = Bounds::new(&schema, 4);
        let (one, one_root) = translate(&schema, &bounds, &strong(r, s).some());
        let shared = strong(r, s);
        let (same, same_root) = translate(&schema, &bounds, &shared.some().and(&shared.some()));
        let (apart, apart_root) = translate(
            &schema,
            &bounds,
            &strong(r, s).some().and(&strong(r, s).some()),
        );
        assert_eq!(apart_root, one_root);
        assert_eq!(same_root, one_root);
        assert_eq!(apart.circuit().num_gates(), one.circuit().num_gates());
        assert_eq!(apart.matrix_cells(), one.matrix_cells());
        assert_eq!(same.matrix_cells(), one.matrix_cells());

        // Different consumers of the two copies: still one matrix, and
        // the same circuit as consumers of one shared tree.
        let (apart, apart_root) = translate(
            &schema,
            &bounds,
            &strong(r, s).some().and(&strong(r, s).lone()),
        );
        let (same, same_root) = translate(&schema, &bounds, &shared.some().and(&shared.lone()));
        assert_eq!(apart_root, same_root);
        assert_eq!(apart.circuit().num_gates(), same.circuit().num_gates());
        assert_eq!(apart.matrix_cells(), one.matrix_cells());
        assert_eq!(same.matrix_cells(), one.matrix_cells());
    }

    /// Every instance of `schema`'s relations over the translator's free
    /// inputs, paired with the input assignment that encodes it.
    fn all_instances(tr: &IncrementalTranslator) -> Vec<(Instance, Vec<bool>)> {
        let (schema, bounds) = (tr.schema(), tr.bounds());
        let inputs = tr.circuit().num_inputs();
        assert!(inputs <= 16, "exhaustive check over {inputs} inputs");
        (0..1u32 << inputs)
            .map(|bits| {
                let assignment: Vec<bool> = (0..inputs).map(|k| bits >> k & 1 == 1).collect();
                let mut inst = Instance::empty(schema, bounds.universe_size());
                for (id, d) in schema.iter() {
                    let mut ts = bounds.lower(id).clone();
                    for (t, &k) in &tr.rel_inputs()[id.index()] {
                        if assignment[k as usize] {
                            ts.insert(t.clone());
                        }
                    }
                    assert_eq!(ts.arity(), d.arity);
                    inst.set(id, ts);
                }
                (inst, assignment)
            })
            .collect()
    }

    /// Subterms under quantifiers are cached per binding of the variables
    /// they mention: `v.r ∩ s` is shared within each `v` but differs
    /// across them, `w.^r` depends on the inner variable only, and `^r`
    /// on neither. A key that ignored bindings would reuse one atom's
    /// matrix for every atom, which the evaluator would catch.
    #[test]
    fn quantified_subterms_are_cached_per_binding() {
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let s = schema.relation("s", 1);
        let bounds = Bounds::new(&schema, 3);
        let (v, w) = (VarId::new(0), VarId::new(1));
        let vr_s = || Expr::Var(v).join(&rel(r)).intersect(&rel(s));
        let reach = |x: VarId| Expr::Var(x).join(&rel(r).closure());
        let f = Formula::for_all(
            v,
            Expr::Univ,
            vr_s().some().implies(&vr_s().lone()).and(&Formula::for_all(
                w,
                rel(s),
                reach(w)
                    .intersect(&Expr::Var(v))
                    .some()
                    .implies(&reach(v).intersect(&Expr::Var(w)).no().or(&vr_s().one())),
            )),
        );
        let (tr, root) = translate(&schema, &bounds, &f);
        for (inst, assignment) in all_instances(&tr) {
            assert_eq!(
                tr.circuit().eval(root, &assignment),
                relational::eval_formula(&schema, &inst, &f).unwrap(),
                "circuit and evaluator disagree on {}",
                inst.display(&schema)
            );
        }

        // `^r` is closed once, not once per binding of `v` and `w`.
        let (closed, _) = translate(&schema, &bounds, &rel(r).closure().some());
        let (base, _) = translate(&schema, &bounds, &Formula::True);
        let closure_cells = closed.matrix_cells() - base.matrix_cells();
        let (quantified, _) = translate(
            &schema,
            &bounds,
            &Formula::for_all(v, Expr::Univ, reach(v).some()),
        );
        let per_binding = quantified.matrix_cells() - closed.matrix_cells();
        assert!(
            per_binding < closure_cells,
            "quantifier re-closed r: {per_binding} cells beyond one closure of {closure_cells}"
        );
    }

    /// Translates the expression `e` as a formula's subterm would be.
    fn translate_expr(tr: &mut IncrementalTranslator, e: &Expr) -> Arc<Matrix> {
        let dag = Dag::build(|b| b.expr(e));
        tr.inner.expr(&mut Call::new(&dag), dag.root).unwrap()
    }

    /// Edge `i` of a chain or ring over atoms `5..5+k`: `5+i → 5+(i+1)%k`.
    fn edge(i: usize, k: usize) -> (Atom, Atom) {
        (5 + i as Atom, 5 + ((i + 1) % k) as Atom)
    }

    /// Closes a chain (`ring = false`) or a ring over atoms `5..5+k` of a
    /// 32-atom universe, with every edge free. Returns the translator, the
    /// closure, and the matrix cells the closure materialized.
    fn close_chain_or_ring(k: usize, ring: bool) -> (IncrementalTranslator, Arc<Matrix>, u64) {
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let mut bounds = Bounds::new(&schema, 32);
        let edges = if ring { k } else { k - 1 };
        bounds.bound_upper(r, TupleSet::from_pairs((0..edges).map(|i| edge(i, k))));
        let mut tr = IncrementalTranslator::new(&schema, &bounds);
        let before = tr.matrix_cells();
        let closed = translate_expr(&mut tr, &rel(r).closure());
        let cells = tr.matrix_cells() - before;
        (tr, closed, cells)
    }

    /// The closure is exact when sized by the support: cutting any one
    /// edge of a chain or ring over `k` atoms (in a 32-atom universe)
    /// breaks exactly the pairs whose forward path crosses it, including
    /// the `k`-edge cycles of a ring.
    #[test]
    fn support_sized_closure_is_exact() {
        for k in [2usize, 3, 4, 5, 8, 9, 17] {
            for ring in [false, true] {
                let (tr, closed, _) = close_chain_or_ring(k, ring);
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
                                "k={k} ring={ring} cut={cut} ({i},{j})"
                            );
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
            let (_, _, cells) = close_chain_or_ring(k, false);
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
        let mut tr = IncrementalTranslator::new(&schema, &bounds);
        assert!(tr.formula(&bad).is_err());
    }
}
