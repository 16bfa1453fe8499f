//! A hash-consed boolean circuit with Tseitin conversion to CNF.
//!
//! The translation from relational logic to SAT goes through this layer:
//! every entry of a relation's boolean matrix is a gate, relational
//! operators combine gates, and the final formula gate is converted to CNF
//! for the CDCL solver. Structural hashing and constant folding keep the
//! circuit (and hence the CNF) small.

use std::collections::HashMap;

use satsolver::{Lit, Solver, Var};

/// A handle to a gate in a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(u32);

impl GateId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Gate {
    False,
    True,
    /// A free input, identified by a dense input index.
    Input(u32),
    Not(GateId),
    And(GateId, GateId),
    Or(GateId, GateId),
}

/// A boolean circuit builder with structural hashing.
#[derive(Debug, Default)]
pub struct Circuit {
    gates: Vec<Gate>,
    dedup: HashMap<Gate, GateId>,
    num_inputs: u32,
    input_gates: Vec<GateId>,
}

impl Circuit {
    /// Creates a circuit containing only the constants.
    pub fn new() -> Circuit {
        let mut c = Circuit::default();
        c.intern(Gate::False);
        c.intern(Gate::True);
        c
    }

    /// The constant-false gate.
    pub fn fls(&self) -> GateId {
        GateId(0)
    }

    /// The constant-true gate.
    pub fn tru(&self) -> GateId {
        GateId(1)
    }

    /// Is this gate the constant false?
    pub fn is_false(&self, g: GateId) -> bool {
        g == self.fls()
    }

    /// Is this gate the constant true?
    pub fn is_true(&self, g: GateId) -> bool {
        g == self.tru()
    }

    /// Creates a fresh free input.
    pub fn input(&mut self) -> GateId {
        let idx = self.num_inputs;
        self.num_inputs += 1;
        // Inputs are distinct by index: intern always creates a new gate.
        let g = self.intern(Gate::Input(idx));
        self.input_gates.push(g);
        g
    }

    /// The gate of the `k`-th input (in creation order).
    pub fn input_gate(&self, k: u32) -> GateId {
        self.input_gates[k as usize]
    }

    /// Number of free inputs created.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs as usize
    }

    /// Total number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Negation, with folding.
    pub fn not(&mut self, a: GateId) -> GateId {
        if a == self.fls() {
            return self.tru();
        }
        if a == self.tru() {
            return self.fls();
        }
        if let Gate::Not(inner) = self.gates[a.index()] {
            return inner;
        }
        self.intern(Gate::Not(a))
    }

    /// Conjunction, with folding and operand normalization.
    pub fn and(&mut self, a: GateId, b: GateId) -> GateId {
        if a == self.fls() || b == self.fls() {
            return self.fls();
        }
        if a == self.tru() {
            return b;
        }
        if b == self.tru() {
            return a;
        }
        if a == b {
            return a;
        }
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        // a ∧ ¬a = false
        if self.gates[y.index()] == Gate::Not(x) || self.gates[x.index()] == Gate::Not(y) {
            return self.fls();
        }
        self.intern(Gate::And(x, y))
    }

    /// Disjunction, with folding and operand normalization.
    pub fn or(&mut self, a: GateId, b: GateId) -> GateId {
        if a == self.tru() || b == self.tru() {
            return self.tru();
        }
        if a == self.fls() {
            return b;
        }
        if b == self.fls() {
            return a;
        }
        if a == b {
            return a;
        }
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        if self.gates[y.index()] == Gate::Not(x) || self.gates[x.index()] == Gate::Not(y) {
            return self.tru();
        }
        self.intern(Gate::Or(x, y))
    }

    /// `a ⇒ b`.
    pub fn implies(&mut self, a: GateId, b: GateId) -> GateId {
        let na = self.not(a);
        self.or(na, b)
    }

    /// `a ⇔ b`.
    pub fn iff(&mut self, a: GateId, b: GateId) -> GateId {
        let fwd = self.implies(a, b);
        let back = self.implies(b, a);
        self.and(fwd, back)
    }

    /// Balanced conjunction of many gates.
    pub fn and_all<I: IntoIterator<Item = GateId>>(&mut self, gates: I) -> GateId {
        let mut layer: Vec<GateId> = gates.into_iter().collect();
        if layer.is_empty() {
            return self.tru();
        }
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 {
                    self.and(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            layer = next;
        }
        layer[0]
    }

    /// Balanced disjunction of many gates.
    pub fn or_all<I: IntoIterator<Item = GateId>>(&mut self, gates: I) -> GateId {
        let mut layer: Vec<GateId> = gates.into_iter().collect();
        if layer.is_empty() {
            return self.fls();
        }
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 {
                    self.or(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            layer = next;
        }
        layer[0]
    }

    /// Evaluates gate `g` under an assignment of the inputs.
    pub fn eval(&self, g: GateId, inputs: &[bool]) -> bool {
        // Iterative evaluation over the (topologically ordered) gate array.
        let mut values = vec![false; g.index() + 1];
        for i in 0..=g.index() {
            values[i] = match self.gates[i] {
                Gate::False => false,
                Gate::True => true,
                Gate::Input(k) => inputs[k as usize],
                Gate::Not(a) => !values[a.index()],
                Gate::And(a, b) => values[a.index()] && values[b.index()],
                Gate::Or(a, b) => values[a.index()] || values[b.index()],
            };
        }
        values[g.index()]
    }

    /// Collects the cone of influence of `roots`: a gate-indexed
    /// membership mask.
    fn cone(&self, roots: &[GateId]) -> Vec<bool> {
        let mut needed = vec![false; self.gates.len()];
        let mut stack: Vec<GateId> = roots.to_vec();
        while let Some(g) = stack.pop() {
            if needed[g.index()] {
                continue;
            }
            needed[g.index()] = true;
            match self.gates[g.index()] {
                Gate::Not(a) => stack.push(a),
                Gate::And(a, b) | Gate::Or(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                _ => {}
            }
        }
        needed
    }

    fn intern(&mut self, gate: Gate) -> GateId {
        if let Gate::Input(_) = gate {
            let id = GateId(self.gates.len() as u32);
            self.gates.push(gate);
            return id;
        }
        if let Some(&id) = self.dedup.get(&gate) {
            return id;
        }
        let id = GateId(self.gates.len() as u32);
        self.gates.push(gate);
        self.dedup.insert(gate, id);
        id
    }
}

/// The encoding state of one gate in a [`CircuitEncoder`].
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Not encoded yet.
    Unseen,
    /// In the cone the running `encode` call is collecting (no slot is
    /// in this state between calls).
    Queued,
    /// Encoded as this literal.
    Encoded(Lit),
}

/// An incremental Tseitin encoder: one growing [`Circuit`] feeding one
/// long-lived [`Solver`] across many queries.
///
/// Each [`CircuitEncoder::encode`] call emits defining clauses only for
/// the gates in the root's cone of influence that have not been encoded
/// by an earlier call; thanks to the circuit's structural hashing,
/// subcircuits shared between queries (relation matrices, closure
/// squaring chains, axiom bodies) therefore hit the cache and cost
/// nothing. `encode` does **not** assert the root — the caller decides
/// whether the returned literal becomes a permanent unit clause or an
/// activation-guarded implication.
///
/// An encoder is tied to the circuit/solver pair it was first used with;
/// mixing circuits or solvers produces nonsense encodings.
#[derive(Debug, Default)]
pub struct CircuitEncoder {
    /// Gate-indexed encoding state.
    lits: Vec<Slot>,
    input_vars: HashMap<u32, Var>,
    gates_encoded: u64,
    cache_hits: u64,
    tseitin_clauses: u64,
}

impl CircuitEncoder {
    /// Creates an empty encoder.
    pub fn new() -> CircuitEncoder {
        CircuitEncoder::default()
    }

    /// Encodes the not-yet-encoded part of `root`'s cone into `solver`
    /// and returns the literal representing `root` (not asserted). The
    /// work is proportional to that new part, not to the whole circuit,
    /// so a query on a long-lived session pays only for its own gates.
    pub fn encode(&mut self, circuit: &Circuit, root: GateId, solver: &mut Solver) -> Lit {
        if self.lits.len() < circuit.gates.len() {
            self.lits.resize(circuit.gates.len(), Slot::Unseen);
        }
        // Cone of influence, stopping at already-encoded gates.
        let mut cone = Vec::new();
        let mut stack = vec![root];
        while let Some(g) = stack.pop() {
            match self.lits[g.index()] {
                Slot::Encoded(_) => {
                    self.cache_hits += 1;
                    continue;
                }
                Slot::Queued => continue,
                Slot::Unseen => self.lits[g.index()] = Slot::Queued,
            }
            cone.push(g.0);
            match circuit.gates[g.index()] {
                Gate::Not(a) => stack.push(a),
                Gate::And(a, b) | Gate::Or(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                _ => {}
            }
        }
        // Gate ids are topologically ordered (operands precede users), so
        // encoding the cone in ascending id order sees every operand
        // before its gate.
        cone.sort_unstable();
        for i in cone {
            self.emit(circuit, i as usize, solver);
        }
        self.lit(root)
    }

    /// Encodes gate `i`, whose operands are encoded already, and emits
    /// its defining clauses.
    fn emit(&mut self, circuit: &Circuit, i: usize, solver: &mut Solver) {
        let gate = circuit.gates[i];
        self.gates_encoded += 1;
        let lit = match gate {
            Gate::False | Gate::True => {
                // Encode constants as a variable frozen by a unit clause;
                // the literal then correctly carries the constant value.
                let v = solver.new_var();
                let l = v.positive();
                solver.add_clause(&[if matches!(gate, Gate::True) { l } else { !l }]);
                self.tseitin_clauses += 1;
                l
            }
            Gate::Input(k) => {
                let v = solver.new_var();
                self.input_vars.insert(k, v);
                v.positive()
            }
            Gate::Not(a) => !self.lit(a),
            Gate::And(_, _) | Gate::Or(_, _) => solver.new_var().positive(),
        };
        self.lits[i] = Slot::Encoded(lit);
        // Emit defining clauses for composite gates.
        match gate {
            Gate::And(a, b) => {
                let (la, lb) = (self.lit(a), self.lit(b));
                solver.add_clause(&[!lit, la]);
                solver.add_clause(&[!lit, lb]);
                solver.add_clause(&[lit, !la, !lb]);
                self.tseitin_clauses += 3;
            }
            Gate::Or(a, b) => {
                let (la, lb) = (self.lit(a), self.lit(b));
                solver.add_clause(&[!lit, la, lb]);
                solver.add_clause(&[lit, !la]);
                solver.add_clause(&[lit, !lb]);
                self.tseitin_clauses += 3;
            }
            _ => {}
        }
    }

    /// The literal of an encoded gate. Operands are encoded before their
    /// users (ascending id order), so a miss is an encoder bug.
    fn lit(&self, g: GateId) -> Lit {
        match self.lits[g.index()] {
            Slot::Encoded(lit) => lit,
            Slot::Unseen | Slot::Queued => panic!("gate {} used before it was encoded", g.0),
        }
    }

    /// The SAT variable carrying input `k`, if its gate has been encoded.
    pub fn input_var(&self, k: u32) -> Option<Var> {
        self.input_vars.get(&k).copied()
    }

    /// Input-index → SAT-variable mapping for every input encoded so far.
    pub fn input_vars(&self) -> &HashMap<u32, Var> {
        &self.input_vars
    }

    /// The encoded SAT variables of all inputs in the cones of `roots`,
    /// in input-index order. Every root must have been encoded already.
    pub fn cone_input_vars(&self, circuit: &Circuit, roots: &[GateId]) -> Vec<Var> {
        let needed = circuit.cone(roots);
        let mut ks: Vec<u32> = circuit
            .gates
            .iter()
            .enumerate()
            .filter_map(|(i, g)| match g {
                Gate::Input(k) if needed[i] => Some(*k),
                _ => None,
            })
            .collect();
        ks.sort_unstable();
        ks.iter().map(|k| self.input_vars[k]).collect()
    }

    /// Total gates whose defining clauses this encoder has emitted.
    pub fn gates_encoded(&self) -> u64 {
        self.gates_encoded
    }

    /// Gates found already encoded during later `encode` calls — work a
    /// scratch translation would have repeated.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Total Tseitin defining clauses this encoder has added to its
    /// solver (three per binary gate, one per constant; `Not` gates are
    /// literal negations and cost nothing).
    pub fn tseitin_clauses(&self) -> u64 {
        self.tseitin_clauses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satsolver::SolveResult;

    #[test]
    fn constant_folding() {
        let mut c = Circuit::new();
        let x = c.input();
        let t = c.tru();
        let f = c.fls();
        assert_eq!(c.and(x, t), x);
        assert_eq!(c.and(x, f), f);
        assert_eq!(c.or(x, f), x);
        assert_eq!(c.or(x, t), t);
        let nx = c.not(x);
        assert_eq!(c.not(nx), x);
        assert_eq!(c.and(x, nx), f);
        assert_eq!(c.or(x, nx), t);
    }

    #[test]
    fn structural_hashing_dedupes() {
        let mut c = Circuit::new();
        let x = c.input();
        let y = c.input();
        let a1 = c.and(x, y);
        let a2 = c.and(y, x);
        assert_eq!(a1, a2);
    }

    #[test]
    fn eval_matches_semantics() {
        let mut c = Circuit::new();
        let x = c.input();
        let y = c.input();
        let nx = c.not(x);
        let g = c.or(nx, y); // x => y
        assert!(c.eval(g, &[false, false]));
        assert!(c.eval(g, &[false, true]));
        assert!(!c.eval(g, &[true, false]));
        assert!(c.eval(g, &[true, true]));
    }

    #[test]
    fn tseitin_sat_agrees_with_eval() {
        // g = (x ∧ ¬y) ∨ (¬x ∧ y)  (xor)
        let mut c = Circuit::new();
        let x = c.input();
        let y = c.input();
        let ny = c.not(y);
        let nx = c.not(x);
        let l = c.and(x, ny);
        let r = c.and(nx, y);
        let g = c.or(l, r);

        let mut solver = Solver::new();
        let mut enc = CircuitEncoder::new();
        let root = enc.encode(&c, g, &mut solver);
        solver.add_clause(&[root]);
        assert_eq!(solver.solve(), SolveResult::Sat);
        let vx = solver.model_value(enc.input_var(0).unwrap()).unwrap();
        let vy = solver.model_value(enc.input_var(1).unwrap()).unwrap();
        assert!(vx != vy, "xor model must differ");
        assert!(c.eval(g, &[vx, vy]));
    }

    #[test]
    fn tseitin_unsat_for_contradiction() {
        let mut c = Circuit::new();
        let x = c.input();
        let nx = c.not(x);
        let g = c.and(x, nx);
        let mut solver = Solver::new();
        let root = CircuitEncoder::new().encode(&c, g, &mut solver);
        solver.add_clause(&[root]);
        assert_eq!(solver.solve(), SolveResult::Unsat);
    }

    #[test]
    fn incremental_encoder_reuses_shared_cone() {
        // Two queries sharing the subcircuit (x ∧ y): the second encode
        // emits only the new Or gate.
        let mut c = Circuit::new();
        let x = c.input();
        let y = c.input();
        let z = c.input();
        let shared = c.and(x, y);
        let q1 = c.and(shared, z);
        let nz = c.not(z);
        let q2 = c.or(shared, nz);

        let mut solver = Solver::new();
        let mut enc = CircuitEncoder::new();
        let l1 = enc.encode(&c, q1, &mut solver);
        let after_q1 = enc.gates_encoded();
        let l2 = enc.encode(&c, q2, &mut solver);
        assert!(enc.cache_hits() > 0, "shared gate not cached");
        assert_eq!(
            enc.gates_encoded() - after_q1,
            2,
            "second query re-encoded more than Or + Not"
        );

        // Activation literals dispatch each query independently.
        let a1 = solver.new_var().positive();
        let a2 = solver.new_var().positive();
        solver.add_clause(&[!a1, l1]);
        solver.add_clause(&[!a2, l2]);
        assert_eq!(solver.solve_with_assumptions(&[a1]), SolveResult::Sat);
        let vx = enc.input_var(0).unwrap();
        let vz = enc.input_var(2).unwrap();
        assert_eq!(solver.model_value(vx), Some(true));
        assert_eq!(solver.model_value(vz), Some(true));
        assert_eq!(solver.solve_with_assumptions(&[a2]), SolveResult::Sat);
    }

    #[test]
    fn cone_input_vars_cover_both_roots() {
        let mut c = Circuit::new();
        let x = c.input();
        let y = c.input();
        let _unused = c.input();
        let g = c.or(x, y);
        let mut solver = Solver::new();
        let mut enc = CircuitEncoder::new();
        let _ = enc.encode(&c, g, &mut solver);
        let vars = enc.cone_input_vars(&c, &[g]);
        assert_eq!(vars.len(), 2, "only inputs in the cone are collected");
    }

    #[test]
    fn and_or_all_balance() {
        let mut c = Circuit::new();
        let xs: Vec<GateId> = (0..9).map(|_| c.input()).collect();
        let all = c.and_all(xs.iter().copied());
        let any = c.or_all(xs.iter().copied());
        assert!(c.eval(all, &[true; 9]));
        assert!(!c.eval(
            all,
            &[true, true, false, true, true, true, true, true, true]
        ));
        assert!(!c.eval(any, &[false; 9]));
        let empty_and = c.and_all([]);
        let empty_or = c.or_all([]);
        assert!(c.is_true(empty_and));
        assert!(c.is_false(empty_or));
    }
}
