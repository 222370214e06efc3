//! Differential tests for the adjoint pass: for every variable `f`,
//! `Circuit::marginals_by_size` must equal, integer for integer, the
//! difference of the two conditioned `count_by_size` calls over the other
//! variables — on compiled DNFs, on hand-built `from_nodes` circuits with
//! `DisjointOr` nodes, wide `And` nodes, constants, shared sub-circuits and
//! free universe variables, and on lineages near the `u128` limit.

use ls_provenance::circuit::U128_UNIVERSE_LIMIT;
use ls_provenance::{compile, BigNat, Circuit, CompileOptions, Dnf, Node, NodeId, VarOrder};
use ls_relational::{FactId, Monomial};
use proptest::prelude::*;

/// `#Sat(f := 1)[k] − #Sat(f := 0)[k]` over `universe ∖ {f}`, mod 2^128.
fn conditioned_marginal(c: &Circuit, root: NodeId, universe: &[FactId], f: FactId) -> Vec<u128> {
    let others: Vec<FactId> = universe.iter().copied().filter(|&x| x != f).collect();
    let with = c.count_by_size(root, &others, Some((f, true)));
    let without = c.count_by_size(root, &others, Some((f, false)));
    let fit = |b: &BigNat| b.to_u128().expect("count fits u128");
    with.iter()
        .zip(&without)
        .map(|(w, wo)| fit(w).wrapping_sub(fit(wo)))
        .collect()
}

/// The same marginals by enumerating every assignment of the universe.
fn enumerated_marginal(c: &Circuit, root: NodeId, universe: &[FactId], f: FactId) -> Vec<u128> {
    let n = universe.len();
    let mut out = vec![0u128; n];
    for mask in 0u32..(1 << n) {
        let i = universe.binary_search(&f).unwrap();
        if mask >> i & 1 == 1 {
            continue;
        }
        let without: Vec<FactId> = (0..n)
            .filter(|j| mask >> j & 1 == 1)
            .map(|j| universe[j])
            .collect();
        let mut with = without.clone();
        with.insert(with.binary_search(&f).unwrap_err(), f);
        let k = without.len();
        out[k] = out[k]
            .wrapping_add(u128::from(c.eval_sorted(root, &with)))
            .wrapping_sub(u128::from(c.eval_sorted(root, &without)));
    }
    out
}

fn assert_matches_conditioned(c: &Circuit, root: NodeId, universe: &[FactId]) {
    let marginals = c
        .marginals_by_size(root, universe)
        .expect("universe within the u128 limit");
    assert_eq!(marginals.len(), universe.len());
    for (&f, d_f) in universe.iter().zip(&marginals) {
        assert_eq!(
            d_f,
            &conditioned_marginal(c, root, universe, f),
            "variable {f} over {} variables",
            universe.len()
        );
    }
}

fn dnf(monos: &[Vec<u32>]) -> Dnf {
    Dnf::from_monomials(
        monos
            .iter()
            .map(|ids| Monomial::from_facts(ids.iter().map(|&i| FactId(i)).collect()))
            .collect(),
    )
}

fn facts(ids: impl IntoIterator<Item = u32>) -> Vec<FactId> {
    ids.into_iter().map(FactId).collect()
}

/// A random monotone DNF over at most 12 variables.
fn dnf_up_to_12() -> impl Strategy<Value = Dnf> {
    proptest::collection::vec(proptest::collection::vec(0u32..12, 1..5), 1..8)
        .prop_map(|monos| dnf(&monos))
}

/// Random well-formed circuits through `from_nodes` (no simplification):
/// `And` / `DisjointOr` nodes of 0–4 children over disjoint variable
/// chunks, decisions whose branches may be one shared node, leaves that
/// leave some of their variables free, and constants.
struct RandomCircuit {
    nodes: Vec<Node>,
    state: u64,
}

impl RandomCircuit {
    fn generate(seed: u64, vars: &[FactId]) -> (Circuit, NodeId) {
        let mut g = RandomCircuit {
            nodes: Vec::new(),
            state: seed,
        };
        // Unreachable junk below the root must not disturb the passes.
        g.push(Node::Leaf(FactId(999)));
        let root = g.build(vars, 4);
        g.push(Node::Leaf(FactId(998)));
        let circuit = Circuit::from_nodes(g.nodes).expect("well-formed by construction");
        (circuit, root)
    }

    fn next(&mut self, n: u64) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    fn push(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        NodeId(self.nodes.len() as u32 - 1)
    }

    /// A node whose support is a subset of `vars`.
    fn build(&mut self, vars: &[FactId], depth: u32) -> NodeId {
        if vars.is_empty() {
            let node = if self.next(2) == 0 {
                Node::True
            } else {
                Node::False
            };
            return self.push(node);
        }
        let kind = if depth == 0 { 0 } else { self.next(7) };
        match kind {
            0 => {
                let v = vars[self.next(vars.len() as u64) as usize];
                self.push(Node::Leaf(v))
            }
            1 => {
                let node = if self.next(3) == 0 {
                    Node::False
                } else {
                    Node::True
                };
                self.push(node)
            }
            2 | 3 => {
                let parts = self.partition(vars);
                let ch = parts.iter().map(|p| self.build(p, depth - 1)).collect();
                self.push(Node::And(ch))
            }
            4 => {
                let parts = self.partition(vars);
                let ch = parts.iter().map(|p| self.build(p, depth - 1)).collect();
                self.push(Node::DisjointOr(ch))
            }
            _ => {
                let i = self.next(vars.len() as u64) as usize;
                let var = vars[i];
                let rest: Vec<FactId> = vars.iter().copied().filter(|&x| x != var).collect();
                let hi = self.build(&rest, depth - 1);
                let lo = if self.next(4) == 0 {
                    hi
                } else {
                    self.build(&rest, depth - 1)
                };
                self.push(Node::Decision { var, hi, lo })
            }
        }
    }

    /// Split `vars` into 0–4 disjoint chunks (some variables may be left
    /// out, to be filled as free variables above).
    fn partition(&mut self, vars: &[FactId]) -> Vec<Vec<FactId>> {
        let k = self.next(5) as usize;
        let mut parts = vec![Vec::new(); k];
        for &v in vars {
            let slot = self.next(k as u64 + 1) as usize;
            if slot < k {
                parts[slot].push(v);
            }
        }
        parts
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compiled monotone DNFs: the adjoint marginals equal the conditioned
    /// counts under every compiler configuration, over the lineage and over
    /// a universe with free variables.
    #[test]
    fn compiled_dnf_marginals_match_conditioned_counts(d in dnf_up_to_12(), extra in 0u32..3) {
        for opts in [
            CompileOptions::default(),
            CompileOptions { var_order: VarOrder::Lexicographic, ..Default::default() },
            CompileOptions { disable_factoring: true, ..Default::default() },
        ] {
            let c = compile(&d, opts);
            let mut universe = d.variables();
            universe.extend((0..extra).map(|i| FactId(100 + i)));
            assert_matches_conditioned(&c.circuit, c.root, &universe);
        }
    }

    /// Random hand-built circuits: adjoint marginals equal the conditioned
    /// counts and plain enumeration, including negative marginals of
    /// non-monotone functions (compared mod 2^128).
    #[test]
    fn random_circuit_marginals_match_conditioned_and_enumeration(seed in any::<u64>(), n in 1u32..10, extra in 0u32..3) {
        let vars = facts(0..n);
        let (c, root) = RandomCircuit::generate(seed, &vars);
        let mut universe = vars;
        universe.extend((0..extra).map(|i| FactId(50 + i)));
        assert_matches_conditioned(&c, root, &universe);
        let marginals = c.marginals_by_size(root, &universe).unwrap();
        for (&f, d_f) in universe.iter().zip(&marginals) {
            prop_assert_eq!(d_f, &enumerated_marginal(&c, root, &universe, f));
        }
    }
}

#[test]
fn hand_built_disjoint_or_wide_and_shared_nodes() {
    let f = FactId;
    // root = Decision(x0, hi = And(x1, x2, x3), lo = DisjointOr(And(x1, x2, x3), x4, True-And))
    // with the And shared between both branches, an And of one constant
    // child, an unreachable node, and free universe variables x7, x9.
    let nodes = vec![
        Node::Leaf(f(1)),                                         // 0
        Node::Leaf(f(2)),                                         // 1
        Node::Leaf(f(3)),                                         // 2
        Node::And(vec![NodeId(0), NodeId(1), NodeId(2)]),         // 3
        Node::Leaf(f(4)),                                         // 4
        Node::True,                                               // 5
        Node::And(vec![NodeId(5)]),                               // 6
        Node::Leaf(f(6)),                                         // 7 (unreachable)
        Node::Leaf(f(5)),                                         // 8
        Node::DisjointOr(vec![NodeId(4), NodeId(8)]),             // 9
        Node::And(vec![NodeId(9), NodeId(6)]),                    // 10
        Node::DisjointOr(vec![NodeId(3), NodeId(10), NodeId(6)]), // 11
        Node::Decision {
            var: f(0),
            hi: NodeId(3),
            lo: NodeId(11),
        }, // 12
    ];
    let c = Circuit::from_nodes(nodes).unwrap();
    let root = NodeId(12);
    for universe in [facts(0..6), facts([0, 1, 2, 3, 4, 5, 7, 9])] {
        assert_matches_conditioned(&c, root, &universe);
        let marginals = c.marginals_by_size(root, &universe).unwrap();
        for (&v, d_f) in universe.iter().zip(&marginals) {
            assert_eq!(d_f, &enumerated_marginal(&c, root, &universe, v));
        }
    }
}

#[test]
fn hand_built_disjoint_or_of_wide_ands() {
    let f = FactId;
    // (x0 ∧ x1 ∧ x2) ∨ (x3 ∧ x4 ∧ x5 ∧ x6) ∨ x7, as one DisjointOr.
    let nodes = vec![
        Node::Leaf(f(0)),
        Node::Leaf(f(1)),
        Node::Leaf(f(2)),
        Node::And(vec![NodeId(0), NodeId(1), NodeId(2)]),
        Node::Leaf(f(3)),
        Node::Leaf(f(4)),
        Node::Leaf(f(5)),
        Node::Leaf(f(6)),
        Node::And(vec![NodeId(4), NodeId(5), NodeId(6), NodeId(7)]),
        Node::Leaf(f(7)),
        Node::DisjointOr(vec![NodeId(3), NodeId(8), NodeId(9)]),
    ];
    let c = Circuit::from_nodes(nodes).unwrap();
    let universe = facts(0..10);
    assert_matches_conditioned(&c, NodeId(10), &universe);
    // x8, x9 are null players: their marginals are identically zero.
    let marginals = c.marginals_by_size(NodeId(10), &universe).unwrap();
    assert!(marginals[8].iter().chain(&marginals[9]).all(|&x| x == 0));
}

#[test]
fn constant_roots_have_zero_marginals() {
    for node in [Node::True, Node::False] {
        let c = Circuit::from_nodes(vec![node]).unwrap();
        let universe = facts(0..4);
        let marginals = c.marginals_by_size(NodeId(0), &universe).unwrap();
        assert!(marginals.iter().flatten().all(|&x| x == 0));
        assert_matches_conditioned(&c, NodeId(0), &universe);
    }
}

/// A path-shaped lineage `(x0∧x1) ∨ (x1∧x2) ∨ … ` of `n` facts, plus a few
/// triangles, so counts run up to about `2^(n−1)`.
fn chain_dnf(n: u32) -> Dnf {
    let mut monos: Vec<Vec<u32>> = (0..n - 1).map(|i| vec![i, i + 1]).collect();
    monos.extend((0..n - 2).step_by(17).map(|i| vec![i, i + 2]));
    dnf(&monos)
}

#[test]
fn hundred_player_lineage_matches_conditioned_counts() {
    let d = chain_dnf(100);
    let c = compile(&d, CompileOptions::default());
    let universe = d.variables();
    assert_eq!(universe.len(), 100);
    assert_matches_conditioned(&c.circuit, c.root, &universe);
}

#[test]
fn lineage_at_the_u128_limit_matches_conditioned_counts() {
    let d = chain_dnf(U128_UNIVERSE_LIMIT as u32);
    let c = compile(&d, CompileOptions::default());
    let universe = d.variables();
    assert_eq!(universe.len(), U128_UNIVERSE_LIMIT);
    assert_matches_conditioned(&c.circuit, c.root, &universe);
}

#[test]
fn negative_marginals_wrap_exactly_near_the_limit() {
    // ¬x0 ∧ x1 ∧ … ∧ x99: x0's marginal is −1 at k = 99, which wrapping
    // arithmetic must carry as 2^128 − 1 through every intermediate.
    let mut nodes: Vec<Node> = (1..100).map(|i| Node::Leaf(FactId(i))).collect();
    nodes.push(Node::And((0..99).map(NodeId).collect()));
    nodes.push(Node::False);
    nodes.push(Node::Decision {
        var: FactId(0),
        hi: NodeId(100),
        lo: NodeId(99),
    });
    let c = Circuit::from_nodes(nodes).unwrap();
    let universe = facts(0..100);
    assert_matches_conditioned(&c, NodeId(101), &universe);
    let marginals = c.marginals_by_size(NodeId(101), &universe).unwrap();
    assert_eq!(marginals[0][99], u128::MAX);
    assert!(marginals[0][..99].iter().all(|&x| x == 0));
}

#[test]
fn universe_beyond_the_limit_has_no_u128_marginals() {
    let d = chain_dnf(U128_UNIVERSE_LIMIT as u32 + 1);
    let c = compile(&d, CompileOptions::default());
    assert!(c
        .circuit
        .marginals_by_size(c.root, &d.variables())
        .is_none());
}
