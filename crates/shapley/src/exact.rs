//! Exact Shapley values of facts via decision-DNNF model counting.
//!
//! For a query `q`, output tuple `t` with monotone provenance `φ` over the
//! lineage facts (the *endogenous* players; all other facts are exogenous and
//! fixed to true inside `φ`'s construction), the Shapley value of fact `f` is
//!
//! ```text
//! Shapley(f) = Σ_{k=0}^{n-1}  k!·(n-k-1)!/n!  ·  (#Sat₁(k) − #Sat₀(k))
//! ```
//!
//! where `#Sat₁(k)` (resp. `#Sat₀(k)`) counts size-`k` subsets `E` of the
//! other `n−1` players with `φ(E ∪ {f}) = 1` (resp. `φ(E) = 1`). Both counts
//! come from one compiled circuit — the polynomial-time route of Deutch,
//! Frost, Kimelfeld & Monet (the paper's `[15]`), which this crate
//! reproduces. Rather than conditioning the circuit on `f = 1` and `f = 0`
//! for each of the `n` players, every player's marginal
//! `D_f[k] = #Sat₁(k) − #Sat₀(k)` comes out of one forward and one reverse
//! (adjoint) pass over the circuit ([`Circuit::marginals_by_size`]), in exact
//! `u128` arithmetic for `n ≤ 120`. Larger lineages keep the two conditioned
//! big-integer counts per player.

use ls_provenance::{compile, BigNat, Circuit, CompileOptions, Compiled, Dnf, NodeId};
use ls_relational::{FactId, LineageArena, MonoRef};
use std::collections::BTreeMap;

/// Shapley (or other attribution) scores per fact.
pub type FactScores = BTreeMap<FactId, f64>;

/// Exact Shapley values of every lineage fact of `provenance`.
///
/// Players are exactly the variables of the provenance (the lineage). Facts
/// outside the lineage have Shapley value 0 and are not reported — matching
/// the paper's observation that DBShap stores only positive-contribution
/// facts.
pub fn shapley_values(provenance: &Dnf) -> FactScores {
    shapley_values_opts(provenance, CompileOptions::default())
}

/// Exact Shapley values straight from a recovered clause set — the output of
/// the monotone-DNF semirings' `recover_fn` (arena refs into the result's
/// [`LineageArena`]).
///
/// This is the semiring-native entry point: the evaluator's tag is lowered to
/// clauses, lifted into a [`Dnf`] without re-minimization, and compiled. The
/// arena is borrowed shared, so many tuples of one result can be scored in
/// parallel.
pub fn shapley_values_recovered(arena: &LineageArena, clauses: &[MonoRef]) -> FactScores {
    shapley_values(&Dnf::from_recovered(arena, clauses))
}

/// [`shapley_values`] with explicit compiler options (for the ablation
/// benches).
pub fn shapley_values_opts(provenance: &Dnf, opts: CompileOptions) -> FactScores {
    let players = provenance.variables();
    if players.is_empty() {
        return FactScores::new();
    }
    let compiled = compile(provenance, opts);
    shapley_values_compiled(&compiled, &players)
}

/// Exact Shapley values reusing an already-compiled circuit (used when many
/// facts of the same `(q, t)` pair are scored — the common case).
pub fn shapley_values_compiled(compiled: &Compiled, players: &[FactId]) -> FactScores {
    shapley_values_circuit(&compiled.circuit, compiled.root, players)
}

/// Exact Shapley values over a bare circuit arena and root — the layer under
/// [`shapley_values_compiled`], for circuits that did not come out of the
/// compiler just now (e.g. entries reloaded from the `ls-circuit` store).
///
/// `players` must be sorted and contain the root's support. Every player's
/// marginal counts come from one adjoint pass over the circuit; each
/// value is a pure function of (circuit, sorted players), so it is the same
/// at every thread count.
pub fn shapley_values_circuit(circuit: &Circuit, root: NodeId, players: &[FactId]) -> FactScores {
    if players.is_empty() {
        return FactScores::new();
    }
    let sp = ls_obs::span("shapley.exact")
        .with("players", players.len())
        .with("circuit_nodes", circuit.len());
    let weights = shapley_weights(players.len());
    let values: Vec<f64> = match Marginals::of(circuit, root, players) {
        Marginals::Small(d) => d
            .iter()
            .map(|d_f| weighted_marginal_sum(d_f.iter().map(|&c| BigNat::ln_u128(c)), &weights))
            .collect(),
        Marginals::Large(d) => d
            .iter()
            .map(|d_f| weighted_marginal_sum(d_f.iter().map(BigNat::ln), &weights))
            .collect(),
    };
    if ls_obs::enabled() {
        ls_obs::counter("shapley.exact.facts_scored").add(players.len() as u64);
        // Every coalition size 0..n is counted analytically per fact.
        ls_obs::counter("shapley.exact.coalition_sizes")
            .add((players.len() * players.len()) as u64);
    }
    drop(sp);
    players.iter().copied().zip(values).collect()
}

/// Every player's marginal counts `D_f[k] = #Sat₁(k) − #Sat₀(k)`
/// (`k = 0..n`), in `players` order.
pub(crate) enum Marginals {
    /// From one adjoint pass over the circuit (`n ≤ 120`).
    Small(Vec<Vec<u128>>),
    /// From two conditioned big-integer counts per player (`n > 120`).
    Large(Vec<Vec<BigNat>>),
}

impl Marginals {
    /// The marginals of every player of the sorted `players` over the
    /// circuit at `root`.
    pub(crate) fn of(circuit: &Circuit, root: NodeId, players: &[FactId]) -> Marginals {
        if let Some(d) = circuit.marginals_by_size(root, players) {
            return Marginals::Small(d);
        }
        Marginals::Large(
            players
                .iter()
                .map(|&f| {
                    let others: Vec<FactId> = players.iter().copied().filter(|&x| x != f).collect();
                    let with = circuit.count_by_size(root, &others, Some((f, true)));
                    let without = circuit.count_by_size(root, &others, Some((f, false)));
                    with.iter().zip(&without).map(|(w, wo)| w.sub(wo)).collect()
                })
                .collect(),
        )
    }
}

/// The coalition-size weights `w[k] = k!·(n-k-1)!/n!` for `k = 0..n`,
/// computed in log-space for numerical stability at large `n`.
pub fn shapley_weights(n: usize) -> Vec<f64> {
    // ln k! table.
    let mut ln_fact = vec![0.0f64; n + 1];
    for k in 1..=n {
        ln_fact[k] = ln_fact[k - 1] + (k as f64).ln();
    }
    (0..n)
        .map(|k| (ln_fact[k] + ln_fact[n - 1 - k] - ln_fact[n]).exp())
        .collect()
}

/// `Σ_k w[k] · D_f[k]`, given `ln D_f[k]` (`-inf` for a zero count): the
/// marginal counts are exact integers and the product is taken in log-space
/// to survive huge counts.
fn weighted_marginal_sum(ln_marginals: impl Iterator<Item = f64>, weights: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    for (w, ln_d) in weights.iter().zip(ln_marginals) {
        if ln_d == f64::NEG_INFINITY {
            continue;
        }
        acc += (w.ln() + ln_d).exp();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_relational::Monomial;

    fn dnf(monos: &[&[u32]]) -> Dnf {
        Dnf::from_monomials(
            monos
                .iter()
                .map(|ids| Monomial::from_facts(ids.iter().map(|&i| FactId(i)).collect()))
                .collect(),
        )
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn single_fact_gets_everything() {
        let scores = shapley_values(&dnf(&[&[0]]));
        assert_eq!(scores.len(), 1);
        assert!(close(scores[&FactId(0)], 1.0));
    }

    #[test]
    fn conjunction_splits_equally() {
        // φ = a ∧ b: symmetric players, efficiency ⇒ 1/2 each.
        let scores = shapley_values(&dnf(&[&[0, 1]]));
        assert!(close(scores[&FactId(0)], 0.5));
        assert!(close(scores[&FactId(1)], 0.5));
    }

    #[test]
    fn disjunction_splits_equally() {
        // φ = a ∨ b: also symmetric ⇒ 1/2 each.
        let scores = shapley_values(&dnf(&[&[0], &[1]]));
        assert!(close(scores[&FactId(0)], 0.5));
        assert!(close(scores[&FactId(1)], 0.5));
    }

    #[test]
    fn paper_example_2_2() {
        // Prov(D, q_inf, Alice) = (a1∧m1∧c1∧r1) ∨ (a1∧m2∧c1∧r2) ∨ (a1∧m3∧c2∧r3)
        // with a1=0, m1=1, m2=2, m3=3, c1=4, c2=5, r1=6, r2=7, r3=8.
        // The paper derives Shapley(c2) = 19/252 ≈ 0.075 and
        // Shapley(c1) = 10/63 ≈ 0.158.
        let prov = dnf(&[&[0, 1, 4, 6], &[0, 2, 4, 7], &[0, 3, 5, 8]]);
        let scores = shapley_values(&prov);
        assert!(
            close(scores[&FactId(5)], 19.0 / 252.0),
            "c2 = {}, want {}",
            scores[&FactId(5)],
            19.0 / 252.0
        );
        assert!(
            close(scores[&FactId(4)], 10.0 / 63.0),
            "c1 = {}, want {}",
            scores[&FactId(4)],
            10.0 / 63.0
        );
        // c1 participates in two derivations, c2 in one.
        assert!(scores[&FactId(4)] > scores[&FactId(5)]);
    }

    #[test]
    fn efficiency_axiom() {
        // Σ Shapley = φ(all) − φ(∅) = 1 for a derivable tuple.
        for d in [
            dnf(&[&[0, 1], &[1, 2], &[3]]),
            dnf(&[&[0, 1, 2, 3]]),
            dnf(&[&[0], &[1], &[2]]),
            dnf(&[&[0, 1, 4, 6], &[0, 2, 4, 7], &[0, 3, 5, 8]]),
        ] {
            let total: f64 = shapley_values(&d).values().sum();
            assert!(close(total, 1.0), "total = {total} for {d}");
        }
    }

    #[test]
    fn null_player_never_reported() {
        // Facts outside the lineage are simply not players.
        let scores = shapley_values(&dnf(&[&[0, 1]]));
        assert!(!scores.contains_key(&FactId(9)));
    }

    #[test]
    fn symmetry_axiom() {
        // a and b are interchangeable in (a∧c) ∨ (b∧c).
        let scores = shapley_values(&dnf(&[&[0, 2], &[1, 2]]));
        assert!(close(scores[&FactId(0)], scores[&FactId(1)]));
        // And the shared fact c contributes more.
        assert!(scores[&FactId(2)] > scores[&FactId(0)]);
    }

    #[test]
    fn empty_provenance_yields_no_scores() {
        assert!(shapley_values(&Dnf::fls()).is_empty());
        assert!(shapley_values(&Dnf::tru()).is_empty());
    }

    #[test]
    fn weights_sum_matches_identity() {
        // Σ_{k} C(n-1,k)·w[k] = 1 (the permutation-position identity).
        for n in 1..20usize {
            let w = shapley_weights(n);
            let mut binom = 1.0f64;
            let mut total = 0.0;
            for (k, wk) in w.iter().enumerate() {
                total += binom * wk;
                binom = binom * ((n - 1 - k) as f64) / ((k + 1) as f64);
            }
            assert!(close(total, 1.0), "n={n}: {total}");
        }
    }

    #[test]
    fn parallel_scoring_bit_identical_across_thread_counts() {
        let d = dnf(&[&[0, 1, 4, 6], &[0, 2, 4, 7], &[0, 3, 5, 8], &[1, 2, 9]]);
        let serial = ls_par::with_threads(1, || shapley_values(&d));
        for t in [2usize, 4] {
            let par = ls_par::with_threads(t, || shapley_values(&d));
            assert_eq!(serial.len(), par.len());
            for (f, v) in &serial {
                assert_eq!(v.to_bits(), par[f].to_bits(), "fact {f:?} at {t} threads");
            }
        }
    }

    /// The conditioned big-integer route the adjoint pass replaced: two
    /// `count_by_size` calls per player.
    fn conditioned_shapley(d: &Dnf) -> FactScores {
        let players = d.variables();
        let c = compile(d, CompileOptions::default());
        let weights = shapley_weights(players.len());
        players
            .iter()
            .map(|&f| {
                let others: Vec<FactId> = players.iter().copied().filter(|&x| x != f).collect();
                let with = c.circuit.count_by_size(c.root, &others, Some((f, true)));
                let without = c.circuit.count_by_size(c.root, &others, Some((f, false)));
                let lns = with.iter().zip(&without).map(|(w, wo)| w.sub(wo).ln());
                (f, weighted_marginal_sum(lns, &weights))
            })
            .collect()
    }

    #[test]
    fn adjoint_values_are_bit_identical_to_conditioned_counts() {
        let chain: Vec<[u32; 2]> = (0..99).map(|i| [i, i + 1]).collect();
        let mut cases = vec![
            dnf(&[&[0, 1, 4, 6], &[0, 2, 4, 7], &[0, 3, 5, 8], &[1, 2, 9]]),
            dnf(&[&[0, 1], &[1, 2], &[2, 3], &[3, 4, 5], &[6]]),
            dnf(&[&[0, 1, 2, 3, 4, 5, 6, 7]]),
            dnf(&chain.iter().map(|c| c.as_slice()).collect::<Vec<_>>()),
        ];
        cases.push(dnf(&[&[3], &[4, 9], &[9, 11], &[11, 3, 20]]));
        for d in &cases {
            let adjoint = shapley_values(d);
            let conditioned = conditioned_shapley(d);
            assert_eq!(adjoint.len(), conditioned.len());
            for (f, v) in &conditioned {
                assert_eq!(adjoint[f].to_bits(), v.to_bits(), "fact {f} of {d}");
            }
        }
    }

    #[test]
    fn lineage_beyond_the_u128_limit_takes_the_bignat_path() {
        // 61 disjoint pairs: 122 symmetric players, each worth 1/122.
        let pairs: Vec<[u32; 2]> = (0..61).map(|i| [2 * i, 2 * i + 1]).collect();
        let monos: Vec<&[u32]> = pairs.iter().map(|p| p.as_slice()).collect();
        let d = dnf(&monos);
        let players = d.variables();
        assert_eq!(players.len(), 122);
        let compiled = compile(&d, CompileOptions::default());
        assert!(compiled
            .circuit
            .marginals_by_size(compiled.root, &players)
            .is_none());
        assert!(matches!(
            Marginals::of(&compiled.circuit, compiled.root, &players),
            Marginals::Large(_)
        ));
        let scores = shapley_values_compiled(&compiled, &players);
        assert_eq!(scores.len(), 122);
        for v in scores.values() {
            assert!((v - 1.0 / 122.0).abs() < 1e-12, "value {v}");
        }
        let total: f64 = scores.values().sum();
        assert!(close(total, 1.0), "total = {total}");
    }

    #[test]
    fn compiled_reuse_matches_fresh() {
        let d = dnf(&[&[0, 1], &[1, 2], &[2, 3]]);
        let fresh = shapley_values(&d);
        let compiled = compile(&d, CompileOptions::default());
        let reused = shapley_values_compiled(&compiled, &d.variables());
        for (f, v) in &fresh {
            assert!(close(*v, reused[f]));
        }
    }
}
