//! Voting over replica outputs.
//!
//! The paper's runtime assumes *fail-silent* hosts: every delivered replica
//! output is correct, so "if there is at least one non-⊥ value, then the
//! communicator replication is assigned that value"
//! ([`VotingStrategy::AnyReliable`]). The paper cites \[2\] for the claim
//! that fail-silence is achievable at reasonable cost; this module makes
//! that assumption *testable*: with [`VotingStrategy::Majority`] the
//! runtime tolerates value-corrupting (non-fail-silent) replicas at the
//! price of needing a strict majority.

use logrel_core::Value;
use logrel_obs::VoteOutcome;

/// How a communicator replication decides among received replica outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VotingStrategy {
    /// Take any delivered value (the paper's fail-silent voting): all
    /// delivered values are assumed identical and correct.
    #[default]
    AnyReliable,
    /// Per output, take the value delivered by a strict majority of the
    /// delivering replicas; no strict majority yields ⊥.
    Majority,
}

/// Votes over the per-replica delivered outputs (`None` = the replica was
/// silent). Returns one value per output position; positions that cannot
/// be decided are ⊥.
///
/// # Panics
///
/// Panics in debug builds if a delivered output list has a length other
/// than `arity`.
pub fn vote(
    replicas: &[Option<Vec<Value>>],
    arity: usize,
    strategy: VotingStrategy,
) -> Vec<Value> {
    let delivered: Vec<&Vec<Value>> = replicas.iter().flatten().collect();
    for d in &delivered {
        debug_assert_eq!(d.len(), arity, "output arity mismatch");
    }
    if delivered.is_empty() {
        return vec![Value::Unreliable; arity];
    }
    match strategy {
        VotingStrategy::AnyReliable => delivered[0].clone(),
        VotingStrategy::Majority => (0..arity)
            .map(|k| {
                let need = delivered.len() / 2 + 1;
                for candidate in &delivered {
                    let v = candidate[k];
                    let count = delivered.iter().filter(|d| d[k] == v).count();
                    if count >= need {
                        return v;
                    }
                }
                Value::Unreliable
            })
            .collect(),
    }
}

/// Index-addressed variant of [`vote`] used by the compiled kernel: the
/// replica outputs live in one flat buffer (`replica_vals`, row `i` at
/// `i*arity..(i+1)*arity`), with `replica_ok[i]` marking delivery. Writes
/// the voted outputs into `out` and returns whether any replica delivered.
///
/// Produces bit-identical results to [`vote`] on the equivalent
/// `&[Option<Vec<Value>>]` view, without allocating.
///
/// # Panics
///
/// Panics if `out.len() != arity` or the buffers are shorter than the
/// replica count implies.
pub fn vote_into(
    replica_vals: &[Value],
    replica_ok: &[bool],
    arity: usize,
    strategy: VotingStrategy,
    out: &mut [Value],
) -> bool {
    assert_eq!(out.len(), arity, "output arity mismatch");
    assert!(replica_vals.len() >= replica_ok.len() * arity);
    let delivered = replica_ok.iter().filter(|&&ok| ok).count();
    if delivered == 0 {
        out.fill(Value::Unreliable);
        return false;
    }
    match strategy {
        VotingStrategy::AnyReliable => {
            // First delivered replica wins, as in `vote`.
            let first = replica_ok.iter().position(|&ok| ok).unwrap();
            out.copy_from_slice(&replica_vals[first * arity..(first + 1) * arity]);
        }
        VotingStrategy::Majority => {
            let need = delivered / 2 + 1;
            for (k, slot) in out.iter_mut().enumerate() {
                *slot = Value::Unreliable;
                // Candidates in delivery order; first strict majority wins.
                for (c, _) in replica_ok.iter().enumerate().filter(|&(_, &ok)| ok) {
                    let v = replica_vals[c * arity + k];
                    let count = replica_ok
                        .iter()
                        .enumerate()
                        .filter(|&(d, &ok)| ok && replica_vals[d * arity + k] == v)
                        .count();
                    if count >= need {
                        *slot = v;
                        break;
                    }
                }
            }
        }
    }
    true
}

/// Classifies how a vote resolved, for the observability layer — see
/// [`VoteOutcome`].
///
/// Takes the same flat-buffer view as [`vote_into`] (*after* corruption
/// was applied, so disagreement between delivering replicas is visible):
///
/// * no delivering replica → [`VoteOutcome::Silent`];
/// * all delivering replica rows equal → [`VoteOutcome::Unanimous`];
/// * otherwise, if every output position has a strict-majority value →
///   [`VoteOutcome::Majority`], else [`VoteOutcome::Tie`].
///
/// The classification is independent of the [`VotingStrategy`] actually
/// used to decide the value — it describes the ballot, not the decision.
#[must_use]
pub fn classify_outcome(replica_vals: &[Value], replica_ok: &[bool], arity: usize) -> VoteOutcome {
    // Alloc-free: this runs once per vote in the observed hot loop, so
    // the delivering-index set is re-derived from `replica_ok` on the fly
    // instead of being collected.
    let delivered = replica_ok.iter().filter(|&&ok| ok).count();
    if delivered == 0 {
        return VoteOutcome::Silent;
    }
    let row = |i: usize| &replica_vals[i * arity..(i + 1) * arity];
    let ok_rows = || replica_ok.iter().enumerate().filter_map(|(i, &ok)| ok.then_some(i));
    let first = ok_rows().next().expect("delivered > 0");
    if ok_rows().skip(1).all(|i| row(i) == row(first)) {
        return VoteOutcome::Unanimous;
    }
    let need = delivered / 2 + 1;
    let all_positions_decided = (0..arity).all(|k| {
        ok_rows().any(|c| {
            let v = replica_vals[c * arity + k];
            ok_rows().filter(|&d| replica_vals[d * arity + k] == v).count() >= need
        })
    });
    if all_positions_decided {
        VoteOutcome::Majority
    } else {
        VoteOutcome::Tie
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_delivery_is_bottom() {
        let out = vote(&[None, None], 2, VotingStrategy::AnyReliable);
        assert_eq!(out, vec![Value::Unreliable, Value::Unreliable]);
        let out = vote(&[], 1, VotingStrategy::Majority);
        assert_eq!(out, vec![Value::Unreliable]);
    }

    #[test]
    fn any_reliable_takes_the_first_delivery() {
        let out = vote(
            &[None, Some(vec![Value::Float(42.0)]), Some(vec![Value::Float(7.0)])],
            1,
            VotingStrategy::AnyReliable,
        );
        assert_eq!(out, vec![Value::Float(42.0)]);
    }

    #[test]
    fn majority_outvotes_a_corrupted_replica() {
        let out = vote(
            &[
                Some(vec![Value::Float(42.0)]),
                Some(vec![Value::Float(9999.0)]), // corrupted
                Some(vec![Value::Float(42.0)]),
            ],
            1,
            VotingStrategy::Majority,
        );
        assert_eq!(out, vec![Value::Float(42.0)]);
    }

    #[test]
    fn majority_with_two_way_split_is_bottom() {
        let out = vote(
            &[
                Some(vec![Value::Float(1.0)]),
                Some(vec![Value::Float(2.0)]),
            ],
            1,
            VotingStrategy::Majority,
        );
        assert_eq!(out, vec![Value::Unreliable]);
    }

    #[test]
    fn majority_votes_per_output_position() {
        let out = vote(
            &[
                Some(vec![Value::Float(1.0), Value::Int(7)]),
                Some(vec![Value::Float(1.0), Value::Int(8)]),
                Some(vec![Value::Float(2.0), Value::Int(8)]),
            ],
            2,
            VotingStrategy::Majority,
        );
        assert_eq!(out, vec![Value::Float(1.0), Value::Int(8)]);
    }

    #[test]
    fn single_delivery_is_its_own_majority() {
        let out = vote(
            &[Some(vec![Value::Bool(true)]), None],
            1,
            VotingStrategy::Majority,
        );
        assert_eq!(out, vec![Value::Bool(true)]);
    }

    #[test]
    fn outcome_classification_covers_the_four_cases() {
        use logrel_obs::VoteOutcome;
        let f = Value::Float;
        assert_eq!(classify_outcome(&[], &[], 1), VoteOutcome::Silent);
        assert_eq!(
            classify_outcome(&[f(1.0), f(2.0)], &[false, false], 1),
            VoteOutcome::Silent
        );
        // A single delivering replica is trivially unanimous.
        assert_eq!(
            classify_outcome(&[f(1.0), f(2.0)], &[true, false], 1),
            VoteOutcome::Unanimous
        );
        assert_eq!(
            classify_outcome(&[f(1.0), f(1.0), f(1.0)], &[true, true, true], 1),
            VoteOutcome::Unanimous
        );
        // 2-of-3 agreement on every position: majority.
        assert_eq!(
            classify_outcome(&[f(1.0), f(2.0), f(1.0)], &[true, true, true], 1),
            VoteOutcome::Majority
        );
        // 1-vs-1 split: no strict majority anywhere.
        assert_eq!(
            classify_outcome(&[f(1.0), f(2.0)], &[true, true], 1),
            VoteOutcome::Tie
        );
        // Mixed positions: position 0 decided, position 1 split 1-1-1.
        assert_eq!(
            classify_outcome(
                &[f(1.0), f(7.0), f(1.0), f(8.0), f(2.0), f(9.0)],
                &[true, true, true],
                2
            ),
            VoteOutcome::Tie
        );
    }

    /// `vote_into` must agree with `vote` on every replica pattern.
    #[test]
    fn flat_voting_matches_reference_voting() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xB0BA);
        for _ in 0..500 {
            let n_rep = rng.gen_range(0..5usize);
            let arity = rng.gen_range(0..4usize);
            let replicas: Vec<Option<Vec<Value>>> = (0..n_rep)
                .map(|_| {
                    if rng.gen_bool(0.4) {
                        None
                    } else {
                        Some(
                            (0..arity)
                                // A tiny value domain forces frequent ties
                                // and splits.
                                .map(|_| Value::Int(rng.gen_range(0..3i64)))
                                .collect(),
                        )
                    }
                })
                .collect();
            let mut flat = vec![Value::Unreliable; n_rep * arity];
            let mut ok = vec![false; n_rep];
            for (i, r) in replicas.iter().enumerate() {
                if let Some(vals) = r {
                    ok[i] = true;
                    flat[i * arity..(i + 1) * arity].copy_from_slice(vals);
                }
            }
            for strategy in [VotingStrategy::AnyReliable, VotingStrategy::Majority] {
                let expected = vote(&replicas, arity, strategy);
                let mut got = vec![Value::Unreliable; arity];
                let delivered = vote_into(&flat, &ok, arity, strategy, &mut got);
                assert_eq!(got, expected, "{replicas:?} under {strategy:?}");
                assert_eq!(delivered, replicas.iter().any(Option::is_some));
            }
        }
    }
}
