//! Mission reliability under permanent (crash) faults.
//!
//! The paper's SRG model is *transient*: each invocation fails
//! independently and the long-run average is governed by the SLLN. Under
//! the complementary *crash* regime (a host that fails stays silent — a
//! `hazard` event of a `logrel-sim` scenario), long-run averages are
//! degenerate: eventually every replica is dead. The meaningful question
//! becomes mission-horizon reliability:
//!
//! * a replica with per-round crash hazard `q` is still alive at round `n`
//!   with probability `(1 − q)ⁿ`;
//! * a task replicated `k` ways delivers round `n` iff at least one
//!   replica is alive: `1 − (1 − (1 − q)ⁿ)ᵏ`;
//! * the expected fraction of delivered rounds over a mission of `N`
//!   rounds is the average of that expression.
//!
//! These closed forms are validated against the crash-fault simulator in
//! the `exp_crash` experiment binary.

/// Probability that a `k`-replicated task delivers round `n` (0-based),
/// with independent per-round crash hazard `q` per replica.
///
/// Round `n` requires a replica to survive `n` earlier rounds *and* its
/// own invocation, i.e. `n + 1` Bernoulli survivals.
///
/// # Panics
///
/// Panics if `k == 0` or `q` is outside `[0, 1]`.
fn delivery_probability(k: usize, q: f64, n: u64) -> f64 {
    assert!(k > 0, "at least one replica");
    assert!((0.0..=1.0).contains(&q), "hazard must be a probability");
    let alive = (1.0 - q).powi((n + 1) as i32);
    1.0 - (1.0 - alive).powi(k as i32)
}

/// Expected fraction of delivered rounds over a mission of `horizon`
/// rounds.
///
/// # Panics
///
/// Panics if `k == 0`, if `q` is outside `[0, 1]`, or if `horizon == 0`.
pub fn expected_delivered_fraction(k: usize, q: f64, horizon: u64) -> f64 {
    assert!(horizon > 0, "mission must have at least one round");
    (0..horizon)
        .map(|n| delivery_probability(k, q, n))
        .sum::<f64>()
        / horizon as f64
}

/// The smallest replication degree whose expected delivered fraction over
/// `horizon` rounds reaches `target`, or `None` if even `max_k` replicas
/// fall short.
pub fn replication_for_mission(q: f64, horizon: u64, target: f64, max_k: usize) -> Option<usize> {
    (1..=max_k).find(|&k| expected_delivered_fraction(k, q, horizon) >= target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_replica_geometric_decay() {
        let q = 0.1;
        assert!((delivery_probability(1, q, 0) - 0.9).abs() < 1e-12);
        assert!((delivery_probability(1, q, 1) - 0.81).abs() < 1e-12);
        assert!((delivery_probability(1, q, 9) - 0.9f64.powi(10)).abs() < 1e-12);
    }

    #[test]
    fn replication_improves_every_round() {
        for n in [0u64, 5, 50] {
            let one = delivery_probability(1, 0.05, n);
            let two = delivery_probability(2, 0.05, n);
            let three = delivery_probability(3, 0.05, n);
            assert!(two > one);
            assert!(three > two);
        }
    }

    #[test]
    fn zero_hazard_is_perfect() {
        assert_eq!(delivery_probability(1, 0.0, 1000), 1.0);
        assert_eq!(expected_delivered_fraction(1, 0.0, 1000), 1.0);
    }

    #[test]
    fn certain_crash_delivers_nothing() {
        assert_eq!(delivery_probability(3, 1.0, 0), 0.0);
        assert_eq!(expected_delivered_fraction(3, 1.0, 10), 0.0);
    }

    #[test]
    fn expected_fraction_decreases_with_horizon() {
        let short = expected_delivered_fraction(2, 0.01, 10);
        let long = expected_delivered_fraction(2, 0.01, 1000);
        assert!(long < short);
    }

    #[test]
    fn replication_search() {
        // Hazard 0.001 over 1000 rounds: one replica averages ~0.63.
        let k = replication_for_mission(0.001, 1000, 0.9, 8).expect("achievable");
        assert!(k >= 2, "one replica cannot reach 0.9, got k = {k}");
        assert!(expected_delivered_fraction(k, 0.001, 1000) >= 0.9);
        assert!(expected_delivered_fraction(k - 1, 0.001, 1000) < 0.9);
        assert_eq!(replication_for_mission(0.5, 1000, 0.99, 4), None);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_panics() {
        delivery_probability(0, 0.1, 0);
    }

    #[test]
    #[should_panic(expected = "hazard")]
    fn bad_hazard_panics() {
        delivery_probability(1, 1.5, 0);
    }
}
