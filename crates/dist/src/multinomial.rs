//! Multinomial sampling: the conditional-distribution method
//! (Algorithm 4) built on BINV.
//!
//! `⟨X_0,…,X_{ℓ−1}⟩ ~ M(N, q_0,…,q_{ℓ−1})` is generated as a chain of
//! conditionals `X_i ~ B(N − ΣX_j, q_i / (1 − Σq_j))`, `O(N)` total work.

use crate::binomial::binomial;
use crate::rng::Rng;

/// Validate a probability vector: finite, non-negative, sums to 1 within
/// tolerance. Returns the (possibly not exactly 1.0) sum.
pub fn validate_probabilities(q: &[f64]) -> f64 {
    assert!(!q.is_empty(), "probability vector is empty");
    let mut sum = 0.0;
    for (i, &qi) in q.iter().enumerate() {
        assert!(
            qi.is_finite() && qi >= 0.0,
            "q[{i}] = {qi} is not a probability"
        );
        sum += qi;
    }
    assert!(
        (sum - 1.0).abs() < 1e-6,
        "probabilities sum to {sum}, expected 1"
    );
    sum
}

/// Sample `⟨X_0,…,X_{ℓ−1}⟩ ~ M(n, q)` (Algorithm 4).
///
/// # Panics
/// Panics if `q` is empty, contains non-probabilities, or does not sum
/// to 1 (within 1e-6; the vector is renormalized internally).
pub fn multinomial<R: Rng + ?Sized>(n: u64, q: &[f64], rng: &mut R) -> Vec<u64> {
    let total = validate_probabilities(q);
    let l = q.len();
    let mut x = vec![0u64; l];
    let mut drawn = 0u64; // X_s in the paper
    let mut mass_used = 0.0f64; // Q_s in the paper
    for i in 0..l {
        if drawn == n {
            break;
        }
        let remaining_mass = total - mass_used;
        if remaining_mass <= 0.0 {
            break;
        }
        if i == l - 1 {
            // All residual trials land in the final outcome; avoids
            // conditional probability rounding to 1±ε.
            x[i] = n - drawn;
            break;
        }
        let cond = (q[i] / remaining_mass).clamp(0.0, 1.0);
        let xi = binomial(n - drawn, cond, rng);
        x[i] = xi;
        drawn += xi;
        mass_used += q[i];
    }
    debug_assert_eq!(x.iter().sum::<u64>(), n);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::root_rng;

    #[test]
    fn sums_to_n() {
        let mut rng = root_rng(1);
        for &n in &[0u64, 1, 7, 100, 12_345] {
            let x = multinomial(n, &[0.2, 0.3, 0.5], &mut rng);
            assert_eq!(x.iter().sum::<u64>(), n);
        }
    }

    #[test]
    fn zero_probability_outcomes_get_nothing() {
        let mut rng = root_rng(2);
        for _ in 0..200 {
            let x = multinomial(1000, &[0.5, 0.0, 0.5], &mut rng);
            assert_eq!(x[1], 0);
        }
    }

    #[test]
    fn degenerate_single_outcome() {
        let mut rng = root_rng(3);
        assert_eq!(multinomial(42, &[1.0], &mut rng), vec![42]);
    }

    #[test]
    fn point_mass_on_last_outcome() {
        let mut rng = root_rng(4);
        assert_eq!(multinomial(9, &[0.0, 0.0, 1.0], &mut rng), vec![0, 0, 9]);
    }

    #[test]
    fn means_match_n_q() {
        let mut rng = root_rng(5);
        let q = [0.1, 0.25, 0.15, 0.5];
        let n = 2000u64;
        let reps = 4000;
        let mut sums = vec![0u64; q.len()];
        for _ in 0..reps {
            let x = multinomial(n, &q, &mut rng);
            for (s, xi) in sums.iter_mut().zip(x) {
                *s += xi;
            }
        }
        for (i, &s) in sums.iter().enumerate() {
            let mean = s as f64 / reps as f64;
            let expect = n as f64 * q[i];
            let sd = (n as f64 * q[i] * (1.0 - q[i])).sqrt();
            let tol = 5.0 * sd / (reps as f64).sqrt() + 1e-9;
            assert!(
                (mean - expect).abs() < tol,
                "outcome {i}: mean {mean} vs {expect} ± {tol}"
            );
        }
    }

    #[test]
    fn covariance_is_negative() {
        // Multinomial components compete: Cov(X_i, X_j) = −n q_i q_j.
        let mut rng = root_rng(6);
        let q = [0.5, 0.5];
        let n = 100u64;
        let reps = 20_000;
        let mut sum0 = 0.0;
        let mut sum1 = 0.0;
        let mut sum01 = 0.0;
        for _ in 0..reps {
            let x = multinomial(n, &q, &mut rng);
            sum0 += x[0] as f64;
            sum1 += x[1] as f64;
            sum01 += x[0] as f64 * x[1] as f64;
        }
        let cov = sum01 / reps as f64 - (sum0 / reps as f64) * (sum1 / reps as f64);
        let expect = -(n as f64) * q[0] * q[1]; // −25
        assert!(
            (cov - expect).abs() < 3.0,
            "covariance {cov} vs expected {expect}"
        );
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn rejects_unnormalized() {
        let mut rng = root_rng(7);
        multinomial(10, &[0.5, 0.6], &mut rng);
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn rejects_negative() {
        let mut rng = root_rng(8);
        multinomial(10, &[1.5, -0.5], &mut rng);
    }

    #[test]
    fn many_outcomes_uniform() {
        let mut rng = root_rng(9);
        let l = 64;
        let q = vec![1.0 / l as f64; l];
        let x = multinomial(64_000, &q, &mut rng);
        assert_eq!(x.iter().sum::<u64>(), 64_000);
        for &xi in &x {
            assert!((600..=1400).contains(&xi), "outcome count {xi} implausible");
        }
    }
}
