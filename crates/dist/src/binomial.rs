//! Binomial sampling: the inverse-transform method (BINV, Algorithm 3)
//! with the paper's underflow-avoiding split (Equations 14–15).
//!
//! BINV computes `(1−q)^N` as its starting mass; for the paper's trial
//! counts (billions and beyond) that underflows any float type. The fix
//! (Section 6.2) exploits additivity of the binomial: split `N` into
//! chunks `N_i ≤ −log z / (2q)` so each chunk's starting mass stays above
//! the smallest representable positive value `z`, sample each chunk, and
//! sum.

use crate::rng::Rng;

/// Smallest starting probability mass we allow before splitting. Chosen
/// well above `f64::MIN_POSITIVE` so intermediate products stay normal.
const UNDERFLOW_FLOOR: f64 = 1e-280;

/// One raw BINV draw (Algorithm 3). Caller guarantees `0 < q < 1` and
/// `(1−q)^n` does not underflow.
fn binv_raw<R: Rng + ?Sized>(n: u64, q: f64, rng: &mut R) -> u64 {
    debug_assert!(q > 0.0 && q < 1.0);
    let u = rng.gen_f64();
    let ratio = q / (1.0 - q);
    let mut big_q = (1.0 - q).powf(n as f64);
    debug_assert!(big_q > 0.0, "binv_raw called in underflow regime");
    let mut s = big_q;
    let mut i = 0u64;
    while s < u && i < n {
        i += 1;
        big_q *= (n - i + 1) as f64 / i as f64 * ratio;
        s += big_q;
        // Floating-point dust can leave s infinitesimally below u even
        // after all mass is accumulated; the i < n guard terminates us at
        // the distribution's support boundary.
    }
    i
}

/// Largest chunk size for which `(1−q)^chunk ≥ UNDERFLOW_FLOOR`
/// (Equation 15).
fn max_chunk(q: f64) -> u64 {
    let ln_floor = UNDERFLOW_FLOOR.ln(); // ≈ −644.6
    let ln1q = (1.0 - q).ln(); // < 0
    let chunk = (ln_floor / ln1q).floor();
    (chunk as u64).max(1)
}

/// Sample `X ~ B(n, q)`.
///
/// Uses BINV with two standard refinements:
/// - the symmetry `B(n, q) = n − B(n, 1−q)` keeps the expected loop count
///   at `n·min(q, 1−q)`,
/// - the additive split of Equations 14–15 prevents `(1−q)^n` underflow
///   for huge `n`.
///
/// # Panics
/// Panics unless `0 ≤ q ≤ 1` and `q` is finite.
pub fn binomial<R: Rng + ?Sized>(n: u64, q: f64, rng: &mut R) -> u64 {
    assert!(
        q.is_finite() && (0.0..=1.0).contains(&q),
        "q = {q} out of [0,1]"
    );
    if n == 0 || q == 0.0 {
        return 0;
    }
    if q == 1.0 {
        return n;
    }
    if q > 0.5 {
        return n - binomial(n, 1.0 - q, rng);
    }
    let chunk = max_chunk(q);
    if n <= chunk {
        return binv_raw(n, q, rng);
    }
    let mut remaining = n;
    let mut total = 0u64;
    while remaining > 0 {
        let ni = remaining.min(chunk);
        total += binv_raw(ni, q, rng);
        remaining -= ni;
    }
    total
}

/// Sample `k` binomials that sum exactly to a `B(n, q)` draw — the
/// additive property (Equation 12) exposed directly, used by tests and by
/// the parallel algorithm's per-rank decomposition.
pub fn binomial_split<R: Rng + ?Sized>(parts: &[u64], q: f64, rng: &mut R) -> Vec<u64> {
    parts.iter().map(|&ni| binomial(ni, q, rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::root_rng;

    /// Mean/variance check against binomial moments.
    fn check_moments(n: u64, q: f64, reps: usize, seed: u64) {
        let mut rng = root_rng(seed);
        let draws: Vec<u64> = (0..reps).map(|_| binomial(n, q, &mut rng)).collect();
        let mean: f64 = draws.iter().map(|&x| x as f64).sum::<f64>() / reps as f64;
        let expect_mean = n as f64 * q;
        let expect_var = n as f64 * q * (1.0 - q);
        let tol = 5.0 * (expect_var / reps as f64).sqrt() + 1e-9;
        assert!(
            (mean - expect_mean).abs() < tol,
            "B({n},{q}): mean {mean} vs {expect_mean} (tol {tol})"
        );
        let var: f64 = draws
            .iter()
            .map(|&x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / reps as f64;
        assert!(
            (var - expect_var).abs() < 0.15 * expect_var + 1.0,
            "B({n},{q}): var {var} vs {expect_var}"
        );
    }

    #[test]
    fn boundary_parameters() {
        let mut rng = root_rng(1);
        assert_eq!(binomial(0, 0.3, &mut rng), 0);
        assert_eq!(binomial(10, 0.0, &mut rng), 0);
        assert_eq!(binomial(10, 1.0, &mut rng), 10);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn rejects_invalid_q() {
        let mut rng = root_rng(2);
        binomial(5, 1.5, &mut rng);
    }

    #[test]
    fn draws_within_support() {
        let mut rng = root_rng(3);
        for _ in 0..1000 {
            let x = binomial(20, 0.4, &mut rng);
            assert!(x <= 20);
        }
    }

    #[test]
    fn moments_small_n() {
        check_moments(40, 0.3, 20_000, 4);
    }

    #[test]
    fn moments_large_q_uses_symmetry() {
        check_moments(40, 0.85, 20_000, 5);
    }

    #[test]
    fn moments_large_n_split_path() {
        // q small enough that max_chunk forces several chunks.
        let q = 0.4;
        let n = 10_000_000u64; // chunk ≈ 1261 at q=0.4 → many chunks
        assert!(max_chunk(q) < n);
        check_moments(n, q, 200, 6);
    }

    #[test]
    fn huge_n_does_not_underflow_or_hang() {
        let mut rng = root_rng(7);
        // Expected value 5e4 so the loop work stays bounded.
        let n = 100_000_000_000u64;
        let q = 5e-7;
        let x = binomial(n, q, &mut rng);
        let mean = n as f64 * q; // 5e4
        let sd = (n as f64 * q * (1.0 - q)).sqrt();
        assert!(
            (x as f64 - mean).abs() < 8.0 * sd,
            "x = {x}, expected ≈ {mean}"
        );
    }

    #[test]
    fn max_chunk_respects_floor() {
        for &q in &[1e-9, 1e-4, 0.01, 0.3, 0.5] {
            let c = max_chunk(q);
            assert!(c >= 1);
            // (1-q)^c must not underflow.
            let mass = (1.0 - q).powf(c as f64);
            assert!(mass >= UNDERFLOW_FLOOR / 2.0, "q={q}: mass {mass}");
        }
    }

    #[test]
    fn split_parts_sum_to_binomial_moments() {
        let mut rng = root_rng(8);
        let parts = vec![1000u64; 10];
        let reps = 3000;
        let mut sums = Vec::with_capacity(reps);
        for _ in 0..reps {
            let draws = binomial_split(&parts, 0.2, &mut rng);
            sums.push(draws.iter().sum::<u64>());
        }
        let mean: f64 = sums.iter().map(|&x| x as f64).sum::<f64>() / reps as f64;
        assert!((mean - 2000.0).abs() < 30.0, "split mean {mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<u64> = {
            let mut rng = root_rng(9);
            (0..50).map(|_| binomial(100, 0.25, &mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = root_rng(9);
            (0..50).map(|_| binomial(100, 0.25, &mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
