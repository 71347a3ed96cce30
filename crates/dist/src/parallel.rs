//! Parallel multinomial generation (Algorithm 5, Section 6.2).
//!
//! The conditional chain of Algorithm 4 is inherently sequential in the
//! *outcomes*; the paper instead parallelizes over the *trials*, using
//! the additive property (Equations 12–13): split `N = Σ N_i`, let each
//! rank draw a full multinomial of its `N_i` trials, and reduce the
//! per-outcome counts. Runs in `O(N/p + ℓ log p)`.

use crate::multinomial::multinomial;
use crate::rng::Rng;
use mpilite::{CollCarrier, Comm, Link};

/// Rank `rank`'s share of `n` trials: `⌊n/p⌋ + 1` for the first `n mod p`
/// ranks (Algorithm 5, lines 2–3).
pub fn trial_share(n: u64, p: usize, rank: usize) -> u64 {
    assert!(rank < p);
    let base = n / p as u64;
    if (rank as u64) < n % p as u64 {
        base + 1
    } else {
        base
    }
}

/// Single-process embodiment of the additive property: draw `parts`
/// independent multinomials over trial shares and sum them. Distributed
/// Algorithm 5 computes exactly this, so tests validate the distributed
/// version against this function's distribution.
pub fn multinomial_partitioned<R: Rng + ?Sized>(
    n: u64,
    q: &[f64],
    parts: usize,
    rng: &mut R,
) -> Vec<u64> {
    assert!(parts >= 1);
    let mut total = vec![0u64; q.len()];
    for part in 0..parts {
        let ni = trial_share(n, parts, part);
        let x = multinomial(ni, q, rng);
        for (t, xi) in total.iter_mut().zip(x) {
            *t += xi;
        }
    }
    debug_assert_eq!(total.iter().sum::<u64>(), n);
    total
}

/// Distributed Algorithm 5: every rank draws `M(N_i, q)` and the counts
/// are summed; every rank returns the complete aggregated vector
/// (the "gather everywhere" storage variant discussed after Alg. 5).
pub fn parallel_multinomial<M, L, R>(
    comm: &mut Comm<M, L>,
    n: u64,
    q: &[f64],
    rng: &mut R,
) -> Vec<u64>
where
    M: CollCarrier,
    L: Link<M>,
    R: Rng + ?Sized,
{
    let p = comm.size();
    let ni = trial_share(n, p, comm.rank());
    let local = multinomial(ni, q, rng);
    let rows = comm.allgather_vec_u64(local);
    let mut total = vec![0u64; q.len()];
    for row in rows {
        assert_eq!(row.len(), q.len(), "rank contributed a malformed row");
        for (t, xi) in total.iter_mut().zip(row) {
            *t += xi;
        }
    }
    total
}

/// One rank's contribution to a distributed Algorithm-5 draw: the row
/// `X_{rank,·} = M(N_rank, q)` of per-outcome counts over this rank's
/// trial share. Both the real all-to-all exchange
/// ([`parallel_multinomial_owned`]) and the simulated-world column sum
/// ([`multinomial_owned_world`]) are reductions of these rows, so every
/// driver consumes the per-rank RNG streams identically.
pub fn local_quota_row<R: Rng + ?Sized>(
    n: u64,
    p: usize,
    rank: usize,
    q: &[f64],
    rng: &mut R,
) -> Vec<u64> {
    assert_eq!(q.len(), p, "owned layout requires ℓ = p");
    multinomial(trial_share(n, p, rank), q, rng)
}

/// Distributed Algorithm 5 in the paper's primary storage layout for
/// `ℓ = p`: after the exchange, rank `i` holds only `X_i` (line 5's
/// send of `X_{j,i}` to processor `P_j` is a personalized all-to-all).
pub fn parallel_multinomial_owned<M, L, R>(
    comm: &mut Comm<M, L>,
    n: u64,
    q: &[f64],
    rng: &mut R,
) -> u64
where
    M: CollCarrier,
    L: Link<M>,
    R: Rng + ?Sized,
{
    let p = comm.size();
    let local = local_quota_row(n, p, comm.rank(), q, rng);
    let mine = comm.alltoall_u64(&local);
    mine.into_iter().sum()
}

/// Algorithm 5 in the owned layout, computed centrally for simulated
/// worlds that hold all `p` rank RNGs in one process: draws every rank's
/// row and returns the column sums `X_i = Σ_j X_{j,i}`. Equivalent to
/// running [`parallel_multinomial_owned`] on every rank of a real world
/// (same rows, same per-rank RNG consumption).
pub fn multinomial_owned_world<'a, R: Rng + 'a>(
    n: u64,
    q: &[f64],
    rngs: impl Iterator<Item = &'a mut R>,
) -> Vec<u64> {
    let p = q.len();
    let mut quotas = vec![0u64; p];
    let mut ranks = 0usize;
    for (rank, rng) in rngs.enumerate() {
        ranks += 1;
        for (quota, xi) in quotas.iter_mut().zip(local_quota_row(n, p, rank, q, rng)) {
            *quota += xi;
        }
    }
    assert_eq!(ranks, p, "need exactly one RNG per outcome/rank");
    debug_assert_eq!(quotas.iter().sum::<u64>(), n);
    quotas
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{rank_rng, root_rng};
    use mpilite::{run_world_default, CollPayload};

    #[test]
    fn trial_share_partitions_n() {
        for &(n, p) in &[(10u64, 3usize), (0, 4), (7, 7), (100, 8), (5, 9)] {
            let total: u64 = (0..p).map(|r| trial_share(n, p, r)).sum();
            assert_eq!(total, n, "n={n}, p={p}");
            let shares: Vec<u64> = (0..p).map(|r| trial_share(n, p, r)).collect();
            let max = *shares.iter().max().unwrap();
            let min = *shares.iter().min().unwrap();
            assert!(
                max - min <= 1,
                "shares must differ by at most 1: {shares:?}"
            );
        }
    }

    #[test]
    fn partitioned_sums_to_n() {
        let mut rng = root_rng(1);
        let q = [0.25, 0.25, 0.5];
        for parts in [1, 2, 5, 16] {
            let x = multinomial_partitioned(10_000, &q, parts, &mut rng);
            assert_eq!(x.iter().sum::<u64>(), 10_000);
        }
    }

    #[test]
    fn partitioned_means_match_direct() {
        // Equation 13: partitioned sampling has the same distribution as a
        // direct draw — check the means agree.
        let q = [0.1, 0.6, 0.3];
        let n = 5000u64;
        let reps = 1500;
        let mut rng = root_rng(2);
        let mut direct = [0u64; 3];
        let mut parted = [0u64; 3];
        for _ in 0..reps {
            for (s, v) in direct.iter_mut().zip(multinomial(n, &q, &mut rng)) {
                *s += v;
            }
            for (s, v) in parted
                .iter_mut()
                .zip(multinomial_partitioned(n, &q, 8, &mut rng))
            {
                *s += v;
            }
        }
        for i in 0..3 {
            let a = direct[i] as f64 / reps as f64;
            let b = parted[i] as f64 / reps as f64;
            let sd = (n as f64 * q[i] * (1.0 - q[i])).sqrt();
            let tol = 6.0 * sd / (reps as f64).sqrt();
            assert!((a - b).abs() < tol, "outcome {i}: {a} vs {b} ± {tol}");
        }
    }

    #[test]
    fn distributed_matches_sum_and_is_consistent() {
        let q = vec![0.2, 0.3, 0.5];
        let n = 99_999u64;
        let out = run_world_default::<CollPayload, Vec<u64>, _>(4, |comm| {
            let mut rng = rank_rng(7, comm.rank() as u64);
            parallel_multinomial(comm, n, &q, &mut rng)
        });
        // Every rank sees the same aggregate, summing to n.
        for row in &out {
            assert_eq!(row, &out[0]);
            assert_eq!(row.iter().sum::<u64>(), n);
        }
    }

    #[test]
    fn distributed_owned_layout_sums_to_n() {
        let p = 5;
        let q = vec![1.0 / p as f64; p];
        let n = 12_345u64;
        let out = run_world_default::<CollPayload, u64, _>(p, |comm| {
            let mut rng = rank_rng(11, comm.rank() as u64);
            parallel_multinomial_owned(comm, n, &q, &mut rng)
        });
        assert_eq!(out.iter().sum::<u64>(), n);
        // Uniform probabilities: every share near n/p.
        for &xi in &out {
            let expect = n as f64 / p as f64;
            assert!(
                (xi as f64 - expect).abs() < 6.0 * expect.sqrt(),
                "share {xi} vs {expect}"
            );
        }
    }

    #[test]
    fn world_draw_matches_distributed_owned_draw() {
        // The centralized column-sum form must reproduce the real
        // alltoall exchange exactly when fed the same per-rank streams.
        let p = 5;
        let q = vec![0.1, 0.2, 0.3, 0.25, 0.15];
        let n = 12_345u64;
        let distributed = {
            let q = q.clone();
            run_world_default::<CollPayload, u64, _>(p, move |comm| {
                let mut rng = rank_rng(11, comm.rank() as u64);
                parallel_multinomial_owned(comm, n, &q, &mut rng)
            })
        };
        let mut rngs: Vec<_> = (0..p).map(|r| rank_rng(11, r as u64)).collect();
        let world = multinomial_owned_world(n, &q, rngs.iter_mut());
        assert_eq!(world, distributed);
        assert_eq!(world.iter().sum::<u64>(), n);
    }

    #[test]
    fn distributed_single_rank_degenerates_to_sequential() {
        let q = vec![0.4, 0.6];
        let out = run_world_default::<CollPayload, Vec<u64>, _>(1, |comm| {
            let mut rng = rank_rng(3, 0);
            parallel_multinomial(comm, 1000, &q, &mut rng)
        });
        assert_eq!(out[0].iter().sum::<u64>(), 1000);
    }
}
