//! Erdős–Rényi random graphs.

use crate::graph::Graph;
use crate::types::Edge;
use edgeswitch_dist::Rng;

/// `G(n, m)`: exactly `m` distinct edges drawn uniformly from all vertex
/// pairs, by rejection sampling. Efficient while `m ≪ n(n−1)/2`.
///
/// # Panics
/// Panics unless [`check_gnm`] accepts `(n, m)`.
pub fn erdos_renyi_gnm<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    check_gnm(n, m).unwrap_or_else(|why| panic!("{why}"));
    let mut g = Graph::with_edge_capacity(n, m);
    while g.num_edges() < m {
        let a = rng.gen_range(0..n as u64);
        let b = rng.gen_range(0..n as u64);
        if let Some(e) = Edge::try_new(a, b) {
            let _ = g.add_edge(e); // duplicate draws are simply rejected
        }
    }
    g
}

/// The preconditions of [`erdos_renyi_gnm`], checked without generating:
/// `1 <= n <= 2^32` (the packed-edge vertex limit), `m` at most the
/// `n(n−1)/2` possible edges, and from 4 000 vertices up at most half of
/// them, past which rejection sampling would crawl.
pub fn check_gnm(n: usize, m: usize) -> Result<(), String> {
    if n == 0 || n as u128 > 1 << 32 {
        return Err(format!("G(n, m) requires 1 <= n <= 2^32 (got n={n})"));
    }
    let max_edges = n as u128 * (n as u128 - 1) / 2;
    if m as u128 > max_edges {
        return Err(format!(
            "G(n={n}, m={m}) wants more edges than the {max_edges} possible"
        ));
    }
    if m as u128 * 2 > max_edges && n >= 4000 {
        return Err(format!(
            "rejection sampling would crawl at density m/max = {:.2}; use a denser generator",
            m as f64 / max_edges as f64
        ));
    }
    Ok(())
}

/// `G(n, p)`: every pair independently with probability `p`, using the
/// geometric skip method of Batagelj–Brandes, `O(n + m)`.
pub fn erdos_renyi_gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    let expected = (p * (n as f64) * (n as f64 - 1.0) / 2.0) as usize;
    let mut g = Graph::with_edge_capacity(n, expected);
    if p == 0.0 || n < 2 {
        return g;
    }
    if p == 1.0 {
        for u in 0..n as u64 {
            for v in (u + 1)..n as u64 {
                g.add_edge(Edge::new(u, v)).unwrap();
            }
        }
        return g;
    }
    let lq = (1.0 - p).ln();
    let (mut v, mut w): (u64, i64) = (1, -1);
    while (v as usize) < n {
        let r: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        w += 1 + (r.ln() / lq).floor() as i64;
        while w >= v as i64 && (v as usize) < n {
            w -= v as i64;
            v += 1;
        }
        if (v as usize) < n {
            g.add_edge(Edge::new(w as u64, v)).unwrap();
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeswitch_dist::Pcg64;

    #[test]
    fn gnm_has_exact_edge_count() {
        let mut rng = Pcg64::seed_from_u64(1);
        let g = erdos_renyi_gnm(500, 2500, &mut rng);
        assert_eq!(g.num_vertices(), 500);
        assert_eq!(g.num_edges(), 2500);
        g.check_invariants().unwrap();
    }

    #[test]
    fn gnm_zero_edges() {
        let mut rng = Pcg64::seed_from_u64(2);
        let g = erdos_renyi_gnm(10, 0, &mut rng);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "more edges")]
    fn gnm_rejects_impossible() {
        let mut rng = Pcg64::seed_from_u64(3);
        erdos_renyi_gnm(4, 7, &mut rng);
    }

    #[test]
    fn gnp_edge_count_near_expectation() {
        let mut rng = Pcg64::seed_from_u64(4);
        let n = 1000;
        let p = 0.01;
        let g = erdos_renyi_gnp(n, p, &mut rng);
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = g.num_edges() as f64;
        assert!(
            (got - expected).abs() < 4.0 * expected.sqrt(),
            "edges {got} too far from expectation {expected}"
        );
        g.check_invariants().unwrap();
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = Pcg64::seed_from_u64(5);
        assert_eq!(erdos_renyi_gnp(20, 0.0, &mut rng).num_edges(), 0);
        assert_eq!(erdos_renyi_gnp(20, 1.0, &mut rng).num_edges(), 190);
    }

    #[test]
    fn gnm_deterministic_under_seed() {
        let g1 = erdos_renyi_gnm(100, 300, &mut Pcg64::seed_from_u64(7));
        let g2 = erdos_renyi_gnm(100, 300, &mut Pcg64::seed_from_u64(7));
        assert!(g1.same_edge_set(&g2));
    }
}
