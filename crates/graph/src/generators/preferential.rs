//! Barabási–Albert preferential attachment.

use crate::graph::Graph;
use crate::types::{Edge, VertexId};
use edgeswitch_dist::Rng;

/// Preferential-attachment graph: vertices arrive one at a time and attach
/// `d` edges to existing vertices chosen with probability proportional to
/// their current degree (the repeated-endpoints trick makes each draw
/// `O(1)`). Produces the heavily skewed degree distribution of the
/// paper's PA-100M / PA-1B datasets; average degree approaches `2d`.
///
/// # Panics
/// Panics unless [`check_preferential_attachment`] accepts `(n, d)`.
pub fn preferential_attachment<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    check_preferential_attachment(n, d).unwrap_or_else(|why| panic!("{why}"));
    // Exact final edge count: d seed edges + d per later arrival.
    let mut g = Graph::with_edge_capacity(n, d + n.saturating_sub(d + 1) * d);
    // Every edge endpoint is pushed here, so sampling an index uniformly
    // samples a vertex proportionally to degree.
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * n * d);
    // Bootstrap: vertex `d` connects to each of 0..d uniformly (they start
    // with no edges, so "proportional to degree" is undefined; the
    // standard convention connects the first arrival to all seeds).
    for seed in 0..d as u64 {
        g.add_edge(Edge::new(seed, d as u64)).unwrap();
        endpoints.push(seed);
        endpoints.push(d as u64);
    }
    let mut targets: Vec<VertexId> = Vec::with_capacity(d);
    for v in (d as u64 + 1)..n as u64 {
        targets.clear();
        // Draw d distinct targets preferentially; rejection on duplicates.
        while targets.len() < d {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            g.add_edge(Edge::new(v, t))
                .expect("targets are distinct existing vertices");
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    g
}

/// The preconditions of [`preferential_attachment`] and of its streaming
/// form [`PaStream`](super::PaStream), checked without generating:
/// `1 <= d < n <= 2^32` (the packed-edge vertex limit).
pub fn check_preferential_attachment(n: usize, d: usize) -> Result<(), String> {
    if d < 1 || d >= n {
        return Err(format!(
            "preferential attachment requires 1 <= d < n (got d={d}, n={n})"
        ));
    }
    if n as u128 > 1 << 32 {
        return Err(format!(
            "preferential attachment n={n} exceeds the 2^32 vertex limit"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeswitch_dist::Pcg64;

    #[test]
    fn edge_count_matches_formula() {
        let mut rng = Pcg64::seed_from_u64(1);
        let (n, d) = (1000, 5);
        let g = preferential_attachment(n, d, &mut rng);
        // d seed edges + d per arrival after the first.
        assert_eq!(g.num_edges(), d + (n - d - 1) * d);
        g.check_invariants().unwrap();
    }

    #[test]
    fn min_degree_is_d() {
        let mut rng = Pcg64::seed_from_u64(2);
        let g = preferential_attachment(500, 4, &mut rng);
        let min_deg = (0..500u64).map(|v| g.degree(v)).min().unwrap();
        assert!(min_deg >= 4, "every arrival brings d edges, got {min_deg}");
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let mut rng = Pcg64::seed_from_u64(3);
        let g = preferential_attachment(3000, 5, &mut rng);
        let max_deg = g.max_degree();
        let avg = g.avg_degree();
        assert!(
            max_deg as f64 > 6.0 * avg,
            "preferential attachment should produce hubs: max {max_deg}, avg {avg}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = preferential_attachment(200, 3, &mut Pcg64::seed_from_u64(4));
        let b = preferential_attachment(200, 3, &mut Pcg64::seed_from_u64(4));
        assert!(a.same_edge_set(&b));
    }

    #[test]
    #[should_panic(expected = "1 <= d < n")]
    fn rejects_bad_d() {
        preferential_attachment(5, 5, &mut Pcg64::seed_from_u64(5));
    }
}
