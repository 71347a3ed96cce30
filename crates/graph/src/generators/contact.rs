//! Synthetic social contact networks (Miami / New York / Los Angeles
//! stand-ins).
//!
//! The paper's city networks are proprietary synthetic populations with
//! two properties that drive its CP-vs-HP results: (i) high clustering
//! (people meet within households/workplaces), and (ii) *label locality* —
//! consecutively-labelled vertices belong to the same community, so a
//! consecutive partition concentrates whole communities, whose internal
//! edges migrate away as switching destroys the clustering (Section 5.2).
//!
//! This generator reproduces both: vertices are labelled community by
//! community; each community is a dense Erdős–Rényi pocket, plus sparse
//! random inter-community contacts.

use crate::graph::Graph;
use crate::types::Edge;
use edgeswitch_dist::Rng;

/// Parameters of the community contact model.
#[derive(Clone, Copy, Debug)]
pub struct ContactParams {
    /// Total vertices.
    pub n: usize,
    /// Mean community size (communities are sized uniformly in
    /// `[size/2, 3·size/2]`).
    pub community_size: usize,
    /// Desired mean intra-community degree.
    pub intra_degree: f64,
    /// Desired mean inter-community degree.
    pub inter_degree: f64,
}

impl ContactParams {
    /// Miami-like defaults at unit scale: average degree ≈ 50 with ~90% of
    /// contacts inside the community.
    pub fn miami_like(n: usize) -> Self {
        ContactParams {
            n,
            community_size: 100,
            intra_degree: 45.0,
            inter_degree: 5.0,
        }
    }
}

/// Generate a contact network. Mean degree ≈ `intra_degree +
/// inter_degree`; clustering coefficient ≈ `intra_degree /
/// community_size`.
pub fn contact_network<R: Rng + ?Sized>(params: ContactParams, rng: &mut R) -> Graph {
    let ContactParams {
        n,
        community_size,
        intra_degree,
        inter_degree,
    } = params;
    assert!(community_size >= 2, "communities need at least two members");
    assert!(n >= community_size, "graph smaller than one community");
    // Mean degree ≈ intra + inter, so expect ≈ n·(intra+inter)/2 edges.
    let expected = (n as f64 * (intra_degree + inter_degree) / 2.0) as usize;
    let mut g = Graph::with_edge_capacity(n, expected);

    // Carve consecutive labels into communities.
    let mut boundaries: Vec<(u64, u64)> = Vec::new();
    let mut start = 0u64;
    while (start as usize) < n {
        let lo = (community_size / 2).max(2);
        let hi = community_size + community_size / 2;
        let size = rng.gen_range(lo..=hi) as u64;
        let end = (start + size).min(n as u64);
        boundaries.push((start, end));
        start = end;
    }
    // Merge a trailing singleton into its predecessor.
    if let Some(&(s, e)) = boundaries.last() {
        if e - s < 2 && boundaries.len() > 1 {
            boundaries.pop();
            boundaries.last_mut().unwrap().1 = e;
        }
    }

    // Intra-community ER pockets.
    for &(s, e) in &boundaries {
        let size = (e - s) as usize;
        let p_in = (intra_degree / (size as f64 - 1.0)).min(1.0);
        // Dense-ish pocket: iterate pairs with geometric skips.
        add_gnp_block(&mut g, s, e, p_in, rng);
    }

    // Inter-community contacts: each endpoint uniform over the whole
    // graph, expected inter_degree per vertex.
    let extra_edges = (n as f64 * inter_degree / 2.0) as usize;
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < extra_edges && attempts < extra_edges * 20 {
        attempts += 1;
        let a = rng.gen_range(0..n as u64);
        let b = rng.gen_range(0..n as u64);
        if let Some(edge) = Edge::try_new(a, b) {
            if g.add_edge(edge).is_ok() {
                added += 1;
            }
        }
    }
    g
}

/// Add `G(size, p)` edges among labels `[s, e)` via geometric skipping.
fn add_gnp_block<R: Rng + ?Sized>(g: &mut Graph, s: u64, e: u64, p: f64, rng: &mut R) {
    if p <= 0.0 || e - s < 2 {
        return;
    }
    if p >= 1.0 {
        for u in s..e {
            for v in (u + 1)..e {
                let _ = g.add_edge(Edge::new(u, v));
            }
        }
        return;
    }
    let size = (e - s) as i64;
    let lq = (1.0 - p).ln();
    let (mut v, mut w): (i64, i64) = (1, -1);
    while v < size {
        let r: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        w += 1 + (r.ln() / lq).floor() as i64;
        while w >= v && v < size {
            w -= v;
            v += 1;
        }
        if v < size {
            let _ = g.add_edge(Edge::new(s + w as u64, s + v as u64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::average_clustering_exact;
    use edgeswitch_dist::Pcg64;

    #[test]
    fn degree_near_target() {
        let mut rng = Pcg64::seed_from_u64(1);
        let params = ContactParams {
            n: 3000,
            community_size: 60,
            intra_degree: 20.0,
            inter_degree: 4.0,
        };
        let g = contact_network(params, &mut rng);
        let avg = g.avg_degree();
        assert!(
            (avg - 24.0).abs() < 4.0,
            "average degree {avg} far from target 24"
        );
        g.check_invariants().unwrap();
    }

    #[test]
    fn clustering_is_high() {
        let mut rng = Pcg64::seed_from_u64(2);
        let params = ContactParams {
            n: 2000,
            community_size: 50,
            intra_degree: 20.0,
            inter_degree: 2.0,
        };
        let g = contact_network(params, &mut rng);
        let cc = average_clustering_exact(&g);
        assert!(cc > 0.2, "contact network must be clustered, got cc = {cc}");
    }

    #[test]
    fn labels_are_community_local() {
        // Most edges connect labels that are close together.
        let mut rng = Pcg64::seed_from_u64(3);
        let params = ContactParams {
            n: 2000,
            community_size: 50,
            intra_degree: 20.0,
            inter_degree: 2.0,
        };
        let g = contact_network(params, &mut rng);
        let near = g.edges().filter(|e| e.dst() - e.src() < 2 * 50).count();
        assert!(
            near as f64 > 0.75 * g.num_edges() as f64,
            "expected label locality, got {near}/{}",
            g.num_edges()
        );
    }

    #[test]
    fn miami_like_defaults() {
        let mut rng = Pcg64::seed_from_u64(4);
        let g = contact_network(ContactParams::miami_like(2100), &mut rng);
        let avg = g.avg_degree();
        assert!(
            (40.0..60.0).contains(&avg),
            "avg degree {avg} not Miami-like"
        );
    }
}
