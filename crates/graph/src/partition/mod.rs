//! Vertex-partitioning schemes (Sections 4.3 and 5.1 of the paper).
//!
//! Every scheme assigns each vertex — together with its *reduced* adjacency
//! list — to exactly one of `p` partitions:
//!
//! - **CP** (consecutive partitioning): consecutive vertex-label ranges,
//!   balanced so each partition starts with roughly `m/p` edges.
//! - **HP-D** (division hash): `h(v) = v mod p`.
//! - **HP-M** (multiplication hash): `h(v) = ⌊p · frac(v·a)⌋` with
//!   `a = (√5−1)/2`.
//! - **HP-U** (universal hash): `h(v) = ((a·v + b) mod c) mod p` for a
//!   random `a ∈ [1, c)`, `b ∈ [0, c)` and a prime `c` larger than every
//!   label, drawn per instance so no adversary can predict the function.

pub mod adversary;
pub mod stats;

use crate::graph::Graph;
use crate::types::VertexId;
use edgeswitch_dist::Rng;

/// `2^61 - 1`, a Mersenne prime comfortably above any vertex label this
/// library produces; used as the universal-hash modulus `c`.
pub const UNIVERSAL_PRIME: u64 = (1u64 << 61) - 1;

/// The golden-ratio constant `(√5 − 1)/2` recommended by Cormen et al. and
/// used by the paper for the multiplication hash.
pub const KNUTH_A: f64 = 0.618_033_988_749_894_9;

/// Names of the four schemes, for configuration and reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Consecutive partitioning (CP).
    Consecutive,
    /// Division hash (HP-D).
    HashDivision,
    /// Multiplication hash (HP-M).
    HashMultiplication,
    /// Universal hash (HP-U).
    HashUniversal,
}

impl SchemeKind {
    /// The abbreviation the paper uses in its figures.
    pub fn label(&self) -> &'static str {
        match self {
            SchemeKind::Consecutive => "CP",
            SchemeKind::HashDivision => "HP-D",
            SchemeKind::HashMultiplication => "HP-M",
            SchemeKind::HashUniversal => "HP-U",
        }
    }

    /// All four schemes, in the paper's presentation order.
    pub fn all() -> [SchemeKind; 4] {
        [
            SchemeKind::Consecutive,
            SchemeKind::HashDivision,
            SchemeKind::HashMultiplication,
            SchemeKind::HashUniversal,
        ]
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A concrete vertex→partition map.
#[derive(Clone, Debug)]
pub enum Partitioner {
    /// Consecutive ranges; `starts[i]` is the first label owned by
    /// partition `i` (`starts[0] == 0`, strictly increasing).
    Consecutive {
        /// `starts[i]` is the first label owned by partition `i`.
        starts: Vec<VertexId>,
    },
    /// `v mod p`.
    HashDivision {
        /// Number of partitions.
        p: u32,
    },
    /// `⌊p · frac(v·a)⌋`.
    HashMultiplication {
        /// Number of partitions.
        p: u32,
        /// Multiplier in `(0, 1)`; the paper uses `(√5−1)/2`.
        a: f64,
    },
    /// `((a·v + b) mod c) mod p`.
    HashUniversal {
        /// Number of partitions.
        p: u32,
        /// Random multiplier in `[1, c)`.
        a: u64,
        /// Random offset in `[0, c)`.
        b: u64,
        /// Prime modulus larger than every vertex label.
        c: u64,
    },
}

impl Partitioner {
    /// Which scheme this instance implements.
    pub fn kind(&self) -> SchemeKind {
        match self {
            Partitioner::Consecutive { .. } => SchemeKind::Consecutive,
            Partitioner::HashDivision { .. } => SchemeKind::HashDivision,
            Partitioner::HashMultiplication { .. } => SchemeKind::HashMultiplication,
            Partitioner::HashUniversal { .. } => SchemeKind::HashUniversal,
        }
    }

    /// Number of partitions `p`.
    pub fn num_parts(&self) -> usize {
        match self {
            Partitioner::Consecutive { starts } => starts.len(),
            Partitioner::HashDivision { p } => *p as usize,
            Partitioner::HashMultiplication { p, .. } => *p as usize,
            Partitioner::HashUniversal { p, .. } => *p as usize,
        }
    }

    /// The partition (processor rank) owning vertex `v`.
    #[inline]
    pub fn owner(&self, v: VertexId) -> usize {
        match self {
            Partitioner::Consecutive { starts } => {
                // Largest i with starts[i] <= v.
                match starts.binary_search(&v) {
                    Ok(i) => i,
                    Err(ins) => ins - 1,
                }
            }
            Partitioner::HashDivision { p } => (v % *p as u64) as usize,
            Partitioner::HashMultiplication { p, a } => {
                let va = v as f64 * a;
                let frac = va - va.floor();
                // frac ∈ [0, 1); guard against frac*p == p from rounding.
                ((*p as f64 * frac) as usize).min(*p as usize - 1)
            }
            Partitioner::HashUniversal { p, a, b, c } => {
                let av = (*a as u128 * v as u128) % *c as u128;
                let h = (av + *b as u128) % *c as u128;
                (h % *p as u128) as usize
            }
        }
    }

    /// Build a partitioner of the given kind with scheme-appropriate
    /// parameters. CP balances initial reduced-edge counts from `graph`;
    /// hash schemes ignore the graph structure entirely (that is their
    /// defining property).
    pub fn build<R: Rng + ?Sized>(kind: SchemeKind, graph: &Graph, p: usize, rng: &mut R) -> Self {
        match kind {
            SchemeKind::Consecutive => Self::consecutive(graph, p),
            SchemeKind::HashDivision => Self::hash_division(p),
            SchemeKind::HashMultiplication => Self::hash_multiplication(p),
            SchemeKind::HashUniversal => Self::hash_universal(p, rng),
        }
    }

    /// Consecutive partitioning balanced on reduced-edge counts: partition
    /// `i` receives a maximal label range whose reduced degrees sum to
    /// roughly `m/p` (Section 4.3).
    pub fn consecutive(graph: &Graph, p: usize) -> Self {
        assert!(p >= 1, "need at least one partition");
        let reduced: Vec<u64> = reduced_degrees(graph);
        Self::consecutive_from_reduced_degrees(&reduced, p)
    }

    /// CP construction from a precomputed reduced-degree array.
    pub fn consecutive_from_reduced_degrees(reduced: &[u64], p: usize) -> Self {
        assert!(p >= 1);
        let n = reduced.len();
        let m: u64 = reduced.iter().sum();
        let mut starts = Vec::with_capacity(p);
        starts.push(0u64);
        let mut acc = 0u64;
        let mut v = 0usize;
        for i in 1..p {
            // Advance until partition i-1 holds at least i*m/p cumulative
            // edges, while leaving at least one vertex per remaining part.
            let target = (m as u128 * i as u128 / p as u128) as u64;
            let max_v = n.saturating_sub(p - i); // leave room for the rest
            while v < max_v && acc < target {
                acc += reduced[v];
                v += 1;
            }
            // Ensure strictly increasing starts even on degenerate inputs.
            let start = (v as u64).max(starts[i - 1] + 1);
            v = start as usize;
            starts.push(start);
        }
        Partitioner::Consecutive { starts }
    }

    /// Division hash `v mod p` (HP-D).
    pub fn hash_division(p: usize) -> Self {
        assert!(p >= 1 && p <= u32::MAX as usize);
        Partitioner::HashDivision { p: p as u32 }
    }

    /// Multiplication hash with the golden-ratio constant (HP-M).
    pub fn hash_multiplication(p: usize) -> Self {
        assert!(p >= 1 && p <= u32::MAX as usize);
        Partitioner::HashMultiplication {
            p: p as u32,
            a: KNUTH_A,
        }
    }

    /// Universal hash with random `a, b` and prime modulus `2^61 − 1`
    /// (HP-U). A fresh draw of `(a, b)` picks a function the adversary
    /// cannot predict.
    pub fn hash_universal<R: Rng + ?Sized>(p: usize, rng: &mut R) -> Self {
        assert!(p >= 1 && p <= u32::MAX as usize);
        let c = UNIVERSAL_PRIME;
        Partitioner::HashUniversal {
            p: p as u32,
            a: rng.gen_range(1..c),
            b: rng.gen_range(0..c),
            c,
        }
    }
}

/// Reduced degree of each vertex: the number of neighbors with a *higher*
/// label (the size of the reduced adjacency list `N(u) = {v : u < v}`).
pub fn reduced_degrees(graph: &Graph) -> Vec<u64> {
    let n = graph.num_vertices();
    let mut reduced = vec![0u64; n];
    for e in graph.edges() {
        reduced[e.src() as usize] += 1;
    }
    reduced
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;
    use edgeswitch_dist::Pcg64;

    fn star_plus_path(n: usize) -> Graph {
        // Vertex 0 connected to everyone, plus a path over 1..n.
        let mut edges = vec![];
        for v in 1..n as u64 {
            edges.push(Edge::new(0, v));
        }
        for v in 1..(n as u64 - 1) {
            edges.push(Edge::new(v, v + 1));
        }
        Graph::from_edges(n, edges).unwrap()
    }

    #[test]
    fn consecutive_covers_all_vertices() {
        let g = star_plus_path(100);
        let part = Partitioner::consecutive(&g, 8);
        assert_eq!(part.num_parts(), 8);
        let mut counts = vec![0usize; 8];
        for v in 0..100u64 {
            counts[part.owner(v)] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 100);
        assert!(counts.iter().all(|&c| c > 0), "empty partition: {counts:?}");
    }

    #[test]
    fn consecutive_balances_reduced_edges() {
        // Uniformly random-ish graph: ER-like ring of chords.
        let n = 400u64;
        let mut edges = vec![];
        for v in 0..n {
            edges.push(Edge::new(v, (v + 1) % n));
            edges.push(Edge::new(v, (v + 7) % n));
        }
        let g = Graph::from_edges(n as usize, edges.into_iter().filter(|e| e.src() != e.dst()))
            .unwrap();
        let p = 8;
        let part = Partitioner::consecutive(&g, p);
        let reduced = reduced_degrees(&g);
        let mut per_part = vec![0u64; p];
        for v in 0..n {
            per_part[part.owner(v)] += reduced[v as usize];
        }
        let target = g.num_edges() as f64 / p as f64;
        for &c in &per_part {
            assert!(
                (c as f64 - target).abs() / target < 0.25,
                "partition edge counts too skewed: {per_part:?}"
            );
        }
    }

    #[test]
    fn consecutive_owner_matches_ranges() {
        let part = Partitioner::Consecutive {
            starts: vec![0, 10, 20],
        };
        assert_eq!(part.owner(0), 0);
        assert_eq!(part.owner(9), 0);
        assert_eq!(part.owner(10), 1);
        assert_eq!(part.owner(19), 1);
        assert_eq!(part.owner(20), 2);
        assert_eq!(part.owner(1_000_000), 2);
    }

    #[test]
    fn division_hash_is_mod_p() {
        let part = Partitioner::hash_division(7);
        for v in 0..100u64 {
            assert_eq!(part.owner(v), (v % 7) as usize);
        }
    }

    #[test]
    fn multiplication_hash_in_range_and_spread() {
        let p = 16;
        let part = Partitioner::hash_multiplication(p);
        let mut counts = vec![0usize; p];
        for v in 0..16_000u64 {
            let o = part.owner(v);
            assert!(o < p);
            counts[o] += 1;
        }
        // Golden-ratio hashing is a low-discrepancy sequence; all buckets
        // should be very close to 1000.
        for &c in &counts {
            assert!((800..=1200).contains(&c), "skewed buckets: {counts:?}");
        }
    }

    #[test]
    fn universal_hash_in_range_and_spread() {
        let p = 16;
        let mut rng = Pcg64::seed_from_u64(5);
        let part = Partitioner::hash_universal(p, &mut rng);
        let mut counts = vec![0usize; p];
        for v in 0..16_000u64 {
            let o = part.owner(v);
            assert!(o < p);
            counts[o] += 1;
        }
        for &c in &counts {
            assert!((850..=1150).contains(&c), "skewed buckets: {counts:?}");
        }
    }

    #[test]
    fn universal_hash_varies_with_seed() {
        let mut r1 = Pcg64::seed_from_u64(1);
        let mut r2 = Pcg64::seed_from_u64(2);
        let p1 = Partitioner::hash_universal(64, &mut r1);
        let p2 = Partitioner::hash_universal(64, &mut r2);
        let differs = (0..1000u64).any(|v| p1.owner(v) != p2.owner(v));
        assert!(differs, "two random universal hashes should not coincide");
    }

    #[test]
    fn single_partition_owns_everything() {
        let g = star_plus_path(10);
        let mut rng = Pcg64::seed_from_u64(3);
        for kind in SchemeKind::all() {
            let part = Partitioner::build(kind, &g, 1, &mut rng);
            for v in 0..10u64 {
                assert_eq!(part.owner(v), 0, "{kind} with p=1");
            }
        }
    }

    #[test]
    fn more_partitions_than_vertices() {
        let g = star_plus_path(4);
        let part = Partitioner::consecutive(&g, 4);
        // Every partition gets exactly one vertex.
        let owners: Vec<usize> = (0..4u64).map(|v| part.owner(v)).collect();
        assert_eq!(owners, vec![0, 1, 2, 3]);
    }

    #[test]
    fn reduced_degrees_sum_to_m() {
        let g = star_plus_path(50);
        let reduced = reduced_degrees(&g);
        assert_eq!(reduced.iter().sum::<u64>() as usize, g.num_edges());
        // Vertex 0 has the lowest label, so its reduced degree equals its
        // full degree.
        assert_eq!(reduced[0] as usize, g.degree(0));
    }

    #[test]
    fn kind_labels() {
        assert_eq!(SchemeKind::Consecutive.label(), "CP");
        assert_eq!(SchemeKind::HashDivision.label(), "HP-D");
        assert_eq!(SchemeKind::HashMultiplication.label(), "HP-M");
        assert_eq!(SchemeKind::HashUniversal.label(), "HP-U");
    }
}
