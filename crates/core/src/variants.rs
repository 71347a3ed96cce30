//! Constrained switching variants discussed by the paper.
//!
//! - [`sequential_edge_switch_connected`]: keeps the graph *connected*
//!   across switches — the constraint NetworkX's `connected_double_edge_swap`
//!   imposes (Section 1 discusses this pairing of edge switching with a
//!   connectivity requirement).
//! - [`sequential_exact_visit`]: the Section 3.1 variant that marks
//!   modified edges and only ever switches *original* edges, so exactly
//!   `⌈mx⌉` edges are visited in exactly `⌈mx/2⌉` operations (at the cost
//!   of sampling a less uniform region of the degree-class graph space).
//!
//! Both keep the initial edges not yet removed in an [`EdgePool`] of
//! originals: a performed switch removes its two edges from it, so an
//! initial edge counts as visited at its first removal (Section 3.1).
//! The exact-visit variant samples from that pool too. At the end the
//! outcome reads its [`Visits`] off it, as marks over the output graph's
//! `edges()` order.

use crate::switch::{flip_kind, recombine, Recombination, MAX_REJECTS_PER_OP};
use crate::visit::Visits;
use edgeswitch_dist::Rng;
use edgeswitch_graph::sampling::EdgePool;
use edgeswitch_graph::{Graph, OrientedEdge, VertexId};
use std::collections::VecDeque;

/// Outcome of a constrained sequential run.
#[derive(Clone, Debug, Default)]
pub struct ConstrainedOutcome {
    /// Operations performed.
    pub performed: u64,
    /// Operations abandoned after exhausting retries.
    pub abandoned: u64,
    /// Rejections that restarted an operation (all reasons, including
    /// connectivity violations).
    pub restarts: u64,
    /// Rejections specifically for breaking connectivity.
    pub connectivity_rejects: u64,
    /// Visit marks over the output graph's `edges()` order.
    pub visits: Visits,
}

impl ConstrainedOutcome {
    /// The outcome with its visits read off `originals`, the initial
    /// edges a run on `graph` never removed, out of `initial`: one probe
    /// per edge of the switched graph.
    fn with_visits(mut self, graph: &Graph, originals: &EdgePool, initial: usize) -> Self {
        let mut unvisited = vec![0u64; graph.num_edges().div_ceil(64)];
        for (i, e) in graph.edges().enumerate() {
            if originals.contains(e) {
                unvisited[i / 64] |= 1 << (i % 64);
            }
        }
        self.visits = Visits { initial, unvisited };
        self
    }

    /// Observed visit rate.
    pub fn visit_rate(&self) -> f64 {
        self.visits.visit_rate()
    }
}

/// Would the graph remain connected after this switch?
///
/// Removing `(u1,v1)` and `(u2,v2)` can only separate a component that
/// contains one of the four endpoints, so it suffices to check that all
/// four endpoints remain mutually reachable in the *switched* graph. The
/// switch is applied tentatively by the caller before this check.
fn endpoints_connected(graph: &Graph, endpoints: [VertexId; 4]) -> bool {
    let mut targets: Vec<VertexId> = endpoints.to_vec();
    targets.sort_unstable();
    targets.dedup();
    let start = targets[0];
    let mut remaining: usize = targets.len() - 1;
    if remaining == 0 {
        return true;
    }
    // BFS from one endpoint until the others are found (early exit).
    let mut seen = std::collections::HashSet::new();
    seen.insert(start);
    let mut queue = VecDeque::from([start]);
    while let Some(v) = queue.pop_front() {
        for w in graph.neighbors(v).iter() {
            if seen.insert(w) {
                if targets.binary_search(&w).is_ok() {
                    remaining -= 1;
                    if remaining == 0 {
                        return true;
                    }
                }
                queue.push_back(w);
            }
        }
    }
    false
}

/// Sequential edge switching under a connectivity constraint: a switch
/// that would disconnect the graph is rejected and restarted.
///
/// # Panics
/// Panics if the input graph is not connected (the constraint would be
/// meaningless).
pub fn sequential_edge_switch_connected<R: Rng + ?Sized>(
    graph: &mut Graph,
    t: u64,
    rng: &mut R,
) -> ConstrainedOutcome {
    assert!(
        edgeswitch_graph::metrics::is_connected(graph),
        "connectivity-constrained switching needs a connected input"
    );
    let m = graph.num_edges();
    let mut originals: EdgePool = graph.edges().collect();
    let mut out = ConstrainedOutcome::default();
    if m < 2 {
        out.abandoned = t;
        return out.with_visits(graph, &originals, m);
    }
    'ops: for _ in 0..t {
        let mut retries = 0u64;
        loop {
            let e1 = OrientedEdge::from_edge(graph.sample_edge(rng).expect("m >= 2"));
            let e2 = OrientedEdge::from_edge(graph.sample_edge(rng).expect("m >= 2"));
            let kind = flip_kind(rng);
            match recombine(e1, e2, kind) {
                Recombination::Candidate { f1, f2 }
                    if !graph.has_edge(f1) && !graph.has_edge(f2) =>
                {
                    let (o1, o2) = (e1.edge(), e2.edge());
                    // Apply tentatively, then verify connectivity.
                    graph.remove_edge(o1).unwrap();
                    graph.remove_edge(o2).unwrap();
                    graph.add_edge(f1).unwrap();
                    graph.add_edge(f2).unwrap();
                    let endpoints = [e1.tail, e1.head, e2.tail, e2.head];
                    if endpoints_connected(graph, endpoints) {
                        originals.remove(o1);
                        originals.remove(o2);
                        out.performed += 1;
                        continue 'ops;
                    }
                    // Roll back.
                    graph.remove_edge(f1).unwrap();
                    graph.remove_edge(f2).unwrap();
                    graph.add_edge(o1).unwrap();
                    graph.add_edge(o2).unwrap();
                    out.connectivity_rejects += 1;
                }
                _ => {}
            }
            out.restarts += 1;
            retries += 1;
            if retries >= MAX_REJECTS_PER_OP {
                out.abandoned = t - out.performed;
                break 'ops;
            }
        }
    }
    out.with_visits(graph, &originals, m)
}

/// The exact-visit variant (Section 3.1): only *original* (unvisited)
/// edges are eligible, so `⌈mx/2⌉` operations visit exactly `2⌈mx/2⌉`
/// edges — no coupon-collector inflation. Returns the outcome; the
/// observed visit rate equals the target up to rounding whenever enough
/// legal switches exist.
pub fn sequential_exact_visit<R: Rng + ?Sized>(
    graph: &mut Graph,
    x: f64,
    rng: &mut R,
) -> ConstrainedOutcome {
    assert!((0.0..=1.0).contains(&x), "visit rate {x} out of range");
    let m = graph.num_edges();
    let mut originals: EdgePool = graph.edges().collect();
    let mut out = ConstrainedOutcome::default();
    let target_ops = ((m as f64 * x) / 2.0).ceil() as u64;
    'ops: for _ in 0..target_ops {
        if originals.len() < 2 {
            out.abandoned = target_ops - out.performed;
            break;
        }
        let mut retries = 0u64;
        loop {
            let e1 = OrientedEdge::from_edge(originals.sample(rng).expect("checked len"));
            let e2 = OrientedEdge::from_edge(originals.sample(rng).expect("checked len"));
            let kind = flip_kind(rng);
            if let Recombination::Candidate { f1, f2 } = recombine(e1, e2, kind) {
                if !graph.has_edge(f1) && !graph.has_edge(f2) {
                    let (o1, o2) = (e1.edge(), e2.edge());
                    graph.remove_edge(o1).unwrap();
                    graph.remove_edge(o2).unwrap();
                    graph.add_edge(f1).unwrap();
                    graph.add_edge(f2).unwrap();
                    originals.remove(o1);
                    originals.remove(o2);
                    out.performed += 1;
                    continue 'ops;
                }
            }
            out.restarts += 1;
            retries += 1;
            if retries >= MAX_REJECTS_PER_OP {
                out.abandoned = target_ops - out.performed;
                break 'ops;
            }
        }
    }
    out.with_visits(graph, &originals, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeswitch_dist::root_rng;
    use edgeswitch_graph::generators::{erdos_renyi_gnm, small_world};
    use edgeswitch_graph::metrics::is_connected;
    use edgeswitch_graph::Edge;
    use std::collections::BTreeSet;

    /// The keys marked unvisited by `visits` over `graph`'s edges.
    fn marked_keys(graph: &Graph, visits: &Visits) -> BTreeSet<u64> {
        let edges: Vec<Edge> = graph.edges().collect();
        visits.unvisited_edges(&edges).map(|e| e.key()).collect()
    }

    /// The barbell of [`connected_variant_rejects_bridge_cuts`]: two
    /// triangles joined by the bridge (2, 3).
    fn barbell() -> Graph {
        let edges = [(0u64, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)];
        Graph::from_edges(6, edges.iter().map(|&(a, b)| Edge::new(a, b))).unwrap()
    }

    /// The connected variant's marks against a plain key set of the
    /// initial edges. The reference runs the same draws one operation a
    /// call — a call draws nothing outside its operation — and takes out
    /// of the set the two edges each call's graph lost: exactly the pair
    /// a performed switch removes, its replacements being new edges.
    #[test]
    fn visits_mark_the_initial_edges_never_removed() {
        let cases = [
            ("barbell", barbell(), 50u64, 2u64),
            ("ring", small_world(60, 2, 0.1, &mut root_rng(31)), 200, 32),
            (
                "small world",
                small_world(80, 4, 0.05, &mut root_rng(33)),
                300,
                34,
            ),
        ];
        for (name, g, t, seed) in cases {
            let mut switched = g.clone();
            let out = sequential_edge_switch_connected(&mut switched, t, &mut root_rng(seed));

            let mut reference = g.clone();
            let mut rng = root_rng(seed);
            let mut unvisited: BTreeSet<u64> = g.edges().map(|e| e.key()).collect();
            let mut performed = 0;
            for _ in 0..t {
                let before: Vec<Edge> = reference.edges().collect();
                let one = sequential_edge_switch_connected(&mut reference, 1, &mut rng);
                if one.abandoned > 0 {
                    break;
                }
                performed += 1;
                let lost = before.iter().filter(|&&e| !reference.has_edge(e));
                assert_eq!(lost.clone().count(), 2, "{name}");
                for e in lost {
                    unvisited.remove(&e.key());
                }
            }
            assert_eq!(switched.edge_digest(), reference.edge_digest(), "{name}");
            assert_eq!(out.performed, performed, "{name}");
            assert_eq!(marked_keys(&switched, &out.visits), unvisited, "{name}");
            let visited = g.num_edges() - unvisited.len();
            assert_eq!(
                (out.visits.initial, out.visits.visited()),
                (g.num_edges(), visited)
            );
        }
    }

    /// The exact-visit variant removes two initial edges per operation,
    /// and its marks name initial edges the switched graph still holds.
    #[test]
    fn exact_visit_marks_what_it_never_switched() {
        let g = erdos_renyi_gnm(200, 800, &mut root_rng(35));
        let mut switched = g.clone();
        let out = sequential_exact_visit(&mut switched, 0.6, &mut root_rng(36));
        let marked = marked_keys(&switched, &out.visits);
        assert_eq!(marked.len() as u64, 800 - 2 * out.performed);
        assert!(marked.iter().all(|&k| g.has_edge(Edge::from_key(k))));
        assert_eq!(out.visits.visited() as u64, 2 * out.performed);
    }

    /// No operation visits nothing and marks every edge.
    #[test]
    fn a_run_of_no_operations_visits_nothing() {
        let mut g = barbell();
        let out = sequential_edge_switch_connected(&mut g, 0, &mut root_rng(37));
        assert_eq!((out.visit_rate(), out.visits.visited()), (0.0, 0));
        assert_eq!(marked_keys(&g, &out.visits).len(), 7);
        let out = sequential_exact_visit(&mut g, 0.0, &mut root_rng(38));
        assert_eq!((out.visit_rate(), out.visits.visited()), (0.0, 0));
    }

    #[test]
    fn connected_variant_preserves_connectivity() {
        let mut rng = root_rng(1);
        // Small-world graphs are connected by construction (ring core).
        let mut g = small_world(300, 6, 0.05, &mut rng);
        assert!(is_connected(&g));
        let before = g.degree_sequence();
        let out = sequential_edge_switch_connected(&mut g, 2000, &mut rng);
        assert_eq!(out.performed, 2000);
        assert!(is_connected(&g), "connectivity constraint violated");
        assert_eq!(g.degree_sequence(), before);
        g.check_invariants().unwrap();
    }

    #[test]
    fn connected_variant_rejects_bridge_cuts() {
        // Two triangles joined by one bridge: switching must never cut
        // the bridge permanently.
        let mut rng = root_rng(2);
        let edges = [
            (0u64, 1),
            (1, 2),
            (0, 2),
            (3, 4),
            (4, 5),
            (3, 5),
            (2, 3), // bridge
        ];
        let mut g = Graph::from_edges(6, edges.iter().map(|&(a, b)| Edge::new(a, b))).unwrap();
        let out = sequential_edge_switch_connected(&mut g, 50, &mut rng);
        assert!(is_connected(&g));
        // The barbell is tiny, so connectivity rejections should occur.
        assert!(out.performed + out.abandoned == 50);
    }

    #[test]
    #[should_panic(expected = "connected input")]
    fn connected_variant_rejects_disconnected_input() {
        let mut rng = root_rng(3);
        let mut g = Graph::new(4);
        g.add_edge(Edge::new(0, 1)).unwrap();
        g.add_edge(Edge::new(2, 3)).unwrap();
        sequential_edge_switch_connected(&mut g, 1, &mut rng);
    }

    #[test]
    fn exact_visit_hits_target_exactly() {
        let mut rng = root_rng(4);
        let mut g = erdos_renyi_gnm(1000, 5000, &mut rng);
        let out = sequential_exact_visit(&mut g, 0.5, &mut rng);
        assert_eq!(out.abandoned, 0);
        // Exactly 2 * ceil(m x / 2) edges visited.
        let expect = 2 * ((5000.0 * 0.5 / 2.0) as u64).max(1);
        assert_eq!(out.visits.visited() as u64, expect);
        assert!((out.visit_rate() - 0.5).abs() < 1e-3);
        g.check_invariants().unwrap();
    }

    #[test]
    fn exact_visit_uses_half_the_operations() {
        // Section 3.1: exact visiting needs mx/2 operations where the
        // unconstrained process needs E[T]/2 ≈ −m ln(1−x)/2 > mx/2.
        let m = 5000u64;
        let x = 0.8;
        let exact_ops = ((m as f64 * x) / 2.0).ceil() as u64;
        let unconstrained_ops = edgeswitch_dist::switch_ops_for_visit_rate(m, x);
        assert!(unconstrained_ops > exact_ops);
    }

    #[test]
    fn exact_visit_full_rate() {
        let mut rng = root_rng(5);
        let mut g = erdos_renyi_gnm(500, 2500, &mut rng);
        let out = sequential_exact_visit(&mut g, 1.0, &mut rng);
        // Near-complete visiting; the final leftover pair may be
        // unswappable, so allow a tiny shortfall.
        assert!(out.visit_rate() > 0.99, "visit rate {}", out.visit_rate());
    }

    /// Digest, counters and visited count of each variant, two seeds
    /// each, as the variants computed them while a hash set of initial
    /// keys tracked their visits: where a variant keeps its visit marks
    /// moves no draw and no count.
    #[test]
    fn variant_outcomes_are_pinned() {
        fn row(g: &Graph, out: &ConstrainedOutcome, m: usize) -> (u64, [u64; 5]) {
            let visited = (out.visit_rate() * m as f64).round() as u64;
            let counts = [
                out.performed,
                out.abandoned,
                out.restarts,
                out.connectivity_rejects,
                visited,
            ];
            (g.edge_digest(), counts)
        }
        let mut got = Vec::new();
        // A ring with few chords, where many switches would cut it.
        for (seed, k) in [(21, 4), (22, 2), (25, 2)] {
            let mut rng = root_rng(seed);
            let mut g = small_world(200, k, 0.05, &mut rng);
            let m = g.num_edges();
            let out = sequential_edge_switch_connected(&mut g, 600, &mut rng);
            got.push(row(&g, &out, m));
        }
        for seed in [23, 24] {
            let mut rng = root_rng(seed);
            let mut g = erdos_renyi_gnm(300, 1200, &mut rng);
            let out = sequential_exact_visit(&mut g, 0.7, &mut rng);
            got.push(row(&g, &out, 1200));
        }
        let pinned: [(u64, [u64; 5]); 5] = [
            (0x2cc8_e237_36c7_d185, [600, 0, 27, 0, 378]),
            (0xd392_9827_e65e_3a73, [600, 0, 357, 339, 199]),
            (0xb874_5643_d845_9263, [600, 0, 330, 308, 200]),
            (0xeec4_5503_4977_227b, [420, 0, 28, 0, 840]),
            (0xbd46_e8aa_2f2c_5229, [420, 0, 26, 0, 840]),
        ];
        assert_eq!(got, pinned);
    }

    #[test]
    fn endpoints_connected_detects_separation() {
        // Path 0-1-2: removing nothing, endpoints 0 and 2 connected.
        let g = Graph::from_edges(4, vec![Edge::new(0, 1), Edge::new(1, 2)]).unwrap();
        assert!(endpoints_connected(&g, [0, 1, 2, 1]));
        // Vertex 3 is isolated.
        assert!(!endpoints_connected(&g, [0, 1, 3, 1]));
    }
}
