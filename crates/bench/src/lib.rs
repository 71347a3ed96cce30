//! # edgeswitch-bench
//!
//! Reproduction harness: one experiment per table/figure of the paper
//! (see DESIGN.md §4 for the index), shared by the `repro` binary and
//! the integration tests. The performance benchmark is `perfbench/`.

#![warn(missing_docs)]

pub mod experiments;
pub mod report;

use edgeswitch_dist::rng::root_rng;
use edgeswitch_graph::generators::Dataset;
use edgeswitch_graph::Graph;

/// Generate the scaled stand-in for a paper dataset with a seed derived
/// from the dataset name (so every experiment sees the same instance).
pub fn dataset_graph(ds: Dataset, scale: f64, seed: u64) -> Graph {
    let mut h: u64 = seed;
    for b in ds.name().bytes() {
        h = h.wrapping_mul(1099511628211).wrapping_add(b as u64);
    }
    let mut rng = root_rng(h);
    ds.generate(scale, &mut rng)
}

/// The processor grid used in scaling figures. The paper plots 64–1024;
/// the virtual cluster covers the same range.
pub fn scaling_processor_grid() -> Vec<usize> {
    vec![16, 64, 256, 640, 1024]
}

/// Number of switch operations for visit rate `x = 1` on a graph of `m`
/// edges (the setting of all scaling figures).
pub fn full_visit_ops(m: usize) -> u64 {
    edgeswitch_dist::switch_ops_for_visit_rate(m as u64, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Process-backend re-entry hook, not a test: when this crate's test
    /// binary runs `Run::process` (genscale's seed-boot tests), each
    /// rank child is this same binary re-spawned with argv selecting
    /// exactly this `#[ignore]`d name — `child_entry_from_env` then runs
    /// the rank loop and exits. Without the shm environment it is a
    /// no-op that trivially passes.
    #[test]
    #[ignore = "process-backend child entry point, not a test"]
    fn shm_child_entry() {
        edgeswitch_core::parallel::child_entry_from_env();
    }

    /// Per-case genscale re-entry hook, not a test: the genscale
    /// experiment measures each case's `VmHWM` in a fresh child, and
    /// when that child is this crate's test binary its argv selects
    /// exactly this `#[ignore]`d name — `genscale_child_from_env` then
    /// runs the case, writes the result, and exits. Without the genscale
    /// environment it is a no-op that trivially passes.
    #[test]
    #[ignore = "genscale per-case child entry point, not a test"]
    fn genscale_child_entry() {
        experiments::genscale::genscale_child_from_env();
    }

    #[test]
    fn dataset_graph_is_deterministic() {
        let a = dataset_graph(Dataset::Miami, 0.1, 1);
        let b = dataset_graph(Dataset::Miami, 0.1, 1);
        assert!(a.same_edge_set(&b));
    }

    #[test]
    fn datasets_differ() {
        let a = dataset_graph(Dataset::Miami, 0.1, 1);
        let b = dataset_graph(Dataset::Flickr, 0.1, 1);
        assert!(a.num_vertices() != b.num_vertices() || !a.same_edge_set(&b));
    }

    #[test]
    fn full_visit_ops_scales_superlinearly() {
        assert!(full_visit_ops(100_000) > 2 * full_visit_ops(50_000));
    }
}
