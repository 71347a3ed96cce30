//! The LogGP-style cost model of the simulated cluster.
//!
//! The paper's testbed is 64 dual-socket Sandy Bridge nodes (1024 cores)
//! on QDR InfiniBand. This reproduction has one core, so runtime-vs-`p`
//! curves are produced by charging *measured operation counts* from real
//! protocol executions to this cost model inside a discrete-event
//! simulation. Defaults are calibrated so that the sequential-per-switch
//! to message-latency ratio matches the efficiency regime the paper
//! reports (speedup ≈ 110 at 640 ranks on the largest graph); see
//! EXPERIMENTS.md for the calibration narrative.

/// Cost-model parameters. All times in nanoseconds of virtual time.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Sequential algorithm: cost of one switch operation
    /// (`O(log d_max)` adjacency probes + bookkeeping).
    pub seq_switch_ns: f64,
    /// Parallel rank: local CPU work to initiate/apply one operation.
    pub local_op_ns: f64,
    /// CPU overhead of sending or handling one protocol message (`o` in
    /// LogP terms).
    pub msg_handle_ns: f64,
    /// Network latency of one message (`L` / `α`).
    pub latency_ns: f64,
    /// Per-trial cost of BINV-based multinomial generation.
    pub binv_trial_ns: f64,
    /// Fixed per-step overhead besides the `log p` collective terms.
    pub step_fixed_ns: f64,
    /// Large-`p` parallel efficiency factor for embarrassingly parallel
    /// phases (system noise, stragglers, startup): the paper's measured
    /// multinomial speedup of 925 on 1024 ranks implies ≈ 0.90.
    pub parallel_efficiency: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Calibrated defaults (see EXPERIMENTS.md): a ~0.6 µs sequential
        // switch against ~1.4 µs one-way latency lands parallel
        // efficiency in the paper's observed band.
        CostModel {
            seq_switch_ns: 600.0,
            local_op_ns: 350.0,
            msg_handle_ns: 150.0,
            latency_ns: 700.0,
            binv_trial_ns: 7.0,
            step_fixed_ns: 10_000.0,
            parallel_efficiency: 0.90,
        }
    }
}

impl CostModel {
    /// Virtual time of the sequential algorithm for `t` operations.
    pub fn sequential_time_ns(&self, t: u64) -> f64 {
        t as f64 * self.seq_switch_ns
    }

    /// Cost of the step-boundary collectives at world size `p`:
    /// end-of-step dissemination + edge-count allgather (both `O(log p)`
    /// on a tree network).
    pub fn step_collective_ns(&self, p: usize) -> f64 {
        let rounds = ceil_log2(p) as f64;
        self.step_fixed_ns + 2.0 * rounds * self.latency_ns
    }

    /// Cost of the parallel multinomial draw of `s` trials over `p`
    /// ranks: `O(s/p + p·log p)` with the exchange on a tree.
    pub fn multinomial_step_ns(&self, s: u64, p: usize) -> f64 {
        let rounds = ceil_log2(p) as f64;
        self.binv_trial_ns * (s as f64 / p as f64) + rounds * self.latency_ns + p as f64 * 2.0
        // O(p) local vector update, a few ns per slot
    }

    /// Virtual time of the *sequential* multinomial generation of `n`
    /// trials (conditional-distribution method, `Θ(n)`).
    pub fn sequential_multinomial_ns(&self, n: u64) -> f64 {
        n as f64 * self.binv_trial_ns
    }

    /// Virtual time of the parallel multinomial algorithm for `n` trials,
    /// `l` outcomes, `p` ranks: `O(n/p + l·log p)` (Section 6.2).
    pub fn parallel_multinomial_ns(&self, n: u64, l: usize, p: usize) -> f64 {
        let rounds = ceil_log2(p) as f64;
        let eff = if p > 1 { self.parallel_efficiency } else { 1.0 };
        self.binv_trial_ns * (n as f64 / p as f64) / eff
            + (l as f64) * rounds * self.latency_ns / 16.0 // vectorized exchange
            + rounds * self.latency_ns
    }
}

/// `⌈log₂ p⌉`, with `p = 1 → 0`.
pub fn ceil_log2(p: usize) -> u32 {
    debug_assert!(p >= 1);
    usize::BITS - (p - 1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
    }

    #[test]
    fn sequential_time_scales_linearly() {
        let m = CostModel::default();
        assert!(m.sequential_time_ns(2000) == 2.0 * m.sequential_time_ns(1000));
    }

    #[test]
    fn collective_cost_grows_with_p() {
        let m = CostModel::default();
        assert!(m.step_collective_ns(1024) > m.step_collective_ns(2));
    }

    #[test]
    fn parallel_multinomial_speedup_shape() {
        // The model must reproduce Figure 24's near-linear scaling: at
        // N = 10⁴ billion trials and ℓ = 20, speedup at p = 1024 lands
        // in the 900s.
        let m = CostModel::default();
        let n = 10_000_000_000_000u64; // 10000B
        let seq = m.sequential_multinomial_ns(n);
        let par = m.parallel_multinomial_ns(n, 20, 1024);
        let speedup = seq / par;
        assert!(
            (850.0..975.0).contains(&speedup),
            "multinomial speedup {speedup} out of the paper's band (925)"
        );
    }

    #[test]
    fn multinomial_weak_scaling_is_flat() {
        // Figure 25: N = p · 20B, ℓ = p — runtime nearly constant.
        let m = CostModel::default();
        let t64 = m.parallel_multinomial_ns(64 * 20_000_000_000, 64, 64);
        let t1024 = m.parallel_multinomial_ns(1024 * 20_000_000_000, 1024, 1024);
        let ratio = t1024 / t64;
        assert!(
            ratio < 1.25,
            "weak scaling should be near-flat, got ratio {ratio}"
        );
    }
}
