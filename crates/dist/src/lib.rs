//! # edgeswitch-dist
//!
//! Random-variate substrate for the edge-switching reproduction:
//!
//! - [`binomial`]: the BINV inverse-transform sampler (Algorithm 3) with
//!   the paper's underflow-avoiding split (Equations 14–15),
//! - [`multinomial`]: the sequential conditional-distribution method
//!   (Algorithm 4),
//! - [`parallel`]: the paper's parallel multinomial algorithm
//!   (Algorithm 5) over the `mpilite` runtime,
//! - [`harmonic`]: harmonic numbers and the visit-rate → switch-count
//!   conversion (Equation 4),
//! - [`rng`]: the in-repo PCG-64 generator, the [`Rng`] sampling trait and
//!   seeded, per-rank-decorrelated streams.

#![warn(missing_docs)]

pub mod binomial;
pub mod harmonic;
pub mod multinomial;
pub mod parallel;
pub mod rng;

#[cfg(test)]
mod gof_tests;

pub use binomial::binomial;
pub use harmonic::{expected_touches, harmonic, switch_ops_for_visit_rate};
pub use multinomial::multinomial;
pub use parallel::{
    local_quota_row, multinomial_owned_world, multinomial_partitioned, parallel_multinomial,
    parallel_multinomial_owned, trial_share,
};
pub use rng::{rank_block_rng, rank_rng, root_rng, substream_rng, BlockRng64, Pcg64, Rng, Rng64};
