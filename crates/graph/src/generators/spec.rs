//! A few-words description of a streaming generator — the seed-boot
//! currency of the distributed pipeline.
//!
//! A [`StreamSpec`] is everything a rank needs to regenerate its share
//! of the graph: generator family, size parameters, and the seed. It
//! encodes in O(1) bytes (see the process backend's boot codec), which
//! is what shrinks a process-world's boot blob from the O(m) edge list
//! to a constant — each child builds its own share, an
//! [`EdgePool`](crate::sampling::EdgePool), from `spec.stream()` by
//! [`crate::store::build_rank_store_streamed`].

use super::check_preferential_attachment;
use super::degree_seq::DegreeSequence;
use super::pa_stream::PaStream;
use crate::graph::Graph;
use crate::stream::EdgeStream;
use crate::types::GraphError;

/// A self-contained, O(1)-sized recipe for a streaming generator.
///
/// Both variants are *recomputation* generators: the emitted edge
/// sequence is a pure function of the spec, so every rank that holds a
/// copy can replay it identically.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamSpec {
    /// Communication-free preferential attachment
    /// ([`PaStream`]): `n` vertices, `d` edges per arrival.
    Pa {
        /// Number of vertices.
        n: usize,
        /// Edges per arriving vertex (minimum degree before dedup).
        d: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Prescribed power-law degree sequence realized by the streaming
    /// generalized Havel–Hakimi constructor
    /// ([`DegreeSequence`]): the sequence itself is
    /// re-sampled deterministically from the seed on every rank, so the
    /// spec stays O(1) instead of carrying O(n) degrees.
    PowerLawSeq {
        /// Number of vertices.
        n: usize,
        /// Power-law exponent (`Pr{d = k} ∝ k^(−gamma)`).
        gamma: f64,
        /// Minimum sampled degree.
        d_min: usize,
        /// Maximum sampled degree (capped at `n − 1`).
        d_max: usize,
        /// Seed for both the degree sampling and the realization order.
        seed: u64,
    },
}

impl StreamSpec {
    /// Number of vertices of the generated graph.
    pub fn num_vertices(&self) -> usize {
        match *self {
            StreamSpec::Pa { n, .. } | StreamSpec::PowerLawSeq { n, .. } => n,
        }
    }

    /// Cheap parameter validation (no generation work): the checks a
    /// job submission endpoint runs before accepting the spec.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            StreamSpec::Pa { n, d, .. } => check_preferential_attachment(n, d),
            StreamSpec::PowerLawSeq {
                n,
                gamma,
                d_min,
                d_max,
                ..
            } => {
                if n < 2 {
                    return Err(format!("degree-seq requires n >= 2 (got n={n})"));
                }
                if n as u128 > 1 << 32 {
                    return Err(format!("degree-seq n={n} exceeds the 2^32 vertex limit"));
                }
                if d_min < 1 || d_max < d_min {
                    return Err(format!(
                        "degree-seq requires 1 <= d_min <= d_max (got d_min={d_min}, d_max={d_max})"
                    ));
                }
                if !(gamma.is_finite() && gamma > 0.0) {
                    return Err(format!(
                        "degree-seq gamma must be finite and > 0 (got {gamma})"
                    ));
                }
                Ok(())
            }
        }
    }

    /// Open the stream this spec describes. Fails only for a
    /// `PowerLawSeq` whose sampled sequence cannot be made graphical
    /// (pathological parameters; see [`DegreeSequence::power_law`]).
    pub fn stream(&self) -> Result<Box<dyn EdgeStream + Send>, GraphError> {
        match *self {
            StreamSpec::Pa { n, d, seed } => Ok(Box::new(PaStream::new(n, d, seed))),
            StreamSpec::PowerLawSeq {
                n,
                gamma,
                d_min,
                d_max,
                seed,
            } => Ok(Box::new(
                DegreeSequence::power_law(n, gamma, d_min, d_max, seed)?.stream(seed),
            )),
        }
    }

    /// Materialize the full (deduplicated) graph — the single-process
    /// reference every distributed realization must match.
    pub fn build(&self) -> Result<Graph, GraphError> {
        let mut stream = self.stream()?;
        Graph::from_stream(self.num_vertices(), &mut *stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{build_rank_store_streamed, build_stores};
    use crate::Partitioner;

    #[test]
    fn validate_screens_parameters() {
        assert!(StreamSpec::Pa {
            n: 100,
            d: 4,
            seed: 1
        }
        .validate()
        .is_ok());
        assert!(StreamSpec::Pa {
            n: 4,
            d: 4,
            seed: 1
        }
        .validate()
        .is_err());
        assert!(StreamSpec::Pa {
            n: 4,
            d: 0,
            seed: 1
        }
        .validate()
        .is_err());
        let ok = StreamSpec::PowerLawSeq {
            n: 100,
            gamma: 2.5,
            d_min: 2,
            d_max: 10,
            seed: 1,
        };
        assert!(ok.validate().is_ok());
        let bad_gamma = StreamSpec::PowerLawSeq {
            n: 100,
            gamma: f64::NAN,
            d_min: 2,
            d_max: 10,
            seed: 1,
        };
        assert!(bad_gamma.validate().is_err());
        let bad_range = StreamSpec::PowerLawSeq {
            n: 100,
            gamma: 2.5,
            d_min: 5,
            d_max: 2,
            seed: 1,
        };
        assert!(bad_range.validate().is_err());
    }

    #[test]
    fn rank_local_regeneration_matches_the_materialized_split() {
        // The seed-boot guarantee: a child that regenerates its store
        // from the spec holds exactly what build_stores would have
        // shipped it — same edges, same pool order.
        for spec in [
            StreamSpec::Pa {
                n: 400,
                d: 3,
                seed: 21,
            },
            StreamSpec::PowerLawSeq {
                n: 300,
                gamma: 2.5,
                d_min: 2,
                d_max: 25,
                seed: 21,
            },
        ] {
            let g = spec.build().unwrap();
            let part = Partitioner::hash_division(3);
            let reference = build_stores(&g, &part);
            for (rank, joint) in reference.iter().enumerate() {
                let mut stream = spec.stream().unwrap();
                let local = build_rank_store_streamed(&mut *stream, &part, rank);
                let a: Vec<_> = local.iter().collect();
                let b: Vec<_> = joint.iter().collect();
                assert_eq!(a, b, "{spec:?} rank {rank}");
            }
        }
    }
}
