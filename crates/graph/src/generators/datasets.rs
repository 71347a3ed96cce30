//! The paper's dataset inventory (Table 2), scaled to single-machine size.
//!
//! Each dataset is reproduced at 1/1000 of the paper's vertex count with
//! the *same average degree*, using the generator that matches the
//! original's structural class. `scale` rescales further (e.g. 0.1 for
//! smoke tests).

use super::{
    contact_network, erdos_renyi_gnm, preferential_attachment, small_world, ContactParams,
};
use crate::graph::Graph;
use edgeswitch_dist::Rng;

/// The eight networks of Table 2 (PA-1B is generated on demand only; at
/// 1/1000 scale it is the `Pa1B` entry with 1M vertices / 10M edges).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// New York contact network: 20.38M vertices, 587.3M edges, deg 57.6.
    NewYork,
    /// Los Angeles contact network: 16.33M vertices, 479.4M edges, deg 58.7.
    LosAngeles,
    /// Miami contact network: 2.1M vertices, 52.7M edges, deg 50.4.
    Miami,
    /// Flickr online community: 2.3M vertices, 22.8M edges, deg 19.8.
    Flickr,
    /// LiveJournal social network: 4.8M vertices, 42.8M edges, deg 17.8.
    LiveJournal,
    /// Watts–Strogatz small world: 4.8M vertices, 48M edges, deg 20.
    SmallWorld,
    /// Erdős–Rényi: 4.8M vertices, 48M edges, deg 20.
    ErdosRenyi,
    /// Preferential attachment: 100M vertices, 1B edges, deg 20.
    Pa100M,
    /// Preferential attachment: 1B vertices, 10B edges, deg 20.
    Pa1B,
}

/// Concrete scaled-down parameters for a dataset.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Which dataset this is.
    pub dataset: Dataset,
    /// Display name matching the paper.
    pub name: &'static str,
    /// Structural class shown in Table 2.
    pub class: &'static str,
    /// Scaled vertex count.
    pub n: usize,
    /// Paper's average degree (the scaled graph matches it).
    pub avg_degree: f64,
    /// Paper's original vertex count, for reporting.
    pub paper_vertices: u64,
    /// Paper's original edge count, for reporting.
    pub paper_edges: u64,
}

impl Dataset {
    /// All datasets in Table 2's row order.
    pub fn all() -> [Dataset; 9] {
        [
            Dataset::NewYork,
            Dataset::LosAngeles,
            Dataset::Miami,
            Dataset::Flickr,
            Dataset::LiveJournal,
            Dataset::SmallWorld,
            Dataset::ErdosRenyi,
            Dataset::Pa100M,
            Dataset::Pa1B,
        ]
    }

    /// The eight datasets used in the strong-scaling figures (everything
    /// except the 10B-edge PA-1B demo graph).
    pub fn scaling_set() -> [Dataset; 8] {
        [
            Dataset::NewYork,
            Dataset::LosAngeles,
            Dataset::Miami,
            Dataset::Flickr,
            Dataset::LiveJournal,
            Dataset::SmallWorld,
            Dataset::ErdosRenyi,
            Dataset::Pa100M,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        self.spec(1.0).name
    }

    /// Scaled parameters: vertex counts are `scale / 1000` of the paper's
    /// (so `scale = 1.0` is the default 1/1000 reproduction size), with a
    /// floor that keeps every graph meaningful.
    pub fn spec(&self, scale: f64) -> DatasetSpec {
        let (name, class, paper_v, paper_e, deg): (&str, &str, u64, u64, f64) = match self {
            Dataset::NewYork => ("NewYork", "Social Contact", 20_380_000, 587_300_000, 57.63),
            Dataset::LosAngeles => (
                "LosAngeles",
                "Social Contact",
                16_330_000,
                479_400_000,
                58.66,
            ),
            Dataset::Miami => ("Miami", "Social Contact", 2_100_000, 52_700_000, 50.4),
            Dataset::Flickr => ("Flickr", "Online Community", 2_300_000, 22_800_000, 19.83),
            Dataset::LiveJournal => ("LiveJournal", "Social", 4_800_000, 42_800_000, 17.83),
            Dataset::SmallWorld => ("SmallWorld", "Random", 4_800_000, 48_000_000, 20.0),
            Dataset::ErdosRenyi => (
                "ErdosRenyi",
                "Erdos-Renyi Random",
                4_800_000,
                48_000_000,
                20.0,
            ),
            Dataset::Pa100M => (
                "PA-100M",
                "Pref. Attachment",
                100_000_000,
                1_000_000_000,
                20.0,
            ),
            Dataset::Pa1B => (
                "PA-1B",
                "Pref. Attachment",
                1_000_000_000,
                10_000_000_000,
                20.0,
            ),
        };
        let n = ((paper_v as f64 / 1000.0 * scale) as usize).max(600);
        DatasetSpec {
            dataset: *self,
            name,
            class,
            n,
            avg_degree: deg,
            paper_vertices: paper_v,
            paper_edges: paper_e,
        }
    }

    /// Generate the scaled dataset.
    pub fn generate<R: Rng + ?Sized>(&self, scale: f64, rng: &mut R) -> Graph {
        self.spec(scale).generate(rng)
    }
}

impl DatasetSpec {
    /// Scaled edge count this spec aims for.
    pub fn target_edges(&self) -> usize {
        (self.n as f64 * self.avg_degree / 2.0) as usize
    }

    /// Generate the graph for this spec.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Graph {
        match self.dataset {
            Dataset::NewYork | Dataset::LosAngeles | Dataset::Miami => {
                let intra = self.avg_degree * 0.9;
                let inter = self.avg_degree * 0.1;
                contact_network(
                    ContactParams {
                        n: self.n,
                        community_size: 100,
                        intra_degree: intra,
                        inter_degree: inter,
                    },
                    rng,
                )
            }
            Dataset::Flickr | Dataset::LiveJournal => {
                // Heavy-tailed crawls: preferential attachment at matched
                // average degree (attachment parameter d ≈ avg/2).
                let d = (self.avg_degree / 2.0).round().max(1.0) as usize;
                preferential_attachment(self.n, d, rng)
            }
            Dataset::SmallWorld => {
                let k = (self.avg_degree.round() as usize).div_ceil(2) * 2;
                small_world(self.n, k, 0.1, rng)
            }
            Dataset::ErdosRenyi => erdos_renyi_gnm(self.n, self.target_edges(), rng),
            Dataset::Pa100M | Dataset::Pa1B => {
                let d = (self.avg_degree / 2.0).round().max(1.0) as usize;
                preferential_attachment(self.n, d, rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeswitch_dist::Pcg64;

    #[test]
    fn specs_scale_vertices() {
        let miami = Dataset::Miami.spec(1.0);
        assert_eq!(miami.n, 2100);
        let tiny = Dataset::Miami.spec(0.5);
        assert_eq!(tiny.n, 1050);
    }

    #[test]
    fn floor_prevents_degenerate_graphs() {
        let spec = Dataset::Miami.spec(0.001);
        assert!(spec.n >= 600);
    }

    #[test]
    fn generated_degree_matches_paper() {
        let mut rng = Pcg64::seed_from_u64(1);
        for ds in [
            Dataset::Miami,
            Dataset::Flickr,
            Dataset::ErdosRenyi,
            Dataset::SmallWorld,
        ] {
            let spec = ds.spec(0.5);
            let g = spec.generate(&mut rng);
            let avg = g.avg_degree();
            assert!(
                (avg - spec.avg_degree).abs() / spec.avg_degree < 0.3,
                "{}: generated avg degree {avg} vs paper {}",
                spec.name,
                spec.avg_degree
            );
        }
    }

    #[test]
    fn scaling_set_excludes_pa1b() {
        assert!(!Dataset::scaling_set().contains(&Dataset::Pa1B));
    }
}
