//! Random-graph generators for the paper's dataset inventory (Table 2).
//!
//! Real-world inputs used by the paper (synthetic city contact networks,
//! Flickr, LiveJournal) are unavailable; each has a generator producing a
//! graph with the structural property that experiment depends on — high
//! clustering with label locality for the contact networks, heavy-tailed
//! degrees for the web crawls — at a scale that fits one machine. See
//! DESIGN.md §2 for the substitution argument.
//!
//! Two generators are *streaming and recomputation-based* — their edge
//! sequence is a pure function of a few-words spec, so distributed
//! ranks regenerate their own share instead of receiving it
//! ([`DegreeSequence`], [`PaStream`], packaged as [`StreamSpec`]; see
//! `crate::stream` and DESIGN.md §4j).

mod contact;
mod datasets;
mod degree_seq;
mod erdos_renyi;
pub mod families;
mod pa_stream;
mod preferential;
mod small_world;
mod spec;

pub use contact::{contact_network, ContactParams};
pub use datasets::{Dataset, DatasetSpec};
pub use degree_seq::{DegreeSeqStream, DegreeSequence};
pub use erdos_renyi::{check_gnm, erdos_renyi_gnm, erdos_renyi_gnp};
pub use families::{random_regular, stochastic_block_model};
pub use pa_stream::{pa_stream_edge, pa_stream_graph, PaStream};
pub use preferential::{check_preferential_attachment, preferential_attachment};
pub use small_world::small_world;
pub use spec::StreamSpec;
