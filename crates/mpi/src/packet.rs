//! Wire types: tagged packets and the payloads collectives exchange.

/// A message in flight between two ranks.
#[derive(Clone, Debug)]
pub struct Packet<M> {
    /// Sender rank.
    pub src: usize,
    /// Application tag. Tags at or above [`COLLECTIVE_TAG_BASE`] are
    /// reserved for collective operations.
    pub tag: u32,
    /// Payload.
    pub payload: M,
}

/// First tag reserved for collectives; user code must tag below this.
pub const COLLECTIVE_TAG_BASE: u32 = 0xF000_0000;

/// Payloads used internally by the collective operations. User message
/// types embed this via [`From`]/[`TryInto`]-style conversions provided by
/// the [`crate::comm::CollCarrier`] trait.
#[derive(Clone, Debug, PartialEq)]
pub enum CollPayload {
    /// A single counter (allgather / alltoall cells).
    U64(u64),
    /// A vector of counters (allgather rows).
    VecU64(Vec<u64>),
}

impl CollPayload {
    /// Approximate wire size in bytes, for traffic accounting.
    pub fn wire_size(&self) -> usize {
        match self {
            CollPayload::U64(_) => 8,
            CollPayload::VecU64(v) => 8 * v.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        assert_eq!(CollPayload::U64(9).wire_size(), 8);
        assert_eq!(CollPayload::VecU64(vec![1, 2, 3]).wire_size(), 24);
    }
}
