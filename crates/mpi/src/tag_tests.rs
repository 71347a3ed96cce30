//! Tests of the tag-filtered receive paths that protect step-boundary
//! collectives from protocol traffic and vice versa.

use crate::packet::CollPayload;
use crate::runtime::run_world_default;

#[test]
fn try_recv_tag_buffers_other_tags() {
    let out = run_world_default::<CollPayload, (u64, u64), _>(2, |comm| {
        let peer = 1 - comm.rank();
        // Send two messages with different tags.
        comm.send(peer, 8, CollPayload::U64(80 + comm.rank() as u64));
        comm.send(peer, 9, CollPayload::U64(90 + comm.rank() as u64));
        // Both sends precede the peer's allgather contribution, and
        // per-pair order is FIFO: once it returns, both have arrived.
        comm.allgather_u64(0);
        // Ask for tag 9 first: tag 8 must be buffered, not lost.
        let nine = loop {
            if let Some(p) = comm.try_recv_tag(9) {
                break p;
            }
        };
        let eight = comm.try_recv_tag(8).expect("buffered message available");
        let get = |p: crate::packet::Packet<CollPayload>| match p.payload {
            CollPayload::U64(v) => v,
            _ => unreachable!(),
        };
        (get(eight), get(nine))
    });
    assert_eq!(out[0], (80 + 1, 90 + 1));
    assert_eq!(out[1], (80, 90));
}

#[test]
fn try_recv_tag_returns_none_when_empty() {
    let out = run_world_default::<CollPayload, bool, _>(2, |comm| {
        comm.allgather_u64(0);
        comm.try_recv_tag(5).is_none()
    });
    assert_eq!(out, vec![true, true]);
}

#[test]
fn recv_tag_skips_collective_traffic() {
    // One rank races ahead into an allgather while the other still
    // expects a user message: the user message must be deliverable and
    // the collective must still complete.
    let out = run_world_default::<CollPayload, Vec<u64>, _>(2, |comm| {
        let peer = 1 - comm.rank();
        comm.send(peer, 2, CollPayload::U64(7));
        let v = comm.allgather_u64(comm.rank() as u64);
        let pkt = comm.recv_tag(2);
        match pkt.payload {
            CollPayload::U64(7) => {}
            other => panic!("wrong payload {other:?}"),
        }
        v
    });
    for row in out {
        assert_eq!(row, vec![0, 1]);
    }
}

#[test]
fn fifo_order_within_same_tag_and_source() {
    let out = run_world_default::<CollPayload, Vec<u64>, _>(2, |comm| {
        let peer = 1 - comm.rank();
        for i in 0..5u64 {
            comm.send(peer, 3, CollPayload::U64(i));
        }
        (0..5)
            .map(|_| match comm.recv_match(peer, 3).payload {
                CollPayload::U64(v) => v,
                _ => unreachable!(),
            })
            .collect()
    });
    for row in out {
        assert_eq!(row, vec![0, 1, 2, 3, 4]);
    }
}
