//! Steady-state allocation audit of the pooled framing hot path.
//!
//! The zero-copy send path (`encode_frame` into a pooled buffer +
//! `Transport::send_framed`) and the reusable receive path
//! (`Transport::recv_frame_into`) are supposed to stop allocating once
//! the pool and socket buffers are warm. This test installs a counting
//! global allocator, warms the path up, then asserts that a long run of
//! framed round trips with ≤ 1 KiB payloads performs no further heap
//! allocations.
//!
//! Receives go through the socket transports' read buffer
//! (`FrameBuf`), so the audit also covers it: a burst of frames served
//! out of one buffered read allocates nothing once the buffer exists.
//!
//! The same audit covers the TLS-sim record layer at bulk size: a warm
//! session seals a 128 KiB frame into its parked record buffer and opens
//! one in the caller's buffer — read straight there, past the chunk the
//! read buffer holds — without touching the allocator.

use std::os::unix::net::UnixStream;

use virt_rpc::message::{self, Header, REMOTE_PROGRAM};
use virt_rpc::transport::{TlsSimTransport, Transport, UnixTransport};
use virt_rpc::BufferPool;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_on_this_thread;

const WARMUP_ROUNDS: usize = 64;
const MEASURED_ROUNDS: usize = 512;
// The assertion is on *steady-state* behavior: a handful of one-off
// allocations from lazily initialized runtime state is tolerated, a
// per-round allocation pattern (≥ MEASURED_ROUNDS) is not.
const ALLOWED_ALLOCATIONS: u64 = 16;

#[test]
fn framed_round_trips_do_not_allocate_once_warm() {
    let (client_stream, server_stream) = UnixStream::pair().expect("socketpair");
    let client = UnixTransport::from_stream(client_stream, "client").expect("client transport");
    let server = UnixTransport::from_stream(server_stream, "server").expect("server transport");

    let payload: Vec<u8> = (0..1000).map(|i| i as u8).collect();
    let header = Header::call(REMOTE_PROGRAM, 42, 7);

    let pool = BufferPool::global();
    let mut send_buf = pool.get();
    let mut recv_buf = pool.get();
    let mut reply_buf = pool.get();
    let mut reply_recv_buf = pool.get();

    let round_trip = |send_buf: &mut Vec<u8>,
                      recv_buf: &mut Vec<u8>,
                      reply_buf: &mut Vec<u8>,
                      reply_recv_buf: &mut Vec<u8>| {
        // Client → server.
        message::encode_frame(&header, &payload, send_buf);
        client.send_framed(send_buf).expect("send");
        let n = server.recv_frame_into(recv_buf).expect("recv");
        assert_eq!(n, recv_buf.len());
        // Server → client: echo the received body back framed.
        reply_buf.clear();
        reply_buf.extend_from_slice(&[0u8; 4]);
        reply_buf.extend_from_slice(recv_buf);
        let body_len = (reply_buf.len() - 4) as u32;
        reply_buf[..4].copy_from_slice(&body_len.to_be_bytes());
        server.send_framed(reply_buf).expect("reply");
        let n = client.recv_frame_into(reply_recv_buf).expect("reply recv");
        assert_eq!(n, reply_recv_buf.len());
    };

    for _ in 0..WARMUP_ROUNDS {
        round_trip(
            &mut send_buf,
            &mut recv_buf,
            &mut reply_buf,
            &mut reply_recv_buf,
        );
    }

    let before = allocations_on_this_thread();
    for _ in 0..MEASURED_ROUNDS {
        round_trip(
            &mut send_buf,
            &mut recv_buf,
            &mut reply_buf,
            &mut reply_recv_buf,
        );
    }
    let allocations = allocations_on_this_thread() - before;
    assert!(
        allocations <= ALLOWED_ALLOCATIONS,
        "framed hot path allocated {allocations} times over {MEASURED_ROUNDS} \
         round trips (allowed: {ALLOWED_ALLOCATIONS}); the pooled zero-copy \
         path has regressed"
    );
}

/// Pipelined traffic: eight frames written back to back, then received
/// one by one out of the transport's read buffer — one `read` serves
/// several of them, and none of it allocates once warm.
#[test]
fn buffered_bursts_do_not_allocate_once_warm() {
    const DEPTH: usize = 8;
    let (client_stream, server_stream) = UnixStream::pair().expect("socketpair");
    let client = UnixTransport::from_stream(client_stream, "client").expect("client transport");
    let server = UnixTransport::from_stream(server_stream, "server").expect("server transport");

    let payload: Vec<u8> = (0..200).map(|i| i as u8).collect();
    let mut send_buf = Vec::new();
    let mut recv_buf = Vec::new();
    let burst = |send_buf: &mut Vec<u8>, recv_buf: &mut Vec<u8>| {
        for serial in 0..DEPTH {
            let header = Header::call(REMOTE_PROGRAM, 42, serial as u32);
            message::encode_frame(&header, &payload, send_buf);
            client.send_framed(send_buf).expect("send");
        }
        for _ in 0..DEPTH {
            let n = server.recv_frame_into(recv_buf).expect("recv");
            assert_eq!(n, 40 + 4 + payload.len());
        }
    };

    for _ in 0..WARMUP_ROUNDS {
        burst(&mut send_buf, &mut recv_buf);
    }
    let before = allocations_on_this_thread();
    for _ in 0..MEASURED_ROUNDS {
        burst(&mut send_buf, &mut recv_buf);
    }
    let allocations = allocations_on_this_thread() - before;
    assert!(
        allocations <= ALLOWED_ALLOCATIONS,
        "buffered receive path allocated {allocations} times over {MEASURED_ROUNDS} \
         bursts of {DEPTH} frames (allowed: {ALLOWED_ALLOCATIONS})"
    );
}

/// Bulk-stats-sized traffic through TLS-sim: 128 KiB frames one way, a
/// one-byte acknowledgement back, the peer on a thread of its own (the
/// frame is larger than a socket buffer). Each side counts its own
/// thread's allocations once warm.
#[test]
fn warm_tls_sim_bulk_frames_do_not_allocate() {
    const FRAME_LEN: usize = 128 * 1024;
    const TLS_WARMUP_ROUNDS: usize = 8;
    const TLS_MEASURED_ROUNDS: usize = 64;

    let (client_stream, server_stream) = UnixStream::pair().expect("socketpair");
    let server_inner =
        UnixTransport::from_stream(server_stream, "server").expect("server transport");
    let peer = std::thread::spawn(move || {
        let server = TlsSimTransport::server(server_inner, 2).expect("server handshake");
        let ack = [0, 0, 0, 1, 0xac];
        let mut frame = Vec::new();
        let mut before = 0;
        for round in 0..TLS_WARMUP_ROUNDS + TLS_MEASURED_ROUNDS {
            if round == TLS_WARMUP_ROUNDS {
                before = allocations_on_this_thread();
            }
            let n = server.recv_frame_into(&mut frame).expect("recv");
            assert_eq!(n, FRAME_LEN);
            assert_eq!((frame[0], frame[FRAME_LEN - 1]), (0x11, 0x77));
            server.send_framed(&ack).expect("ack");
        }
        allocations_on_this_thread() - before
    });
    let client_inner =
        UnixTransport::from_stream(client_stream, "client").expect("client transport");
    let client = TlsSimTransport::client(client_inner, 1).expect("client handshake");

    let mut frame = vec![0x5a_u8; 4 + FRAME_LEN];
    frame[..4].copy_from_slice(&(FRAME_LEN as u32).to_be_bytes());
    frame[4] = 0x11;
    frame[4 + FRAME_LEN - 1] = 0x77;
    let mut ack = Vec::new();
    let mut round_trip = || {
        client.send_framed(&frame).expect("send");
        client.recv_frame_into(&mut ack).expect("ack");
        assert_eq!(ack, [0xac]);
    };

    for _ in 0..TLS_WARMUP_ROUNDS {
        round_trip();
    }
    let before = allocations_on_this_thread();
    for _ in 0..TLS_MEASURED_ROUNDS {
        round_trip();
    }
    let sender = allocations_on_this_thread() - before;
    let receiver = peer.join().expect("peer thread");
    assert!(
        sender + receiver <= ALLOWED_ALLOCATIONS,
        "warm TLS-sim session allocated {sender} (sender) + {receiver} (receiver) times \
         over {TLS_MEASURED_ROUNDS} 128 KiB round trips (allowed: {ALLOWED_ALLOCATIONS}); \
         the in-place record layer has regressed"
    );
}

#[test]
fn pooled_buffers_round_trip_through_the_global_pool() {
    // Sanity companion to the allocation audit: checking a warm buffer
    // back in and out again hits the freelist instead of allocating.
    let pool = BufferPool::global();
    {
        let mut buf = pool.get();
        buf.extend_from_slice(&[1, 2, 3]);
    }
    let (hits_before, _, _) = pool.stats();
    drop(pool.get());
    let (hits_after, _, _) = pool.stats();
    assert!(hits_after > hits_before, "freelist was not reused");
}
