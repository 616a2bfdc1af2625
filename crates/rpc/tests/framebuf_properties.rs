//! Property tests for the frame splitter: any sequence of frames, cut at
//! arbitrary byte boundaries, comes out as the same frames in the same
//! order — through a [`FrameBuf`] fed read by read, and through
//! `UnixTransport::recv_frame_into` over a socket pair whose writer
//! splits at those boundaries. A zero or over-limit prefix is rejected
//! at the same frame index on both paths, with nothing after it
//! delivered. (The daemon's event loop is held to the same property in
//! `crates/daemon/tests/slowloris.rs`.) The bounded receive a client
//! reads through is held to it as well: giving up at a deadline —
//! anywhere in a prefix or a body, any number of times — never costs or
//! corrupts a frame.

use std::io::{self, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use virt_rpc::framebuf::{FrameBuf, READ_CHUNK};
use virt_rpc::message::MAX_PACKET_LEN;
use virt_rpc::transport::{Transport, UnixTransport};

/// Body lengths: mostly small, the sizes around one chunk where the
/// prefix or the last byte lands on the buffer edge, and up to three
/// chunks.
fn body_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..64,
        1usize..64,
        Just(READ_CHUNK - 4),
        Just(READ_CHUNK - 3),
        Just(READ_CHUNK),
        1usize..3 * READ_CHUNK + 1,
    ]
}

fn body(index: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (index * 31 + i) as u8).collect()
}

/// The wire bytes of `lens` (one frame each), with `bad` — a frame index
/// and an unacceptable prefix — spliced in before that frame, plus the
/// frames a correct receiver delivers.
fn wire(lens: &[usize], bad: Option<(usize, u32)>) -> (Vec<u8>, Vec<Vec<u8>>) {
    let bad = bad.map(|(at, prefix)| (at % (lens.len() + 1), prefix));
    let mut bytes = Vec::new();
    let mut delivered = Vec::new();
    for index in 0..=lens.len() {
        if let Some((_, prefix)) = bad.filter(|&(at, _)| at == index) {
            bytes.extend_from_slice(&prefix.to_be_bytes());
        }
        let Some(&len) = lens.get(index) else { break };
        // Frames behind a bad prefix are still sent: none may come out.
        bytes.extend_from_slice(&(len as u32).to_be_bytes());
        bytes.extend_from_slice(&body(index, len));
        if bad.is_none_or(|(at, _)| index < at) {
            delivered.push(body(index, len));
        }
    }
    (bytes, delivered)
}

/// `bytes` cut into pieces of the given sizes (cycled).
fn pieces<'a>(bytes: &'a [u8], cuts: &'a [usize]) -> impl Iterator<Item = &'a [u8]> {
    let mut rest = bytes;
    let mut sizes = cuts.iter().cycle();
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let (piece, tail) = rest.split_at((*sizes.next()?).min(rest.len()));
        rest = tail;
        Some(piece)
    })
}

/// Takes every complete frame out of `fb`.
fn take_frames(fb: &mut FrameBuf, got: &mut Vec<Vec<u8>>) -> io::Result<()> {
    while let Some((body, _)) = fb.next_frame()? {
        got.push(body.to_vec());
    }
    Ok(())
}

fn bad_prefix() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(MAX_PACKET_LEN + 1), Just(u32::MAX)]
}

proptest! {
    #[test]
    fn framebuf_fed_piece_by_piece_yields_the_same_frames(
        lens in proptest::collection::vec(body_len(), 1..10),
        cuts in proptest::collection::vec(1usize..2 * READ_CHUNK, 1..12),
        bad in proptest::option::of((0usize..16, bad_prefix())),
    ) {
        let (bytes, delivered) = wire(&lens, bad);
        let mut fb = FrameBuf::new(Vec::new());
        let mut got = Vec::new();
        let fed = (|| {
            for piece in pieces(&bytes, &cuts) {
                let mut fed = 0;
                while fed < piece.len() {
                    take_frames(&mut fb, &mut got)?;
                    fed += fb.fill(|space| {
                        let n = space.len().min(piece.len() - fed);
                        space[..n].copy_from_slice(&piece[fed..fed + n]);
                        Ok(n)
                    })?;
                }
            }
            take_frames(&mut fb, &mut got)
        })();
        prop_assert_eq!(got, delivered);
        prop_assert_eq!(
            fed.err().map(|e| e.kind()),
            bad.map(|_| io::ErrorKind::InvalidData)
        );
        if bad.is_none() {
            prop_assert!(fb.is_empty(), "bytes left over after the last frame");
        }
    }

    #[test]
    fn unix_transport_receives_the_same_frames_from_a_splitting_writer(
        lens in proptest::collection::vec(body_len(), 1..10),
        cuts in proptest::collection::vec(1usize..2 * READ_CHUNK, 1..12),
        bad in proptest::option::of((0usize..16, bad_prefix())),
    ) {
        let (bytes, delivered) = wire(&lens, bad);
        let (reader, mut writer) = UnixStream::pair().expect("socketpair");
        let reader = UnixTransport::from_stream(reader, "reader").expect("transport");
        let sender = std::thread::spawn(move || {
            for piece in pieces(&bytes, &cuts) {
                // The reader hangs up at a bad prefix; the rest is moot.
                if writer.write_all(piece).is_err() {
                    break;
                }
            }
        });
        let mut got = Vec::new();
        let mut buf = Vec::new();
        let end = loop {
            match reader.recv_frame_into(&mut buf) {
                Ok(n) => {
                    prop_assert_eq!(n, buf.len());
                    got.push(buf.clone());
                }
                Err(e) => break e.kind(),
            }
        };
        drop(reader);
        sender.join().expect("writer thread");
        prop_assert_eq!(got, delivered);
        let expected_end = if bad.is_some() {
            io::ErrorKind::InvalidData
        } else {
            io::ErrorKind::UnexpectedEof
        };
        prop_assert_eq!(end, expected_end);
    }

    /// The writer stops after every piece and the reader receives until
    /// it times out: with an already expired deadline (which may only
    /// hand out what is buffered) or a short real one (which reads, and
    /// may give up in the middle of a frame).
    #[test]
    fn a_bounded_receive_may_time_out_anywhere_and_stays_in_step(
        lens in proptest::collection::vec(body_len(), 1..6),
        cuts in proptest::collection::vec(1usize..2 * READ_CHUNK, 1..12),
        waits in proptest::collection::vec(prop_oneof![Just(0u64), 1u64..300], 1..8),
        bad in proptest::option::of((0usize..16, bad_prefix())),
    ) {
        let (bytes, delivered) = wire(&lens, bad);
        let (reader, mut writer) = UnixStream::pair().expect("socketpair");
        let reader = UnixTransport::from_stream(reader, "reader").expect("transport");
        let mut waits = waits.iter().cycle();
        let mut got = Vec::new();
        let mut buf = Vec::new();
        let mut end = None;
        // Receives until a deadline passes; `Some` is the stream's end.
        let mut receive = |wait: Duration, got: &mut Vec<Vec<u8>>| loop {
            match reader.recv_frame_until(&mut buf, Some(Instant::now() + wait)) {
                Ok(n) => {
                    assert_eq!(n, buf.len());
                    got.push(buf.clone());
                }
                Err(e) if e.kind() == io::ErrorKind::TimedOut => return None,
                Err(e) => return Some(e.kind()),
            }
        };
        for piece in pieces(&bytes, &cuts) {
            writer.write_all(piece).expect("the socket buffer holds a whole case");
            let wait = Duration::from_micros(*waits.next().expect("cycled"));
            end = receive(wait, &mut got);
            if end.is_some() {
                break;
            }
        }
        // Everything is written: what the timeouts left behind arrives
        // now, and then the end of the stream.
        drop(writer);
        let end = end.or_else(|| receive(Duration::from_secs(5), &mut got));
        prop_assert_eq!(got, delivered);
        let expected_end = if bad.is_some() {
            io::ErrorKind::InvalidData
        } else {
            io::ErrorKind::UnexpectedEof
        };
        prop_assert_eq!(end, Some(expected_end));
    }
}
