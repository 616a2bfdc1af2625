//! The one frame splitter: bytes in, whole frames out.
//!
//! Every message on the wire is a 4-byte big-endian length prefix and a
//! body (see [`crate::message`]). A [`FrameBuf`] holds the bytes a
//! stream has delivered but nobody has consumed yet — `[start, end)` of
//! its storage — and hands complete frames out of them, so one `read`
//! serves however many frames it happened to carry. Both sides of the
//! wire split frames here: the daemon's event loop feeds it from
//! nonblocking reads and takes frames in place ([`FrameBuf::fill`],
//! [`FrameBuf::next_frame`]); the socket transports keep one under their
//! read lock and copy frames out to the caller
//! ([`FrameBuf::read_frame_into`]).
//!
//! The prefix is input from outside the program: it is checked
//! ([`FrameBuf::head_len`]) before any buffer is sized from it, and the
//! storage grows past [`READ_CHUNK`] only to the exact size of a larger
//! frame whose (valid) prefix has arrived.

use std::borrow::BorrowMut;
use std::io::{self, Read};

use crate::message::MAX_PACKET_LEN;

/// Bytes asked of the stream per read, and the storage a buffer holds
/// while only small frames pass through it. Large enough for a pipelined
/// burst of control-plane calls, small enough to come out of (and go
/// back into) the buffer pool without being noticed.
pub const READ_CHUNK: usize = 4096;

/// Length of the big-endian length prefix.
const PREFIX: usize = 4;

/// Unconsumed stream bytes plus the frame-splitting logic over them.
///
/// Generic over the storage so the event loop can back it with a
/// [`crate::PooledBuf`] (returned to the pool when the `FrameBuf` is
/// dropped) while transports use a plain `Vec<u8>`. A new `FrameBuf`
/// allocates nothing until the first read.
#[derive(Debug)]
pub struct FrameBuf<B = Vec<u8>> {
    /// `storage.len()` is the usable size; only `[start, end)` is data.
    storage: B,
    start: usize,
    end: usize,
}

/// Parses and checks a length prefix.
fn checked_len(prefix: &[u8]) -> io::Result<usize> {
    let len = u32::from_be_bytes(prefix[..PREFIX].try_into().expect("4-byte prefix"));
    if len == 0 || len > MAX_PACKET_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside 1..={MAX_PACKET_LEN}"),
        ));
    }
    Ok(len as usize)
}

impl<B: BorrowMut<Vec<u8>>> FrameBuf<B> {
    /// An empty buffer over `storage` (whose contents are discarded).
    pub fn new(mut storage: B) -> Self {
        storage.borrow_mut().clear();
        FrameBuf {
            storage,
            start: 0,
            end: 0,
        }
    }

    fn bytes(&self) -> &Vec<u8> {
        self.storage.borrow()
    }

    fn bytes_mut(&mut self) -> &mut Vec<u8> {
        self.storage.borrow_mut()
    }

    /// Whether no unconsumed bytes are held.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether the last [`FrameBuf::fill`] used all the space it had —
    /// the stream may hold more. A fill that leaves room drained it.
    pub fn is_full(&self) -> bool {
        self.end == self.bytes().len()
    }

    fn buffered(&self) -> &[u8] {
        &self.bytes()[self.start..self.end]
    }

    /// Body length declared by the frame at the head of the buffer, or
    /// `None` while fewer than four bytes of it have arrived.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a declared length of zero or above
    /// [`MAX_PACKET_LEN`] — the peer is not speaking the protocol.
    fn head_len(&self) -> io::Result<Option<usize>> {
        let buffered = self.buffered();
        if buffered.len() < PREFIX {
            return Ok(None);
        }
        checked_len(buffered).map(Some)
    }

    /// Whether [`FrameBuf::next_frame`] has something to say: a complete
    /// frame is buffered, or a prefix that must be rejected.
    pub fn has_frame(&self) -> bool {
        match self.head_len() {
            Ok(Some(len)) => self.end - self.start >= PREFIX + len,
            Ok(None) => false,
            Err(_) => true,
        }
    }

    /// Takes the frame at the head of the buffer if it is complete: its
    /// body, in place, and whether more is ready behind it (as
    /// [`FrameBuf::has_frame`]).
    ///
    /// # Errors
    ///
    /// As [`FrameBuf::head_len`].
    pub fn next_frame(&mut self) -> io::Result<Option<(&[u8], bool)>> {
        let Some(len) = self.head_len()? else {
            return Ok(None);
        };
        let body = self.start + PREFIX..self.start + PREFIX + len;
        if body.end > self.end {
            return Ok(None);
        }
        self.start = body.end;
        let more = self.has_frame();
        Ok(Some((&self.bytes()[body], more)))
    }

    /// Makes room for the rest of the head frame (at least one chunk),
    /// moving the partial frame to the front when the tail is too short.
    /// Only ever called with no complete frame buffered, so the bytes
    /// moved are less than one frame.
    fn make_room(&mut self) -> io::Result<()> {
        if self.is_empty() {
            self.start = 0;
            self.end = 0;
        }
        let need = match self.head_len()? {
            Some(len) => (PREFIX + len).max(READ_CHUNK),
            None => READ_CHUNK,
        };
        if self.bytes().len() - self.start < need {
            let held = self.start..self.end;
            self.end -= self.start;
            self.start = 0;
            let storage = self.bytes_mut();
            storage.copy_within(held, 0);
            if storage.len() < need {
                storage.resize(need, 0);
            }
        }
        Ok(())
    }

    /// Reads once into the free space behind the buffered bytes and
    /// returns what `read` returned (0 is the stream's EOF).
    ///
    /// # Errors
    ///
    /// As [`FrameBuf::head_len`] (checked before any growth), and
    /// whatever `read` fails with — the buffered bytes stay intact.
    pub fn fill(&mut self, read: impl FnOnce(&mut [u8]) -> io::Result<usize>) -> io::Result<usize> {
        self.make_room()?;
        let end = self.end;
        let n = read(&mut self.bytes_mut()[end..])?;
        self.end += n;
        Ok(n)
    }

    /// Moves buffered bytes into `out` (the byte-level view of the same
    /// stream); returns how many.
    pub(crate) fn take_bytes(&mut self, out: &mut [u8]) -> usize {
        let n = out.len().min(self.end - self.start);
        out[..n].copy_from_slice(&self.bytes()[self.start..self.start + n]);
        self.start += n;
        n
    }

    /// Blocking receive of one frame body into `out` (cleared first),
    /// serving it from the buffered bytes when it is already there and
    /// reading from `stream` otherwise. Returns the body length.
    ///
    /// A frame that fits a chunk is completed in the buffer — whatever
    /// else the read carried stays for the next call. A larger frame
    /// moves what has arrived into `out` and reads the rest straight
    /// there. Either way an error (a read timeout, say) leaves the
    /// partial frame buffered: the next call resumes it instead of
    /// parsing body bytes as a prefix.
    ///
    /// # Errors
    ///
    /// As [`FrameBuf::head_len`]; `UnexpectedEof` when the stream ends;
    /// other I/O errors as raised.
    pub(crate) fn read_frame_into(
        &mut self,
        stream: &mut impl Read,
        out: &mut Vec<u8>,
    ) -> io::Result<usize> {
        loop {
            if let Some(len) = self.head_len()? {
                if let Some((body, _)) = self.next_frame()? {
                    out.clear();
                    out.extend_from_slice(body);
                    return Ok(len);
                }
                if PREFIX + len > READ_CHUNK {
                    return self.read_large_into(stream, len, out);
                }
            }
            match self.fill(|space| stream.read(space)) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The head frame is larger than a chunk and incomplete, so every
    /// buffered byte behind its prefix belongs to it.
    fn read_large_into(
        &mut self,
        stream: &mut impl Read,
        len: usize,
        out: &mut Vec<u8>,
    ) -> io::Result<usize> {
        let arrived = self.end - self.start - PREFIX;
        out.clear();
        out.resize(len, 0);
        out[..arrived].copy_from_slice(&self.buffered()[PREFIX..]);
        let mut filled = arrived;
        while filled < len {
            let failed = match stream.read(&mut out[filled..]) {
                Ok(0) => io::ErrorKind::UnexpectedEof.into(),
                Ok(n) => {
                    filled += n;
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => e,
            };
            // Take the partial body back so the stream stays in step.
            let storage = self.bytes_mut();
            storage.clear();
            storage.extend_from_slice(&(len as u32).to_be_bytes());
            storage.extend_from_slice(&out[..filled]);
            self.start = 0;
            self.end = PREFIX + filled;
            out.clear();
            return Err(failed);
        }
        self.start = 0;
        self.end = 0;
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(bodies: &[&[u8]]) -> Vec<u8> {
        let mut wire = Vec::new();
        for body in bodies {
            wire.extend_from_slice(&(body.len() as u32).to_be_bytes());
            wire.extend_from_slice(body);
        }
        wire
    }

    /// Feeds `wire` in `step`-byte reads, collecting every frame.
    fn split(wire: &[u8], step: usize) -> io::Result<Vec<Vec<u8>>> {
        let mut fb = FrameBuf::new(Vec::new());
        let mut frames = Vec::new();
        let mut fed = 0;
        loop {
            while let Some((body, _)) = fb.next_frame()? {
                frames.push(body.to_vec());
            }
            if fed == wire.len() {
                return Ok(frames);
            }
            fed += fb.fill(|space| {
                let n = step.min(space.len()).min(wire.len() - fed);
                space[..n].copy_from_slice(&wire[fed..fed + n]);
                Ok(n)
            })?;
        }
    }

    #[test]
    fn one_read_serves_many_frames_and_reports_what_follows() {
        let wire = framed(&[b"first", b"second", b"third"]);
        let mut fb = FrameBuf::new(Vec::new());
        fb.fill(|space| {
            space[..wire.len()].copy_from_slice(&wire);
            Ok(wire.len())
        })
        .unwrap();
        assert!(!fb.is_full(), "a short read leaves room");
        assert_eq!(fb.next_frame().unwrap(), Some((&b"first"[..], true)));
        assert_eq!(fb.next_frame().unwrap(), Some((&b"second"[..], true)));
        assert_eq!(fb.next_frame().unwrap(), Some((&b"third"[..], false)));
        assert_eq!(fb.next_frame().unwrap(), None);
        assert!(fb.is_empty());
    }

    #[test]
    fn frames_survive_any_split() {
        let big = vec![7u8; 3 * READ_CHUNK];
        let edge = vec![9u8; READ_CHUNK - 4];
        let wire = framed(&[b"a", &big, &edge, b"tail"]);
        for step in [1, 3, 4, 5, 1000, READ_CHUNK, usize::MAX] {
            let frames = split(&wire, step).unwrap();
            assert_eq!(frames.len(), 4, "step {step}");
            assert_eq!(frames[0], b"a");
            assert_eq!(frames[1], big);
            assert_eq!(frames[2], edge);
            assert_eq!(frames[3], b"tail");
        }
    }

    #[test]
    fn storage_grows_only_for_a_larger_frame_and_only_to_its_size() {
        let mut fb = FrameBuf::new(Vec::new());
        assert_eq!(fb.bytes().capacity(), 0, "nothing allocated before a read");
        let len = 3 * READ_CHUNK;
        let prefix = (len as u32).to_be_bytes();
        fb.fill(|space| {
            assert_eq!(space.len(), READ_CHUNK);
            space[..4].copy_from_slice(&prefix);
            Ok(4)
        })
        .unwrap();
        fb.fill(|space| {
            assert_eq!(space.len(), len, "room for exactly the rest of the frame");
            Ok(1)
        })
        .unwrap();
    }

    #[test]
    fn zero_and_oversized_prefixes_are_rejected_before_sizing() {
        for bad in [0u32, MAX_PACKET_LEN + 1, u32::MAX] {
            let mut wire = framed(&[b"good"]);
            wire.extend_from_slice(&bad.to_be_bytes());
            wire.extend_from_slice(b"never delivered");
            let mut fb = FrameBuf::new(Vec::new());
            fb.fill(|space| {
                space[..wire.len()].copy_from_slice(&wire);
                Ok(wire.len())
            })
            .unwrap();
            assert_eq!(fb.next_frame().unwrap(), Some((&b"good"[..], true)));
            let err = fb.next_frame().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let sized = fb.bytes().len();
            assert!(fb.fill(|_| Ok(0)).is_err(), "no read past a bad prefix");
            assert_eq!(fb.bytes().len(), sized, "nothing sized from a bad prefix");
        }
    }

    #[test]
    fn take_bytes_hands_back_what_a_framed_read_pulled_in() {
        let mut fb = FrameBuf::new(Vec::new());
        fb.fill(|space| {
            space[..6].copy_from_slice(b"abcdef");
            Ok(6)
        })
        .unwrap();
        let mut out = [0u8; 4];
        assert_eq!(fb.take_bytes(&mut out), 4);
        assert_eq!(&out, b"abcd");
        assert_eq!(fb.take_bytes(&mut out), 2);
        assert_eq!(&out[..2], b"ef");
        assert!(fb.is_empty());
    }
}
