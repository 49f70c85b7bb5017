//! Length-prefixed binary framing and codec primitives.
//!
//! The wire format is hand-rolled: every frame is a little-endian `u32`
//! body length followed by the body, and bodies are built from the
//! fixed-width primitives here. [`FrameReader`] reassembles frames from
//! an arbitrary chunking of the byte stream — sockets deliver partial
//! reads — and rejects malformed lengths before buffering, so a corrupt
//! or hostile peer cannot make the reader allocate unboundedly.
//!
//! Everything in this module is pure state-machine code: no sockets, no
//! clocks, no threads. The round-trip proptests in
//! `tests/wire_roundtrip.rs` drive it over random values and random
//! chunkings.

use std::fmt;
use std::io;

/// Hard upper bound on a frame body, in bytes. Large enough for any
/// legitimate message (the biggest is a §5 WFGD edge set or a batched
/// `lock_all` script), small enough that a garbage length prefix is
/// rejected instead of honoured with a giant allocation.
pub const MAX_FRAME: u32 = 1 << 20;

/// Decoding/framing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The body ended before the value being decoded did.
    Truncated,
    /// The body had bytes left after the value was fully decoded.
    Trailing {
        /// How many undecoded bytes remained.
        extra: usize,
    },
    /// An enum discriminant byte had no meaning here.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A frame length prefix exceeded [`MAX_FRAME`].
    FrameTooBig {
        /// The claimed body length.
        len: u32,
    },
    /// A structurally valid but semantically illegal value (e.g. an empty
    /// `lock_all`, which the transaction builder would panic on).
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated body"),
            WireError::Trailing { extra } => write!(f, "{extra} trailing bytes after value"),
            WireError::BadTag { what, tag } => write!(f, "bad {what} tag {tag:#04x}"),
            WireError::FrameTooBig { len } => {
                write!(f, "frame length {len} exceeds max {MAX_FRAME}")
            }
            WireError::Invalid(why) => write!(f, "invalid value: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends `v` little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends one byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Borrowing cursor over a frame body.
#[derive(Debug)]
pub struct Dec<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `body`.
    pub fn new(body: &'a [u8]) -> Self {
        Dec { body, pos: 0 }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.body.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let end = self.pos.checked_add(4).ok_or(WireError::Truncated)?;
        let bytes = self.body.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let end = self.pos.checked_add(8).ok_or(WireError::Truncated)?;
        let bytes = self.body.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads a length-prefixed (`u32`) element count, bounded so a corrupt
    /// count cannot pre-reserve unbounded memory. The bound is the loose
    /// structural one: each element needs at least one body byte.
    pub fn count(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.body.len().saturating_sub(self.pos) {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// Asserts the body is fully consumed.
    pub fn done(&self) -> Result<(), WireError> {
        if self.pos == self.body.len() {
            Ok(())
        } else {
            Err(WireError::Trailing {
                extra: self.body.len() - self.pos,
            })
        }
    }
}

/// Appends one length-prefixed frame to `buf`, its body written in place
/// by `body`: the crate's one framing rule. Frames appended back to back
/// form a stream that [`FrameReader`] splits again, so a writer may batch
/// any number of them into one `write_all`.
pub(crate) fn put_frame_with(buf: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    put_u32(buf, 0);
    body(buf);
    let len = buf.len() - at - 4;
    assert!(len as u64 <= MAX_FRAME as u64, "oversized frame");
    buf[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Appends `body` to `buf` as one length-prefixed frame.
pub fn put_frame(buf: &mut Vec<u8>, body: &[u8]) {
    put_frame_with(buf, |buf| buf.extend_from_slice(body));
}

/// Wraps a body in a length-prefixed frame ready for one `write_all`.
pub fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body.len());
    put_frame(&mut out, body);
    out
}

/// Room [`FrameReader::fill`] offers each read, in bytes.
const READ_ROOM: usize = 16 * 1024;

/// Incremental frame reassembly from an arbitrarily chunked byte stream.
///
/// Feed bytes with [`push`](FrameReader::push), or let a read write them
/// in place with [`fill`](FrameReader::fill); borrow complete frame
/// bodies with [`next_frame`](FrameReader::next_frame). A length prefix
/// larger than [`MAX_FRAME`] fails immediately (before any body bytes
/// arrive), after which the reader is poisoned — a stream with a corrupt
/// length has lost framing for good, so the connection must be dropped.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Unread bytes are `buf[pos..end]`; `buf[end..]` is room to read into.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    poisoned: bool,
}

impl FrameReader {
    /// A reader with no buffered bytes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Appends what one `read` writes into the reader's own buffer:
    /// `read` gets at least 16 KiB of room and returns the byte count, as
    /// [`std::io::Read::read`] does (0 = end of stream).
    pub fn fill(&mut self, read: impl FnOnce(&mut [u8]) -> io::Result<usize>) -> io::Result<usize> {
        self.make_room(READ_ROOM);
        let n = read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Makes room for `more` bytes after the unread ones: slides those to
    /// the front, and grows the buffer only if that is not enough — so a
    /// long-lived connection's buffer stays one read plus one frame.
    fn make_room(&mut self, more: usize) {
        if self.buf.len() - self.end >= more {
            return;
        }
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        if self.buf.len() - self.end < more {
            self.buf.resize(self.end + more, 0);
        }
    }

    /// Borrows the next complete frame body, `Ok(None)` if more bytes are
    /// needed, or [`WireError::FrameTooBig`] on a malformed length prefix.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        if self.poisoned {
            return Err(WireError::FrameTooBig { len: 0 });
        }
        let unread = &self.buf[self.pos..self.end];
        let Some(len_bytes) = unread.get(..4) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes"));
        if len > MAX_FRAME {
            self.poisoned = true;
            return Err(WireError::FrameTooBig { len });
        }
        let Some(body) = unread.get(4..4 + len as usize) else {
            return Ok(None);
        };
        self.pos += 4 + body.len();
        Ok(Some(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_single_push() {
        let body = vec![1u8, 2, 3, 4, 5];
        let mut r = FrameReader::new();
        r.push(&frame(&body));
        assert_eq!(r.next_frame().unwrap(), Some(&body[..]));
        assert_eq!(r.next_frame().unwrap(), None);
    }

    #[test]
    fn frame_roundtrip_byte_at_a_time() {
        let bodies = [vec![], vec![9u8], vec![7u8; 300]];
        let mut stream = Vec::new();
        for b in &bodies {
            stream.extend_from_slice(&frame(b));
        }
        let mut r = FrameReader::new();
        let mut got = Vec::new();
        for &byte in &stream {
            r.push(&[byte]);
            while let Some(b) = r.next_frame().unwrap() {
                got.push(b.to_vec());
            }
        }
        assert_eq!(got, bodies);
    }

    #[test]
    fn oversized_length_is_rejected_then_poisons() {
        let mut r = FrameReader::new();
        r.push(&(MAX_FRAME + 1).to_le_bytes());
        assert_eq!(
            r.next_frame(),
            Err(WireError::FrameTooBig { len: MAX_FRAME + 1 })
        );
        r.push(&frame(&[1]));
        assert!(r.next_frame().is_err(), "poisoned reader must stay failed");
    }

    #[test]
    fn dec_truncation_and_trailing() {
        let mut body = Vec::new();
        put_u32(&mut body, 7);
        let mut d = Dec::new(&body);
        assert_eq!(d.u32().unwrap(), 7);
        assert_eq!(d.u64(), Err(WireError::Truncated));
        let mut d = Dec::new(&body);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.done(), Err(WireError::Trailing { extra: 3 }));
    }

    #[test]
    fn count_bounds_against_body_length() {
        let mut body = Vec::new();
        put_u32(&mut body, 1_000_000); // claims a million elements, has none
        let mut d = Dec::new(&body);
        assert_eq!(d.count(), Err(WireError::Truncated));
    }
}
