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

/// Appends `body` to `buf` as one length-prefixed frame: the crate's one
/// framing rule. Frames appended back to back form a stream that
/// [`FrameReader`] splits again, so a writer may batch any number of
/// them into one `write_all`.
pub fn put_frame(buf: &mut Vec<u8>, body: &[u8]) {
    assert!(body.len() as u64 <= MAX_FRAME as u64, "oversized frame");
    put_u32(buf, body.len() as u32);
    buf.extend_from_slice(body);
}

/// Wraps a body in a length-prefixed frame ready for one `write_all`.
pub fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body.len());
    put_frame(&mut out, body);
    out
}

/// Incremental frame reassembly from an arbitrarily chunked byte stream.
///
/// Feed bytes with [`push`](FrameReader::push); pull complete frame bodies
/// with [`next`](FrameReader::next). A length prefix larger than
/// [`MAX_FRAME`] fails immediately (before any body bytes arrive), after
/// which the reader is poisoned — a stream with a corrupt length has lost
/// framing for good, so the connection must be dropped.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
    poisoned: bool,
}

impl FrameReader {
    /// A reader with no buffered bytes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame body, `Ok(None)` if more bytes are
    /// needed, or [`WireError::FrameTooBig`] on a malformed length prefix.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        if self.poisoned {
            return Err(WireError::FrameTooBig { len: 0 });
        }
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            self.compact();
            return Ok(None);
        }
        let len_bytes: [u8; 4] = self.buf[self.pos..self.pos + 4]
            .try_into()
            .expect("4 bytes");
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_FRAME {
            self.poisoned = true;
            return Err(WireError::FrameTooBig { len });
        }
        if avail < 4 + len as usize {
            self.compact();
            return Ok(None);
        }
        let start = self.pos + 4;
        let body = self.buf[start..start + len as usize].to_vec();
        self.pos = start + len as usize;
        Ok(Some(body))
    }

    /// Drops the consumed prefix once it dominates the buffer, so a
    /// long-lived connection does not grow its buffer monotonically.
    fn compact(&mut self) {
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
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
        assert_eq!(r.next_frame().unwrap(), Some(body));
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
                got.push(b);
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
