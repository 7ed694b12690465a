//! Byte-stream framing: the `u32` little-endian length prefix every
//! socket transport in this workspace puts in front of an encoded
//! [`Envelope`](crate::Envelope) frame, and the [`FrameReassembler`]
//! that recovers whole frames from arbitrarily fragmented reads.
//!
//! TCP delivers a byte stream, not frames: one `read` may return half a
//! length prefix, three frames and a tail, or a single byte. A correct
//! receiver therefore keeps whatever partial progress each read made and
//! only surfaces complete frames. The reassembler owns exactly that
//! buffer — feed it every chunk the socket yields ([`FrameReassembler::extend`])
//! and drain complete frames ([`FrameReassembler::next_frame`]); a read
//! timeout between the two leaves the partial frame intact instead of
//! desynchronizing the stream. [`read_frame`] runs that loop over a
//! blocking reader.

use crate::{WireError, FRAME_OVERHEAD, MAX_PAYLOAD_LEN};
use std::io::{self, ErrorKind, Read};

/// Size of the stream length prefix preceding each frame.
pub const LENGTH_PREFIX_LEN: usize = 4;

/// Largest frame a reassembler accepts: the protocol's payload bound
/// plus framing overhead. A prefix declaring more is a desynchronized or
/// hostile peer, rejected as [`WireError::FrameTooLarge`].
pub const MAX_STREAM_FRAME_LEN: usize = MAX_PAYLOAD_LEN + FRAME_OVERHEAD;

/// Prepends the `u32` little-endian length prefix to `frame`, producing
/// the bytes a stream transport writes.
pub fn prefix_frame(frame: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(LENGTH_PREFIX_LEN + frame.len());
    out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    out.extend_from_slice(frame);
    out
}

/// Reassembles length-prefixed frames from a fragmented byte stream.
///
/// One reassembler per stream direction, living as long as the
/// connection: partial frames survive across reads (and read timeouts),
/// so a slow peer delays its frame instead of corrupting the stream.
#[derive(Debug, Default, Clone)]
pub struct FrameReassembler {
    buf: Vec<u8>,
}

impl FrameReassembler {
    /// An empty reassembler.
    pub fn new() -> Self {
        FrameReassembler::default()
    }

    /// Appends the bytes one stream read yielded.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet surfaced as a frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Surfaces the next complete frame (without its length prefix), or
    /// `None` when the buffer holds only a partial frame.
    ///
    /// # Errors
    ///
    /// [`WireError::FrameTooLarge`] when the next length prefix declares
    /// a frame beyond [`MAX_STREAM_FRAME_LEN`] — the stream is
    /// unrecoverable past this point and should be closed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        if self.buf.len() < LENGTH_PREFIX_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes(
            self.buf[..LENGTH_PREFIX_LEN]
                .try_into()
                .expect("4 bytes checked above"),
        ) as usize;
        if len > MAX_STREAM_FRAME_LEN {
            return Err(WireError::FrameTooLarge {
                declared: len,
                max: MAX_STREAM_FRAME_LEN,
            });
        }
        if self.buf.len() < LENGTH_PREFIX_LEN + len {
            return Ok(None);
        }
        let frame = self.buf[LENGTH_PREFIX_LEN..LENGTH_PREFIX_LEN + len].to_vec();
        self.buf.drain(..LENGTH_PREFIX_LEN + len);
        Ok(Some(frame))
    }
}

/// Reads from `reader` until `reasm` surfaces one whole frame. A read
/// error or timeout mid-frame leaves the partial bytes buffered in
/// `reasm`, so the next call resumes where this one stopped and the
/// stream never desynchronizes.
///
/// # Errors
///
/// The reader's own error; [`ErrorKind::UnexpectedEof`] when the peer
/// closes the stream; [`ErrorKind::InvalidData`] when a length prefix is
/// oversized ([`FrameReassembler::next_frame`]).
pub fn read_frame(reader: &mut impl Read, reasm: &mut FrameReassembler) -> io::Result<Vec<u8>> {
    loop {
        if let Some(frame) = reasm
            .next_frame()
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?
        {
            return Ok(frame);
        }
        let mut chunk = [0u8; 64 * 1024];
        let n = reader.read(&mut chunk)?;
        if n == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        reasm.extend(&chunk[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_frames_pass_through() {
        let mut r = FrameReassembler::new();
        r.extend(&prefix_frame(b"hello"));
        assert_eq!(r.next_frame().unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(r.next_frame().unwrap(), None);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn byte_by_byte_fragmentation_reassembles() {
        let mut r = FrameReassembler::new();
        let wire = prefix_frame(&[7u8; 33]);
        for (i, b) in wire.iter().enumerate() {
            assert_eq!(r.next_frame().unwrap(), None, "premature frame at byte {i}");
            r.extend(std::slice::from_ref(b));
        }
        assert_eq!(r.next_frame().unwrap(), Some(vec![7u8; 33]));
    }

    #[test]
    fn coalesced_frames_split_correctly() {
        // One read returning two frames and the first half of a third.
        let mut r = FrameReassembler::new();
        let mut wire = prefix_frame(b"one");
        wire.extend_from_slice(&prefix_frame(b"two"));
        let third = prefix_frame(b"three");
        wire.extend_from_slice(&third[..4]);
        r.extend(&wire);
        assert_eq!(r.next_frame().unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(r.next_frame().unwrap().as_deref(), Some(&b"two"[..]));
        assert_eq!(r.next_frame().unwrap(), None, "third frame is partial");
        r.extend(&third[4..]);
        assert_eq!(r.next_frame().unwrap().as_deref(), Some(&b"three"[..]));
    }

    #[test]
    fn empty_frames_are_legal() {
        let mut r = FrameReassembler::new();
        r.extend(&prefix_frame(b""));
        assert_eq!(r.next_frame().unwrap(), Some(Vec::new()));
    }

    #[test]
    fn oversized_prefix_is_rejected() {
        let mut r = FrameReassembler::new();
        r.extend(&(MAX_STREAM_FRAME_LEN as u32 + 1).to_le_bytes());
        assert!(matches!(
            r.next_frame(),
            Err(WireError::FrameTooLarge { .. })
        ));
    }
}
