//! Durable server state: the `FPCK` checkpoint format a standalone
//! federation server writes at every round boundary so a killed process
//! can resume with byte-identical subsequent rounds.
//!
//! A checkpoint captures everything the round engine's protocol state
//! machine needs to continue — round counters, the global model θ, the
//! reference window top-k uploads reconstruct against, each client
//! slot's last installed round, and an opaque optimizer blob (the commit
//! stage's momentum/Adam moments, encoded by the layer that owns those
//! types). It deliberately excludes the open round: checkpoints are
//! written only *between* rounds, so an interrupted round is simply
//! replayed from its start, which deterministic clients make
//! byte-identical.
//!
//! ## Layout
//!
//! Hand-rolled little-endian, like every frame in this crate:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"FPCK"
//!      4     2  version (1)
//!      6     2  reserved (0)
//!      8     8  rounds_run
//!     16     8  rounds_committed
//!     24     4  global parameter count n, then 4·n bytes of f32
//!      …     4  reference entry count, then per entry:
//!               8 round + 4 count m + 4·m bytes of f32
//!      …     4  client slot count, then 8 bytes per slot
//!               (u64::MAX encodes "never joined")
//!      …     4  optimizer blob length, then the blob
//!    end     4  CRC32 (IEEE) over everything before
//! ```
//!
//! [`Checkpoint::save`] writes atomically (temp file + rename) so a
//! process killed mid-write leaves the previous checkpoint intact. It
//! does not sync, so a power loss can still lose the latest checkpoint.
//! A torn or tampered file fails [`Checkpoint::decode`]'s CRC before any
//! field is trusted.

use crate::{crc32, encode_params, WireError};
use std::io;
use std::path::Path;

/// The four magic bytes opening a checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"FPCK";

/// The checkpoint format version this crate reads and writes.
pub const CHECKPOINT_VERSION: u16 = 1;

/// The sentinel encoding a never-joined client slot.
const NO_REF: u64 = u64::MAX;

/// A federation server's durable state between rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Rounds fully executed (committed or quorum-skipped).
    pub rounds_run: u64,
    /// Rounds that actually committed an aggregate.
    pub rounds_committed: u64,
    /// The global model θ after `rounds_run` rounds.
    pub global: Vec<f32>,
    /// The reference window: recently broadcast globals keyed by round,
    /// oldest first.
    pub reference: Vec<(u64, Vec<f32>)>,
    /// Per client slot: the round of the last global it installed
    /// (`None` = never joined, or departed).
    pub client_refs: Vec<Option<u64>>,
    /// The commit stage's internal state (momentum velocity, Adam
    /// moments…), encoded by the layer that owns those types.
    pub optimizer: Vec<u8>,
}

impl Checkpoint {
    /// Serializes the checkpoint to its on-disk byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&self.rounds_run.to_le_bytes());
        out.extend_from_slice(&self.rounds_committed.to_le_bytes());
        encode_params(&self.global, &mut out);
        out.extend_from_slice(&(self.reference.len() as u32).to_le_bytes());
        for (round, params) in &self.reference {
            out.extend_from_slice(&round.to_le_bytes());
            encode_params(params, &mut out);
        }
        out.extend_from_slice(&(self.client_refs.len() as u32).to_le_bytes());
        for r in &self.client_refs {
            out.extend_from_slice(&r.unwrap_or(NO_REF).to_le_bytes());
        }
        out.extend_from_slice(&(self.optimizer.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.optimizer);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a checkpoint produced by [`Checkpoint::encode`].
    ///
    /// # Errors
    ///
    /// A [`WireError`] on truncation, bad magic, an unknown version, a
    /// length field disagreeing with the bytes present, or a CRC
    /// mismatch — a torn write or a flipped bit anywhere is rejected
    /// before any field is trusted.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() < 4 {
            return Err(WireError::Truncated {
                expected: 4,
                actual: bytes.len(),
            });
        }
        let body_end = bytes.len() - 4;
        let expected = crc32(&bytes[..body_end]);
        let actual = u32::from_le_bytes(bytes[body_end..].try_into().expect("4 bytes"));
        if expected != actual {
            return Err(WireError::CrcMismatch { expected, actual });
        }
        let mut cur = Cursor::new(&bytes[..body_end]);
        let magic: [u8; 4] = cur.take(4)?.try_into().expect("4 bytes");
        if magic != CHECKPOINT_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = cur.u16()?;
        if version != CHECKPOINT_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        cur.u16()?; // reserved
        let rounds_run = cur.u64()?;
        let rounds_committed = cur.u64()?;
        let global = cur.params()?;
        let ref_count = cur.u32()? as usize;
        let mut reference = Vec::with_capacity(ref_count.min(1024));
        for _ in 0..ref_count {
            let round = cur.u64()?;
            let params = cur.params()?;
            reference.push((round, params));
        }
        let slot_count = cur.u32()? as usize;
        let mut client_refs = Vec::with_capacity(slot_count.min(1 << 20));
        for _ in 0..slot_count {
            let r = cur.u64()?;
            client_refs.push((r != NO_REF).then_some(r));
        }
        let blob_len = cur.u32()? as usize;
        let optimizer = cur.take(blob_len)?.to_vec();
        if !cur.is_empty() {
            return Err(WireError::LengthMismatch {
                declared: body_end,
                actual: body_end - cur.remaining(),
            });
        }
        Ok(Checkpoint {
            rounds_run,
            rounds_committed,
            global,
            reference,
            client_refs,
            optimizer,
        })
    }

    /// Writes the checkpoint to `path` atomically: the bytes land in a
    /// sibling temp file first and are renamed over the target, so a
    /// process killed mid-write (SIGKILL included) leaves any previous
    /// checkpoint intact. Nothing is synced to disk, so a power loss can
    /// still lose the latest checkpoint or leave it empty.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating, writing, or renaming the file.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("fpck.tmp");
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, path)
    }

    /// Reads and decodes the checkpoint at `path`.
    ///
    /// # Errors
    ///
    /// I/O failures reading the file; decode failures surface as
    /// [`io::ErrorKind::InvalidData`] wrapping the [`WireError`].
    pub fn load(path: &Path) -> io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Checkpoint::decode(&bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// A bounds-checked little-endian reader over the checkpoint body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                expected: n,
                actual: self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn params(&mut self) -> Result<Vec<f32>, WireError> {
        let count = self.u32()? as usize;
        let body = self.take(4 * count)?;
        Ok(body
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            rounds_run: 7,
            rounds_committed: 6,
            global: vec![1.5, -0.25, f32::MIN_POSITIVE, 0.0],
            reference: vec![(6, vec![0.9; 4]), (7, vec![1.5, -0.25, 0.0, 0.0])],
            client_refs: vec![Some(7), None, Some(3)],
            optimizer: vec![0xDE, 0xAD, 0xBE, 0xEF],
        }
    }

    #[test]
    fn checkpoint_round_trips_bitwise() {
        let ck = sample();
        let back = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(back, ck);
        for (a, b) in ck.global.iter().zip(&back.global) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_sections_are_legal() {
        let ck = Checkpoint {
            rounds_run: 0,
            rounds_committed: 0,
            global: vec![0.0],
            reference: vec![],
            client_refs: vec![],
            optimizer: vec![],
        };
        assert_eq!(Checkpoint::decode(&ck.encode()).unwrap(), ck);
    }

    #[test]
    fn any_corrupted_byte_is_rejected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                Checkpoint::decode(&bad).is_err(),
                "flip at byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample().encode();
        for cut in [0, 3, 8, bytes.len() - 1] {
            assert!(Checkpoint::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        // Extra bytes spliced before a re-sealed CRC must not decode.
        let ck = sample();
        let mut bytes = ck.encode();
        let body_end = bytes.len() - 4;
        bytes.truncate(body_end);
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        let crc = crc32(&bytes).to_le_bytes();
        bytes.extend_from_slice(&crc);
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(WireError::LengthMismatch { .. }) | Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn save_and_load_round_trip_atomically() {
        let dir = std::env::temp_dir().join(format!("fpck-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("server.fpck");
        let ck = sample();
        ck.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        // Overwrite with new state: the rename replaces the old file.
        let mut next = ck.clone();
        next.rounds_run = 8;
        next.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap().rounds_run, 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_of_a_torn_file_is_invalid_data() {
        let dir = std::env::temp_dir().join(format!("fpck-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.fpck");
        let bytes = sample().encode();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }
}
