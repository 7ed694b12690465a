//! # fedpower-wire
//!
//! The versioned binary wire protocol carrying every server↔device model
//! exchange of the federation. The paper treats the transfer as a real
//! network operation (§IV-C measures 2.8 kB per model), so the
//! reproduction frames model payloads the way a deployment would: an
//! [`Envelope`] with a magic number, protocol version, message kind,
//! round/identity addressing, an explicit payload length, and a CRC32
//! trailer that rejects any in-flight corruption.
//!
//! Everything is hand-rolled little-endian encode/decode — the hot path
//! carries no serde (or any other) dependency, and the crate itself is
//! dependency-free so both the agent crate (which reports per-upload
//! sizes) and the federated crate (which moves the bytes) can share it
//! without a dependency cycle.
//!
//! ## Frame layout
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"FPWR"
//!      4     2  version (little-endian u16; 1, or 2 for codec uploads)
//!      6     1  message kind (0 upload, 1 broadcast, 2 join-ack,
//!               3 codec upload — version ≥ 2 only, 4 join-request)
//!      7     1  reserved (0)
//!      8     8  round (little-endian u64)
//!     16     8  client id (little-endian u64)
//!     24     4  payload length n (little-endian u32)
//!     28     n  payload (kind-specific, see [`Payload`])
//! 28 + n     4  CRC32 (IEEE) over bytes [0, 28 + n)
//! ```
//!
//! [`Envelope::decode`] fails with a typed [`WireError`] on truncation,
//! bad magic, unsupported version, unknown kind, length inconsistency, or
//! CRC mismatch — a single flipped bit anywhere in a frame is rejected.
//!
//! ## Codecs
//!
//! Protocol version 2 adds one message kind, [`MsgKind::CodecUpload`]:
//! a model upload compressed by a [`Codec`] — 8/16-bit linear
//! quantization ([`CodedUpdate::Q8`]/[`CodedUpdate::Q16`], per-tensor
//! scale + zero-point) or a top-k sparse delta against a previously
//! broadcast global model ([`CodedUpdate::TopK`]). Dense uploads,
//! broadcasts, and join-acks still encode as version-1 frames, byte for
//! byte, so a [`Codec::Dense32`] federation is bit-identical to the
//! pre-codec protocol. A version-1 decoder — [`Envelope::decode_at_most`]
//! with `max_version = 1` — rejects every codec frame with
//! [`WireError::UnsupportedVersion`] before touching the payload, which
//! is how a v1 server negotiates: the frame is counted as a rejected
//! update, never misparsed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod stream;

use std::error::Error;
use std::fmt;

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"FPWR";

/// The protocol version dense frames encode as (and the highest version
/// a pre-codec decoder accepts).
pub const VERSION: u16 = 1;

/// The protocol version introducing [`MsgKind::CodecUpload`] frames —
/// the highest version this crate encodes and accepts.
pub const CODEC_VERSION: u16 = 2;

/// Fixed header size in bytes (everything before the payload).
pub const HEADER_LEN: usize = 28;

/// Total framing overhead in bytes: header plus CRC32 trailer.
pub const FRAME_OVERHEAD: usize = HEADER_LEN + 4;

/// Largest payload a decoder will accept (a defensive bound far above any
/// real model in this workspace).
pub const MAX_PAYLOAD_LEN: usize = 64 * 1024 * 1024;

/// The kind of message a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// A client's locally optimized model, uploaded to the server.
    ModelUpload,
    /// The server's new global model, broadcast to one client.
    Broadcast,
    /// The server's reply when a client joins: its admission plus the
    /// initial global model θ₁.
    JoinAck,
    /// A client's model upload compressed by a non-dense [`Codec`].
    /// Requires protocol version ≥ [`CODEC_VERSION`].
    CodecUpload,
    /// A client's request to join (or rejoin) the federation; the server
    /// answers with a [`MsgKind::JoinAck`] carrying the current global.
    JoinRequest,
}

impl MsgKind {
    fn code(self) -> u8 {
        match self {
            MsgKind::ModelUpload => 0,
            MsgKind::Broadcast => 1,
            MsgKind::JoinAck => 2,
            MsgKind::CodecUpload => 3,
            MsgKind::JoinRequest => 4,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(MsgKind::ModelUpload),
            1 => Some(MsgKind::Broadcast),
            2 => Some(MsgKind::JoinAck),
            3 => Some(MsgKind::CodecUpload),
            4 => Some(MsgKind::JoinRequest),
            _ => None,
        }
    }

    /// The lowest protocol version that may carry this kind. Frames
    /// declaring an older version with this kind byte are rejected as
    /// [`WireError::UnsupportedVersion`].
    pub fn min_version(self) -> u16 {
        match self {
            MsgKind::CodecUpload => CODEC_VERSION,
            _ => VERSION,
        }
    }
}

/// A decoded, kind-specific frame body.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Client → server: the locally trained parameters plus the number of
    /// environment samples behind them (used by sample-weighted
    /// aggregation).
    ModelUpload {
        /// Environment samples collected this round.
        num_samples: u64,
        /// Flat model parameters θ_r^n.
        params: Vec<f32>,
    },
    /// Server → client: the new global parameters.
    Broadcast {
        /// Flat global parameters θ_{r+1}.
        params: Vec<f32>,
    },
    /// Server → client at federation construction: the initial global
    /// model.
    JoinAck {
        /// Flat initial parameters θ₁.
        params: Vec<f32>,
    },
    /// Client → server: a codec-compressed model upload (protocol
    /// version 2).
    CodecUpload {
        /// Environment samples collected this round.
        num_samples: u64,
        /// The compressed update body.
        update: CodedUpdate,
    },
    /// Client → server: a request to join the federation (empty body —
    /// the addressing header carries everything).
    JoinRequest,
}

impl Payload {
    /// The message kind this payload encodes as.
    pub fn kind(&self) -> MsgKind {
        match self {
            Payload::ModelUpload { .. } => MsgKind::ModelUpload,
            Payload::Broadcast { .. } => MsgKind::Broadcast,
            Payload::JoinAck { .. } => MsgKind::JoinAck,
            Payload::CodecUpload { .. } => MsgKind::CodecUpload,
            Payload::JoinRequest => MsgKind::JoinRequest,
        }
    }

    /// The carried dense parameter vector. Codec uploads carry no dense
    /// parameters (they must be reconstructed via
    /// [`CodedUpdate::reconstruct_into`]) and return an empty slice.
    pub fn params(&self) -> &[f32] {
        match self {
            Payload::ModelUpload { params, .. }
            | Payload::Broadcast { params }
            | Payload::JoinAck { params } => params,
            Payload::CodecUpload { .. } | Payload::JoinRequest => &[],
        }
    }

    /// Encoded payload size in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            Payload::ModelUpload { params, .. } => 12 + 4 * params.len(),
            Payload::Broadcast { params } | Payload::JoinAck { params } => 4 + 4 * params.len(),
            Payload::CodecUpload { update, .. } => 9 + update.encoded_len(),
            Payload::JoinRequest => 0,
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Payload::ModelUpload {
                num_samples,
                params,
            } => {
                out.extend_from_slice(&num_samples.to_le_bytes());
                encode_params(params, out);
            }
            Payload::Broadcast { params } | Payload::JoinAck { params } => {
                encode_params(params, out);
            }
            Payload::CodecUpload {
                num_samples,
                update,
            } => {
                out.extend_from_slice(&num_samples.to_le_bytes());
                out.push(update.tag());
                update.encode_into(out);
            }
            Payload::JoinRequest => {}
        }
    }

    fn decode(kind: MsgKind, bytes: &[u8]) -> Result<Self, WireError> {
        match kind {
            MsgKind::ModelUpload => {
                if bytes.len() < 8 {
                    return Err(WireError::Truncated {
                        expected: 8,
                        actual: bytes.len(),
                    });
                }
                let num_samples = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
                let params = decode_params(&bytes[8..])?;
                Ok(Payload::ModelUpload {
                    num_samples,
                    params,
                })
            }
            MsgKind::Broadcast => Ok(Payload::Broadcast {
                params: decode_params(bytes)?,
            }),
            MsgKind::JoinAck => Ok(Payload::JoinAck {
                params: decode_params(bytes)?,
            }),
            MsgKind::CodecUpload => {
                if bytes.len() < 9 {
                    return Err(WireError::Truncated {
                        expected: 9,
                        actual: bytes.len(),
                    });
                }
                let num_samples = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
                let update = CodedUpdate::decode(bytes[8], &bytes[9..])?;
                Ok(Payload::CodecUpload {
                    num_samples,
                    update,
                })
            }
            MsgKind::JoinRequest => {
                if !bytes.is_empty() {
                    return Err(WireError::LengthMismatch {
                        declared: 0,
                        actual: bytes.len(),
                    });
                }
                Ok(Payload::JoinRequest)
            }
        }
    }
}

/// One framed message: addressing plus a typed [`Payload`].
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The federated round the message belongs to (0 for join handshakes).
    pub round: u64,
    /// The client the message is from (uploads) or to (broadcasts).
    pub client_id: u64,
    /// The message body.
    pub payload: Payload,
}

impl Envelope {
    /// A client's model upload for `round`.
    pub fn model_upload(round: u64, client_id: u64, num_samples: u64, params: Vec<f32>) -> Self {
        Envelope {
            round,
            client_id,
            payload: Payload::ModelUpload {
                num_samples,
                params,
            },
        }
    }

    /// The server's broadcast of the new global model to `client_id`.
    pub fn broadcast(round: u64, client_id: u64, params: Vec<f32>) -> Self {
        Envelope {
            round,
            client_id,
            payload: Payload::Broadcast { params },
        }
    }

    /// The server's join acknowledgement carrying the initial model.
    pub fn join_ack(client_id: u64, params: Vec<f32>) -> Self {
        Envelope::join_ack_at(0, client_id, params)
    }

    /// A join acknowledgement issued mid-experiment: `round` is the last
    /// completed round, so a rejoining client knows which global it now
    /// holds (its top-k reference). [`Envelope::join_ack`] is the
    /// construction-time special case `round = 0`.
    pub fn join_ack_at(round: u64, client_id: u64, params: Vec<f32>) -> Self {
        Envelope {
            round,
            client_id,
            payload: Payload::JoinAck { params },
        }
    }

    /// A client's request to join (or rejoin) the federation.
    pub fn join_request(client_id: u64) -> Self {
        Envelope {
            round: 0,
            client_id,
            payload: Payload::JoinRequest,
        }
    }

    /// A client's codec-compressed model upload for `round` (a
    /// version-2 frame).
    pub fn codec_upload(round: u64, client_id: u64, num_samples: u64, update: CodedUpdate) -> Self {
        Envelope {
            round,
            client_id,
            payload: Payload::CodecUpload {
                num_samples,
                update,
            },
        }
    }

    /// The message kind.
    pub fn kind(&self) -> MsgKind {
        self.payload.kind()
    }

    /// Total encoded frame size in bytes.
    pub fn encoded_len(&self) -> usize {
        FRAME_OVERHEAD + self.payload.encoded_len()
    }

    /// The protocol version this envelope encodes as: [`VERSION`] for
    /// the dense kinds (byte-identical to the pre-codec wire),
    /// [`CODEC_VERSION`] for codec uploads.
    pub fn wire_version(&self) -> u16 {
        self.kind().min_version()
    }

    /// Encodes the envelope into a self-delimiting byte frame.
    pub fn encode(&self) -> Vec<u8> {
        let payload_len = self.payload.encoded_len();
        let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload_len);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.wire_version().to_le_bytes());
        out.push(self.kind().code());
        out.push(0); // reserved
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&self.client_id.to_le_bytes());
        out.extend_from_slice(&(payload_len as u32).to_le_bytes());
        self.payload.encode_into(&mut out);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a frame produced by [`Envelope::encode`], accepting every
    /// protocol version up to [`CODEC_VERSION`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] describing the first framing violation
    /// found: truncation, bad magic, unsupported version, unknown kind, a
    /// payload length disagreeing with the frame, or a CRC mismatch.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        Envelope::decode_at_most(bytes, CODEC_VERSION)
    }

    /// [`Envelope::decode`] for a decoder that only speaks protocol
    /// versions up to `max_version` — version negotiation in one call.
    ///
    /// A version-1 server (`max_version = 1`) rejects every codec frame
    /// with [`WireError::UnsupportedVersion`] before touching the
    /// payload, so its admission accounting — not a parse failure —
    /// records the loss. A forged version-1 frame carrying the codec
    /// kind byte is equally rejected: the kind requires version ≥ 2
    /// ([`MsgKind::min_version`]).
    ///
    /// # Errors
    ///
    /// As [`Envelope::decode`], plus [`WireError::UnsupportedVersion`]
    /// for any frame above `max_version`.
    pub fn decode_at_most(bytes: &[u8], max_version: u16) -> Result<Self, WireError> {
        if bytes.len() < FRAME_OVERHEAD {
            return Err(WireError::Truncated {
                expected: FRAME_OVERHEAD,
                actual: bytes.len(),
            });
        }
        if bytes[..4] != MAGIC {
            return Err(WireError::BadMagic(bytes[..4].try_into().expect("4 bytes")));
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
        if version == 0 || version > CODEC_VERSION || version > max_version {
            return Err(WireError::UnsupportedVersion(version));
        }
        let kind = MsgKind::from_code(bytes[6]).ok_or(WireError::UnknownKind(bytes[6]))?;
        if version < kind.min_version() {
            return Err(WireError::UnsupportedVersion(version));
        }
        let round = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let client_id = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
        let payload_len = u32::from_le_bytes(bytes[24..28].try_into().expect("4 bytes")) as usize;
        if payload_len > MAX_PAYLOAD_LEN {
            return Err(WireError::LengthMismatch {
                declared: payload_len,
                actual: bytes.len().saturating_sub(FRAME_OVERHEAD),
            });
        }
        if bytes.len() != FRAME_OVERHEAD + payload_len {
            return Err(WireError::LengthMismatch {
                declared: payload_len,
                actual: bytes.len().saturating_sub(FRAME_OVERHEAD),
            });
        }
        let body_end = HEADER_LEN + payload_len;
        let expected = crc32(&bytes[..body_end]);
        let actual = u32::from_le_bytes(bytes[body_end..].try_into().expect("4 bytes"));
        if expected != actual {
            return Err(WireError::CrcMismatch { expected, actual });
        }
        let payload = Payload::decode(kind, &bytes[HEADER_LEN..body_end])?;
        Ok(Envelope {
            round,
            client_id,
            payload,
        })
    }
}

/// Encoded size in bytes of a model-upload frame carrying `num_params`
/// parameters (the per-transfer size §IV-C reports as 2.8 kB for the
/// paper's 687-parameter network).
pub fn upload_frame_len(num_params: usize) -> usize {
    FRAME_OVERHEAD + 12 + 4 * num_params
}

/// Encoded size in bytes of a broadcast (or join-ack) frame carrying
/// `num_params` parameters.
pub fn broadcast_frame_len(num_params: usize) -> usize {
    FRAME_OVERHEAD + 4 + 4 * num_params
}

/// An upload compression scheme, selecting how a client's model update is
/// framed on the wire.
///
/// [`Codec::Dense32`] is the bit-identical default (version-1
/// [`MsgKind::ModelUpload`] frames, 4 bytes per parameter). The others
/// produce version-2 [`MsgKind::CodecUpload`] frames; their encoded frame
/// size is a pure function of `(codec, num_params)` — see
/// [`Codec::upload_frame_len`] — so telemetry and transfer-size reporting
/// cannot drift from the real wire length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Codec {
    /// Full-precision dense upload: the pre-codec wire format, byte for
    /// byte.
    Dense32,
    /// 8-bit linear quantization with per-tensor scale and zero-point
    /// (1 byte per parameter; round-trip error ≤ scale/2 per element).
    Q8,
    /// 16-bit linear quantization with per-tensor scale and zero-point.
    Q16,
    /// Top-k sparse delta against a previously broadcast global model:
    /// only the `keep_count(frac, n)` largest-magnitude coordinate
    /// deltas travel, as (index, value) pairs plus the reference round.
    TopK {
        /// Fraction of coordinates kept, in (0, 1].
        frac: f32,
    },
}

impl Codec {
    /// Parses a codec name as accepted by `--codec`:
    /// `dense`, `q8`, `q16`, or `topk:<frac>` with `frac` in (0, 1].
    pub fn parse(s: &str) -> Option<Codec> {
        match s {
            "dense" => Some(Codec::Dense32),
            "q8" => Some(Codec::Q8),
            "q16" => Some(Codec::Q16),
            _ => {
                let frac: f32 = s.strip_prefix("topk:")?.parse().ok()?;
                (frac.is_finite() && frac > 0.0 && frac <= 1.0).then_some(Codec::TopK { frac })
            }
        }
    }

    /// Number of coordinates a top-k codec keeps for an `num_params`-long
    /// model: `ceil(frac · n)`, clamped to `[1, n]` (0 for an empty
    /// model). Deterministic, so the frame size is too.
    pub fn keep_count(frac: f32, num_params: usize) -> usize {
        if num_params == 0 {
            return 0;
        }
        ((frac as f64 * num_params as f64).ceil() as usize).clamp(1, num_params)
    }

    /// Encoded size in bytes of an upload frame for an `num_params`-long
    /// model under this codec. For [`Codec::Dense32`] this is exactly the
    /// free function [`upload_frame_len`].
    pub fn upload_frame_len(self, num_params: usize) -> usize {
        match self {
            Codec::Dense32 => upload_frame_len(num_params),
            // 8 num_samples + 1 tag + 4 scale + 4 zero + 4 count + payload.
            Codec::Q8 => FRAME_OVERHEAD + 21 + num_params,
            Codec::Q16 => FRAME_OVERHEAD + 21 + 2 * num_params,
            // 8 num_samples + 1 tag + 4 model_len + 8 ref_round + 4 k + 8k.
            Codec::TopK { frac } => FRAME_OVERHEAD + 25 + 8 * Codec::keep_count(frac, num_params),
        }
    }
}

impl fmt::Display for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Codec::Dense32 => f.write_str("dense"),
            Codec::Q8 => f.write_str("q8"),
            Codec::Q16 => f.write_str("q16"),
            Codec::TopK { frac } => write!(f, "topk:{frac}"),
        }
    }
}

/// A codec-compressed model update body, as carried by
/// [`Payload::CodecUpload`].
///
/// Quantized bodies are self-contained; [`CodedUpdate::TopK`] additionally
/// names the broadcast round whose global model it is a delta against —
/// the decoder must hold that reference to reconstruct.
#[derive(Debug, Clone, PartialEq)]
pub enum CodedUpdate {
    /// 8-bit linear quantization: `value ≈ zero_point + code · scale`.
    Q8 {
        /// Quantization step (`(max − min) / 255`).
        scale: f32,
        /// The value code 0 maps to (the tensor minimum).
        zero_point: f32,
        /// One code per parameter.
        data: Vec<u8>,
    },
    /// 16-bit linear quantization: `value ≈ zero_point + code · scale`.
    Q16 {
        /// Quantization step (`(max − min) / 65535`).
        scale: f32,
        /// The value code 0 maps to (the tensor minimum).
        zero_point: f32,
        /// One code per parameter.
        data: Vec<u16>,
    },
    /// Top-k sparse delta against the broadcast global of `ref_round`.
    TopK {
        /// Dense length of the encoded model.
        model_len: u32,
        /// The round whose broadcast global is the delta reference
        /// (0 = the join-handshake θ₁).
        ref_round: u64,
        /// Kept coordinate indices, strictly ascending.
        indices: Vec<u32>,
        /// `params[i] − reference[i]` for each kept index.
        values: Vec<f32>,
    },
}

impl CodedUpdate {
    /// Quantizes `params` to 8-bit codes. Non-finite inputs poison the
    /// scale to NaN so the reconstruction is all-NaN and server admission
    /// — not the codec — rejects the update.
    pub fn quantize_q8(params: &[f32]) -> CodedUpdate {
        let (scale, zero_point) = quant_range(params, 255.0);
        let data = params
            .iter()
            .map(|&p| quant_code(p, scale, zero_point, 255.0) as u8)
            .collect();
        CodedUpdate::Q8 {
            scale,
            zero_point,
            data,
        }
    }

    /// Quantizes `params` to 16-bit codes (same contract as
    /// [`CodedUpdate::quantize_q8`]).
    pub fn quantize_q16(params: &[f32]) -> CodedUpdate {
        let (scale, zero_point) = quant_range(params, 65535.0);
        let data = params
            .iter()
            .map(|&p| quant_code(p, scale, zero_point, 65535.0) as u16)
            .collect();
        CodedUpdate::Q16 {
            scale,
            zero_point,
            data,
        }
    }

    /// Encodes the `keep_count(frac, n)` largest-magnitude coordinate
    /// deltas of `params` against `reference` (the broadcast global of
    /// `ref_round`). Ties break toward the lower index; NaN deltas sort
    /// largest, so a poisoned update still travels and is rejected by
    /// admission after reconstruction.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `reference` differ in length (the engine
    /// only encodes against a same-shape reference).
    pub fn top_k(params: &[f32], reference: &[f32], ref_round: u64, frac: f32) -> CodedUpdate {
        assert_eq!(
            params.len(),
            reference.len(),
            "top-k reference must match the model shape"
        );
        let k = Codec::keep_count(frac, params.len());
        let mut order: Vec<u32> = (0..params.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let da = (params[a as usize] - reference[a as usize]).abs();
            let db = (params[b as usize] - reference[b as usize]).abs();
            db.total_cmp(&da).then(a.cmp(&b))
        });
        let mut indices: Vec<u32> = order[..k].to_vec();
        indices.sort_unstable();
        let values = indices
            .iter()
            .map(|&i| params[i as usize] - reference[i as usize])
            .collect();
        CodedUpdate::TopK {
            model_len: params.len() as u32,
            ref_round,
            indices,
            values,
        }
    }

    /// Dense length of the model this body encodes.
    pub fn num_params(&self) -> usize {
        match self {
            CodedUpdate::Q8 { data, .. } => data.len(),
            CodedUpdate::Q16 { data, .. } => data.len(),
            CodedUpdate::TopK { model_len, .. } => *model_len as usize,
        }
    }

    /// The reference round a [`CodedUpdate::TopK`] body reconstructs
    /// against; `None` for the self-contained quantized bodies.
    pub fn ref_round(&self) -> Option<u64> {
        match self {
            CodedUpdate::TopK { ref_round, .. } => Some(*ref_round),
            _ => None,
        }
    }

    /// Reconstructs the dense parameter vector into `out` (cleared
    /// first). Quantized bodies ignore `reference`; a top-k body requires
    /// the reference global it was encoded against.
    ///
    /// # Errors
    ///
    /// [`CodecError::MissingReference`] when a top-k body gets no
    /// reference, and [`CodecError::ReferenceShape`] when the reference
    /// length disagrees with the encoded model length.
    pub fn reconstruct_into(
        &self,
        reference: Option<&[f32]>,
        out: &mut Vec<f32>,
    ) -> Result<(), CodecError> {
        out.clear();
        match self {
            CodedUpdate::Q8 {
                scale,
                zero_point,
                data,
            } => {
                out.extend(data.iter().map(|&q| zero_point + q as f32 * scale));
                Ok(())
            }
            CodedUpdate::Q16 {
                scale,
                zero_point,
                data,
            } => {
                out.extend(data.iter().map(|&q| zero_point + q as f32 * scale));
                Ok(())
            }
            CodedUpdate::TopK {
                model_len,
                indices,
                values,
                ..
            } => {
                let reference = reference.ok_or(CodecError::MissingReference)?;
                if reference.len() != *model_len as usize {
                    return Err(CodecError::ReferenceShape {
                        expected: *model_len as usize,
                        actual: reference.len(),
                    });
                }
                out.extend_from_slice(reference);
                for (&i, &v) in indices.iter().zip(values) {
                    out[i as usize] += v;
                }
                Ok(())
            }
        }
    }

    fn tag(&self) -> u8 {
        match self {
            CodedUpdate::Q8 { .. } => 1,
            CodedUpdate::Q16 { .. } => 2,
            CodedUpdate::TopK { .. } => 3,
        }
    }

    /// Encoded body size in bytes (excluding the num_samples and tag
    /// prefix of the payload).
    pub fn encoded_len(&self) -> usize {
        match self {
            CodedUpdate::Q8 { data, .. } => 12 + data.len(),
            CodedUpdate::Q16 { data, .. } => 12 + 2 * data.len(),
            CodedUpdate::TopK { indices, .. } => 16 + 8 * indices.len(),
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            CodedUpdate::Q8 {
                scale,
                zero_point,
                data,
            } => {
                out.extend_from_slice(&scale.to_le_bytes());
                out.extend_from_slice(&zero_point.to_le_bytes());
                out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                out.extend_from_slice(data);
            }
            CodedUpdate::Q16 {
                scale,
                zero_point,
                data,
            } => {
                out.extend_from_slice(&scale.to_le_bytes());
                out.extend_from_slice(&zero_point.to_le_bytes());
                out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                for q in data {
                    out.extend_from_slice(&q.to_le_bytes());
                }
            }
            CodedUpdate::TopK {
                model_len,
                ref_round,
                indices,
                values,
            } => {
                out.extend_from_slice(&model_len.to_le_bytes());
                out.extend_from_slice(&ref_round.to_le_bytes());
                out.extend_from_slice(&(indices.len() as u32).to_le_bytes());
                for i in indices {
                    out.extend_from_slice(&i.to_le_bytes());
                }
                for v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
    }

    fn decode(tag: u8, bytes: &[u8]) -> Result<Self, WireError> {
        match tag {
            1 | 2 => {
                if bytes.len() < 12 {
                    return Err(WireError::Truncated {
                        expected: 12,
                        actual: bytes.len(),
                    });
                }
                let scale = f32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
                let zero_point = f32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
                let count = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
                let body = &bytes[12..];
                let width = if tag == 1 { 1 } else { 2 };
                if body.len() != width * count {
                    return Err(WireError::LengthMismatch {
                        declared: width * count,
                        actual: body.len(),
                    });
                }
                if tag == 1 {
                    Ok(CodedUpdate::Q8 {
                        scale,
                        zero_point,
                        data: body.to_vec(),
                    })
                } else {
                    Ok(CodedUpdate::Q16 {
                        scale,
                        zero_point,
                        data: body
                            .chunks_exact(2)
                            .map(|c| u16::from_le_bytes(c.try_into().expect("2 bytes")))
                            .collect(),
                    })
                }
            }
            3 => {
                if bytes.len() < 16 {
                    return Err(WireError::Truncated {
                        expected: 16,
                        actual: bytes.len(),
                    });
                }
                let model_len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
                let ref_round = u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes"));
                let k = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
                let body = &bytes[16..];
                if body.len() != 8 * k {
                    return Err(WireError::LengthMismatch {
                        declared: 8 * k,
                        actual: body.len(),
                    });
                }
                let indices: Vec<u32> = body[..4 * k]
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                    .collect();
                // Canonical form: strictly ascending, in range. Anything
                // else is a malformed frame, not a model to aggregate.
                let in_range = indices.iter().all(|&i| i < model_len);
                let ascending = indices.windows(2).all(|w| w[0] < w[1]);
                if !in_range || !ascending || k > model_len as usize {
                    return Err(WireError::MalformedCodec);
                }
                let values = body[4 * k..]
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                    .collect();
                Ok(CodedUpdate::TopK {
                    model_len,
                    ref_round,
                    indices,
                    values,
                })
            }
            other => Err(WireError::UnknownCodec(other)),
        }
    }
}

/// Scale and zero-point for linear quantization over `levels` steps.
/// Any non-finite input poisons both to NaN.
fn quant_range(params: &[f32], levels: f32) -> (f32, f32) {
    if params.is_empty() {
        return (0.0, 0.0);
    }
    if params.iter().any(|p| !p.is_finite()) {
        return (f32::NAN, f32::NAN);
    }
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &p in params {
        lo = lo.min(p);
        hi = hi.max(p);
    }
    ((hi - lo) / levels, lo)
}

/// The quantization code for one value (0 when the tensor is constant or
/// the scale is poisoned).
fn quant_code(p: f32, scale: f32, zero_point: f32, levels: f32) -> u32 {
    if scale > 0.0 {
        ((p - zero_point) / scale).round().clamp(0.0, levels) as u32
    } else {
        0
    }
}

/// A reconstruction failure: the decoder cannot turn a [`CodedUpdate`]
/// back into a dense model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// A top-k body was reconstructed without its reference global
    /// (evicted from the server's reference window, or never held).
    MissingReference,
    /// The supplied reference global disagrees with the encoded model
    /// length.
    ReferenceShape {
        /// Length the body was encoded against.
        expected: usize,
        /// Length of the supplied reference.
        actual: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::MissingReference => {
                f.write_str("top-k reference global unavailable (evicted or never held)")
            }
            CodecError::ReferenceShape { expected, actual } => write!(
                f,
                "top-k reference shape mismatch: encoded against {expected} params, \
                 reference has {actual}"
            ),
        }
    }
}

impl Error for CodecError {}

/// Caller-owned scratch for codec encode/decode loops, mirroring the
/// hot-path `ForwardScratch` discipline: reuse one across calls and the
/// steady state performs no heap allocation for the dense
/// reconstruction.
#[derive(Debug, Default, Clone)]
pub struct CodecScratch {
    /// Reconstructed dense parameters (decode side).
    pub dense: Vec<f32>,
}

impl CodecScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        CodecScratch::default()
    }
}

/// Appends `params` as a `u32` count followed by little-endian `f32`s —
/// the parameter layout frames and checkpoints share.
pub(crate) fn encode_params(params: &[f32], out: &mut Vec<u8>) {
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for p in params {
        out.extend_from_slice(&p.to_le_bytes());
    }
}

fn decode_params(bytes: &[u8]) -> Result<Vec<f32>, WireError> {
    if bytes.len() < 4 {
        return Err(WireError::Truncated {
            expected: 4,
            actual: bytes.len(),
        });
    }
    let count = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    let body = &bytes[4..];
    if body.len() != 4 * count {
        return Err(WireError::LengthMismatch {
            declared: 4 * count,
            actual: body.len(),
        });
    }
    Ok(body
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect())
}

/// A framing violation found while decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The frame ended before a complete field.
    Truncated {
        /// Bytes the decoder needed.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The frame does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The frame's protocol version is not [`VERSION`].
    UnsupportedVersion(u16),
    /// The message-kind byte names no known kind.
    UnknownKind(u8),
    /// A declared length disagrees with the bytes present.
    LengthMismatch {
        /// Length the frame declared.
        declared: usize,
        /// Length actually present.
        actual: usize,
    },
    /// The CRC32 trailer does not match the frame contents.
    CrcMismatch {
        /// CRC computed over the received bytes.
        expected: u32,
        /// CRC carried in the trailer.
        actual: u32,
    },
    /// A codec-upload payload names no known codec tag.
    UnknownCodec(u8),
    /// A codec-upload payload violates its codec's canonical form
    /// (out-of-range or non-ascending top-k indices).
    MalformedCodec,
    /// A stream length prefix declares a frame beyond the protocol
    /// maximum (a desynchronized or hostile peer).
    FrameTooLarge {
        /// Length the prefix declared.
        declared: usize,
        /// Largest frame the reassembler accepts.
        max: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { expected, actual } => {
                write!(f, "frame truncated: needed {expected} bytes, got {actual}")
            }
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            WireError::LengthMismatch { declared, actual } => {
                write!(f, "length mismatch: declared {declared}, got {actual}")
            }
            WireError::CrcMismatch { expected, actual } => write!(
                f,
                "CRC mismatch: computed {expected:#010x}, trailer {actual:#010x}"
            ),
            WireError::UnknownCodec(tag) => write!(f, "unknown codec tag {tag}"),
            WireError::MalformedCodec => f.write_str("malformed codec payload"),
            WireError::FrameTooLarge { declared, max } => {
                write!(
                    f,
                    "stream frame of {declared} bytes exceeds the {max}-byte maximum"
                )
            }
        }
    }
}

impl Error for WireError {}

/// CRC32 (IEEE 802.3, the zlib polynomial) of `bytes`.
///
/// Eight bytes per step ("slicing-by-8"): the register is XORed into the
/// block's first four bytes, and each of the eight bytes is looked up in
/// the table that carries it past the bytes after it in the block.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFF_u32;
    let mut blocks = bytes.chunks_exact(8);
    for block in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        let hi = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// `CRC_TABLES[0]` is the byte-wise table; `CRC_TABLES[k][b]` is the CRC
/// register for byte `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[k - 1][n];
            tables[k][n] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            n += 1;
        }
        k += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_standard_check_value() {
        // The canonical IEEE CRC32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The oracle for [`crc32`]: one table lookup per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFF_u32;
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_the_bytewise_oracle_at_any_length_and_offset() {
        // SplitMix64, seeded: random bytes, lengths and offsets.
        let mut state = 0x5EED_C3C3_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let buf: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        for len in (0..=16).chain([4095, 4096]) {
            assert_eq!(crc32(&buf[..len]), crc32_bytewise(&buf[..len]), "len {len}");
        }
        for _ in 0..500 {
            let offset = (next() % 8) as usize;
            let len = (next() % 4097) as usize;
            let bytes = &buf[offset..offset + len];
            assert_eq!(
                crc32(bytes),
                crc32_bytewise(bytes),
                "offset {offset}, len {len}"
            );
        }
    }

    #[test]
    fn upload_round_trips() {
        let env = Envelope::model_upload(7, 3, 100, vec![1.0, -2.5, 0.0, f32::MIN_POSITIVE]);
        let bytes = env.encode();
        assert_eq!(bytes.len(), env.encoded_len());
        assert_eq!(bytes.len(), upload_frame_len(4));
        let back = Envelope::decode(&bytes).unwrap();
        assert_eq!(back, env);
        assert_eq!(back.kind(), MsgKind::ModelUpload);
    }

    #[test]
    fn broadcast_and_join_ack_round_trip() {
        for env in [
            Envelope::broadcast(9, 1, vec![0.5; 7]),
            Envelope::join_ack(2, vec![-1.0; 3]),
        ] {
            let bytes = env.encode();
            assert_eq!(Envelope::decode(&bytes).unwrap(), env);
        }
        assert_eq!(
            Envelope::broadcast(9, 1, vec![0.5; 7]).encoded_len(),
            broadcast_frame_len(7)
        );
    }

    #[test]
    fn join_request_and_mid_experiment_ack_round_trip() {
        let req = Envelope::join_request(5);
        let bytes = req.encode();
        assert_eq!(bytes.len(), FRAME_OVERHEAD, "join requests carry no body");
        let back = Envelope::decode(&bytes).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.kind(), MsgKind::JoinRequest);
        assert_eq!(
            u16::from_le_bytes(bytes[4..6].try_into().unwrap()),
            VERSION,
            "join requests are version-1 frames"
        );

        let ack = Envelope::join_ack_at(9, 5, vec![1.0; 3]);
        let back = Envelope::decode(&ack.encode()).unwrap();
        assert_eq!(back.round, 9, "mid-experiment acks carry the round");
        assert_eq!(back, ack);
        assert_eq!(
            Envelope::join_ack(5, vec![1.0; 3]),
            Envelope::join_ack_at(0, 5, vec![1.0; 3]),
            "the legacy constructor is the round-0 special case"
        );
    }

    #[test]
    fn join_request_with_a_body_is_rejected() {
        // A forged non-empty join-request body (CRC re-sealed) must fail
        // payload decoding, not silently carry data.
        let mut frame = Envelope::join_request(1).encode();
        let insert_at = HEADER_LEN;
        frame.splice(insert_at..insert_at, [0u8; 4]);
        frame[24..28].copy_from_slice(&4u32.to_le_bytes());
        let body_end = frame.len() - 4;
        let crc = crc32(&frame[..body_end]).to_le_bytes();
        frame[body_end..].copy_from_slice(&crc);
        assert!(matches!(
            Envelope::decode(&frame),
            Err(WireError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn nan_payloads_survive_the_wire_bitwise() {
        // Corrupt updates must arrive as-is so server admission (not the
        // codec) is what rejects them.
        let env = Envelope::model_upload(1, 0, 5, vec![f32::NAN, f32::INFINITY, 1.0]);
        let back = Envelope::decode(&env.encode()).unwrap();
        let sent = env.payload.params();
        let got = back.payload.params();
        assert_eq!(sent.len(), got.len());
        for (a, b) in sent.iter().zip(got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_param_vectors_are_legal() {
        let env = Envelope::broadcast(1, 0, vec![]);
        assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = Envelope::model_upload(1, 0, 5, vec![1.0, 2.0]).encode();
        for cut in [0, 1, FRAME_OVERHEAD - 1, bytes.len() - 1] {
            assert!(
                Envelope::decode(&bytes[..cut]).is_err(),
                "accepted a {cut}-byte prefix"
            );
        }
    }

    #[test]
    fn bad_magic_version_and_kind_are_rejected() {
        let good = Envelope::broadcast(1, 0, vec![1.0]).encode();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            Envelope::decode(&bad),
            Err(WireError::BadMagic(_))
        ));

        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            Envelope::decode(&bad),
            Err(WireError::UnsupportedVersion(99))
        ));

        let mut bad = good.clone();
        bad[6] = 42;
        // The CRC guard sees the mutation first unless we re-seal the
        // frame; either error is a rejection, but re-sealing proves the
        // kind check itself fires.
        let body_end = bad.len() - 4;
        let crc = crc32(&bad[..body_end]).to_le_bytes();
        bad[body_end..].copy_from_slice(&crc);
        assert!(matches!(
            Envelope::decode(&bad),
            Err(WireError::UnknownKind(42))
        ));
    }

    #[test]
    fn any_corrupted_byte_is_rejected() {
        let bytes = Envelope::model_upload(3, 1, 50, vec![0.25, -0.75, 1.5]).encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                Envelope::decode(&bad).is_err(),
                "flip at byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn declared_length_must_match_the_frame() {
        let mut bytes = Envelope::broadcast(1, 0, vec![1.0, 2.0]).encode();
        // Claim a shorter payload than present (and re-seal the CRC so the
        // length check is what fires).
        bytes[24..28].copy_from_slice(&4u32.to_le_bytes());
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[..body_end]).to_le_bytes();
        bytes[body_end..].copy_from_slice(&crc);
        assert!(matches!(
            Envelope::decode(&bytes),
            Err(WireError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn frame_len_helpers_match_encoding() {
        for n in [0, 1, 687, 4096] {
            let up = Envelope::model_upload(1, 0, 9, vec![0.0; n]);
            assert_eq!(up.encode().len(), upload_frame_len(n));
            let down = Envelope::broadcast(1, 0, vec![0.0; n]);
            assert_eq!(down.encode().len(), broadcast_frame_len(n));
        }
        // The paper's 5→32→15 network has 687 parameters: ~2.8 kB framed.
        let kb = upload_frame_len(687) as f64 / 1024.0;
        assert!((2.5..3.0).contains(&kb), "{kb:.2} kB");
    }

    fn sample_coded_updates() -> Vec<CodedUpdate> {
        let params: Vec<f32> = (0..17).map(|i| (i as f32 * 0.37).sin()).collect();
        let reference = vec![0.1_f32; 17];
        vec![
            CodedUpdate::quantize_q8(&params),
            CodedUpdate::quantize_q16(&params),
            CodedUpdate::top_k(&params, &reference, 4, 0.25),
        ]
    }

    #[test]
    fn codec_uploads_round_trip() {
        for update in sample_coded_updates() {
            let env = Envelope::codec_upload(7, 3, 100, update.clone());
            let bytes = env.encode();
            assert_eq!(bytes.len(), env.encoded_len());
            let back = Envelope::decode(&bytes).unwrap();
            assert_eq!(back, env);
            assert_eq!(back.kind(), MsgKind::CodecUpload);
            assert_eq!(
                u16::from_le_bytes(bytes[4..6].try_into().unwrap()),
                CODEC_VERSION,
                "codec frames declare version 2"
            );
        }
    }

    #[test]
    fn dense_frames_stay_version_one() {
        for env in [
            Envelope::model_upload(1, 0, 9, vec![1.0]),
            Envelope::broadcast(1, 0, vec![1.0]),
            Envelope::join_ack(0, vec![1.0]),
        ] {
            let bytes = env.encode();
            assert_eq!(u16::from_le_bytes(bytes[4..6].try_into().unwrap()), VERSION);
        }
    }

    #[test]
    fn codec_frame_len_matches_the_codec_helper() {
        let n = 687;
        let params: Vec<f32> = (0..n).map(|i| (i as f32 * 0.013).cos()).collect();
        let reference = vec![0.0_f32; n];
        let cases = [
            (Codec::Q8, CodedUpdate::quantize_q8(&params)),
            (Codec::Q16, CodedUpdate::quantize_q16(&params)),
            (
                Codec::TopK { frac: 0.1 },
                CodedUpdate::top_k(&params, &reference, 3, 0.1),
            ),
        ];
        for (codec, update) in cases {
            let frame = Envelope::codec_upload(4, 0, 50, update).encode();
            assert_eq!(frame.len(), codec.upload_frame_len(n), "{codec}");
        }
        assert_eq!(Codec::Dense32.upload_frame_len(n), upload_frame_len(n));
        // The paper's 687-param model: dense 2 792 B, q8 740 B,
        // q16 1 427 B, topk:0.1 609 B, topk:0.05 337 B (≥ 8×).
        assert_eq!(Codec::Dense32.upload_frame_len(n), 2792);
        assert_eq!(Codec::Q8.upload_frame_len(n), 740);
        assert_eq!(Codec::Q16.upload_frame_len(n), 1427);
        assert_eq!(Codec::TopK { frac: 0.1 }.upload_frame_len(n), 609);
        assert_eq!(Codec::TopK { frac: 0.05 }.upload_frame_len(n), 337);
        let dense = Codec::Dense32.upload_frame_len(n) as f64;
        assert!(
            Codec::Q8.upload_frame_len(n) as f64 <= dense / 3.5,
            "q8 must stay within 2/7 of dense bytes (pure int8 caps the win at 4x)"
        );
        assert!(
            Codec::TopK { frac: 0.05 }.upload_frame_len(n) as f64 <= dense / 8.0,
            "topk:0.05 must deliver at least the 8x byte reduction"
        );
    }

    #[test]
    fn v1_decoder_rejects_codec_frames_as_unsupported_version() {
        let frame =
            Envelope::codec_upload(2, 1, 10, CodedUpdate::quantize_q8(&[0.5, -0.5, 0.25])).encode();
        assert_eq!(
            Envelope::decode_at_most(&frame, VERSION),
            Err(WireError::UnsupportedVersion(CODEC_VERSION))
        );
        // The full decoder accepts the same frame.
        assert!(Envelope::decode(&frame).is_ok());
    }

    #[test]
    fn forged_v1_codec_frame_is_unsupported_version_not_a_panic() {
        // An attacker (or a buggy peer) stamps version 1 on a codec-kind
        // frame and re-seals the CRC: the kind requires version 2, so the
        // decoder must reject it as a version violation.
        let mut frame =
            Envelope::codec_upload(2, 1, 10, CodedUpdate::quantize_q8(&[0.5, -0.5, 0.25])).encode();
        frame[4..6].copy_from_slice(&VERSION.to_le_bytes());
        let body_end = frame.len() - 4;
        let crc = crc32(&frame[..body_end]).to_le_bytes();
        frame[body_end..].copy_from_slice(&crc);
        assert_eq!(
            Envelope::decode(&frame),
            Err(WireError::UnsupportedVersion(VERSION))
        );
    }

    #[test]
    fn any_corrupted_codec_frame_byte_is_rejected() {
        for update in sample_coded_updates() {
            let bytes = Envelope::codec_upload(3, 1, 50, update).encode();
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0x01;
                assert!(
                    Envelope::decode(&bad).is_err(),
                    "flip at byte {i} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn malformed_topk_indices_are_rejected() {
        let topk = |indices: Vec<u32>| CodedUpdate::TopK {
            model_len: 4,
            ref_round: 1,
            indices,
            values: vec![1.0, -1.0],
        };
        let reseal = |update: CodedUpdate| {
            Envelope::decode(&Envelope::codec_upload(1, 0, 5, update).encode())
        };
        assert!(reseal(topk(vec![0, 2])).is_ok());
        for bad in [vec![0, 9], vec![2, 0], vec![2, 2]] {
            assert_eq!(reseal(topk(bad)), Err(WireError::MalformedCodec));
        }
    }

    #[test]
    fn quantize_roundtrip_error_is_bounded_by_half_a_step() {
        let params: Vec<f32> = (0..687).map(|i| ((i as f32) * 0.1).sin() * 3.0).collect();
        let mut out = Vec::new();
        for (update, steps) in [
            (CodedUpdate::quantize_q8(&params), 255.0_f32),
            (CodedUpdate::quantize_q16(&params), 65535.0),
        ] {
            update.reconstruct_into(None, &mut out).unwrap();
            let (lo, hi) = params
                .iter()
                .fold((f32::INFINITY, f32::NEG_INFINITY), |(l, h), &p| {
                    (l.min(p), h.max(p))
                });
            let scale = (hi - lo) / steps;
            for (a, b) in params.iter().zip(&out) {
                assert!(
                    (a - b).abs() <= scale * 0.50005 + 1e-9,
                    "{a} vs {b} (scale {scale})"
                );
            }
        }
    }

    #[test]
    fn constant_tensors_quantize_exactly() {
        let params = vec![0.75_f32; 9];
        let mut out = Vec::new();
        CodedUpdate::quantize_q8(&params)
            .reconstruct_into(None, &mut out)
            .unwrap();
        assert_eq!(out, params);
    }

    #[test]
    fn non_finite_params_poison_quantization_for_admission_to_reject() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let params = vec![1.0, bad, -1.0];
            let mut out = Vec::new();
            CodedUpdate::quantize_q8(&params)
                .reconstruct_into(None, &mut out)
                .unwrap();
            assert!(
                out.iter().all(|p| p.is_nan()),
                "poisoned reconstruction must be all-NaN"
            );
        }
    }

    #[test]
    fn top_k_is_exact_on_kept_indices_and_reference_elsewhere() {
        let reference: Vec<f32> = (0..32).map(|i| i as f32 * 0.1).collect();
        let mut params = reference.clone();
        params[3] += 5.0;
        params[17] -= 4.0;
        params[30] += 3.0;
        params[8] += 0.001;
        // keep_count(0.1, 32) = 4: the four largest |deltas|, ascending.
        let update = CodedUpdate::top_k(&params, &reference, 6, 0.1);
        let CodedUpdate::TopK { ref indices, .. } = update else {
            panic!("top_k builds TopK");
        };
        assert_eq!(indices, &[3, 8, 17, 30], "largest deltas kept, ascending");
        assert_eq!(update.ref_round(), Some(6));
        let mut out = Vec::new();
        update.reconstruct_into(Some(&reference), &mut out).unwrap();
        for i in [3usize, 8, 17, 30] {
            assert_eq!(out[i], params[i], "kept index {i} is exact");
        }
        for (i, (o, r)) in out.iter().zip(&reference).enumerate() {
            if ![3, 8, 17, 30].contains(&i) {
                assert_eq!(o, r, "dropped index {i} falls back to the reference");
            }
        }
    }

    #[test]
    fn top_k_without_its_reference_is_a_typed_error() {
        let update = CodedUpdate::top_k(&[1.0, 2.0], &[0.0, 0.0], 1, 0.5);
        let mut out = Vec::new();
        assert_eq!(
            update.reconstruct_into(None, &mut out),
            Err(CodecError::MissingReference)
        );
        assert_eq!(
            update.reconstruct_into(Some(&[0.0; 3]), &mut out),
            Err(CodecError::ReferenceShape {
                expected: 2,
                actual: 3
            })
        );
    }

    #[test]
    fn codec_names_parse_and_display() {
        for (name, codec) in [
            ("dense", Codec::Dense32),
            ("q8", Codec::Q8),
            ("q16", Codec::Q16),
            ("topk:0.1", Codec::TopK { frac: 0.1 }),
        ] {
            assert_eq!(Codec::parse(name), Some(codec));
            assert_eq!(Codec::parse(&codec.to_string()), Some(codec));
        }
        for bad in ["", "q9", "topk", "topk:", "topk:0", "topk:1.5", "topk:nan"] {
            assert_eq!(Codec::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn keep_count_is_clamped_and_deterministic() {
        assert_eq!(Codec::keep_count(0.1, 687), 69);
        assert_eq!(Codec::keep_count(0.05, 687), 35);
        assert_eq!(Codec::keep_count(1.0, 687), 687);
        assert_eq!(Codec::keep_count(1e-9, 687), 1, "never below one");
        assert_eq!(Codec::keep_count(0.5, 0), 0, "empty model");
    }

    #[test]
    fn unknown_codec_tag_is_rejected() {
        let mut frame = Envelope::codec_upload(1, 0, 5, CodedUpdate::quantize_q8(&[1.0])).encode();
        frame[HEADER_LEN + 8] = 77; // codec tag byte
        let body_end = frame.len() - 4;
        let crc = crc32(&frame[..body_end]).to_le_bytes();
        frame[body_end..].copy_from_slice(&crc);
        assert_eq!(Envelope::decode(&frame), Err(WireError::UnknownCodec(77)));
    }

    #[test]
    fn errors_render_their_context() {
        let cases: [(WireError, &str); 4] = [
            (
                WireError::Truncated {
                    expected: 32,
                    actual: 3,
                },
                "truncated",
            ),
            (WireError::BadMagic(*b"XXXX"), "magic"),
            (WireError::UnsupportedVersion(9), "version 9"),
            (
                WireError::CrcMismatch {
                    expected: 1,
                    actual: 2,
                },
                "CRC",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
