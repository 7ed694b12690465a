//! Wire-protocol glue between the federation and [`fedpower_wire`].
//!
//! The codec itself lives in the dependency-free [`fedpower_wire`] crate
//! (re-exported here in full) so the agent crate can report real frame
//! sizes without depending on the federation. This module adds the
//! federation-side conveniences: encoding a [`ModelUpdate`] into an
//! upload frame (dense or codec-compressed), decoding frames back into
//! federation types with wire violations surfaced as [`FedError::Wire`],
//! and the server's [`ReferenceWindow`] of recent broadcast globals that
//! top-k sparse uploads reconstruct against.

pub use fedpower_wire::{
    broadcast_frame_len, checkpoint, crc32, stream, upload_frame_len, Codec, CodecError,
    CodecScratch, CodedUpdate, Envelope, MsgKind, Payload, WireError, CODEC_VERSION,
    FRAME_OVERHEAD, HEADER_LEN, MAGIC, MAX_PAYLOAD_LEN, VERSION,
};

use crate::client::ModelUpdate;
use crate::error::FedError;
use std::collections::VecDeque;

/// Encodes a client's model update as an upload frame for `round`.
pub fn encode_upload(round: u64, update: &ModelUpdate) -> Vec<u8> {
    Envelope::model_upload(
        round,
        update.client_id as u64,
        update.num_samples,
        update.params.clone(),
    )
    .encode()
}

/// Decodes an upload frame back into `(origin_round, ModelUpdate)`.
///
/// # Errors
///
/// Returns [`FedError::Wire`] on any framing violation, or
/// [`FedError::CorruptUpdate`] if the frame decodes cleanly but is not a
/// [`MsgKind::ModelUpload`] message.
pub fn decode_upload(frame: &[u8]) -> Result<(u64, ModelUpdate), FedError> {
    let env = Envelope::decode(frame)?;
    match env.payload {
        Payload::ModelUpload {
            num_samples,
            params,
        } => Ok((
            env.round,
            ModelUpdate {
                client_id: env.client_id as usize,
                params,
                num_samples,
            },
        )),
        other => Err(FedError::CorruptUpdate {
            client_id: env.client_id as usize,
            reason: format!("expected a model upload, got {:?}", other.kind()),
        }),
    }
}

/// Encodes the server's global model as a broadcast frame to `client_id`.
pub fn encode_broadcast(round: u64, client_id: usize, params: &[f32]) -> Vec<u8> {
    Envelope::broadcast(round, client_id as u64, params.to_vec()).encode()
}

/// Encodes the join acknowledgement (initial model) for `client_id`.
pub fn encode_join_ack(client_id: usize, params: &[f32]) -> Vec<u8> {
    Envelope::join_ack(client_id as u64, params.to_vec()).encode()
}

/// Encodes a mid-experiment join acknowledgement: `round` is the last
/// completed round, whose global `params` the joining client installs.
pub fn encode_join_ack_at(round: u64, client_id: usize, params: &[f32]) -> Vec<u8> {
    Envelope::join_ack_at(round, client_id as u64, params.to_vec()).encode()
}

/// Decodes a server→client frame (broadcast or join-ack) into the carried
/// global parameters.
///
/// # Errors
///
/// Returns [`FedError::Wire`] on framing violations, or
/// [`FedError::CorruptUpdate`] if the frame is an upload rather than a
/// downstream message.
pub fn decode_params(frame: &[u8]) -> Result<Vec<f32>, FedError> {
    let env = Envelope::decode(frame)?;
    match env.payload {
        Payload::Broadcast { params } | Payload::JoinAck { params } => Ok(params),
        other => Err(FedError::CorruptUpdate {
            client_id: env.client_id as usize,
            reason: format!("expected a broadcast, got {:?}", other.kind()),
        }),
    }
}

/// The server's sliding window of recently broadcast global models, keyed
/// by round — the references [`CodedUpdate::TopK`] uploads reconstruct
/// against. Round 0 holds the join-handshake θ₁.
///
/// The window is bounded: once more than `capacity` globals have been
/// broadcast, the oldest is evicted and any still-in-flight top-k frame
/// referencing it is rejected at admission (a straggler beyond the window
/// loses its update, accounted as `updates_rejected`).
#[derive(Debug, Clone)]
pub struct ReferenceWindow {
    capacity: usize,
    entries: VecDeque<(u64, Vec<f32>)>,
}

impl ReferenceWindow {
    /// Default window depth: deep enough for every staleness bound the
    /// fault presets schedule, small (8 models) next to one client's
    /// replay buffer.
    pub const DEFAULT_WINDOW: usize = 8;

    /// An empty window holding at most `capacity` (≥ 1) globals.
    pub fn new(capacity: usize) -> Self {
        ReferenceWindow {
            capacity: capacity.max(1),
            entries: VecDeque::new(),
        }
    }

    /// Records the global broadcast at `round`, evicting the oldest entry
    /// beyond capacity. Re-pushing a round replaces its model.
    pub fn push(&mut self, round: u64, params: Vec<f32>) {
        self.entries.retain(|(r, _)| *r != round);
        self.entries.push_back((round, params));
        while self.entries.len() > self.capacity {
            self.entries.pop_front();
        }
    }

    /// The global broadcast at `round`, if still within the window.
    pub fn get(&self, round: u64) -> Option<&[f32]> {
        self.entries
            .iter()
            .find(|(r, _)| *r == round)
            .map(|(_, p)| p.as_slice())
    }

    /// Rounds currently held, oldest first.
    pub fn rounds(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|(r, _)| *r)
    }
}

impl Default for ReferenceWindow {
    fn default() -> Self {
        ReferenceWindow::new(Self::DEFAULT_WINDOW)
    }
}

/// Encodes a client's model update for `round` under `codec`.
///
/// [`Codec::Dense32`] produces the version-1 frame of [`encode_upload`],
/// byte for byte. [`Codec::TopK`] needs `reference` — the
/// `(round, params)` of the global model the client last downloaded; a
/// client with no usable reference (never synced, or the shapes
/// disagree) falls back to a dense frame rather than fabricating a
/// delta.
pub fn encode_upload_with(
    codec: Codec,
    round: u64,
    update: &ModelUpdate,
    reference: Option<(u64, &[f32])>,
) -> Vec<u8> {
    let coded = match codec {
        Codec::Dense32 => return encode_upload(round, update),
        Codec::Q8 => CodedUpdate::quantize_q8(&update.params),
        Codec::Q16 => CodedUpdate::quantize_q16(&update.params),
        Codec::TopK { frac } => match reference {
            Some((ref_round, reference)) if reference.len() == update.params.len() => {
                CodedUpdate::top_k(&update.params, reference, ref_round, frac)
            }
            _ => return encode_upload(round, update),
        },
    };
    Envelope::codec_upload(round, update.client_id as u64, update.num_samples, coded).encode()
}

/// Decodes an upload frame — dense or codec-compressed — back into
/// `(origin_round, ModelUpdate)`, reconstructing a full dense update so
/// the entire aggregation stack (streaming accumulators, robust
/// combiners, server optimizers, fleet merges) stays codec-agnostic.
///
/// `max_version` is the negotiation bound. The round engine passes
/// [`CODEC_VERSION`]; a version-1 decoder passes [`VERSION`], and every
/// codec frame then surfaces as [`FedError::Wire`] with
/// [`WireError::UnsupportedVersion`].
///
/// # Errors
///
/// [`FedError::Wire`] on framing violations (including version
/// negotiation failures), [`FedError::CorruptUpdate`] when the frame is
/// not an upload or a top-k body's reference global is absent from
/// `refs` (evicted or never broadcast).
pub fn decode_upload_with(
    frame: &[u8],
    max_version: u16,
    refs: &ReferenceWindow,
) -> Result<(u64, ModelUpdate), FedError> {
    let env = Envelope::decode_at_most(frame, max_version)?;
    match env.payload {
        Payload::ModelUpload {
            num_samples,
            params,
        } => Ok((
            env.round,
            ModelUpdate {
                client_id: env.client_id as usize,
                params,
                num_samples,
            },
        )),
        Payload::CodecUpload {
            num_samples,
            update,
        } => {
            let reference = update.ref_round().and_then(|r| refs.get(r));
            let mut params = Vec::with_capacity(update.num_params());
            update
                .reconstruct_into(reference, &mut params)
                .map_err(|e| FedError::CorruptUpdate {
                    client_id: env.client_id as usize,
                    reason: e.to_string(),
                })?;
            Ok((
                env.round,
                ModelUpdate {
                    client_id: env.client_id as usize,
                    params,
                    num_samples,
                },
            ))
        }
        other => Err(FedError::CorruptUpdate {
            client_id: env.client_id as usize,
            reason: format!("expected a model upload, got {:?}", other.kind()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update() -> ModelUpdate {
        ModelUpdate {
            client_id: 3,
            params: vec![1.0, -0.5, 2.25],
            num_samples: 40,
        }
    }

    #[test]
    fn upload_round_trips_through_the_federation_types() {
        let frame = encode_upload(12, &update());
        assert_eq!(frame.len(), upload_frame_len(3));
        let (round, back) = decode_upload(&frame).unwrap();
        assert_eq!(round, 12);
        assert_eq!(back, update());
    }

    #[test]
    fn broadcast_and_join_round_trip() {
        let params = vec![0.25, 0.5];
        for frame in [encode_broadcast(4, 1, &params), encode_join_ack(1, &params)] {
            assert_eq!(decode_params(&frame).unwrap(), params);
        }
    }

    #[test]
    fn framing_violations_surface_as_fed_errors() {
        let mut frame = encode_upload(1, &update());
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        assert!(matches!(
            decode_upload(&frame),
            Err(FedError::Wire(WireError::CrcMismatch { .. }))
        ));
        assert!(matches!(
            decode_upload(&frame[..10]),
            Err(FedError::Wire(WireError::Truncated { .. }))
        ));
    }

    #[test]
    fn codec_uploads_reconstruct_to_dense_updates() {
        let refs = {
            let mut w = ReferenceWindow::default();
            w.push(0, vec![0.9, -0.4, 2.0]);
            w
        };
        // Keep-all top-k so every coordinate travels; partial-k drop
        // semantics are covered by the fedpower-wire unit tests.
        for codec in [Codec::Q8, Codec::Q16, Codec::TopK { frac: 1.0 }] {
            let frame = encode_upload_with(codec, 12, &update(), Some((0, refs.get(0).unwrap())));
            assert_eq!(frame.len(), codec.upload_frame_len(3), "{codec}");
            let (round, back) = decode_upload_with(&frame, CODEC_VERSION, &refs).unwrap();
            assert_eq!(round, 12);
            assert_eq!(back.client_id, 3);
            assert_eq!(back.num_samples, 40);
            assert_eq!(back.params.len(), 3);
            // Lossy codecs stay within a quantization step of the source.
            for (a, b) in update().params.iter().zip(&back.params) {
                assert!((a - b).abs() < 0.02, "{codec}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn dense_codec_is_bit_identical_to_the_legacy_encoder() {
        let frame = encode_upload_with(Codec::Dense32, 5, &update(), None);
        assert_eq!(frame, encode_upload(5, &update()));
    }

    #[test]
    fn topk_without_a_reference_falls_back_to_dense() {
        let frame = encode_upload_with(Codec::TopK { frac: 0.5 }, 5, &update(), None);
        assert_eq!(frame, encode_upload(5, &update()));
        // Shape mismatch likewise refuses to fabricate a delta.
        let stale = vec![0.0; 7];
        let frame = encode_upload_with(Codec::TopK { frac: 0.5 }, 5, &update(), Some((2, &stale)));
        assert_eq!(frame, encode_upload(5, &update()));
    }

    #[test]
    fn evicted_topk_reference_is_a_corrupt_update_not_a_panic() {
        let mut refs = ReferenceWindow::new(2);
        refs.push(0, vec![0.0; 3]);
        let frame = encode_upload_with(
            Codec::TopK { frac: 0.5 },
            3,
            &update(),
            Some((0, &[0.0, 0.0, 0.0])),
        );
        // Rounds 1 and 2 push round 0 out of the two-deep window.
        refs.push(1, vec![0.1; 3]);
        refs.push(2, vec![0.2; 3]);
        assert_eq!(refs.rounds().collect::<Vec<_>>(), vec![1, 2]);
        let err = decode_upload_with(&frame, CODEC_VERSION, &refs).unwrap_err();
        assert!(
            matches!(err, FedError::CorruptUpdate { client_id: 3, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn v1_server_rejects_codec_frames_via_version_negotiation() {
        let refs = ReferenceWindow::default();
        let frame = encode_upload_with(Codec::Q8, 2, &update(), None);
        assert!(matches!(
            decode_upload_with(&frame, VERSION, &refs),
            Err(FedError::Wire(WireError::UnsupportedVersion(CODEC_VERSION)))
        ));
        // Dense frames pass the same v1 bound untouched.
        let dense = encode_upload_with(Codec::Dense32, 2, &update(), None);
        assert!(decode_upload_with(&dense, VERSION, &refs).is_ok());
    }

    #[test]
    fn kind_confusion_is_a_corrupt_update() {
        let broadcast = encode_broadcast(1, 2, &[1.0]);
        assert!(matches!(
            decode_upload(&broadcast),
            Err(FedError::CorruptUpdate { client_id: 2, .. })
        ));
        let upload = encode_upload(1, &update());
        assert!(matches!(
            decode_params(&upload),
            Err(FedError::CorruptUpdate { client_id: 3, .. })
        ));
    }
}
