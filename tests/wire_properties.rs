//! Property-based tests for the federation wire protocol: envelopes
//! roundtrip losslessly and any single-bit corruption is rejected.

use fedpower::wire::stream::{prefix_frame, read_frame, FrameReassembler};
use fedpower::wire::{
    broadcast_frame_len, upload_frame_len, Codec, CodedUpdate, Envelope, WireError, VERSION,
};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read};

/// A reader replaying a script of byte chunks, where `None` is a read
/// timeout (`WouldBlock`) and an exhausted script is end of stream.
struct ScriptedReader(VecDeque<Option<Vec<u8>>>);

impl Read for ScriptedReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.0.pop_front() {
            None => Ok(0),
            Some(None) => Err(ErrorKind::WouldBlock.into()),
            Some(Some(mut chunk)) => {
                let n = chunk.len().min(buf.len());
                buf[..n].copy_from_slice(&chunk[..n]);
                if n < chunk.len() {
                    self.0.push_front(Some(chunk.split_off(n)));
                }
                Ok(n)
            }
        }
    }
}

proptest! {
    /// Any finite parameter vector survives encode → decode bit-for-bit,
    /// and the frame is exactly as long as the length helpers promise.
    #[test]
    fn envelopes_roundtrip_losslessly(
        round in 0_u64..1_000_000,
        client in 0_u64..10_000,
        samples in 0_u64..1_000_000,
        params in prop::collection::vec(-1.0e30_f32..1.0e30, 0..256),
    ) {
        let upload = Envelope::model_upload(round, client, samples, params.clone());
        let bytes = upload.encode();
        prop_assert_eq!(bytes.len(), upload_frame_len(params.len()));
        prop_assert_eq!(Envelope::decode(&bytes).expect("valid frame"), upload);

        let broadcast = Envelope::broadcast(round, client, params.clone());
        let bytes = broadcast.encode();
        prop_assert_eq!(bytes.len(), broadcast_frame_len(params.len()));
        prop_assert_eq!(Envelope::decode(&bytes).expect("valid frame"), broadcast);

        let ack = Envelope::join_ack(client, params);
        prop_assert_eq!(Envelope::decode(&ack.encode()).expect("valid frame"), ack);
    }

    /// Flipping any single bit anywhere in a frame makes decoding fail:
    /// either a header check or the CRC-32 trailer catches it.
    #[test]
    fn any_single_bit_flip_is_rejected(
        round in 0_u64..1_000,
        params in prop::collection::vec(-100.0_f32..100.0, 1..64),
        flip in 0_usize..1_000_000,
    ) {
        let mut bytes = Envelope::broadcast(round, 3, params).encode();
        let bit = flip % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            Envelope::decode(&bytes).is_err(),
            "flipped bit {} went undetected",
            bit
        );
    }

    /// A read timeout anywhere inside a frame leaves `read_frame` able to
    /// resume: the bytes that arrived stay in the reassembler, so the next
    /// calls return that frame and the one after it intact.
    #[test]
    fn a_read_timeout_mid_frame_resumes_without_desync(
        first in prop::collection::vec(0_u8..=255, 0..512),
        second in prop::collection::vec(0_u8..=255, 0..64),
        cut in 0_usize..1_000_000,
    ) {
        let mut head = prefix_frame(&first);
        // Cut strictly inside the first frame, length prefix included.
        let mut tail = head.split_off(1 + cut % (head.len() - 1));
        tail.extend_from_slice(&prefix_frame(&second));
        let mut reader = ScriptedReader(VecDeque::from([Some(head), None, Some(tail)]));
        let mut reasm = FrameReassembler::new();
        let mut next = || read_frame(&mut reader, &mut reasm).map_err(|e| e.kind());
        prop_assert_eq!(next(), Err(ErrorKind::WouldBlock));
        prop_assert_eq!(next(), Ok(first));
        prop_assert_eq!(next(), Ok(second));
    }

    /// Truncating a frame at any point short of its full length fails to
    /// decode — no partial reads ever produce a model.
    #[test]
    fn truncated_frames_are_rejected(
        params in prop::collection::vec(-10.0_f32..10.0, 0..32),
        cut in 0_usize..1_000_000,
    ) {
        let bytes = Envelope::model_upload(1, 0, 5, params).encode();
        let keep = cut % bytes.len();
        prop_assert!(Envelope::decode(&bytes[..keep]).is_err());
    }

    /// Linear quantization reconstructs every element within half a
    /// quantization step, for both the 8- and 16-bit codecs, across
    /// random finite tensors.
    #[test]
    fn quantize_dequantize_error_is_bounded_by_half_a_step(
        params in prop::collection::vec(-1.0e4_f32..1.0e4, 1..256),
    ) {
        for (coded, levels) in [
            (CodedUpdate::quantize_q8(&params), 255.0_f64),
            (CodedUpdate::quantize_q16(&params), 65_535.0_f64),
        ] {
            let lo = params.iter().cloned().fold(f32::INFINITY, f32::min) as f64;
            let hi = params.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
            let scale = (hi - lo) / levels;
            // Half a step, plus f32 rounding slack proportional to the
            // tensor's magnitude (the reconstruction `zero + code·scale`
            // rounds at the magnitude of `zero`, not of `scale`).
            let slack = 16.0 * f32::EPSILON as f64 * lo.abs().max(hi.abs()).max(1.0);
            let bound = scale * 0.5 + slack;
            let mut back = Vec::new();
            coded.reconstruct_into(None, &mut back).expect("no reference needed");
            prop_assert_eq!(back.len(), params.len());
            for (p, b) in params.iter().zip(&back) {
                prop_assert!(
                    ((*p as f64) - (*b as f64)).abs() <= bound,
                    "{} vs {} exceeds half-step {}", p, b, bound
                );
            }
        }
    }

    /// Non-finite tensors poison the quantized frame: reconstruction is
    /// non-finite everywhere, so server admission (which requires finite
    /// parameters) rejects the update rather than averaging garbage.
    #[test]
    fn non_finite_tensors_poison_quantization(
        mut params in prop::collection::vec(-10.0_f32..10.0, 1..64),
        poison_at in 0_usize..64,
        poison_kind in 0_usize..3,
    ) {
        let at = poison_at % params.len();
        params[at] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][poison_kind];
        for coded in [CodedUpdate::quantize_q8(&params), CodedUpdate::quantize_q16(&params)] {
            let mut back = Vec::new();
            coded.reconstruct_into(None, &mut back).expect("decodes");
            prop_assert!(back.iter().all(|v| !v.is_finite()));
        }
    }

    /// Top-k encode → decode is exact on the kept indices and returns the
    /// reference verbatim elsewhere.
    #[test]
    fn topk_is_exact_on_kept_indices(
        pairs in prop::collection::vec((-10.0_f32..10.0, -10.0_f32..10.0), 1..128),
        frac in 0.01_f32..1.0,
    ) {
        let reference: Vec<f32> = pairs.iter().map(|(r, _)| *r).collect();
        let params: Vec<f32> = pairs.iter().map(|(_, p)| *p).collect();
        let coded = CodedUpdate::top_k(&params, &reference, 7, frac);
        let kept: Vec<u32> = match &coded {
            CodedUpdate::TopK { indices, .. } => indices.clone(),
            other => panic!("expected TopK, got {other:?}"),
        };
        prop_assert_eq!(kept.len(), Codec::keep_count(frac, params.len()));
        let mut back = Vec::new();
        coded.reconstruct_into(Some(&reference), &mut back).expect("reference present");
        for (i, (p, b)) in params.iter().zip(&back).enumerate() {
            if kept.contains(&(i as u32)) {
                // Kept coordinates reconstruct exactly: ref + (p - ref).
                prop_assert!((p - b).abs() <= f32::EPSILON * 64.0 * p.abs().max(1.0));
            } else {
                prop_assert_eq!(*b, reference[i], "dropped index {} must hold the reference", i);
            }
        }
    }

    /// A codec frame forged to claim wire version 1 (with a re-sealed
    /// CRC) decodes to `UnsupportedVersion` — never a panic, never a
    /// model: version 1 predates codec payloads.
    #[test]
    fn forged_v1_codec_frames_are_unsupported_version(
        params in prop::collection::vec(-10.0_f32..10.0, 1..64),
        samples in 0_u64..1_000,
    ) {
        let coded = CodedUpdate::quantize_q8(&params);
        let mut bytes = Envelope::codec_upload(3, 9, samples, coded).encode();
        // Stamp the version field back to 1 and re-seal the CRC trailer
        // so only the version check can reject it.
        bytes[4..6].copy_from_slice(&VERSION.to_le_bytes());
        let crc = fedpower::wire::crc32(&bytes[..bytes.len() - 4]);
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&crc.to_le_bytes());
        prop_assert!(matches!(
            Envelope::decode(&bytes),
            Err(WireError::UnsupportedVersion(1))
        ));
    }

    /// Codec envelopes round-trip losslessly and their frames are exactly
    /// as long as `Codec::upload_frame_len` promises.
    #[test]
    fn codec_envelopes_roundtrip_at_the_promised_length(
        round in 0_u64..1_000_000,
        client in 0_u64..10_000,
        samples in 0_u64..1_000_000,
        params in prop::collection::vec(-100.0_f32..100.0, 1..128),
        frac in 0.01_f32..1.0,
    ) {
        let reference = vec![0.0_f32; params.len()];
        for (codec, coded) in [
            (Codec::Q8, CodedUpdate::quantize_q8(&params)),
            (Codec::Q16, CodedUpdate::quantize_q16(&params)),
            (Codec::TopK { frac }, CodedUpdate::top_k(&params, &reference, 0, frac)),
        ] {
            let env = Envelope::codec_upload(round, client, samples, coded);
            let bytes = env.encode();
            prop_assert_eq!(bytes.len(), codec.upload_frame_len(params.len()));
            prop_assert_eq!(Envelope::decode(&bytes).expect("valid frame"), env);
        }
    }
}
