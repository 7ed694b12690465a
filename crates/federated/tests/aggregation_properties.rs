//! Property-based tests of the aggregation rules' formal guarantees.

use fedpower_federated::{
    AggregationServer, AggregationStrategy, ExactSum, FedError, ModelUpdate, RoundAccumulator,
};
use proptest::prelude::*;

fn update(id: usize, params: Vec<f32>, samples: u64) -> ModelUpdate {
    ModelUpdate {
        client_id: id,
        params,
        num_samples: samples,
    }
}

/// Admits each update at unit weight and commits the round.
fn round<'a>(
    server: &'a mut AggregationServer,
    updates: &[ModelUpdate],
) -> Result<&'a [f32], FedError> {
    let mut acc = server.accumulator();
    for u in updates {
        acc.admit(u.clone(), 1.0)?;
    }
    server.commit_round(acc)
}

fn models(n_models: usize, len: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(
        prop::collection::vec(-10.0_f32..10.0, len..=len),
        n_models..=n_models,
    )
}

/// A parameter drawn to make the accumulator's `f64` lanes spill: every
/// exponent and sign, subnormals, zeros of both signs, ±`f32::MAX` (whose
/// square saturates) and parameter-sized values.
fn spread_value(kind: u32, bits: u32) -> f32 {
    match kind {
        0 | 1 => {
            let v = f32::from_bits(bits);
            if v.is_finite() {
                v
            } else {
                f32::MAX.copysign(v)
            }
        }
        2 => f32::from_bits(bits & 0x807f_ffff),
        3 => [0.0, -0.0, f32::MAX, f32::MIN][bits as usize % 4],
        _ => bits as f32 / u32::MAX as f32 - 0.5,
    }
}

/// `n` models of `len` spread values; where `mirror[i]` names an earlier
/// model, model `i` is its exact negation instead.
fn spread_models(n: usize, len: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    (
        prop::collection::vec(
            prop::collection::vec((0_u32..6, 0_u32..=u32::MAX), len..=len),
            n..=n,
        ),
        prop::collection::vec(0_usize..2 * n, n..=n),
    )
        .prop_map(|(raw, mirror)| {
            let mut models: Vec<Vec<f32>> = Vec::with_capacity(raw.len());
            for (i, row) in raw.iter().enumerate() {
                let model = match mirror[i] {
                    k if k < i => models[k].iter().map(|v| -v).collect(),
                    _ => row
                        .iter()
                        .map(|&(kind, bits)| spread_value(kind, bits))
                        .collect(),
                };
                models.push(model);
            }
            models
        })
}

/// What a per-value [`ExactSum`] fold of the same admissions reads out:
/// the committed model and the divergence, as `RoundAccumulator` defines
/// them.
fn per_value_fold(models: &[Vec<f32>], weights: &[f32]) -> (Vec<f32>, f32) {
    let len = models[0].len();
    let (mut sum, mut sumsq) = (vec![ExactSum::ZERO; len], vec![ExactSum::ZERO; len]);
    let mut correction = vec![ExactSum::ZERO; len];
    let mut total_weight = ExactSum::ZERO;
    for (model, &w) in models.iter().zip(weights) {
        for (j, &p) in model.iter().enumerate() {
            sum[j].add(p);
            sumsq[j].add((p * p).min(f32::MAX));
            if w != 1.0 {
                correction[j].add((w * p).clamp(f32::MIN, f32::MAX));
                correction[j].add(-p);
            }
        }
        total_weight.add(w);
    }
    let m = models.len() as f64;
    let mut total = 0.0_f64;
    for (s, q) in sum.iter().zip(&sumsq) {
        let mean = s.to_f64() / m;
        total += (q.to_f64() - m * mean * mean).max(0.0);
    }
    let divergence = (total / m).sqrt() as f32;
    let global = if weights.iter().all(|&w| w == 1.0) {
        sum.iter().map(|s| (s.to_f64() / m) as f32).collect()
    } else {
        let total = total_weight.to_f64();
        sum.iter()
            .zip(&correction)
            .map(|(s, c)| {
                let mut s = *s;
                s.merge(c);
                (s.to_f64() / total) as f32
            })
            .collect()
    };
    (global, divergence)
}

proptest! {
    /// Every aggregation rule produces values inside the per-coordinate
    /// envelope of the inputs (no rule can extrapolate).
    #[test]
    fn aggregates_stay_in_envelope(
        params in (2_usize..6, 1_usize..20).prop_flat_map(|(n, len)| models(n, len)),
    ) {
        let len = params[0].len();
        let updates: Vec<ModelUpdate> = params
            .iter()
            .enumerate()
            .map(|(i, p)| update(i, p.clone(), (i as u64 + 1) * 10))
            .collect();
        let n = updates.len();
        let strategies = [
            AggregationStrategy::Uniform,
            AggregationStrategy::SampleWeighted,
            AggregationStrategy::CoordinateMedian,
            AggregationStrategy::TrimmedMean { trim_each_side: (n - 1) / 2 },
        ];
        for strategy in strategies {
            let mut server = AggregationServer::new(vec![0.0; len], strategy);
            let global = round(&mut server, &updates).expect("valid round").to_vec();
            for i in 0..len {
                let lo = params.iter().map(|p| p[i]).fold(f32::INFINITY, f32::min);
                let hi = params.iter().map(|p| p[i]).fold(f32::NEG_INFINITY, f32::max);
                prop_assert!(
                    (lo - 1e-4..=hi + 1e-4).contains(&global[i]),
                    "{strategy:?} escaped envelope at {i}: {} not in [{lo}, {hi}]",
                    global[i]
                );
            }
        }
    }

    /// Aggregation of identical models is the identity under every rule.
    #[test]
    fn identical_models_are_fixed_points(
        p in prop::collection::vec(-5.0_f32..5.0, 1..30),
        n in 2_usize..6,
    ) {
        let updates: Vec<ModelUpdate> =
            (0..n).map(|i| update(i, p.clone(), 7)).collect();
        for strategy in [
            AggregationStrategy::Uniform,
            AggregationStrategy::SampleWeighted,
            AggregationStrategy::CoordinateMedian,
        ] {
            let mut server = AggregationServer::new(vec![0.0; p.len()], strategy);
            let global = round(&mut server, &updates).expect("valid round");
            for (g, e) in global.iter().zip(&p) {
                prop_assert!((g - e).abs() < 1e-6);
            }
        }
    }

    /// Shard-and-merge is exact: folding updates through any partition of
    /// per-shard [`RoundAccumulator`]s and merging the partials — in
    /// forward order, reverse order, or as a pairwise tree — is
    /// **bit-identical** to admitting every update into one flat
    /// accumulator, including the accumulator state itself, the committed
    /// global, the admitted count, and the divergence estimate. This is
    /// the associativity/commutativity contract the hierarchical fleet
    /// topology is built on.
    #[test]
    fn sharded_merge_is_bit_identical_to_the_flat_accumulator(
        (params, assignment, discounted, uniform) in (2_usize..10, 1_usize..8)
            .prop_flat_map(|(n, len)| (
                models(n, len),
                prop::collection::vec(0_usize..4, n..=n),
                prop::collection::vec(0_usize..4, n..=n),
                0_usize..2,
            )),
    ) {
        let strategy = if uniform == 0 {
            AggregationStrategy::Uniform
        } else {
            AggregationStrategy::SampleWeighted
        };
        let len = params[0].len();
        let updates: Vec<ModelUpdate> = params
            .iter()
            .enumerate()
            .map(|(i, p)| update(i, p.clone(), (i as u64 + 1) * 3))
            .collect();
        // Stale updates carry a discounted weight, exercising the
        // weighted commit path alongside the unit-weight one; zero is a
        // discount that underflowed. Half the updates are fresh, so
        // all-fresh rounds stay common.
        let weights: Vec<f32> = discounted
            .iter()
            .map(|&d| match d {
                2 => 0.5,
                3 => 0.0,
                _ => 1.0,
            })
            .collect();

        let fold = |indices: &[usize]| {
            let mut acc = RoundAccumulator::for_model(strategy, len);
            for &i in indices {
                acc.admit(updates[i].clone(), weights[i]).expect("valid update");
            }
            acc
        };
        let shard = |s: usize| {
            let members: Vec<usize> =
                (0..updates.len()).filter(|&i| assignment[i] == s).collect();
            fold(&members)
        };
        let flat = fold(&(0..updates.len()).collect::<Vec<_>>());

        let mut forward = RoundAccumulator::for_model(strategy, len);
        for s in 0..4 {
            forward.merge(shard(s)).expect("same shape and strategy");
        }
        let mut reverse = RoundAccumulator::for_model(strategy, len);
        for s in (0..4).rev() {
            reverse.merge(shard(s)).expect("same shape and strategy");
        }
        let mut left = shard(0);
        left.merge(shard(1)).expect("same shape and strategy");
        let mut right = shard(2);
        right.merge(shard(3)).expect("same shape and strategy");
        let mut tree = left;
        tree.merge(right).expect("same shape and strategy");

        let reference = AggregationServer::new(vec![0.25; len], strategy);
        // A round whose weights are all zero has no mean: every
        // partition must refuse it alike.
        let commit = |acc: RoundAccumulator| {
            let mut server = reference.clone();
            server.commit_round(acc).map(<[f32]>::to_vec)
        };
        let expected_global = commit(flat.clone());
        let expected_divergence = flat.divergence();
        let expected_admitted = flat.admitted();
        for (label, acc) in [("forward", forward), ("reverse", reverse), ("tree", tree)] {
            prop_assert_eq!(&acc, &flat, "{} accumulator state", label);
            prop_assert_eq!(acc.admitted(), expected_admitted, "{} admitted", label);
            prop_assert_eq!(
                acc.divergence().to_bits(),
                expected_divergence.to_bits(),
                "{} divergence bits",
                label
            );
            match (commit(acc), &expected_global) {
                (Ok(global), Ok(expected)) => {
                    for (i, (a, b)) in global.iter().zip(expected).enumerate() {
                        prop_assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{} coordinate {} differs: {} vs {}",
                            label, i, a, b
                        );
                    }
                }
                (got, expected) => prop_assert_eq!(&got, expected, "{} commit", label),
            }
        }
    }

    /// The median tolerates any minority of arbitrarily corrupted clients.
    #[test]
    fn median_resists_minority_poison(
        honest in prop::collection::vec(0.9_f32..1.1, 5..=5),
        poison in -1e6_f32..1e6,
    ) {
        // 3 honest, 2 byzantine — median must land in the honest range.
        let mut updates: Vec<ModelUpdate> = honest[..3]
            .iter()
            .enumerate()
            .map(|(i, &v)| update(i, vec![v], 1))
            .collect();
        updates.push(update(3, vec![poison], 1));
        updates.push(update(4, vec![-poison], 1));
        let mut server = AggregationServer::new(vec![0.0], AggregationStrategy::CoordinateMedian);
        let global = round(&mut server, &updates).expect("valid round");
        prop_assert!(
            (0.9..=1.1).contains(&global[0]),
            "median {} escaped honest range",
            global[0]
        );
    }

    /// A round whose clients upload under a mix of codecs (dense, q8,
    /// q16, keep-all top-k) commits within quantization tolerance of the
    /// all-dense round: decode reconstructs full dense updates before
    /// admission, so the accumulator itself is codec-agnostic.
    #[test]
    fn mixed_codec_rounds_match_dense_within_quantization_tolerance(
        params in (3_usize..7, 1_usize..20).prop_flat_map(|(n, len)| models(n, len)),
    ) {
        use fedpower_federated::wire;

        let len = params[0].len();
        let reference = vec![0.0_f32; len];
        let mut refs = wire::ReferenceWindow::default();
        refs.push(0, reference.clone());
        let codecs = [
            wire::Codec::Dense32,
            wire::Codec::Q8,
            wire::Codec::Q16,
            wire::Codec::TopK { frac: 1.0 },
        ];

        let mut dense = RoundAccumulator::for_model(AggregationStrategy::Uniform, len);
        let mut mixed = RoundAccumulator::for_model(AggregationStrategy::Uniform, len);
        for (i, p) in params.iter().enumerate() {
            let u = update(i, p.clone(), (i as u64 + 1) * 5);
            dense.admit(u.clone(), 1.0).expect("dense admits");
            let codec = codecs[i % codecs.len()];
            let frame = wire::encode_upload_with(codec, 1, &u, Some((0, &reference)));
            let (_, decoded) = wire::decode_upload_with(&frame, wire::CODEC_VERSION, &refs)
                .expect("codec frame decodes");
            mixed.admit(decoded, 1.0).expect("mixed admits");
        }
        let mut dense_server =
            AggregationServer::new(vec![0.0; len], AggregationStrategy::Uniform);
        let mut mixed_server =
            AggregationServer::new(vec![0.0; len], AggregationStrategy::Uniform);
        let dense_global = dense_server.commit_round(dense).expect("commits").to_vec();
        let mixed_global = mixed_server.commit_round(mixed).expect("commits").to_vec();
        // Worst per-element codec error is q8's half step: with inputs in
        // ±10, scale ≤ 20/255 so half a step is under 0.04; averaging
        // never amplifies it.
        for (i, (d, m)) in dense_global.iter().zip(&mixed_global).enumerate() {
            prop_assert!(
                (d - m).abs() <= 0.05,
                "coordinate {} differs beyond quantization: dense {} vs mixed {}",
                i, d, m
            );
        }
    }
}

proptest! {
    /// Admission stays exact when the per-coordinate values span many
    /// binades, so that the accumulator's `f64` lanes keep spilling into
    /// their exact limbs: a flat fold and forward, reverse and tree merges
    /// of shards hold the same accumulator, and read out the divergence and
    /// the committed model bit for bit as a per-value [`ExactSum`] fold of
    /// the same admissions does.
    #[test]
    fn wide_spread_rounds_match_the_per_value_fold(
        (models, assignment, stale) in (2_usize..12, 1_usize..20).prop_flat_map(|(n, len)| (
            spread_models(n, len),
            prop::collection::vec(0_usize..4, n..=n),
            prop::collection::vec(0_usize..4, n..=n),
        )),
    ) {
        let len = models[0].len();
        // A quarter of the updates are stale, at half weight.
        let weights: Vec<f32> = stale.iter().map(|&s| if s == 0 { 0.5 } else { 1.0 }).collect();
        let fold = |members: &[usize]| {
            let mut acc = RoundAccumulator::for_model(AggregationStrategy::Uniform, len);
            for &i in members {
                acc.admit(update(i, models[i].clone(), 1), weights[i]).expect("finite update");
            }
            acc
        };
        let shard = |s: usize| {
            fold(&(0..models.len()).filter(|&i| assignment[i] == s).collect::<Vec<_>>())
        };
        let flat = fold(&(0..models.len()).collect::<Vec<_>>());
        let merged = |order: [usize; 4]| {
            let mut acc = RoundAccumulator::for_model(AggregationStrategy::Uniform, len);
            for s in order {
                acc.merge(shard(s)).expect("same shape and strategy");
            }
            acc
        };
        let mut tree = shard(0);
        tree.merge(shard(1)).expect("same shape and strategy");
        let mut right = shard(2);
        right.merge(shard(3)).expect("same shape and strategy");
        tree.merge(right).expect("same shape and strategy");

        let (expected_global, expected_divergence) = per_value_fold(&models, &weights);
        for (label, acc) in [
            ("flat", flat.clone()),
            ("forward", merged([0, 1, 2, 3])),
            ("reverse", merged([3, 2, 1, 0])),
            ("tree", tree),
        ] {
            prop_assert_eq!(&acc, &flat, "{} accumulator state", label);
            prop_assert_eq!(
                acc.divergence().to_bits(),
                expected_divergence.to_bits(),
                "{} divergence bits",
                label
            );
            let mut server = AggregationServer::new(vec![0.0; len], AggregationStrategy::Uniform);
            let global = server.commit_round(acc).expect("positive weights commit");
            for (j, (a, b)) in global.iter().zip(&expected_global).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} coordinate {}: {} vs {}",
                    label, j, a, b
                );
            }
        }
    }
}
