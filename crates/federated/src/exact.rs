//! Exact, order-invariant accumulation of `f32` values.
//!
//! Floating-point addition is not associative, so a sum of client
//! parameters folded in one order is *not* bit-identical to the same sum
//! folded in another — which would make hierarchical (sharded)
//! aggregation produce different global models than flat aggregation.
//! [`ExactSum`] removes the problem at the root: every finite `f32` is an
//! integer multiple of 2⁻¹⁴⁹ (the weight of the smallest subnormal bit),
//! so the running sum is kept as a 384-bit two's-complement fixed-point
//! integer at that scale. Integer addition is exactly associative and
//! commutative, therefore
//!
//! * admitting updates in any order,
//! * partitioning them into any number of shard-local partial sums, and
//! * merging the partials in any order
//!
//! all yield the *same accumulator bits*, and the same rounded result on
//! readout. This is the algebraic foundation of
//! [`crate::RoundAccumulator::merge`] and the fleet engine's
//! sharded-equals-flat guarantee.
//!
//! # Capacity
//!
//! The largest finite `f32` scales to about 2²⁷⁷; 384 bits therefore
//! absorb more than 2¹⁰⁵ worst-case addends before the sign bit could be
//! touched — far beyond any federation size this crate will ever see.
//!
//! # The window add
//!
//! A scaled `f32` is a 24-bit mantissa shifted left by at most 253 bits,
//! so it lies inside one 128-bit window of two adjacent limbs, and the
//! limbs above the window hold only its sign extension: all zeros for a
//! positive value, all ones for a negative one, whose window holds the
//! 128-bit two's complement. [`ExactSum::add`] therefore adds the window
//! as one `u128`, then adds to every limb above it the sign extension
//! plus the window's carry. All ones is −1 in each limb, so that is a net
//! +1, 0 or −1 on the integer formed by the upper limbs, and the ripple
//! stops at the first limb it does not wrap. Every step is addition
//! modulo a power of two, so the limbs equal those of the full-width
//! 384-bit add of the same addend — the unit tests keep that add as the
//! oracle — and merges, readouts and equality see the same integer.

/// Number of 64-bit limbs in the fixed-point representation.
const LIMBS: usize = 6;

/// Scale factor 2⁻¹⁴⁹ applied on readout, built bit-exactly (the value is
/// a power of two, so the `f64` is exact).
const TWO_NEG_149: f64 = f64::from_bits(((1023 - 149) as u64) << 52);

/// 2⁶⁴ as an exact `f64`, for folding limbs on readout.
const TWO_64: f64 = 18_446_744_073_709_551_616.0;

/// An exact running sum of `f32` values: a 384-bit two's-complement
/// integer at scale 2⁻¹⁴⁹ (little-endian limbs).
///
/// Adding values ([`ExactSum::add`]) and merging partial sums
/// ([`ExactSum::merge`]) are integer operations, hence exactly
/// associative and commutative; two sums over the same multiset of values
/// are bit-identical regardless of grouping or order.
///
/// ```
/// use fedpower_federated::ExactSum;
/// let mut forward = ExactSum::ZERO;
/// let mut backward = ExactSum::ZERO;
/// let values = [0.1_f32, -2.7e-20, 3.0e10, 1.5e-42];
/// for v in values {
///     forward.add(v);
/// }
/// for v in values.iter().rev() {
///     backward.add(*v);
/// }
/// assert_eq!(forward, backward); // bit-identical, unlike f32 folds
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExactSum {
    limbs: [u64; LIMBS],
}

impl ExactSum {
    /// The empty sum.
    pub const ZERO: ExactSum = ExactSum { limbs: [0; LIMBS] };

    /// Adds one `f32` to the sum, exactly.
    ///
    /// Non-finite inputs are ignored (with a debug assertion): callers in
    /// this crate admission-check values before accumulating, so a NaN or
    /// infinity reaching this point is a caller bug, and silently
    /// poisoning the integer representation would be worse than skipping.
    pub fn add(&mut self, v: f32) {
        if v == 0.0 {
            return; // covers -0.0; the sum is unchanged either way
        }
        if !v.is_finite() {
            debug_assert!(false, "ExactSum::add called with non-finite {v}");
            return;
        }
        let bits = v.to_bits();
        let frac = bits & 0x007f_ffff;
        let exp = (bits >> 23) & 0xff;
        // v = mantissa · 2^(shift − 149): subnormals sit at the bottom of
        // the fixed-point range, normals add the hidden bit and shift by
        // the (biased) exponent.
        let (mantissa, shift) = if exp == 0 {
            (frac, 0u32)
        } else {
            (frac | 0x0080_0000, exp - 1)
        };
        // shift ≤ 253, so the window is limbs `limb` and `limb + 1` ≤ 4, and
        // `wide` holds ≤ 24 + 63 bits.
        let limb = (shift / 64) as usize;
        let wide = (mantissa as u128) << (shift % 64);
        // All ones for a negative value, zero otherwise; `wide` is non-zero,
        // so its 128-bit two's complement never carries out.
        let sign = ((bits as i32) >> 31) as i128 as u128;
        let addend = (wide ^ sign).wrapping_sub(sign);
        let window = u128::from(self.limbs[limb]) | (u128::from(self.limbs[limb + 1]) << 64);
        let (sum, carry) = window.overflowing_add(addend);
        self.limbs[limb] = sum as u64;
        self.limbs[limb + 1] = (sum >> 64) as u64;
        // The limbs above receive the addend's sign extension (all ones,
        // i.e. −1, when negative) plus the carry: a net +1, 0 or −1 as a
        // u64. Branching on the net, not on the sign, keeps the common
        // case (no change above the window) predictable.
        let delta = u64::from(carry).wrapping_sub(u64::from(bits >> 31));
        if delta != 0 {
            // +1 wraps an all-ones limb, −1 a zero limb; the ripple stops
            // at the first limb that does not wrap.
            let wraps = if delta == 1 { u64::MAX } else { 0 };
            for l in &mut self.limbs[limb + 2..] {
                let old = *l;
                *l = old.wrapping_add(delta);
                if old != wraps {
                    break;
                }
            }
        }
    }

    /// Folds another exact sum into this one (integer addition, so the
    /// result is independent of merge order and grouping).
    pub fn merge(&mut self, other: &ExactSum) {
        self.add_limbs(&other.limbs);
    }

    /// Whether the sum is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.limbs == [0; LIMBS]
    }

    /// Reads the sum out as an `f64`.
    ///
    /// The readout rounds (an `f64` cannot hold 384 bits), but it is a
    /// pure function of the exact integer state: equal sums read out
    /// equal, so order-invariance survives the conversion.
    pub fn to_f64(&self) -> f64 {
        let negative = self.limbs[LIMBS - 1] >> 63 == 1;
        let mut magnitude = self.limbs;
        if negative {
            negate(&mut magnitude);
        }
        let mut x = 0.0_f64;
        for &limb in magnitude.iter().rev() {
            x = x * TWO_64 + limb as f64;
        }
        let x = x * TWO_NEG_149;
        if negative {
            -x
        } else {
            x
        }
    }

    /// 384-bit two's-complement addition with carry propagation.
    fn add_limbs(&mut self, rhs: &[u64; LIMBS]) {
        let mut carry = 0u64;
        for (acc, &r) in self.limbs.iter_mut().zip(rhs) {
            let (a, c1) = acc.overflowing_add(r);
            let (b, c2) = a.overflowing_add(carry);
            *acc = b;
            carry = (c1 | c2) as u64;
        }
    }
}

/// In-place two's-complement negation.
fn negate(limbs: &mut [u64; LIMBS]) {
    let mut carry = 1u64;
    for limb in limbs.iter_mut() {
        let (v, c) = (!*limb).overflowing_add(carry);
        *limb = v;
        carry = c as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sum_of(values: &[f32]) -> ExactSum {
        let mut s = ExactSum::ZERO;
        for &v in values {
            s.add(v);
        }
        s
    }

    /// The oracle for [`ExactSum::add`]: build the whole 384-bit addend,
    /// negate it for a negative value, and add it limb by limb.
    fn full_width_add(s: &mut ExactSum, v: f32) {
        if v == 0.0 || !v.is_finite() {
            return;
        }
        let bits = v.to_bits();
        let frac = bits & 0x007f_ffff;
        let exp = (bits >> 23) & 0xff;
        let (mantissa, shift) = if exp == 0 {
            (frac, 0u32)
        } else {
            (frac | 0x0080_0000, exp - 1)
        };
        let mut addend = [0u64; LIMBS];
        let limb = (shift / 64) as usize;
        let wide = (mantissa as u128) << (shift % 64);
        addend[limb] = wide as u64;
        addend[limb + 1] = (wide >> 64) as u64;
        if bits >> 31 == 1 {
            negate(&mut addend);
        }
        s.add_limbs(&addend);
    }

    #[test]
    fn window_add_matches_the_full_width_add_limb_for_limb() {
        let mut rng = StdRng::seed_from_u64(0xe4ac_75e1);
        for case in 0..48 {
            let mut window = ExactSum::ZERO;
            let mut oracle = ExactSum::ZERO;
            let mut step = 0;
            while step < 2_000 {
                let run: Vec<f32> = match rng.random_range(0..4_u32) {
                    // Arbitrary bit patterns: every exponent, both signs.
                    0 => vec![f32::from_bits(rng.random::<u32>())],
                    // Subnormals of either sign: the bottom limb.
                    1 => vec![f32::from_bits(rng.random::<u32>() & 0x807f_ffff)],
                    // A run of ±f32::MAX: the top window, and long borrow
                    // chains when the sign flips the sum.
                    2 => {
                        let max = if rng.random::<bool>() {
                            f32::MAX
                        } else {
                            f32::MIN
                        };
                        vec![max; rng.random_range(1..=40_usize)]
                    }
                    // Cancel the running sum to within its f32 rounding and
                    // nudge it by the smallest subnormal either way, so it
                    // crosses zero and carries or borrows through every limb.
                    _ => {
                        let back = (-oracle.to_f64()).clamp(f32::MIN as f64, f32::MAX as f64);
                        let tiny = f32::from_bits(1);
                        vec![back as f32, tiny, -tiny, -tiny, tiny]
                    }
                };
                for v in run.into_iter().filter(|v| v.is_finite()) {
                    window.add(v);
                    full_width_add(&mut oracle, v);
                    assert_eq!(
                        window.limbs,
                        oracle.limbs,
                        "case {case}, step {step}: adding {v:e} ({:#010x})",
                        v.to_bits()
                    );
                    step += 1;
                }
            }
            assert_eq!(window.to_f64().to_bits(), oracle.to_f64().to_bits());
        }
    }

    #[test]
    fn one_is_represented_exactly() {
        let s = sum_of(&[1.0]);
        // 1.0 scales to 2^149: limb 2 (bits 128..191), bit 21.
        let mut expected = [0u64; LIMBS];
        expected[2] = 1 << 21;
        assert_eq!(s.limbs, expected);
        assert_eq!(s.to_f64(), 1.0);
    }

    #[test]
    fn smallest_subnormal_is_one_ulp_of_the_fixed_point() {
        let tiny = f32::from_bits(1); // 2^-149
        let s = sum_of(&[tiny]);
        assert_eq!(s.limbs[0], 1);
        assert_eq!(s.to_f64(), tiny as f64);
    }

    #[test]
    fn largest_finite_value_fits_with_headroom() {
        let s = sum_of(&[f32::MAX]);
        assert_eq!(s.to_f64(), f32::MAX as f64);
        assert_eq!(s.limbs[5], 0, "top limb stays free for carries");
    }

    #[test]
    fn negation_and_cancellation_are_exact() {
        let values = [0.1_f32, -2.5e-30, 3.7e20, 1.5e-42, -0.1];
        let mut s = sum_of(&values);
        for &v in &values {
            s.add(-v);
        }
        assert!(s.is_zero(), "{s:?}");
        assert_eq!(s.to_f64(), 0.0);
        assert_eq!(s, ExactSum::ZERO);
    }

    #[test]
    fn negative_sums_read_out_negative() {
        let s = sum_of(&[-2.5, 1.0]);
        assert_eq!(s.to_f64(), -1.5);
    }

    #[test]
    fn zero_and_negative_zero_are_no_ops() {
        let mut s = sum_of(&[3.25]);
        s.add(0.0);
        s.add(-0.0);
        assert_eq!(s.to_f64(), 3.25);
    }

    #[test]
    fn order_never_changes_the_bits() {
        // Mixed magnitudes where f32 folding visibly depends on order.
        let values: Vec<f32> = (0..200)
            .map(|i| {
                let m = (i as f32 * 0.731).sin();
                m * 10f32.powi((i % 37) - 18)
            })
            .collect();
        let forward = sum_of(&values);
        let reversed: Vec<f32> = values.iter().rev().copied().collect();
        assert_eq!(forward, sum_of(&reversed));
        // Interleaved partition then merge.
        let (evens, odds): (Vec<_>, Vec<_>) =
            values.iter().enumerate().partition(|(i, _)| i % 2 == 0);
        let mut merged = sum_of(&evens.into_iter().map(|(_, &v)| v).collect::<Vec<_>>());
        merged.merge(&sum_of(
            &odds.into_iter().map(|(_, &v)| v).collect::<Vec<_>>(),
        ));
        assert_eq!(forward, merged);
        // The plain f32 fold genuinely differs between orders here, which
        // is the whole reason this type exists.
        let f32_fwd: f32 = values.iter().sum();
        let f32_rev: f32 = reversed.iter().sum();
        assert_ne!(f32_fwd.to_bits(), f32_rev.to_bits());
    }

    #[test]
    fn readout_matches_f64_reference_for_moderate_values() {
        let values: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).cos() * 8.0).collect();
        let reference: f64 = values.iter().map(|&v| v as f64).sum();
        let exact = sum_of(&values).to_f64();
        // The f64 reference itself rounds per step; agreement within a few
        // ulps is the most that can be asserted.
        assert!(
            (exact - reference).abs() <= reference.abs() * 1e-12,
            "{exact} vs {reference}"
        );
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let a = sum_of(&[1.5e-30, -7.25]);
        let b = sum_of(&[3.0e20, 1e-44]);
        let c = sum_of(&[-2.0, 0.1]);
        let mut ab_c = a;
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        let mut cba = c;
        cba.merge(&b);
        cba.merge(&a);
        assert_eq!(ab_c, cba);
    }
}
