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
//! [`ExactSum::add_f64`] adds an `f64` multiple of 2⁻¹⁴⁹ the same way: its
//! 53-bit mantissa fits the window too.
//!
//! # Lanes
//!
//! The round accumulator keeps two sums per model coordinate and adds
//! every admitted upload to both. [`LaneSums`] holds each coordinate's sum
//! in an `f64` lane for as long as every add to it is exact, which an
//! `f64` sum of `f32`s is while it spans at most 53 bits: the common case
//! for model parameters. Only adds that would round reach the limbs,
//! which are allocated at the first one. A lane is checked with three
//! flops and two compares, against a window add per value, and eight
//! bytes against forty-eight. The limbs plus the lane are the same
//! integer a per-value fold reaches, so [`ExactSum`] stays the
//! representation of record: equality and readout go through it.

/// Number of 64-bit limbs in the fixed-point representation.
const LIMBS: usize = 6;

/// Scale factor 2⁻¹⁴⁹ applied on readout, built bit-exactly (the value is
/// a power of two, so the `f64` is exact).
const TWO_NEG_149: f64 = f64::from_bits(((1023 - 149) as u64) << 52);

/// 2⁶⁴ as an exact `f64`, for folding limbs on readout.
const TWO_64: f64 = 18_446_744_073_709_551_616.0;

/// 2²²³, the bound on [`ExactSum::add_f64`]'s input magnitude.
const TWO_223: f64 = f64::from_bits(((1023 + 223) as u64) << 52);

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
        self.add_window(u64::from(mantissa), shift, bits >> 31 == 1);
    }

    /// Adds one `f64` that is an integer multiple of 2⁻¹⁴⁹ (for example
    /// an exact sum of `f32` values) to the sum, exactly, with one window
    /// add.
    ///
    /// The value's 53-bit mantissa shifted by at most 63 bits fits one
    /// 128-bit window just as an `f32`'s does. The value must be finite,
    /// a multiple of 2⁻¹⁴⁹ and smaller than 2²²³ in magnitude, so that the
    /// window lies below the top limb; this is checked in debug builds
    /// only, like [`ExactSum::add`]'s non-finite guard.
    pub fn add_f64(&mut self, v: f64) {
        if v == 0.0 {
            return;
        }
        debug_assert!(
            v.is_finite() && v.abs() < TWO_223 && (v / TWO_NEG_149).fract() == 0.0,
            "ExactSum::add_f64 called with {v:e}, outside its domain"
        );
        let bits = v.to_bits();
        // |v| ≥ 2⁻¹⁴⁹ is far above the f64 subnormals, so the hidden bit is
        // set: v = mantissa · 2^(exp − 1075) = mantissa · 2^(exp − 926 − 149).
        let exp = ((bits >> 52) & 0x7ff) as i32;
        let mantissa = (bits & ((1 << 52) - 1)) | (1 << 52);
        let shift = exp - 926;
        // Below the fixed point's unit, v's lowest −shift ≤ 52 mantissa bits
        // are zero (v is a multiple of 2⁻¹⁴⁹), so shifting them out is
        // exact. shift < 320 for |v| < 2²²³.
        let (mantissa, shift) = if shift < 0 {
            (mantissa >> -shift, 0)
        } else {
            (mantissa, shift as u32)
        };
        self.add_window(mantissa, shift, bits >> 63 == 1);
    }

    /// Adds `±mantissa · 2^shift` (at the 2⁻¹⁴⁹ scale) through the
    /// 128-bit window of limbs `shift / 64` and `shift / 64 + 1`, then
    /// ripples the window's net carry into the limbs above. `mantissa` is
    /// non-zero and below 2⁵³, and `shift < 320`.
    #[inline]
    fn add_window(&mut self, mantissa: u64, shift: u32, negative: bool) {
        let limb = (shift / 64) as usize;
        let wide = u128::from(mantissa) << (shift % 64);
        // All ones for a negative value, zero otherwise; `wide` is non-zero,
        // so its 128-bit two's complement never carries out.
        let sign = (negative as u128).wrapping_neg();
        let addend = (wide ^ sign).wrapping_sub(sign);
        let window = u128::from(self.limbs[limb]) | (u128::from(self.limbs[limb + 1]) << 64);
        let (sum, carry) = window.overflowing_add(addend);
        self.limbs[limb] = sum as u64;
        self.limbs[limb + 1] = (sum >> 64) as u64;
        // The limbs above receive the addend's sign extension (all ones,
        // i.e. −1, when negative) plus the carry: a net +1, 0 or −1 as a
        // u64. Branching on the net, not on the sign, keeps the common
        // case (no change above the window) predictable.
        let delta = u64::from(carry).wrapping_sub(u64::from(negative));
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

/// Coordinates whose lane adds [`LaneSums::add`] checks with one branch.
const LANE_CHUNK: usize = 8;

/// `s + x` and whether that add was exact.
///
/// With round-to-nearest, whichever of `a − x` and `a − s` subtracts the
/// operand of larger magnitude is computed exactly (Dekker's Fast2Sum),
/// so both differences come back as `s` and `x` only when `a` is the
/// exact sum: the add's TwoSum error is zero. An add that overflows to
/// infinity fails the check too.
#[inline]
fn checked_add(s: f64, x: f64) -> (f64, bool) {
    let a = s + x;
    (a, (a - x == s) & (a - s == x))
}

/// Exact per-coordinate running sums of finite `f32` values, kept in
/// `f64` lanes as far as the lanes hold them.
///
/// Each coordinate has an `f64` lane, and from the first add that a lane
/// could not hold exactly, every coordinate also has an [`ExactSum`] (its
/// limbs). A lane only ever takes exact adds ([`checked_add`]), so it
/// holds an exact sum of `f32`s, a multiple of 2⁻¹⁴⁹, and the limbs plus
/// the lane ([`LaneSums::settled`]) are the same 384-bit integer that a
/// per-value [`ExactSum::add`] fold of the same values reaches, in any
/// order and over any partition.
///
/// A coordinate without limbs reads out as its lane: an integer that fits
/// an `f64` reads out through [`ExactSum::to_f64`] as exactly that `f64`.
#[derive(Debug, Clone)]
pub(crate) struct LaneSums {
    lanes: Vec<f64>,
    /// One per coordinate, or empty until the first inexact lane add.
    limbs: Vec<ExactSum>,
}

impl LaneSums {
    /// `len` zero sums.
    pub(crate) fn zeroed(len: usize) -> Self {
        LaneSums {
            lanes: vec![0.0; len],
            limbs: Vec::new(),
        }
    }

    /// Adds `f(values[j])` to coordinate `j`'s sum, for every `j`; each
    /// `f(values[j])` must be finite.
    ///
    /// A chunk of [`LANE_CHUNK`] coordinates whose lane adds are all exact
    /// is checked without branching and stored at once. A chunk with any
    /// inexact add leaves its lanes as they are and adds each of its
    /// values into the coordinate's limbs, one window add each. Sending
    /// the whole chunk there avoids a branch on which adds were inexact,
    /// which mispredicts about half the time when a coordinate's values
    /// spread over many binades; so a chunk costs at most one check plus
    /// the window adds that a per-value fold makes.
    pub(crate) fn add(&mut self, values: &[f32], f: impl Fn(f32) -> f32) {
        debug_assert_eq!(values.len(), self.lanes.len());
        let len = self.lanes.len();
        let mut lane_chunks = self.lanes.chunks_exact_mut(LANE_CHUNK);
        let mut value_chunks = values.chunks_exact(LANE_CHUNK);
        for (c, (lanes, vals)) in (&mut lane_chunks).zip(&mut value_chunks).enumerate() {
            if !add_exact(lanes, vals, &f) {
                add_to_limbs(&mut self.limbs, len, c * LANE_CHUNK, vals, &f);
            }
        }
        let (lanes, vals) = (lane_chunks.into_remainder(), value_chunks.remainder());
        if !add_exact(lanes, vals, &f) {
            add_to_limbs(&mut self.limbs, len, len - vals.len(), vals, &f);
        }
    }

    /// Folds `other` into these sums: its lanes through the same checked
    /// add (a lane that would round goes into the coordinate's limbs), and
    /// its limbs only where either side has some.
    pub(crate) fn merge(&mut self, other: LaneSums) {
        debug_assert_eq!(other.lanes.len(), self.lanes.len());
        if !other.limbs.is_empty() {
            if self.limbs.is_empty() {
                self.limbs = other.limbs;
            } else {
                for (a, b) in self.limbs.iter_mut().zip(&other.limbs) {
                    a.merge(b);
                }
            }
        }
        let len = self.lanes.len();
        for (j, (s, o)) in self.lanes.iter_mut().zip(other.lanes).enumerate() {
            match checked_add(*s, o) {
                (a, true) => *s = a,
                _ => limbs_mut(&mut self.limbs, len)[j].add_f64(o),
            }
        }
    }

    /// Coordinate `j`'s sum as one [`ExactSum`]: its limbs plus its lane.
    pub(crate) fn settled(&self, j: usize) -> ExactSum {
        let mut sum = self.limbs.get(j).copied().unwrap_or(ExactSum::ZERO);
        sum.add_f64(self.lanes[j]);
        sum
    }

    /// Coordinate `j`'s sum read out as an `f64`: bit for bit
    /// `self.settled(j).to_f64()`.
    pub(crate) fn to_f64(&self, j: usize) -> f64 {
        if self.limbs.is_empty() {
            self.lanes[j]
        } else {
            self.settled(j).to_f64()
        }
    }
}

/// Sums compare as the integers they hold, however those are split
/// between lanes and limbs.
impl PartialEq for LaneSums {
    fn eq(&self, other: &Self) -> bool {
        self.lanes.len() == other.lanes.len()
            && (0..self.lanes.len()).all(|j| self.settled(j) == other.settled(j))
    }
}

/// Adds `f(vals[i])` to `lanes[i]` for every `i` (at most
/// [`LANE_CHUNK`]) if every one of those adds is exact; otherwise changes
/// nothing and returns `false`.
#[inline(always)]
fn add_exact(lanes: &mut [f64], vals: &[f32], f: &impl Fn(f32) -> f32) -> bool {
    let mut sums = [0.0; LANE_CHUNK];
    let mut exact = true;
    for ((sum, &s), &v) in sums.iter_mut().zip(lanes.iter()).zip(vals) {
        let (a, ok) = checked_add(s, f64::from(f(v)));
        *sum = a;
        exact &= ok;
    }
    if exact {
        lanes.copy_from_slice(&sums[..lanes.len()]);
    }
    exact
}

/// Adds `f(vals[i])` to the limbs of coordinate `first + i`, for every `i`.
fn add_to_limbs(
    limbs: &mut Vec<ExactSum>,
    len: usize,
    first: usize,
    vals: &[f32],
    f: &impl Fn(f32) -> f32,
) {
    for (l, &v) in limbs_mut(limbs, len)[first..].iter_mut().zip(vals) {
        l.add(f(v));
    }
}

/// Every coordinate's limbs, allocated on first use.
fn limbs_mut(limbs: &mut Vec<ExactSum>, len: usize) -> &mut [ExactSum] {
    if limbs.is_empty() {
        limbs.resize(len, ExactSum::ZERO);
    }
    limbs
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

    /// The oracle for [`ExactSum::add_f64`]: split |v|·2¹⁴⁹ into 64-bit
    /// limbs by `f64` division (each quotient and remainder is exact),
    /// negate the whole addend for a negative value, and add it limb by
    /// limb.
    fn full_width_add_f64(s: &mut ExactSum, v: f64) {
        let mut rest = v.abs() / TWO_NEG_149;
        let mut addend = [0u64; LIMBS];
        for limb in &mut addend {
            let high = (rest / TWO_64).floor();
            *limb = (rest - high * TWO_64) as u64;
            rest = high;
        }
        assert_eq!(rest, 0.0, "{v:e} is outside the fixed-point range");
        if v < 0.0 {
            negate(&mut addend);
        }
        s.add_limbs(&addend);
    }

    /// `m · 2^k` for a mantissa below 2⁵³ and −149 ≤ k ≤ 170: an exact
    /// `f64` inside [`ExactSum::add_f64`]'s domain.
    fn scaled(m: u64, k: i32) -> f64 {
        (m as f64) * f64::from_bits(((1023 + k) as u64) << 52)
    }

    #[test]
    fn f64_window_add_matches_the_full_width_add_limb_for_limb() {
        let mut rng = StdRng::seed_from_u64(0xf64a_dd01);
        for case in 0..48 {
            let mut window = ExactSum::ZERO;
            let mut oracle = ExactSum::ZERO;
            for step in 0..2_000 {
                let v = match rng.random_range(0..6_u32) {
                    // Any mantissa width at any in-domain exponent.
                    0 | 1 => {
                        let m = rng.random::<u64>() >> rng.random_range(11..64_u32);
                        scaled(m, rng.random_range(-149..=170))
                    }
                    // Near the bottom: the mantissa's trailing zeros are
                    // shifted out below the fixed point's unit.
                    2 => scaled(rng.random::<u64>() >> 11, rng.random_range(-149..=-97)),
                    // The ends of the domain, and zeros.
                    3 => [
                        TWO_NEG_149,
                        scaled((1 << 53) - 1, 170),
                        0.0,
                        -0.0,
                        f64::from(f32::MAX),
                    ][rng.random_range(0..5_usize)],
                    // Any finite f32.
                    4 => f64::from(finite(f32::from_bits(rng.random()))),
                    // Cancel the running sum to within its f64 rounding, so
                    // it crosses zero and borrows through the upper limbs.
                    _ => {
                        let top = scaled((1 << 53) - 1, 170);
                        let back = oracle.to_f64().clamp(-top, top);
                        -(back / TWO_NEG_149).round() * TWO_NEG_149
                    }
                };
                let v = if rng.random::<bool>() { v } else { -v };
                window.add_f64(v);
                full_width_add_f64(&mut oracle, v);
                assert_eq!(
                    window.limbs,
                    oracle.limbs,
                    "case {case}, step {step}: adding {v:e} ({:#018x})",
                    v.to_bits()
                );
                // Interleaved f32 adds share the limbs.
                let w = finite(f32::from_bits(rng.random()));
                window.add(w);
                full_width_add(&mut oracle, w);
                assert_eq!(
                    window.limbs, oracle.limbs,
                    "case {case}, step {step}: {w:e}"
                );
            }
        }
    }

    #[test]
    fn an_exact_f64_sum_of_f32s_adds_like_its_parts() {
        // The parts span 2² down to 2⁻⁴³, fewer than 53 bits, so their f64
        // sum is exact in any order.
        let parts = [0.1_f32, -7.25, 3.5e-3, 1.0e-6];
        let mut whole = ExactSum::ZERO;
        whole.add_f64(parts.iter().map(|&p| f64::from(p)).sum());
        assert_eq!(whole, sum_of(&parts));
        whole.add_f64(0.0);
        whole.add_f64(-0.0);
        assert_eq!(whole, sum_of(&parts));
    }

    /// `v`, or ±`f32::MAX` in place of an infinity or NaN.
    fn finite(v: f32) -> f32 {
        if v.is_finite() {
            v
        } else {
            f32::MAX.copysign(v)
        }
    }

    /// A value drawn to stress the lanes: every exponent, both signs,
    /// subnormals, zeros of both signs, ±`f32::MAX` (whose square
    /// saturates) and ordinary parameter-sized values.
    fn stress_value(rng: &mut StdRng) -> f32 {
        match rng.random_range(0..8_u32) {
            0 | 1 => finite(f32::from_bits(rng.random())),
            2 => f32::from_bits(rng.random::<u32>() & 0x807f_ffff),
            3 => [0.0, -0.0, f32::MAX, f32::MIN][rng.random_range(0..4_usize)],
            _ => rng.random_range(-1.0_f32..1.0),
        }
    }

    fn square(p: f32) -> f32 {
        (p * p).min(f32::MAX)
    }

    #[test]
    fn lanes_settle_to_the_per_value_fold_in_every_partition() {
        const LEN: usize = 29; // three full chunks and a ragged one
        let mut rng = StdRng::seed_from_u64(0x1a4e_5005);
        for case in 0..24 {
            // Each case draws its uploads from one of three regimes.
            let regime = case % 3;
            let base: Vec<f32> = (0..LEN).map(|_| stress_value(&mut rng)).collect();
            let uploads: Vec<Vec<f32>> = (0..40)
                .map(|i| match regime {
                    // Wide spreads: independent stress values.
                    0 => (0..LEN).map(|_| stress_value(&mut rng)).collect(),
                    // One model and exact cancellations of it.
                    1 => base
                        .iter()
                        .map(|&v| if i % 2 == 0 { v } else { -v })
                        .collect(),
                    // Parameter-sized drift around one model, with the odd
                    // far-off value.
                    _ => base
                        .iter()
                        .map(|&v| match rng.random_range(0..20_u32) {
                            0 => stress_value(&mut rng),
                            _ => v.clamp(-1.0, 1.0) + rng.random_range(-0.01..0.01),
                        })
                        .collect(),
                })
                .collect();
            let mut fold = vec![(ExactSum::ZERO, ExactSum::ZERO); LEN];
            let mut flat = (LaneSums::zeroed(LEN), LaneSums::zeroed(LEN));
            let mut shards: Vec<_> = (0..4)
                .map(|_| (LaneSums::zeroed(LEN), LaneSums::zeroed(LEN)))
                .collect();
            for (i, u) in uploads.iter().enumerate() {
                for ((s, q), &p) in fold.iter_mut().zip(u) {
                    s.add(p);
                    q.add(square(p));
                }
                flat.0.add(u, |p| p);
                flat.1.add(u, square);
                let shard = &mut shards[rng.random_range(0..4_usize)];
                shard.0.add(u, |p| p);
                shard.1.add(u, square);
                for (j, (s, q)) in fold.iter().enumerate() {
                    assert_eq!(flat.0.settled(j), *s, "case {case}, upload {i}, Σθ[{j}]");
                    assert_eq!(flat.1.settled(j), *q, "case {case}, upload {i}, Σθ²[{j}]");
                    assert_eq!(flat.0.to_f64(j).to_bits(), s.to_f64().to_bits());
                    assert_eq!(flat.1.to_f64(j).to_bits(), q.to_f64().to_bits());
                }
            }
            let merged = |order: &[usize]| {
                let mut acc = (LaneSums::zeroed(LEN), LaneSums::zeroed(LEN));
                for &k in order {
                    acc.0.merge(shards[k].0.clone());
                    acc.1.merge(shards[k].1.clone());
                }
                acc
            };
            let mut tree = merged(&[0, 1]);
            let right = merged(&[2, 3]);
            tree.0.merge(right.0);
            tree.1.merge(right.1);
            for (label, acc) in [
                ("forward", merged(&[0, 1, 2, 3])),
                ("reverse", merged(&[3, 2, 1, 0])),
                ("tree", tree),
            ] {
                assert!(acc == flat, "case {case}: {label} merge differs");
                for (j, (s, q)) in fold.iter().enumerate() {
                    assert_eq!(acc.0.settled(j), *s, "case {case}, {label}, Σθ[{j}]");
                    assert_eq!(acc.1.settled(j), *q, "case {case}, {label}, Σθ²[{j}]");
                    assert_eq!(acc.0.to_f64(j).to_bits(), s.to_f64().to_bits());
                    assert_eq!(acc.1.to_f64(j).to_bits(), q.to_f64().to_bits());
                }
            }
        }
    }

    #[test]
    fn identical_uploads_never_leave_the_lanes() {
        let model: Vec<f32> = (0..687).map(|i| ((i as f32) * 0.37).sin() * 0.5).collect();
        let mut sums = LaneSums::zeroed(model.len());
        let mut squares = LaneSums::zeroed(model.len());
        for _ in 0..1_563 {
            sums.add(&model, |p| p);
            squares.add(&model, square);
        }
        assert!(sums.limbs.is_empty() && squares.limbs.is_empty());
        for (j, &p) in model.iter().enumerate() {
            assert_eq!(sums.to_f64(j), 1_563.0 * f64::from(p));
        }
    }

    #[test]
    fn a_lane_holds_no_negative_zero() {
        let mut sums = LaneSums::zeroed(2);
        sums.add(&[-0.0, 1.5], |p| p);
        sums.add(&[-0.0, -1.5], |p| p);
        for j in 0..2 {
            assert_eq!(sums.to_f64(j).to_bits(), 0.0_f64.to_bits());
            assert_eq!(sums.settled(j), ExactSum::ZERO);
        }
    }
}
