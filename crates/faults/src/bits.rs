//! Bit-level manipulation of IEEE-754 `f32` values.
//!
//! SEUs are modelled at the representation level: a strike flips (or
//! sticks) one bit of the 32-bit word holding a weight, activation or
//! intermediate product, exactly as in the GPU/accelerator reliability
//! literature the paper cites (\[31\], \[40\], \[41\]).

/// Number of bits in the modelled word.
pub const WORD_BITS: u32 = 32;

/// Index of the sign bit.
pub const SIGN_BIT: u32 = 31;

/// Flips bit `bit` of `value`'s IEEE-754 representation.
///
/// # Panics
///
/// Panics if `bit >= 32`.
pub fn flip_bit(value: f32, bit: u32) -> f32 {
    assert!(bit < WORD_BITS, "bit index {bit} out of range");
    f32::from_bits(value.to_bits() ^ (1u32 << bit))
}

/// Forces bit `bit` of `value` to `high`.
///
/// # Panics
///
/// Panics if `bit >= 32`.
pub fn stick_bit(value: f32, bit: u32, high: bool) -> f32 {
    assert!(bit < WORD_BITS, "bit index {bit} out of range");
    let mask = 1u32 << bit;
    let bits = if high {
        value.to_bits() | mask
    } else {
        value.to_bits() & !mask
    };
    f32::from_bits(bits)
}

/// Whether bit `bit` of `value` is set.
///
/// # Panics
///
/// Panics if `bit >= 32`.
pub fn bit_is_set(value: f32, bit: u32) -> bool {
    assert!(bit < WORD_BITS, "bit index {bit} out of range");
    value.to_bits() & (1u32 << bit) != 0
}

/// Hamming distance between the representations of two `f32` values —
/// how many bit strikes separate them.
pub fn hamming_f32(a: f32, b: f32) -> u32 {
    (a.to_bits() ^ b.to_bits()).count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_is_involution() {
        for v in [0.0f32, 1.0, -3.75, 1e-20, f32::MAX] {
            for bit in [0u32, 7, 22, 23, 30, 31] {
                assert_eq!(flip_bit(flip_bit(v, bit), bit).to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn flip_changes_exactly_one_bit() {
        let v = 123.456f32;
        for bit in 0..WORD_BITS {
            assert_eq!(hamming_f32(v, flip_bit(v, bit)), 1);
        }
    }

    #[test]
    fn sign_flip_negates() {
        assert_eq!(flip_bit(2.5f32, SIGN_BIT), -2.5f32);
        assert_eq!(flip_bit(-1.0f32, SIGN_BIT), 1.0f32);
    }

    #[test]
    fn exponent_flip_scales_by_power_of_two() {
        // Flipping exponent bit 23 of a normal number multiplies or divides
        // the magnitude by 2.
        let v = 3.0f32;
        let f = flip_bit(v, 23);
        assert!(f == 6.0 || f == 1.5, "got {f}");
    }

    #[test]
    fn stick_bit_idempotent() {
        let v = 0.7f32;
        for bit in [0u32, 23, 31] {
            for high in [false, true] {
                let once = stick_bit(v, bit, high);
                let twice = stick_bit(once, bit, high);
                assert_eq!(once.to_bits(), twice.to_bits());
                assert_eq!(bit_is_set(once, bit), high);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flip_rejects_bad_bit() {
        flip_bit(1.0, 32);
    }

    #[test]
    fn hamming_zero_iff_identical_representation() {
        assert_eq!(hamming_f32(1.0, 1.0), 0);
        assert!(hamming_f32(1.0, 1.0000001) > 0);
        // NaN payloads compare by representation, not semantics.
        assert_eq!(hamming_f32(f32::NAN, f32::NAN), 0);
    }
}
