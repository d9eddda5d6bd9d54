//! Property tests for `U256`, using `u128` arithmetic as the oracle.

use proptest::prelude::*;
use sereth_types::U256;

fn oracle_pair() -> impl Strategy<Value = (u128, u128)> {
    (any::<u128>(), any::<u128>())
}

proptest! {
    #[test]
    fn add_matches_u128((a, b) in oracle_pair()) {
        // Keep the sum within u128 so the oracle is exact.
        let a = a >> 1;
        let b = b >> 1;
        prop_assert_eq!(U256::from(a) + U256::from(b), U256::from(a + b));
    }

    #[test]
    fn sub_matches_u128((a, b) in oracle_pair()) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        prop_assert_eq!(U256::from(hi) - U256::from(lo), U256::from(hi - lo));
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(
            U256::from(a) * U256::from(b),
            U256::from(a as u128 * b as u128)
        );
    }

    #[test]
    fn div_rem_matches_u128((a, b) in oracle_pair()) {
        prop_assume!(b != 0);
        let (q, r) = U256::from(a).div_rem(U256::from(b)).unwrap();
        prop_assert_eq!(q, U256::from(a / b));
        prop_assert_eq!(r, U256::from(a % b));
    }

    #[test]
    fn div_rem_reconstructs(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let x = U256::from_be_bytes(a);
        let y = U256::from_be_bytes(b);
        prop_assume!(!y.is_zero());
        let (q, r) = x.div_rem(y).unwrap();
        // x == q * y + r, with r < y, and q*y must not overflow.
        prop_assert!(r < y);
        let (product, overflow) = q.overflowing_mul(y);
        prop_assert!(!overflow);
        let (sum, overflow) = product.overflowing_add(r);
        prop_assert!(!overflow);
        prop_assert_eq!(sum, x);
    }

    #[test]
    fn shifts_match_u128(a in any::<u128>(), shift in 0u32..128) {
        prop_assert_eq!(U256::from(a) >> shift, U256::from(a >> shift));
        // Left shifts can escape u128; mask the oracle down.
        let shifted = U256::from(a) << shift;
        if shifted.try_to_u128().is_some() && shift < 128 {
            prop_assert_eq!(shifted.try_to_u128().unwrap(), a << shift);
        }
    }

    #[test]
    fn shl_shr_round_trip(bytes in any::<[u8; 32]>(), shift in 0u32..256) {
        let value = U256::from_be_bytes(bytes);
        // (v >> s) << s clears the low s bits, equivalently v & !(2^s - 1).
        let mask = if shift == 0 { U256::MAX } else { !( (U256::ONE << shift) - U256::ONE) };
        prop_assert_eq!((value >> shift) << shift, value & mask);
    }

    #[test]
    fn be_bytes_round_trip(bytes in any::<[u8; 32]>()) {
        prop_assert_eq!(U256::from_be_bytes(bytes).to_be_bytes(), bytes);
    }

    #[test]
    fn decimal_display_round_trip(a in any::<u128>()) {
        prop_assert_eq!(U256::from(a).to_string(), a.to_string());
    }

    #[test]
    fn ordering_matches_u128((a, b) in oracle_pair()) {
        prop_assert_eq!(U256::from(a).cmp(&U256::from(b)), a.cmp(&b));
    }

    #[test]
    fn bitwise_ops_match_u128((a, b) in oracle_pair()) {
        prop_assert_eq!(U256::from(a) & U256::from(b), U256::from(a & b));
        prop_assert_eq!(U256::from(a) | U256::from(b), U256::from(a | b));
        prop_assert_eq!(U256::from(a) ^ U256::from(b), U256::from(a ^ b));
    }

    #[test]
    fn not_is_involution(bytes in any::<[u8; 32]>()) {
        let value = U256::from_be_bytes(bytes);
        prop_assert_eq!(!!value, value);
        prop_assert_eq!(value & !value, U256::ZERO);
        prop_assert_eq!(value | !value, U256::MAX);
    }

    #[test]
    fn overflow_flags_are_consistent(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let x = U256::from_be_bytes(a);
        let y = U256::from_be_bytes(b);
        let (sum, overflowed) = x.overflowing_add(y);
        // Overflow iff the wrapped sum is smaller than an operand.
        prop_assert_eq!(overflowed, sum < x);
        let (_, borrowed) = x.overflowing_sub(y);
        prop_assert_eq!(borrowed, x < y);
    }
}

/// Sign-extends an `i128` into a 256-bit two's-complement word.
fn from_i128(value: i128) -> U256 {
    if value >= 0 {
        U256::from(value as u128)
    } else {
        U256::from(value.unsigned_abs()).wrapping_neg()
    }
}

proptest! {
    #[test]
    fn signed_div_matches_i128(a in any::<i128>(), b in any::<i128>()) {
        prop_assume!(b != 0);
        prop_assume!(!(a == i128::MIN && b == -1)); // i128 oracle would trap
        prop_assert_eq!(from_i128(a).signed_div(from_i128(b)), from_i128(a / b));
    }

    #[test]
    fn signed_rem_matches_i128(a in any::<i128>(), b in any::<i128>()) {
        prop_assume!(b != 0);
        prop_assume!(!(a == i128::MIN && b == -1));
        prop_assert_eq!(from_i128(a).signed_rem(from_i128(b)), from_i128(a % b));
    }

    #[test]
    fn signed_division_reconstructs(a in any::<i128>(), b in any::<i128>()) {
        prop_assume!(b != 0);
        prop_assume!(!(a == i128::MIN && b == -1));
        // a == (a sdiv b) * b + (a smod b), all in wrapping 256-bit space.
        let x = from_i128(a);
        let y = from_i128(b);
        let q = x.signed_div(y);
        let r = x.signed_rem(y);
        let reconstructed = q.overflowing_mul(y).0.overflowing_add(r).0;
        prop_assert_eq!(reconstructed, x);
    }

    #[test]
    fn signed_lt_matches_i128(a in any::<i128>(), b in any::<i128>()) {
        prop_assert_eq!(from_i128(a).signed_lt(&from_i128(b)), a < b);
    }

    #[test]
    fn wrapping_neg_matches_i128(a in any::<i128>()) {
        prop_assume!(a != i128::MIN);
        prop_assert_eq!(from_i128(a).wrapping_neg(), from_i128(-a));
    }

    #[test]
    fn sar_matches_i128(a in any::<i128>(), shift in 0u32..130) {
        // i128 arithmetic shift is the oracle; clamp to the oracle's width.
        let expected = from_i128(a >> shift.min(127));
        prop_assert_eq!(from_i128(a).sar(shift.min(127)), expected);
    }

    #[test]
    fn sar_by_width_collapses(bytes in any::<[u8; 32]>(), shift in 256u32..1000) {
        let value = U256::from_be_bytes(bytes);
        let expected = if value.is_negative() { U256::MAX } else { U256::ZERO };
        prop_assert_eq!(value.sar(shift), expected);
    }

    #[test]
    fn sign_extend_matches_i8_oracle(byte in any::<u8>()) {
        prop_assert_eq!(
            U256::from(byte as u64).sign_extend(0),
            from_i128(byte as i8 as i128)
        );
    }

    #[test]
    fn sign_extend_matches_i16_oracle(half in any::<u16>()) {
        prop_assert_eq!(
            U256::from(half as u64).sign_extend(1),
            from_i128(half as i16 as i128)
        );
    }

    #[test]
    fn sign_extend_is_idempotent(bytes in any::<[u8; 32]>(), index in 0usize..40) {
        let value = U256::from_be_bytes(bytes);
        let once = value.sign_extend(index);
        prop_assert_eq!(once.sign_extend(index), once);
    }
}
