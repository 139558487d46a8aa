//! Arbitrary-precision integer and rational arithmetic, built from scratch.
//!
//! The separability algorithms of Barceló et al. (PODS 2019) reduce the
//! "is this training collection linearly separable?" question to linear
//! programming (Proposition 4.1). Floating-point LP is unacceptable there:
//! a sign error flips a *decision problem* answer. This crate provides the
//! exact arithmetic substrate used by the `linsep` crate's simplex solver:
//!
//! * [`BigInt`] — sign-magnitude arbitrary-precision integers over `u32`
//!   limbs (little-endian), with schoolbook multiplication and Knuth
//!   Algorithm D division. Magnitudes in the LP stay small enough that
//!   asymptotically fancier multiplication would be noise.
//! * [`BigRational`] — always-normalized fractions of [`BigInt`]s.
//! * [`Rat`] — the hybrid rational the LP engine actually runs on: an
//!   inline `i64` fraction with `i128` intermediates that transparently
//!   promotes to [`BigRational`] on overflow (and demotes back), with a
//!   global promotion counter for instrumentation.
//!
//! Only the operations the simplex solver and the classifier constructions
//! need are implemented, but those are implemented completely (including
//! division, gcd, comparison, parsing, and formatting) and are
//! property-tested against `i128` semantics.

pub mod bigint;
pub mod rat;
pub mod rational;
mod uint;

pub use bigint::{BigInt, Sign};
pub use rat::Rat;
pub use rational::BigRational;

/// Convenience constructor: a rational from an integer pair, panicking on a
/// zero denominator. Handy in tests and classifier-weight construction.
pub fn ratio(num: i64, den: i64) -> BigRational {
    BigRational::new(BigInt::from(num), BigInt::from(den))
}

/// Convenience constructor: an integer rational.
pub fn int(v: i64) -> BigRational {
    BigRational::from_int(BigInt::from(v))
}

/// Convenience constructor: a hybrid [`Rat`] from an integer pair,
/// panicking on a zero denominator. The `Rat` counterpart of [`ratio`].
pub fn qrat(num: i64, den: i64) -> Rat {
    Rat::new(num, den)
}

/// Convenience constructor: an integer hybrid [`Rat`]. The `Rat`
/// counterpart of [`int`].
pub fn qint(v: i64) -> Rat {
    Rat::from(v)
}

#[cfg(test)]
mod smoke {
    use super::*;

    #[test]
    fn ratio_and_int_agree() {
        assert_eq!(ratio(4, 2), int(2));
        assert_eq!(ratio(-9, 3), int(-3));
        assert_eq!(ratio(1, 3) + ratio(2, 3), int(1));
    }
}
