//! Signed arbitrary-precision integers (sign + magnitude).

use crate::uint::{self, Limbs};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

/// Sign of a [`BigInt`]. Zero always carries [`Sign::Zero`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sign {
    Negative,
    Zero,
    Positive,
}

impl Sign {
    fn flip(self) -> Sign {
        match self {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        }
    }
}

/// An arbitrary-precision signed integer.
///
/// Canonical form: `magnitude` has no trailing zero limbs, and
/// `sign == Sign::Zero` iff `magnitude` is empty.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    magnitude: Limbs,
}

impl BigInt {
    pub const fn zero() -> BigInt {
        BigInt {
            sign: Sign::Zero,
            magnitude: Vec::new(),
        }
    }

    pub fn one() -> BigInt {
        BigInt::from(1i64)
    }

    fn from_parts(sign: Sign, mut magnitude: Limbs) -> BigInt {
        uint::normalize(&mut magnitude);
        if magnitude.is_empty() {
            BigInt::zero()
        } else {
            debug_assert!(sign != Sign::Zero);
            BigInt { sign, magnitude }
        }
    }

    pub fn sign(&self) -> Sign {
        self.sign
    }

    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Positive
    }

    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    pub fn abs(&self) -> BigInt {
        match self.sign {
            Sign::Negative => -self.clone(),
            _ => self.clone(),
        }
    }

    /// Greatest common divisor of magnitudes; result is nonnegative.
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        BigInt::from_parts(Sign::Positive, uint::gcd(&self.magnitude, &other.magnitude))
    }

    /// Euclidean division with truncation toward zero (like Rust's `/`/`%`
    /// on primitives): `self = q*other + r` with `|r| < |other|` and `r`
    /// sharing `self`'s sign.
    pub fn div_rem(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "BigInt division by zero");
        let (q, r) = uint::divrem(&self.magnitude, &other.magnitude);
        let qsign = if self.sign == other.sign {
            Sign::Positive
        } else {
            Sign::Negative
        };
        (
            BigInt::from_parts(qsign, q),
            BigInt::from_parts(self.sign, r),
        )
    }

    /// Exact conversion to `i64` when the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        if self.magnitude.len() > 2 {
            return None;
        }
        let mag = self
            .magnitude
            .iter()
            .rev()
            .fold(0u128, |acc, &x| (acc << 32) | x as u128);
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive if mag <= i64::MAX as u128 => Some(mag as i64),
            Sign::Negative if mag <= i64::MAX as u128 + 1 => {
                Some((mag as i128).wrapping_neg() as i64)
            }
            _ => None,
        }
    }

    /// Approximate conversion to `f64` (for reporting only, never decisions).
    pub fn to_f64(&self) -> f64 {
        let mut v = 0.0f64;
        for &limb in self.magnitude.iter().rev() {
            v = v * 4294967296.0 + limb as f64;
        }
        if self.sign == Sign::Negative {
            -v
        } else {
            v
        }
    }

    /// Number of bits in the magnitude (0 for zero). Used by the simplex
    /// solver to track coefficient growth.
    pub fn bits(&self) -> usize {
        match self.magnitude.last() {
            None => 0,
            Some(top) => (self.magnitude.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// `2^exp`, used for the chain-classifier weights of Lemma 5.4 / \[22\].
    pub fn pow2(exp: usize) -> BigInt {
        let mut magnitude = vec![0u32; exp / 32];
        magnitude.push(1u32 << (exp % 32));
        BigInt::from_parts(Sign::Positive, magnitude)
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> BigInt {
        match v.cmp(&0) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt::from_parts(Sign::Positive, uint::from_u64(v as u64)),
            Ordering::Less => BigInt::from_parts(Sign::Negative, uint::from_u64(v.unsigned_abs())),
        }
    }
}

impl From<i32> for BigInt {
    fn from(v: i32) -> BigInt {
        BigInt::from(v as i64)
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> BigInt {
        if v == 0 {
            return BigInt::zero();
        }
        let sign = if v > 0 {
            Sign::Positive
        } else {
            Sign::Negative
        };
        let mut mag = v.unsigned_abs();
        let mut limbs = Vec::with_capacity(4);
        while mag != 0 {
            limbs.push(mag as u32);
            mag >>= 32;
        }
        BigInt::from_parts(sign, limbs)
    }
}

impl From<usize> for BigInt {
    fn from(v: usize) -> BigInt {
        BigInt::from_parts(Sign::Positive, uint::from_u64(v as u64))
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &BigInt) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &BigInt) -> Ordering {
        let rank = |s: Sign| match s {
            Sign::Negative => 0,
            Sign::Zero => 1,
            Sign::Positive => 2,
        };
        match rank(self.sign).cmp(&rank(other.sign)) {
            Ordering::Equal => match self.sign {
                Sign::Zero => Ordering::Equal,
                Sign::Positive => uint::cmp(&self.magnitude, &other.magnitude),
                Sign::Negative => uint::cmp(&other.magnitude, &self.magnitude),
            },
            ord => ord,
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(mut self) -> BigInt {
        self.sign = self.sign.flip();
        self
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        -self.clone()
    }
}

impl Add<&BigInt> for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        match (self.sign, rhs.sign) {
            (Sign::Zero, _) => rhs.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt::from_parts(a, uint::add(&self.magnitude, &rhs.magnitude)),
            _ => match uint::cmp(&self.magnitude, &rhs.magnitude) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => {
                    BigInt::from_parts(self.sign, uint::sub(&self.magnitude, &rhs.magnitude))
                }
                Ordering::Less => {
                    BigInt::from_parts(rhs.sign, uint::sub(&rhs.magnitude, &self.magnitude))
                }
            },
        }
    }
}

impl Sub<&BigInt> for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self + &(-rhs)
    }
}

impl Mul<&BigInt> for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        if self.is_zero() || rhs.is_zero() {
            return BigInt::zero();
        }
        let sign = if self.sign == rhs.sign {
            Sign::Positive
        } else {
            Sign::Negative
        };
        BigInt::from_parts(sign, uint::mul(&self.magnitude, &rhs.magnitude))
    }
}

impl Div<&BigInt> for &BigInt {
    type Output = BigInt;
    fn div(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).0
    }
}

impl Rem<&BigInt> for &BigInt {
    type Output = BigInt;
    fn rem(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).1
    }
}

macro_rules! forward_owned {
    ($trait:ident, $method:ident) => {
        impl $trait<BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &BigInt) -> BigInt {
                (&self).$method(rhs)
            }
        }
    };
}
forward_owned!(Add, add);
forward_owned!(Sub, sub);
forward_owned!(Mul, mul);
forward_owned!(Div, div);
forward_owned!(Rem, rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, rhs: &BigInt) {
        *self = &*self * rhs;
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        if self.sign == Sign::Negative {
            write!(f, "-")?;
        }
        // Peel 9 decimal digits at a time.
        let mut mag = self.magnitude.clone();
        let mut chunks = Vec::new();
        while !mag.is_empty() {
            chunks.push(uint::divmod_small(&mut mag, 1_000_000_000));
        }
        write!(f, "{}", chunks.pop().unwrap())?;
        for c in chunks.into_iter().rev() {
            write!(f, "{c:09}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

/// Error parsing a [`BigInt`] or [`crate::BigRational`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError(pub String);

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid big integer literal: {}", self.0)
    }
}

impl std::error::Error for ParseBigIntError {}

impl FromStr for BigInt {
    type Err = ParseBigIntError;
    fn from_str(s: &str) -> Result<BigInt, ParseBigIntError> {
        let (sign, digits) = match s.strip_prefix('-') {
            Some(rest) => (Sign::Negative, rest),
            None => (Sign::Positive, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseBigIntError(s.to_string()));
        }
        let mut mag: Limbs = Vec::new();
        for chunk in digits.as_bytes().chunks(9) {
            let val: u32 = std::str::from_utf8(chunk).unwrap().parse().unwrap();
            let scale = 10u32.pow(chunk.len() as u32);
            uint::mul_add_small(&mut mag, scale, val);
        }
        Ok(BigInt::from_parts(sign, mag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: i64) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn arithmetic_matches_i64() {
        let samples = [-1000i64, -17, -1, 0, 1, 5, 123, 99999, i32::MAX as i64];
        for &x in &samples {
            for &y in &samples {
                assert_eq!((b(x) + b(y)).to_i64(), Some(x + y), "{x}+{y}");
                assert_eq!((b(x) - b(y)).to_i64(), Some(x - y), "{x}-{y}");
                assert_eq!((b(x) * b(y)).to_i64(), Some(x * y), "{x}*{y}");
                if y != 0 {
                    assert_eq!((b(x) / &b(y)).to_i64(), Some(x / y), "{x}/{y}");
                    assert_eq!((b(x) % &b(y)).to_i64(), Some(x % y), "{x}%{y}");
                }
                assert_eq!(b(x).cmp(&b(y)), x.cmp(&y));
            }
        }
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for s in [
            "0",
            "-1",
            "123456789012345678901234567890",
            "-999999999999999999",
        ] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert!("".parse::<BigInt>().is_err());
        assert!("12a".parse::<BigInt>().is_err());
    }

    #[test]
    fn big_multiplication() {
        let a: BigInt = "123456789012345678901234567890".parse().unwrap();
        let expect = "15241578753238836750495351562536198787501905199875019052100";
        assert_eq!((&a * &a).to_string(), expect);
    }

    #[test]
    fn pow2_values() {
        assert_eq!(BigInt::pow2(0).to_i64(), Some(1));
        assert_eq!(BigInt::pow2(10).to_i64(), Some(1024));
        assert_eq!(BigInt::pow2(62).to_i64(), Some(1 << 62));
        assert_eq!(
            BigInt::pow2(100).to_string(),
            "1267650600228229401496703205376"
        );
        assert_eq!(BigInt::pow2(100).bits(), 101);
    }

    #[test]
    fn gcd_signs() {
        assert_eq!(b(-48).gcd(&b(36)).to_i64(), Some(12));
        assert_eq!(b(0).gcd(&b(-7)).to_i64(), Some(7));
    }

    #[test]
    fn to_i64_boundaries() {
        assert_eq!(b(i64::MAX).to_i64(), Some(i64::MAX));
        assert_eq!(b(i64::MIN + 1).to_i64(), Some(i64::MIN + 1));
        let too_big = b(i64::MAX) + b(1);
        assert_eq!(too_big.to_i64(), None);
        // i64::MIN itself round-trips via the magnitude path.
        let min = -(b(i64::MAX) + b(1));
        assert_eq!(min.to_i64(), Some(i64::MIN));
    }

    #[test]
    fn to_f64_sane() {
        assert_eq!(b(1500).to_f64(), 1500.0);
        assert_eq!(b(-3).to_f64(), -3.0);
        let big = BigInt::pow2(64);
        assert_eq!(big.to_f64(), 18446744073709551616.0);
    }
}
