//! Scalar immediate values.

use std::fmt;

/// An immediate operand: either a 64-bit integer (addressing, counts) or a
/// 64-bit floating point constant.
///
/// Scalar registers on the modeled machine hold raw 64-bit values; the
/// instruction decides the interpretation, so an immediate records which
/// interpretation it was written with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalarValue {
    /// Integer immediate, e.g. `#1024`.
    Int(i64),
    /// Floating point immediate, e.g. `#2.5`.
    Fp(f64),
}

impl ScalarValue {
    /// Raw 64-bit register image of the value.
    pub fn to_bits(self) -> u64 {
        match self {
            ScalarValue::Int(i) => i as u64,
            ScalarValue::Fp(x) => x.to_bits(),
        }
    }
}

impl From<i64> for ScalarValue {
    fn from(v: i64) -> Self {
        ScalarValue::Int(v)
    }
}

impl From<f64> for ScalarValue {
    fn from(v: f64) -> Self {
        ScalarValue::Fp(v)
    }
}

impl fmt::Display for ScalarValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarValue::Int(i) => write!(f, "#{i}"),
            // The shortest text that reads back as this float: it always
            // has a point or an exponent (or is `NaN`/`inf`), so the
            // assembler keeps the integer/float distinction.
            ScalarValue::Fp(x) => write!(f, "#{x:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(ScalarValue::from(3i64), ScalarValue::Int(3));
        assert_eq!(ScalarValue::from(1.5f64), ScalarValue::Fp(1.5));
    }

    #[test]
    fn display_distinguishes_int_and_fp() {
        assert_eq!(ScalarValue::Int(2).to_string(), "#2");
        assert_eq!(ScalarValue::Fp(2.0).to_string(), "#2.0");
        assert_eq!(ScalarValue::Fp(2.5).to_string(), "#2.5");
    }

    #[test]
    fn bits_roundtrip() {
        let x = ScalarValue::Fp(-0.125);
        assert_eq!(f64::from_bits(x.to_bits()), -0.125);
        let i = ScalarValue::Int(-7);
        assert_eq!(i.to_bits() as i64, -7);
    }
}
