//! Exact non-negative rational arithmetic.
//!
//! Solving the balance equations of an SDF graph requires propagating exact
//! firing-rate ratios along edges before scaling to the minimal integer
//! repetitions vector; floating point would mis-normalise large graphs, so a
//! small always-reduced rational type is used instead.

use std::cmp::Ordering;
use std::fmt;

use crate::math::gcd;

/// A non-negative rational number kept in lowest terms.
///
/// The denominator is always nonzero and `gcd(numer, denom) == 1`
/// (with the convention that 0 is represented as `0/1`).
///
/// # Examples
///
/// ```
/// use sdf_core::rational::Rational;
/// let r = Rational::new(6, 4);
/// assert_eq!(r, Rational::new(3, 2));
/// assert_eq!(r.numer(), 3);
/// assert_eq!(r.denom(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    numer: u64,
    denom: u64,
}

impl Rational {
    /// Creates a rational `numer / denom`, reduced to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `denom == 0`.
    pub fn new(numer: u64, denom: u64) -> Self {
        assert!(denom != 0, "rational denominator must be nonzero");
        if numer == 0 {
            return Rational { numer: 0, denom: 1 };
        }
        let g = gcd(numer, denom);
        Rational {
            numer: numer / g,
            denom: denom / g,
        }
    }

    /// The rational number one.
    pub const ONE: Rational = Rational { numer: 1, denom: 1 };

    /// The rational number zero.
    pub const ZERO: Rational = Rational { numer: 0, denom: 1 };

    /// Returns the reduced numerator.
    pub fn numer(self) -> u64 {
        self.numer
    }

    /// Returns the reduced denominator (never zero).
    pub fn denom(self) -> u64 {
        self.denom
    }

    /// Returns `self * (p / q)` without overflowing on typical SDF rates:
    /// cross-reduction happens before the multiplications.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0` or if the (cross-reduced) product overflows `u64`;
    /// [`Rational::checked_mul_ratio`] reports the overflow instead.
    pub fn mul_ratio(self, p: u64, q: u64) -> Self {
        self.checked_mul_ratio(p, q)
            .expect("rational product overflows u64")
    }

    /// Returns `self * (p / q)`, or `None` if the (cross-reduced) numerator
    /// or denominator overflows `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn checked_mul_ratio(self, p: u64, q: u64) -> Option<Self> {
        assert!(q != 0, "rational denominator must be nonzero");
        if self.numer == 0 || p == 0 {
            return Some(Rational::ZERO);
        }
        // Reduce the incoming ratio, then diagonally, so the result is in
        // lowest terms with small intermediates.
        let g0 = gcd(p, q);
        let (p, q) = (p / g0, q / g0);
        let g1 = gcd(self.numer, q);
        let g2 = gcd(p, self.denom);
        let numer = (self.numer / g1).checked_mul(p / g2)?;
        let denom = (self.denom / g2).checked_mul(q / g1)?;
        Some(Rational { numer, denom })
    }

    /// Returns the integer value if this rational is a whole number.
    pub fn to_integer(self) -> Option<u64> {
        (self.denom == 1).then_some(self.numer)
    }

    /// Returns true if the rational equals zero.
    pub fn is_zero(self) -> bool {
        self.numer == 0
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<u64> for Rational {
    fn from(value: u64) -> Self {
        Rational {
            numer: value,
            denom: 1,
        }
    }
}

impl std::ops::Mul for Rational {
    type Output = Rational;

    /// # Panics
    ///
    /// Panics on `u64` overflow of the cross-reduced product.
    fn mul(self, other: Rational) -> Rational {
        self.mul_ratio(other.numer, other.denom)
    }
}

impl std::ops::Div for Rational {
    type Output = Rational;

    /// # Panics
    ///
    /// Panics if `other` is zero, or on overflow.
    fn div(self, other: Rational) -> Rational {
        assert!(other.numer != 0, "division of rational by zero");
        self.mul_ratio(other.denom, other.numer)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare a/b vs c/d via a*d vs c*b in u128 to avoid overflow.
        let lhs = u128::from(self.numer) * u128::from(other.denom);
        let rhs = u128::from(other.numer) * u128::from(self.denom);
        lhs.cmp(&rhs)
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({}/{})", self.numer, self.denom)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.denom == 1 {
            write!(f, "{}", self.numer)
        } else {
            write!(f, "{}/{}", self.numer, self.denom)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_on_construction() {
        let r = Rational::new(100, 60);
        assert_eq!((r.numer(), r.denom()), (5, 3));
    }

    #[test]
    fn zero_normalises_denominator() {
        let r = Rational::new(0, 17);
        assert_eq!(r, Rational::ZERO);
        assert_eq!(r.denom(), 1);
        assert!(r.is_zero());
    }

    #[test]
    #[should_panic(expected = "denominator must be nonzero")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn multiplication_cross_reduces() {
        // (2/3) * (9/4) = 3/2 with small intermediates.
        let r = Rational::new(2, 3) * Rational::new(9, 4);
        assert_eq!(r, Rational::new(3, 2));
    }

    #[test]
    fn mul_ratio_matches_mul() {
        let a = Rational::new(7, 5);
        assert_eq!(a.mul_ratio(10, 21), a * Rational::new(10, 21));
    }

    #[test]
    fn large_values_no_overflow() {
        // Would overflow naive n1*n2: 2^40/3 * 3/2^40 = 1.
        let big = 1u64 << 40;
        let r = Rational::new(big, 3) * Rational::new(3, big);
        assert_eq!(r, Rational::ONE);
    }

    #[test]
    fn division() {
        let r = Rational::new(3, 4) / Rational::new(9, 8);
        assert_eq!(r, Rational::new(2, 3));
    }

    #[test]
    #[should_panic(expected = "division of rational by zero")]
    fn division_by_zero_panics() {
        let _ = Rational::ONE / Rational::ZERO;
    }

    #[test]
    fn ordering_cross_multiplies() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(7, 2) > Rational::new(10, 3));
        assert_eq!(
            Rational::new(4, 6).cmp(&Rational::new(2, 3)),
            Ordering::Equal
        );
    }

    #[test]
    fn to_integer() {
        assert_eq!(Rational::new(8, 4).to_integer(), Some(2));
        assert_eq!(Rational::new(8, 3).to_integer(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Rational::new(6, 4).to_string(), "3/2");
        assert_eq!(Rational::new(4, 2).to_string(), "2");
    }

    #[test]
    fn from_u64() {
        assert_eq!(Rational::from(5), Rational::new(5, 1));
    }
}
