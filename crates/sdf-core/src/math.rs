//! Small integer-arithmetic helpers used throughout the workspace.
//!
//! SDF scheduling leans heavily on greatest common divisors: repetition
//! vectors are normalised by them, loop factors are extracted with them and
//! the dynamic programs of the scheduling crate divide split costs by the
//! gcd of actor repetition counts (Eq. 3 of the paper).

/// Returns the greatest common divisor of `a` and `b`.
///
/// By convention `gcd(0, b) == b` and `gcd(a, 0) == a`, so `gcd(0, 0) == 0`.
///
/// # Examples
///
/// ```
/// use sdf_core::math::gcd;
/// assert_eq!(gcd(12, 18), 6);
/// assert_eq!(gcd(7, 13), 1);
/// assert_eq!(gcd(0, 5), 5);
/// ```
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Returns the gcd of every element of `values`.
///
/// Returns 0 for an empty slice.
///
/// # Examples
///
/// ```
/// use sdf_core::math::gcd_all;
/// assert_eq!(gcd_all(&[12, 18, 30]), 6);
/// assert_eq!(gcd_all(&[]), 0);
/// ```
pub fn gcd_all(values: &[u64]) -> u64 {
    values.iter().fold(0, |acc, &v| gcd(acc, v))
}

/// Returns the gcd of every element yielded by `values`.
///
/// Returns 0 for an empty iterator. This is the iterator-friendly sibling of
/// [`gcd_all`].
pub fn gcd_iter<I: IntoIterator<Item = u64>>(values: I) -> u64 {
    values.into_iter().fold(0, gcd)
}

/// Divides `a` by `b`, rounding towards positive infinity.
///
/// # Panics
///
/// Panics if `b == 0`.
///
/// # Examples
///
/// ```
/// use sdf_core::math::div_ceil;
/// assert_eq!(div_ceil(7, 3), 3);
/// assert_eq!(div_ceil(6, 3), 2);
/// ```
pub fn div_ceil(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(48, 36), 12);
        assert_eq!(gcd(36, 48), 12);
        assert_eq!(gcd(1, 1), 1);
        assert_eq!(gcd(17, 17), 17);
    }

    #[test]
    fn gcd_zero_identities() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 9), 9);
        assert_eq!(gcd(9, 0), 9);
    }

    #[test]
    fn gcd_coprime() {
        assert_eq!(gcd(35, 64), 1);
    }

    #[test]
    fn gcd_all_slice() {
        assert_eq!(gcd_all(&[1056, 264, 24]), 24);
        assert_eq!(gcd_all(&[5]), 5);
    }

    #[test]
    fn gcd_iter_matches_slice() {
        let v = [12u64, 8, 20];
        assert_eq!(gcd_iter(v.iter().copied()), gcd_all(&v));
    }

    #[test]
    fn div_ceil_exact_and_inexact() {
        assert_eq!(div_ceil(0, 4), 0);
        assert_eq!(div_ceil(1, 4), 1);
        assert_eq!(div_ceil(8, 4), 2);
        assert_eq!(div_ceil(9, 4), 3);
    }
}
