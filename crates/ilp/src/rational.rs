//! Exact rational arithmetic on `i128`.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number with a positive denominator, always reduced.
///
/// Arithmetic panics on overflow of `i128` — with IPET-sized inputs
/// (cycle counts and loop bounds well below 2⁶⁴) intermediate values stay
/// far from the limit because every operation re-normalizes.
///
/// # Example
///
/// ```
/// use stamp_ilp::Rat;
///
/// let a = Rat::new(1, 3) + Rat::new(1, 6);
/// assert_eq!(a, Rat::new(1, 2));
/// assert_eq!(a.floor(), 0);
/// assert!(!a.is_integer());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates `num/den`, reduced.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "zero denominator");
        let g = gcd(num, den).max(1);
        let sign = if den < 0 { -1 } else { 1 };
        Rat { num: sign * num / g, den: sign * den / g }
    }

    /// An integer as a rational.
    pub fn int(v: i128) -> Rat {
        Rat { num: v, den: 1 }
    }

    /// The numerator (after reduction).
    pub fn numer(self) -> i128 {
        self.num
    }

    /// Returns `true` for whole numbers.
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Largest integer ≤ self.
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer ≥ self.
    pub fn ceil(self) -> i128 {
        -((-self.num).div_euclid(self.den))
    }

    /// Returns `true` if strictly positive.
    pub fn is_positive(self) -> bool {
        self.num > 0
    }

    /// Returns `true` if zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, o: Rat) -> Rat {
        // Integer fast path: simplex tableaus start integral and mostly
        // stay so; skipping the gcd machinery there is a large win.
        if self.den == 1 && o.den == 1 {
            return Rat { num: self.num + o.num, den: 1 };
        }
        let g = gcd(self.den, o.den).max(1);
        let l = self.den / g * o.den;
        Rat::new(self.num * (l / self.den) + o.num * (l / o.den), l)
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, o: Rat) -> Rat {
        self + (-o)
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat { num: -self.num, den: self.den }
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, o: Rat) -> Rat {
        if self.num == 0 || o.num == 0 {
            return Rat::ZERO;
        }
        if self.den == 1 && o.den == 1 {
            return Rat { num: self.num * o.num, den: 1 };
        }
        // Cross-reduce before multiplying to keep magnitudes small.
        let g1 = gcd(self.num, o.den).max(1);
        let g2 = gcd(o.num, self.den).max(1);
        Rat::new((self.num / g1) * (o.num / g2), (self.den / g2) * (o.den / g1))
    }
}

impl Div for Rat {
    type Output = Rat;
    /// # Panics
    ///
    /// Panics on division by zero.
    fn div(self, o: Rat) -> Rat {
        assert!(o.num != 0, "division by zero rational");
        self * Rat { num: o.den, den: o.num }
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, o: &Rat) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

impl Ord for Rat {
    fn cmp(&self, o: &Rat) -> Ordering {
        if self.den == o.den {
            // Denominators are always positive, so numerators compare
            // directly (covers the common integer-vs-integer case).
            return self.num.cmp(&o.num);
        }
        (self.num * o.den).cmp(&(o.num * self.den))
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Rat {
        Rat::int(v as i128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_reduces() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(1, -2), Rat::new(-1, 2));
        assert_eq!(Rat::new(1, 3) + Rat::new(1, 6), Rat::new(1, 2));
        assert_eq!(Rat::new(1, 2) * Rat::new(2, 3), Rat::new(1, 3));
        assert_eq!(Rat::new(1, 2) / Rat::new(1, 4), Rat::int(2));
        assert_eq!(Rat::new(3, 2) - Rat::new(1, 2), Rat::ONE);
    }

    #[test]
    fn floor_and_ceil_handle_negatives() {
        assert_eq!(Rat::new(-3, 2).floor(), -2);
        assert_eq!(Rat::new(-3, 2).ceil(), -1);
        assert_eq!(Rat::new(3, 2).floor(), 1);
        assert_eq!(Rat::new(3, 2).ceil(), 2);
        assert_eq!(Rat::int(5).floor(), 5);
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert!(Rat::int(2) > Rat::new(5, 3));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }
}
