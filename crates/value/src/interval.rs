//! Strided intervals over the unsigned 32-bit universe.
//!
//! [`SInt`] represents the set `{lo, lo+s, …, hi}`. With `s = 0` it is a
//! single constant (constant propagation); with `s = 1` a plain interval
//! (interval analysis); larger strides capture the congruence information
//! produced by array indexing (`base + 4*i`), which the data-cache
//! analysis depends on. This realizes the domain hierarchy sketched in
//! §1 of the paper; [`DomainKind`] selects weaker members of the
//! hierarchy for the ablation experiment (E7).

use std::fmt;

/// Which member of the value-domain hierarchy to use (experiment E7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DomainKind {
    /// Constant propagation: any non-singleton becomes ⊤.
    Const,
    /// Plain intervals: strides collapse to 1.
    Interval,
    /// Full strided intervals.
    Strided,
}

impl DomainKind {
    /// Degrades `v` to this domain's precision.
    pub fn degrade(self, v: SInt) -> SInt {
        match self {
            DomainKind::Strided => v,
            DomainKind::Interval => {
                if v.stride() > 1 {
                    SInt::range(v.lo(), v.hi())
                } else {
                    v
                }
            }
            DomainKind::Const => {
                if v.is_const().is_some() {
                    v
                } else {
                    SInt::top()
                }
            }
        }
    }
}

/// A non-empty strided interval `{lo + k·stride | 0 ≤ k ≤ (hi-lo)/stride}`.
///
/// Invariants: `lo ≤ hi`; `stride == 0` iff `lo == hi`; otherwise
/// `(hi - lo) % stride == 0`.
///
/// # Example
///
/// ```
/// use stamp_value::SInt;
///
/// let idx = SInt::strided(0, 36, 4); // i ∈ {0, 4, …, 36}
/// assert_eq!(idx.count(), 10);
/// assert!(idx.contains(8));
/// assert!(!idx.contains(9));
/// let addr = idx.add(&SInt::cst(0x1000_0000));
/// assert_eq!(addr.lo(), 0x1000_0000);
/// assert_eq!(addr.stride(), 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SInt {
    lo: u32,
    hi: u32,
    stride: u32,
}

const BIAS: u32 = 0x8000_0000;

fn gcd(a: u32, b: u32) -> u32 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl SInt {
    /// A single constant.
    pub fn cst(v: u32) -> SInt {
        SInt { lo: v, hi: v, stride: 0 }
    }

    /// The full unsigned range (⊤).
    pub fn top() -> SInt {
        SInt { lo: 0, hi: u32::MAX, stride: 1 }
    }

    /// A contiguous range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(lo: u32, hi: u32) -> SInt {
        SInt::strided(lo, hi, 1)
    }

    /// A strided range; `hi` is aligned down onto the grid.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn strided(lo: u32, hi: u32, stride: u32) -> SInt {
        assert!(lo <= hi, "empty strided interval [{lo}, {hi}]");
        if lo == hi {
            return SInt { lo, hi, stride: 0 };
        }
        let s = stride.max(1);
        let hi = lo + (hi - lo) / s * s;
        if lo == hi {
            SInt { lo, hi, stride: 0 }
        } else {
            SInt { lo, hi, stride: s }
        }
    }

    /// Smallest member.
    pub fn lo(&self) -> u32 {
        self.lo
    }

    /// Largest member.
    pub fn hi(&self) -> u32 {
        self.hi
    }

    /// Grid stride (0 for constants).
    pub fn stride(&self) -> u32 {
        self.stride
    }

    /// Returns the constant if the set is a singleton.
    pub fn is_const(&self) -> Option<u32> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Returns `true` for the full range.
    pub fn is_top(&self) -> bool {
        self.lo == 0 && self.hi == u32::MAX && self.stride == 1
    }

    /// Number of members.
    pub fn count(&self) -> u64 {
        if self.stride == 0 {
            1
        } else {
            (self.hi - self.lo) as u64 / self.stride as u64 + 1
        }
    }

    /// Membership test.
    pub fn contains(&self, v: u32) -> bool {
        v >= self.lo
            && v <= self.hi
            && (self.stride == 0 || (v - self.lo).is_multiple_of(self.stride))
    }

    /// Iterates the members (ascending). Intended for small sets — check
    /// [`SInt::count`] first.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let s = self.stride.max(1);
        (0..self.count()).map(move |k| self.lo + (k as u32) * s)
    }

    /// Returns `true` if every member of `self` is a member of `other`.
    pub fn subset_of(&self, other: &SInt) -> bool {
        if self.lo < other.lo || self.hi > other.hi {
            return false;
        }
        if other.stride <= 1 {
            return true;
        }
        // Every element must satisfy other's congruence.
        (self.lo - other.lo).is_multiple_of(other.stride)
            && (self.stride.is_multiple_of(other.stride) || self.stride == 0)
    }

    // ------------------------------------------------------ lattice ops

    /// Least upper bound.
    pub fn join(&self, other: &SInt) -> SInt {
        let lo = self.lo.min(other.lo);
        let hi = self.hi.max(other.hi);
        if lo == hi {
            return SInt::cst(lo);
        }
        let g = gcd(gcd(self.stride, other.stride), self.lo.abs_diff(other.lo));
        SInt::strided(lo, hi, if g == 0 { 1 } else { g })
    }

    /// Widening with a sorted threshold ladder: descending bounds jump to
    /// the next threshold below (else 0), ascending bounds to the next
    /// threshold above (else `u32::MAX`). Congruence is preserved.
    pub fn widen(&self, other: &SInt, thresholds: &[u32]) -> SInt {
        let joined = self.join(other);
        let mut lo = self.lo;
        let mut hi = self.hi;
        if joined.lo < self.lo {
            lo = thresholds.iter().rev().copied().find(|&t| t <= joined.lo).unwrap_or(0);
        }
        if joined.hi > self.hi {
            hi = thresholds.iter().copied().find(|&t| t >= joined.hi).unwrap_or(u32::MAX);
        }
        if lo == hi {
            return SInt::cst(lo);
        }
        // Keep the joined congruence by aligning the new endpoints onto
        // the grid anchored at joined.lo.
        let g = joined.stride.max(1);
        let lo_aligned = if lo <= joined.lo { joined.lo - (joined.lo - lo) / g * g } else { lo };
        let hi_aligned = if hi >= joined.lo { joined.lo + (hi - joined.lo) / g * g } else { hi };
        if lo_aligned > hi_aligned {
            return joined;
        }
        SInt::strided(lo_aligned, hi_aligned.max(joined.hi), g)
    }

    /// Sound over-approximation of the intersection; `None` when provably
    /// empty (used for branch refinement / infeasible-path detection).
    pub fn meet(&self, other: &SInt) -> Option<SInt> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo > hi {
            return None;
        }
        // Constants: membership check.
        if let Some(c) = self.is_const() {
            return other.contains(c).then_some(*self);
        }
        if let Some(c) = other.is_const() {
            return self.contains(c).then_some(*other);
        }
        let (s1, s2) = (self.stride, other.stride);
        let g = gcd(s1, s2);
        if !(self.lo.abs_diff(other.lo)).is_multiple_of(g) {
            return None; // incompatible congruences
        }
        // Try the exact combined congruence (CRT); fall back to gcd.
        let (anchor, stride) = match crt_residue(self.lo, s1, other.lo, s2) {
            Some((r, m)) => (r as u64, m),
            None => (self.lo as u64, g),
        };
        // First member ≥ lo congruent to anchor (mod stride).
        let s = stride.max(1) as u64;
        let (lo64, hi64) = (lo as u64, hi as u64);
        let lo_adj = if lo64 <= anchor {
            anchor - (anchor - lo64) / s * s
        } else {
            anchor + (lo64 - anchor).div_ceil(s) * s
        };
        if lo_adj > hi64 {
            return None;
        }
        let hi_adj = lo_adj + (hi64 - lo_adj) / s * s;
        Some(SInt::strided(lo_adj as u32, hi_adj as u32, stride))
    }

    /// Removes `v` if it is an endpoint (refinement under `≠ v`);
    /// `None` when the set becomes empty.
    pub fn remove(&self, v: u32) -> Option<SInt> {
        if let Some(c) = self.is_const() {
            return (c != v).then_some(*self);
        }
        if v == self.lo {
            Some(SInt::strided(self.lo + self.stride, self.hi, self.stride))
        } else if v == self.hi {
            Some(SInt::strided(self.lo, self.hi - self.stride, self.stride))
        } else {
            Some(*self)
        }
    }

    // -------------------------------------------------- signed views

    /// The set as a contiguous signed range, if it does not straddle the
    /// signed boundary.
    pub fn signed_range(&self) -> Option<(i32, i32)> {
        if self.hi <= i32::MAX as u32 || self.lo >= BIAS {
            Some((self.lo as i32, self.hi as i32))
        } else {
            None
        }
    }

    /// Maps through `x ↦ x ⊕ 0x8000_0000` (order-preserving from signed
    /// to unsigned), when the set is signed-contiguous.
    fn biased(&self) -> Option<SInt> {
        self.signed_range()?;
        Some(SInt { lo: self.lo ^ BIAS, hi: self.hi ^ BIAS, stride: self.stride })
    }

    fn unbiased(&self) -> SInt {
        SInt { lo: self.lo ^ BIAS, hi: self.hi ^ BIAS, stride: self.stride }
    }

    // -------------------------------------------------- arithmetic

    /// Abstract wrapping addition. Exact when no member wraps *or* every
    /// member wraps (the common `x + (-1 as u32)` down-count shape);
    /// ⊤ only when the sum straddles 2³².
    pub fn add(&self, other: &SInt) -> SInt {
        let lo = self.lo as u64 + other.lo as u64;
        let hi = self.hi as u64 + other.hi as u64;
        const WRAP: u64 = 1 << 32;
        if hi < WRAP {
            SInt::strided(lo as u32, hi as u32, gcd(self.stride, other.stride))
        } else if lo >= WRAP {
            // Every member wraps exactly once: shift back down.
            SInt::strided((lo - WRAP) as u32, (hi - WRAP) as u32, gcd(self.stride, other.stride))
        } else {
            SInt::top()
        }
    }

    /// Abstract wrapping subtraction (same exactness as [`SInt::add`]).
    pub fn sub(&self, other: &SInt) -> SInt {
        let lo = self.lo as i64 - other.hi as i64;
        let hi = self.hi as i64 - other.lo as i64;
        const WRAP: i64 = 1 << 32;
        if lo >= 0 {
            SInt::strided(lo as u32, hi as u32, gcd(self.stride, other.stride))
        } else if hi < 0 {
            SInt::strided((lo + WRAP) as u32, (hi + WRAP) as u32, gcd(self.stride, other.stride))
        } else {
            SInt::top()
        }
    }

    /// Abstract addition of a signed constant (the `addi` transfer).
    pub fn add_i32(&self, k: i32) -> SInt {
        if k >= 0 {
            self.add(&SInt::cst(k as u32))
        } else {
            self.sub(&SInt::cst(k.unsigned_abs()))
        }
    }

    /// Abstract multiplication (overflow ⇒ ⊤).
    pub fn mul(&self, other: &SInt) -> SInt {
        let hi = self.hi as u64 * other.hi as u64;
        if hi > u32::MAX as u64 {
            return SInt::top();
        }
        let lo = self.lo as u64 * other.lo as u64;
        let stride = if let Some(k) = other.is_const() {
            self.stride as u64 * k as u64
        } else if let Some(k) = self.is_const() {
            other.stride as u64 * k as u64
        } else {
            1
        };
        SInt::strided(lo as u32, hi as u32, stride.min(u32::MAX as u64) as u32)
    }

    /// Abstract bitwise and.
    pub fn and(&self, other: &SInt) -> SInt {
        match (self.is_const(), other.is_const()) {
            (Some(a), Some(b)) => SInt::cst(a & b),
            // Masking with a constant bounds the result by the mask; if
            // the mask is low-bits-only the value is also bounded by the
            // operand's maximum.
            (_, Some(m)) => SInt::range(0, m.min(self.hi)),
            (Some(m), _) => SInt::range(0, m.min(other.hi)),
            _ => SInt::range(0, self.hi.min(other.hi)),
        }
    }

    /// Abstract bitwise or (can only raise bits below the joint maximum).
    pub fn or(&self, other: &SInt) -> SInt {
        match (self.is_const(), other.is_const()) {
            (Some(a), Some(b)) => SInt::cst(a | b),
            _ => {
                let max = ones_cover(self.hi | other.hi);
                SInt::range(self.lo.max(other.lo), max)
            }
        }
    }

    /// Abstract bitwise xor.
    pub fn xor(&self, other: &SInt) -> SInt {
        match (self.is_const(), other.is_const()) {
            (Some(a), Some(b)) => SInt::cst(a ^ b),
            _ => SInt::range(0, ones_cover(self.hi | other.hi)),
        }
    }

    /// Abstract logical shift left (shift amounts use the low 5 bits).
    pub fn sll(&self, amount: &SInt) -> SInt {
        match amount.is_const() {
            Some(k) => {
                let k = k & 31;
                let hi = (self.hi as u64) << k;
                if hi > u32::MAX as u64 {
                    return SInt::top();
                }
                SInt::strided(
                    self.lo << k,
                    hi as u32,
                    (self.stride << k).max((self.stride > 0) as u32),
                )
            }
            None => SInt::top(),
        }
    }

    /// Abstract logical shift right.
    pub fn srl(&self, amount: &SInt) -> SInt {
        match amount.is_const() {
            Some(k) => {
                let k = k & 31;
                let s = if self.stride > 0 && self.stride.is_multiple_of(1u32 << k.min(31)) {
                    self.stride >> k
                } else {
                    1
                };
                SInt::strided(self.lo >> k, self.hi >> k, s)
            }
            None => SInt::range(0, self.hi),
        }
    }

    /// Abstract arithmetic shift right.
    pub fn sra(&self, amount: &SInt) -> SInt {
        match (amount.is_const(), self.signed_range()) {
            (Some(k), Some((lo, hi))) => {
                let k = k & 31;
                let (a, b) = (lo >> k, hi >> k); // monotone in signed order
                if a >= 0 || b < 0 {
                    // Entirely non-negative or entirely negative: also
                    // contiguous (and ordered) in the unsigned view.
                    SInt::range(a as u32, b as u32)
                } else {
                    SInt::top()
                }
            }
            _ => SInt::top(),
        }
    }

    /// Abstract signed `slt` (0/1 result, exact when the order is decided).
    pub fn slt(&self, other: &SInt) -> SInt {
        match (self.signed_range(), other.signed_range()) {
            (Some((alo, ahi)), Some((blo, bhi))) => {
                if ahi < blo {
                    SInt::cst(1)
                } else if alo >= bhi {
                    SInt::cst(0)
                } else {
                    SInt::range(0, 1)
                }
            }
            _ => SInt::range(0, 1),
        }
    }

    /// Abstract unsigned `sltu`.
    pub fn sltu(&self, other: &SInt) -> SInt {
        if self.hi < other.lo {
            SInt::cst(1)
        } else if self.lo >= other.hi {
            SInt::cst(0)
        } else {
            SInt::range(0, 1)
        }
    }

    /// Abstract signed division (precise only for non-negative ranges and
    /// constant positive divisors — the common strength-reduction shapes).
    pub fn div(&self, other: &SInt) -> SInt {
        match (self.signed_range(), other.is_const()) {
            (Some((lo, hi)), Some(d)) if lo >= 0 && (1..=i32::MAX as u32).contains(&d) => {
                SInt::range((lo as u32) / d, (hi as u32) / d)
            }
            _ => SInt::top(),
        }
    }

    /// Abstract signed remainder (same precise cases as [`SInt::div`]).
    pub fn rem(&self, other: &SInt) -> SInt {
        match (self.signed_range(), other.is_const()) {
            (Some((lo, _hi)), Some(d)) if lo >= 0 && (1..=i32::MAX as u32).contains(&d) => {
                if self.hi < d {
                    *self
                } else {
                    SInt::range(0, d - 1)
                }
            }
            _ => SInt::top(),
        }
    }

    /// Word-aligns every member (`x & !3`, the `jalr` target rule).
    pub fn align4(&self) -> SInt {
        let lo = self.lo & !3;
        let hi = self.hi & !3;
        let s = if self.stride == 0 {
            0
        } else if self.stride.is_multiple_of(4) && self.lo.is_multiple_of(4) {
            self.stride
        } else {
            4
        };
        SInt::strided(lo, hi, s)
    }

    // -------------------------------------------------- refinement

    /// Refines `(a, b)` under the assumption `a cond b`; `None` when the
    /// condition is unsatisfiable (an infeasible branch direction).
    pub fn refine(cond: stamp_isa::Cond, a: &SInt, b: &SInt) -> Option<(SInt, SInt)> {
        use stamp_isa::Cond;
        match cond {
            Cond::Eq => {
                let m = a.meet(b)?;
                Some((m, m))
            }
            Cond::Ne => {
                if let (Some(x), Some(y)) = (a.is_const(), b.is_const()) {
                    if x == y {
                        return None;
                    }
                }
                let a2 = match b.is_const() {
                    Some(v) => a.remove(v)?,
                    None => *a,
                };
                let b2 = match a.is_const() {
                    Some(v) => b.remove(v)?,
                    None => *b,
                };
                Some((a2, b2))
            }
            Cond::Ltu => {
                if b.hi == 0 {
                    return None;
                }
                let a2 = a.meet(&SInt::range(0, b.hi - 1))?;
                let b2 = b.meet(&SInt::range(a.lo.checked_add(1)?, u32::MAX))?;
                Some((a2, b2))
            }
            Cond::Geu => {
                let a2 = a.meet(&SInt::range(b.lo, u32::MAX))?;
                let b2 = b.meet(&SInt::range(0, a.hi))?;
                Some((a2, b2))
            }
            Cond::Lt | Cond::Ge => {
                let (ab, bb) = match (a.biased(), b.biased()) {
                    (Some(x), Some(y)) => (x, y),
                    _ => return Some((*a, *b)), // straddling: no refinement
                };
                let sub = if cond == Cond::Lt { Cond::Ltu } else { Cond::Geu };
                let (ra, rb) = SInt::refine(sub, &ab, &bb)?;
                Some((ra.unbiased(), rb.unbiased()))
            }
        }
    }
}

/// Smallest all-ones value covering `v` (e.g. `0b1010 → 0b1111`).
fn ones_cover(v: u32) -> u32 {
    if v == 0 {
        0
    } else {
        u32::MAX >> v.leading_zeros()
    }
}

/// Solves `x ≡ r1 (mod s1) ∧ x ≡ r2 (mod s2)` via the Chinese remainder
/// theorem. Returns the canonical residue and the combined modulus
/// `lcm(s1, s2)` when the system is solvable and the modulus fits in u32.
fn crt_residue(r1: u32, s1: u32, r2: u32, s2: u32) -> Option<(u32, u32)> {
    if s1 == 0 || s2 == 0 {
        return None;
    }
    let (g, p, _q) = ext_gcd(s1 as i128, s2 as i128); // s1·p + s2·q = g
    let diff = r2 as i128 - r1 as i128;
    if diff % g != 0 {
        return None;
    }
    let lcm = (s1 as i128 / g) * s2 as i128;
    if lcm > u32::MAX as i128 {
        return None;
    }
    let m = s2 as i128 / g;
    let t = ((diff / g) % m * (p % m)) % m;
    let x = r1 as i128 + s1 as i128 * t;
    let x = ((x % lcm) + lcm) % lcm;
    Some((x as u32, lcm as u32))
}

/// Extended Euclid: returns `(g, x, y)` with `a·x + b·y = g`.
fn ext_gcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, x, y) = ext_gcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}

impl fmt::Debug for SInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for SInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(c) = self.is_const() {
            if c > 0xffff {
                write!(f, "{c:#x}")
            } else {
                write!(f, "{c}")
            }
        } else if self.is_top() {
            f.write_str("⊤")
        } else if self.stride <= 1 {
            write!(f, "[{:#x}, {:#x}]", self.lo, self.hi)
        } else {
            write!(f, "[{:#x}, {:#x}]/{}", self.lo, self.hi, self.stride)
        }
    }
}

impl stamp_codec::Codec for SInt {
    fn enc(&self, e: &mut stamp_codec::Enc) {
        e.u32(self.lo);
        e.u32(self.hi);
        e.u32(self.stride);
    }
    // Checks the type invariants explicitly so corrupt bytes yield a
    // decode error rather than a panicking constructor call.
    fn dec(d: &mut stamp_codec::Dec) -> Result<SInt, stamp_codec::CodecError> {
        let (lo, hi, stride) = (d.u32()?, d.u32()?, d.u32()?);
        let ok =
            lo <= hi && ((stride == 0) == (lo == hi)) && (stride == 0 || (hi - lo) % stride == 0);
        if ok {
            Ok(SInt { lo, hi, stride })
        } else {
            Err(stamp_codec::CodecError::Invalid("strided interval"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_isa::Cond;

    #[test]
    fn construction_normalizes() {
        let v = SInt::strided(0, 10, 4);
        assert_eq!(v.hi(), 8); // aligned down
        assert_eq!(v.count(), 3);
        let c = SInt::strided(5, 5, 4);
        assert_eq!(c.stride(), 0);
        assert_eq!(c.is_const(), Some(5));
    }

    #[test]
    fn join_keeps_congruence() {
        let a = SInt::cst(0x100);
        let b = SInt::cst(0x108);
        let j = a.join(&b);
        assert_eq!(j.stride(), 8);
        assert!(j.contains(0x100) && j.contains(0x108) && !j.contains(0x104));
        let k = j.join(&SInt::cst(0x104));
        assert_eq!(k.stride(), 4);
    }

    #[test]
    fn meet_detects_empty_and_congruence() {
        let a = SInt::range(0, 10);
        let b = SInt::range(20, 30);
        assert_eq!(a.meet(&b), None);
        // Congruence-incompatible.
        let a = SInt::strided(0, 40, 4);
        let b = SInt::strided(2, 42, 4);
        assert_eq!(a.meet(&b), None);
        // Compatible with CRT: x ≡ 0 mod 4 and x ≡ 0 mod 6 → mod 12.
        let a = SInt::strided(0, 48, 4);
        let b = SInt::strided(0, 48, 6);
        let m = a.meet(&b).unwrap();
        assert_eq!(m.stride(), 12);
        assert_eq!(m.lo(), 0);
        assert_eq!(m.hi(), 48);
    }

    #[test]
    fn meet_keeps_stride_against_plain_range() {
        let idx = SInt::strided(0x1000, 0x1100, 16);
        let m = idx.meet(&SInt::range(0, 0x10f0)).unwrap();
        assert_eq!(m.stride(), 16);
        assert_eq!(m.hi(), 0x10f0);
    }

    #[test]
    fn add_sub_wrap_exact_or_top() {
        // Uniform wrap: exact result shifted by 2³².
        let a = SInt::range(0xffff_fff0, 0xffff_ffff);
        assert_eq!(a.add(&SInt::cst(0x20)), SInt::range(0x10, 0x1f));
        let b = SInt::range(0, 4);
        assert_eq!(b.sub(&SInt::cst(8)), SInt::range(0xffff_fff8, 0xffff_fffc));
        // Down-counting on an interval stays exact (the addi -1 shape).
        assert_eq!(SInt::range(2, 9).add(&SInt::cst(u32::MAX)), SInt::range(1, 8));
        // Straddling wrap: ⊤.
        assert!(a.add(&SInt::range(0, 0x20)).is_top());
        assert!(SInt::range(0, 4).sub(&SInt::range(0, 8)).is_top());
        assert_eq!(SInt::cst(8).add_i32(-3), SInt::cst(5));
        assert_eq!(SInt::cst(8).add_i32(3), SInt::cst(11));
    }

    #[test]
    fn mul_scales_stride() {
        let i = SInt::range(0, 9);
        let scaled = i.mul(&SInt::cst(4));
        assert_eq!(scaled, SInt::strided(0, 36, 4));
    }

    #[test]
    fn and_bounds_by_mask() {
        let x = SInt::top();
        let masked = x.and(&SInt::cst(0xff));
        assert_eq!(masked, SInt::range(0, 0xff));
        assert_eq!(SInt::cst(0b1100).and(&SInt::cst(0b1010)), SInt::cst(0b1000));
    }

    #[test]
    fn shifts() {
        assert_eq!(SInt::range(0, 9).sll(&SInt::cst(2)), SInt::strided(0, 36, 4));
        assert_eq!(SInt::strided(0, 64, 8).srl(&SInt::cst(2)), SInt::strided(0, 16, 2));
        assert_eq!(SInt::cst(0x8000_0000).sra(&SInt::cst(31)), SInt::cst(u32::MAX));
        assert!(SInt::range(1, 2).sll(&SInt::range(0, 1)).is_top());
    }

    #[test]
    fn comparisons_decided() {
        assert_eq!(SInt::range(0, 3).sltu(&SInt::range(5, 9)), SInt::cst(1));
        assert_eq!(SInt::range(5, 9).sltu(&SInt::range(0, 3)), SInt::cst(0));
        assert_eq!(SInt::range(0, 9).sltu(&SInt::range(5, 9)), SInt::range(0, 1));
        // Signed: -1 < 0.
        assert_eq!(SInt::cst(u32::MAX).slt(&SInt::cst(0)), SInt::cst(1));
    }

    #[test]
    fn div_rem_positive_cases() {
        assert_eq!(SInt::range(0, 100).div(&SInt::cst(10)), SInt::range(0, 10));
        assert_eq!(SInt::range(0, 100).rem(&SInt::cst(8)), SInt::range(0, 7));
        assert_eq!(SInt::range(0, 5).rem(&SInt::cst(8)), SInt::range(0, 5));
        assert!(SInt::top().div(&SInt::top()).is_top());
    }

    #[test]
    fn refine_unsigned_less() {
        let i = SInt::range(0, 100);
        let n = SInt::cst(10);
        let (ri, _) = SInt::refine(Cond::Ltu, &i, &n).unwrap();
        assert_eq!(ri, SInt::range(0, 9));
        // Infeasible: nothing is < 0.
        assert!(SInt::refine(Cond::Ltu, &i, &SInt::cst(0)).is_none());
    }

    #[test]
    fn refine_signed_less() {
        // x ∈ [-5, -1]: all-negative ranges are signed-contiguous.
        let x = SInt::range(-5i32 as u32, -1i32 as u32);
        let (rx, _) = SInt::refine(Cond::Lt, &x, &SInt::cst(0)).unwrap();
        assert_eq!(rx.signed_range().unwrap(), (-5, -1));
        // x ≥ 0 is infeasible for an all-negative range.
        assert!(SInt::refine(Cond::Ge, &x, &SInt::cst(0)).is_none());
        // Refinement narrows: x < -2 → [-5, -3].
        let (rx, _) = SInt::refine(Cond::Lt, &x, &SInt::cst(-2i32 as u32)).unwrap();
        assert_eq!(rx.signed_range().unwrap(), (-5, -3));
    }

    #[test]
    fn refine_eq_ne() {
        let a = SInt::range(0, 10);
        let (ra, rb) = SInt::refine(Cond::Eq, &a, &SInt::cst(7)).unwrap();
        assert_eq!(ra, SInt::cst(7));
        assert_eq!(rb, SInt::cst(7));
        assert!(SInt::refine(Cond::Eq, &SInt::cst(1), &SInt::cst(2)).is_none());
        let (ra, _) = SInt::refine(Cond::Ne, &SInt::range(0, 4), &SInt::cst(4)).unwrap();
        assert_eq!(ra, SInt::range(0, 3));
        assert!(SInt::refine(Cond::Ne, &SInt::cst(3), &SInt::cst(3)).is_none());
    }

    #[test]
    fn widen_uses_thresholds() {
        let thresholds = [0u32, 16, 100, 1000];
        let a = SInt::cst(0);
        let b = SInt::range(0, 2);
        let w = a.widen(&b, &thresholds);
        assert_eq!(w.hi(), 16); // jumped to the threshold, not MAX
        assert!(b.subset_of(&w));
        let w2 = w.widen(&SInt::range(0, 120), &thresholds);
        assert_eq!(w2.hi(), 1000);
        let w3 = w2.widen(&SInt::range(0, 5000), &thresholds);
        assert_eq!(w3.hi(), u32::MAX);
    }

    #[test]
    fn widen_preserves_stride() {
        let thresholds = [0u32, 0x1000_0400];
        let a = SInt::strided(0x1000_0000, 0x1000_0010, 4);
        let b = SInt::strided(0x1000_0000, 0x1000_0020, 4);
        let w = a.widen(&b, &thresholds);
        assert_eq!(w.stride(), 4);
        assert!(b.subset_of(&w));
        assert!(w.hi() <= 0x1000_0400);
    }

    #[test]
    fn align4_is_sound() {
        let v = SInt::range(0x101, 0x10a);
        let a = v.align4();
        for x in v.iter() {
            assert!(a.contains(x & !3), "{:x} missing", x & !3);
        }
        assert_eq!(a.stride(), 4);
    }

    #[test]
    fn subset_of_checks_congruence() {
        let fine = SInt::strided(0, 16, 4);
        let coarse = SInt::strided(0, 16, 2);
        assert!(fine.subset_of(&coarse));
        assert!(!coarse.subset_of(&fine));
        assert!(SInt::cst(8).subset_of(&fine));
        assert!(!SInt::cst(6).subset_of(&fine));
    }

    #[test]
    fn display_forms() {
        assert_eq!(SInt::cst(5).to_string(), "5");
        assert_eq!(SInt::top().to_string(), "⊤");
        assert_eq!(SInt::strided(0, 8, 4).to_string(), "[0x0, 0x8]/4");
    }
}
