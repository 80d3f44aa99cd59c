//! Arithmetic in `GF(2⁸)` with the AES reduction polynomial
//! `x⁸ + x⁴ + x³ + x + 1` (0x11B). Multiplication and inversion go
//! through 256-entry log/antilog tables generated from the generator
//! `0x03` at compile time ([`GF`]); addition is XOR.

/// The field's tables, built once by the compiler: the coder's op path
/// reads this instead of constructing a [`Gf256`] per call.
pub static GF: Gf256 = Gf256::new();

/// Precomputed `GF(2⁸)` tables.
#[derive(Clone)]
pub struct Gf256 {
    exp: [u8; 512], // doubled to skip a mod 255
    log: [u8; 256],
}

impl Gf256 {
    /// Build the tables. `const`, so [`GF`] costs nothing at run time.
    pub const fn new() -> Self {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        let mut i = 0;
        while i < 255 {
            exp[i] = x as u8;
            log[x as usize] = i as u8;
            // multiply x by the generator 0x03 = x + 1: x*3 = x*2 ^ x
            let x2 = x << 1;
            let x2 = if x2 & 0x100 != 0 { x2 ^ 0x11B } else { x2 };
            x = (x2 ^ x) & 0xFF;
            i += 1;
        }
        while i < 512 {
            exp[i] = exp[i - 255];
            i += 1;
        }
        Gf256 { exp, log }
    }

    /// Field addition (= subtraction): XOR.
    #[inline]
    pub fn add(&self, a: u8, b: u8) -> u8 {
        a ^ b
    }

    /// Field multiplication.
    #[inline]
    pub fn mul(&self, a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize]
        }
    }

    /// Multiplicative inverse (panics on 0).
    #[inline]
    pub fn inv(&self, a: u8) -> u8 {
        assert!(a != 0, "inverse of zero");
        self.exp[255 - self.log[a as usize] as usize]
    }

    /// Division `a / b`.
    #[inline]
    pub fn div(&self, a: u8, b: u8) -> u8 {
        self.mul(a, self.inv(b))
    }
}

impl Default for Gf256 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_products() {
        let f = Gf256::new();
        // AES test vectors
        assert_eq!(f.mul(0x57, 0x83), 0xC1);
        assert_eq!(f.mul(0x57, 0x13), 0xFE);
    }

    #[test]
    fn identity_and_zero() {
        let f = Gf256::new();
        for a in 0..=255u8 {
            assert_eq!(f.mul(a, 1), a);
            assert_eq!(f.mul(a, 0), 0);
            assert_eq!(f.add(a, a), 0);
        }
    }

    #[test]
    fn inverses() {
        let f = Gf256::new();
        for a in 1..=255u8 {
            assert_eq!(f.mul(a, f.inv(a)), 1, "a = {a}");
        }
    }

    proptest! {
        #[test]
        fn prop_mul_commutative_associative(a: u8, b: u8, c: u8) {
            let f = Gf256::new();
            prop_assert_eq!(f.mul(a, b), f.mul(b, a));
            prop_assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
        }

        #[test]
        fn prop_distributive(a: u8, b: u8, c: u8) {
            let f = Gf256::new();
            prop_assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
        }
    }
}
