//! Reed-Solomon erasure code over `GF(2⁸)`: `k` data shards become
//! `m ≤ 255` shares such that **any** `k` shares reconstruct the data.
//!
//! The code is a **non-systematic** Vandermonde evaluation: the value,
//! followed by its length as an 8-byte big-endian trailer and fewer
//! than `k` zero bytes of padding, is cut into `k` shards of
//! [`shard_len`] bytes, and share `i` is `Σ_j shards[j]·x_i^j` at the
//! point `x_i = i + 1`. Share 0 is therefore the XOR of all shards and
//! no share is a verbatim shard. It stays that way because shelves and
//! write-ahead logs already hold these bytes: a systematic code would
//! orphan every stored share.
//!
//! Both directions are one matrix product over the shard rows —
//! `V·shards` to encode, `V⁻¹·shares` to decode — and share the one
//! multiply-accumulate loop over payload bytes, `mul_rows`.

use crate::gf256::GF;
use bytes::Bytes;
use std::fmt;

/// One coded share.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Share {
    /// Share index in `0..m` (determines the evaluation point).
    pub index: u8,
    /// Payload (all shares of an item have equal length).
    pub data: Bytes,
}

/// Why a reconstruction failed. Decoding with too few shares is an
/// expected runtime condition of the replicated store (more than
/// `m − k` covers gone), so it is a typed error, never a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer than `k` *distinct* shares were supplied.
    NotEnoughShares {
        /// Distinct shares available.
        have: usize,
        /// The reconstruction threshold `k`.
        need: usize,
    },
    /// The supplied shares disagree on the payload length.
    LengthMismatch,
    /// The shares are not a consistent codeword (mixed versions,
    /// corrupted payloads, or a malformed length trailer).
    Inconsistent,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::NotEnoughShares { have, need } => {
                write!(f, "only {have} distinct shares, need {need} to reconstruct")
            }
            DecodeError::LengthMismatch => write!(f, "shares have unequal payload lengths"),
            DecodeError::Inconsistent => write!(f, "shares do not form a consistent codeword"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Bytes per share of a `len`-byte value cut into `k` shards: the
/// value plus its 8-byte length trailer, rounded up to a multiple of
/// `k`. The single definition the coder and the wire model share.
pub fn shard_len(len: usize, k: usize) -> usize {
    (len + 8).div_ceil(k)
}

/// Bytes the kernel handles per step: two SSE2 registers per row. The
/// coefficient-bit test is paid once per block, so 64 is faster still
/// (16 KiB, k = 4, m = 8: 11.7 vs 20.7 µs); DESIGN §9 has why it waits.
const BLOCK: usize = 32;

/// Multiply every lane by `x` (the field element 2): shift left and
/// fold the carried-out bit back in as the reduction polynomial.
#[inline]
fn xtime(v: &mut [u8; BLOCK]) {
    for b in v.iter_mut() {
        let carry = ((*b as i8) >> 7) as u8; // 0xFF iff the top bit is set
        *b = (*b << 1) ^ (carry & 0x1B);
    }
}

/// `dst[r] = Σ_c coeff[r][c]·src[c]` over `GF(2⁸)`, row by row of
/// bytes: `coeff` is row-major `rows × src.len()`, every `src[c]` has
/// the same length and `dst` is `rows` such rows back to back.
///
/// Per [`BLOCK`] of a source row the doublings `s, 2s, 4s, …` are
/// formed once and each is XORed into every output row whose
/// coefficient has that bit set — a product by a constant is the XOR
/// of the doublings its bits select. The lane loops have a constant
/// trip count, so the compiler vectorises them without `unsafe` or
/// target features; the bytes past the last whole block go through the
/// scalar table multiply.
fn mul_rows(coeff: &[u8], src: &[&[u8]], dst: &mut [u8]) {
    let cols = src.len();
    let rows = coeff.len() / cols;
    let len = src[0].len();
    assert!(coeff.len() == rows * cols && dst.len() == rows * len, "mul_rows: shape mismatch");
    let whole = len - len % BLOCK;
    let mut acc = vec![[0u8; BLOCK]; rows];
    for off in (0..whole).step_by(BLOCK) {
        acc.fill([0; BLOCK]);
        for (c, s) in src.iter().enumerate() {
            let mut d: [u8; BLOCK] = s[off..off + BLOCK].try_into().expect("a whole block");
            let used = coeff.iter().skip(c).step_by(cols).fold(0, |bits, &x| bits | x);
            for bit in 0..u8::BITS - used.leading_zeros() {
                for (a, row) in acc.iter_mut().zip(coeff.chunks_exact(cols)) {
                    if row[c] >> bit & 1 != 0 {
                        for (x, y) in a.iter_mut().zip(&d) {
                            *x ^= y;
                        }
                    }
                }
                xtime(&mut d);
            }
        }
        for (out, a) in dst.chunks_exact_mut(len).zip(&acc) {
            out[off..off + BLOCK].copy_from_slice(a);
        }
    }
    for (out, row) in dst.chunks_exact_mut(len).zip(coeff.chunks_exact(cols)) {
        for i in whole..len {
            out[i] = row.iter().zip(src).fold(0, |sum, (&c, s)| sum ^ GF.mul(c, s[i]));
        }
    }
}

/// The Vandermonde rows `[1, x, x², …, x^(k−1)]` at the given points,
/// row-major.
fn vandermonde(points: impl Iterator<Item = u8>, k: usize) -> Vec<u8> {
    points.flat_map(|x| (0..k).map(move |j| GF.pow(x, j))).collect()
}

/// Invert the row-major `k × k` matrix `a` by Gauss–Jordan elimination
/// (`k²` coefficient bytes — the payload is not touched). `None` iff
/// `a` is singular.
fn invert(mut a: Vec<u8>, k: usize) -> Option<Vec<u8>> {
    let mut inv = vec![0u8; k * k];
    for i in 0..k {
        inv[i * k + i] = 1;
    }
    for col in 0..k {
        let pivot = (col..k).find(|&r| a[r * k + col] != 0)?;
        for j in 0..k {
            a.swap(col * k + j, pivot * k + j);
            inv.swap(col * k + j, pivot * k + j);
        }
        let scale = GF.inv(a[col * k + col]);
        for j in 0..k {
            a[col * k + j] = GF.mul(a[col * k + j], scale);
            inv[col * k + j] = GF.mul(inv[col * k + j], scale);
        }
        for r in 0..k {
            let factor = a[r * k + col];
            if r == col || factor == 0 {
                continue;
            }
            for j in 0..k {
                a[r * k + j] ^= GF.mul(factor, a[col * k + j]);
                inv[r * k + j] ^= GF.mul(factor, inv[col * k + j]);
            }
        }
    }
    Some(inv)
}

/// Share rows `first..first + rows` of `data` cut into `k` shards,
/// back to back: share i = Σ_j shards[j] · x_i^j with x_i = i + 1
/// (nonzero points). Returns the buffer and the share length.
fn encode_rows(data: &[u8], k: usize, first: usize, rows: usize) -> (Vec<u8>, usize) {
    // shard layout: data ‖ 8-byte big-endian length ‖ < k zero bytes
    let len = shard_len(data.len(), k);
    let mut padded = Vec::with_capacity(len * k);
    padded.extend_from_slice(data);
    padded.extend_from_slice(&(data.len() as u64).to_be_bytes());
    padded.resize(len * k, 0);
    let shards: Vec<&[u8]> = padded.chunks_exact(len).collect();
    let mut out = vec![0u8; len * rows];
    let points = (first + 1..=first + rows).map(|x| x as u8);
    mul_rows(&vandermonde(points, k), &shards, &mut out);
    (out, len)
}

/// Split `data` into `k` shards (padding with the length trailer) and
/// produce `m` shares, any `k` of which reconstruct. `0 < k ≤ m ≤ 255`.
/// The shares are windows into one shared buffer.
pub fn encode(data: &[u8], k: usize, m: usize) -> Vec<Share> {
    assert!(0 < k && k <= m && m <= 255, "need 0 < k ≤ m ≤ 255");
    let (out, len) = encode_rows(data, k, 0, m);
    let out = Bytes::from(out);
    (0..m).map(|i| Share { index: i as u8, data: out.slice(i * len..(i + 1) * len) }).collect()
}

/// Share `idx` of `data` alone — `encode(data, k, m)[idx]` for any
/// `m > idx`, through the same kernel with one Vandermonde row instead
/// of `m`. What repair needs to replace one lost share. `0 < k`,
/// `idx < 255`.
pub fn encode_row(data: &[u8], k: usize, idx: u8) -> Share {
    assert!(0 < k && k <= 255 && idx < u8::MAX, "need 0 < k ≤ 255 and idx < 255");
    let (out, _) = encode_rows(data, k, usize::from(idx), 1);
    Share { index: idx, data: Bytes::from(out) }
}

/// Reconstruct the original data from any `k` distinct shares.
/// `Option` facade over [`try_decode`], kept for call sites that only
/// care whether reconstruction succeeded.
pub fn decode(shares: &[Share], k: usize) -> Option<Vec<u8>> {
    try_decode(shares, k).ok()
}

/// Reconstruct the original data from any `k` distinct shares,
/// reporting *why* on failure — too few shares left is the expected
/// failure mode of a store that lost more than `m − k` covers, and
/// callers distinguish it from genuine codeword corruption. Never
/// panics, whatever the shares hold: `k = 0` and a share index of 255
/// (no evaluation point) are [`DecodeError::Inconsistent`].
pub fn try_decode(shares: &[Share], k: usize) -> Result<Vec<u8>, DecodeError> {
    if k == 0 {
        return Err(DecodeError::Inconsistent);
    }
    // the first k distinct shares
    let mut seen = [false; 256];
    let chosen: Vec<&Share> = shares
        .iter()
        .filter(|s| !std::mem::replace(&mut seen[s.index as usize], true))
        .take(k)
        .collect();
    if chosen.len() < k {
        return Err(DecodeError::NotEnoughShares { have: chosen.len(), need: k });
    }
    if chosen.iter().any(|s| s.index == u8::MAX) {
        return Err(DecodeError::Inconsistent);
    }
    let len = chosen[0].data.len();
    if chosen.iter().any(|s| s.data.len() != len) {
        return Err(DecodeError::LengthMismatch);
    }
    let total = k * len;
    if total < 8 {
        return Err(DecodeError::Inconsistent);
    }
    // shares = V · shards with V[r][j] = x_r^j, x_r = index+1, so
    // shards = V⁻¹ · shares. (V on distinct nonzero points always has
    // an inverse; its absence means the share set was not a codeword.)
    let v = vandermonde(chosen.iter().map(|s| s.index + 1), k);
    let inverse = invert(v, k).ok_or(DecodeError::Inconsistent)?;
    let rows: Vec<&[u8]> = chosen.iter().map(|s| &s.data[..]).collect();
    let mut padded = vec![0u8; total];
    mul_rows(&inverse, &rows, &mut padded);
    // padded = data ‖ len ‖ fewer than k zeros, so the trailer starts
    // in the last k windows; anything else is not an `encode` layout.
    for at in (total.saturating_sub(8 + k - 1)..=total - 8).rev() {
        let trailer: [u8; 8] = padded[at..at + 8].try_into().expect("an 8-byte window");
        if u64::from_be_bytes(trailer) == at as u64 && padded[at + 8..].iter().all(|&b| b == 0) {
            padded.truncate(at);
            return Ok(padded);
        }
    }
    Err(DecodeError::Inconsistent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_all_shares() {
        let data = b"the continuous-discrete approach".to_vec();
        let shares = encode(&data, 4, 9);
        assert_eq!(shares.len(), 9);
        let back = decode(&shares, 4).expect("decodes");
        assert_eq!(back, data);
    }

    #[test]
    fn any_k_of_m_suffice() {
        let data: Vec<u8> = (0..100u8).collect();
        let (k, m) = (5usize, 12usize);
        let shares = encode(&data, k, m);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..30 {
            let mut subset = shares.clone();
            subset.shuffle(&mut rng);
            subset.truncate(k);
            assert_eq!(decode(&subset, k).expect("any k decode"), data);
        }
    }

    #[test]
    fn fewer_than_k_fail() {
        let data = b"secret".to_vec();
        let shares = encode(&data, 3, 6);
        assert!(decode(&shares[..2], 3).is_none());
    }

    #[test]
    fn k_equals_one_is_replication() {
        let data = b"replica".to_vec();
        let shares = encode(&data, 1, 4);
        for s in &shares {
            assert_eq!(decode(std::slice::from_ref(s), 1).expect("single share"), data);
        }
    }

    #[test]
    fn empty_data_roundtrips() {
        let shares = encode(&[], 3, 5);
        assert_eq!(decode(&shares[1..4], 3).expect("decodes"), Vec::<u8>::new());
    }

    #[test]
    fn duplicate_share_indices_rejected_gracefully() {
        let data = b"dup".to_vec();
        let shares = encode(&data, 2, 4);
        let dup = vec![shares[0].clone(), shares[0].clone()];
        assert!(decode(&dup, 2).is_none());
    }

    #[test]
    fn too_few_shares_is_a_typed_error() {
        let shares = encode(b"typed", 3, 6);
        assert_eq!(
            try_decode(&shares[..2], 3),
            Err(DecodeError::NotEnoughShares { have: 2, need: 3 })
        );
        // duplicates don't count as distinct
        let dup = vec![shares[0].clone(), shares[0].clone(), shares[0].clone()];
        assert_eq!(
            try_decode(&dup, 3),
            Err(DecodeError::NotEnoughShares { have: 1, need: 3 })
        );
        assert_eq!(
            try_decode(&[], 2),
            Err(DecodeError::NotEnoughShares { have: 0, need: 2 })
        );
    }

    #[test]
    fn unequal_share_lengths_are_a_typed_error() {
        let mut shares = encode(b"lengths", 2, 4);
        shares[1].data = Bytes::from_static(b"x");
        assert_eq!(try_decode(&shares[..2], 2), Err(DecodeError::LengthMismatch));
    }

    #[test]
    fn zero_threshold_is_a_typed_error() {
        assert_eq!(try_decode(&[], 0), Err(DecodeError::Inconsistent));
        let shares = encode(b"k = 0", 2, 4);
        assert_eq!(try_decode(&shares, 0), Err(DecodeError::Inconsistent));
    }

    #[test]
    fn share_index_without_a_point_is_a_typed_error() {
        // index 255 would evaluate at x = 256: not a field element
        let mut shares = encode(b"hostile index", 2, 4);
        shares[1].index = 255;
        assert_eq!(try_decode(&shares[..2], 2), Err(DecodeError::Inconsistent));
    }

    #[test]
    fn every_small_length_and_threshold_roundtrips() {
        for len in 0..64usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            for k in 1..=9 {
                let shares = encode(&data, k, k + 2);
                assert!(shares.iter().all(|s| s.data.len() == shard_len(len, k)));
                assert_eq!(try_decode(&shares[2..], k).as_ref(), Ok(&data), "len {len}, k {k}");
            }
        }
    }

    #[test]
    fn trailer_followed_by_k_or_more_zeros_is_rejected() {
        // `encode` is linear in its padded buffer, so XORing the shares
        // of two 16-byte values cancels their trailers and leaves the
        // codeword of (a ^ b) ‖ 0⁸. With a ^ b = "abc" ‖ len 3 ‖ 0⁵ that
        // is a well-formed trailer followed by 13 ≥ k zeros — a layout
        // `encode` never produces, since it pads by fewer than k.
        let k = 3;
        let a = [0xA5u8; 16];
        let mut b = a;
        for (x, y) in b.iter_mut().zip(b"abc\0\0\0\0\0\0\0\x03") {
            *x ^= y;
        }
        let forged: Vec<Share> = encode(&a, k, 5)
            .into_iter()
            .zip(encode(&b, k, 5))
            .map(|(s, t)| {
                let data: Vec<u8> = s.data.iter().zip(t.data.iter()).map(|(x, y)| x ^ y).collect();
                Share { index: s.index, data: Bytes::from(data) }
            })
            .collect();
        assert_eq!(try_decode(&forged, k), Err(DecodeError::Inconsistent));
    }

    #[test]
    fn mul_rows_matches_scalar_mul_for_every_coefficient() {
        // 70 bytes: whole blocks plus a scalar tail
        let a: Vec<u8> = (0..70u32).map(|i| (i * 151 + 7) as u8).collect();
        let b: Vec<u8> = (0..70u32).map(|i| (i * 29 + 250) as u8).collect();
        for c in 0..=255u8 {
            // rows [c, c̄] and [1, c]; then the same with column 1 zeroed
            for coeff in [[c, !c, 1, c], [c, 0, 1, 0]] {
                let mut dst = vec![0xEEu8; 2 * 70];
                mul_rows(&coeff, &[&a, &b], &mut dst);
                for i in 0..70 {
                    assert_eq!(dst[i], GF.mul(coeff[0], a[i]) ^ GF.mul(coeff[1], b[i]), "c {c}, byte {i}");
                    assert_eq!(dst[70 + i], GF.mul(coeff[2], a[i]) ^ GF.mul(coeff[3], b[i]), "c {c}, byte {i}");
                }
            }
        }
    }

    #[test]
    fn golden_codeword_is_pinned() {
        // Shelves and write-ahead logs hold these bytes: a change to the
        // codeword has to edit this vector, i.e. announce itself.
        let data: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(7).wrapping_add(3)).collect();
        let golden = [
            "939a61686fb6bd8490f0f0909090b098",
            "447be1decb093837763d20cbc2d9d46f",
            "d4eb91aebb99a887dd8f990b0517019b",
            "66dbaa177c28bfc9a1bc9b7d664b1c87",
            "f64bda670cb82f790a0e22bda185c973",
            "21aa5ad1a807aacaecc3f2e6f3ccad84",
        ];
        let shares = encode(&data, 3, 6);
        assert_eq!(shares.len(), golden.len());
        for (share, want) in shares.iter().zip(golden) {
            let hex: String = share.data.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, want, "share {}", share.index);
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..200),
                          k in 1usize..8, extra in 0usize..8, seed: u64) {
            let m = k + extra;
            let shares = encode(&data, k, m);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut subset = shares.clone();
            subset.shuffle(&mut rng);
            subset.truncate(k);
            prop_assert_eq!(decode(&subset, k).expect("decode"), data);
        }

        #[test]
        fn prop_one_row_is_that_row_of_the_full_encode(
            data in proptest::collection::vec(any::<u8>(), 0..200),
            m in 1usize..=16, k_seed: usize) {
            // up to 200 bytes: shares past two whole 32-byte blocks, so
            // the scalar tail after the last block is exercised too
            let k = 1 + k_seed % m;
            for share in encode(&data, k, m) {
                prop_assert_eq!(&encode_row(&data, k, share.index), &share, "idx {}", share.index);
            }
        }

        #[test]
        fn prop_drop_any_m_minus_k_still_roundtrips(
            data in proptest::collection::vec(any::<u8>(), 0..150),
            k in 1usize..7, extra in 0usize..7, seed: u64) {
            // encode → drop any m−k shares → decode round-trips: the
            // §6.2 durability substrate, for random (k, m, payload).
            let m = k + extra;
            let shares = encode(&data, k, m);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut survivors = shares;
            survivors.shuffle(&mut rng);          // a *random* set of m−k losses
            survivors.truncate(k);
            prop_assert_eq!(try_decode(&survivors, k), Ok(data));
        }

        #[test]
        fn prop_fewer_than_k_is_typed_not_panic(
            data in proptest::collection::vec(any::<u8>(), 0..150),
            k in 2usize..8, extra in 0usize..6, drop_to in 0usize..7, seed: u64) {
            let m = k + extra;
            let shares = encode(&data, k, m);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut subset = shares;
            subset.shuffle(&mut rng);
            subset.truncate(drop_to.min(k - 1));  // strictly fewer than k
            let have = subset.len();
            prop_assert_eq!(
                try_decode(&subset, k),
                Err(DecodeError::NotEnoughShares { have, need: k })
            );
        }
    }
}
