//! Reed-Solomon erasure code over `GF(2⁸)`: `k` data shards become
//! `m ≤ 255` shares such that **any** `k` shares reconstruct the data.
//!
//! The code is **systematic**: the value, followed by its length as an
//! 8-byte big-endian trailer and fewer than `k` zero bytes of padding,
//! is cut into `k` shards of [`shard_len`] bytes; share `i < k` *is*
//! shard `i`, and share `i ≥ k` is `Σ_j L_j(x_i)·shards[j]`, where
//! `L_j` is the Lagrange basis over the data points `x_j = j + 1`,
//! `j < k`, evaluated at `x_i = i + 1`. Every share is therefore the
//! value at `x_i` of the one polynomial of degree `< k` that takes the
//! value `shards[j]` at `x_j`, so any `k` distinct shares determine it
//! — the Reed-Solomon argument, in the Lagrange basis instead of the
//! monomial one. The generator is `[I_k ; V_bottom·V_top⁻¹]`; its rows
//! are built per call in `O(k²)` field operations, never cached.
//!
//! Both directions run through the one multiply-accumulate kernel over
//! payload bytes, `mul_rows` (one block loop at two widths, chosen by
//! the share length, writing rows at a caller-given pitch): encoding
//! forms only the `m − k` parity rows, and decoding copies the data
//! shares it was given and forms only the shards none of them is. A
//! read that gathered the `k` data shares multiplies nothing. Every
//! encoder is one codeword builder, `codeword`, which can leave room
//! for a share header in front of each row, so [`encode_sealed`] hands
//! a put its sealed shares without copying one.
//!
//! Shares of the retired non-systematic code are refused by their seal
//! ([`crate::HeaderError::RetiredCode`]); this module never sees them.

use crate::gf256::GF;
use crate::header::{ShareHeader, HEADER_BYTES};
use bytes::Bytes;
use std::fmt;
use std::ops::Range;

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

/// The kernel's two block widths. Per block and source column it pays
/// the `used` fold and one coefficient-bit test per (bit, row), which
/// dominates at 32 bytes; a 256-byte block pays it 8× less often
/// (16 KiB, k = 4, m = 8: 7.5 vs 20 µs encode). A wide block alone
/// would send short shares (36 and 66 bytes on the benchmark's small
/// values) to the scalar tail, so the wide width runs over the longest
/// whole-256 prefix of a share and the narrow one over what remains.
/// The share length picks the width; there is no knob.
const WIDE: usize = 256;
const NARROW: usize = 32;

/// Multiply every lane by `x` (the field element 2): shift left and
/// fold the carried-out bit back in as the reduction polynomial.
#[inline]
fn xtime<const B: usize>(v: &mut [u8; B]) {
    for b in v.iter_mut() {
        let carry = ((*b as i8) >> 7) as u8; // 0xFF iff the top bit is set
        *b = (*b << 1) ^ (carry & 0x1B);
    }
}

/// [`mul_rows`] over the whole `B`-byte blocks of bytes `from..`, and
/// the offset where they end. Per block of a source row the doublings
/// `s, 2s, 4s, …` are formed once and each is XORed into every output
/// row whose coefficient has that bit set — a product by a constant is
/// the XOR of the doublings its bits select. The lane loops have a
/// constant trip count, so the compiler vectorises them without
/// `unsafe` or target features. A width with no whole block allocates
/// no scratch and returns `from`.
fn blocks<const B: usize>(
    coeff: &[u8],
    src: &[&[u8]],
    dst: &mut [u8],
    pitch: usize,
    from: usize,
) -> usize {
    let cols = src.len();
    let len = src[0].len();
    let whole = from + (len - from) / B * B;
    if whole == from {
        return from;
    }
    let mut acc = vec![[0u8; B]; coeff.len() / cols];
    for off in (from..whole).step_by(B) {
        acc.fill([0; B]);
        for (c, s) in src.iter().enumerate() {
            let mut d: [u8; B] = s[off..off + B].try_into().expect("a whole block");
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
        for (out, a) in dst.chunks_mut(pitch).zip(&acc) {
            out[off..off + B].copy_from_slice(a);
        }
    }
    whole
}

/// `dst[r] = Σ_c coeff[r][c]·src[c]` over `GF(2⁸)`, row by row of
/// bytes: `coeff` is row-major `rows × src.len()`, every `src[c]` has
/// the same length `len`, and output row `r` is `dst[r·pitch..][..len]`
/// — `pitch ≥ len`, so a caller can leave room between rows (a sealed
/// share's header); the bytes between rows are not touched.
///
/// [`blocks`] runs at [`WIDE`] over the longest whole-256 prefix, then
/// at [`NARROW`] over what remains; the last `< 32` bytes go through
/// the scalar table multiply.
fn mul_rows(coeff: &[u8], src: &[&[u8]], dst: &mut [u8], pitch: usize) {
    let cols = src.len();
    let rows = coeff.len() / cols;
    let len = src[0].len();
    assert!(
        coeff.len() == rows * cols && len <= pitch && dst.len() + pitch == rows * pitch + len,
        "mul_rows: shape mismatch"
    );
    let wide = blocks::<WIDE>(coeff, src, dst, pitch, 0);
    let whole = blocks::<NARROW>(coeff, src, dst, pitch, wide);
    for (out, row) in dst.chunks_mut(pitch).zip(coeff.chunks_exact(cols)) {
        for i in whole..len {
            out[i] = row.iter().zip(src).fold(0, |sum, (&c, s)| sum ^ GF.mul(c, s[i]));
        }
    }
}

/// The generator rows at the given share indices, row-major, `k`
/// coefficients each. Row `i < k` is the unit row `e_i`; row `i ≥ k`
/// is `L_j(x)` at `x = i + 1` for `j < k`, computed barycentrically:
/// `L_j(x) = ℓ(x)·w_j / (x − x_j)` with `ℓ(x) = Π_t (x − x_t)` and
/// `w_j = 1 / Π_{t≠j} (x_j − x_t)` — `O(k²)` for the weights, `O(k)`
/// per row. Subtraction is XOR; `x ≠ x_j` because `i ≥ k > j`.
/// Indices must be `< 255`.
fn generator_rows(indices: impl Iterator<Item = usize>, k: usize) -> Vec<u8> {
    let point = |j: usize| j as u8 + 1;
    let weights: Vec<u8> = (0..k)
        .map(|j| {
            let den = (0..k).filter(|&t| t != j).fold(1, |p, t| GF.mul(p, point(j) ^ point(t)));
            GF.inv(den)
        })
        .collect();
    let mut rows = Vec::new();
    for i in indices {
        if i < k {
            rows.extend((0..k).map(|j| u8::from(j == i)));
        } else {
            let x = point(i);
            let ell = (0..k).fold(1, |p, t| GF.mul(p, x ^ point(t)));
            let basis = |(j, &w): (usize, &u8)| GF.div(GF.mul(ell, w), x ^ point(j));
            rows.extend(weights.iter().enumerate().map(basis));
        }
    }
    rows
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

/// The codeword builder every encoder runs: the `k` shards of `data`
/// — `data ‖ 8-byte big-endian length ‖ < k zero bytes`, cut into rows
/// of [`shard_len`] bytes — then the parity shares at `parity` (all
/// `≥ k`), each row behind `headroom` zero bytes, in one buffer at a
/// pitch of `headroom + len`. The shards are copied into their slots
/// and the parity rows computed straight into theirs (zeroed first:
/// the kernel writes into initialised rows), so no share is copied
/// after it is formed. Returns the buffer and the share length `len`.
fn codeword(data: &[u8], k: usize, parity: Range<usize>, headroom: usize) -> (Vec<u8>, usize) {
    let len = shard_len(data.len(), k);
    let pitch = headroom + len;
    let n = data.len();
    let trailer = (n as u64).to_be_bytes();
    let mut out = Vec::with_capacity(pitch * (k + parity.len()));
    for j in 0..k {
        // shard j is bytes j·len.. of the padded value
        let (from, to) = (j * len, (j + 1) * len);
        out.resize(out.len() + headroom, 0);
        let row = out.len();
        out.extend_from_slice(&data[from.min(n)..to.min(n)]);
        out.extend_from_slice(&trailer[from.clamp(n, n + 8) - n..to.clamp(n, n + 8) - n]);
        out.resize(row + len, 0);
    }
    if !parity.is_empty() {
        out.resize(pitch * (k + parity.len()), 0);
        let (shards, rows) = out.split_at_mut(k * pitch);
        let shards: Vec<&[u8]> = shards.chunks_exact(pitch).map(|row| &row[headroom..]).collect();
        mul_rows(&generator_rows(parity, k), &shards, &mut rows[headroom..], pitch);
    }
    (out, len)
}

/// Split `data` into `k` shards (padding with the length trailer) and
/// produce `m` shares, any `k` of which reconstruct. `0 < k ≤ m ≤ 255`.
/// Shares `0..k` are the shards; only the `m − k` parity rows are
/// computed. The shares are windows into one `shards ‖ parity` buffer.
pub fn encode(data: &[u8], k: usize, m: usize) -> Vec<Share> {
    assert!(0 < k && k <= m && m <= 255, "need 0 < k ≤ m ≤ 255");
    let (out, len) = codeword(data, k, k..m, 0);
    let out = Bytes::from(out);
    (0..m).map(|i| Share { index: i as u8, data: out.slice(i * len..(i + 1) * len) }).collect()
}

/// [`encode`] with every share sealed under generation `version`:
/// element `i` is byte for byte `seal(ShareHeader { version, index: i,
/// k, m }, &encode(data, k, m)[i])`. The codeword is built with room
/// for a header in front of every row and the headers are written in
/// place, so the sealed shares are windows into one buffer and no
/// share is copied after the coder wrote it. What a put parks.
/// `0 < k ≤ m ≤ 255`.
pub fn encode_sealed(data: &[u8], k: usize, m: usize, version: u32) -> Vec<Bytes> {
    assert!(0 < k && k <= m && m <= 255, "need 0 < k ≤ m ≤ 255");
    let (mut out, len) = codeword(data, k, k..m, HEADER_BYTES);
    let pitch = HEADER_BYTES + len;
    for (i, row) in out.chunks_exact_mut(pitch).enumerate() {
        let header = ShareHeader { version, index: i as u8, k: k as u8, m: m as u8 };
        row[..HEADER_BYTES].copy_from_slice(&header.to_bytes());
    }
    let out = Bytes::from(out);
    (0..m).map(|i| out.slice(i * pitch..(i + 1) * pitch)).collect()
}

/// Share `idx` of `data` alone — `encode(data, k, m)[idx]` for any
/// `m > idx`: the shard itself for `idx < k`, else one generator row
/// through the same kernel. What repair needs to replace one lost
/// share. `0 < k`, `idx < 255`.
pub fn encode_row(data: &[u8], k: usize, idx: u8) -> Share {
    assert!(0 < k && k <= 255 && idx < u8::MAX, "need 0 < k ≤ 255 and idx < 255");
    let i = usize::from(idx);
    // a data share is its shard; a parity share is the one row past them
    let (parity, row) = if i < k { (k..k, i) } else { (i..i + 1, k) };
    let (buf, len) = codeword(data, k, parity, 0);
    Share { index: idx, data: Bytes::from(buf).slice(row * len..(row + 1) * len) }
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
    // the data shares are shards verbatim
    let mut shard: Vec<Option<&[u8]>> = vec![None; k];
    for s in chosen.iter().filter(|s| usize::from(s.index) < k) {
        shard[usize::from(s.index)] = Some(&s.data);
    }
    let missing: Vec<usize> = (0..k).filter(|&j| shard[j].is_none()).collect();
    let mut rebuilt = Vec::new();
    if !missing.is_empty() {
        // shares = G · shards with G the generator rows at the chosen
        // indices, so shards = G⁻¹ · shares — of which only the rows of
        // the missing shards are formed. (Any k distinct rows of G are
        // invertible; a singular G means the set was not a codeword.)
        let g = generator_rows(chosen.iter().map(|s| usize::from(s.index)), k);
        let inverse = invert(g, k).ok_or(DecodeError::Inconsistent)?;
        let coeff: Vec<u8> =
            missing.iter().flat_map(|&j| inverse[j * k..(j + 1) * k].iter().copied()).collect();
        let rows: Vec<&[u8]> = chosen.iter().map(|s| &s.data[..]).collect();
        rebuilt = vec![0u8; missing.len() * len];
        mul_rows(&coeff, &rows, &mut rebuilt, len);
    }
    // the padded value, row by row in index order: each row is the
    // data share or the rebuilt one, so each byte is written once
    let mut rebuilt = rebuilt.chunks_exact(len);
    let mut padded = Vec::with_capacity(total);
    for row in &shard {
        padded.extend_from_slice(row.unwrap_or_else(|| rebuilt.next().expect("a rebuilt row")));
    }
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
        let back = try_decode(&shares, 4).expect("decodes");
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
            assert_eq!(try_decode(&subset, k).expect("any k decode"), data);
        }
    }

    #[test]
    fn fewer_than_k_fail() {
        let data = b"secret".to_vec();
        let shares = encode(&data, 3, 6);
        assert!(try_decode(&shares[..2], 3).is_err());
    }

    #[test]
    fn k_equals_one_is_replication() {
        let data = b"replica".to_vec();
        let shares = encode(&data, 1, 4);
        for s in &shares {
            assert_eq!(try_decode(std::slice::from_ref(s), 1).expect("single share"), data);
        }
    }

    #[test]
    fn empty_data_roundtrips() {
        let shares = encode(&[], 3, 5);
        assert_eq!(try_decode(&shares[1..4], 3).expect("decodes"), Vec::<u8>::new());
    }

    #[test]
    fn duplicate_share_indices_rejected_gracefully() {
        let data = b"dup".to_vec();
        let shares = encode(&data, 2, 4);
        let dup = vec![shares[0].clone(), shares[0].clone()];
        assert!(try_decode(&dup, 2).is_err());
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
        // 70 bytes: two narrow blocks plus a scalar tail; 300 bytes: one
        // wide block, one narrow block and a 12-byte scalar tail — each
        // with the rows back to back and a header's gap apart
        for (len, gap) in [70u32, 300].into_iter().flat_map(|len| [(len, 0), (len, 8)]) {
            let (n, pitch) = (len as usize, (len + gap) as usize);
            let a: Vec<u8> = (0..len).map(|i| (i * 151 + 7) as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i * 29 + 250) as u8).collect();
            for c in 0..=255u8 {
                // rows [c, c̄] and [1, c]; then the same with column 1 zeroed
                for coeff in [[c, !c, 1, c], [c, 0, 1, 0]] {
                    let mut dst = vec![0xEEu8; pitch + n];
                    mul_rows(&coeff, &[&a, &b], &mut dst, pitch);
                    for i in 0..n {
                        let (top, bottom) = (dst[i], dst[pitch + i]);
                        assert_eq!(top, GF.mul(coeff[0], a[i]) ^ GF.mul(coeff[1], b[i]), "len {n}, c {c}, byte {i}");
                        assert_eq!(bottom, GF.mul(coeff[2], a[i]) ^ GF.mul(coeff[3], b[i]), "len {n}, c {c}, byte {i}");
                    }
                    assert!(dst[n..pitch].iter().all(|&x| x == 0xEE), "the gap is not the kernel's");
                }
            }
        }
    }

    #[test]
    fn a_width_with_no_whole_block_returns_from_and_writes_nothing() {
        // 287 bytes: one wide block, then 31 bytes that hold no whole
        // block of either width
        let a: Vec<u8> = (0..287u32).map(|i| (i * 151 + 7) as u8).collect();
        let mut dst = vec![0xEEu8; 287];
        assert_eq!(blocks::<WIDE>(&[3], &[&a], &mut dst, 287, 256), 256);
        assert_eq!(blocks::<NARROW>(&[3], &[&a], &mut dst, 287, 256), 256);
        assert!(dst.iter().all(|&x| x == 0xEE));
        assert_eq!(blocks::<WIDE>(&[3], &[&a], &mut dst, 287, 0), 256);
        assert!(dst[..256].iter().zip(&a).all(|(&x, &y)| x == GF.mul(3, y)));
        assert!(dst[256..].iter().all(|&x| x == 0xEE));
    }

    #[test]
    fn golden_codeword_is_pinned() {
        // Shelves and write-ahead logs hold these bytes: a change to the
        // codeword has to edit this vector, i.e. announce itself. The
        // first k rows are the value (7i + 3), its length 40 and padding.
        let data: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(7).wrapping_add(3)).collect();
        let golden = [
            "030a11181f262d343b424950575e656c",
            "737a81888f969da4abb2b9c0c7ced5dc",
            "e3eaf1f8ff060d140000000000000028",
            "0900bab3b49a91b32580e2311b6507fa",
            "9990cac3c40a01038e325bf1dcabd20e",
            "e9e05a5354bab1931ec2ab614c3b62be",
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
            prop_assert_eq!(try_decode(&subset, k).expect("decode"), data);
        }

        #[test]
        fn prop_one_row_is_that_row_of_the_full_encode(
            data in proptest::collection::vec(any::<u8>(), 0..700),
            m in 1usize..=16, k_seed: usize) {
            // up to 700 bytes: at small k a share crosses a whole 256-byte
            // block, then narrow blocks and the scalar tail after them
            let k = 1 + k_seed % m;
            for share in encode(&data, k, m) {
                prop_assert_eq!(&encode_row(&data, k, share.index), &share, "idx {}", share.index);
            }
        }

        #[test]
        fn prop_sealed_shares_are_the_sealed_encode(
            data in proptest::collection::vec(any::<u8>(), 0..1_100),
            m in 1usize..=12, k_seed: usize, version: u32) {
            // up to 1 100 bytes: at k = 1 a row crosses the 256-byte
            // blocks, at every k the 32-byte ones, and the pitch is
            // never the row length
            let k = 1 + k_seed % m;
            let shares = encode(&data, k, m);
            let sealed = encode_sealed(&data, k, m, version);
            prop_assert_eq!(sealed.len(), m);
            for (window, share) in sealed.iter().zip(&shares) {
                let header = ShareHeader { version, index: share.index, k: k as u8, m: m as u8 };
                prop_assert_eq!(window, &crate::seal(header, share), "share {}", share.index);
                prop_assert_eq!(crate::open_shared(window), Ok((header, share.clone())));
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
