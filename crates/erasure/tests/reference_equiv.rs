//! The block kernel against the code's definition, and the decoder
//! against hostile share sets.
//!
//! `reference_encode` is the systematic code written out byte by byte
//! through [`Gf256`]: share `i` is `Σ_j L_j(x_i)·shard_j` with `L_j`
//! the Lagrange basis over the data points `x_j = j + 1`, each `L_j(x_i)`
//! taken as the plain product `Π_{t≠j} (x_i − x_t)/(x_j − x_t)` — no
//! generator matrix, no barycentric weights, no special case for the
//! data rows (the product is 1 or 0 there by itself). Shelves and
//! write-ahead logs hold shares the kernel produced, so it must
//! reproduce every share byte for byte — at every block edge, with the
//! rows back to back ([`encode`]) or a header apart
//! ([`encode_sealed`]), and in the debug and the release build alike
//! (CI runs both).

use bytes::Bytes;
use dh_erasure::gf256::Gf256;
use dh_erasure::{
    encode, encode_row, encode_sealed, open_shared, shard_len, try_decode, DecodeError, Share,
    ShareHeader, HEADER_BYTES,
};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// `data ‖ len as u64 big-endian ‖ zeros` up to a multiple of `k`.
fn padded(data: &[u8], k: usize) -> Vec<u8> {
    let mut padded = data.to_vec();
    padded.extend_from_slice(&(data.len() as u64).to_be_bytes());
    padded.resize(shard_len(data.len(), k) * k, 0);
    padded
}

/// `L_j(x)` over the points `1..=k`, straight from its definition.
fn lagrange(f: &Gf256, j: usize, x: u8, k: usize) -> u8 {
    let xj = (j + 1) as u8;
    (0..k).filter(|&t| t != j).fold(1, |acc, t| {
        let xt = (t + 1) as u8;
        f.mul(acc, f.div(f.add(x, xt), f.add(xj, xt)))
    })
}

fn reference_encode(data: &[u8], k: usize, m: usize) -> Vec<Vec<u8>> {
    let f = Gf256::new();
    let padded = padded(data, k);
    let shards: Vec<&[u8]> = padded.chunks(shard_len(data.len(), k)).collect();
    (0..m)
        .map(|i| {
            let x = (i + 1) as u8;
            let mut out = vec![0u8; shards[0].len()];
            for (j, shard) in shards.iter().enumerate() {
                let c = lagrange(&f, j, x, k);
                for (o, &b) in out.iter_mut().zip(shard.iter()) {
                    *o = f.add(*o, f.mul(c, b));
                }
            }
            out
        })
        .collect()
}

/// Every share equals the reference, and a random `k`-subset decodes.
fn check(data: &[u8], k: usize, m: usize, rng: &mut impl Rng) {
    let shares = encode(data, k, m);
    let want = reference_encode(data, k, m);
    assert_eq!(shares.len(), m);
    for (i, (share, want)) in shares.iter().zip(&want).enumerate() {
        assert_eq!(share.index as usize, i);
        assert_eq!(share.data.len(), shard_len(data.len(), k));
        assert_eq!(&share.data[..], &want[..], "len {}, k {k}, m {m}, share {i}", data.len());
    }
    let mut subset: Vec<Share> = shares;
    subset.shuffle(rng);
    subset.truncate(k);
    assert_eq!(try_decode(&subset, k).as_deref(), Ok(data), "len {}, k {k}, m {m}", data.len());
}

/// Every sealed share is the reference share behind its header: the
/// kernel writing rows at a pitch of `HEADER_BYTES + len`, not `len`.
fn check_sealed(data: &[u8], k: usize, m: usize, version: u32) {
    let want = reference_encode(data, k, m);
    for (i, (sealed, want)) in encode_sealed(data, k, m, version).iter().zip(&want).enumerate() {
        assert_eq!(sealed.len(), HEADER_BYTES + want.len());
        assert_eq!(&sealed[HEADER_BYTES..], &want[..], "len {}, k {k}, m {m}, share {i}", data.len());
        let (header, share) = open_shared(sealed).expect("a sealed share opens");
        assert_eq!(header, ShareHeader { version, index: i as u8, k: k as u8, m: m as u8 });
        assert_eq!(&share.data[..], &want[..]);
    }
}

fn random_bytes(len: usize, rng: &mut impl Rng) -> Vec<u8> {
    (0..len).map(|_| rng.gen()).collect()
}

#[test]
fn random_geometries_match_the_reference() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED_C0DE);
    for _ in 0..600 {
        let k: usize = rng.gen_range(1..=12);
        let m = k + rng.gen_range(0..=12usize);
        let len: usize = rng.gen_range(0..2_000);
        check(&random_bytes(len, &mut rng), k, m, &mut rng);
    }
}

#[test]
fn widest_code_matches_the_reference() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(255);
    for len in [0, 1024, 16384] {
        for k in [1, 4, 255] {
            check(&random_bytes(len, &mut rng), k, 255, &mut rng);
        }
    }
}

#[test]
fn block_edges_match_the_reference() {
    // shard lengths on both sides of the kernel's edges: its 32-byte
    // blocks, its 256-byte blocks, one wide block plus one narrow
    // (288), two wide blocks, and `payload_heavy`'s 4 098-byte shard
    // (16 wide blocks and a 2-byte scalar tail) — each at a row pitch
    // of the row length and at one a header longer
    let mut rng = rand::rngs::StdRng::seed_from_u64(64);
    let edges = [1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 287, 288, 289, 511, 512, 513, 4_098];
    for shard in edges {
        for k in [1usize, 3, 4, 8] {
            // the longest value whose shards are exactly `shard` bytes
            let Some(len) = (shard * k).checked_sub(8) else { continue };
            assert_eq!(shard_len(len, k), shard);
            let data = random_bytes(len, &mut rng);
            check(&data, k, k + 4, &mut rng);
            check_sealed(&data, k, k + 4, rng.gen());
        }
    }
}

/// The `k`-subsets of `0..m`, in lexicographic order.
fn subsets(m: usize, k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    (k - 1..m)
        .flat_map(|last| {
            subsets(last, k - 1).into_iter().map(move |mut s| {
                s.push(last);
                s
            })
        })
        .collect()
}

/// A decoder that accepts a share set must have been handed a codeword:
/// the value it returns re-encodes to every share it was given.
fn accepted_only_if_a_codeword(shares: &[Share], k: usize) -> Result<(), TestCaseError> {
    match try_decode(shares, k) {
        Ok(value) => {
            for s in shares {
                prop_assert_eq!(&encode_row(&value, k, s.index), s, "decoded a non-codeword");
            }
        }
        Err(e) => prop_assert_eq!(e, DecodeError::Inconsistent),
    }
    Ok(())
}

proptest! {
    #[test]
    fn prop_data_shares_are_the_padded_value_verbatim(
        data in proptest::collection::vec(any::<u8>(), 0..300), m in 1usize..=12, k_seed: usize) {
        let k = 1 + k_seed % m;
        let len = shard_len(data.len(), k);
        let padded = padded(&data, k);
        for share in &encode(&data, k, m)[..k] {
            let i = usize::from(share.index);
            prop_assert_eq!(&share.data[..], &padded[i * len..(i + 1) * len], "share {}", i);
        }
    }

    #[test]
    fn prop_every_k_subset_roundtrips(
        data in proptest::collection::vec(any::<u8>(), 0..200), m in 1usize..=8, k_seed: usize,
        reverse: bool) {
        // all C(m, k) subsets: data shares only, parity only (m ≥ 2k),
        // and every mix between, in either order
        let k = 1 + k_seed % m;
        let shares = encode(&data, k, m);
        for subset in subsets(m, k) {
            let mut chosen: Vec<Share> = subset.iter().map(|&i| shares[i].clone()).collect();
            if reverse {
                chosen.reverse();
            }
            prop_assert_eq!(try_decode(&chosen, k), Ok(data.clone()), "subset {:?}", subset);
        }
    }

    #[test]
    fn prop_hostile_share_sets_are_typed_errors(
        a in proptest::collection::vec(any::<u8>(), 0..120), flip in any::<u8>(),
        k in 1usize..6, extra in 1usize..6, seed: u64) {
        let m = k + extra;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut shares = encode(&a, k, m);
        shares.shuffle(&mut rng);
        shares.truncate(k);
        let victim = rng.gen_range(0..k);
        // an index with no evaluation point
        let mut hostile = shares.clone();
        hostile[victim].index = 255;
        prop_assert_eq!(try_decode(&hostile, k), Err(DecodeError::Inconsistent));
        // a share one byte short of its peers
        if k > 1 {
            let mut short = shares.clone();
            let cut = short[victim].data.len() - 1;
            short[victim].data = short[victim].data.slice(..cut);
            prop_assert_eq!(try_decode(&short, k), Err(DecodeError::LengthMismatch));
        }
        // the XOR of two codewords of equal-length values is a codeword
        // of the XORed padded buffers, whose trailer is all zeros: it
        // decodes only where that happens to be an `encode` layout
        let b: Vec<u8> = a.iter().map(|&x| x ^ flip).collect();
        let forged: Vec<Share> = shares
            .iter()
            .map(|s| {
                let t = encode_row(&b, k, s.index);
                let data: Vec<u8> = s.data.iter().zip(t.data.iter()).map(|(x, y)| x ^ y).collect();
                Share { index: s.index, data: Bytes::from(data) }
            })
            .collect();
        accepted_only_if_a_codeword(&forged, k)?;
        // and a single flipped payload byte
        let mut damaged = shares;
        let mut bytes = damaged[victim].data.to_vec();
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= flip | 1;
        damaged[victim].data = Bytes::from(bytes);
        accepted_only_if_a_codeword(&damaged, k)?;
    }
}
