//! Byte-identity of the block kernel against the coder it replaced.
//!
//! `reference_encode` is the previous `encode` loop, kept verbatim as
//! the oracle: one log/antilog multiply per byte, one output row at a
//! time. Shelves and write-ahead logs hold shares it produced, so the
//! kernel must reproduce every share byte for byte — at every block
//! edge, and in the debug and the release build alike (CI runs both).

use dh_erasure::gf256::Gf256;
use dh_erasure::{encode, shard_len, try_decode, Share};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn reference_encode(data: &[u8], k: usize, m: usize) -> Vec<Vec<u8>> {
    let f = Gf256::new();
    let mut padded = data.to_vec();
    padded.extend_from_slice(&(data.len() as u64).to_be_bytes());
    let shard_len = padded.len().div_ceil(k);
    padded.resize(shard_len * k, 0);
    let shards: Vec<&[u8]> = padded.chunks(shard_len).collect();
    (0..m)
        .map(|i| {
            let x = (i + 1) as u8;
            let mut out = vec![0u8; shard_len];
            for (j, shard) in shards.iter().enumerate() {
                let c = f.pow(x, j);
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
    // shard lengths on both sides of every multiple of the kernel's
    // block, whichever power of two ≤ 128 that block is
    let mut rng = rand::rngs::StdRng::seed_from_u64(64);
    for shard in [1, 31, 32, 33, 63, 64, 65, 127, 128, 129] {
        for k in [1usize, 3, 4, 8] {
            // the longest value whose shards are exactly `shard` bytes
            let Some(len) = (shard * k).checked_sub(8) else { continue };
            assert_eq!(shard_len(len, k), shard);
            check(&random_bytes(len, &mut rng), k, k + 4, &mut rng);
        }
    }
}
