//! The WAL checksum kernel against its oracle.
//!
//! [`dh_store::wal::crc32`] is slice-by-8: eight bytes per step over
//! eight compile-time tables, then a bytewise tail. The oracle here is
//! the definition — one *bit* per step, no table at all — so it shares
//! neither the table builder nor the loop structure with the kernel.
//! Every length 0..=4 099 at every start offset 0..8 walks each
//! (alignment, tail length) pair the kernel can meet, many times over.

use dh_store::wal::crc32;

/// One byte into the running (pre-inversion) CRC-32 state: IEEE
/// 802.3, reflected polynomial 0xEDB88320, bit by bit.
fn reference_step(mut state: u32, byte: u8) -> u32 {
    state ^= u32::from(byte);
    for _ in 0..8 {
        state = if state & 1 != 0 { (state >> 1) ^ 0xEDB8_8320 } else { state >> 1 };
    }
    state
}

fn crc32_reference(data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |state, &b| reference_step(state, b))
}

/// A seeded byte stream (splitmix64), so a failure names a buffer
/// anyone can rebuild.
fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out.truncate(len);
    out
}

#[test]
fn golden_values() {
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "the IEEE check value");
    assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926, "the oracle is the IEEE CRC too");
    // one full word, and a word plus every tail length
    assert_eq!(crc32(b"12345678"), crc32_reference(b"12345678"));
    assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
}

#[test]
fn kernel_equals_the_bitwise_reference_at_every_length_and_offset() {
    const MAX_LEN: usize = 4_099;
    let buf = seeded_bytes(0x5EED_C4C3_2000_0001, MAX_LEN + 8);
    for offset in 0..8 {
        // the reference state grows with the window, one byte a step
        let mut state = !0u32;
        for len in 0..=MAX_LEN {
            assert_eq!(
                crc32(&buf[offset..offset + len]),
                !state,
                "kernel and reference disagree at offset {offset}, length {len}"
            );
            state = reference_step(state, buf[offset + len]);
        }
    }
}

#[test]
fn every_single_bit_flip_of_a_record_body_changes_the_checksum() {
    // a Park body of the wal_write workload is ~290 bytes
    let mut body = seeded_bytes(0x5EED_C4C3_2000_0002, 300);
    let clean = crc32(&body);
    for byte in 0..body.len() {
        for bit in 0..8 {
            body[byte] ^= 1 << bit;
            assert_ne!(crc32(&body), clean, "flipping bit {bit} of byte {byte} went undetected");
            body[byte] ^= 1 << bit;
        }
    }
    assert_eq!(crc32(&body), clean);
}
