//! Share headers: the self-describing envelope a share travels and
//! rests in.
//!
//! A share on its own is just field elements — nothing says which
//! item version it encodes, which evaluation point it is, or what
//! `(k, m)` code produced it. The replicated store (`dh_replica`)
//! needs exactly that metadata to keep concurrent overwrites and
//! repair honest: a quorum read must only combine shares of the same
//! version, and a repair pull must re-materialize the share with the
//! *code parameters of the stored generation*, not whatever the
//! store's current defaults are. [`ShareHeader`] carries it, and
//! [`seal`]/[`open_shared`] round-trip a [`crate::Share`] through the
//! framed byte form used for wire-size accounting and for parking
//! shares on shelves. A put seals all `m` shares at once with
//! [`crate::encode_sealed`], which leaves room for each header in the
//! codeword buffer and has this module write it there; the layout of
//! a header is known here only.

use crate::rs::Share;
use bytes::Bytes;
use std::fmt;

/// Magic byte starting every sealed share (catches stray buffers). It
/// names the code too: shares of the systematic code.
const MAGIC: u8 = 0xE6;

/// The magic the retired non-systematic coder sealed with. Its
/// payloads are not shares of the systematic code, so they are refused
/// by name ([`HeaderError::RetiredCode`]), never decoded.
const RETIRED_MAGIC: u8 = 0xE5;

/// The metadata sealed in front of a share's payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShareHeader {
    /// Monotone per-item version; a quorum read only combines shares
    /// agreeing on it.
    pub version: u32,
    /// Share index in `0..m` (the Reed-Solomon evaluation point).
    pub index: u8,
    /// Reconstruction threshold of the generating code.
    pub k: u8,
    /// Total share count of the generating code.
    pub m: u8,
}

/// Size of the sealed header in bytes (magic + version + index + k +
/// m): what every stored or shipped share pays on top of its payload.
pub const HEADER_BYTES: usize = 8;

/// Why [`open_shared`] rejected a buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeaderError {
    /// The buffer is shorter than a header.
    Truncated,
    /// The magic byte is wrong — this is not a sealed share.
    BadMagic,
    /// A share sealed by the retired non-systematic coder: a real
    /// share, of a code this crate no longer decodes.
    RetiredCode,
    /// The header fields are mutually inconsistent (`k > m`, `k = 0`
    /// or `index ≥ m`).
    BadParams,
}

impl fmt::Display for HeaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeaderError::Truncated => write!(f, "buffer shorter than a share header"),
            HeaderError::BadMagic => write!(f, "not a sealed share (bad magic)"),
            HeaderError::RetiredCode => {
                write!(f, "share of the retired non-systematic code (not decodable)")
            }
            HeaderError::BadParams => write!(f, "inconsistent share header parameters"),
        }
    }
}

impl std::error::Error for HeaderError {}

impl ShareHeader {
    /// The sealed form of the header: `magic ‖ version ‖ index ‖ k ‖
    /// m`, the bytes in front of every sealed payload.
    pub(crate) fn to_bytes(self) -> [u8; HEADER_BYTES] {
        let v = self.version.to_be_bytes();
        [MAGIC, v[0], v[1], v[2], v[3], self.index, self.k, self.m]
    }
}

/// Frame `share` with `header`: `magic ‖ version ‖ index ‖ k ‖ m ‖
/// payload`. The header's `index` is taken from the share itself so
/// the two can never disagree. Copies the payload once, into a buffer
/// of its own; a put seals its shares in place instead
/// ([`crate::encode_sealed`]).
pub fn seal(header: ShareHeader, share: &Share) -> Bytes {
    let mut out = Vec::with_capacity(HEADER_BYTES + share.data.len());
    out.extend_from_slice(&ShareHeader { index: share.index, ..header }.to_bytes());
    out.extend_from_slice(&share.data);
    Bytes::from(out)
}

/// Parse and validate the header of a sealed buffer.
fn parse_header(sealed: &[u8]) -> Result<ShareHeader, HeaderError> {
    if sealed.len() < HEADER_BYTES {
        return Err(HeaderError::Truncated);
    }
    match sealed[0] {
        MAGIC => {}
        RETIRED_MAGIC => return Err(HeaderError::RetiredCode),
        _ => return Err(HeaderError::BadMagic),
    }
    let version = u32::from_be_bytes([sealed[1], sealed[2], sealed[3], sealed[4]]);
    let (index, k, m) = (sealed[5], sealed[6], sealed[7]);
    if k == 0 || k > m || index >= m {
        return Err(HeaderError::BadParams);
    }
    Ok(ShareHeader { version, index, k, m })
}

/// Unframe a sealed share: the header back out, and the payload as a
/// [`Share`] ready for [`crate::try_decode`]. Zero-copy: the payload
/// is a [`Bytes::slice`] window into `sealed`, sharing its backing
/// allocation. This is how the WAL shelf store (`dh_store`) serves
/// shares straight out of the recovered file buffer without copying.
pub fn open_shared(sealed: &Bytes) -> Result<(ShareHeader, Share), HeaderError> {
    let header = parse_header(sealed)?;
    let share = Share { index: header.index, data: sealed.slice(HEADER_BYTES..) };
    Ok((header, share))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rs::encode;

    #[test]
    fn seal_open_roundtrips() {
        let shares = encode(b"versioned payload", 3, 7);
        for (i, s) in shares.iter().enumerate() {
            let hdr = ShareHeader { version: 42, index: s.index, k: 3, m: 7 };
            let sealed = seal(hdr, s);
            assert_eq!(sealed.len(), HEADER_BYTES + s.data.len());
            let (back, share) = open_shared(&sealed).expect("roundtrip");
            assert_eq!(back, hdr);
            assert_eq!(share.index, i as u8);
            assert_eq!(share.data, s.data);
        }
    }

    #[test]
    fn open_shared_is_a_window_not_a_copy() {
        let shares = encode(b"zero copy payload", 2, 4);
        let hdr = ShareHeader { version: 7, index: shares[1].index, k: 2, m: 4 };
        let sealed = seal(hdr, &shares[1]);
        let (back, share) = open_shared(&sealed).expect("roundtrip");
        assert_eq!(back, hdr);
        assert_eq!(share.data, shares[1].data);
        // the payload is the sealed buffer's tail, not a copy of it
        assert_eq!(share.data.as_ptr(), sealed[HEADER_BYTES..].as_ptr());
    }

    #[test]
    fn open_rejects_garbage() {
        let open = |bytes: &[u8]| open_shared(&Bytes::from(bytes.to_vec()));
        assert_eq!(open(&[MAGIC, 0, 0]), Err(HeaderError::Truncated));
        assert_eq!(open(&[0u8; 12]), Err(HeaderError::BadMagic));
        // k > m
        let mut bad = vec![MAGIC, 0, 0, 0, 1, 0, 5, 3];
        assert_eq!(open(&bad), Err(HeaderError::BadParams));
        // index ≥ m
        bad[5] = 3;
        bad[6] = 2;
        assert_eq!(open(&bad), Err(HeaderError::BadParams));
    }

    #[test]
    fn shares_of_the_retired_code_are_refused_by_name() {
        // a well-formed header under the old magic: index 1 of (2, 4)
        let header = ShareHeader { version: 3, index: 1, k: 2, m: 4 };
        let mut old = seal(header, &encode(b"v1", 2, 4)[1]).to_vec();
        old[0] = RETIRED_MAGIC;
        assert_eq!(open_shared(&Bytes::from(old)), Err(HeaderError::RetiredCode));
    }

    #[test]
    fn sealed_shares_of_different_versions_are_distinguishable() {
        let shares = encode(b"v", 2, 3);
        let a = seal(ShareHeader { version: 1, index: 0, k: 2, m: 3 }, &shares[0]);
        let b = seal(ShareHeader { version: 2, index: 0, k: 2, m: 3 }, &shares[0]);
        let (ha, _) = open_shared(&a).unwrap();
        let (hb, _) = open_shared(&b).unwrap();
        assert_ne!(ha.version, hb.version);
    }
}
