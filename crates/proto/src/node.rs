//! The server handle shared by every protocol layer.
//!
//! `NodeId` used to live in `dh_dht::network`; it moved here so the
//! wire format and the transports can name servers without depending
//! on any particular discretisation. `dh_dht` re-exports it, so
//! `dh_dht::NodeId` remains the same type.

use std::fmt;

/// A stable handle to a live server (slab index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{}", self.0)
    }
}
