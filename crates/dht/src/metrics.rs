//! Congestion accounting.
//!
//! The paper measures *congestion* as the probability a given server
//! participates in a random lookup (Definition 3), and *load* as the
//! number of messages a server handles in a batch workload
//! (Theorems 2.7, 2.9–2.11). [`LoadCounters`] tracks per-server message
//! counts, one `Cell<u64>` per slab slot: a batch charges through a
//! shared `&self` while it also borrows the network, and nothing in
//! the workspace charges from a second thread.

use crate::network::{CdNetwork, NodeId};
use cd_core::graph::ContinuousGraph;
use cd_core::stats::Summary;
use std::cell::Cell;

/// Per-server message counters (slab-indexed).
pub struct LoadCounters {
    counts: Vec<Cell<u64>>,
}

impl LoadCounters {
    /// Counters sized for the given network (any instance).
    pub fn for_network<G: ContinuousGraph>(net: &CdNetwork<G>) -> Self {
        Self::with_capacity(net.slab_len())
    }

    /// Counters for `capacity` slab slots.
    pub fn with_capacity(capacity: usize) -> Self {
        LoadCounters { counts: vec![Cell::new(0); capacity] }
    }

    /// Charge `amount` messages to a server.
    #[inline]
    pub fn add(&self, id: NodeId, amount: u64) {
        let c = &self.counts[id.0 as usize];
        c.set(c.get() + amount);
    }

    /// Current count for a server.
    pub fn get(&self, id: NodeId) -> u64 {
        self.counts[id.0 as usize].get()
    }

    /// Load of every *live* server of `net`, in `net.live()` order.
    pub fn live_loads<G: ContinuousGraph>(&self, net: &CdNetwork<G>) -> Vec<u64> {
        net.live().iter().map(|&id| self.get(id)).collect()
    }

    /// The maximum load over live servers.
    pub fn max_load<G: ContinuousGraph>(&self, net: &CdNetwork<G>) -> u64 {
        self.live_loads(net).into_iter().max().unwrap_or(0)
    }

    /// Summary statistics over live servers.
    pub fn summary<G: ContinuousGraph>(&self, net: &CdNetwork<G>) -> Summary {
        Summary::of_u64(self.live_loads(net))
    }

    /// Zero every counter so the allocation is reused across batches.
    pub fn reset(&self) {
        for c in &self.counts {
            c.set(0);
        }
    }

    /// Total messages charged.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(Cell::get).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::DhNetwork;
    use cd_core::pointset::PointSet;

    #[test]
    fn counters_accumulate() {
        let net = DhNetwork::new(&PointSet::evenly_spaced(4));
        let c = LoadCounters::for_network(&net);
        let id = net.live()[2];
        c.add(id, 3);
        c.add(id, 2);
        assert_eq!(c.get(id), 5);
        assert_eq!(c.total(), 5);
        assert_eq!(c.max_load(&net), 5);
    }

    #[test]
    fn summary_over_live() {
        let net = DhNetwork::new(&PointSet::evenly_spaced(4));
        let c = LoadCounters::for_network(&net);
        for (i, &id) in net.live().iter().enumerate() {
            c.add(id, i as u64);
        }
        let s = c.summary(&net);
        assert_eq!(s.n, 4);
        assert_eq!(s.max, 3.0);
    }
}
