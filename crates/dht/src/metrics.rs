//! Congestion accounting.
//!
//! The paper measures *congestion* as the probability a given server
//! participates in a random lookup (Definition 3), and *load* as the
//! number of messages a server handles in a batch workload
//! (Theorems 2.7, 2.9–2.11). [`LoadCounters`] tracks per-server message
//! counts with one cache-padded relaxed atomic per slab slot, so
//! thousands of lookups can be charged concurrently from a rayon pool
//! without false sharing or contention on a shared lock.

use crate::network::{CdNetwork, NodeId};
use cd_core::graph::ContinuousGraph;
use cd_core::stats::Summary;
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-server message counters (slab-indexed).
pub struct LoadCounters {
    counts: Vec<CachePadded<AtomicU64>>,
}

impl LoadCounters {
    /// Counters sized for the given network (any instance).
    pub fn for_network<G: ContinuousGraph>(net: &CdNetwork<G>) -> Self {
        Self::with_capacity(net.slab_len())
    }

    /// Counters for `capacity` slab slots.
    pub fn with_capacity(capacity: usize) -> Self {
        LoadCounters { counts: (0..capacity).map(|_| CachePadded::new(AtomicU64::new(0))).collect() }
    }

    /// Charge `amount` messages to a server. Relaxed ordering: the
    /// counters are pure statistics, read only after the driver joins.
    #[inline]
    pub fn add(&self, id: NodeId, amount: u64) {
        self.counts[id.0 as usize].fetch_add(amount, Ordering::Relaxed);
    }

    /// Current count for a server.
    pub fn get(&self, id: NodeId) -> u64 {
        self.counts[id.0 as usize].load(Ordering::Relaxed)
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

    /// Zero every counter so the allocation (one cache line per slab
    /// slot — significant at large n) is reused across batches.
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Total messages charged.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
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
