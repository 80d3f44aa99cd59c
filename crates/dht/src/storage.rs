//! The hash-table interface on top of the Distance Halving network:
//! items are hashed into `I` by a k-wise independent function chosen at
//! system construction (Section 2.1, “Mapping the data items to
//! servers”), stored at the covering server, and located by lookup.
//!
//! Since the protocol-API redesign every storage operation is a routed
//! RPC ([`dh_proto::Wire`]): the direct-call entry points
//! ([`Dht::put`]/[`Dht::get`]/[`Dht::remove`]) are thin wrappers that
//! drive the RPC through the event engine over the zero-overhead
//! [`Inline`] transport, and the `*_over` variants run the identical
//! protocol over any transport — storage under latency, loss and
//! duplication is the same code path, not a parallel driver.

use crate::lookup::{LookupKind, Route};
use crate::network::{CdNetwork, DistanceHalving, NodeId, StoredItem};
use crate::proto::route_kind;
use bytes::Bytes;
use cd_core::graph::ContinuousGraph;
use cd_core::hashing::KWiseHash;
use dh_proto::engine::{Engine, OpOutcome, RetryPolicy};
use dh_proto::transport::{Inline, Transport};
use dh_proto::wire::Action;
use rand::Rng;

/// The DHT storage layer: a network plus the global hash function
/// every server received when joining. Generic over the continuous
/// graph; `Dht` alone still names the Distance Halving instance.
pub struct Dht<G: ContinuousGraph = DistanceHalving> {
    /// The overlay network.
    pub net: CdNetwork<G>,
    /// The item-placement hash function.
    pub hash: KWiseHash,
    /// Which lookup algorithm `put`/`get` use.
    pub kind: LookupKind,
}

impl<G: ContinuousGraph> Dht<G> {
    /// Wrap a network with a freshly drawn `log₂ n`-wise independent
    /// hash function (the independence the paper's Theorem 2.11 needs).
    /// Routes with the instance's native lookup by default.
    pub fn new(net: CdNetwork<G>, rng: &mut impl Rng) -> Self {
        let k = (net.len().max(2) as f64).log2().ceil() as usize + 1;
        Dht { hash: KWiseHash::new(k, rng), kind: net.native_kind(), net }
    }

    /// Route one storage RPC through the engine over `transport` and
    /// return its outcome. The whole run is a pure function of `seed`
    /// and the transport's state.
    fn dispatch<T: Transport>(
        &self,
        from: NodeId,
        action: Action,
        point: cd_core::point::Point,
        transport: T,
        seed: u64,
        retry: RetryPolicy,
    ) -> OpOutcome {
        let mut eng = Engine::new(&self.net, transport, seed).with_retry(retry);
        let op = eng.submit(route_kind(self.kind), from, point, action);
        eng.run();
        eng.take_outcome(op)
    }

    /// Store an item, routing from `from` to the responsible server.
    /// Returns the route taken.
    pub fn put(&mut self, from: NodeId, key: u64, value: Bytes, rng: &mut impl Rng) -> Route {
        let (out, stored) = self.put_over(from, key, value, Inline, rng.gen(), RetryPolicy::default());
        debug_assert!(stored, "Inline transport cannot fail a put");
        out.path
    }

    /// [`Self::put`] over an arbitrary transport: the `Put` RPC is
    /// routed hop by hop and applied at the covering server if the
    /// route completes within the retry budget — and arrived with its
    /// integrity intact (a payload corrupted by false message
    /// injection is rejected at the destination, mirroring the read
    /// path). Returns the op outcome and whether the item was stored.
    pub fn put_over<T: Transport>(
        &mut self,
        from: NodeId,
        key: u64,
        value: Bytes,
        transport: T,
        seed: u64,
        retry: RetryPolicy,
    ) -> (OpOutcome, bool) {
        let point = self.hash.point(key);
        let action = Action::Put { key, len: value.len() as u32 };
        let out = self.dispatch(from, action, point, transport, seed, retry);
        let stored = out.ok && !out.corrupt;
        if stored {
            let dest = out.dest.expect("completed");
            self.net.node_state_mut(dest).items.insert(key, StoredItem { point, value });
        }
        (out, stored)
    }

    /// Retrieve an item, routing from `from`. Returns the route and the
    /// value if present.
    pub fn get(&self, from: NodeId, key: u64, rng: &mut impl Rng) -> (Route, Option<Bytes>) {
        let (out, value) = self.get_over(from, key, Inline, rng.gen(), RetryPolicy::default());
        (out.path, value)
    }

    /// [`Self::get`] over an arbitrary transport. A `None` value means
    /// the item is absent, the route failed, or — under false message
    /// injection — the response arrived without integrity.
    pub fn get_over<T: Transport>(
        &self,
        from: NodeId,
        key: u64,
        transport: T,
        seed: u64,
        retry: RetryPolicy,
    ) -> (OpOutcome, Option<Bytes>) {
        let point = self.hash.point(key);
        let out = self.dispatch(from, Action::Get { key }, point, transport, seed, retry);
        let value = match out.dest {
            Some(dest) if !out.corrupt => {
                self.net.node(dest).items.get(&key).map(|it| it.value.clone())
            }
            _ => None,
        };
        (out, value)
    }

    /// Remove an item (routes like `get`).
    pub fn remove(&mut self, from: NodeId, key: u64, rng: &mut impl Rng) -> (Route, Option<Bytes>) {
        let (out, value) = self.remove_over(from, key, Inline, rng.gen(), RetryPolicy::default());
        debug_assert!(out.ok, "Inline transport cannot fail a remove");
        (out.path, value)
    }

    /// [`Self::remove`] over an arbitrary transport: the item is
    /// deleted only if the route completed within the retry budget and
    /// the request arrived uncorrupted (a liar-mangled delete must not
    /// destroy data).
    pub fn remove_over<T: Transport>(
        &mut self,
        from: NodeId,
        key: u64,
        transport: T,
        seed: u64,
        retry: RetryPolicy,
    ) -> (OpOutcome, Option<Bytes>) {
        let point = self.hash.point(key);
        let out = self.dispatch(from, Action::Remove { key }, point, transport, seed, retry);
        let value = match out.dest {
            Some(dest) if !out.corrupt => {
                self.net.node_state_mut(dest).items.remove(&key).map(|it| it.value)
            }
            _ => None,
        };
        (out, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::DhNetwork;
    use cd_core::pointset::PointSet;
    use cd_core::rng::seeded;
    use cd_core::Point as CPoint;
    use dh_proto::transport::Sim;
    use dh_proto::ChaosNet;
    use rand::Rng;

    #[test]
    fn put_then_get_roundtrips() {
        let mut rng = seeded(30);
        let net = DhNetwork::new(&PointSet::random(64, &mut rng));
        let mut dht = Dht::new(net, &mut rng);
        for key in 0..200u64 {
            let from = dht.net.random_node(&mut rng);
            let value = Bytes::from(format!("value-{key}"));
            dht.put(from, key, value.clone(), &mut rng);
            let from2 = dht.net.random_node(&mut rng);
            let (_, got) = dht.get(from2, key, &mut rng);
            assert_eq!(got, Some(value));
        }
    }

    #[test]
    fn get_missing_returns_none() {
        let mut rng = seeded(31);
        let net = DhNetwork::new(&PointSet::random(16, &mut rng));
        let dht = Dht::new(net, &mut rng);
        let from = dht.net.random_node(&mut rng);
        let (_, got) = dht.get(from, 999, &mut rng);
        assert_eq!(got, None);
    }

    #[test]
    fn items_survive_churn() {
        let mut rng = seeded(32);
        let net = DhNetwork::new(&PointSet::random(32, &mut rng));
        let mut dht = Dht::new(net, &mut rng);
        for key in 0..100u64 {
            let from = dht.net.random_node(&mut rng);
            dht.put(from, key, Bytes::from(key.to_be_bytes().to_vec()), &mut rng);
        }
        // churn: joins move items to new owners, leaves merge them back
        for _ in 0..60 {
            if dht.net.len() > 4 && rng.gen_bool(0.5) {
                let v = dht.net.random_node(&mut rng);
                dht.net.leave(v);
            } else {
                dht.net.join(CPoint(rng.gen()));
            }
        }
        dht.net.validate();
        for key in 0..100u64 {
            let from = dht.net.random_node(&mut rng);
            let (route, got) = dht.get(from, key, &mut rng);
            assert_eq!(
                got,
                Some(Bytes::from(key.to_be_bytes().to_vec())),
                "item {key} lost after churn (route ended at {})",
                route.destination()
            );
        }
    }

    #[test]
    fn remove_deletes() {
        let mut rng = seeded(33);
        let net = DhNetwork::new(&PointSet::random(16, &mut rng));
        let mut dht = Dht::new(net, &mut rng);
        let from = dht.net.random_node(&mut rng);
        dht.put(from, 7, Bytes::from_static(b"x"), &mut rng);
        let (_, removed) = dht.remove(from, 7, &mut rng);
        assert_eq!(removed, Some(Bytes::from_static(b"x")));
        let (_, got) = dht.get(from, 7, &mut rng);
        assert_eq!(got, None);
    }

    #[test]
    fn storage_survives_a_lossy_transport() {
        let mut rng = seeded(34);
        let net = DhNetwork::new(&PointSet::random(64, &mut rng));
        let mut dht = Dht::new(net, &mut rng);
        let retry = RetryPolicy::fixed(2_000, 10);
        let mut stored = 0usize;
        let mut fetched = 0usize;
        for key in 0..60u64 {
            let from = dht.net.random_node(&mut rng);
            let sim = Sim::new(key ^ 0xA0).with_drop(0.05);
            let (out, ok) =
                dht.put_over(from, key, Bytes::from(vec![key as u8; 16]), sim, key, retry);
            assert!(out.attempts >= 1);
            if ok {
                stored += 1;
                let sim = Sim::new(key ^ 0xB1).with_drop(0.05);
                let (_, got) = dht.get_over(from, key, sim, key ^ 1, retry);
                if got == Some(Bytes::from(vec![key as u8; 16])) {
                    fetched += 1;
                }
            }
        }
        assert!(stored >= 55, "only {stored}/60 puts survived 5% loss with retries");
        assert!(fetched >= stored - 3, "only {fetched}/{stored} gets succeeded");
    }

    #[test]
    fn injection_voids_put_and_remove_integrity() {
        let mut rng = seeded(36);
        let net = DhNetwork::new(&PointSet::random(64, &mut rng));
        let mut dht = Dht::new(net, &mut rng);
        let from = dht.net.random_node(&mut rng);
        dht.put(from, 4, Bytes::from_static(b"keep"), &mut rng);
        let mut liars = ChaosNet::new(Inline, 0);
        for &id in dht.net.live() {
            liars.lie(id);
        }
        // a corrupted put must not be stored
        let (out, stored) =
            dht.put_over(from, 5, Bytes::from_static(b"evil"), liars, 91, RetryPolicy::default());
        if out.msgs > 0 {
            assert!(out.corrupt);
            assert!(!stored, "a corrupted write must be rejected");
            let (_, got) = dht.get(from, 5, &mut rng);
            assert_eq!(got, None);
        }
        // a corrupted remove must not destroy data
        let mut liars = ChaosNet::new(Inline, 0);
        for &id in dht.net.live() {
            liars.lie(id);
        }
        let (out, removed) = dht.remove_over(from, 4, liars, 92, RetryPolicy::default());
        if out.msgs > 0 {
            assert_eq!(removed, None, "a liar-mangled delete must not be honored");
            let (_, got) = dht.get(from, 4, &mut rng);
            assert_eq!(got, Some(Bytes::from_static(b"keep")));
        }
    }

    #[test]
    fn injection_voids_get_integrity() {
        let mut rng = seeded(35);
        let net = DhNetwork::new(&PointSet::random(64, &mut rng));
        let mut dht = Dht::new(net, &mut rng);
        let from = dht.net.random_node(&mut rng);
        dht.put(from, 9, Bytes::from_static(b"honest"), &mut rng);
        // every server lies: any multi-hop get loses integrity
        let mut faulty = ChaosNet::new(Inline, 0);
        for &id in dht.net.live() {
            faulty.lie(id);
        }
        let (out, got) = dht.get_over(from, 9, faulty, 77, RetryPolicy::default());
        assert!(out.ok, "liars still route");
        if out.msgs > 0 {
            assert!(out.corrupt);
            assert_eq!(got, None, "a corrupted response must not be trusted");
        }
    }
}
