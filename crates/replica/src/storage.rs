//! §2.1's storage contract, checked on the one store at m = k = 1: a
//! single copy on the server covering `h(key)`, which a put writes, a
//! get finds, a remove deletes and every join and leave hands along.

mod tests {
    use crate::{ReplicatedDht, RetryPolicy, Shelves};
    use bytes::Bytes;
    use cd_core::pointset::PointSet;
    use cd_core::rng::seeded;
    use cd_core::Point;
    use dh_dht::network::DhNetwork;
    use dh_proto::transport::{Inline, Sim};
    use dh_proto::ChaosNet;
    use rand::rngs::StdRng;
    use rand::Rng;

    fn single_copy(n: usize, seed: u64) -> (ReplicatedDht, StdRng) {
        let mut rng = seeded(seed);
        let net = DhNetwork::new(&PointSet::random(n, &mut rng));
        (ReplicatedDht::new(net, 1, 1, &mut rng), rng)
    }

    /// The one copy of `key` sits on the server covering `h(key)`.
    fn on_its_cover(dht: &ReplicatedDht, key: u64) -> bool {
        let cover = dht.net.cover_of(dht.hash.point(key));
        dht.shelves.map()[&key].holders.values().map(|h| h.node).eq([cover])
    }

    /// Every server lies: a message crossing any hop loses integrity.
    fn all_liars(dht: &ReplicatedDht) -> ChaosNet<Inline> {
        let mut liars = ChaosNet::new(Inline, 0);
        dht.net.live().iter().for_each(|&id| liars.lie(id));
        liars
    }

    #[test]
    fn put_then_get_roundtrips() {
        let (mut dht, mut rng) = single_copy(64, 30);
        for key in 0..200u64 {
            let from = dht.net.random_node(&mut rng);
            let value = Bytes::from(format!("value-{key}"));
            assert_eq!(dht.put(from, key, value.clone(), &mut rng), 1);
            assert!(on_its_cover(&dht, key), "item {key} is not on its covering server");
            let from2 = dht.net.random_node(&mut rng);
            assert_eq!(dht.get(from2, key, &mut rng), Some(value));
        }
    }

    #[test]
    fn get_missing_returns_none() {
        let (mut dht, mut rng) = single_copy(16, 31);
        let from = dht.net.random_node(&mut rng);
        let (out, got) = dht.get_over(from, 999, Inline, 7, RetryPolicy::default());
        assert!(out.ok, "a not-found is an answer");
        assert_eq!(out.attempts, 1);
        assert_eq!(got, None);
    }

    #[test]
    fn items_survive_churn() {
        let (mut dht, mut rng) = single_copy(32, 32);
        for key in 0..100u64 {
            let from = dht.net.random_node(&mut rng);
            dht.put(from, key, Bytes::from(key.to_be_bytes().to_vec()), &mut rng);
        }
        // churn: joins hand items to new owners, leaves to the servers
        // that take their segments over
        let mut t = Inline;
        for seed in 0..60u64 {
            if dht.net.len() > 4 && rng.gen_bool(0.5) {
                let v = dht.net.random_node(&mut rng);
                let (_, report) = dht.leave_over(v, &mut t, seed);
                assert_eq!(report.items_lost, 0, "a graceful leave lost an item");
            } else {
                let host = dht.net.random_node(&mut rng);
                let kind = dht.kind;
                dht.join_over(host, Point(rng.gen()), kind, seed, &mut t, RetryPolicy::default());
            }
        }
        dht.net.validate();
        assert_eq!(dht.shelved_shares(), 100, "churn must neither lose nor copy an item");
        for key in 0..100u64 {
            assert!(on_its_cover(&dht, key), "item {key} is not on its covering server");
            let from = dht.net.random_node(&mut rng);
            let got = dht.get(from, key, &mut rng);
            assert_eq!(got, Some(Bytes::from(key.to_be_bytes().to_vec())), "item {key} lost");
        }
    }

    #[test]
    fn remove_deletes() {
        let (mut dht, mut rng) = single_copy(16, 33);
        let from = dht.net.random_node(&mut rng);
        dht.put(from, 7, Bytes::from_static(b"x"), &mut rng);
        assert!(dht.remove(from, 7, &mut rng), "remove must find the item");
        assert_eq!(dht.shelved_shares(), 0, "remove must not leak the copy");
        assert_eq!(dht.get(from, 7, &mut rng), None);
        assert!(!dht.remove(from, 7, &mut rng), "double remove is a no-op");
    }

    #[test]
    fn storage_survives_a_lossy_transport() {
        let (mut dht, mut rng) = single_copy(64, 34);
        let retry = RetryPolicy::fixed(2_000, 10);
        let mut stored = 0usize;
        let mut fetched = 0usize;
        for key in 0..60u64 {
            let from = dht.net.random_node(&mut rng);
            let sim = Sim::new(key ^ 0xA0).with_drop(0.05);
            let (out, placed) =
                dht.put_over(from, key, Bytes::from(vec![key as u8; 16]), sim, key, retry);
            assert!(out.attempts >= 1);
            if out.ok && placed == 1 {
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

    // The two injection cases also run at (6, 3): a clique is no more
    // trusting than one copy.
    #[test]
    fn injection_voids_put_and_remove_integrity() {
        for (m, k) in [(1, 1), (6, 3)] {
            let mut rng = seeded(36);
            let net = DhNetwork::new(&PointSet::random(64, &mut rng));
            let mut dht = ReplicatedDht::new(net, m, k, &mut rng);
            let keep = Bytes::from_static(b"keep");
            dht.put(dht.net.random_node(&mut rng), 4, keep.clone(), &mut rng);
            // the ops start outside both cliques: each crosses at least
            // one corrupting hop
            let (c4, c5) = (dht.clique(4), dht.clique(5));
            let from = *dht
                .net
                .live()
                .iter()
                .find(|n| !c4.contains(n) && !c5.contains(n))
                .expect("n > 2m");
            // a corrupted put must not be stored
            let evil = Bytes::from_static(b"evil");
            let (out, placed) =
                dht.put_over(from, 5, evil, all_liars(&dht), 91, RetryPolicy::default());
            assert!(out.corrupt, "({m}, {k}): a put across liars kept its integrity");
            assert_eq!(placed, 0, "({m}, {k}): a corrupted write must be rejected");
            assert_eq!(dht.get(from, 5, &mut rng), None);
            // a corrupted remove must not destroy data
            let (out, existed) =
                dht.remove_over(from, 4, all_liars(&dht), 92, RetryPolicy::default());
            assert!(out.corrupt && !existed, "({m}, {k}): a liar-mangled remove was honored");
            assert_eq!(dht.get(from, 4, &mut rng), Some(keep));
        }
    }

    #[test]
    fn injection_voids_get_integrity() {
        for (m, k) in [(1, 1), (6, 3)] {
            let mut rng = seeded(35);
            let net = DhNetwork::new(&PointSet::random(64, &mut rng));
            let mut dht = ReplicatedDht::new(net, m, k, &mut rng);
            dht.put(dht.net.random_node(&mut rng), 9, Bytes::from_static(b"honest"), &mut rng);
            let clique = dht.clique(9);
            let from = *dht.net.live().iter().find(|n| !clique.contains(n)).expect("n > m");
            let (out, got) = dht.get_over(from, 9, all_liars(&dht), 77, RetryPolicy::default());
            let lost_integrity = out.msgs > 0 && out.corrupt;
            assert!(lost_integrity, "({m}, {k}): a get across liars kept its integrity");
            assert_eq!(got, None, "({m}, {k}): a corrupted response must not be trusted");
        }
    }
}
