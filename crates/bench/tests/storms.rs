//! The replicated store's storms: profiles of the one scenario driver,
//! `cd_bench::scenario`. Two guarantees carry the store. §6.2: at most
//! `m − k` losses between repairs keep every item at read quorum. §2.1:
//! at `m = k = 1` every join and leave hands items to their new cover.
//!
//! A profile is a `Scenario` and its seeds. Each seed plays on every
//! listed backend, every read checked against the committed-register
//! model, and all backends must end on equal shelf maps and equal
//! transport fingerprints.

use bytes::Bytes;
use cd_bench::scenario::{play, Backend, Check, Model, Op, Phase, Scenario, Topo, Weather, BOTH};
use dh_dht::LookupKind;
use dh_obs::Obs;
use dh_proto::engine::RetryPolicy;

const CHURN: &[(Op, u32)] = &[(Op::Leave, 2), (Op::Join, 2), (Op::Put, 2), (Op::Get, 2)];
const PUTS: &[(Op, u32)] = &[(Op::Put, 1)];
const HEAL: &[(Op, u32)] = &[(Op::Leave, 1), (Op::Join, 1), (Op::Put, 2), (Op::Get, 1)];
const STORM_RETRY: RetryPolicy = RetryPolicy::fixed(512, 5);
const HEDGED: RetryPolicy = RetryPolicy::patient().hedged();
const DURABLE_RETRY: RetryPolicy = RetryPolicy::fixed(128, 6);

/// 1 000 ops of churn, fresh puts and reads on 64 servers, with no
/// latencies; half the leaves are crashes.
const STORM: Scenario = Scenario {
    members: (24, usize::MAX),
    latency: false,
    backends: &[Backend::Mem],
    every: 250,
    min_live: 101,
    checks: &[Check::Placement],
    ..Scenario::new(
        (8, 4),
        64,
        &[Phase::new(
            1_000,
            &[(Op::Leave, 1), (Op::Crash, 1), (Op::Join, 2), (Op::Put, 2), (Op::Get, 2)],
            STORM_RETRY,
        )],
    )
};

/// [`STORM`] at §2.1's single copy: every leave hands off.
const SINGLE: Scenario =
    Scenario { mk: (1, 1), phases: &[Phase::new(1_000, CHURN, STORM_RETRY)], ..STORM };

/// A storm over `Sim` on 48 servers, bisected for 40 of its 130 ops;
/// every committed item ends placed and readable.
const PARTITION: Scenario = Scenario {
    n: 48,
    members: (36, 64),
    latency: true,
    backends: BOTH,
    phases: &[
        Phase::new(60, HEAL, HEDGED),
        Phase::new(40, HEAL, HEDGED).under(Weather::Cut),
        Phase::new(30, HEAL, HEDGED),
    ],
    every: 0,
    min_live: 25,
    checks: &[Check::Placement, Check::TopUp, Check::Heal],
    ..STORM
};

/// On 64 servers, a healthy baseline of 40 puts and 40 reads prices a
/// read; 120 puts and reads follow under the flap schedule.
const FLAP: Scenario = Scenario {
    n: 64,
    tries: 6,
    backends: &[Backend::Mem],
    phases: &[
        Phase::new(40, PUTS, HEDGED),
        Phase::new(40, &[(Op::Get, 1)], HEDGED),
        Phase::new(120, &[(Op::Put, 1), (Op::Get, 2)], HEDGED).under(Weather::Flap),
    ],
    min_live: 40,
    checks: &[Check::Waste(1, 2)],
    ..PARTITION
};

/// 40 puts, then 60 joins and leaves, on 96 servers at `(6, 3)`.
const DURABILITY: Scenario = Scenario {
    mk: (6, 3),
    n: 96,
    members: (32, usize::MAX),
    phases: &[
        Phase::new(40, PUTS, DURABLE_RETRY),
        Phase::new(60, &[(Op::Leave, 1), (Op::Join, 1)], DURABLE_RETRY),
    ],
    every: 0,
    min_live: 40,
    checks: &[Check::Failstop],
    ..STORM
};

/// 600 ops over a few dozen keys at `(6, 3)` on 40 servers.
const INDEX: Scenario = Scenario {
    mk: (6, 3),
    n: 40,
    members: (20, usize::MAX),
    phases: &[Phase::new(600, INDEX_MIX, STORM_RETRY)],
    every: 0,
    min_live: 0,
    checks: &[Check::Indices],
    ..STORM
};

#[rustfmt::skip]
const INDEX_MIX: &[(Op, u32)] = &[
    (Op::Put, 1), (Op::Overwrite, 6), (Op::BareJoin, 2), (Op::LossyPut, 2), (Op::Join, 1),
    (Op::Leave, 1), (Op::Repair, 1), (Op::Remove, 2), (Op::Get, 2),
];

/// Play `sc` from each seed on each of its backends; all must end alike.
fn check(sc: &Scenario, seeds: &[u64]) {
    let waste = sc.checks.iter().any(|check| matches!(check, Check::Waste(..)));
    let obs = || if waste { Obs::recording(1 << 18) } else { Obs::off() };
    for &seed in seeds {
        let ends: Vec<_> = sc.backends.iter().map(|&b| play(sc, seed, b, obs())).collect();
        for pair in ends.windows(2) {
            assert!(
                pair[0].shelves == pair[1].shelves,
                "backends diverged on shelf bytes ({seed:#x})"
            );
            assert_eq!(
                pair[0].wire_fp, pair[1].wire_fp,
                "backends diverged on the wire ({seed:#x})"
            );
        }
    }
}

macro_rules! profiles {
    ($($(#[$doc:meta])* $name:ident: $profile:expr, $seeds:expr;)*) => {
        $($(#[$doc])* #[test] fn $name() { check(&$profile, &$seeds) })*
    };
}

profiles! {
    repair_churn_storm_dh: STORM, [0xF0A1];
    repair_churn_storm_chord: Scenario { topo: Topo::Chord, ..STORM }, [0xF0A2];
    repair_churn_storm_debruijn8: Scenario { topo: Topo::Db8, ..STORM }, [0xF0A3];
    repair_churn_storm_dh_file_backed: Scenario { backends: &[Backend::File], ..STORM }, [0xF0A1];
    single_copy_churn_storm_dh: SINGLE, [0xD001];
    single_copy_churn_storm_chord: Scenario { topo: Topo::Chord, ..SINGLE }, [0xD002];
    single_copy_churn_storm_debruijn8: Scenario { topo: Topo::Db8, ..SINGLE }, [0xD003];
    /// §2.1 under the Fast lookup, down to 8 servers (the native
    /// DistanceHalving lookup is `single_copy_churn_storm_dh`'s).
    storage_churn_storm_fast: Scenario {
        kind: Some(LookupKind::Fast), members: (8, usize::MAX), ..SINGLE
    }, [0xF001];
    partition_heal_dh: PARTITION, [0xA417];
    partition_heal_chord: Scenario { topo: Topo::Chord, ..PARTITION }, [0xA418];
    partition_heal_debruijn8: Scenario { topo: Topo::Db8, ..PARTITION }, [0xA419];
    flap_storm_no_lost_commits_bounded_waste: FLAP, [0xF1A9_0007];
    indices_equal_a_reindex_after_every_step_mem: INDEX, [0x1DE0, 0x1DE1, 0x1DE2];
    indices_equal_a_reindex_after_every_step_file: Scenario {
        backends: &[Backend::File], ..INDEX
    }, [0x1DE0, 0x1DE3];
    durability_after_churn_dh: DURABILITY, [0xD0A1];
    durability_after_churn_debruijn8: Scenario { topo: Topo::Db8, ..DURABILITY }, [0xD0A3];
    durability_after_churn_dh_file_backed: Scenario {
        backends: &[Backend::File], ..DURABILITY
    }, [0xD0A1];
    /// Reads and fresh puts through a loss burst on 256 servers at
    /// `(8, 4)`, bit-identical over the WAL and in memory.
    file_backed_ops_match_memory_bit_for_bit: Scenario {
        mk: (8, 4),
        n: 256,
        latency: true,
        backends: BOTH,
        phases: &[
            Phase::new(30, PUTS, RetryPolicy::fixed(2_048, 8)),
            Phase::new(120, &[(Op::Get, 1), (Op::Put, 2)], RetryPolicy::fixed(2_048, 8))
                .under(Weather::Loss(20)),
        ],
        min_live: 30,
        checks: &[],
        ..DURABILITY
    }, [0xBA7C];
}

/// A profile replays: the same seed, the same shelves and wire schedule.
#[test]
fn replay_is_exact() {
    let run = || play(&FLAP, 0xF1A9_0007, Backend::Mem, Obs::recording(1 << 18));
    let (a, b) = (run(), run());
    assert!(a.shelves == b.shelves && a.wire_fp == b.wire_fp, "a replay diverged");
}

/// An oracle that accepts everything would pass every profile.
#[test]
#[should_panic(expected = "stale")]
fn the_model_rejects_a_stale_read() {
    let mut model = Model::default();
    model.ack(7, Bytes::from("old"));
    model.ack(7, Bytes::from("new"));
    model.read(7, Some(&Bytes::from("old")), false);
}
