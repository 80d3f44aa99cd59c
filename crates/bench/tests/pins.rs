//! The safety net in tier-1: every row of `cd_bench::pins::PINS` run
//! once, plus the table's own verdict rules on hand-built rows.

use cd_bench::pins::{check, Backend, Pin, PINS};

const BOTH: &[Backend] = &[Backend::Mem, Backend::File];

fn row(name: &'static str, scenario: fn(Backend) -> u64, want: u64) -> Pin {
    Pin { name, backends: BOTH, scenario, want }
}

#[test]
fn every_pinned_scenario_reproduces_its_fingerprint() {
    let failures = check(&PINS);
    assert!(failures.is_empty(), "pinned fingerprints moved:\n{}", failures.join("\n"));
}

#[test]
fn every_pin_name_is_unique() {
    let mut names: Vec<&str> = PINS.iter().map(|p| p.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), PINS.len());
}

#[test]
fn a_mismatch_fails_and_is_named() {
    let failures = check(&[row("steady", |_| 7, 7), row("moved", |_| 8, 7)]);
    assert_eq!(
        failures,
        [
            "moved (mem): got 0x0000000000000008 want 0x0000000000000007",
            "moved (file): got 0x0000000000000008 want 0x0000000000000007",
        ]
    );
}

#[test]
fn two_mismatching_rows_are_both_reported_in_one_run() {
    let rows = [
        Pin { name: "a", backends: &[Backend::Mem], scenario: |_| 1, want: 2 },
        row("steady", |_| 7, 7),
        Pin { name: "b", backends: &[Backend::Mem], scenario: |_| 3, want: 4 },
    ];
    let failures = check(&rows);
    assert_eq!(failures.len(), 2, "{failures:?}");
    assert!(failures[0].starts_with("a (mem): got 0x0000000000000001"), "{}", failures[0]);
    assert!(failures[1].starts_with("b (mem): got 0x0000000000000003"), "{}", failures[1]);
}

#[test]
fn folds_that_differ_by_backend_fail_even_if_one_matches_the_pin() {
    let leaky = row("leaky", |b| if b == Backend::File { 6 } else { 5 }, 5);
    let failures = check(&[leaky]);
    assert_eq!(
        failures,
        [
            "leaky (file): got 0x0000000000000006 want 0x0000000000000005",
            "leaky: backend-dependent — mem 0x0000000000000005, file 0x0000000000000006",
        ]
    );
}
