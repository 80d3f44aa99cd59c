//! The conformance table in tier-1: the same experiment functions
//! `e_paper` runs, at the two smallest sizes, plus the harness's own
//! verdict rules on hand-built columns.

use cd_bench::paper::{growth, run, spread, Claim, Cmp, Params, Table, ALL};
use cd_bench::SIZES;

static FLAT: Claim =
    Claim { id: "X1", text: "a Θ(1) column: spread over the sweep", cmp: Cmp::Le, bound: "1.5" };
static FLOOR: Claim = Claim { id: "X2", text: "a floor", cmp: Cmp::Ge, bound: "n / 2" };
static IDENTITY: Claim =
    Claim { id: "X3", text: "an accounting identity", cmp: Cmp::Eq, bound: "2" };

#[test]
fn every_claim_is_measured_exactly_once_and_holds_at_small_sizes() {
    let table = run(&Params { sizes: &SIZES[..2], n: 1024 }, &[]);
    let mut ids = table.ids();
    let mut declared: Vec<&str> = ALL.iter().map(|c| c.id).collect();
    assert_eq!(ids.len(), declared.len(), "a claim without a row, or a row twice");
    ids.sort_unstable();
    declared.sort_unstable();
    assert_eq!(ids, declared);
    assert_eq!(table.failures(), Vec::<String>::new());
}

#[test]
fn an_id_prefix_selects_the_experiments_that_own_it() {
    let table = run(&Params { sizes: &SIZES[..2], n: 1024 }, &["E3".to_string()]);
    assert_eq!(table.ids(), ["E3A", "E3B"]);
}

#[test]
fn a_violated_bound_fails_and_is_named() {
    let mut t = Table::default();
    t.push(&FLOOR, "n = 8", 5.0, 4.0);
    assert!(t.failures().is_empty());
    t.push(&FLOOR, "n = 16", 7.0, 8.0);
    let failures = t.failures();
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].starts_with("X2 at n = 16: 7 is not ≥ n / 2 = 8"), "{}", failures[0]);
    assert!(t.to_markdown().contains("FAIL"));
    assert!(t.to_markdown().contains("0 of 1 claims hold over 2 points"));
}

#[test]
fn an_identity_fails_on_either_side_of_its_value() {
    let mut t = Table::default();
    t.check(&IDENTITY, "exact", 2.0);
    assert!(t.failures().is_empty());
    t.check(&IDENTITY, "below", 2.0 - 1e-12);
    t.check(&IDENTITY, "above", 2.5);
    let failures = t.failures();
    assert_eq!(failures.len(), 2, "{failures:?}");
    assert!(failures[1].starts_with("X3 at above: 2.500 is not = 2"), "{}", failures[1]);
}

#[test]
fn the_tightest_point_not_the_last_decides_a_claim() {
    let mut t = Table::default();
    t.push(&FLOOR, "n = 8", 6.0, 4.0);
    t.push(&FLOOR, "n = 16", 8.5, 8.0);
    t.push(&FLOOR, "n = 32", 30.0, 16.0);
    let md = t.to_markdown();
    assert!(md.contains("n = 16 (of 3)"), "{md}");
    assert!(md.contains("| 8.500") && md.contains("n / 2 = 8 "), "{md}");
    assert!(md.contains("| ok "), "{md}");
}

#[test]
fn a_doubling_column_fails_a_flat_shape_claim() {
    let steady = [1.31, 1.34, 1.52, 1.47];
    let doubling = [1.0, 2.0, 4.0, 8.0];
    assert!(spread(&steady) < 1.2);
    assert_eq!(growth(&doubling), 8.0);
    let mut t = Table::default();
    t.check(&FLAT, "n = 256…16384", spread(&steady));
    assert!(t.failures().is_empty());
    t.check(&FLAT, "n = 256…16384, doubling", spread(&doubling[..2]));
    assert_eq!(t.failures().len(), 1);
    assert!(t.failures()[0].contains("X1 at n = 256…16384, doubling: 2 is not ≤ 1.5"));
}
