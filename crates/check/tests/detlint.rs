//! detlint rule regressions: every rule must fire on a dirty fixture
//! and stay quiet on the clean twin. The fixtures are source *strings*
//! fed straight to the rule engine under trace-crate paths, so the
//! lint stays provably sharp without planting dirty code in the real
//! crates.

use dh_check::{lint_source, Stats};

fn findings(path: &str, src: &str) -> Vec<(String, u32)> {
    let mut stats = Stats::default();
    lint_source(path, src, &mut stats)
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

fn rules_of(path: &str, src: &str) -> Vec<String> {
    findings(path, src).into_iter().map(|(r, _)| r).collect()
}

// ---------------------------------------------------------------- D1

/// The third seeded mutant of the ISSUE: a trace record built by
/// iterating a `HashMap` — exactly the bug class that bit PR 5's churn
/// notify. detlint must flag it in a trace-affecting crate.
#[test]
fn mutant_hash_order_trace_emission_is_flagged() {
    let src = r#"
        use std::collections::HashMap;
        pub fn emit_trace(items: &HashMap<u64, u64>, out: &mut Vec<u64>) {
            for (&k, &v) in items.iter() {
                out.push(k ^ v); // hash order leaks into the trace
            }
        }
    "#;
    let rules = rules_of("crates/dht/src/fake_trace.rs", src);
    assert!(
        rules.iter().filter(|r| *r == "hash-order").count() >= 2,
        "both HashMap mentions must be flagged, got {rules:?}"
    );
    // the BTree rewrite is clean
    let fixed = src.replace("HashMap", "BTreeMap");
    assert_eq!(rules_of("crates/dht/src/fake_trace.rs", &fixed), Vec::<String>::new());
}

#[test]
fn hash_types_outside_trace_crates_are_fine() {
    let src = "use std::collections::HashMap;\nfn f() -> HashMap<u8, u8> { HashMap::new() }\n";
    assert_eq!(rules_of("crates/geometry/src/x.rs", src), Vec::<String>::new());
}

#[test]
fn hash_types_in_strings_comments_and_tests_are_fine() {
    let src = r##"
        // a HashMap in a comment is fine
        const DOC: &str = "HashMap in a string is fine";
        #[cfg(test)]
        mod tests {
            use std::collections::HashMap;
            #[test]
            fn t() {
                let _ = HashMap::<u8, u8>::new();
            }
        }
    "##;
    assert_eq!(rules_of("crates/proto/src/x.rs", src), Vec::<String>::new());
}

// ---------------------------------------------------------------- D2

#[test]
fn wall_clock_and_os_randomness_are_flagged() {
    let src = r#"
        fn f() -> u64 {
            let t = std::time::Instant::now();
            let _ = std::time::SystemTime::now();
            let _ = std::thread::available_parallelism();
            t.elapsed().as_nanos() as u64
        }
    "#;
    let rules = rules_of("crates/dht/src/x.rs", src);
    assert_eq!(rules.iter().filter(|r| *r == "nondet-source").count(), 3, "{rules:?}");
    // same file under shims/: exempt; under a bench bin: flagged too
    assert_eq!(rules_of("shims/proptest/src/lib.rs", src), Vec::<String>::new());
    let rules = rules_of("crates/bench/src/bin/e_new.rs", src);
    assert_eq!(rules.iter().filter(|r| *r == "nondet-source").count(), 3, "{rules:?}");
}

#[test]
fn instant_type_without_now_is_fine() {
    let src = "struct S { t: std::time::Instant }\n";
    assert_eq!(rules_of("crates/dht/src/x.rs", src), Vec::<String>::new());
}

// ---------------------------------------------------------------- D3

#[test]
fn unwrap_and_indexing_in_recovery_paths_are_flagged() {
    let src = r#"
        fn replay(buf: &[u8]) -> u32 {
            let head = buf[0]; // panics on empty
            u32::from_le_bytes(buf[1..5].try_into().unwrap()) + head as u32
        }
    "#;
    let rules = rules_of("crates/store/src/wal.rs", src);
    assert!(rules.contains(&"unwrap".to_string()), "{rules:?}");
    assert!(rules.contains(&"indexing".to_string()), "{rules:?}");
    // identical code outside the recovery scope is not D3's business
    assert_eq!(rules_of("crates/dht/src/x.rs", src), Vec::<String>::new());
}

#[test]
fn attributes_and_slices_of_literals_are_not_indexing() {
    let src = r#"
        #[derive(Clone)]
        struct S { v: Vec<u8> }
        fn f(s: &S) -> Option<u8> {
            s.v.get(0).copied()
        }
    "#;
    assert_eq!(rules_of("crates/store/src/wal.rs", src), Vec::<String>::new());
}

// ---------------------------------------------------------------- D5

#[test]
fn relaxed_ordering_off_allowlist_is_flagged() {
    let src = "fn f(a: &std::sync::atomic::AtomicUsize) -> usize { a.load(std::sync::atomic::Ordering::Relaxed) }\n";
    assert_eq!(rules_of("crates/dht/src/not_listed.rs", src), vec!["relaxed-ordering".to_string()]);
}

#[test]
fn allowlist_count_drift_is_a_stale_entry() {
    // crates/store/src/tamper.rs is allowlisted for exactly 1 site
    let src = "use std::sync::atomic::Ordering;\nfn f(a: &std::sync::atomic::AtomicUsize) { a.store(0, Ordering::Relaxed); a.store(1, Ordering::Relaxed); }\n";
    let rules = rules_of("crates/store/src/tamper.rs", src);
    assert_eq!(rules, vec!["relaxed-ordering".to_string()], "2 sites vs 1 allowed must report drift");
}

// ------------------------------------------------------------ pragmas

#[test]
fn justified_pragma_suppresses_and_counts() {
    let src = "fn f(buf: &[u8]) -> u8 {\n    // detlint: allow(indexing): caller checks len >= 1\n    buf[0]\n}\n";
    let mut stats = Stats::default();
    let fs = lint_source("crates/store/src/wal.rs", src, &mut stats);
    assert!(fs.is_empty(), "{fs:?}");
    assert_eq!(stats.pragmas_used, 1);
}

#[test]
fn unjustified_pragma_is_itself_a_finding() {
    let src = "fn f(buf: &[u8]) -> u8 {\n    // detlint: allow(indexing)\n    buf[0]\n}\n";
    let rules = rules_of("crates/store/src/wal.rs", src);
    assert!(rules.contains(&"pragma".to_string()), "{rules:?}");
}

#[test]
fn unused_pragma_is_a_finding() {
    let src = "// detlint: allow(hash-order): nothing here uses one\nfn f() {}\n";
    let rules = rules_of("crates/dht/src/x.rs", src);
    assert_eq!(rules, vec!["pragma".to_string()]);
}

// ------------------------------------------------------- whole repo

/// The acceptance gate, as a test: the real workspace lints clean.
#[test]
fn workspace_lints_clean() {
    // CARGO_MANIFEST_DIR = crates/check → workspace root is ../..
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let (findings, stats) = dh_check::lint_workspace(&root).expect("walk workspace");
    assert!(stats.files > 100, "walker found only {} files", stats.files);
    assert!(
        findings.is_empty(),
        "workspace must lint clean:\n{}",
        findings.iter().map(std::string::ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}
