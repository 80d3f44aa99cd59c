//! The detlint rule engine: rules D1–D3 and D5 over the lexed token
//! stream.
//!
//! Rule catalog (DESIGN.md §11 has the full rationale):
//!
//! | id | rule | scope |
//! |----|------|-------|
//! | D1 `hash-order`      | no `HashMap`/`HashSet` in trace-affecting crates | crates/{proto,dht,replica,store,fault,obs} |
//! | D2 `nondet-source`   | no `Instant::now`/`SystemTime`/`thread_rng`/`available_parallelism` | everywhere except shims/ |
//! | D3 `unwrap`, `indexing` | no `.unwrap()`/`.expect()`/panicking indexing | store recovery + WAL replay (crates/store/src/{wal,file}.rs) and the fault path (crates/proto/src/{health,fault}.rs) |
//! | D5 `relaxed-ordering`| every `Ordering::Relaxed` site is on the compiled allowlist | everywhere |
//!
//! (There is no D4: it asked for a `// SAFETY:` comment on every
//! `unsafe`, and the workspace now forbids `unsafe_code` outright in
//! `[workspace.lints.rust]`, so its subject cannot compile.)
//!
//! `#[cfg(test)]` / `#[test]` items are skipped — test code may use
//! hash maps, unwraps and wall clocks freely.
//!
//! **Escape hatch**: `// detlint: allow(<rule>): <justification>`
//! suppresses that rule on the pragma's line and the following line.
//! The justification is mandatory; a pragma without one, and a pragma
//! that suppresses nothing, are themselves findings. D5 deliberately
//! has no pragma form — `Relaxed` sites go on the allowlist in
//! `allowlist.rs` with a justification, and a stale entry (file gone
//! or site count changed) is a finding, so the list cannot rot.
//!
//! Honesty note: the engine is *lexical*. D1 flags the types by name
//! (mentioning `HashMap` at all in a trace crate is the smell — the
//! deterministic alternative is a `BTreeMap`); D3's indexing rule
//! flags `expr[…]` shapes (an open bracket after an identifier, `)`
//! or `]`). Both overapproximate; that is what the pragma is for.

use crate::allowlist::RELAXED_ALLOWLIST;
use crate::lex::{lex, Tok, Token};
use std::collections::BTreeMap;

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`hash-order`, `nondet-source`, `unwrap`, `indexing`,
    /// `relaxed-ordering`, `pragma`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
    }
}

/// What a full workspace run covered.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Files lexed and checked.
    pub files: usize,
    /// Pragmas that suppressed at least one finding.
    pub pragmas_used: usize,
}

/// Crates whose iteration order can leak into traces (D1 scope).
const TRACE_CRATES: [&str; 6] = [
    "crates/proto/",
    "crates/dht/",
    "crates/replica/",
    "crates/store/",
    "crates/fault/",
    "crates/obs/",
];

/// Files where a panic is never acceptable (D3 scope): the store
/// recovery scan + WAL replay path, and the grey-failure fault path —
/// the failure detector and the fault-injection transports run exactly
/// when the system is already degraded, so suspicion/hedge bookkeeping
/// must degrade, not crash.
const RECOVERY_FILES: [&str; 4] = [
    "crates/store/src/wal.rs",
    "crates/store/src/file.rs",
    "crates/proto/src/health.rs",
    "crates/proto/src/fault.rs",
];

/// Sources of wall-clock time / OS nondeterminism (D2).
const NONDET_IDENTS: [&str; 3] = ["SystemTime", "thread_rng", "available_parallelism"];

fn in_trace_crate(path: &str) -> bool {
    TRACE_CRATES.iter().any(|p| path.starts_with(p))
}

fn d2_exempt(path: &str) -> bool {
    // shims wrap the OS facilities by design; wall-clock measurement
    // lives in `benchmark/`, outside the workspace
    path.starts_with("shims/")
}

/// A parsed `// detlint: allow(rule): justification` pragma.
#[derive(Clone, Debug)]
struct Pragma {
    rule: String,
    line: u32,
    justified: bool,
    used: bool,
}

fn parse_pragmas(tokens: &[Token]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for t in tokens {
        let Tok::LineComment(text) = &t.tok else { continue };
        let Some(rest) = text.trim_start().strip_prefix("detlint:") else { continue };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            out.push(Pragma {
                rule: String::new(),
                line: t.line,
                justified: false,
                used: true, // malformed, reported separately below
            });
            continue;
        };
        let (rule, after) = match rest.split_once(')') {
            Some(p) => p,
            None => ("", rest),
        };
        let justification = after.trim_start().strip_prefix(':').map(str::trim).unwrap_or("");
        out.push(Pragma {
            rule: rule.trim().to_string(),
            line: t.line,
            justified: !justification.is_empty(),
            used: false,
        });
    }
    out
}

/// Drop tokens belonging to `#[cfg(test)]` / `#[test]` items.
///
/// On seeing a test attribute the filter consumes any further
/// attributes, then the item itself: up to the matching `}` of its
/// first brace block, or to a `;` at brace depth zero. `cfg(not(test))`
/// is *not* a test attribute.
fn strip_test_items(tokens: Vec<Token>) -> Vec<Token> {
    let sig: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.tok, Tok::LineComment(_)))
        .map(|(i, _)| i)
        .collect();
    let tok_at = |s: usize| sig.get(s).map(|&i| &tokens[i].tok);
    let mut drop = vec![false; tokens.len()];
    let mut s = 0usize;
    while s < sig.len() {
        // outer attribute?
        if tok_at(s) == Some(&Tok::Punct('#')) && tok_at(s + 1) == Some(&Tok::Punct('[')) {
            let (attr_end, is_test) = scan_attribute(&tokens, &sig, s);
            if is_test {
                let mut e = attr_end; // first sig index past `]`
                // consume trailing attributes of the same item
                while tok_at(e) == Some(&Tok::Punct('#')) && tok_at(e + 1) == Some(&Tok::Punct('['))
                {
                    let (next_end, _) = scan_attribute(&tokens, &sig, e);
                    e = next_end;
                }
                // consume the item
                let mut depth = 0usize;
                while e < sig.len() {
                    match tok_at(e) {
                        Some(Tok::Punct('{')) => depth += 1,
                        Some(Tok::Punct('}')) => {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                e += 1;
                                break;
                            }
                        }
                        Some(Tok::Punct(';')) if depth == 0 => {
                            e += 1;
                            break;
                        }
                        _ => {}
                    }
                    e += 1;
                }
                for &i in sig.get(s..e).unwrap_or(&[]) {
                    drop[i] = true;
                }
                s = e;
                continue;
            }
            s = attr_end;
            continue;
        }
        s += 1;
    }
    tokens.into_iter().zip(drop).filter(|(_, d)| !d).map(|(t, _)| t).collect()
}

/// Scan the attribute starting at sig index `s` (`#` `[` …). Returns
/// `(sig index past the closing bracket, is-test-attribute)`.
fn scan_attribute(tokens: &[Token], sig: &[usize], s: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut idents: Vec<&str> = Vec::new();
    let mut e = s + 1;
    while e < sig.len() {
        match sig.get(e).map(|&i| &tokens[i].tok) {
            Some(Tok::Punct('[')) => depth += 1,
            Some(Tok::Punct(']')) => {
                depth -= 1;
                if depth == 0 {
                    e += 1;
                    break;
                }
            }
            Some(Tok::Ident(w)) => idents.push(w),
            _ => {}
        }
        e += 1;
    }
    let is_test = match idents.first() {
        Some(&"test") => true,
        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        _ => false,
    };
    (e, is_test)
}

/// Lint one file's source. `path` is workspace-relative with forward
/// slashes; it selects which rules apply.
pub fn lint_source(path: &str, src: &str, stats: &mut Stats) -> Vec<Finding> {
    stats.files += 1;
    let all_tokens = lex(src);
    let mut pragmas = parse_pragmas(&all_tokens);
    let tokens = strip_test_items(all_tokens);
    let sig: Vec<&Token> =
        tokens.iter().filter(|t| !matches!(t.tok, Tok::LineComment(_))).collect();

    let mut raw: Vec<Finding> = Vec::new();
    let mut relaxed_sites: Vec<u32> = Vec::new();

    let ident = |i: usize| -> Option<&str> {
        match sig.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let punct = |i: usize, c: char| -> bool { sig.get(i).map(|t| &t.tok) == Some(&Tok::Punct(c)) };

    for i in 0..sig.len() {
        let line = sig.get(i).map(|t| t.line).unwrap_or(0);
        let Some(word) = ident(i) else {
            // D3 indexing: `[` after an ident, `)` or `]`
            if RECOVERY_FILES.contains(&path) && punct(i, '[') && i > 0 {
                let prev = sig.get(i - 1).map(|t| &t.tok);
                let indexes = matches!(
                    prev,
                    Some(Tok::Ident(_)) | Some(Tok::Punct(')')) | Some(Tok::Punct(']'))
                );
                if indexes {
                    raw.push(Finding {
                        rule: "indexing",
                        file: path.to_string(),
                        line,
                        msg: "panicking index in a recovery/fault path — use .get() and return a typed error".into(),
                    });
                }
            }
            continue;
        };
        match word {
            "HashMap" | "HashSet" if in_trace_crate(path) => raw.push(Finding {
                rule: "hash-order",
                file: path.to_string(),
                line,
                msg: format!(
                    "{word} in a trace-affecting crate — iteration order is nondeterministic; use the BTree equivalent"
                ),
            }),
            "Instant" if !d2_exempt(path) && punct(i + 1, ':') && punct(i + 2, ':')
                && ident(i + 3) == Some("now") =>
            {
                raw.push(Finding {
                    rule: "nondet-source",
                    file: path.to_string(),
                    line,
                    msg: "Instant::now in a deterministic path — wall-clock time may not influence protocol state".into(),
                });
            }
            w if NONDET_IDENTS.contains(&w) && !d2_exempt(path) => raw.push(Finding {
                rule: "nondet-source",
                file: path.to_string(),
                line,
                msg: format!("{w} outside shims/bench — OS nondeterminism may not reach deterministic paths"),
            }),
            "unwrap" | "expect" if RECOVERY_FILES.contains(&path) && i > 0 && punct(i - 1, '.') => {
                raw.push(Finding {
                    rule: "unwrap",
                    file: path.to_string(),
                    line,
                    msg: format!(".{word}() in a recovery/fault path — crash paths must return typed errors"),
                });
            }
            "Ordering" if punct(i + 1, ':') && punct(i + 2, ':') && ident(i + 3) == Some("Relaxed") => {
                relaxed_sites.push(line);
            }
            _ => {}
        }
    }

    // pragma suppression: a pragma covers its own line and the next
    let mut out: Vec<Finding> = Vec::new();
    'f: for f in raw {
        for p in &mut pragmas {
            if p.rule == f.rule && (p.line == f.line || p.line + 1 == f.line) {
                p.used = true;
                if p.justified {
                    stats.pragmas_used += 1;
                    continue 'f;
                }
            }
        }
        out.push(f);
    }

    // D5: allowlist, not pragmas
    let entry = RELAXED_ALLOWLIST.iter().find(|e| e.file == path);
    match (entry, relaxed_sites.len()) {
        (None, 0) => {}
        (None, _) => {
            for line in &relaxed_sites {
                out.push(Finding {
                    rule: "relaxed-ordering",
                    file: path.to_string(),
                    line: *line,
                    msg: "Ordering::Relaxed site not on the allowlist (crates/check/src/allowlist.rs)".into(),
                });
            }
        }
        (Some(e), n) if n != e.sites => {
            out.push(Finding {
                rule: "relaxed-ordering",
                file: path.to_string(),
                line: relaxed_sites.first().copied().unwrap_or(0),
                msg: format!(
                    "stale allowlist entry: {} Relaxed site(s) found, allowlist says {} — re-review and update",
                    n, e.sites
                ),
            });
        }
        (Some(e), _) if e.why.trim().is_empty() => {
            out.push(Finding {
                rule: "relaxed-ordering",
                file: path.to_string(),
                line: 0,
                msg: "allowlist entry has an empty justification".into(),
            });
        }
        _ => {}
    }

    // pragma hygiene
    for p in &pragmas {
        if p.rule.is_empty() {
            out.push(Finding {
                rule: "pragma",
                file: path.to_string(),
                line: p.line,
                msg: "malformed pragma — expected `// detlint: allow(rule): justification`".into(),
            });
        } else if !p.justified {
            out.push(Finding {
                rule: "pragma",
                file: path.to_string(),
                line: p.line,
                msg: "pragma without a justification — append `: <why this is sound>`".into(),
            });
        } else if !p.used {
            out.push(Finding {
                rule: "pragma",
                file: path.to_string(),
                line: p.line,
                msg: format!("unused pragma for rule `{}` — it suppresses nothing; remove it", p.rule),
            });
        }
    }

    out.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(b.rule)));
    out
}

/// Walk the workspace at `root` (crates/, shims/, src/) and lint every
/// `.rs` file. Returns findings plus stale-allowlist checks for files
/// that no longer exist.
pub fn lint_workspace(root: &std::path::Path) -> std::io::Result<(Vec<Finding>, Stats)> {
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for top in ["crates", "shims", "src"] {
        collect_rs(&root.join(top), &mut files)?;
    }
    files.sort();
    let mut stats = Stats::default();
    let mut findings = Vec::new();
    let mut seen: BTreeMap<String, ()> = BTreeMap::new();
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(f)?;
        findings.extend(lint_source(&rel, &src, &mut stats));
        seen.insert(rel, ());
    }
    for e in RELAXED_ALLOWLIST {
        if !seen.contains_key(e.file) {
            findings.push(Finding {
                rule: "relaxed-ordering",
                file: e.file.to_string(),
                line: 0,
                msg: "stale allowlist entry: file does not exist".into(),
            });
        }
    }
    Ok((findings, stats))
}

fn collect_rs(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" {
                collect_rs(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
