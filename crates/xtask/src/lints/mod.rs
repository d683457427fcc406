//! Pass registry, violations, inline waivers and the committed allowlist.
//!
//! A violation survives to the report only if it is neither waived inline
//! (`// lint:allow(<id>): reason` on the offending line or on the comment
//! line directly above) nor matched by an entry in
//! `crates/xtask/allowlist.txt`.

pub(crate) mod blocking_worker;
pub(crate) mod doc_coverage;
pub(crate) mod env_read;
pub(crate) mod float_accum;
pub(crate) mod hot_assert;
pub(crate) mod lock_hazard;
pub(crate) mod metric_name;
pub(crate) mod no_panic;
pub(crate) mod no_print;
pub(crate) mod no_spawn;
pub(crate) mod no_unwrap;
pub(crate) mod nondet_iter;
pub(crate) mod unordered_reduction;
pub(crate) mod wallclock;

use crate::scan::SourceFile;

/// One finding from one pass.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Violation {
    pub(crate) lint: &'static str,
    pub(crate) path: String,
    /// 1-based line number.
    pub(crate) line: usize,
    pub(crate) message: String,
}

impl Violation {
    pub(crate) fn new(
        lint: &'static str,
        file: &SourceFile,
        idx: usize,
        message: String,
    ) -> Violation {
        Violation {
            lint,
            path: file.path.clone(),
            line: idx + 1,
            message,
        }
    }
}

/// A lint/audit pass over one file.
pub(crate) trait Lint {
    fn id(&self) -> &'static str;
    /// Whether this pass cares about `path` (workspace-relative).
    fn applies(&self, path: &str) -> bool;
    fn run(&self, file: &SourceFile) -> Vec<Violation>;
}

/// The eight `xtask check` lints, in report order. `check` enforces zero
/// unwaived violations for these.
pub(crate) fn all_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(no_unwrap::NoUnwrapInLib),
        Box::new(no_print::NoPrintInLib),
        Box::new(no_panic::NoPanicInService),
        Box::new(lock_hazard::LockHazard),
        Box::new(float_accum::FloatAccum),
        Box::new(hot_assert::AssertInHotPath),
        Box::new(no_spawn::NoSpawnOutsideRt),
        Box::new(doc_coverage::DocCoverage),
    ]
}

/// Every `xtask audit` pass: the eight lints plus the six determinism/
/// concurrency analyses, in report order. `audit` gates their counts on
/// the committed ratchet baseline.
pub(crate) fn audit_passes() -> Vec<Box<dyn Lint>> {
    let mut passes = all_lints();
    passes.push(Box::new(nondet_iter::NondetIteration));
    passes.push(Box::new(unordered_reduction::UnorderedReduction));
    passes.push(Box::new(wallclock::WallclockInCore));
    passes.push(Box::new(env_read::EnvReadInLib));
    passes.push(Box::new(blocking_worker::BlockingInWorker));
    passes.push(Box::new(metric_name::MetricNameLiteral));
    passes
}

/// Lint ids waived for line `idx` (0-based) by `lint:allow` comments on
/// the line itself or on a comment line directly above it.
pub(crate) fn waivers_for(file: &SourceFile, idx: usize) -> Vec<String> {
    let mut ids = parse_waiver(&file.lines[idx].raw);
    if idx > 0 {
        let above = &file.lines[idx - 1].raw;
        if above.trim_start().starts_with("//") {
            ids.extend(parse_waiver(above));
        }
    }
    ids
}

/// Extract ids from `// lint:allow(id[, id...])[: reason]`.
fn parse_waiver(raw: &str) -> Vec<String> {
    let Some(pos) = raw.find("lint:allow(") else {
        return Vec::new();
    };
    let rest = &raw[pos + "lint:allow(".len()..];
    let Some(close) = rest.find(')') else {
        return Vec::new();
    };
    rest[..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// FNV-1a 64-bit hash of the *trimmed* line, as 16 hex digits. Trimming
/// makes the hash survive re-indentation; any other edit to the waived
/// line invalidates the entry on purpose (the waiver was reviewed against
/// that exact code).
pub(crate) fn snippet_hash(raw_line: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in raw_line.trim().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// One committed allowlist entry: `lint-id path-suffix needle`, where the
/// needle is either a substring of the offending line or
/// `hash:<16-hex>` — the [`snippet_hash`] of the offending line. Both
/// forms are line-number-insensitive: edits elsewhere in the file never
/// invalidate the waiver.
#[derive(Debug)]
pub(crate) struct AllowEntry {
    pub(crate) lint: String,
    pub(crate) path: String,
    pub(crate) needle: String,
}

/// Parse `allowlist.txt` (blank lines and `#` comments ignored).
pub(crate) fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut it = l.splitn(3, char::is_whitespace);
            let lint = it.next()?.to_string();
            let path = it.next()?.to_string();
            let needle = it.next().unwrap_or("").trim().to_string();
            Some(AllowEntry { lint, path, needle })
        })
        .collect()
}

/// Whether `entry` excuses `v` (given the offending line's raw text).
pub(crate) fn entry_matches(entry: &AllowEntry, v: &Violation, raw_line: &str) -> bool {
    if entry.lint != v.lint || !v.path.ends_with(&entry.path) {
        return false;
    }
    if let Some(want) = entry.needle.strip_prefix("hash:") {
        return snippet_hash(raw_line) == want;
    }
    entry.needle.is_empty() || raw_line.contains(&entry.needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    #[test]
    fn inline_and_preceding_waivers_parse() {
        let f = SourceFile::parse(
            "t.rs",
            "a.unwrap(); // lint:allow(no-unwrap-in-lib): startup invariant\n\
             // lint:allow(lock-hazard, float-accum): ordered\n\
             b.lock();\n\
             c.unwrap();\n",
        );
        assert_eq!(waivers_for(&f, 0), vec!["no-unwrap-in-lib"]);
        assert_eq!(waivers_for(&f, 2), vec!["lock-hazard", "float-accum"]);
        assert!(waivers_for(&f, 3).is_empty());
    }

    #[test]
    fn allowlist_matches_on_lint_path_suffix_and_substring() {
        let entries = parse_allowlist(
            "# comment\n\
             \n\
             no-unwrap-in-lib crates/core/src/persist.rs header.len()\n\
             lock-hazard live.rs\n",
        );
        assert_eq!(entries.len(), 2);
        let v = Violation {
            lint: "no-unwrap-in-lib",
            path: "crates/core/src/persist.rs".into(),
            line: 10,
            message: String::new(),
        };
        assert!(entry_matches(
            &entries[0],
            &v,
            "let n = header.len().unwrap();"
        ));
        assert!(!entry_matches(&entries[0], &v, "other.unwrap();"));
        assert!(!entry_matches(&entries[1], &v, "anything"));
    }

    #[test]
    fn hash_entries_match_the_exact_snippet_reindented() {
        let line = "    let n = header.len().unwrap();";
        let h = snippet_hash(line);
        let entries = parse_allowlist(&format!(
            "no-unwrap-in-lib crates/core/src/persist.rs hash:{h}\n"
        ));
        let v = Violation {
            lint: "no-unwrap-in-lib",
            path: "crates/core/src/persist.rs".into(),
            line: 10,
            message: String::new(),
        };
        // Same snippet, different indentation: still matches.
        assert!(entry_matches(&entries[0], &v, line));
        assert!(entry_matches(
            &entries[0],
            &v,
            "\t\tlet n = header.len().unwrap();"
        ));
        // Any code change invalidates the waiver.
        assert!(!entry_matches(
            &entries[0],
            &v,
            "let n = header.len().unwrap(); // changed"
        ));
    }

    #[test]
    fn snippet_hash_is_stable_and_hex() {
        let h = snippet_hash("  x.unwrap();  ");
        assert_eq!(h, snippet_hash("x.unwrap();"), "trim-insensitive");
        assert_eq!(h.len(), 16);
        assert!(h.bytes().all(|b| b.is_ascii_hexdigit()));
    }
}
