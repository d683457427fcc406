//! Minimal JSON serialization for bench snapshots — enough to write a
//! valid `BENCH_<bin>.json` without a serde dependency.

use crate::metrics::registry;
use std::path::Path;

/// Escape a string for embedding inside a JSON string literal (quotes,
/// backslashes and control characters).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON number (`null` for NaN/±∞, which JSON
/// cannot represent).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Serialize the entire global registry plus bench headline metrics as a
/// pretty-printed `BENCH_<bin>.json` document:
///
/// ```json
/// {
///   "schema": 2,
///   "bin": "table2",
///   "host": {"cores": 2, "commit": "1513ae1…"},
///   "headline": {"ndcg_short": 0.93, ...},
///   "counters": {"index.probe.exact": 120, ...},
///   "gauges": {"tagger.epoch_loss": 0.41, ...},
///   "histograms": {"algo1.probe": {"count":30,"p50":1200,...}, ...}
/// }
/// ```
///
/// `host` (new in schema 2) says where the numbers were taken: the cores
/// `available_parallelism` reports, and the commit checked out in the
/// nearest git checkout at or above the working directory (`unknown`
/// outside one). Histogram values are span durations in nanoseconds.
pub fn bench_snapshot(bin: &str, headline: &[(&str, f64)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 2,\n");
    out.push_str(&format!("  \"bin\": \"{}\",\n", escape(bin)));
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::env::current_dir()
        .ok()
        .and_then(|dir| checkout_commit(&dir))
        .unwrap_or_else(|| "unknown".to_string());
    out.push_str(&format!(
        "  \"host\": {{\"cores\": {cores}, \"commit\": \"{}\"}},\n",
        escape(&commit)
    ));

    out.push_str("  \"headline\": {");
    push_entries(
        &mut out,
        headline.iter().map(|(k, v)| ((*k).to_string(), number(*v))),
    );
    out.push_str("},\n");

    out.push_str("  \"counters\": {");
    push_entries(
        &mut out,
        registry()
            .counter_values()
            .into_iter()
            .map(|(k, v)| (k, v.to_string())),
    );
    out.push_str("},\n");

    out.push_str("  \"gauges\": {");
    push_entries(
        &mut out,
        registry()
            .gauge_values()
            .into_iter()
            .map(|(k, v)| (k, number(v))),
    );
    out.push_str("},\n");

    out.push_str("  \"histograms\": {");
    push_entries(
        &mut out,
        registry().histogram_snapshots().into_iter().map(|(k, s)| {
            let body = format!(
                "{{\"count\": {}, \"sum_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
                 \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}",
                s.count, s.sum, s.min, s.max, s.p50, s.p95, s.p99
            );
            (k, body)
        }),
    );
    out.push_str("}\n");

    out.push_str("}\n");
    out
}

/// The commit `HEAD` names in the nearest `.git` at or above `dir`: a
/// detached id as is, a branch through its loose ref or `packed-refs`.
/// A `.git` file (a linked worktree) points at the git directory.
fn checkout_commit(dir: &Path) -> Option<String> {
    let mut git = dir
        .ancestors()
        .map(|d| d.join(".git"))
        .find(|g| g.exists())?;
    if git.is_file() {
        let link = std::fs::read_to_string(&git).ok()?;
        git = git
            .parent()?
            .join(link.trim().strip_prefix("gitdir:")?.trim());
    }
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref:").map(str::trim) else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, reference) = line.split_once(' ')?;
        (reference == name).then(|| id.to_string())
    })
}

/// Write `"key": value` pairs indented one level inside an object whose
/// opening brace is already emitted.
fn push_entries(out: &mut String, entries: impl Iterator<Item = (String, String)>) {
    let mut first = true;
    for (k, v) in entries {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        out.push_str(&format!("    \"{}\": {}", escape(&k), v));
    }
    if !first {
        out.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `HEAD` resolves detached, through a loose ref, through
    /// `packed-refs` and through a worktree's `.git` file; a directory
    /// outside any checkout has no commit.
    #[test]
    fn checkout_commit_follows_head() {
        let root = std::env::temp_dir().join(format!("saccs-obs-git-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (repo, git) = (root.join("repo"), root.join("repo/.git"));
        let nested = repo.join("target/ci/run");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        std::fs::create_dir_all(&nested).unwrap();
        let write = |path: &Path, text: &str| std::fs::write(path, text).unwrap();
        write(&git.join("HEAD"), "ref: refs/heads/main\n");
        write(
            &git.join("packed-refs"),
            "# pack-refs\nabc123 refs/heads/main\n",
        );
        assert_eq!(checkout_commit(&nested).as_deref(), Some("abc123"));
        write(&git.join("refs/heads/main"), "def456\n");
        assert_eq!(checkout_commit(&nested).as_deref(), Some("def456"));
        write(&git.join("HEAD"), "0123abcd\n");
        assert_eq!(checkout_commit(&repo).as_deref(), Some("0123abcd"));
        let linked = root.join("linked");
        std::fs::create_dir_all(&linked).unwrap();
        write(&linked.join(".git"), "gitdir: ../repo/.git\n");
        assert_eq!(checkout_commit(&linked).as_deref(), Some("0123abcd"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn number_maps_nonfinite_to_null() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn snapshot_has_required_top_level_keys() {
        registry().counter("json.test.counter").inc();
        registry().histogram("json.test.hist").record(42);
        let doc = bench_snapshot("unit", &[("ndcg", 0.5)]);
        for key in [
            "\"schema\"",
            "\"bin\"",
            "\"host\"",
            "\"headline\"",
            "\"counters\"",
            "\"gauges\"",
            "\"histograms\"",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
        assert!(doc.contains("\"json.test.counter\": 1"));
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        assert!(doc.contains(&format!("\"host\": {{\"cores\": {cores}, \"commit\": \"")));
        assert!(doc.contains("\"p50_ns\": 42"));
        // Balanced braces ⇒ at least structurally plausible JSON; the
        // real parse check lives in `xtask check-bench`.
        assert_eq!(
            doc.matches('{').count(),
            doc.matches('}').count(),
            "unbalanced braces: {doc}"
        );
    }
}
