//! Workspace lint driver: `cargo run -p xtask -- check`.
//!
//! `check` runs every repo-specific correctness pass (see `lints/`):
//! the hygiene rules and the determinism/concurrency analyses that guard
//! bitwise-identical rankings. It scans every `.rs` file in
//! `crates/*/src` and the root `src/`, honours inline
//! `// lint:allow(<id>): reason` waivers, and exits non-zero if any
//! unwaived violation remains. Passes match on a real token stream (see
//! `scan.rs`), so patterns inside strings and comments can never fire.
//! `cargo clippy` handles general Rust style; this driver enforces the
//! rules specific to a deterministic serving-path search stack.
//! `check-bench` and `check-report` validate the JSON documents the
//! bench bins write.

mod benchjson;
mod lints;
mod reportjson;
mod scan;

use lints::{all_lints, waivers_for};
use scan::{rust_files, SourceFile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Checks one JSON document's syntax, envelope and per-section shape,
/// returning one line per problem found.
type Validator = fn(&str) -> Vec<String>;

/// The `check-*` subcommands: name, the document argument in the usage
/// line, and its validator. `check-bench` takes a `BENCH_<bin>.json`
/// snapshot a bench bin wrote under `SACCS_OBS=json`, `check-report` a
/// flight-recorder report dumped by the chaos bench.
const JSON_CHECKS: [(&str, &str, Validator); 2] = [
    ("check-bench", "BENCH_<bin>.json", benchjson::validate),
    ("check-report", "REPORT.json", reportjson::validate),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str);
    if let Some(&(name, doc, validate)) = JSON_CHECKS.iter().find(|c| Some(c.0) == command) {
        return match args.get(1) {
            Some(path) => check_json(name, path, validate),
            None => {
                eprintln!("usage: cargo run -p xtask -- {name} {doc}");
                ExitCode::from(2)
            }
        };
    }
    match command {
        Some("check") => check(),
        _ => {
            eprintln!("usage: cargo run -p xtask -- check");
            for (name, doc, _) in JSON_CHECKS {
                eprintln!("       cargo run -p xtask -- {name} {doc}");
            }
            eprintln!();
            eprintln!("check passes:");
            for lint in all_lints() {
                eprintln!("  {}", lint.id());
            }
            ExitCode::from(2)
        }
    }
}

/// Read the JSON document at `path` and validate it, printing
/// `xtask <name>: <path> ok` or one line per problem found.
fn check_json(name: &str, path: &str, validate: Validator) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask {name}: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let problems = validate(&text);
    if problems.is_empty() {
        println!("xtask {name}: {path} ok");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("xtask {name}: {path}: {p}");
        }
        ExitCode::FAILURE
    }
}

fn check() -> ExitCode {
    let root = workspace_root();
    let lints = all_lints();
    let mut files_scanned = 0usize;
    let mut reported: Vec<String> = Vec::new();
    let mut waived = 0usize;

    for rel in workspace_sources(&root) {
        let file = match SourceFile::read(&root, &rel) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("xtask: cannot read {rel}: {e}");
                return ExitCode::from(2);
            }
        };
        files_scanned += 1;
        for lint in &lints {
            if !lint.applies(&rel) {
                continue;
            }
            for v in lint.run(&file) {
                if waivers_for(&file, v.line - 1).iter().any(|id| id == v.lint) {
                    waived += 1;
                } else {
                    reported.push(format!("{}:{}: [{}] {}", v.path, v.line, v.lint, v.message));
                }
            }
        }
    }

    for line in &reported {
        println!("{line}");
    }
    println!(
        "xtask check: {} files, {} passes, {} violation(s), {} waived inline",
        files_scanned,
        lints.len(),
        reported.len(),
        waived
    );
    if reported.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// All workspace-relative scan targets: `crates/*/src` (except this
/// driver, whose sources contain the patterns as data) and the root
/// package's `src/`. `vendor/` stand-ins, tests, examples and benches
/// are out of scope.
fn workspace_sources(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "xtask"))
            .collect();
        dirs.sort();
        for d in dirs {
            out.extend(rust_files(root, &d.join("src")));
        }
    }
    out.extend(rust_files(root, &root.join("src")));
    out
}

fn workspace_root() -> PathBuf {
    // crates/xtask/ -> workspace root is two levels up.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    Path::new(&manifest)
        .ancestors()
        .nth(2)
        .unwrap_or(Path::new("."))
        .to_path_buf()
}
