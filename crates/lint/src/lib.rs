//! # chopim-lint
//!
//! A workspace static analyzer that proves, at compile-review time, the
//! invariants the lockstep suites otherwise only catch dynamically:
//!
//! * **determinism** — no unordered-container iteration, wall-clock
//!   time, thread identity, pointer values, or order-sensitive float
//!   folds on any path that feeds `SimReport`;
//! * **boundary** — shard-side files never name front-end-owned types
//!   or modules and vice versa; all cross-boundary traffic goes through
//!   the typed messages in `exchange.rs`;
//! * **coldpath** — codec/snapshot/trace/fault fns carry `#[cold]` so
//!   their bodies stay out of the fast loop's layout;
//! * **unsafe** — every crate root carries `#![forbid(unsafe_code)]`.
//!
//! Findings are suppressible per line with
//! `// chopim-lint: allow(<pass>) -- <reason>` — the reason is
//! mandatory, unknown pass names are rejected, and suppressions that
//! match no finding are themselves findings (no stale allows). See
//! `docs/LINTS.md` for the full contract.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod passes;
pub mod scan;

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use scan::ScannedFile;

/// All pass names, as accepted inside `allow(...)`.
pub const PASSES: [&str; 4] = ["determinism", "boundary", "coldpath", "unsafe"];

/// One finding, anchored to a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// Emitting pass (or `"lint"` for directive problems).
    pub pass: &'static str,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.pass, self.msg
        )
    }
}

/// A scanned workspace ready to analyze.
#[derive(Debug)]
pub struct Workspace {
    /// Scanned files, in load order.
    pub files: Vec<ScannedFile>,
}

impl Workspace {
    /// Build a workspace from in-memory `(path, source)` pairs (the
    /// fixture tests and the mutation tests use this).
    pub fn from_sources(sources: &[(&str, &str)]) -> Self {
        Self {
            files: sources.iter().map(|(p, s)| scan::scan(p, s)).collect(),
        }
    }

    /// Load every `crates/*/src/**/*.rs` file under `root`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn load(root: &Path) -> io::Result<Self> {
        let mut files = Vec::new();
        let crates_dir = root.join("crates");
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            // The analyzer's own sources document the directive grammar
            // in prose (doc comments quoting `chopim-lint: allow(...)`),
            // which a self-scan would misread as malformed directives;
            // it is meta-tooling, not simulation code.
            if dir.file_name().is_some_and(|n| n == "lint") {
                continue;
            }
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, root, &mut files)?;
            }
        }
        Ok(Self { files })
    }

    /// Run every pass and apply suppressions; returns the surviving
    /// diagnostics sorted by `(file, line, pass)`.
    pub fn run(&self) -> Vec<Diagnostic> {
        let mut raw = Vec::new();
        raw.extend(passes::determinism(&self.files));
        raw.extend(passes::boundary(&self.files));
        raw.extend(passes::coldpath(&self.files));
        raw.extend(passes::forbid_unsafe(&self.files));

        let mut out = Vec::new();
        // Per-file suppression accounting.
        for f in &self.files {
            // Lines a directive at line L covers: L itself and the next
            // line holding any code token (so the comment can sit on
            // the flagged line or directly above it).
            let mut covers: Vec<(usize, u32)> = Vec::new(); // (directive, covered line)
            for (di, d) in f.directives.iter().enumerate() {
                if !d.well_formed {
                    out.push(Diagnostic {
                        file: f.path.clone(),
                        line: d.line,
                        pass: "lint",
                        msg: "malformed chopim-lint directive: expected \
                              `chopim-lint: allow(<pass>) -- <reason>`"
                            .to_string(),
                    });
                    continue;
                }
                for p in &d.passes {
                    if !PASSES.contains(&p.as_str()) {
                        out.push(Diagnostic {
                            file: f.path.clone(),
                            line: d.line,
                            pass: "lint",
                            msg: format!("unknown pass `{p}` in chopim-lint allow"),
                        });
                    }
                }
                if d.reason.is_empty() {
                    out.push(Diagnostic {
                        file: f.path.clone(),
                        line: d.line,
                        pass: "lint",
                        msg: "suppression without a reason: every allow must carry \
                              `-- <why this is sound>`"
                            .to_string(),
                    });
                    continue;
                }
                covers.push((di, d.line));
                if let Some(next) = f.toks.iter().map(|t| t.line).find(|&l| l > d.line) {
                    covers.push((di, next));
                }
            }
            let mut used = vec![false; f.directives.len()];
            for diag in raw.iter().filter(|d| d.file == f.path) {
                let suppressed = covers.iter().any(|&(di, l)| {
                    l == diag.line && f.directives[di].passes.iter().any(|p| p == diag.pass)
                });
                if suppressed {
                    for &(di, l) in &covers {
                        if l == diag.line && f.directives[di].passes.iter().any(|p| p == diag.pass)
                        {
                            used[di] = true;
                        }
                    }
                } else {
                    out.push(diag.clone());
                }
            }
            for (di, d) in f.directives.iter().enumerate() {
                if d.well_formed && !d.reason.is_empty() && !used[di] {
                    out.push(Diagnostic {
                        file: f.path.clone(),
                        line: d.line,
                        pass: "lint",
                        msg: format!(
                            "unused suppression: allow({}) matches no finding on this or \
                             the next line — delete it",
                            d.passes.join(", ")
                        ),
                    });
                }
            }
        }
        // Findings in files the workspace does not contain cannot
        // happen (passes only look at loaded files), so `out` is
        // complete; sort for stable presentation.
        out.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.pass).cmp(&(b.file.as_str(), b.line, b.pass))
        });
        out
    }
}

/// Recursively collect `.rs` files under `dir`, paths made
/// `root`-relative with `/` separators.
fn collect_rs(dir: &Path, root: &Path, files: &mut Vec<ScannedFile>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(scan::scan(&rel, &src));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_binds_to_same_and_next_line() {
        let ws = Workspace::from_sources(&[(
            "crates/core/src/foo.rs",
            "// chopim-lint: allow(determinism) -- keyed lookups only\n\
             fn f() { let m: HashMap<u32, u32> = make(); }\n",
        )]);
        assert!(ws.run().is_empty());
    }

    #[test]
    fn suppression_without_reason_fails() {
        let ws = Workspace::from_sources(&[(
            "crates/core/src/foo.rs",
            "fn f() { let m: HashMap<u32, u32> = make(); } // chopim-lint: allow(determinism)\n",
        )]);
        let diags = ws.run();
        assert!(diags.iter().any(|d| d.msg.contains("without a reason")));
    }

    #[test]
    fn unused_suppression_is_a_finding() {
        let ws = Workspace::from_sources(&[(
            "crates/core/src/foo.rs",
            "// chopim-lint: allow(determinism) -- nothing here\nfn f() {}\n",
        )]);
        let diags = ws.run();
        assert_eq!(diags.len(), 1);
        assert!(diags[0].msg.contains("unused suppression"));
    }

    #[test]
    fn unknown_pass_is_a_finding() {
        let ws = Workspace::from_sources(&[(
            "crates/core/src/foo.rs",
            "// chopim-lint: allow(speling) -- oops\nfn f() { let m = HashMap::new(); }\n",
        )]);
        let diags = ws.run();
        assert!(diags.iter().any(|d| d.msg.contains("unknown pass")));
    }
}
