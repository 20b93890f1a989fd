//! Repository-invariant linter, `cargo run -p xtask -- lint`, and the
//! code-line count the ROADMAP quotes, `cargo run -p xtask -- loc`.
//!
//! Machine-checks the invariants the codebase otherwise enforces only
//! by reviewer memory. Six checks, each with a test fixture proving it
//! fires on a seeded violation:
//!
//! 1. **hot-path-alloc** — no allocation calls (`Vec::new`, `vec!`,
//!    `.to_vec()`, `.collect()`, `Box::new`) inside the designated
//!    CMUX/blind-rotate, FFT-kernel, monomial-tile, key-product,
//!    seeded-expansion and keyswitch row-walk regions, delimited in-source by
//!    `// lint:hot-path-start` / `// lint:hot-path-end` markers.
//! 2. **panic** — no `.unwrap()` / `.expect(` / `panic!` / `todo!` /
//!    `unimplemented!` / `unreachable!` in non-test `runtime`, `tfhe`
//!    and `fft` library code. Genuinely unreachable uses carry a
//!    `// lint:allow(panic) <reason>` comment on the same or the
//!    immediately preceding line.
//! 3. **serde-default** — struct fields added to the serde types in
//!    `metrics.rs` / `trace.rs` after the v1 schema baseline must carry
//!    `#[serde(default)]` so old captures keep deserializing.
//! 4. **lint-header** — the workspace lint posture lives in a single
//!    `[workspace.lints]` table in the root `Cargo.toml` (with
//!    `unsafe_code = "deny"` so the SIMD backend tree can opt back in
//!    per-module); every `crates/*` manifest opts in with
//!    `[lints] workspace = true`, and no `lib.rs` re-declares the old
//!    inline headers.
//! 5. **unsafe-hygiene** — the `unsafe` keyword appears only in
//!    `crates/fft/src/backend/mod.rs` and `backend/avx2.rs` (the SIMD
//!    dispatch and its one explicit tier, where feature-gated
//!    intrinsics make it unavoidable), and every use there is justified
//!    by a `// SAFETY:` comment on the same line or in the comment
//!    block immediately above.
//! 6. **doc-metrics** — every backticked dotted metric name in
//!    `README.md` and `docs/ARCHITECTURE.md` (a span starting with a
//!    benchmark layer prefix such as `fft.` or `runtime.`, file names
//!    excluded) is declared in `BENCHMARK.json`, so the docs cannot
//!    quote a number the benchmark does not measure.
//!
//! Allow-comments are per-check: `lint:allow(panic)`,
//! `lint:allow(alloc)` and `lint:allow(unsafe)`. The reason text is
//! mandatory by convention and reviewed like any other comment.
//!
//! `loc` prints, for each `crates/*` directory, `tests` and `examples`,
//! the count of non-blank lines in `*.rs` files that do not start with
//! `//` after leading whitespace, plus their total — the rule the
//! ROADMAP's line figures use, so a deletion can be reproduced.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Directories whose `.rs` files are subject to the panic check.
const PANIC_SCAN_ROOTS: &[&str] = &["crates/runtime/src", "crates/tfhe/src", "crates/fft/src"];

/// Panic-token spellings. `.expect(` deliberately does not match
/// `.expect_err(`, and `.unwrap()` does not match `unwrap_or_else`.
const PANIC_TOKENS: &[&str] =
    &[".unwrap()", ".expect(", "panic!", "todo!", "unimplemented!", "unreachable!"];

/// Files that must contain marked hot-path regions.
const HOT_PATH_FILES: &[&str] = &[
    "crates/tfhe/src/bootstrap.rs",
    "crates/tfhe/src/decompose.rs",
    "crates/tfhe/src/glwe.rs",
    "crates/tfhe/src/ggsw.rs",
    "crates/tfhe/src/keyswitch.rs",
    "crates/fft/src/soa.rs",
    "crates/fft/src/negacyclic.rs",
];

/// Allocation-call spellings forbidden inside hot-path regions.
const ALLOC_TOKENS: &[&str] = &["Vec::new", "vec!", ".to_vec()", ".collect()", "Box::new"];

const HOT_PATH_START: &str = "lint:hot-path-start";
const HOT_PATH_END: &str = "lint:hot-path-end";

/// The v1 schema baseline for serde types in `metrics.rs`/`trace.rs`:
/// fields present when the check was introduced. Any field *not* in
/// this list must be `#[serde(default)]` so reports and traces captured
/// by older builds keep deserializing byte-compatibly.
const SERDE_BASELINE: &[(&str, &str, &[&str])] = &[
    (
        "crates/runtime/src/metrics.rs",
        "ClassLatency",
        &[
            "class",
            "completed",
            "failed",
            "mean_queue_wait_us",
            "mean_batch_wait_us",
            "mean_execute_us",
            "mean_latency_us",
        ],
    ),
    (
        "crates/runtime/src/metrics.rs",
        "PbsStageBreakdown",
        &[
            "sampled_epochs",
            "sampled_pbs",
            "modswitch_us",
            "rotate_us",
            "decompose_us",
            "forward_fft_us",
            "vma_us",
            "inverse_fft_us",
            "sample_extract_us",
            "keyswitch_us",
            "linear_ops_us",
        ],
    ),
    (
        "crates/runtime/src/metrics.rs",
        "MetricsWindow",
        &[
            "start_s",
            "duration_s",
            "completed",
            "failed",
            "pbs_completed",
            "epochs",
            "pbs_per_s",
            "mean_occupancy",
            "max_queue_depth",
        ],
    ),
    (
        "crates/runtime/src/metrics.rs",
        "RuntimeReport",
        &[
            "schema_version",
            "requests_completed",
            "requests_failed",
            "fused_linear_completed",
            "epochs",
            "epoch_capacity",
            "p50_latency_us",
            "p90_latency_us",
            "p99_latency_us",
            "max_latency_us",
            "achieved_pbs_per_s",
            "pbs_jobs_classical",
            "pbs_jobs_multi_bit",
            "mean_batch_occupancy",
            "occupancy_histogram",
            "mean_threads_per_epoch",
            "thread_occupancy",
            "max_threads_per_epoch",
            "ingress_queue_depth",
            "ingress_queue_high_water",
            "latency_attribution",
            "pbs_stage_breakdown",
            "windows",
            "elapsed_s",
        ],
    ),
    (
        "crates/runtime/src/trace.rs",
        "ChromeTraceEvent",
        &["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"],
    ),
    ("crates/runtime/src/trace.rs", "ChromeTraceArgs", &["span", "seq", "epoch"]),
];

/// One lint violation.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Finding {
    file: PathBuf,
    line: usize,
    check: &'static str,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.check, self.message)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut cmd = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root needs a path argument");
                    return ExitCode::FAILURE;
                }
            },
            "lint" => cmd = Some("lint"),
            "loc" => cmd = Some("loc"),
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    match cmd {
        Some("lint") => {}
        Some("loc") => {
            for (dir, lines) in code_lines(&root) {
                println!("{dir:<20} {lines:>7}");
            }
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint|loc [--root PATH]");
            return ExitCode::FAILURE;
        }
    }
    let findings = run_lint(&root);
    if findings.is_empty() {
        println!("xtask lint: all invariants hold");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!("xtask lint: {} violation(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// Runs every check against the repository rooted at `root`.
fn run_lint(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(check_hot_path_allocations(root));
    findings.extend(check_panic_tokens(root));
    findings.extend(check_serde_defaults(root));
    findings.extend(check_lint_headers(root));
    findings.extend(check_unsafe_hygiene(root));
    findings.extend(check_doc_metrics(root));
    findings
}

// ---------------------------------------------------------------------------
// Source scanning machinery
// ---------------------------------------------------------------------------

/// One physical source line, raw and with comments/strings blanked.
struct ScanLine {
    /// 1-based line number.
    number: usize,
    /// The raw line, for marker and allow-comment detection.
    raw: String,
    /// The line with comments and string/char literal contents replaced
    /// by spaces, for token matching.
    code: String,
    /// Whether the line sits inside a `#[cfg(test)]` item.
    in_test: bool,
}

/// Prepares a file for token scanning: blanks comments and string
/// literal contents (so doc examples and message strings can't trip
/// token matches) and marks `#[cfg(test)]` regions by brace counting.
fn scan_file(source: &str) -> Vec<ScanLine> {
    let mut lines = Vec::new();
    let mut in_block_comment = false;
    for (i, raw) in source.lines().enumerate() {
        let code = blank_non_code(raw, &mut in_block_comment);
        lines.push(ScanLine { number: i + 1, raw: raw.to_string(), code, in_test: false });
    }
    // Mark #[cfg(test)] items: from the attribute, through the next
    // opening brace, to its matching close.
    let mut idx = 0;
    while idx < lines.len() {
        if lines[idx].code.contains("cfg(test)") || lines[idx].code.contains("cfg(all(test") {
            let mut depth = 0usize;
            let mut opened = false;
            let mut j = idx;
            while j < lines.len() {
                lines[j].in_test = true;
                for c in lines[j].code.clone().chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth = depth.saturating_sub(1),
                        _ => {}
                    }
                }
                if opened && depth == 0 {
                    break;
                }
                j += 1;
            }
            idx = j + 1;
        } else {
            idx += 1;
        }
    }
    lines
}

/// Replaces comments and string/char literal contents with spaces,
/// keeping byte offsets stable. Handles `//` line comments, `/* */`
/// block comments (possibly spanning lines via `in_block_comment`),
/// double-quoted strings with backslash escapes, and character
/// literals (while leaving lifetimes alone).
fn blank_non_code(line: &str, in_block_comment: &mut bool) -> String {
    let bytes: Vec<char> = line.chars().collect();
    let mut out: Vec<char> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if *in_block_comment {
            if bytes[i] == '*' && i + 1 < bytes.len() && bytes[i + 1] == '/' {
                *in_block_comment = false;
                out.push(' ');
                out.push(' ');
                i += 2;
            } else {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        match bytes[i] {
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '/' => {
                // Line comment: blank the rest of the line.
                while i < bytes.len() {
                    out.push(' ');
                    i += 1;
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '*' => {
                *in_block_comment = true;
                out.push(' ');
                out.push(' ');
                i += 2;
            }
            '"' => {
                out.push('"');
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == '\\' && i + 1 < bytes.len() {
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else if bytes[i] == '"' {
                        out.push('"');
                        i += 1;
                        break;
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                }
            }
            '\'' => {
                // Char literal or lifetime. A literal closes within a
                // couple of characters; a lifetime never closes.
                if i + 2 < bytes.len() && bytes[i + 1] == '\\' {
                    let close = (i + 2..bytes.len().min(i + 6)).find(|&j| bytes[j] == '\'');
                    if let Some(c) = close {
                        out.push('\'');
                        out.extend(std::iter::repeat_n(' ', c - i - 1));
                        out.push('\'');
                        i = c + 1;
                    } else {
                        out.push(bytes[i]);
                        i += 1;
                    }
                } else if i + 2 < bytes.len() && bytes[i + 2] == '\'' {
                    out.push('\'');
                    out.push(' ');
                    out.push('\'');
                    i += 3;
                } else {
                    out.push(bytes[i]);
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    out.into_iter().collect()
}

/// Whether line `idx` carries (or inherits from the previous line) an
/// allow-comment for `check` (e.g. `lint:allow(panic)`).
fn allowed(lines: &[ScanLine], idx: usize, check: &str) -> bool {
    let tag = format!("lint:allow({check})");
    if lines[idx].raw.contains(&tag) {
        return true;
    }
    idx > 0 && lines[idx - 1].raw.contains(&tag)
}

/// Collects every `.rs` file under `dir`, recursively, sorted for
/// deterministic output.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

// ---------------------------------------------------------------------------
// Check 1: hot-path allocations
// ---------------------------------------------------------------------------

fn check_hot_path_allocations(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rel in HOT_PATH_FILES {
        let path = root.join(rel);
        let Ok(source) = fs::read_to_string(&path) else {
            findings.push(Finding {
                file: path,
                line: 0,
                check: "hot-path-alloc",
                message: "designated hot-path file is missing".into(),
            });
            continue;
        };
        let lines = scan_file(&source);
        let mut in_region = false;
        let mut region_count = 0usize;
        for (idx, line) in lines.iter().enumerate() {
            if line.raw.contains(HOT_PATH_START) {
                in_region = true;
                region_count += 1;
                continue;
            }
            if line.raw.contains(HOT_PATH_END) {
                in_region = false;
                continue;
            }
            if !in_region || line.in_test {
                continue;
            }
            for token in ALLOC_TOKENS {
                if line.code.contains(token) && !allowed(&lines, idx, "alloc") {
                    findings.push(Finding {
                        file: path.clone(),
                        line: line.number,
                        check: "hot-path-alloc",
                        message: format!("allocation call `{token}` inside a hot-path region"),
                    });
                }
            }
        }
        if region_count == 0 {
            findings.push(Finding {
                file: path.clone(),
                line: 0,
                check: "hot-path-alloc",
                message: format!(
                    "no `{HOT_PATH_START}` region markers — the designated hot path is unguarded"
                ),
            });
        }
        if in_region {
            findings.push(Finding {
                file: path,
                line: 0,
                check: "hot-path-alloc",
                message: format!("unbalanced region markers: missing `{HOT_PATH_END}`"),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Check 2: panic tokens on the service path
// ---------------------------------------------------------------------------

fn check_panic_tokens(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for scan_root in PANIC_SCAN_ROOTS {
        for path in rust_files(&root.join(scan_root)) {
            let Ok(source) = fs::read_to_string(&path) else { continue };
            let lines = scan_file(&source);
            for (idx, line) in lines.iter().enumerate() {
                if line.in_test {
                    continue;
                }
                for token in PANIC_TOKENS {
                    if line.code.contains(token) && !allowed(&lines, idx, "panic") {
                        findings.push(Finding {
                            file: path.clone(),
                            line: line.number,
                            check: "panic",
                            message: format!("`{token}` in non-test service code"),
                        });
                    }
                }
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Check 3: serde schema evolution
// ---------------------------------------------------------------------------

fn check_serde_defaults(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (rel, struct_name, baseline) in SERDE_BASELINE {
        let path = root.join(rel);
        let Ok(source) = fs::read_to_string(&path) else {
            findings.push(Finding {
                file: path,
                line: 0,
                check: "serde-default",
                message: format!("file with baselined struct `{struct_name}` is missing"),
            });
            continue;
        };
        findings.extend(check_struct_fields(&path, &source, struct_name, baseline));
    }
    findings
}

/// Finds `struct_name` in `source` and reports fields outside
/// `baseline` that lack `#[serde(default)]`.
fn check_struct_fields(
    path: &Path,
    source: &str,
    struct_name: &str,
    baseline: &[&str],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let lines: Vec<&str> = source.lines().collect();
    let header = format!("struct {struct_name} ");
    let header_brace = format!("struct {struct_name} {{");
    let Some(start) = lines.iter().position(|l| {
        l.contains(header_brace.as_str()) || l.trim_end().ends_with(header.trim_end())
    }) else {
        findings.push(Finding {
            file: path.to_path_buf(),
            line: 0,
            check: "serde-default",
            message: format!("baselined struct `{struct_name}` not found (baseline stale?)"),
        });
        return findings;
    };
    let mut has_default = false;
    for (offset, raw) in lines[start + 1..].iter().enumerate() {
        let line_no = start + 2 + offset;
        let trimmed = raw.trim();
        if trimmed.starts_with('}') {
            break;
        }
        if trimmed.starts_with("#[") {
            if trimmed.contains("serde(default") {
                has_default = true;
            }
            continue;
        }
        if trimmed.starts_with("//") || trimmed.is_empty() {
            continue;
        }
        let Some(field) = field_name(trimmed) else {
            has_default = false;
            continue;
        };
        if !baseline.contains(&field) && !has_default {
            findings.push(Finding {
                file: path.to_path_buf(),
                line: line_no,
                check: "serde-default",
                message: format!(
                    "field `{struct_name}.{field}` is newer than the v1 schema baseline but \
                     lacks #[serde(default)]"
                ),
            });
        }
        has_default = false;
    }
    findings
}

/// Extracts the field name from a `pub name: Type,` line.
fn field_name(trimmed: &str) -> Option<&str> {
    let rest = trimmed.strip_prefix("pub ")?;
    let colon = rest.find(':')?;
    let name = rest[..colon].trim();
    (!name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'))
        .then_some(name)
}

// ---------------------------------------------------------------------------
// Check 4: workspace lint-header single source of truth
// ---------------------------------------------------------------------------

fn check_lint_headers(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let root_manifest = root.join("Cargo.toml");
    match fs::read_to_string(&root_manifest) {
        Ok(s) => {
            if !s.contains("[workspace.lints.rust]")
                || !s.contains("unsafe_code = \"deny\"")
                || !s.contains("missing_docs = \"warn\"")
            {
                findings.push(Finding {
                    file: root_manifest.clone(),
                    line: 0,
                    check: "lint-header",
                    message: "root Cargo.toml must declare [workspace.lints.rust] with \
                              unsafe_code = \"deny\" (deny, not forbid, so the kernel-backend \
                              modules can `#![allow(unsafe_code)]`) and missing_docs = \"warn\""
                        .into(),
                });
            }
        }
        Err(_) => findings.push(Finding {
            file: root_manifest.clone(),
            line: 0,
            check: "lint-header",
            message: "root Cargo.toml is missing".into(),
        }),
    }
    let crates_dir = root.join("crates");
    let Ok(entries) = fs::read_dir(&crates_dir) else {
        findings.push(Finding {
            file: crates_dir,
            line: 0,
            check: "lint-header",
            message: "crates/ directory is missing".into(),
        });
        return findings;
    };
    let mut members: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
        .collect();
    members.sort();
    for member in members {
        let manifest = member.join("Cargo.toml");
        if let Ok(s) = fs::read_to_string(&manifest) {
            let opted_in = s
                .split("[lints]")
                .nth(1)
                .is_some_and(|tail| tail.trim_start().starts_with("workspace = true"));
            if !opted_in {
                findings.push(Finding {
                    file: manifest,
                    line: 0,
                    check: "lint-header",
                    message: "member crate does not opt into [lints] workspace = true".into(),
                });
            }
        }
        let lib = member.join("src/lib.rs");
        if let Ok(s) = fs::read_to_string(&lib) {
            for (i, raw) in s.lines().enumerate() {
                let t = raw.trim();
                if t == "#![forbid(unsafe_code)]"
                    || t == "#![deny(unsafe_code)]"
                    || t == "#![warn(missing_docs)]"
                {
                    findings.push(Finding {
                        file: lib.clone(),
                        line: i + 1,
                        check: "lint-header",
                        message: format!(
                            "inline `{t}` duplicates the [workspace.lints] table — remove it"
                        ),
                    });
                }
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Check 5: unsafe-code hygiene
// ---------------------------------------------------------------------------

/// The only files allowed to contain `unsafe` code: the SIMD dispatch
/// and its one explicit tier, where feature-gated intrinsics make it
/// unavoidable. A new file under `backend/` must be added here first.
const UNSAFE_ALLOWED_FILES: &[&str] =
    &["crates/fft/src/backend/mod.rs", "crates/fft/src/backend/avx2.rs"];

/// Whether `code` contains the `unsafe` keyword. Word-boundary match,
/// so identifiers like `unsafe_code` (in an `allow` attribute) do not
/// trip it; `code` has comments and strings already blanked.
fn has_unsafe_keyword(code: &str) -> bool {
    let bytes = code.as_bytes();
    let boundary = |b: u8| !(b.is_ascii_alphanumeric() || b == b'_');
    let mut from = 0;
    while let Some(pos) = code[from..].find("unsafe") {
        let i = from + pos;
        let end = i + "unsafe".len();
        if (i == 0 || boundary(bytes[i - 1])) && (end == bytes.len() || boundary(bytes[end])) {
            return true;
        }
        from = i + 1;
    }
    false
}

/// Whether the `unsafe` at line `idx` is justified by a `// SAFETY:`
/// comment — trailing on the same line, or anywhere in the contiguous
/// run of comment/attribute lines immediately above it (a SAFETY
/// comment may span lines, and a `#[cfg]` may sit between it and the
/// match arm it covers).
fn has_safety_comment(lines: &[ScanLine], idx: usize) -> bool {
    if lines[idx].raw.contains("SAFETY:") {
        return true;
    }
    for line in lines[..idx].iter().rev() {
        let t = line.raw.trim();
        if t.starts_with("//") {
            if t.contains("SAFETY:") {
                return true;
            }
        } else if !t.starts_with("#[") {
            return false;
        }
    }
    false
}

fn check_unsafe_hygiene(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    // The linter itself is exempt: its fixtures must be able to spell
    // violations in string literals (which the line-oriented blanker
    // cannot track across `\n\` continuations). The workspace-level
    // `unsafe_code = "deny"` lint still covers xtask at compile time.
    let linter_dir = root.join("crates/xtask");
    for path in rust_files(&root.join("crates")) {
        if path.starts_with(&linter_dir) {
            continue;
        }
        let Ok(source) = fs::read_to_string(&path) else { continue };
        let lines = scan_file(&source);
        let in_backend = UNSAFE_ALLOWED_FILES.iter().any(|f| path == root.join(f));
        for (idx, line) in lines.iter().enumerate() {
            if !has_unsafe_keyword(&line.code) || allowed(&lines, idx, "unsafe") {
                continue;
            }
            if !in_backend {
                findings.push(Finding {
                    file: path.clone(),
                    line: line.number,
                    check: "unsafe-hygiene",
                    message: format!(
                        "`unsafe` outside the kernel-backend tree's allowed files ({})",
                        UNSAFE_ALLOWED_FILES.join(", ")
                    ),
                });
            } else if !has_safety_comment(&lines, idx) {
                findings.push(Finding {
                    file: path.clone(),
                    line: line.number,
                    check: "unsafe-hygiene",
                    message: "`unsafe` in a backend module without a preceding `// SAFETY:` \
                              comment"
                        .into(),
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Check 6: metric names quoted by the docs are declared by the benchmark
// ---------------------------------------------------------------------------

/// Docs whose backticked metric names must be declared in `BENCHMARK.json`.
const DOC_METRIC_FILES: &[&str] = &["README.md", "docs/ARCHITECTURE.md"];

/// Layer prefixes of the benchmark's dotted metric names.
const METRIC_PREFIXES: &[&str] =
    &["fft.", "tfhe.", "runtime.", "host.", "core.", "bench.", "workloads."];

/// Extensions that make a dotted span a file name rather than a metric.
const FILE_SUFFIXES: &[&str] = &[".rs", ".json", ".md", ".toml"];

/// Every `"name": "…"` value in `BENCHMARK.json`, read as plain text
/// (the linter has no dependencies). A missing file declares nothing.
fn declared_metric_names(root: &Path) -> Vec<String> {
    let text = fs::read_to_string(root.join("BENCHMARK.json")).unwrap_or_default();
    text.split("\"name\"")
        .skip(1)
        .filter_map(|rest| {
            let rest = rest.trim_start().strip_prefix(':')?.trim_start().strip_prefix('"')?;
            Some(rest[..rest.find('"')?].to_string())
        })
        .collect()
}

/// A dotted name under a benchmark layer prefix; a bare or partial
/// prefix (`fft.`, `tfhe.classical.`) names no metric.
fn is_metric_name(span: &str) -> bool {
    METRIC_PREFIXES.iter().any(|p| span.starts_with(p))
        && !span.ends_with('.')
        && !FILE_SUFFIXES.iter().any(|s| span.ends_with(s))
        && span.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_.".contains(c))
}

/// The inline code spans of a markdown text, each with the line it
/// opens on. Fenced blocks are skipped; a span may wrap onto the next
/// line of its paragraph (the break reads as a space).
fn inline_code_spans(text: &str) -> Vec<(usize, String)> {
    let mut spans = Vec::new();
    let mut open: Option<(usize, String)> = None;
    let mut in_fence = false;
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            open = None;
            continue;
        }
        if in_fence || line.trim().is_empty() {
            open = None;
            continue;
        }
        if let Some((_, span)) = &mut open {
            span.push(' ');
        }
        for c in line.chars() {
            match (c, open.take()) {
                ('`', None) => open = Some((i + 1, String::new())),
                ('`', Some(span)) => spans.push(span),
                (c, Some((at, mut span))) => {
                    span.push(c);
                    open = Some((at, span));
                }
                (_, None) => {}
            }
        }
    }
    spans
}

fn check_doc_metrics(root: &Path) -> Vec<Finding> {
    let declared = declared_metric_names(root);
    let mut findings = Vec::new();
    for rel in DOC_METRIC_FILES {
        let path = root.join(rel);
        let Ok(text) = fs::read_to_string(&path) else { continue };
        for (line, span) in inline_code_spans(&text) {
            if is_metric_name(&span) && !declared.contains(&span) {
                findings.push(Finding {
                    file: path.clone(),
                    line,
                    check: "doc-metrics",
                    message: format!("`{span}` is not a metric declared in BENCHMARK.json"),
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// loc: code lines per directory
// ---------------------------------------------------------------------------

/// Code lines of one file: non-blank lines that do not start with `//`
/// once leading whitespace is trimmed.
fn count_code_lines(source: &str) -> usize {
    source
        .lines()
        .map(str::trim_start)
        .filter(|line| !line.is_empty() && !line.starts_with("//"))
        .count()
}

/// Code lines under each `crates/*` directory (sorted), `tests` and
/// `examples`, then a `total` row.
fn code_lines(root: &Path) -> Vec<(String, usize)> {
    let mut dirs: Vec<String> = fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .filter(|entry| entry.path().is_dir())
        .map(|entry| format!("crates/{}", entry.file_name().to_string_lossy()))
        .collect();
    dirs.sort();
    dirs.extend(["tests".to_string(), "examples".to_string()]);
    let mut rows: Vec<(String, usize)> = dirs
        .into_iter()
        .map(|dir| {
            let lines = rust_files(&root.join(&dir))
                .iter()
                .map(|f| fs::read_to_string(f).map_or(0, |s| count_code_lines(&s)))
                .sum();
            (dir, lines)
        })
        .collect();
    let total = rows.iter().map(|(_, n)| n).sum();
    rows.push(("total".to_string(), total));
    rows
}

// ---------------------------------------------------------------------------
// Fixture tests: each check must fire on a seeded violation and stay
// quiet when the allow-syntax or the invariant itself is honoured.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// A throw-away tree under the target dir, deleted on drop.
    struct Fixture {
        root: PathBuf,
    }

    impl Fixture {
        fn new(name: &str) -> Self {
            let root =
                std::env::temp_dir().join(format!("xtask-fixture-{}-{name}", std::process::id()));
            let _ = fs::remove_dir_all(&root);
            fs::create_dir_all(&root).expect("create fixture root");
            Self { root }
        }

        fn write(&self, rel: &str, contents: &str) {
            let path = self.root.join(rel);
            fs::create_dir_all(path.parent().expect("fixture paths have parents"))
                .expect("create fixture dirs");
            fs::write(path, contents).expect("write fixture file");
        }

        /// Seeds the minimal tree every check accepts, so a test can
        /// perturb exactly one invariant.
        fn write_clean_tree(&self) {
            self.write(
                "Cargo.toml",
                "[workspace]\n[workspace.lints.rust]\nunsafe_code = \"deny\"\n\
                 missing_docs = \"warn\"\n",
            );
            for krate in ["runtime", "tfhe", "fft"] {
                self.write(
                    &format!("crates/{krate}/Cargo.toml"),
                    "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n",
                );
                self.write(&format!("crates/{krate}/src/lib.rs"), "//! Docs.\n");
            }
            self.write(
                "crates/tfhe/src/bootstrap.rs",
                "// lint:hot-path-start\nfn rotate() {}\n// lint:hot-path-end\n",
            );
            self.write(
                "crates/tfhe/src/decompose.rs",
                "// lint:hot-path-start\nfn stage() {}\n// lint:hot-path-end\n",
            );
            self.write(
                "crates/tfhe/src/glwe.rs",
                "// lint:hot-path-start\nfn product() {}\n// lint:hot-path-end\n",
            );
            self.write(
                "crates/tfhe/src/ggsw.rs",
                "// lint:hot-path-start\nfn expand() {}\n// lint:hot-path-end\n",
            );
            self.write(
                "crates/tfhe/src/keyswitch.rs",
                "// lint:hot-path-start\nfn walk() {}\n// lint:hot-path-end\n",
            );
            self.write(
                "crates/fft/src/soa.rs",
                "// lint:hot-path-start\nfn kernel() {}\n// lint:hot-path-end\n",
            );
            self.write(
                "crates/fft/src/negacyclic.rs",
                "// lint:hot-path-start\nfn tile() {}\n// lint:hot-path-end\n",
            );
            self.write(
                "crates/runtime/src/metrics.rs",
                metrics_fixture(&[], &[], &[], &[]).as_str(),
            );
            self.write(
                "crates/runtime/src/trace.rs",
                "pub struct ChromeTraceEvent {\n    pub name: String,\n    pub cat: String,\n\
                 \x20   pub ph: String,\n    pub ts: u64,\n    pub dur: u64,\n    pub pid: u64,\n\
                 \x20   pub tid: u64,\n    pub args: ChromeTraceArgs,\n}\n\
                 pub struct ChromeTraceArgs {\n    pub span: u64,\n    pub seq: u64,\n\
                 \x20   pub epoch: Option<u64>,\n}\n",
            );
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.root);
        }
    }

    /// Renders a metrics.rs stand-in whose four baselined structs carry
    /// the full baseline field set plus the given extra field lines.
    fn metrics_fixture(
        class_extra: &[&str],
        stage_extra: &[&str],
        window_extra: &[&str],
        report_extra: &[&str],
    ) -> String {
        let mut out = String::new();
        let extras = [class_extra, stage_extra, window_extra, report_extra];
        for ((_, name, fields), extra) in
            SERDE_BASELINE.iter().filter(|(rel, _, _)| rel.ends_with("metrics.rs")).zip(extras)
        {
            out.push_str(&format!("pub struct {name} {{\n"));
            for f in fields.iter() {
                out.push_str(&format!("    pub {f}: u64,\n"));
            }
            for line in extra.iter() {
                out.push_str(line);
                out.push('\n');
            }
            out.push_str("}\n");
        }
        out
    }

    fn findings_for(fix: &Fixture, check: &str) -> Vec<Finding> {
        run_lint(&fix.root).into_iter().filter(|f| f.check == check).collect()
    }

    #[test]
    fn clean_tree_passes_every_check() {
        let fix = Fixture::new("clean");
        fix.write_clean_tree();
        let findings = run_lint(&fix.root);
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }

    #[test]
    fn hot_path_allocation_is_flagged() {
        let fix = Fixture::new("hot-alloc");
        fix.write_clean_tree();
        fix.write(
            "crates/fft/src/soa.rs",
            "// lint:hot-path-start\nfn kernel() { let v = Vec::new(); let _ = v; }\n\
             // lint:hot-path-end\n",
        );
        let findings = findings_for(&fix, "hot-path-alloc");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("Vec::new"));
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn hot_path_alloc_allow_comment_suppresses() {
        let fix = Fixture::new("hot-alloc-allow");
        fix.write_clean_tree();
        fix.write(
            "crates/fft/src/soa.rs",
            "// lint:hot-path-start\n// lint:allow(alloc) cold setup branch\n\
             fn kernel() { let v = Vec::new(); let _ = v; }\n// lint:hot-path-end\n",
        );
        assert!(findings_for(&fix, "hot-path-alloc").is_empty());
    }

    #[test]
    fn missing_hot_path_markers_are_flagged() {
        let fix = Fixture::new("hot-markers");
        fix.write_clean_tree();
        fix.write("crates/fft/src/soa.rs", "fn kernel() {}\n");
        let findings = findings_for(&fix, "hot-path-alloc");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("unguarded"));
    }

    #[test]
    fn hot_path_allocations_in_tests_are_fine() {
        let fix = Fixture::new("hot-test");
        fix.write_clean_tree();
        fix.write(
            "crates/fft/src/soa.rs",
            "// lint:hot-path-start\nfn kernel() {}\n#[cfg(test)]\nmod tests {\n\
             \x20   fn t() { let v = Vec::new(); let _ = v; }\n}\n// lint:hot-path-end\n",
        );
        assert!(findings_for(&fix, "hot-path-alloc").is_empty());
    }

    #[test]
    fn panic_tokens_are_flagged_outside_tests() {
        let fix = Fixture::new("panic");
        fix.write_clean_tree();
        fix.write(
            "crates/runtime/src/queue.rs",
            "fn pop() { None::<u8>.unwrap(); }\n#[cfg(test)]\nmod tests {\n\
             \x20   fn t() { None::<u8>.unwrap(); }\n}\n",
        );
        let findings = findings_for(&fix, "panic");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn panic_allow_comment_suppresses_same_and_previous_line() {
        let fix = Fixture::new("panic-allow");
        fix.write_clean_tree();
        fix.write(
            "crates/runtime/src/queue.rs",
            "fn a() { None::<u8>.unwrap() } // lint:allow(panic) invariant\n\
             // lint:allow(panic) invariant\nfn b() { None::<u8>.unwrap() }\n",
        );
        assert!(findings_for(&fix, "panic").is_empty());
    }

    #[test]
    fn panic_tokens_in_comments_and_strings_are_ignored() {
        let fix = Fixture::new("panic-comments");
        fix.write_clean_tree();
        fix.write(
            "crates/runtime/src/doc.rs",
            "/// Example: `x.unwrap()` then panic!(\"no\").\n\
             fn msg() -> &'static str { \".unwrap() panic! todo!\" }\n\
             /* block comment .expect( spanning\n   lines with panic! tokens */\n",
        );
        assert!(findings_for(&fix, "panic").is_empty());
    }

    #[test]
    fn expect_err_and_unwrap_or_else_are_not_panic_tokens() {
        let fix = Fixture::new("panic-lookalikes");
        fix.write_clean_tree();
        fix.write(
            "crates/runtime/src/ok.rs",
            "fn f(r: Result<u8, u8>) -> u8 { r.unwrap_or_else(|e| e) }\n\
             fn g(r: Result<u8, u8>) -> u8 { r.expect_err(\"want err\") }\n",
        );
        assert!(findings_for(&fix, "panic").is_empty());
    }

    #[test]
    fn new_serde_field_without_default_is_flagged() {
        let fix = Fixture::new("serde");
        fix.write_clean_tree();
        fix.write(
            "crates/runtime/src/metrics.rs",
            metrics_fixture(&[], &[], &[], &["    pub brand_new_counter: u64,"]).as_str(),
        );
        let findings = findings_for(&fix, "serde-default");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("RuntimeReport.brand_new_counter"));
    }

    #[test]
    fn new_serde_field_with_default_passes() {
        let fix = Fixture::new("serde-ok");
        fix.write_clean_tree();
        fix.write(
            "crates/runtime/src/metrics.rs",
            metrics_fixture(&[], &[], &[], &["    #[serde(default)]", "    pub new_one: u64,"])
                .as_str(),
        );
        assert!(findings_for(&fix, "serde-default").is_empty());
    }

    #[test]
    fn tenant_key_cache_fields_are_post_baseline_and_need_default() {
        // The multi-tenant key fabric appended six key-cache fields to
        // `RuntimeReport`. They are deliberately *not* in the v1
        // baseline, so the lint holds them to the `#[serde(default)]`
        // rule that keeps pre-fabric reports deserialising.
        let fields = [
            "tenants_registered",
            "key_cache_hits",
            "key_cache_misses",
            "key_cache_evictions",
            "key_cache_resident_bytes",
            "key_cache_budget_bytes",
        ];
        for (_, name, baseline) in SERDE_BASELINE {
            if *name == "RuntimeReport" {
                for f in fields {
                    assert!(!baseline.contains(&f), "{f} must stay out of the v1 baseline");
                }
            }
        }

        let bare: Vec<String> = fields.iter().map(|f| format!("    pub {f}: u64,")).collect();
        let bare_refs: Vec<&str> = bare.iter().map(String::as_str).collect();
        let fix = Fixture::new("serde-tenant-bare");
        fix.write_clean_tree();
        fix.write(
            "crates/runtime/src/metrics.rs",
            metrics_fixture(&[], &[], &[], &bare_refs).as_str(),
        );
        let findings = findings_for(&fix, "serde-default");
        assert_eq!(findings.len(), fields.len(), "{findings:?}");

        let guarded: Vec<String> = fields
            .iter()
            .flat_map(|f| ["    #[serde(default)]".to_string(), format!("    pub {f}: u64,")])
            .collect();
        let guarded_refs: Vec<&str> = guarded.iter().map(String::as_str).collect();
        let fix = Fixture::new("serde-tenant-guarded");
        fix.write_clean_tree();
        fix.write(
            "crates/runtime/src/metrics.rs",
            metrics_fixture(&[], &[], &[], &guarded_refs).as_str(),
        );
        assert!(findings_for(&fix, "serde-default").is_empty());
    }

    #[test]
    fn missing_workspace_lints_table_is_flagged() {
        let fix = Fixture::new("header-root");
        fix.write_clean_tree();
        fix.write("Cargo.toml", "[workspace]\n");
        let findings = findings_for(&fix, "lint-header");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("[workspace.lints.rust]"));
    }

    #[test]
    fn member_without_lints_opt_in_is_flagged() {
        let fix = Fixture::new("header-member");
        fix.write_clean_tree();
        fix.write("crates/runtime/Cargo.toml", "[package]\nname = \"x\"\n");
        let findings = findings_for(&fix, "lint-header");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("opt into"));
    }

    #[test]
    fn inline_header_duplicating_workspace_table_is_flagged() {
        let fix = Fixture::new("header-inline");
        fix.write_clean_tree();
        fix.write(
            "crates/tfhe/src/lib.rs",
            "//! Docs.\n#![forbid(unsafe_code)]\n#![deny(unsafe_code)]\n",
        );
        let findings = findings_for(&fix, "lint-header");
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.message.contains("duplicates")));
    }

    #[test]
    fn unsafe_outside_the_backend_tree_is_flagged() {
        let fix = Fixture::new("unsafe-outside");
        fix.write_clean_tree();
        fix.write(
            "crates/tfhe/src/fast.rs",
            "// SAFETY: a comment does not make it acceptable here.\n\
             fn read(p: *const u8) -> u8 { unsafe { *p } }\n",
        );
        let findings = findings_for(&fix, "unsafe-hygiene");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].message.contains("outside the kernel-backend tree"));
    }

    #[test]
    fn unsafe_in_backend_without_safety_comment_is_flagged() {
        let fix = Fixture::new("unsafe-no-safety");
        fix.write_clean_tree();
        fix.write(
            "crates/fft/src/backend/avx2.rs",
            "// loads 4 lanes from offset j (not a safety argument)\n\
             fn load(s: &[f64]) -> f64 { unsafe { *s.as_ptr() } }\n",
        );
        let findings = findings_for(&fix, "unsafe-hygiene");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("SAFETY"));
    }

    #[test]
    fn safety_commented_unsafe_in_a_new_backend_file_is_flagged() {
        let fix = Fixture::new("unsafe-new-backend");
        fix.write_clean_tree();
        fix.write(
            "crates/fft/src/backend/neon.rs",
            "// SAFETY: the slice is non-empty by construction.\n\
             fn load(s: &[f64]) -> f64 { unsafe { *s.as_ptr() } }\n",
        );
        let findings = findings_for(&fix, "unsafe-hygiene");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].message.contains("outside the kernel-backend tree"));
    }

    #[test]
    fn safety_commented_unsafe_in_backend_passes() {
        let fix = Fixture::new("unsafe-ok");
        fix.write_clean_tree();
        // Three accepted shapes: comment directly above, comment block
        // with a continuation line and an interleaved attribute, and a
        // trailing same-line comment.
        fix.write(
            "crates/fft/src/backend/mod.rs",
            "#![allow(unsafe_code)]\n\
             // SAFETY: the slice is non-empty by construction.\n\
             fn a(s: &[f64]) -> f64 { unsafe { *s.as_ptr() } }\n\
             // SAFETY: caller proved the cpu supports avx2,\n\
             // so the feature-gated call is sound.\n\
             #[inline]\n\
             fn b(s: &[f64]) -> f64 { unsafe { *s.as_ptr() } }\n\
             fn c(s: &[f64]) -> f64 { unsafe { *s.as_ptr() } } // SAFETY: len checked\n",
        );
        assert!(findings_for(&fix, "unsafe-hygiene").is_empty());
    }

    #[test]
    fn unsafe_in_strings_comments_and_identifiers_is_ignored() {
        let fix = Fixture::new("unsafe-lookalikes");
        fix.write_clean_tree();
        fix.write(
            "crates/runtime/src/doc.rs",
            "/// Mentions unsafe in a doc comment.\n\
             fn msg() -> &'static str { \"unsafe\" }\n\
             fn unsafe_sounding_name(x: u8) -> u8 { x }\n",
        );
        assert!(findings_for(&fix, "unsafe-hygiene").is_empty());
    }

    #[test]
    fn undeclared_doc_metric_is_flagged() {
        let fix = Fixture::new("doc-metrics");
        fix.write_clean_tree();
        fix.write(
            "BENCHMARK.json",
            "{\"workloads\": [{\"name\": \"pbs_batch\"}],\n\
             \"per_layer\": [{\"name\": \"fft.forward_us\", \"unit\": \"us\"}]}\n",
        );
        fix.write(
            "README.md",
            "Declared `fft.forward_us`; files `fft.rs`, `tfhe.toml`, `bench.json`.\n\
             Not names: `strix_tfhe::fft`, `fft.forward_us * 2`, `foo.bar_ms`, `fft.`.\n\
             \n\
             Undeclared `tfhe.bogus_ms`, a span that `wraps\n\
             lines` and then `runtime.stale_ratio`.\n\
             ```text\nhost.fenced_off `host.fenced_off`\n```\n",
        );
        fix.write("docs/ARCHITECTURE.md", "See\n`bench.gone_ms`.\n");
        let found: Vec<(String, usize)> = findings_for(&fix, "doc-metrics")
            .into_iter()
            .map(|f| (f.file.strip_prefix(&fix.root).unwrap().display().to_string(), f.line))
            .collect();
        assert_eq!(
            found,
            [("README.md".into(), 4), ("README.md".into(), 5), ("docs/ARCHITECTURE.md".into(), 2)]
        );
        fix.write("BENCHMARK.json", "");
        assert_eq!(findings_for(&fix, "doc-metrics").len(), 4, "nothing declared");
    }

    #[test]
    fn loc_counts_non_blank_non_comment_rust_lines_per_directory() {
        let fix = Fixture::new("loc");
        // 3 code lines: comments of every flavour and indentation, and
        // blank or whitespace-only lines, do not count; a trailing
        // comment or a block comment does not make a line a comment.
        fix.write(
            "crates/b/src/lib.rs",
            "//! Crate docs.\n\n/// Item docs.\nfn f() {\n    // inner\n  \t\n    \
             let x = 1; // trailing\n}\n",
        );
        fix.write("crates/b/src/nested/deep.rs", "/* block */\n");
        fix.write("crates/b/README.md", "not rust\n");
        fix.write("crates/a/src/main.rs", "fn main() {}\n");
        fix.write("tests/t.rs", "#[test]\nfn t() {}\n");
        fix.write("vendor/v/src/lib.rs", "fn not_counted() {}\n");
        let rows = code_lines(&fix.root);
        let rows: Vec<(&str, usize)> = rows.iter().map(|(d, n)| (d.as_str(), *n)).collect();
        assert_eq!(
            rows,
            [("crates/a", 1), ("crates/b", 4), ("tests", 2), ("examples", 0), ("total", 7)]
        );
    }
}
