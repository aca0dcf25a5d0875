//! What a result was measured on, and the guard against environment
//! knobs that would change the program under measurement.

use std::process::{Command, Stdio};

/// Prefix of the program's environment knobs (`GBLAS_DIST_EXECUTOR`,
/// `GBLAS_SCHED`, `GBLAS_OVERLAP`, `GBLAS_WORKSPACE`, `GBLAS_MERGE`, ...).
pub const KNOB_PREFIX: &str = "GBLAS_";

/// The `GBLAS_*` variables set in this process's environment, sorted.
pub fn knobs_set() -> Vec<String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with(KNOB_PREFIX))
        .collect();
    set.sort();
    set
}

/// First line of a command's standard output, or `"unknown"`. The child
/// is waited for before this returns.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run stamp: `(key, value)` pairs for `nproc`, `rustc -V` and the
/// git commit (`unknown` outside a git checkout).
pub fn stamp() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    vec![
        ("nproc", nproc.to_string()),
        ("rustc", first_line("rustc", &["-V"])),
        ("commit", first_line("git", &["rev-parse", "HEAD"])),
    ]
}
