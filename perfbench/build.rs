//! Records build provenance for the benchmark's host record: the rustc
//! version, the git commit when the source tree is a git checkout, and an
//! FNV-1a digest of the library sources, which identifies the code under
//! test even in a checkout without git metadata.

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    let commit = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(&repo)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );

    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect(&repo.join(dir), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml", ".cargo/config.toml"] {
        files.push(repo.join(file));
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f.strip_prefix(&repo).unwrap_or(f);
        for b in rel.to_string_lossy().bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }

    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_FNV={h:016x}");
    // A watched path that does not exist reruns the script on every
    // build, so git metadata is watched only where it exists.
    for dir in
        ["crates", "perfbench/src", "Cargo.toml", "Cargo.lock", ".git/HEAD", ".git/refs/heads"]
    {
        let path = repo.join(dir);
        if path.exists() {
            println!("cargo:rerun-if-changed={}", path.display());
        }
    }
}

/// Every `.rs` and `Cargo.toml` file under `dir`, recursively.
fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}
