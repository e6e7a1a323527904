//! Stamps the benchmark binary with its provenance: the git commit when the
//! tree is a git checkout, a content hash of every source the benchmark
//! builds (so a checkout without `.git` is still identified), the rustc
//! version and the build profile.

use std::path::{Path, PathBuf};
use std::process::Command;

/// FNV-1a, 64-bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Every file under `dir` whose name ends in one of `exts`, sorted.
fn collect(dir: &Path, exts: &[&str], out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, exts, out);
        } else if exts.iter().any(|x| p.to_string_lossy().ends_with(x)) {
            out.push(p);
        }
    }
}

fn main() {
    let here = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = here
        .parent()
        .expect("the benchmark sits in the repository")
        .to_path_buf();

    let mut files = Vec::new();
    collect(&root.join("crates"), &[".rs", "Cargo.toml"], &mut files);
    collect(&root.join("vendor"), &[".rs", "Cargo.toml"], &mut files);
    collect(&here.join("src"), &[".rs"], &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(here.join("Cargo.toml"));
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        if let Ok(rel) = f.strip_prefix(&root) {
            fnv(&mut hash, rel.to_string_lossy().as_bytes());
        }
        fnv(&mut hash, &std::fs::read(f).unwrap_or_default());
    }

    let commit = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(&root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "none".to_string());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc_version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());

    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_HASH={hash:016x}");
    println!("cargo:rustc-env=PERFBENCH_RUSTC={rustc_version}");
    println!(
        "cargo:rustc-env=PERFBENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_default()
    );
    println!("cargo:rerun-if-changed={}", root.join("crates").display());
    println!("cargo:rerun-if-changed={}", root.join("vendor").display());
    println!(
        "cargo:rerun-if-changed={}",
        root.join("Cargo.toml").display()
    );
    println!("cargo:rerun-if-changed={}", here.join("src").display());
    // A missing path would make cargo rerun this script on every build.
    for git in [".git/HEAD", ".git/refs/heads"] {
        if root.join(git).exists() {
            println!("cargo:rerun-if-changed={}", root.join(git).display());
        }
    }
}
