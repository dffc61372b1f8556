//! Records the compiler and profile the harness was built with, so every
//! result names them.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
    let var = |name: &str| std::env::var(name).unwrap_or_else(|_| "?".into());
    println!("cargo:rustc-env=BENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=BENCH_PROFILE={} opt-level={} debug={}",
        var("PROFILE"),
        var("OPT_LEVEL"),
        var("DEBUG")
    );
    println!("cargo:rerun-if-changed=build.rs");
}
