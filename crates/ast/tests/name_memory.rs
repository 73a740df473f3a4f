//! Minting names and identifiers must not grow the process without
//! bound: a spelling is freed with the last `Name` or `Ident` that holds
//! it. This file is its own test binary, so no other test's allocations
//! move the resident-set reading.
#![cfg(target_os = "linux")]

use fj_ast::{Ident, NameSupply};

/// Resident set size in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line in /proc/self/status")
}

#[test]
fn dropped_spellings_are_freed() {
    let mut supply = NameSupply::new();
    let before = vm_rss_kib();
    for i in 0..200_000 {
        let text = format!("{i:0>256}");
        drop(supply.fresh(&text));
        drop(Ident::new(&text));
    }
    let grown = vm_rss_kib().saturating_sub(before);
    assert!(
        grown < 8 * 1024,
        "RSS grew {grown} KiB over 200 000 distinct 256-byte spellings"
    );
}
