//! The experiment runner's command line: anything but one known entry (or
//! `all`) is a usage error.

use std::process::Command;

#[test]
fn an_unknown_or_missing_entry_exits_2_and_lists_the_entries() {
    for args in [
        &["no_such_entry"][..],
        &[],
        &["--smoke"],
        &["fig2", "--smoke"],
        &["fig2", "pwv"],
        &["all", "--fast"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench")).args(args).output().expect("runner starts");
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(out.stdout.is_empty(), "args {args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for entry in ["fig2", "net_scale", "bench_trend"] {
            assert!(stderr.contains(entry), "args {args:?}: usage must list {entry}: {stderr}");
        }
    }
}
