//! `reproduce` rejects invocations it cannot carry out with an error and
//! exit status 2, never with a panic: hart counts the kernel cannot boot,
//! and output paths it cannot write.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch directory of this test under the target's temporary dir.
fn scratch() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("reproduce-cli");
    std::fs::create_dir_all(&dir).expect("create the scratch dir");
    dir
}

/// A path nothing can be created at: its parent is a regular file.
fn under_a_file(name: &str) -> String {
    let file = scratch().join("regular-file");
    std::fs::write(&file, b"").expect("create the regular file");
    file.join(name).display().to_string()
}

/// A csv directory where fig4's output file name is taken by a directory.
fn csv_dir_with_blocked_fig4() -> String {
    let dir = scratch().join("csv-blocked");
    std::fs::create_dir_all(dir.join("fig4_lmbench.csv")).expect("create the blocking dir");
    dir.display().to_string()
}

#[test]
fn bad_invocations_exit_2_without_panicking() {
    let csv_under_file = under_a_file("csv");
    let trace_under_file = under_a_file("trace.json");
    let csv_blocked = csv_dir_with_blocked_fig4();
    let rows: [&[&str]; 8] = [
        &["--quick", "--harts", "65", "c1m"],
        &["fuzz", "--harts", "65", "--faults", "1"],
        &["modelcheck", "--harts", "65", "--depth", "1"],
        &["--quick", "--harts", "65", "smp"],
        &["--quick", "--harts", "65", "security"],
        &["--csv", &csv_under_file, "--quick", "fig4"],
        &["--csv", &csv_blocked, "--quick", "fig4"],
        &["--trace", &trace_under_file, "--quick", "security"],
    ];
    for args in rows {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .output()
            .expect("run reproduce");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}\n{stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}\n{stderr}");
    }
}
