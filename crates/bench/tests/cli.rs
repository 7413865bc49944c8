//! `reproduce` rejects invocations it cannot carry out with an error and
//! exit status 2, never with a panic: flags the selected experiment does
//! not read, malformed values, hart counts the kernel cannot boot, and
//! output paths it cannot write.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// README.md's flag table: each experiment and the flags it reads.
/// `--quick` applies to every experiment and `--jobs` to every one but
/// `fuzz`.
const ACCEPTS: [(&str, &[&str]); 17] = [
    ("all", &["--quick", "--harts", "--jobs", "--csv", "--trace"]),
    ("table1", &["--quick", "--jobs"]),
    ("table2", &["--quick", "--jobs"]),
    ("table3", &["--quick", "--jobs"]),
    ("hwdetail", &["--quick", "--jobs"]),
    ("ltp", &["--quick", "--jobs"]),
    ("fig4", &["--quick", "--jobs", "--csv"]),
    ("forkstress", &["--quick", "--jobs"]),
    ("fig5", &["--quick", "--jobs", "--csv"]),
    ("fig6", &["--quick", "--jobs", "--csv"]),
    ("fig7", &["--quick", "--jobs", "--csv"]),
    (
        "security",
        &["--quick", "--harts", "--jobs", "--trace", "--scheme"],
    ),
    ("smp", &["--quick", "--harts", "--jobs"]),
    (
        "c1m",
        &["--quick", "--medium", "--harts", "--jobs", "--drain-policy"],
    ),
    ("ablation", &["--quick", "--jobs"]),
    (
        "fuzz",
        &["--quick", "--harts", "--scheme", "--seed", "--faults"],
    ),
    (
        "modelcheck",
        &[
            "--quick",
            "--harts",
            "--jobs",
            "--scheme",
            "--drain-policy",
            "--depth",
            "--ops",
            "--ablate",
        ],
    ),
];

/// Every flag, with a value it accepts where it takes one.
fn flags() -> [(&'static str, Option<String>); 13] {
    let path = |name: &str| Some(scratch().join(name).display().to_string());
    let value = |v: &str| Some(v.to_string());
    [
        ("--quick", None),
        ("--medium", None),
        ("--harts", value("2")),
        ("--jobs", value("1")),
        ("--csv", path("csv")),
        ("--trace", path("trace.json")),
        ("--scheme", value("sv48")),
        ("--drain-policy", value("boundary")),
        ("--seed", value("1")),
        ("--faults", value("1")),
        ("--depth", value("1")),
        ("--ops", value("fork")),
        ("--ablate", value("token_checks")),
    ]
}

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

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("run reproduce")
}

/// Asserts that `args` is rejected with exit status 2 and an `error:`
/// line, without a panic.
fn assert_rejected(args: &[&str]) {
    let out = reproduce(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}\n{stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}\n{stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}\n{stderr}");
}

#[test]
fn every_flag_an_experiment_does_not_read_is_rejected_before_it_runs() {
    for (experiment, accepts) in ACCEPTS {
        for (flag, value) in flags() {
            if accepts.contains(&flag) {
                continue;
            }
            // `--quick` keeps a wrongly accepted invocation short.
            let mut args = vec!["--quick", flag];
            args.extend(value.as_deref());
            args.push(experiment);
            let out = reproduce(&args);
            assert!(out.stdout.is_empty(), "{args:?} ran the experiment");
            assert_rejected(&args);
        }
    }
}

#[test]
fn usage_lists_each_experiment_with_the_flags_it_reads() {
    let out = reproduce(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let usage = String::from_utf8_lossy(&out.stderr);
    let listed: Vec<(String, Vec<String>)> = usage
        .lines()
        .filter_map(|line| line.strip_prefix("  "))
        .map(|line| {
            let mut words = line.split_whitespace();
            let name = words.next().expect("an experiment name").to_string();
            let flags = words
                .filter_map(|w| w.strip_prefix('['))
                .map(|w| w.trim_end_matches(']').to_string())
                .collect();
            (name, flags)
        })
        .collect();
    let expected: Vec<(String, Vec<String>)> = ACCEPTS
        .iter()
        .map(|(name, flags)| {
            let mut flags: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
            flags.sort_by_key(|f| flags_order(f));
            (name.to_string(), flags)
        })
        .collect();
    assert_eq!(listed, expected, "{usage}");
}

/// A flag's position in [`flags`], the order the usage text lists flags in.
fn flags_order(flag: &str) -> usize {
    flags()
        .iter()
        .position(|(f, _)| *f == flag)
        .expect("a known flag")
}

#[test]
fn bad_invocations_exit_2_without_panicking() {
    let csv_under_file = under_a_file("csv");
    let trace_under_file = under_a_file("trace.json");
    let csv_blocked = csv_dir_with_blocked_fig4();
    let rows: [&[&str]; 23] = [
        &["--quick", "--harts", "65", "c1m"],
        &["fuzz", "--harts", "65", "--faults", "1"],
        &["fuzz", "--faults", "18446744073709551615"],
        &["modelcheck", "--harts", "65", "--depth", "1"],
        &["--quick", "--harts", "65", "smp"],
        &["--quick", "--harts", "65", "security"],
        &["--quick", "--harts", "0", "security"],
        &["--quick", "--harts", "two", "security"],
        &["--quick", "--harts"],
        &["--quick", "--jobs", "0", "table1"],
        &["--quick", "--jobs", "--harts", "2", "security"],
        &["modelcheck", "--depth", "0"],
        &["fuzz", "--seed", "-1"],
        &["--medium", "--quick", "c1m"],
        &["--quick", "table1", "table2"],
        &["--quick", "table4"],
        &["--quick", "--verbose", "table1"],
        &["--quick", "--ablate", "everything", "modelcheck"],
        &["--quick", "forkstress", "--drain-policy", "boundary"],
        &["--quick", "c1m", "--drain-policy", "asid-recycle"],
        &["--csv", &csv_under_file, "--quick", "fig4"],
        &["--csv", &csv_blocked, "--quick", "fig4"],
        &["--trace", &trace_under_file, "--quick", "security"],
    ];
    for args in rows {
        assert_rejected(args);
    }
}
