//! The `ptstore-lint` binary: lints the workspace sources and exits
//! non-zero on findings. See the library docs for the rule set.

use std::path::PathBuf;
use std::process::ExitCode;

use ptstore_lint::{analyze, find_root, load_workspace, render, Config, Format};

const USAGE: &str = "usage: ptstore-lint [--format human|json] [--root <workspace-dir>]

Lints the PTStore workspace for secure-access discipline:
  channel-confinement   raw Bus/PhysMem access only in the channel module
  allow-justification   every #[allow] needs a justification comment
  test-exhaustiveness   verdict/fault enums fully covered by tests

Exit status: 0 clean, 1 findings, 2 usage/I-O error.";

fn main() -> ExitCode {
    let mut format = Format::Human;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--format" => match args.next().as_deref() {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                other => {
                    eprintln!(
                        "ptstore-lint: --format takes `human` or `json`, got {:?}\n\n{USAGE}",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("ptstore-lint: --root needs a path\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ptstore-lint: unknown argument {other:?}\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(|| std::env::current_dir().ok().and_then(|d| find_root(&d))) {
        Some(r) => r,
        None => {
            eprintln!("ptstore-lint: no workspace root found (try --root)");
            return ExitCode::from(2);
        }
    };
    let files = match load_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!(
                "ptstore-lint: failed to read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    let n_files = files.len();
    let findings = analyze(files, &Config::default());
    print!("{}", render(&findings, format, n_files));
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
