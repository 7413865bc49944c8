//! Regenerates every table and figure of the PTStore paper from the models.
//!
//! ```text
//! reproduce [--quick] [--harts N] [--jobs N] \
//!     [--csv <dir>] [--trace <file>] [--scheme sv39|sv48|sv57] \
//!     [--drain-policy boundary|watermark[:D]|asid-recycle] [--medium] \
//!     [table1|table2|table3|hwdetail|ltp|fig4|forkstress|fig5|fig6|fig7|security|smp|c1m|all]
//! reproduce fuzz [--seed S] [--faults N] [--harts H] [--quick] [--scheme sv39|sv48|sv57]
//! reproduce modelcheck [--depth N] [--ops k1,k2,...] [--ablate <check>] [--harts H] \
//!     [--jobs N] [--quick] [--scheme sv39|sv48|sv57] \
//!     [--drain-policy boundary|watermark[:D]|asid-recycle]
//! ```
//!
//! `--quick` runs scaled-down workloads (seconds); the default uses the
//! paper's parameters (30 000 processes, 100 000 Redis requests, ...).
//! `--jobs N` runs independent experiments — and the independent
//! (benchmark × config) points inside each — on up to N scoped threads
//! (clamped to the host's cores; nested fan-outs share one pool).
//! Every point boots a fresh deterministic kernel, so reports are merged
//! back in a fixed order and the output is byte-identical at any job count.
//! `--csv <dir>` additionally writes each figure's data series as CSV for
//! external plotting.
//! `--trace <file>` re-runs the PTStore security rows with a trace sink
//! attached and writes each cell's full event chain (JSON array, one
//! object per cell with counters and per-event rejecting-layer
//! attribution) to `file`.
//! `--harts N` boots N-hart machines: the security battery reruns every
//! cell on the SMP machine, the `smp` experiment compares
//! hart-distributed nginx/redis/fork-stress throughput against one hart,
//! and the `c1m` multi-tenant churn experiment runs its fleet on N harts
//! (minimum 2 — with one hart there is no remote TLB to shoot down).
//! `c1m` must be named explicitly — `all` is the paper-reproduction
//! suite and keeps its wall-clock comparable across commits; bench.sh
//! times c1m in a separate section of its report.
//! `--drain-policy boundary|watermark[:D]|asid-recycle` (c1m and
//! forkstress only) pins the batched rows to one deferred-shootdown
//! drain policy instead of sweeping all three; security-boundary and
//! ASID-reuse drains stay mandatory under every policy, so the reported
//! TLB digests must not move with this flag (`check.sh` gates on that).
//! `--medium` (c1m only, incompatible with `--quick`) selects the
//! CI-budgeted 150×8×50 C1M trajectory shape bench.sh tracks
//! connections-per-second on.
//!
//! `fuzz` runs the ptstore-fault campaign: `--faults N` seeded runs
//! (default 70), each injecting one fault drawn round-robin from the
//! nine fault classes, classified as detected-and-contained / benign /
//! invariant-violated. `--seed S` (default 1) fixes the campaign seed —
//! the report is byte-identical across invocations. `--harts H` defaults
//! to 2 here so the IPI fault classes have a victim hart. With `--quick`
//! the campaign runs the invariant oracle after every workload operation
//! (paranoid mode). `fuzz` is not part of `all`; run it explicitly.
//! `--scheme sv39|sv48|sv57` boots every kernel of the `security` battery,
//! `fuzz` campaign, or `modelcheck` search under that RISC-V paging scheme
//! (default sv39). The verdicts are scheme-independent — PTStore's checks
//! fire on physical addresses and credentials, not on walk depth — which
//! the scheme-differential test suite asserts.
//!
//! `modelcheck` runs the ptstore-modelcheck bounded exhaustive search: BFS
//! over every interleaving of the deterministic op alphabet up to `--depth`
//! ops (default 5), deduping states by canonical hash and running the
//! invariant oracle on each. With all defenses on the verdict must be
//! VERIFIED (0 violations in every reachable state); `--ablate
//! pmp_s_bit_check|ptw_origin_check|token_checks` disables one check and
//! must print FALSIFIED with a minimal replayable counterexample trace.
//! `--ops` restricts the alphabet to a comma-separated list of op families,
//! `--harts` sizes the miniature machine (default 2), `--quick` lowers the
//! default depth to 3, and `--jobs` fans frontier expansion out across host
//! threads — the report is byte-identical at any job count (check.sh `cmp`s
//! two runs). Like `fuzz` and `c1m`, `modelcheck` is not part of `all`.
//! Flags that cannot apply to the selected experiment (for example
//! `--seed` without `fuzz`, or `--jobs`/`--trace`/`--csv` with `fuzz`)
//! are rejected rather than silently ignored.

use std::fmt::Write as _;

use ptstore_bench::*;
use ptstore_fault::CampaignConfig;

/// Appends one line to a report buffer (writing to a `String` is
/// infallible).
macro_rules! w {
    ($($t:tt)*) => { let _ = writeln!($($t)*); };
}

const EXPERIMENTS: [&str; 13] = [
    "table1",
    "table2",
    "table3",
    "hwdetail",
    "ltp",
    "fig4",
    "forkstress",
    "fig5",
    "fig6",
    "fig7",
    "security",
    "smp",
    "c1m",
];

/// Prints the usage synopsis to stderr.
fn usage() {
    eprintln!(
        "usage: reproduce [--quick] [--medium] [--harts N] [--jobs N] [--csv <dir>] [--trace <file>] [--scheme sv39|sv48|sv57] [--drain-policy boundary|watermark[:D]|asid-recycle] [{}|all]",
        EXPERIMENTS.join("|")
    );
    eprintln!(
        "       reproduce fuzz [--seed S] [--faults N] [--harts H] [--quick] [--scheme sv39|sv48|sv57]"
    );
    eprintln!(
        "       reproduce modelcheck [--depth N] [--ops k1,k2,...] [--ablate pmp_s_bit_check|ptw_origin_check|token_checks] [--harts H] [--jobs N] [--quick] [--scheme sv39|sv48|sv57] [--drain-policy boundary|watermark[:D]|asid-recycle]"
    );
    eprintln!("run `reproduce --help` for what each flag does");
}

/// Rejects the invocation with a clear error (exit 2).
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    usage();
    std::process::exit(2);
}

/// Consumes the value of `--flag <value>`, failing loudly when missing.
fn take_value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> &'a str {
    match it.next() {
        Some(v) if !v.starts_with("--") => v,
        _ => die(&format!("{flag} requires a value")),
    }
}

/// Parses a positive integer flag value.
fn take_number<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> T {
    let v = take_value(it, flag);
    match v.parse() {
        Ok(n) => n,
        Err(_) => die(&format!("{flag} takes a non-negative integer, got {v:?}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut medium = false;
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut trace_file: Option<std::path::PathBuf> = None;
    let mut harts: Option<usize> = None;
    let mut jobs: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut faults: Option<u64> = None;
    let mut scheme: Option<ptstore_core::PagingScheme> = None;
    let mut drain_policy: Option<ptstore_kernel::DrainPolicy> = None;
    let mut depth: Option<u32> = None;
    let mut ops: Option<Vec<ptstore_modelcheck::OpKind>> = None;
    let mut ablate: Option<ptstore_modelcheck::Ablation> = None;
    let mut what: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--medium" => medium = true,
            "--csv" => csv_dir = Some(std::path::PathBuf::from(take_value(&mut it, "--csv"))),
            "--trace" => {
                trace_file = Some(std::path::PathBuf::from(take_value(&mut it, "--trace")));
            }
            "--harts" => harts = Some(take_number(&mut it, "--harts")),
            "--jobs" => jobs = Some(take_number(&mut it, "--jobs")),
            "--seed" => seed = Some(take_number(&mut it, "--seed")),
            "--faults" => faults = Some(take_number(&mut it, "--faults")),
            "--scheme" => {
                let v = take_value(&mut it, "--scheme");
                scheme = match v.parse() {
                    Ok(s) => Some(s),
                    Err(_) => die(&format!(
                        "unknown paging scheme {v:?}: --scheme takes sv39, sv48, or sv57"
                    )),
                };
            }
            "--drain-policy" => {
                let v = take_value(&mut it, "--drain-policy");
                drain_policy = match v.parse() {
                    Ok(p) => Some(p),
                    Err(e) => die(&format!("{e}")),
                };
            }
            "--depth" => depth = Some(take_number(&mut it, "--depth")),
            "--ops" => {
                let v = take_value(&mut it, "--ops");
                ops = match ptstore_modelcheck::parse_op_kinds(v) {
                    Ok(kinds) if !kinds.is_empty() => Some(kinds),
                    Ok(_) => die("--ops takes a non-empty comma-separated op list"),
                    Err(e) => die(&e),
                };
            }
            "--ablate" => {
                let v = take_value(&mut it, "--ablate");
                ablate = match v.parse() {
                    Ok(a) => Some(a),
                    Err(e) => die(&e),
                };
            }
            "--help" | "-h" => {
                usage();
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => die(&format!("unknown flag {flag:?}")),
            exp => {
                if let Some(first) = &what {
                    die(&format!(
                        "at most one experiment may be selected, got {first:?} and {exp:?}"
                    ));
                }
                what = Some(exp.to_string());
            }
        }
    }

    let what = what.unwrap_or_else(|| "all".to_string());
    if what != "all"
        && what != "fuzz"
        && what != "modelcheck"
        && !EXPERIMENTS.contains(&what.as_str())
    {
        die(&format!("unknown experiment {what:?}"));
    }
    if harts == Some(0) {
        die("--harts takes a positive integer");
    }
    if jobs == Some(0) {
        die("--jobs takes a positive integer");
    }
    if depth == Some(0) {
        die("--depth takes a positive integer");
    }
    // Flags whose experiment cannot use them are contradictions, not
    // defaults to silently fall back on.
    if what != "fuzz" {
        if seed.is_some() {
            die(&format!(
                "--seed only applies to the fuzz experiment, not {what:?}"
            ));
        }
        if faults.is_some() {
            die(&format!(
                "--faults only applies to the fuzz experiment, not {what:?}"
            ));
        }
    } else {
        if jobs.is_some() {
            die("--jobs does not apply to fuzz: campaign runs are sequential by design (the report is seed-deterministic)");
        }
        if trace_file.is_some() {
            die("--trace only applies to the security experiment, not fuzz");
        }
        if csv_dir.is_some() {
            die("--csv only applies to the figure experiments, not fuzz");
        }
    }
    if what != "modelcheck" {
        if depth.is_some() {
            die(&format!(
                "--depth only applies to the modelcheck experiment, not {what:?}"
            ));
        }
        if ops.is_some() {
            die(&format!(
                "--ops only applies to the modelcheck experiment, not {what:?}"
            ));
        }
        if ablate.is_some() {
            die(&format!(
                "--ablate only applies to the modelcheck experiment, not {what:?} \
                 (the fuzz campaign's ablations are part of its fault classes)"
            ));
        }
    } else {
        if trace_file.is_some() {
            die("--trace only applies to the security experiment, not modelcheck");
        }
        if csv_dir.is_some() {
            die("--csv only applies to the figure experiments, not modelcheck");
        }
        if medium {
            die("--medium is the CI-budgeted c1m trajectory shape; it does not apply to modelcheck (use --depth)");
        }
    }
    if trace_file.is_some() && what != "all" && what != "security" {
        die(&format!(
            "--trace only applies to the security experiment, not {what:?}"
        ));
    }
    if scheme.is_some() && what != "security" && what != "fuzz" && what != "modelcheck" {
        die(&format!(
            "--scheme only applies to the security, fuzz, and modelcheck experiments, not {what:?} \
             (the performance figures are calibrated against the sv39 goldens)"
        ));
    }
    const CSV_EXPERIMENTS: [&str; 5] = ["all", "fig4", "fig5", "fig6", "fig7"];
    if csv_dir.is_some() && !CSV_EXPERIMENTS.contains(&what.as_str()) {
        die(&format!(
            "--csv only applies to the figure experiments (fig4|fig5|fig6|fig7), not {what:?}"
        ));
    }
    if drain_policy.is_some() && what != "c1m" && what != "forkstress" && what != "modelcheck" {
        die(&format!(
            "--drain-policy only applies to the c1m, forkstress, and modelcheck experiments, \
             not {what:?} \
             (the other experiments run eager shootdowns, where no drain queue exists)"
        ));
    }
    if medium {
        if quick {
            die("--medium and --quick are contradictory: pick one scale");
        }
        if what != "c1m" {
            die(&format!(
                "--medium is the CI-budgeted c1m trajectory shape; it does not apply to {what:?}"
            ));
        }
    }

    let scale = if medium {
        Scale::medium()
    } else if quick {
        Scale::quick()
    } else {
        Scale::paper()
    };
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }
    set_csv_dir(csv_dir);

    if what == "fuzz" {
        // `--harts` defaults to 2 for fuzz so the IPI-fault classes have a
        // victim hart to target.
        print!(
            "{}",
            report_fuzz(
                seed.unwrap_or(1),
                faults.unwrap_or(70),
                harts.unwrap_or(2),
                quick,
                scheme
            )
        );
        return;
    }
    if what == "modelcheck" {
        let base = ptstore_modelcheck::McConfig::default();
        let mc = ptstore_modelcheck::McConfig {
            // The default bound (depth 5, full alphabet, 2 harts) explores
            // well over 10^4 deduped states — the coverage floor check.sh
            // gates on; --quick trades coverage for a seconds-scale smoke
            // run.
            depth: depth.unwrap_or(if quick { 3 } else { base.depth }),
            kinds: ops.unwrap_or(base.kinds),
            ablate,
            harts: harts.unwrap_or(2),
            scheme: scheme.unwrap_or(base.scheme),
            drain_policy: match drain_policy {
                Some(p) => Some(p),
                None => base.drain_policy,
            },
            jobs: jobs.unwrap_or(1),
            max_states: base.max_states,
        };
        print!("{}", ptstore_modelcheck::explore(&mc).summary());
        return;
    }
    let harts = harts.unwrap_or(1);
    let jobs = jobs.unwrap_or(1);

    // One report builder per experiment, in the fixed output order. Each
    // returns its full report as a string so runs can be fanned out across
    // threads and merged back deterministically.
    type Task<'a> = (&'a str, Box<dyn Fn() -> String + Sync + 'a>);
    let scale = &scale;
    let trace_file = trace_file.as_deref();
    let tasks: Vec<Task> = EXPERIMENTS
        .iter()
        // `all` is the paper-reproduction suite; the c1m macro workload runs
        // only when named explicitly so the suite's wall-clock gate
        // (scripts/bench.sh) keeps comparing the same work across commits.
        // bench.sh times c1m in its own section.
        .filter(|name| (what == "all" && **name != "c1m") || what == **name)
        .map(|&name| {
            let task: Box<dyn Fn() -> String + Sync> = match name {
                "table1" => Box::new(report_table1),
                "table2" => Box::new(report_table2),
                "table3" => Box::new(report_table3),
                "hwdetail" => Box::new(report_hwdetail),
                "ltp" => Box::new(move || report_ltp(scale, jobs)),
                "fig4" => Box::new(move || report_fig4(scale, jobs)),
                "forkstress" => Box::new(move || report_stress(scale, jobs, drain_policy)),
                "fig5" => Box::new(move || report_fig5(scale, jobs)),
                "fig6" => Box::new(move || report_fig6(scale, jobs)),
                "fig7" => Box::new(move || report_fig7(scale, jobs)),
                "security" => Box::new(move || report_security(trace_file, harts, scheme)),
                "smp" => Box::new(move || report_smp(scale, harts, jobs)),
                "c1m" => Box::new(move || report_c1m(scale, harts, jobs, drain_policy)),
                _ => unreachable!("EXPERIMENTS is exhaustive"),
            };
            (name, task)
        })
        .collect();

    // Deterministic ordered merge: reports come back in task order no
    // matter which thread finished first.
    for report in ptstore_core::pool::fan_out(jobs, &tasks, |(_, run)| run()) {
        print!("{report}");
    }
}

use std::sync::OnceLock;

static CSV_DIR: OnceLock<Option<std::path::PathBuf>> = OnceLock::new();

fn set_csv_dir(dir: Option<std::path::PathBuf>) {
    let _ = CSV_DIR.set(dir);
}

/// Writes one figure's overhead series as CSV when `--csv` was given,
/// appending a note to the report.
fn write_series_csv(out: &mut String, name: &str, series: &[OverheadSeries]) {
    let Some(Some(dir)) = CSV_DIR.get() else {
        return;
    };
    let mut csv = String::from("benchmark,config,cycles,overhead_pct\n");
    for s in series {
        for m in &s.entries {
            let _ = writeln!(
                csv,
                "{},{},{},{:.4}",
                s.benchmark, m.label, m.cycles, m.overhead_pct
            );
        }
    }
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, csv).expect("write csv");
    w!(out, "(csv written to {})", path.display());
}

fn header(out: &mut String, title: &str) {
    w!(out);
    w!(
        out,
        "================================================================"
    );
    w!(out, "{title}");
    w!(
        out,
        "================================================================"
    );
}

fn report_table1() -> String {
    let mut out = String::new();
    header(&mut out, "Table I: lines of code of each PTStore component");
    w!(
        out,
        "{:<18} {:<18} {:>10} {:>10}  Our location",
        "Component",
        "Paper language",
        "Paper LoC",
        "Ours LoC"
    );
    for r in table1() {
        w!(
            out,
            "{:<18} {:<18} {:>10} {:>10}  {}",
            r.component,
            r.paper_language,
            r.paper_loc,
            r.our_loc,
            r.our_location
        );
    }
    w!(
        out,
        "(ours are full reimplementations of each subsystem, not patches — see DESIGN.md)"
    );
    out
}

fn report_table2() -> String {
    let mut out = String::new();
    header(&mut out, "Table II: prototype system configuration");
    for (k, v) in table2() {
        w!(out, "{k:<16} {v}");
    }
    out
}

fn report_table3() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "Table III: hardware resource cost (model) — paper: +0.918% core LUT, +0.258% core FF",
    );
    w!(
        out,
        "{:<16} | {:>6} {:>8} | {:>6} {:>8} | {:>6} {:>8} | {:>6} {:>8} | {:>6} | {:>7}",
        "",
        "coreLUT",
        "%",
        "coreFF",
        "%",
        "sysLUT",
        "%",
        "sysFF",
        "%",
        "WSS",
        "Fmax"
    );
    for row in run_table3() {
        w!(out, "{row}");
    }
    out
}

fn report_hwdetail() -> String {
    let mut out = String::new();
    header(&mut out, "Table III detail: structural component breakdown");
    let cfg = ptstore_hwcost::BoomConfig::small_boom();
    w!(out, "-- baseline core --");
    for c in cfg.components() {
        w!(out, "  {c}");
    }
    w!(
        out,
        "-- PTStore delta (the 58 Chisel lines of Table I, as gates) --"
    );
    for c in ptstore_hwcost::ptstore_delta(cfg.pmp_entries) {
        w!(out, "  {c}");
    }
    w!(out, "-- uncore --");
    for c in ptstore_hwcost::peripherals() {
        w!(out, "  {c}");
    }
    let p = ptstore_hwcost::estimate(&cfg);
    w!(out, "-- dynamic power (normalised; §III-C2 argument) --");
    w!(out, "  baseline core        {:.4}", p.baseline);
    w!(
        out,
        "  with PTStore         {:.4}  (+{:.3}%)",
        p.with_ptstore,
        (p.with_ptstore - p.baseline) / p.baseline * 100.0
    );
    w!(
        out,
        "  with NPT unit instead {:.4}  (+{:.3}%) — the alternative the paper rejects",
        p.with_npt,
        (p.with_npt - p.baseline) / p.baseline * 100.0
    );
    out
}

fn report_ltp(scale: &Scale, jobs: usize) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "§V-C: LTP-style regression (output diff between kernels)",
    );
    let r = run_ltp_jobs(scale, jobs);
    w!(out, "test cases per kernel : {}", r.cases);
    w!(out, "deviations            : {}", r.deviations.len());
    for d in &r.deviations {
        w!(out, "  DEVIATION: {d}");
    }
    if r.deviations.is_empty() {
        w!(
            out,
            "=> no deviation: the PTStore kernel behaves identically (paper: same result)"
        );
    }
    out
}

fn series_table(out: &mut String, series: &[OverheadSeries]) {
    w!(
        out,
        "{:<24} {:>12} {:>12} {:>12}",
        "benchmark",
        "CFI %",
        "CFI+PTStore %",
        "PTStore-only %"
    );
    for s in series {
        let cfi = s.overhead_of("CFI").unwrap_or(0.0);
        let both = s.overhead_of("CFI+PTStore").unwrap_or(0.0);
        w!(
            out,
            "{:<24} {:>12.2} {:>12.2} {:>12.2}",
            s.benchmark,
            cfi,
            both,
            both - cfi
        );
    }
}

fn report_fig4(scale: &Scale, jobs: usize) -> String {
    let mut out = String::new();
    header(
        &mut out,
        &format!(
            "Figure 4: LMBench microbenchmark overheads ({} iterations)",
            scale.lmbench_iters
        ),
    );
    let series = run_fig4_jobs(scale, jobs);
    series_table(&mut out, &series);
    write_series_csv(&mut out, "fig4_lmbench", &series);
    w!(
        out,
        "average: CFI {:.2}%, CFI+PTStore {:.2}% (paper: PTStore adds no significant syscall overhead)",
        average_overhead(&series, "CFI"),
        average_overhead(&series, "CFI+PTStore"),
    );
    out
}

fn report_stress(
    scale: &Scale,
    jobs: usize,
    policy: Option<ptstore_kernel::DrainPolicy>,
) -> String {
    let mut out = String::new();
    let under = match policy {
        Some(p) => format!("; deferred shootdowns, drain policy {p}"),
        None => String::new(),
    };
    header(
        &mut out,
        &format!(
            "§V-D1: fork stress — {} simultaneous processes (paper: 30,000; 2.84% / 6.83% / 3.77%{under})",
            scale.stress_procs
        ),
    );
    w!(
        out,
        "{:<18} {:>14} {:>10} {:>12} {:>10} {:>14} {:>18}",
        "config",
        "cycles",
        "overhead%",
        "adjustments",
        "migrated",
        "region (MiB)",
        "tlb digest"
    );
    for row in run_stress_policy_jobs(scale, jobs, policy) {
        w!(
            out,
            "{:<18} {:>14} {:>10.2} {:>12} {:>10} {:>14} {:>#18x}",
            row.label,
            row.result.cycles,
            row.overhead_pct,
            row.result.adjustments,
            row.result.migrated_pages,
            row.result
                .final_region_size
                .map(|s| (s / (1 << 20)).to_string())
                .unwrap_or_else(|| "-".to_string()),
            row.tlb_digest,
        );
    }
    if policy.is_some() {
        w!(
            out,
            "=> drain policies are pure placement: the tlb digest column must be identical \
             for every --drain-policy value (check.sh compares boundary vs watermark)"
        );
    }
    out
}

fn report_fig5(scale: &Scale, jobs: usize) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "Figure 5: SPEC CINT2006 execution-time overheads (paper: <0.91% CFI+PTStore, <0.29% PTStore alone)",
    );
    let series = run_fig5_jobs(scale, jobs);
    series_table(&mut out, &series);
    write_series_csv(&mut out, "fig5_spec", &series);
    w!(
        out,
        "average: CFI+PTStore {:.3}% (PTStore-only {:.3}%)",
        average_overhead(&series, "CFI+PTStore"),
        average_overhead(&series, "CFI+PTStore") - average_overhead(&series, "CFI"),
    );
    out
}

fn report_fig6(scale: &Scale, jobs: usize) -> String {
    let mut out = String::new();
    header(
        &mut out,
        &format!(
            "Figure 6: NGINX overheads — {} requests, 100 concurrent (paper: <8.18% incl. CFI, <0.86% PTStore)",
            scale.nginx_requests
        ),
    );
    let series = run_fig6_jobs(scale, jobs);
    series_table(&mut out, &series);
    write_series_csv(&mut out, "fig6_nginx", &series);
    w!(
        out,
        "average: CFI+PTStore {:.2}%, PTStore-only {:.2}%",
        average_overhead(&series, "CFI+PTStore"),
        average_overhead(&series, "CFI+PTStore") - average_overhead(&series, "CFI"),
    );
    out
}

fn report_fig7(scale: &Scale, jobs: usize) -> String {
    let mut out = String::new();
    header(
        &mut out,
        &format!(
            "Figure 7: Redis overheads — {} requests/test, 50 connections (paper: <8.18% incl. CFI, <0.86% PTStore)",
            scale.redis_requests
        ),
    );
    let series = run_fig7_jobs(scale, jobs);
    series_table(&mut out, &series);
    write_series_csv(&mut out, "fig7_redis", &series);
    w!(
        out,
        "average: CFI+PTStore {:.2}%, PTStore-only {:.2}%",
        average_overhead(&series, "CFI+PTStore"),
        average_overhead(&series, "CFI+PTStore") - average_overhead(&series, "CFI"),
    );
    out
}

fn report_security(
    trace_file: Option<&std::path::Path>,
    harts: usize,
    scheme: Option<ptstore_core::PagingScheme>,
) -> String {
    let mut out = String::new();
    let scheme = scheme.unwrap_or(ptstore_core::PagingScheme::Sv39);
    let under = if scheme == ptstore_core::PagingScheme::Sv39 {
        String::new()
    } else {
        format!(", {} paging", scheme.name())
    };
    if harts > 1 {
        header(
            &mut out,
            &format!(
                "§V-E: security matrix (attack × defense; fresh {harts}-hart kernel per cell{under})"
            ),
        );
    } else {
        header(
            &mut out,
            &format!("§V-E: security matrix (attack × defense; fresh kernel per cell{under})"),
        );
    }
    for report in run_security_with(harts, scheme) {
        let tokens = if report.tokens { "" } else { " [tokens off]" };
        w!(out, "{report}{tokens}");
    }
    w!(
        out,
        "=> PTStore (full design) blocks every attack; see EXPERIMENTS.md"
    );

    let Some(path) = trace_file else { return out };
    w!(out);
    w!(
        out,
        "-- traced PTStore rows (which check stopped each attack) --"
    );
    let cells = run_security_traced();
    for cell in &cells {
        let tokens = if cell.report.tokens {
            ""
        } else {
            " [tokens off]"
        };
        let layer = cell
            .rejecting_layer()
            .map(|l| l.to_string())
            .unwrap_or_else(|| "-".to_string());
        let c = &cell.counters;
        w!(
            out,
            "{:<20}{:<14} -> {:<18} ({} events: {} pmp checks/{} denied, {} ptw steps/{} rejected, {} token ops/{} rejected)",
            cell.report.attack.to_string(),
            tokens,
            layer,
            cell.events.len(),
            c.pmp_checks,
            c.pmp_denials,
            c.ptw_steps,
            c.ptw_origin_rejections,
            c.token_ops,
            c.token_rejections,
        );
    }
    let mut json = String::from("[");
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&cell.to_json());
    }
    json.push(']');
    match std::fs::write(path, json) {
        Ok(()) => {
            w!(out, "(trace written to {})", path.display());
        }
        Err(e) => eprintln!("error: cannot write trace file {}: {e}", path.display()),
    }
    out
}

fn report_fuzz(
    seed: u64,
    faults: u64,
    harts: usize,
    quick: bool,
    scheme: Option<ptstore_core::PagingScheme>,
) -> String {
    let mut out = String::new();
    let under = match scheme {
        Some(s) if s != ptstore_core::PagingScheme::Sv39 => format!(", {} paging", s.name()),
        _ => String::new(),
    };
    header(
        &mut out,
        &format!(
            "Fuzz campaign: {faults} seeded faults across {harts} hart(s) (ptstore-fault{under})"
        ),
    );
    let mut cfg = if quick {
        // Paranoid mode: the invariant oracle runs after every workload
        // operation, not just at the post-injection checkpoints.
        CampaignConfig::quick(seed, faults, harts)
    } else {
        CampaignConfig::new(seed, faults, harts)
    };
    if let Some(s) = scheme {
        cfg.kernel = Some(cfg.kernel_config().with_scheme(s));
    }
    let report = ptstore_fault::run_campaign(&cfg);
    out.push_str(&report.summary());
    w!(
        out,
        "=> every fault is refused by its named layer or provably benign; \
         invariant-violated must be 0 on the full mechanism (see EXPERIMENTS.md)"
    );
    out
}

fn report_smp(scale: &Scale, harts: usize, jobs: usize) -> String {
    let mut out = String::new();
    // `reproduce smp` without --harts compares against a 4-hart machine.
    let harts = if harts > 1 { harts } else { 4 };
    header(
        &mut out,
        &format!("SMP scaling: hart-distributed workloads, 1 vs {harts} harts (CFI+PTStore)"),
    );
    let rows = run_smp_jobs(scale, harts, jobs);
    w!(
        out,
        "{:<14} {:>14} {:>14} {:>9} {:>12} {:>10}",
        "workload",
        "1-hart ops/kc",
        "N-hart ops/kc",
        "speedup",
        "shootdowns",
        "IPIs"
    );
    for r in &rows {
        w!(
            out,
            "{:<14} {:>14.3} {:>14.3} {:>8.2}x {:>12} {:>10}",
            r.workload,
            r.single.ops_per_kilocycle(),
            r.multi.ops_per_kilocycle(),
            r.speedup(),
            r.multi.tlb_shootdowns,
            r.multi.shootdown_ipis,
        );
        let util: Vec<String> = r
            .multi
            .per_hart
            .iter()
            .map(|h| format!("hart{} {:>5.1}%", h.hart, h.utilization * 100.0))
            .collect();
        w!(out, "{:<14} per-hart utilization: {}", "", util.join("  "));
    }
    w!(
        out,
        "=> ops per modeled cycle must rise with the hart count; shootdown IPIs are the price"
    );
    out
}

fn report_c1m(
    scale: &Scale,
    harts: usize,
    jobs: usize,
    policy: Option<ptstore_kernel::DrainPolicy>,
) -> String {
    let mut out = String::new();
    let harts = harts.max(2);
    header(
        &mut out,
        &format!(
            "C1M: multi-tenant churn — {} tenant slots x {} rounds x {} connections \
             ({} connections, {} processes, {} harts)",
            scale.c1m_tenants,
            scale.c1m_rounds,
            scale.c1m_requests,
            scale.c1m_tenants * scale.c1m_rounds * scale.c1m_requests,
            scale.c1m_tenants * scale.c1m_rounds,
            harts
        ),
    );
    w!(
        out,
        "{:<34} {:>14} {:>10} {:>9} {:>11} {:>9} {:>7} {:>10} {:>6} {:>7} {:>7}",
        "config",
        "wall cycles",
        "overhead%",
        "conn/kc",
        "shootdowns",
        "IPIs",
        "drains",
        "coalesced",
        "maxq",
        "early",
        "adjust"
    );
    let rows = run_c1m_sweep_jobs(scale, harts, jobs, policy);
    for row in &rows {
        w!(
            out,
            "{:<34} {:>14} {:>10.2} {:>9.3} {:>11} {:>9} {:>7} {:>10} {:>6} {:>7} {:>7}",
            row.label,
            row.result.report.wall_cycles,
            row.overhead_pct,
            row.result.connections_per_kilocycle(),
            row.result.report.tlb_shootdowns,
            row.result.report.shootdown_ipis,
            row.result.deferred_drains,
            row.result.deferred_pages_coalesced,
            row.result.deferred_queue_peak,
            row.result.watermark_drains + row.result.asid_recycle_drains,
            row.result.adjustments,
        );
    }
    // The machine-greppable policy trade-off line check.sh and bench.sh
    // parse: per-policy queue peaks plus the state-identity verdict.
    let batched: Vec<_> = rows
        .iter()
        .filter(|r| r.label.starts_with("CFI+PTStore batched/"))
        .collect();
    let mut sweep = String::from("drain-policy sweep:");
    for r in &batched {
        let _ = write!(
            sweep,
            " {} maxq={} ipis={}",
            r.label.trim_start_matches("CFI+PTStore batched/"),
            r.result.deferred_queue_peak,
            r.result.report.shootdown_ipis
        );
    }
    let identical = batched
        .windows(2)
        .all(|w| w[0].result.tlb_digest == w[1].result.tlb_digest);
    let _ = write!(
        sweep,
        " tlb-digest-identical={}",
        if identical { "yes" } else { "NO" }
    );
    w!(out, "{sweep}");
    w!(
        out,
        "=> batching (deferred shootdowns + magazines) must cut IPIs and wall cycles versus \
         the eager row; policies only move drain placement — watermark must cap maxq below \
         boundary's with an identical tlb digest. All values are modeled — host wall time \
         is measured by scripts/bench.sh"
    );
    out
}
