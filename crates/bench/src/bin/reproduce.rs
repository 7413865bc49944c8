//! Regenerates every table and figure of the PTStore paper from the models.
//!
//! ```text
//! reproduce [<flag>...] [<experiment>]
//! ```
//!
//! The experiment defaults to `all`, the paper-reproduction suite: Tables
//! I–III and their hardware detail, §V-C, Figures 4–7, §V-D1, §V-E and SMP
//! scaling. `c1m`, `ablation`, `fuzz` and `modelcheck` run only when named,
//! so `all` keeps doing the same work across commits.
//!
//! The `EXPERIMENTS` table declares each experiment once: its name,
//! whether `all` runs it, the flags it reads and its runner. Parsing,
//! rejection, the usage text (`reproduce --help`) and dispatch all read
//! it. README.md's flag table, which `tests/cli.rs` mirrors, says what
//! each flag does and where it applies. A flag the selected experiment
//! does not read is rejected, not ignored. Rejected invocations, and
//! `--csv`/`--trace` paths that cannot be written, exit with status 2.
//!
//! `--quick` runs scaled-down workloads (seconds); the default uses the
//! paper's parameters (30 000 processes, 100 000 Redis requests, ...).
//! `--jobs N` runs independent experiments, and the independent points
//! inside each, on up to N threads of the one parallel map
//! (`ptstore_core::pool::fan_out`). Every point boots a fresh
//! deterministic kernel and reports merge back in a fixed order, so the
//! output is byte-identical at any job count.
//!
//! `--drain-policy boundary|watermark[:D]` applies to `c1m`, whose batched
//! rows otherwise sweep both policies, and to `modelcheck`'s machine.
//!
//! `fuzz` runs the ptstore-fault campaign: seeded runs, each injecting one
//! fault drawn round-robin from the fault classes, classified as
//! detected-and-contained / benign / invariant-violated; the report is
//! byte-identical across invocations. `modelcheck` runs the
//! ptstore-modelcheck bounded exhaustive search: BFS over every
//! interleaving of the op alphabet, deduping states by canonical hash and
//! running the invariant oracle on each. With all defenses on the verdict
//! must be VERIFIED; an ablated check must print FALSIFIED with a minimal
//! replayable counterexample.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::str::FromStr;

use ptstore_bench::*;
use ptstore_core::pool::fan_out;
use ptstore_core::PagingScheme;
use ptstore_fault::CampaignConfig;
use ptstore_kernel::config::MAX_HARTS;
use ptstore_kernel::DrainPolicy;
use ptstore_modelcheck::{Ablation, McConfig, OpKind};

/// Appends one line to a report buffer (writing to a `String` is
/// infallible).
macro_rules! w {
    ($($t:tt)*) => { let _ = writeln!($($t)*); };
}

/// A set of flags, one bit per [`FLAGS`] entry.
type FlagSet = u16;

const QUICK: FlagSet = 1 << 0;
const MEDIUM: FlagSet = 1 << 1;
const HARTS: FlagSet = 1 << 2;
const JOBS: FlagSet = 1 << 3;
const CSV: FlagSet = 1 << 4;
const TRACE: FlagSet = 1 << 5;
const SCHEME: FlagSet = 1 << 6;
const DRAIN: FlagSet = 1 << 7;
const SEED: FlagSet = 1 << 8;
const FAULTS: FlagSet = 1 << 9;
const DEPTH: FlagSet = 1 << 10;
const OPS: FlagSet = 1 << 11;
const ABLATE: FlagSet = 1 << 12;

/// Stores a flag's parsed value in [`Opts`], or says why it is not one.
type Setter = fn(&mut Opts, &str) -> Result<(), String>;

/// One command-line flag.
struct Flag {
    bit: FlagSet,
    name: &'static str,
    /// The value's placeholder in the usage text; empty for a switch, which
    /// [`Opts::given`] records.
    value: &'static str,
    set: Setter,
}

impl Flag {
    const fn new(bit: FlagSet, name: &'static str, value: &'static str, set: Setter) -> Self {
        Self {
            bit,
            name,
            value,
            set,
        }
    }
}

/// Every flag `reproduce` knows.
const FLAGS: [Flag; 13] = [
    Flag::new(QUICK, "--quick", "", |_, _| Ok(())),
    Flag::new(MEDIUM, "--medium", "", |_, _| Ok(())),
    Flag::new(HARTS, "--harts", "N", |o, v| {
        int(v, 1, Some(MAX_HARTS)).map(|n| o.harts = Some(n))
    }),
    Flag::new(JOBS, "--jobs", "N", |o, v| {
        int(v, 1, None).map(|n| o.jobs = Some(n))
    }),
    Flag::new(CSV, "--csv", "<dir>", |o, v| {
        parsed(v).map(|p| o.csv = Some(p))
    }),
    Flag::new(TRACE, "--trace", "<file>", |o, v| {
        parsed(v).map(|p| o.trace = Some(p))
    }),
    Flag::new(SCHEME, "--scheme", "sv39|sv48|sv57", |o, v| {
        parsed(v).map(|s| o.scheme = Some(s))
    }),
    Flag::new(DRAIN, "--drain-policy", "boundary|watermark[:D]", |o, v| {
        parsed(v).map(|p| o.drain_policy = Some(p))
    }),
    Flag::new(SEED, "--seed", "S", |o, v| {
        int(v, 0, None).map(|n| o.seed = Some(n))
    }),
    Flag::new(FAULTS, "--faults", "N", |o, v| {
        int(v, 0, Some(1_000_000)).map(|n| o.faults = Some(n))
    }),
    Flag::new(DEPTH, "--depth", "N", |o, v| {
        int(v, 1, None).map(|n| o.depth = Some(n))
    }),
    Flag::new(OPS, "--ops", "k1,k2,...", |o, v| {
        let kinds = ptstore_modelcheck::parse_op_kinds(v)?;
        if kinds.is_empty() {
            return Err("expected a non-empty comma-separated op list".into());
        }
        o.ops = Some(kinds);
        Ok(())
    }),
    Flag::new(
        ABLATE,
        "--ablate",
        "pmp_s_bit_check|ptw_origin_check|token_checks",
        |o, v| parsed(v).map(|a| o.ablate = Some(a)),
    ),
];

/// One experiment.
struct Experiment {
    name: &'static str,
    /// Whether `all` runs it; `all` runs its members in table order.
    in_all: bool,
    /// The flags it reads; any other flag is rejected.
    flags: FlagSet,
    /// Builds its whole report, so `all` can run members in parallel and
    /// print them in order.
    run: fn(&Opts) -> String,
}

impl Experiment {
    const fn new(
        name: &'static str,
        in_all: bool,
        flags: FlagSet,
        run: fn(&Opts) -> String,
    ) -> Self {
        Self {
            name,
            in_all,
            flags,
            run,
        }
    }
}

/// Every experiment, in `all`'s output order. README.md's flag table is the
/// spec of the flags column: `--quick` applies to every experiment and
/// `--jobs` to every one but `fuzz`.
const EXPERIMENTS: [Experiment; 17] = [
    Experiment::new("all", false, QUICK | HARTS | JOBS | CSV | TRACE, report_all),
    Experiment::new("table1", true, QUICK | JOBS, |_| report_table1()),
    Experiment::new("table2", true, QUICK | JOBS, |_| report_table2()),
    Experiment::new("table3", true, QUICK | JOBS, |_| report_table3()),
    Experiment::new("hwdetail", true, QUICK | JOBS, |_| report_hwdetail()),
    Experiment::new("ltp", true, QUICK | JOBS, report_ltp),
    Experiment::new("fig4", true, QUICK | JOBS | CSV, report_fig4),
    Experiment::new("forkstress", true, QUICK | JOBS, report_stress),
    Experiment::new("fig5", true, QUICK | JOBS | CSV, report_fig5),
    Experiment::new("fig6", true, QUICK | JOBS | CSV, report_fig6),
    Experiment::new("fig7", true, QUICK | JOBS | CSV, report_fig7),
    Experiment::new(
        "security",
        true,
        QUICK | HARTS | JOBS | TRACE | SCHEME,
        report_security,
    ),
    Experiment::new("smp", true, QUICK | HARTS | JOBS, report_smp),
    Experiment::new(
        "c1m",
        false,
        QUICK | MEDIUM | HARTS | JOBS | DRAIN,
        report_c1m,
    ),
    Experiment::new("ablation", false, QUICK | JOBS, report_ablation),
    Experiment::new(
        "fuzz",
        false,
        QUICK | HARTS | SCHEME | SEED | FAULTS,
        report_fuzz,
    ),
    Experiment::new(
        "modelcheck",
        false,
        QUICK | HARTS | JOBS | SCHEME | DRAIN | DEPTH | OPS | ABLATE,
        report_modelcheck,
    ),
];

/// The parsed command line. Each experiment supplies its own default for a
/// flag that was not given.
#[derive(Default)]
struct Opts {
    /// Every flag given, switches included.
    given: FlagSet,
    harts: Option<usize>,
    jobs: Option<usize>,
    csv: Option<PathBuf>,
    trace: Option<PathBuf>,
    scheme: Option<PagingScheme>,
    drain_policy: Option<DrainPolicy>,
    seed: Option<u64>,
    faults: Option<u64>,
    depth: Option<u32>,
    ops: Option<Vec<OpKind>>,
    ablate: Option<Ablation>,
}

impl Opts {
    fn quick(&self) -> bool {
        self.given & QUICK != 0
    }

    fn scale(&self) -> Scale {
        if self.given & MEDIUM != 0 {
            Scale::medium()
        } else if self.quick() {
            Scale::quick()
        } else {
            Scale::paper()
        }
    }

    fn jobs(&self) -> usize {
        self.jobs.unwrap_or(1)
    }
}

/// Parses an integer of at least `min` (and at most `max`).
fn int<T: FromStr + PartialOrd + std::fmt::Display>(
    v: &str,
    min: T,
    max: Option<T>,
) -> Result<T, String> {
    match v.parse::<T>() {
        Ok(n) if n >= min && max.as_ref().is_none_or(|m| n <= *m) => Ok(n),
        _ => Err(match max {
            Some(max) => format!("expected an integer from {min} to {max}, got {v:?}"),
            None => format!("expected an integer of at least {min}, got {v:?}"),
        }),
    }
}

/// Parses a value through its type's `FromStr`.
fn parsed<T: FromStr<Err: std::fmt::Display>>(v: &str) -> Result<T, String> {
    v.parse().map_err(|e: T::Err| e.to_string())
}

/// Prints the usage synopsis, one line per experiment with the flags it
/// reads, to stderr.
fn usage() {
    eprintln!("usage: reproduce [<flag>...] [<experiment>]  (the experiment defaults to all)");
    for e in &EXPERIMENTS {
        let mut line = format!("  {:<10}", e.name);
        for f in FLAGS.iter().filter(|f| e.flags & f.bit != 0) {
            let _ = match f.value {
                "" => write!(line, " [{}]", f.name),
                value => write!(line, " [{} {value}]", f.name),
            };
        }
        eprintln!("{line}");
    }
    eprintln!("README.md's flag table says what each flag does");
}

/// Rejects the invocation with a clear error (exit 2).
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    usage();
    std::process::exit(2);
}

/// Parses the command line against [`FLAGS`] and [`EXPERIMENTS`],
/// rejecting anything the selected experiment cannot carry out before
/// it runs.
fn parse(args: &[String]) -> (&'static Experiment, Opts) {
    let mut opts = Opts::default();
    let mut what: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            usage();
            std::process::exit(0);
        }
        if !arg.starts_with("--") {
            if let Some(first) = what {
                die(&format!(
                    "at most one experiment may be selected, got {first:?} and {arg:?}"
                ));
            }
            what = Some(arg);
            continue;
        }
        let Some(flag) = FLAGS.iter().find(|f| f.name == arg) else {
            die(&format!("unknown flag {arg:?}"));
        };
        let value = if flag.value.is_empty() {
            ""
        } else {
            match it.next() {
                Some(v) if !v.starts_with("--") => v.as_str(),
                _ => die(&format!("{} requires a value", flag.name)),
            }
        };
        if let Err(e) = (flag.set)(&mut opts, value) {
            die(&format!("{}: {e}", flag.name));
        }
        opts.given |= flag.bit;
    }
    let what = what.unwrap_or("all");
    let Some(exp) = EXPERIMENTS.iter().find(|e| e.name == what) else {
        die(&format!("unknown experiment {what:?}"));
    };
    if let Some(f) = FLAGS.iter().find(|f| opts.given & !exp.flags & f.bit != 0) {
        die(&format!("{} does not apply to {what}", f.name));
    }
    if opts.given & (MEDIUM | QUICK) == MEDIUM | QUICK {
        die("--medium and --quick are contradictory: pick one scale");
    }
    (exp, opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (exp, opts) = parse(&args);
    if let Some(dir) = &opts.csv {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(&format!("cannot create csv dir {}: {e}", dir.display()));
        }
    }
    print!("{}", (exp.run)(&opts));
}

/// Runs every member of `all` on the parallel map and joins their reports
/// in table order, whichever thread finished first.
fn report_all(o: &Opts) -> String {
    let suite: Vec<&Experiment> = EXPERIMENTS.iter().filter(|e| e.in_all).collect();
    fan_out(o.jobs(), &suite, |e| (e.run)(o)).concat()
}

/// Writes one figure's overhead series as CSV when `--csv` was given,
/// appending a note to the report.
fn write_series_csv(out: &mut String, o: &Opts, name: &str, series: &[OverheadSeries]) {
    let Some(dir) = &o.csv else {
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
    if let Err(e) = std::fs::write(&path, csv) {
        die(&format!("cannot write csv file {}: {e}", path.display()));
    }
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

fn report_ltp(o: &Opts) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "§V-C: LTP-style regression (output diff between kernels)",
    );
    let r = run_ltp_jobs(&o.scale(), o.jobs());
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

fn report_fig4(o: &Opts) -> String {
    let mut out = String::new();
    let scale = o.scale();
    header(
        &mut out,
        &format!(
            "Figure 4: LMBench microbenchmark overheads ({} iterations)",
            scale.lmbench_iters
        ),
    );
    let series = run_fig4_jobs(&scale, o.jobs());
    series_table(&mut out, &series);
    write_series_csv(&mut out, o, "fig4_lmbench", &series);
    w!(
        out,
        "average: CFI {:.2}%, CFI+PTStore {:.2}% (paper: PTStore adds no significant syscall overhead)",
        average_overhead(&series, "CFI"),
        average_overhead(&series, "CFI+PTStore"),
    );
    out
}

fn report_stress(o: &Opts) -> String {
    let mut out = String::new();
    let scale = o.scale();
    header(
        &mut out,
        &format!(
            "§V-D1: fork stress — {} simultaneous processes (paper: 30,000; 2.84% / 6.83% / 3.77%)",
            scale.stress_procs
        ),
    );
    w!(
        out,
        "{:<18} {:>14} {:>10} {:>12} {:>10} {:>14}",
        "config",
        "cycles",
        "overhead%",
        "adjustments",
        "migrated",
        "region (MiB)"
    );
    for row in run_stress_jobs(&scale, o.jobs()) {
        w!(
            out,
            "{:<18} {:>14} {:>10.2} {:>12} {:>10} {:>14}",
            row.label,
            row.result.cycles,
            row.overhead_pct,
            row.result.adjustments,
            row.result.migrated_pages,
            row.result
                .final_region_size
                .map(|s| (s / (1 << 20)).to_string())
                .unwrap_or_else(|| "-".to_string()),
        );
    }
    out
}

fn report_fig5(o: &Opts) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "Figure 5: SPEC CINT2006 execution-time overheads (paper: <0.91% CFI+PTStore, <0.29% PTStore alone)",
    );
    let series = run_fig5_jobs(&o.scale(), o.jobs());
    series_table(&mut out, &series);
    write_series_csv(&mut out, o, "fig5_spec", &series);
    w!(
        out,
        "average: CFI+PTStore {:.3}% (PTStore-only {:.3}%)",
        average_overhead(&series, "CFI+PTStore"),
        average_overhead(&series, "CFI+PTStore") - average_overhead(&series, "CFI"),
    );
    out
}

fn report_fig6(o: &Opts) -> String {
    let mut out = String::new();
    let scale = o.scale();
    header(
        &mut out,
        &format!(
            "Figure 6: NGINX overheads — {} requests, 100 concurrent (paper: <8.18% incl. CFI, <0.86% PTStore)",
            scale.nginx_requests
        ),
    );
    let series = run_fig6_jobs(&scale, o.jobs());
    series_table(&mut out, &series);
    write_series_csv(&mut out, o, "fig6_nginx", &series);
    w!(
        out,
        "average: CFI+PTStore {:.2}%, PTStore-only {:.2}%",
        average_overhead(&series, "CFI+PTStore"),
        average_overhead(&series, "CFI+PTStore") - average_overhead(&series, "CFI"),
    );
    out
}

fn report_fig7(o: &Opts) -> String {
    let mut out = String::new();
    let scale = o.scale();
    header(
        &mut out,
        &format!(
            "Figure 7: Redis overheads — {} requests/test, 50 connections (paper: <8.18% incl. CFI, <0.86% PTStore)",
            scale.redis_requests
        ),
    );
    let series = run_fig7_jobs(&scale, o.jobs());
    series_table(&mut out, &series);
    write_series_csv(&mut out, o, "fig7_redis", &series);
    w!(
        out,
        "average: CFI+PTStore {:.2}%, PTStore-only {:.2}%",
        average_overhead(&series, "CFI+PTStore"),
        average_overhead(&series, "CFI+PTStore") - average_overhead(&series, "CFI"),
    );
    out
}

fn report_security(o: &Opts) -> String {
    let mut out = String::new();
    let harts = o.harts.unwrap_or(1);
    let scheme = o.scheme.unwrap_or(PagingScheme::Sv39);
    let under = if scheme == PagingScheme::Sv39 {
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
    for report in ptstore_attacks::security_matrix_with(harts, scheme) {
        let tokens = if report.tokens { "" } else { " [tokens off]" };
        w!(out, "{report}{tokens}");
    }
    w!(
        out,
        "=> PTStore (full design) blocks every attack; see EXPERIMENTS.md"
    );

    let Some(path) = o.trace.as_deref() else {
        return out;
    };
    w!(out);
    w!(
        out,
        "-- traced PTStore rows (which check stopped each attack) --"
    );
    let cells = ptstore_attacks::security_matrix_traced();
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
    if let Err(e) = std::fs::write(path, json) {
        die(&format!("cannot write trace file {}: {e}", path.display()));
    }
    w!(out, "(trace written to {})", path.display());
    out
}

fn report_fuzz(o: &Opts) -> String {
    let mut out = String::new();
    let (seed, faults) = (o.seed.unwrap_or(1), o.faults.unwrap_or(70));
    // Two harts by default, so the IPI fault classes have a victim hart.
    let harts = o.harts.unwrap_or(2);
    let under = match o.scheme {
        Some(s) if s != PagingScheme::Sv39 => format!(", {} paging", s.name()),
        _ => String::new(),
    };
    header(
        &mut out,
        &format!(
            "Fuzz campaign: {faults} seeded faults across {harts} hart(s) (ptstore-fault{under})"
        ),
    );
    let mut cfg = if o.quick() {
        // Paranoid mode: the invariant oracle runs after every workload
        // operation, not just at the post-injection checkpoints.
        CampaignConfig::quick(seed, faults, harts)
    } else {
        CampaignConfig::new(seed, faults, harts)
    };
    if let Some(s) = o.scheme {
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

fn report_smp(o: &Opts) -> String {
    let mut out = String::new();
    // `reproduce smp` without --harts compares against a 4-hart machine.
    let harts = o.harts.filter(|&h| h > 1).unwrap_or(4);
    header(
        &mut out,
        &format!("SMP scaling: hart-distributed workloads, 1 vs {harts} harts (CFI+PTStore)"),
    );
    let rows = run_smp_jobs(&o.scale(), harts, o.jobs());
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

fn report_c1m(o: &Opts) -> String {
    let mut out = String::new();
    let scale = o.scale();
    // With one hart there is no remote TLB to shoot down.
    let harts = o.harts.unwrap_or(1).max(2);
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
    let rows = run_c1m_sweep_jobs(&scale, harts, o.jobs(), o.drain_policy);
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
            row.result.watermark_drains,
            row.result.adjustments,
        );
    }
    // The machine-greppable policy trade-off line check.sh and bench.sh
    // parse: per-policy queue peaks and IPI counts.
    let mut sweep = String::from("drain-policy sweep:");
    for r in &rows {
        if let Some(policy) = r.label.strip_prefix("CFI+PTStore batched/") {
            let _ = write!(
                sweep,
                " {policy} maxq={} ipis={}",
                r.result.deferred_queue_peak, r.result.report.shootdown_ipis
            );
        }
    }
    w!(out, "{sweep}");
    w!(
        out,
        "=> batching (deferred shootdowns + magazines) must cut IPIs and wall cycles versus \
         the eager row; policies only move drain placement — watermark must cap maxq below \
         boundary's and coalesce the same pages. All values are modeled — host wall time \
         is measured by scripts/bench.sh"
    );
    out
}

fn report_modelcheck(o: &Opts) -> String {
    let base = McConfig::default();
    let mc = McConfig {
        // The default bound (depth 5, full alphabet, 2 harts) explores
        // well over 10^4 deduped states — the coverage floor check.sh
        // gates on; --quick trades coverage for a seconds-scale smoke
        // run.
        depth: o.depth.unwrap_or(if o.quick() { 3 } else { base.depth }),
        kinds: o.ops.clone().unwrap_or(base.kinds),
        ablate: o.ablate,
        harts: o.harts.unwrap_or(2),
        scheme: o.scheme.unwrap_or(base.scheme),
        drain_policy: o.drain_policy.or(base.drain_policy),
        jobs: o.jobs(),
        max_states: base.max_states,
    };
    ptstore_modelcheck::explore(&mc).summary()
}

fn report_ablation(o: &Opts) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "Ablations: initial secure-region size and defense mode (cycle model)",
    );
    let (sweep, modes) = run_ablation(o.jobs());
    w!(
        out,
        "-- initial secure-region size sweep ({ABLATION_STRESS_PROCS}-process fork stress; overhead vs CFI alone) --"
    );
    for row in &sweep {
        w!(
            out,
            "initial {:>3} MiB: overhead {:>6.2}%  adjustments {:>2}",
            row.initial_mib,
            row.overhead_pct,
            row.adjustments
        );
    }
    w!(
        out,
        "-- defense-mode fork cost ({ABLATION_FORKS} fork+exit rounds; overhead vs no defense) --"
    );
    for (defense, pct) in &modes {
        w!(
            out,
            "{:<20} fork+exit overhead {pct:>7.2}%",
            defense.to_string()
        );
    }
    out
}
