//! The repository benchmark for the PTStore model.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --anchors
//! ```
//!
//! A run repeats rounds of the workload — each a fresh set-up followed by a
//! timed phase over the same seeded inputs — until the timed phases add up
//! to `--seconds`, checks every round's output, and prints one JSON line.
//! A host-speed reference loop is timed before and after every round, and
//! host timings are reported scaled to the host's undisturbed speed.
//! Untraced (`--trace 0`) it reports the end-to-end metrics; traced
//! (`--trace 1`) it spends half the time untraced and half with a span
//! around every call into the simulator, reports the per-layer metrics,
//! and writes the first traced round's spans to
//! `.bench_out/<workload>-seed<n>-spans.csv`. `--anchors` checks the
//! canonical unseeded shapes against `reproduce`'s current output. See
//! `perfbench/README.md`.

mod calib;
mod drive;
mod forkstorm;
mod mc;
mod report;
mod rng;
mod scan;
mod stats;
mod tenant;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use drive::{Counts, Round};
use report::{END_TO_END, PER_LAYER};
use stats::quantile;
use trace::{NoProbe, Probe, Tracer};

/// Tenant slots × churn rounds of a `tenant-churn` round.
const TENANTS: (u64, u64) = (150, 8);
/// Processes of a `fork-storm` round.
const STORM: u32 = 5_000;
/// Batches of a `translate-scan` round.
const SCAN_BATCHES: usize = 2_048;
/// Rounds an untraced run makes at least.
const MIN_ROUNDS: usize = 3;
/// Wall-clock cap on one pass, whatever `--seconds` asks for.
const MAX_PASS_S: f64 = 75.0;

/// A workload with its seeded inputs.
enum Workload {
    TenantChurn(tenant::Plan),
    ForkStorm(forkstorm::Plan),
    TranslateScan(scan::Plan),
    ModelcheckBfs(Vec<ptstore_modelcheck::OpKind>),
}

impl Workload {
    const NAMES: [&'static str; 4] = [
        "tenant-churn",
        "fork-storm",
        "translate-scan",
        "modelcheck-bfs",
    ];

    fn new(name: &str, seed: u64) -> Option<Self> {
        Some(match name {
            "tenant-churn" => Self::TenantChurn(tenant::Plan::seeded(seed, TENANTS.0, TENANTS.1)),
            "fork-storm" => Self::ForkStorm(forkstorm::Plan::seeded(seed, STORM)),
            "translate-scan" => Self::TranslateScan(scan::Plan::seeded(seed, SCAN_BATCHES)),
            "modelcheck-bfs" => Self::ModelcheckBfs(mc::seeded_kinds(seed)),
            _ => return None,
        })
    }

    fn round<P: Probe>(&self, index: usize, probe: &mut P) -> Round {
        match self {
            Self::TenantChurn(plan) => {
                tenant::round(plan, tenant::config(tenant::GEOMETRY), probe).0
            }
            Self::ForkStorm(plan) => forkstorm::round(plan, probe).0,
            Self::TranslateScan(plan) => scan::round(plan, probe),
            Self::ModelcheckBfs(kinds) => mc::round(kinds, index == 0, probe),
        }
    }
}

/// The rounds of one pass, stopped at the first failed round.
struct Pass {
    /// Every round, its count metrics dropped once compared.
    rounds: Vec<Round>,
    /// The host's slowdown during each round: the geometric mean of the
    /// reference's slowdown before and after it.
    slowdowns: Vec<f64>,
    /// The count metrics and modeled cycles per unit of the first round
    /// that measured them.
    counts: Counts,
    cycles_per_unit: f64,
    /// Failed checks of every round, and a count mismatch between rounds.
    problems: Vec<String>,
}

impl Pass {
    fn run<P: Probe>(w: &Workload, probe: &mut P, seconds: f64, min_rounds: usize) -> Self {
        let started = Instant::now();
        let mut pass = Pass {
            rounds: Vec::new(),
            slowdowns: Vec::new(),
            counts: Counts::new(),
            cycles_per_unit: 0.0,
            problems: Vec::new(),
        };
        let mut timed = 0.0;
        let mut before = calib::slowdown();
        while pass.rounds.len() < min_rounds || timed < seconds {
            if !pass.rounds.is_empty() && started.elapsed().as_secs_f64() > MAX_PASS_S {
                break;
            }
            probe.begin_run(pass.rounds.len() as u32);
            let mut r = w.round(pass.rounds.len(), probe);
            probe.end_run();
            let after = calib::slowdown();
            pass.slowdowns.push((before * after).sqrt());
            before = after;
            timed += r.timed_s;
            pass.problems.append(&mut r.problems);
            // Rounds that measured no counts (later model-checking rounds)
            // are skipped; the rest must all agree.
            if pass.counts.is_empty() {
                pass.counts = std::mem::take(&mut r.counts);
                pass.cycles_per_unit = r.cycles_per_unit;
            } else if !r.counts.is_empty()
                && (r.counts != pass.counts || r.cycles_per_unit != pass.cycles_per_unit)
            {
                pass.problems
                    .push("count metrics differ between rounds".into());
            }
            r.counts.clear();
            pass.rounds.push(r);
            if !pass.problems.is_empty() {
                break;
            }
        }
        pass
    }

    /// Units per second at the host's undisturbed speed: the median over
    /// rounds of each round's rate times the host's slowdown during it.
    fn units_per_s(&self) -> f64 {
        let scaled: Vec<f64> = self
            .rates()
            .iter()
            .zip(&self.slowdowns)
            .map(|(r, s)| r * s)
            .collect();
        quantile(&scaled, 50.0)
    }

    /// Seconds of one set-up at the host's undisturbed speed: the median
    /// over every set-up of each one's time over the host's slowdown.
    fn setup_s(&self) -> f64 {
        let scaled: Vec<f64> = self
            .rounds
            .iter()
            .zip(&self.slowdowns)
            .flat_map(|(r, s)| r.setups.iter().map(move |t| t / s))
            .collect();
        quantile(&scaled, 50.0)
    }

    /// Unscaled units per second of each round.
    fn rates(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| r.units as f64 / r.timed_s)
            .collect()
    }

    fn calls(&self) -> (u64, u64) {
        self.rounds
            .iter()
            .fold((0, 0), |(a, f), r| (a + r.calls, f + r.failed))
    }
}

/// Host peak resident memory of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--anchors" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !Workload::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {:?})",
            Workload::NAMES
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds as f64,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return anchors(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = Workload::new(&args.workload, args.seed).expect("validated workload name");
    let (correct, line) = if args.trace {
        traced(&w, &args)
    } else {
        untraced(&w, &args)
    };
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reports problems and folds them into the attempted/failed counts.
fn verdict(workload: &str, problems: &[String], calls: (u64, u64)) -> (bool, u64, u64) {
    for p in problems {
        eprintln!("perfbench: {workload}: check failed: {p}");
    }
    let correct = problems.is_empty() && calls.1 == 0;
    let attempted = calls.0.max(1);
    (correct, attempted, if correct { 0 } else { attempted })
}

/// Runs untraced; returns whether every check passed, and the JSON line.
fn untraced(w: &Workload, args: &Args) -> (bool, String) {
    let pass = Pass::run(w, &mut NoProbe, args.seconds, MIN_ROUNDS);
    let (correct, attempted, failed) = verdict(&args.workload, &pass.problems, pass.calls());
    let values = [
        pass.units_per_s(),
        pass.setup_s(),
        peak_rss_mib(),
        pass.cycles_per_unit,
        1.0 - failed as f64 / attempted as f64,
    ];
    eprintln!(
        "perfbench: {} seed {}: {} rounds, {:.1} units/s scaled, {:.1} unscaled, host slowdown {:.3} (medians)",
        args.workload,
        args.seed,
        pass.rounds.len(),
        values[0],
        quantile(&pass.rates(), 50.0),
        quantile(&pass.slowdowns, 50.0),
    );
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    (
        correct,
        report::json_line(correct, attempted, failed, &metrics),
    )
}

/// Runs half untraced, half traced; returns as [`untraced`] does.
fn traced(w: &Workload, args: &Args) -> (bool, String) {
    let half = args.seconds / 2.0;
    let plain = Pass::run(w, &mut NoProbe, half, 1);
    let mut tracer = Tracer::new();
    let spanned = Pass::run(w, &mut tracer, half, 1);
    let mut problems = plain.problems.clone();
    problems.extend(spanned.problems.iter().cloned());
    if (&plain.counts, plain.cycles_per_unit) != (&spanned.counts, spanned.cycles_per_unit) {
        problems.push("count metrics differ between the traced and untraced runs".into());
    }
    let (a, f) = plain.calls();
    let (b, g) = spanned.calls();
    let (correct, attempted, failed) = verdict(&args.workload, &problems, (a + b, f + g));
    let overhead = spanned.units_per_s() / plain.units_per_s();
    let values = report::per_layer(&tracer, &spanned.counts, overhead);
    write_spans(&tracer, args);
    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values[name], unit))
        .collect();
    (
        correct,
        report::json_line(correct, attempted, failed, &metrics),
    )
}

/// Writes the kept spans under `.bench_out/` in the working directory.
fn write_spans(tracer: &Tracer, args: &Args) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{}-seed{}-spans.csv", args.workload, args.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            tracer.write_csv(&mut out)?;
            std::io::Write::flush(&mut out)
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Checks each workload at its canonical unseeded shape against the figures
/// `reproduce` prints.
fn anchors() -> ExitCode {
    let mut ok = true;
    let mut report = |what: &str, got: String, want: String| {
        let pass = got == want;
        ok &= pass;
        println!(
            "{} {what}: {got}{}",
            if pass { "ok  " } else { "FAIL" },
            if pass {
                String::new()
            } else {
                format!(" (want {want})")
            }
        );
    };
    for (shape, (tenants, rounds, conns), geometry, want) in [
        (
            "--medium c1m",
            (150, 8, 50),
            tenant::GEOMETRY,
            (446_064_574u64, 3_600u64),
        ),
        (
            "c1m",
            (500, 20, 100),
            (4 * ptstore_core::GIB, 64 * ptstore_core::MIB),
            (7_299_135_954, 70_000),
        ),
    ] {
        let plan = tenant::Plan::canonical(tenants, rounds, conns);
        let (r, m) = tenant::round(&plan, tenant::config(geometry), &mut NoProbe);
        report(
            &format!(
                "tenant-churn = reproduce {shape} CFI+PTStore batched/boundary (wall cycles, IPIs)"
            ),
            format!("{:?} {:?}", (m.wall_cycles, m.ipis), r.problems),
            format!("{:?} []", want),
        );
    }
    let (r, m) = forkstorm::round(&forkstorm::Plan::canonical(30_000), &mut NoProbe);
    report(
        "fork-storm = reproduce forkstress CFI+PTStore (cycles, adjustments)",
        format!("{:?} {:?}", (m.cycles, m.adjustments), r.problems),
        format!("{:?} []", (434_639_726u64, 33u64)),
    );
    let mcfg = mc::search(ptstore_modelcheck::OpKind::ALL.to_vec(), 4);
    let rep = ptstore_modelcheck::explore(&mcfg);
    let bfs = mc::bfs(&mcfg, &mut NoProbe);
    let want = (5_168u64, 17_670u64, 0x4da3_4773_42b5_3fdeu64);
    report(
        "modelcheck-bfs = reproduce modelcheck --depth 4 (states, transitions, hash)",
        format!(
            "{:?}",
            (rep.states, rep.transitions, rep.exploration_digest)
        ),
        format!("{want:?}"),
    );
    report(
        "modelcheck-bfs outside BFS (states, transitions, hash)",
        format!("{:?}", (bfs.states(), bfs.transitions, bfs.hash)),
        format!("{want:?}"),
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
