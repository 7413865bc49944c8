//! Collates the committed `BENCH_PR*.json` host-performance artifacts into
//! one trajectory table (or collated JSON with `--json`).
//!
//! ```text
//! bench_history [--dir <path>] [--json]
//! ```
//!
//! Each committed `BENCH_PR<N>.json` at the repo root is one recorded
//! `scripts/bench.sh` run (the script writes `target/bench.json`): host
//! wall-clock for the quick suite, the SMP grid, and (since PR 8) the C1M
//! churn workload. This binary reads every such artifact in `--dir`
//! (default: the current directory), orders them by PR number, and prints
//! the cross-PR trajectory — the "charting" half of the
//! performance-tracking story, with `scripts/bench.sh` as the measuring
//! half. Output is fully determined by the artifact files: no timestamps,
//! no host information, so reruns are byte-identical and `check.sh` can
//! smoke-test it.
//!
//! The artifacts' schemas drifted as the harness grew (PR 3 predates the
//! pooled runner and C1M), so missing fields print as `-` rather than
//! failing: the table is a union of what each PR measured. JSON parsing is
//! hand-rolled below — the workspace deliberately vendors no JSON
//! dependency, and the subset these artifacts use (objects, strings,
//! numbers) is small.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value — just the subset the bench artifacts use.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered, matching the artifact layout.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` on an object.
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// `a.b.c` chained lookup returning a number.
    fn num_at(&self, path: &[&str]) -> Option<f64> {
        let mut v = self;
        for key in path {
            v = v.get(key)?;
        }
        v.num()
    }
}

/// Recursive-descent parser over the artifact bytes.
struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            s: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .s
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.s
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != b {
            return Err(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("expected {word:?} at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                got => return Err(format!("expected ',' or '}}', got {:?}", got as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                got => return Err(format!("expected ',' or ']', got {:?}", got as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.s.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .s
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                    self.pos += 1;
                }
                Some(&b) => {
                    out.push(b as char);
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .s
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = core::str::from_utf8(&self.s[start..self.pos]).expect("ascii");
        text.parse()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

/// Parses a whole artifact, requiring nothing but trailing whitespace after
/// the top-level value.
fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.s.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// One PR's artifact, reduced to the trajectory columns.
struct Row {
    pr: u64,
    file: String,
    jobs: Option<f64>,
    wall_ms: Option<f64>,
    single_ms: Option<f64>,
    c1m_quick_cps: Option<f64>,
    c1m_medium_cps: Option<f64>,
    jobs_speedup: Option<f64>,
    vs_baseline: Option<f64>,
}

impl Row {
    fn from_json(pr: u64, file: String, v: &Json) -> Row {
        let quick = v.get("quick_all_ms");
        // PR 3 predates the single/pooled naming; its own-binary 1-job time
        // is the fast-path configuration it shipped.
        let single_ms = quick
            .and_then(|q| q.get("single_1job").or_else(|| q.get("fast_path_1job")))
            .and_then(Json::num);
        let speed = v.get("speedup");
        // The suite-level PR-over-baseline speedup was renamed between
        // PR 3 ("total") and the pooled harness ("threaded_quick_suite").
        let vs_baseline = speed
            .and_then(|s| s.get("threaded_quick_suite").or_else(|| s.get("total")))
            .and_then(Json::num);
        Row {
            pr,
            file,
            jobs: v.num_at(&["jobs"]),
            wall_ms: v.num_at(&["wall_ms"]),
            single_ms,
            c1m_quick_cps: v.num_at(&["c1m_quick", "connections_per_host_sec"]),
            c1m_medium_cps: v.num_at(&["c1m_medium", "connections_per_host_sec"]),
            jobs_speedup: speed.and_then(|s| s.get("jobs")).and_then(Json::num),
            vs_baseline,
        }
    }
}

/// `-` for a missing column, integer rendering for counts.
fn int_cell(v: Option<f64>) -> String {
    v.map(|n| format!("{n:.0}")).unwrap_or_else(|| "-".into())
}

/// `-` for a missing column, fixed-point for ratios.
fn ratio_cell(v: Option<f64>) -> String {
    v.map(|n| format!("{n:.3}x")).unwrap_or_else(|| "-".into())
}

/// JSON rendering of an optional number (null when absent).
fn json_num(v: Option<f64>) -> String {
    match v {
        Some(n) if n.fract() == 0.0 => format!("{n:.0}"),
        Some(n) => format!("{n}"),
        None => "null".into(),
    }
}

fn main() {
    let mut dir = String::from(".");
    let mut as_json = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dir" => match it.next() {
                Some(d) => dir = d.clone(),
                None => die("--dir requires a value"),
            },
            "--json" => as_json = true,
            "--help" | "-h" => {
                eprintln!("usage: bench_history [--dir <path>] [--json]");
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    // BTreeMap keys the rows by PR number, so the trajectory reads in
    // merge order whatever order the directory listing produced.
    let mut rows: BTreeMap<u64, Row> = BTreeMap::new();
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) => die(&format!("cannot read {dir:?}: {e}")),
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(pr) = name
            .strip_prefix("BENCH_PR")
            .and_then(|r| r.strip_suffix(".json"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        let text = match std::fs::read_to_string(entry.path()) {
            Ok(t) => t,
            Err(e) => die(&format!("cannot read {name}: {e}")),
        };
        match parse(&text) {
            Ok(v) => {
                rows.insert(pr, Row::from_json(pr, name, &v));
            }
            Err(e) => die(&format!("{name}: {e}")),
        }
    }
    if rows.is_empty() {
        die(&format!("no BENCH_PR*.json artifacts found in {dir:?}"));
    }

    if as_json {
        print!("{}", render_json(&rows));
    } else {
        print!("{}", render_table(&rows));
    }
}

/// The human-readable trajectory table.
fn render_table(rows: &BTreeMap<u64, Row>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "host-performance trajectory ({} artifacts; scripts/bench.sh measures, this collates)",
        rows.len()
    );
    let _ = writeln!(
        out,
        "{:<6} {:>5} {:>9} {:>10} {:>12} {:>13} {:>9} {:>12}",
        "PR",
        "jobs",
        "wall ms",
        "single ms",
        "c1m conn/s",
        "c1m-med c/s",
        "jobs spd",
        "vs baseline"
    );
    for row in rows.values() {
        let _ = writeln!(
            out,
            "{:<6} {:>5} {:>9} {:>10} {:>12} {:>13} {:>9} {:>12}",
            format!("PR{}", row.pr),
            int_cell(row.jobs),
            int_cell(row.wall_ms),
            int_cell(row.single_ms),
            int_cell(row.c1m_quick_cps),
            int_cell(row.c1m_medium_cps),
            ratio_cell(row.jobs_speedup),
            ratio_cell(row.vs_baseline),
        );
    }
    // The headline trajectory: C1M throughput across the PRs that measured
    // it, charting progress toward the paper's one-million-connection run.
    let cps: Vec<String> = rows
        .values()
        .filter_map(|r| {
            r.c1m_medium_cps
                .or(r.c1m_quick_cps)
                .map(|n| format!("{n:.0}"))
        })
        .collect();
    if !cps.is_empty() {
        let _ = writeln!(out, "c1m connections-per-host-second: {}", cps.join(" -> "));
    }
    out
}

/// The collated machine-readable artifact.
fn render_json(rows: &BTreeMap<u64, Row>) -> String {
    let mut out = String::from("{\n  \"history\": [\n");
    for (i, row) in rows.values().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{ \"pr\": {}, \"file\": \"{}\", \"jobs\": {}, \"wall_ms\": {}, \
             \"single_ms\": {}, \"c1m_quick_conn_per_sec\": {}, \
             \"c1m_medium_conn_per_sec\": {}, \"jobs_speedup\": {}, \
             \"vs_baseline_speedup\": {} }}{sep}",
            row.pr,
            row.file,
            json_num(row.jobs),
            json_num(row.wall_ms),
            json_num(row.single_ms),
            json_num(row.c1m_quick_cps),
            json_num(row.c1m_medium_cps),
            json_num(row.jobs_speedup),
            json_num(row.vs_baseline),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Rejects the invocation with a clear error (exit 2).
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
