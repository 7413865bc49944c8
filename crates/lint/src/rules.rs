//! The four workspace rules. Each mirrors one guarantee of the paper's
//! hardware/compiler contract; see `DESIGN.md` for the mapping.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::CallGraph;
use crate::lexer::Tok;
use crate::model::{MarkerKind, ParsedFile, SourceFile};

/// Rule identifier: raw bus/physmem access outside the channel module.
pub const RULE_CHANNEL: &str = "channel-confinement";
/// Rule identifier: downgrading PT writes must reach a TLB flush.
pub const RULE_SHOOTDOWN: &str = "shootdown-pairing";
/// Rule identifier: `#[allow]` attributes need a justification comment.
pub const RULE_ALLOW: &str = "allow-justification";
/// Rule identifier: security-verdict enums need full test coverage.
pub const RULE_EXHAUSTIVE: &str = "test-exhaustiveness";

/// One reported problem.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// Analyzer configuration. [`Config::default`] encodes the real workspace
/// contract; tests substitute narrower configs for fixtures.
#[derive(Debug, Clone)]
pub struct Config {
    /// The crate whose page-table discipline rules 1 and 2 police.
    pub kernel_crate: String,
    /// File suffixes (within the kernel crate) where raw access is legal.
    pub channel_modules: Vec<String>,
    /// Receiver identifiers whose `read`/`write`-like methods are raw.
    pub bus_receivers: Vec<String>,
    /// Methods on a bus receiver that constitute raw access.
    pub bus_methods: Vec<String>,
    /// Identifiers that are raw on their own, any receiver.
    pub raw_idents: Vec<String>,
    /// The channel accessor whose downgrade writes rule 2 pairs with.
    pub pt_write_fn: String,
    /// Functions that satisfy the pairing when reachable.
    pub flush_fns: Vec<String>,
    /// Exhaustiveness targets: enum name → crate expected to define it.
    pub exhaustive_enums: Vec<(String, String)>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            kernel_crate: "ptstore-kernel".into(),
            channel_modules: vec!["src/channel.rs".into()],
            bus_receivers: vec!["bus".into(), "Bus".into()],
            bus_methods: vec![
                "read".into(),
                "write".into(),
                "install_secure_region".into(),
                "update_secure_region".into(),
            ],
            raw_idents: vec!["mem_unchecked".into(), "pmp_mut".into()],
            pt_write_fn: "pt_write".into(),
            flush_fns: vec![
                "tlb_flush_page".into(),
                "tlb_flush_asid".into(),
                // Batched-shootdown API: queueing defers only the remote
                // broadcast (the local invalidation stays eager), and every
                // security boundary force-drains, so a downgrade reaching
                // either side of the deferred path is coherent.
                "queue_flush_page".into(),
                "drain_deferred_flushes".into(),
                // Drain-policy entry points: a watermark trigger or an
                // ASID-recycle guard both end in `drain_deferred_flushes`,
                // so reaching them satisfies the pairing too.
                "maybe_watermark_drain".into(),
                "drain_on_asid_recycle".into(),
            ],
            exhaustive_enums: vec![
                ("FaultClass".into(), "ptstore-trace".into()),
                ("AttackOutcome".into(), "ptstore-attacks".into()),
                ("BlockedBy".into(), "ptstore-attacks".into()),
                ("Violation".into(), "ptstore-fault".into()),
                ("PagingScheme".into(), "ptstore-core".into()),
                ("PageSize".into(), "ptstore-core".into()),
                ("DrainPolicy".into(), "ptstore-kernel".into()),
                // The model checker's verdict: a search outcome nobody
                // tests for (e.g. the Truncated state-cap path) is a
                // security result nobody would notice regressing.
                ("ModelVerdict".into(), "ptstore-modelcheck".into()),
            ],
        }
    }
}

/// Parses `files` and runs every rule; returns findings sorted by
/// `(file, line, rule, message)` — the binary's output order.
pub fn analyze(files: Vec<SourceFile>, cfg: &Config) -> Vec<Finding> {
    let parsed: Vec<ParsedFile> = files.into_iter().map(ParsedFile::parse).collect();
    let mut findings = Vec::new();
    findings.extend(rule_channel_confinement(&parsed, cfg));
    findings.extend(rule_shootdown_pairing(&parsed, cfg));
    findings.extend(rule_allow_justification(&parsed));
    findings.extend(rule_test_exhaustiveness(&parsed, cfg));
    findings.sort();
    findings.dedup();
    findings
}

/// Rule 1 — **channel confinement** (§IV-C2's LLVM pass, at source level).
///
/// Inside the kernel crate, raw `Bus`/`PhysMem` access — `bus.read`,
/// `bus.write`, `mem_unchecked`, `pmp_mut`, and the PMP-programming
/// firmware entry points — may appear only in the allowlisted channel
/// module(s). Anywhere else requires a justified
/// `// ptstore-lint: allow(channel-confinement) — why` marker.
fn rule_channel_confinement(parsed: &[ParsedFile], cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in parsed {
        if f.src.crate_name != cfg.kernel_crate || f.src.is_test {
            continue;
        }
        if cfg.channel_modules.iter().any(|m| f.src.path.ends_with(m)) {
            continue;
        }
        for i in 0..f.toks.len() {
            let Tok::Ident(name) = &f.toks[i].tok else {
                continue;
            };
            let hit = if cfg.raw_idents.contains(name) {
                Some(format!("raw physical-memory accessor `{name}`"))
            } else if cfg.bus_receivers.contains(name) {
                // `bus.read`, `bus.write::<..>`, `Bus::write`, ...
                let (sep_len, method) = match f.toks.get(i + 1).map(|t| &t.tok) {
                    Some(Tok::Punct('.')) => (2, f.toks.get(i + 2)),
                    Some(Tok::Punct(':'))
                        if matches!(f.toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(':'))) =>
                    {
                        (3, f.toks.get(i + 3))
                    }
                    _ => (0, None),
                };
                let _ = sep_len;
                match method.map(|t| &t.tok) {
                    Some(Tok::Ident(m)) if cfg.bus_methods.contains(m) => {
                        Some(format!("raw bus access `{name}`…`{m}`"))
                    }
                    _ => None,
                }
            } else {
                None
            };
            let Some(what) = hit else { continue };
            if f.in_test_span(i) {
                continue;
            }
            let line = f.toks[i].line;
            if f.allow_marker_for(RULE_CHANNEL, line).is_some() {
                continue;
            }
            out.push(Finding {
                file: f.src.path.clone(),
                line,
                rule: RULE_CHANNEL,
                message: format!(
                    "{what} outside the channel module; route it through \
                     `pt_read`/`pt_write`/the channel accessors, or add a justified \
                     `ptstore-lint: allow({RULE_CHANNEL})` marker"
                ),
            });
        }
    }
    out
}

/// Rule 2 — **shootdown pairing** (TLB coherence; the SMP hazard class).
///
/// A kernel function containing a *permission-reducing or invalidating*
/// `pt_write` — one whose arguments invoke `Pte::invalid`, whose enclosing
/// function strips `PteFlags::W` via `without`, or one tagged with a
/// `ptstore-lint: hazard(shootdown-pairing)` marker — must reach one of
/// the configured flush functions on some call-graph path: the eager
/// `tlb_flush_page`/`tlb_flush_asid`, or the batched `queue_flush_page`/
/// `drain_deferred_flushes` pair (queueing keeps the local invalidation
/// eager and defers only the remote broadcast).
fn rule_shootdown_pairing(parsed: &[ParsedFile], cfg: &Config) -> Vec<Finding> {
    let kernel_files: Vec<&ParsedFile> = parsed
        .iter()
        .filter(|f| f.src.crate_name == cfg.kernel_crate && !f.src.is_test)
        .collect();
    if kernel_files.is_empty() {
        return Vec::new();
    }
    let flush: Vec<&str> = cfg.flush_fns.iter().map(String::as_str).collect();
    // Flush helpers are sinks: calls to them count even if their definition
    // lives outside the scanned files.
    let graph = CallGraph::build_with_sinks(kernel_files.iter().copied(), &flush);
    let mut out = Vec::new();
    for f in &kernel_files {
        for item in &f.fns {
            if item.in_test {
                continue;
            }
            // `without(..PteFlags..W..)` anywhere in the body marks the
            // function as downgrade-shaped.
            let body = &f.toks[item.body.clone()];
            let strips_w = body.windows(2).any(|w| {
                matches!(&w[0].tok, Tok::Ident(s) if s == "without")
                    && matches!(w[1].tok, Tok::Punct('('))
            }) && body.windows(4).any(|w| path_is(w, "PteFlags", "W"));
            for i in item.body.clone() {
                if !matches!(&f.toks[i].tok, Tok::Ident(s) if *s == cfg.pt_write_fn) {
                    continue;
                }
                if !matches!(f.toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) {
                    continue;
                }
                let line = f.toks[i].line;
                let args_end = matching_paren(&f.toks, i + 1);
                let invalidating = f.toks[i + 1..args_end]
                    .windows(4)
                    .any(|w| path_is(w, "Pte", "invalid"));
                let tagged = f.markers.iter().any(|m| {
                    m.kind == MarkerKind::Hazard
                        && m.rule == RULE_SHOOTDOWN
                        && m.target_line == line
                });
                if !(invalidating || strips_w || tagged) {
                    continue;
                }
                if graph.reaches_any(&item.name, &flush) {
                    continue;
                }
                if f.allow_marker_for(RULE_SHOOTDOWN, line).is_some() {
                    continue;
                }
                out.push(Finding {
                    file: f.src.path.clone(),
                    line,
                    rule: RULE_SHOOTDOWN,
                    message: format!(
                        "`{}` performs a permission-reducing/invalidating `{}` but reaches \
                         none of [{}] on any call-graph path — stale TLB hazard",
                        item.name,
                        cfg.pt_write_fn,
                        cfg.flush_fns.join(", ")
                    ),
                });
            }
        }
    }
    out
}

/// True when a 4-token window spells `head::tail`.
fn path_is(w: &[crate::lexer::SpannedTok], head: &str, tail: &str) -> bool {
    matches!(
        (&w[0].tok, &w[1].tok, &w[2].tok, &w[3].tok),
        (Tok::Ident(h), Tok::Punct(':'), Tok::Punct(':'), Tok::Ident(t))
            if h == head && t == tail
    )
}

/// Index of the `)` matching the `(` at `open` (or stream end).
fn matching_paren(toks: &[crate::lexer::SpannedTok], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

/// Rule 3 — **allow-attribute hygiene**.
///
/// Every `#[allow(...)]`/`#![allow(...)]` in the workspace must carry a
/// justification: a non-doc `//` comment trailing on the attribute's line
/// or sitting on the line directly above it.
fn rule_allow_justification(parsed: &[ParsedFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in parsed {
        for a in &f.allows {
            let justified = f.comments.iter().any(|c| {
                !c.doc
                    && !c.text.trim().is_empty()
                    && (c.end_line == a.end_line || c.end_line + 1 == a.line)
            });
            if justified {
                continue;
            }
            out.push(Finding {
                file: f.src.path.clone(),
                line: a.line,
                rule: RULE_ALLOW,
                message: format!(
                    "`#[allow({})]` without a justification comment (add `// why` on the \
                     attribute line or the line above)",
                    a.lints
                ),
            });
        }
    }
    out
}

/// Rule 4 — **exhaustiveness**: every variant of the configured
/// security-verdict enums (injector fault classes, attack verdicts, reject
/// reasons, oracle violations) must be referenced as `Enum::Variant` by at
/// least one test.
fn rule_test_exhaustiveness(parsed: &[ParsedFile], cfg: &Config) -> Vec<Finding> {
    // Collect enum definitions from non-test code of the expected crates.
    let mut defs: BTreeMap<&str, (&ParsedFile, &crate::model::EnumItem)> = BTreeMap::new();
    for f in parsed {
        if f.src.is_test {
            continue;
        }
        for e in &f.enums {
            for (name, krate) in &cfg.exhaustive_enums {
                if e.name == *name && f.src.crate_name == *krate {
                    defs.entry(name.as_str()).or_insert((f, e));
                }
            }
        }
    }
    // Collect `Enum::Variant` references appearing in test code anywhere.
    let mut test_refs: BTreeSet<(String, String)> = BTreeSet::new();
    for f in parsed {
        for i in 0..f.toks.len().saturating_sub(3) {
            if !(f.src.is_test || f.in_test_span(i)) {
                continue;
            }
            if let (Tok::Ident(e), Tok::Punct(':'), Tok::Punct(':'), Tok::Ident(v)) = (
                &f.toks[i].tok,
                &f.toks[i + 1].tok,
                &f.toks[i + 2].tok,
                &f.toks[i + 3].tok,
            ) {
                test_refs.insert((e.clone(), v.clone()));
            }
        }
    }
    let mut out = Vec::new();
    for (name, krate) in &cfg.exhaustive_enums {
        let Some((f, e)) = defs.get(name.as_str()) else {
            out.push(Finding {
                file: format!("crates ({krate})"),
                line: 0,
                rule: RULE_EXHAUSTIVE,
                message: format!(
                    "exhaustiveness target enum `{name}` not found in crate `{krate}` \
                     (moved or renamed? update the lint config)"
                ),
            });
            continue;
        };
        for (variant, line) in &e.variants {
            if test_refs.contains(&(name.clone(), variant.clone())) {
                continue;
            }
            out.push(Finding {
                file: f.src.path.clone(),
                line: *line,
                rule: RULE_EXHAUSTIVE,
                message: format!(
                    "`{name}::{variant}` is referenced by no test — every injector fault \
                     site / verdict / reject reason needs at least one test exercising it"
                ),
            });
        }
    }
    out
}
