//! The three workspace rules. Each mirrors one guarantee of the paper's
//! hardware/compiler contract; see `DESIGN.md` for the mapping.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::Tok;
use crate::model::{ParsedFile, SourceFile};

/// Rule identifier: raw bus/physmem access outside the channel module.
pub const RULE_CHANNEL: &str = "channel-confinement";
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
    /// The crate whose channel discipline rule 1 polices.
    pub kernel_crate: String,
    /// File suffixes (within the kernel crate) where raw access is legal.
    pub channel_modules: Vec<String>,
    /// Receiver identifiers whose `read`/`write`-like methods are raw.
    pub bus_receivers: Vec<String>,
    /// Methods on a bus receiver that constitute raw access.
    pub bus_methods: Vec<String>,
    /// Identifiers that are raw on their own, any receiver.
    pub raw_idents: Vec<String>,
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
            exhaustive_enums: vec![
                ("FaultClass".into(), "ptstore-trace".into()),
                ("AttackOutcome".into(), "ptstore-attacks".into()),
                ("BlockedBy".into(), "ptstore-attacks".into()),
                ("Violation".into(), "ptstore-fault".into()),
                ("PagingScheme".into(), "ptstore-core".into()),
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
                let method = match f.toks.get(i + 1).map(|t| &t.tok) {
                    Some(Tok::Punct('.')) => f.toks.get(i + 2),
                    Some(Tok::Punct(':'))
                        if matches!(f.toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(':'))) =>
                    {
                        f.toks.get(i + 3)
                    }
                    _ => None,
                };
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
                     `pt_read`/`pt_install`/`pt_replace`/the channel accessors, or add a justified \
                     `ptstore-lint: allow({RULE_CHANNEL})` marker"
                ),
            });
        }
    }
    out
}

/// Rule 2 — **allow-attribute hygiene**.
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

/// Rule 3 — **exhaustiveness**: every variant of the configured
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
