//! The per-file source model: enums with variants, `#[allow]` attributes,
//! `#[cfg(test)]` regions, and `ptstore-lint: allow(...)` markers — all
//! extracted from the flat token stream of [`crate::lexer`].

use crate::lexer::{lex, Comment, Lexed, SpannedTok, Tok};

/// One input file handed to the analyzer.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Cargo package name the file belongs to (e.g. `ptstore-kernel`), or a
    /// synthetic name for workspace-level files.
    pub crate_name: String,
    /// Repo-relative path, used in findings.
    pub path: String,
    /// True for integration-test files (`tests/` directories).
    pub is_test: bool,
    /// The file contents.
    pub text: String,
}

/// An enum definition with its variant names.
#[derive(Debug, Clone)]
pub struct EnumItem {
    /// Enum name.
    pub name: String,
    /// `(variant, line)` pairs in declaration order.
    pub variants: Vec<(String, u32)>,
}

/// One `#[allow(...)]` / `#![allow(...)]` attribute occurrence.
#[derive(Debug, Clone)]
pub struct AllowAttr {
    /// 1-based line of the `#`.
    pub line: u32,
    /// 1-based line of the closing `]`.
    pub end_line: u32,
    /// The lint paths inside the parens, joined verbatim.
    pub lints: String,
}

/// A parsed `// ptstore-lint: allow(<rule>) — justification` marker,
/// which suppresses a finding of the named rule on the marked line.
#[derive(Debug, Clone)]
pub struct Marker {
    /// The rule name in parens.
    pub rule: String,
    /// The first *code* line at or after the marker — the line it governs.
    pub target_line: u32,
    /// 1-based line of the marker comment itself.
    pub line: u32,
    /// True when a non-empty justification follows the rule name.
    pub justified: bool,
}

/// A fully parsed file, ready for the rules.
#[derive(Debug)]
pub struct ParsedFile {
    /// The input it came from.
    pub src: SourceFile,
    /// Code tokens.
    pub toks: Vec<SpannedTok>,
    /// Comments.
    pub comments: Vec<Comment>,
    /// Enum definitions.
    pub enums: Vec<EnumItem>,
    /// `#[allow]` attributes.
    pub allows: Vec<AllowAttr>,
    /// Token ranges covered by `#[cfg(test)]` items.
    pub test_spans: Vec<std::ops::Range<usize>>,
    /// `ptstore-lint:` markers.
    pub markers: Vec<Marker>,
}

impl ParsedFile {
    /// Parses `src` (infallible; malformed source degrades to fewer items).
    pub fn parse(src: SourceFile) -> Self {
        let Lexed { toks, comments } = lex(&src.text);
        let test_spans = find_test_spans(&toks);
        let enums = find_enums(&toks);
        let allows = find_allows(&toks);
        let markers = find_markers(&comments, &toks);
        Self {
            src,
            toks,
            comments,
            enums,
            allows,
            test_spans,
            markers,
        }
    }

    /// True when token index `i` lies inside a `#[cfg(test)]` region.
    pub fn in_test_span(&self, i: usize) -> bool {
        self.test_spans.iter().any(|r| r.contains(&i))
    }

    /// The justified marker governing `line` for `rule`, if any.
    pub fn allow_marker_for(&self, rule: &str, line: u32) -> Option<&Marker> {
        self.markers
            .iter()
            .find(|m| m.rule == rule && m.target_line == line && m.justified)
    }
}

/// Finds the matching `}` for the `{` at `open` (token index); returns the
/// index of the closer, or the stream end when unbalanced.
fn match_brace(toks: &[SpannedTok], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
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

/// Token ranges of items carrying `#[cfg(test)]` (attribute through the
/// matching close brace of the following item).
fn find_test_spans(toks: &[SpannedTok]) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let is_cfg_test = matches!(&toks[i].tok, Tok::Punct('#'))
            && matches!(&toks[i + 1].tok, Tok::Punct('['))
            && matches!(&toks[i + 2].tok, Tok::Ident(s) if s == "cfg")
            && matches!(&toks[i + 3].tok, Tok::Punct('('))
            && matches!(&toks[i + 4].tok, Tok::Ident(s) if s == "test")
            && matches!(&toks[i + 5].tok, Tok::Punct(')'))
            && matches!(&toks[i + 6].tok, Tok::Punct(']'));
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip any further attributes, then find the item's opening brace.
        let mut j = i + 7;
        while j < toks.len() {
            if matches!(toks[j].tok, Tok::Punct('#'))
                && matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
            {
                // Skip the bracketed attribute.
                let mut depth = 0usize;
                j += 1;
                while j < toks.len() {
                    match toks[j].tok {
                        Tok::Punct('[') => depth += 1,
                        Tok::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                j += 1;
            } else if matches!(toks[j].tok, Tok::Punct('{')) {
                let close = match_brace(toks, j);
                spans.push(i..close + 1);
                i = j; // nested cfg(test) inside is redundant but harmless
                break;
            } else if matches!(toks[j].tok, Tok::Punct(';')) {
                // `#[cfg(test)] mod foo;` — out-of-line test module.
                spans.push(i..j + 1);
                break;
            } else {
                j += 1;
            }
        }
        i += 1;
    }
    spans
}

/// Extracts enum definitions and their variant names.
fn find_enums(toks: &[SpannedTok]) -> Vec<EnumItem> {
    let mut enums = Vec::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if !matches!(&toks[i].tok, Tok::Ident(s) if s == "enum") {
            i += 1;
            continue;
        }
        let Tok::Ident(name) = &toks[i + 1].tok else {
            i += 1;
            continue;
        };
        // Find the opening brace (skipping generics — `<` … `>` carry no
        // braces in this codebase's enums).
        let mut j = i + 2;
        while j < toks.len() && !matches!(toks[j].tok, Tok::Punct('{') | Tok::Punct(';')) {
            j += 1;
        }
        if j >= toks.len() || matches!(toks[j].tok, Tok::Punct(';')) {
            i += 1;
            continue;
        }
        let close = match_brace(toks, j);
        let mut variants = Vec::new();
        let mut depth = 0i32;
        let mut expect_variant = true;
        let mut k = j;
        while k < close {
            match &toks[k].tok {
                Tok::Punct('{') | Tok::Punct('(') => {
                    depth += 1;
                    k += 1;
                }
                Tok::Punct('}') | Tok::Punct(')') => {
                    depth -= 1;
                    k += 1;
                }
                Tok::Punct(',') if depth == 1 => {
                    expect_variant = true;
                    k += 1;
                }
                Tok::Punct('#') if depth == 1 => {
                    // Skip a variant attribute.
                    let mut bd = 0usize;
                    k += 1;
                    while k < close {
                        match toks[k].tok {
                            Tok::Punct('[') => bd += 1,
                            Tok::Punct(']') => {
                                bd -= 1;
                                if bd == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    k += 1;
                }
                Tok::Ident(v) if depth == 1 && expect_variant => {
                    variants.push((v.clone(), toks[k].line));
                    expect_variant = false;
                    k += 1;
                }
                _ => k += 1,
            }
        }
        enums.push(EnumItem {
            name: name.clone(),
            variants,
        });
        i = close;
    }
    enums
}

/// Extracts `#[allow(...)]` / `#![allow(...)]` attributes.
fn find_allows(toks: &[SpannedTok]) -> Vec<AllowAttr> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 2 < toks.len() {
        if !matches!(toks[i].tok, Tok::Punct('#')) {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if matches!(toks[j].tok, Tok::Punct('!')) {
            j += 1;
        }
        if !matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('['))) {
            i += 1;
            continue;
        }
        if !matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "allow") {
            i += 1;
            continue;
        }
        // Collect the lint paths verbatim until the matching `]`.
        let mut lints = String::new();
        let mut depth = 0usize;
        let mut k = j;
        let mut end_line = toks[i].line;
        while k < toks.len() {
            match &toks[k].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = toks[k].line;
                        break;
                    }
                }
                Tok::Ident(s) if k > j + 1 => lints.push_str(s),
                Tok::Punct(':') => lints.push(':'),
                Tok::Punct(',') => lints.push_str(", "),
                _ => {}
            }
            k += 1;
        }
        out.push(AllowAttr {
            line: toks[i].line,
            end_line,
            lints,
        });
        i = k + 1;
    }
    out
}

/// Parses `ptstore-lint:` markers out of comments and binds each to the
/// first code line at or after it.
fn find_markers(comments: &[Comment], toks: &[SpannedTok]) -> Vec<Marker> {
    let mut out = Vec::new();
    for c in comments {
        let Some(pos) = c.text.find("ptstore-lint:") else {
            continue;
        };
        let rest = c.text[pos + "ptstore-lint:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        // Justification: anything substantive after the closing paren on the
        // marker line, or the continuation comment lines directly below.
        let mut justification = rest[close + 1..]
            .trim_start_matches([' ', '—', '-', ':'])
            .trim()
            .to_string();
        if justification.len() < 8 {
            for cont in comments {
                if cont.line > c.end_line
                    && cont.line <= c.end_line + 3
                    && !cont.doc
                    && !cont.text.contains("ptstore-lint:")
                {
                    justification.push_str(cont.text.trim());
                }
            }
        }
        // The governed line: first code token on a line >= the marker's end.
        // (A trailing marker on a code line governs that same line.)
        let same_line = toks.iter().any(|t| t.line == c.line);
        let target_line = if same_line {
            c.line
        } else {
            toks.iter()
                .map(|t| t.line)
                .find(|&l| l > c.end_line)
                .unwrap_or(c.end_line)
        };
        out.push(Marker {
            rule,
            target_line,
            line: c.line,
            justified: justification.len() >= 8,
        });
    }
    // A marker stack (several markers above one line) all bind to the same
    // target line already; nothing further to do.
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> ParsedFile {
        ParsedFile::parse(SourceFile {
            crate_name: "t".into(),
            path: "t.rs".into(),
            is_test: false,
            text: text.into(),
        })
    }

    #[test]
    fn enum_variants_with_fields_and_attrs() {
        let p = parse(
            "pub enum E { Plain, Tuple(u8, u8), Struct { x: u64, y: u64 }, #[doc = \"d\"] Attr, }",
        );
        assert_eq!(p.enums.len(), 1);
        let vars: Vec<_> = p.enums[0].variants.iter().map(|v| v.0.as_str()).collect();
        assert_eq!(vars, vec!["Plain", "Tuple", "Struct", "Attr"]);
    }

    #[test]
    fn cfg_test_spans_cover_mod() {
        let p = parse("fn real() {} #[cfg(test)] mod tests { fn fake() { x(); } }");
        assert_eq!(p.test_spans.len(), 1);
        let at = |name: &str| {
            p.toks
                .iter()
                .position(|t| matches!(&t.tok, Tok::Ident(s) if s == name))
                .expect("token present")
        };
        assert!(!p.in_test_span(at("real")));
        assert!(p.in_test_span(at("fake")));
    }

    #[test]
    fn allow_attrs_found() {
        let p = parse("#![allow(clippy::a)] #[allow(dead_code, clippy::b)] fn f() {}");
        assert_eq!(p.allows.len(), 2);
        assert!(p.allows[1].lints.contains("dead_code"));
    }

    #[test]
    fn markers_bind_to_next_code_line() {
        let p = parse(
            "fn f() {\n    // ptstore-lint: allow(channel-confinement) — a solid justification\n    // continuation line.\n    bus.write();\n}",
        );
        assert_eq!(p.markers.len(), 1);
        let m = &p.markers[0];
        assert_eq!(m.rule, "channel-confinement");
        assert_eq!(m.target_line, 4);
        assert!(m.justified);
        assert!(p.allow_marker_for("channel-confinement", 4).is_some());
    }

    #[test]
    fn unjustified_marker_does_not_suppress() {
        let p = parse("// ptstore-lint: allow(channel-confinement)\nbus.write();");
        assert!(p.allow_marker_for("channel-confinement", 2).is_none());
    }
}
