//! Fixture suite: every rule fires on a known-bad snippet and stays quiet
//! on its corrected twin. The snippets live in `fixtures/` as real `.rs`
//! files (readable, diffable) and are fed to [`analyze`] as synthetic
//! kernel-crate sources.

use ptstore_lint::rules::{RULE_ALLOW, RULE_CHANNEL, RULE_EXHAUSTIVE};
use ptstore_lint::{analyze, Config, Finding, SourceFile};

/// Wraps fixture text as a non-test file inside the policed kernel crate.
fn kernel_file(path: &str, text: &str) -> SourceFile {
    SourceFile {
        crate_name: "ptstore-kernel".into(),
        path: path.into(),
        is_test: false,
        text: text.into(),
    }
}

fn findings_for(rule: &str, files: Vec<SourceFile>, cfg: &Config) -> Vec<Finding> {
    analyze(files, cfg)
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

#[test]
fn channel_rule_fires_on_bad_and_passes_good() {
    let cfg = Config::default();
    let bad = findings_for(
        RULE_CHANNEL,
        vec![kernel_file(
            "src/bad.rs",
            include_str!("../fixtures/channel_bad.rs"),
        )],
        &cfg,
    );
    assert_eq!(bad.len(), 5, "five raw sites: {bad:#?}");
    assert!(bad.iter().any(|f| f.message.contains("mem_unchecked")));
    assert!(bad.iter().any(|f| f.message.contains("pmp_mut")));
    assert!(bad
        .iter()
        .any(|f| f.message.contains("install_secure_region")));

    let good = findings_for(
        RULE_CHANNEL,
        vec![kernel_file(
            "src/good.rs",
            include_str!("../fixtures/channel_good.rs"),
        )],
        &cfg,
    );
    assert!(good.is_empty(), "corrected twin must be clean: {good:#?}");
}

#[test]
fn channel_rule_skips_the_channel_module_itself() {
    // The same bad text is legal inside the allowlisted channel module.
    let cfg = Config::default();
    let inside = findings_for(
        RULE_CHANNEL,
        vec![kernel_file(
            "src/channel.rs",
            include_str!("../fixtures/channel_bad.rs"),
        )],
        &cfg,
    );
    assert!(inside.is_empty(), "{inside:#?}");
}

#[test]
fn channel_rule_ignores_other_crates() {
    let cfg = Config::default();
    let other = SourceFile {
        crate_name: "ptstore-mem".into(),
        path: "src/bus.rs".into(),
        is_test: false,
        text: include_str!("../fixtures/channel_bad.rs").into(),
    };
    assert!(findings_for(RULE_CHANNEL, vec![other], &cfg).is_empty());
}

#[test]
fn allow_rule_fires_on_bad_and_passes_good() {
    let cfg = Config::default();
    // Rule 2 is workspace-wide: use a non-kernel crate to prove it.
    let wrap = |path: &str, text: &str| SourceFile {
        crate_name: "ptstore-isa".into(),
        path: path.into(),
        is_test: false,
        text: text.into(),
    };
    let bad = findings_for(
        RULE_ALLOW,
        vec![wrap("src/bad.rs", include_str!("../fixtures/allow_bad.rs"))],
        &cfg,
    );
    assert_eq!(bad.len(), 3, "{bad:#?}");
    assert!(
        bad.iter().any(|f| f
            .message
            .contains("cast_possible_truncation, clippy::cast_sign_loss")),
        "multi-lint attribute is reported verbatim: {bad:#?}"
    );

    let good = findings_for(
        RULE_ALLOW,
        vec![wrap(
            "src/good.rs",
            include_str!("../fixtures/allow_good.rs"),
        )],
        &cfg,
    );
    assert!(good.is_empty(), "{good:#?}");
}

#[test]
fn exhaustive_rule_fires_on_bad_and_passes_good() {
    let cfg = Config {
        exhaustive_enums: vec![("Verdict".into(), "fixture-crate".into())],
        ..Config::default()
    };
    let wrap = |text: &str| SourceFile {
        crate_name: "fixture-crate".into(),
        path: "src/verdict.rs".into(),
        is_test: false,
        text: text.into(),
    };

    let bad = findings_for(
        RULE_EXHAUSTIVE,
        vec![wrap(include_str!("../fixtures/exhaustive_bad.rs"))],
        &cfg,
    );
    assert_eq!(bad.len(), 2, "{bad:#?}");
    assert!(bad.iter().any(|f| f.message.contains("Verdict::Blocked")));
    assert!(bad.iter().any(|f| f.message.contains("Verdict::Leaked")));

    let good = findings_for(
        RULE_EXHAUSTIVE,
        vec![wrap(include_str!("../fixtures/exhaustive_good.rs"))],
        &cfg,
    );
    assert!(good.is_empty(), "{good:#?}");
}

#[test]
fn exhaustive_rule_covers_the_modelcheck_verdict() {
    // The default config targets `ModelVerdict` in ptstore-modelcheck; the
    // fixture twins stand in for that crate so the rule's behavior on the
    // verdict enum is pinned independently of the real workspace.
    let cfg = Config {
        exhaustive_enums: vec![("ModelVerdict".into(), "fixture-crate".into())],
        ..Config::default()
    };
    let wrap = |text: &str| SourceFile {
        crate_name: "fixture-crate".into(),
        path: "src/verdict.rs".into(),
        is_test: false,
        text: text.into(),
    };

    let bad = findings_for(
        RULE_EXHAUSTIVE,
        vec![wrap(include_str!("../fixtures/modelverdict_bad.rs"))],
        &cfg,
    );
    assert_eq!(bad.len(), 2, "{bad:#?}");
    assert!(bad
        .iter()
        .any(|f| f.message.contains("ModelVerdict::Falsified")));
    assert!(bad
        .iter()
        .any(|f| f.message.contains("ModelVerdict::Truncated")));

    let good = findings_for(
        RULE_EXHAUSTIVE,
        vec![wrap(include_str!("../fixtures/modelverdict_good.rs"))],
        &cfg,
    );
    assert!(good.is_empty(), "{good:#?}");

    // And the real default config does target the real crate.
    assert!(Config::default()
        .exhaustive_enums
        .iter()
        .any(|(e, k)| e == "ModelVerdict" && k == "ptstore-modelcheck"));
}

#[test]
fn exhaustive_rule_reports_missing_target_enum() {
    let cfg = Config {
        exhaustive_enums: vec![("Vanished".into(), "fixture-crate".into())],
        ..Config::default()
    };
    let out = analyze(Vec::new(), &cfg);
    assert_eq!(out.len(), 1);
    assert!(out[0].message.contains("not found"), "{out:#?}");
}

#[test]
fn findings_are_sorted_and_deduplicated() {
    let cfg = Config::default();
    // Feed the same bad file twice under different paths: output must be
    // sorted by (file, line, rule, message) with no duplicates per file.
    let out = analyze(
        vec![
            kernel_file("src/b.rs", include_str!("../fixtures/channel_bad.rs")),
            kernel_file("src/a.rs", include_str!("../fixtures/channel_bad.rs")),
        ],
        &cfg,
    );
    let mut sorted = out.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(out, sorted, "analyze output is canonical");
    assert!(out.first().unwrap().file < out.last().unwrap().file);
}
