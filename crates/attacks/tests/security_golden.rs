//! Golden digests of the security battery.
//!
//! The `reproduce security` smoke checks grep one line of the report, so a
//! change that moves a verdict in a row nobody greps, or reorders the
//! event chain of a traced cell, passes them. These digests fold whole
//! outputs through FNV-1a: the `Display` line of every matrix cell, and
//! the JSON of every traced cell (verdict, rejecting layer, counters and
//! the full event chain).

use ptstore_attacks::{security_matrix_traced, security_matrix_with};
use ptstore_core::{Fnv1a, PagingScheme};

/// FNV-1a over each line, one line after another, each closed by `\n`.
fn digest(lines: impl IntoIterator<Item = String>) -> u64 {
    let mut h = Fnv1a::new();
    for line in lines {
        h.write(line.as_bytes());
        h.write_u8(b'\n');
    }
    h.finish()
}

/// The verdicts depend on neither the hart count nor the paging scheme,
/// so both machines print the same matrix.
#[test]
fn matrix_text_is_pinned() {
    for (harts, scheme) in [(1, PagingScheme::Sv39), (2, PagingScheme::Sv48)] {
        let cells = security_matrix_with(harts, scheme);
        assert_eq!(cells.len(), 45);
        let got = digest(cells.iter().map(ToString::to_string));
        assert_eq!(
            got, 0x51bb_ef03_d36e_b885,
            "{harts} harts, {scheme:?}: {got:#018x}"
        );
    }
}

#[test]
fn traced_cells_are_pinned() {
    let cells = security_matrix_traced();
    assert_eq!(cells.len(), 18);
    let got = digest(cells.iter().map(|c| c.to_json()));
    assert_eq!(got, 0xccd6_3c7c_28cb_0546, "{got:#018x}");
}
