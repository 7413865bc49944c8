//! One synthesisable block and its resource cost.

use core::fmt;

/// A named block with LUT/FF usage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Block name (matches the RTL hierarchy it models).
    pub name: &'static str,
    /// Lookup tables.
    pub lut: u64,
    /// Flip-flops.
    pub ff: u64,
}

impl Component {
    /// A new block.
    pub const fn new(name: &'static str, lut: u64, ff: u64) -> Self {
        Self { name, lut, ff }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<28} {:>8} LUT {:>8} FF", self.name, self.lut, self.ff)
    }
}

/// Sums LUTs over components.
pub fn total_lut(components: &[Component]) -> u64 {
    components.iter().map(|c| c.lut).sum()
}

/// Sums FFs over components.
pub fn total_ff(components: &[Component]) -> u64 {
    components.iter().map(|c| c.ff).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let cs = [Component::new("a", 10, 5), Component::new("b", 20, 7)];
        assert_eq!(total_lut(&cs), 30);
        assert_eq!(total_ff(&cs), 12);
    }

    #[test]
    fn display_contains_name() {
        assert!(Component::new("decoder", 1, 2)
            .to_string()
            .contains("decoder"));
    }
}
