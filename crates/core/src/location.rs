//! Code locations and resolved branch targets, as passed to analysis hooks
//! (paper Table 2: "every hook: location : {func, instr}").

use std::fmt;

/// A code location in the *original* (uninstrumented) module.
///
/// `instr` is the instruction index within the function body; `-1` denotes
/// the function entry (paper Fig. 6 uses -1 for the implicit function
/// block's begin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Location {
    /// Function index in the original module.
    pub func: u32,
    /// Instruction index within the function, or -1 for the function entry.
    pub instr: i32,
}

impl Location {
    /// Location of instruction `instr` in function `func`.
    pub fn new(func: u32, instr: i32) -> Self {
        Location { func, instr }
    }

    /// The function-entry pseudo-location (instr = -1).
    pub fn function_entry(func: u32) -> Self {
        Location { func, instr: -1 }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.func, self.instr)
    }
}

/// A branch target: the raw relative label plus the statically resolved
/// location of the next instruction executed if the branch is taken
/// (paper §2.4.4, "Resolving Branch Labels").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchTarget {
    /// The "raw" relative label as it appears in the instruction.
    pub label: u32,
    /// Resolved absolute location: first instruction of the loop body for
    /// backward branches, the instruction after the block's `end` for
    /// forward branches.
    pub location: Location,
}

impl fmt::Display for BranchTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "label {} -> {}", self.label, self.location)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_display_and_entry() {
        assert_eq!(Location::new(3, 7).to_string(), "3:7");
        assert_eq!(Location::function_entry(2).instr, -1);
    }

    #[test]
    fn branch_target_display() {
        let t = BranchTarget {
            label: 1,
            location: Location::new(0, 9),
        };
        assert_eq!(t.to_string(), "label 1 -> 0:9");
    }
}
