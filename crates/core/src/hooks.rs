//! The high-level analysis API: the 23 hooks of paper Table 2, the
//! [`Analysis`] trait that analyses implement, and [`HookSet`] for selective
//! instrumentation (paper §2.4.2).
//!
//! Hook methods receive an [`AnalysisCtx`] (location + optional module
//! info) and a typed event payload from [`crate::event`] instead of long
//! positional argument lists. To run several analyses over **one**
//! instrumentation and execution pass, register them on a
//! [`crate::pipeline::Pipeline`].

use std::fmt;

use wasabi_wasm::instr::Instr;

use crate::event::{
    AnalysisCtx, BinaryEvt, BlockEvt, BranchEvt, BranchTableEvt, CallEvt, CallPostEvt, EndEvt,
    GlobalEvt, IfEvt, LoadEvt, LocalEvt, MemGrowEvt, MemSizeEvt, ReturnEvt, SelectEvt, StoreEvt,
    UnaryEvt, ValEvt,
};
use crate::report::{JsonValue, Report};

/// The 23 high-level hooks of the Wasabi API (paper Table 2 plus the five
/// hooks its caption mentions: `start`, `nop`, `unreachable`, `if`,
/// `memory_size`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Hook {
    Start,
    Nop,
    Unreachable,
    If,
    Br,
    BrIf,
    BrTable,
    Begin,
    End,
    MemorySize,
    MemoryGrow,
    Const,
    Drop,
    Select,
    Unary,
    Binary,
    Load,
    Store,
    Local,
    Global,
    Return,
    CallPre,
    CallPost,
}

impl Hook {
    /// All hooks, in a fixed order.
    pub const ALL: [Hook; 23] = [
        Hook::Start,
        Hook::Nop,
        Hook::Unreachable,
        Hook::If,
        Hook::Br,
        Hook::BrIf,
        Hook::BrTable,
        Hook::Begin,
        Hook::End,
        Hook::MemorySize,
        Hook::MemoryGrow,
        Hook::Const,
        Hook::Drop,
        Hook::Select,
        Hook::Unary,
        Hook::Binary,
        Hook::Load,
        Hook::Store,
        Hook::Local,
        Hook::Global,
        Hook::Return,
        Hook::CallPre,
        Hook::CallPost,
    ];

    /// Snake-case name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Hook::Start => "start",
            Hook::Nop => "nop",
            Hook::Unreachable => "unreachable",
            Hook::If => "if",
            Hook::Br => "br",
            Hook::BrIf => "br_if",
            Hook::BrTable => "br_table",
            Hook::Begin => "begin",
            Hook::End => "end",
            Hook::MemorySize => "memory_size",
            Hook::MemoryGrow => "memory_grow",
            Hook::Const => "const",
            Hook::Drop => "drop",
            Hook::Select => "select",
            Hook::Unary => "unary",
            Hook::Binary => "binary",
            Hook::Load => "load",
            Hook::Store => "store",
            Hook::Local => "local",
            Hook::Global => "global",
            Hook::Return => "return",
            Hook::CallPre => "call_pre",
            Hook::CallPost => "call_post",
        }
    }

    /// The *primary* hook observing an instruction. Some instructions also
    /// involve secondary hooks (`begin`/`end` for blocks, `end` replay on
    /// branches); those are handled by the instrumenter directly.
    pub fn for_instr(instr: &Instr) -> Option<Hook> {
        Some(match instr {
            Instr::Nop => Hook::Nop,
            Instr::Unreachable => Hook::Unreachable,
            Instr::Block(_) | Instr::Loop(_) => Hook::Begin,
            Instr::If(_) => Hook::If,
            Instr::Else => Hook::Begin,
            Instr::End => Hook::End,
            Instr::Br(_) => Hook::Br,
            Instr::BrIf(_) => Hook::BrIf,
            Instr::BrTable { .. } => Hook::BrTable,
            Instr::Return => Hook::Return,
            Instr::Call(_) | Instr::CallIndirect(..) => Hook::CallPre,
            Instr::Drop => Hook::Drop,
            Instr::Select => Hook::Select,
            Instr::Local(..) => Hook::Local,
            Instr::Global(..) => Hook::Global,
            Instr::Load(..) => Hook::Load,
            Instr::Store(..) => Hook::Store,
            Instr::MemorySize(_) => Hook::MemorySize,
            Instr::MemoryGrow(_) => Hook::MemoryGrow,
            Instr::Const(_) => Hook::Const,
            Instr::Unary(_) => Hook::Unary,
            Instr::Binary(_) => Hook::Binary,
        })
    }

    fn bit(self) -> u32 {
        1 << (self as u32)
    }
}

impl fmt::Display for Hook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of hooks, driving selective instrumentation (paper §2.4.2: "only
/// those kinds of instructions are instrumented that have a matching
/// high-level hook in the given analysis").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct HookSet {
    bits: u32,
}

impl HookSet {
    /// The empty set (instrumentation is the identity).
    pub fn empty() -> Self {
        HookSet { bits: 0 }
    }

    /// All 23 hooks (full instrumentation).
    pub fn all() -> Self {
        let mut set = HookSet::empty();
        for hook in Hook::ALL {
            set.insert(hook);
        }
        set
    }

    /// A set containing exactly the given hooks.
    pub fn of(hooks: &[Hook]) -> Self {
        let mut set = HookSet::empty();
        for &hook in hooks {
            set.insert(hook);
        }
        set
    }

    /// Add a hook to the set.
    pub fn insert(&mut self, hook: Hook) -> &mut Self {
        self.bits |= hook.bit();
        self
    }

    /// Remove a hook from the set.
    pub fn remove(&mut self, hook: Hook) -> &mut Self {
        self.bits &= !hook.bit();
        self
    }

    /// `true` if `hook` is in the set.
    pub fn contains(&self, hook: Hook) -> bool {
        self.bits & hook.bit() != 0
    }

    /// `true` if no hook is in the set.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Set union.
    pub fn union(mut self, other: HookSet) -> HookSet {
        self.bits |= other.bits;
        self
    }

    /// Iterate over the hooks in the set.
    pub fn iter(&self) -> impl Iterator<Item = Hook> + '_ {
        Hook::ALL.into_iter().filter(|h| self.contains(*h))
    }

    /// Number of hooks in the set.
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// The raw membership bitmask (bit position = [`Hook`] discriminant).
    /// Stable identity for serialization — the on-disk session cache keys
    /// entries by it.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Rebuild a set from [`HookSet::bits`]. Unknown high bits are
    /// dropped, so a bitmask from a newer build degrades to the hooks
    /// this build knows.
    pub fn from_bits(bits: u32) -> Self {
        let mut known = 0u32;
        for hook in Hook::ALL {
            known |= hook.bit();
        }
        HookSet { bits: bits & known }
    }
}

impl fmt::Display for HookSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, hook) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{hook}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Hook> for HookSet {
    fn from_iter<I: IntoIterator<Item = Hook>>(iter: I) -> Self {
        let mut set = HookSet::empty();
        for hook in iter {
            set.insert(hook);
        }
        set
    }
}

/// Kind of a structured block, for the `begin`/`end` hooks (paper Table 2:
/// "type : string ∈ {function, block, loop, if, else}").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    Function,
    Block,
    Loop,
    If,
    Else,
}

impl BlockKind {
    pub fn name(self) -> &'static str {
        match self {
            BlockKind::Function => "function",
            BlockKind::Block => "block",
            BlockKind::Loop => "loop",
            BlockKind::If => "if",
            BlockKind::Else => "else",
        }
    }
}

impl fmt::Display for BlockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The memory-access immediate+operand bundle passed to `load`/`store`
/// hooks (paper Table 2: "memarg : {addr, offset}").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemArg {
    /// Dynamic address operand.
    pub addr: u32,
    /// Static offset immediate; the effective address is `addr + offset`.
    pub offset: u32,
}

impl MemArg {
    /// The effective address `addr + offset` of the access.
    pub fn effective_addr(self) -> u64 {
        u64::from(self.addr) + u64::from(self.offset)
    }
}

/// A dynamic analysis: the user-facing high-level hook API (paper Table 2).
///
/// All hook methods default to no-ops; an analysis overrides the hooks it
/// needs and declares them in [`Analysis::hooks`] so that Wasabi
/// instruments selectively. (In the JavaScript original, the framework
/// infers this set from the properties of the analysis object; in Rust the
/// analysis states it explicitly.) Every hook receives the per-event
/// [`AnalysisCtx`] plus a typed payload struct from [`crate::event`].
///
/// [`Analysis::report`] renders the analysis' findings as a structured
/// [`Report`] — the CLI and the pipeline API use it as the analysis output.
///
/// # Examples
///
/// The paper's Figure 1 cryptominer-detection profiler:
///
/// ```
/// use std::collections::HashMap;
/// use wasabi::event::{AnalysisCtx, BinaryEvt};
/// use wasabi::hooks::{Analysis, Hook, HookSet};
/// use wasabi_wasm::instr::BinaryOp;
///
/// #[derive(Default)]
/// struct Signature {
///     counts: HashMap<&'static str, u64>,
/// }
///
/// impl Analysis for Signature {
///     fn name(&self) -> &str {
///         "signature"
///     }
///
///     fn hooks(&self) -> HookSet {
///         HookSet::of(&[Hook::Binary])
///     }
///
///     fn binary(&mut self, _: &AnalysisCtx, evt: &BinaryEvt) {
///         match evt.op {
///             BinaryOp::I32Add | BinaryOp::I32And | BinaryOp::I32Shl
///             | BinaryOp::I32ShrU | BinaryOp::I32Xor => {
///                 *self.counts.entry(evt.op.name()).or_insert(0) += 1;
///             }
///             _ => {}
///         }
///     }
/// }
/// ```
#[allow(unused_variables)]
pub trait Analysis {
    /// A short identifier for reports and CLI output.
    fn name(&self) -> &str {
        "analysis"
    }

    /// Which hooks this analysis uses; drives selective instrumentation
    /// and the per-hook subscriber lists of the fused pipeline dispatch.
    /// Defaults to all hooks (full instrumentation).
    fn hooks(&self) -> HookSet {
        HookSet::all()
    }

    /// The analysis' findings as a structured report. Defaults to an empty
    /// report carrying [`JsonValue::Null`].
    fn report(&self) -> Report {
        Report::new(self.name(), JsonValue::Null)
    }

    /// The module's start function begins executing.
    fn start(&mut self, ctx: &AnalysisCtx) {}

    /// A `nop` executed.
    fn nop(&mut self, ctx: &AnalysisCtx) {}

    /// An `unreachable` is about to trap.
    fn unreachable(&mut self, ctx: &AnalysisCtx) {}

    /// An `if` evaluated its condition.
    fn if_(&mut self, ctx: &AnalysisCtx, evt: &IfEvt) {}

    /// An unconditional branch executes (`evt.condition` is `None`).
    fn br(&mut self, ctx: &AnalysisCtx, evt: &BranchEvt) {}

    /// A conditional branch evaluated its condition.
    fn br_if(&mut self, ctx: &AnalysisCtx, evt: &BranchEvt) {}

    /// A multi-way branch selected entry `evt.index` (the targets of all
    /// entries plus the default are provided, paper Table 2).
    fn br_table(&mut self, ctx: &AnalysisCtx, evt: &BranchTableEvt<'_>) {}

    /// A block is entered (called per iteration for loops).
    fn begin(&mut self, ctx: &AnalysisCtx, evt: &BlockEvt) {}

    /// A block is exited; `evt.begin` is the location of the matching
    /// block start. Also called for blocks left implicitly by branches and
    /// returns (paper §2.4.5, dynamic block nesting).
    fn end(&mut self, ctx: &AnalysisCtx, evt: &EndEvt) {}

    /// `memory.size` returned the current size in pages.
    fn memory_size(&mut self, ctx: &AnalysisCtx, evt: &MemSizeEvt) {}

    /// `memory.grow` executed (see [`MemGrowEvt`] for the failure case).
    fn memory_grow(&mut self, ctx: &AnalysisCtx, evt: &MemGrowEvt) {}

    /// A constant was pushed.
    fn const_(&mut self, ctx: &AnalysisCtx, evt: &ValEvt) {}

    /// A value was dropped.
    fn drop_(&mut self, ctx: &AnalysisCtx, evt: &ValEvt) {}

    /// A `select` picked `evt.first` (condition true) or `evt.second`.
    fn select(&mut self, ctx: &AnalysisCtx, evt: &SelectEvt) {}

    /// A unary operation computed `evt.result` from `evt.input`.
    fn unary(&mut self, ctx: &AnalysisCtx, evt: &UnaryEvt) {}

    /// A binary operation computed `evt.result` from its two operands.
    fn binary(&mut self, ctx: &AnalysisCtx, evt: &BinaryEvt) {}

    /// A load read `evt.value` from `evt.memarg.effective_addr()`.
    fn load(&mut self, ctx: &AnalysisCtx, evt: &LoadEvt) {}

    /// A store wrote `evt.value` to `evt.memarg.effective_addr()`.
    fn store(&mut self, ctx: &AnalysisCtx, evt: &StoreEvt) {}

    /// A local was read/written (`evt.value` is the value read resp.
    /// written).
    fn local(&mut self, ctx: &AnalysisCtx, evt: &LocalEvt) {}

    /// A global was read/written.
    fn global(&mut self, ctx: &AnalysisCtx, evt: &GlobalEvt) {}

    /// The current function returns explicitly with `evt.results`.
    fn return_(&mut self, ctx: &AnalysisCtx, evt: &ReturnEvt<'_>) {}

    /// A call is about to happen (see [`CallEvt`] for target resolution).
    fn call_pre(&mut self, ctx: &AnalysisCtx, evt: &CallEvt<'_>) {}

    /// A call returned with `evt.results`.
    fn call_post(&mut self, ctx: &AnalysisCtx, evt: &CallPostEvt<'_>) {}
}

/// The trivial analysis: observes nothing, uses no hooks. Instrumenting for
/// it is the identity transformation; useful as a baseline in benchmarks.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAnalysis;

impl Analysis for NoAnalysis {
    fn name(&self) -> &str {
        "no_analysis"
    }

    fn hooks(&self) -> HookSet {
        HookSet::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_wasm::instr::Val;

    #[test]
    fn there_are_23_hooks() {
        // Paper §2.3: "Wasabi's API provides 23 hooks only."
        assert_eq!(Hook::ALL.len(), 23);
        assert_eq!(HookSet::all().len(), 23);
    }

    #[test]
    fn hookset_operations() {
        let mut set = HookSet::empty();
        assert!(set.is_empty());
        set.insert(Hook::Binary);
        set.insert(Hook::Load);
        assert!(set.contains(Hook::Binary));
        assert!(!set.contains(Hook::Store));
        assert_eq!(set.len(), 2);
        set.remove(Hook::Binary);
        assert!(!set.contains(Hook::Binary));
    }

    #[test]
    fn hookset_union_and_iter() {
        let a = HookSet::of(&[Hook::Br, Hook::BrIf]);
        let b = HookSet::of(&[Hook::BrIf, Hook::BrTable]);
        let u = a.union(b);
        assert_eq!(u.len(), 3);
        let collected: Vec<Hook> = u.iter().collect();
        assert_eq!(collected, vec![Hook::Br, Hook::BrIf, Hook::BrTable]);
    }

    #[test]
    fn hookset_display() {
        let set = HookSet::of(&[Hook::Const, Hook::Binary]);
        assert_eq!(set.to_string(), "{const, binary}");
    }

    #[test]
    fn hook_for_instr_covers_all() {
        use wasabi_wasm::instr::{BlockType, Idx, Label};
        assert_eq!(Hook::for_instr(&Instr::Nop), Some(Hook::Nop));
        assert_eq!(
            Hook::for_instr(&Instr::Block(BlockType(None))),
            Some(Hook::Begin)
        );
        assert_eq!(Hook::for_instr(&Instr::Br(Label(0))), Some(Hook::Br));
        assert_eq!(
            Hook::for_instr(&Instr::Call(Idx::from(0u32))),
            Some(Hook::CallPre)
        );
        assert_eq!(
            Hook::for_instr(&Instr::Const(Val::I32(1))),
            Some(Hook::Const)
        );
    }

    #[test]
    fn memarg_effective_addr() {
        let m = MemArg {
            addr: u32::MAX,
            offset: 8,
        };
        assert_eq!(m.effective_addr(), u64::from(u32::MAX) + 8);
    }

    #[test]
    fn no_analysis_uses_no_hooks() {
        assert!(NoAnalysis.hooks().is_empty());
        assert_eq!(NoAnalysis.name(), "no_analysis");
    }

    #[test]
    fn default_analysis_uses_all_hooks_and_reports_null() {
        struct Defaults;
        impl Analysis for Defaults {}
        assert_eq!(Defaults.hooks().len(), 23);
        let report = Defaults.report();
        assert_eq!(report.analysis, "analysis");
        assert!(report.data.is_null());
    }
}
