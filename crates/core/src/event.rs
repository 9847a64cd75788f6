//! Typed event payloads for the analysis API.
//!
//! Each of the 23 high-level hooks (paper Table 2) delivers its payload as
//! one small struct instead of a long positional argument list, and every
//! hook method receives an [`AnalysisCtx`] carrying the code location and
//! (when dispatched by the runtime) the static [`ModuleInfo`]. The
//! [`Event`] enum fuses all payloads into one value so the runtime can
//! build an event **once** and dispatch it to any number of subscribed
//! analyses (see [`crate::pipeline::Pipeline`]).

use wasabi_wasm::instr::{BinaryOp, GlobalOp, LoadOp, LocalOp, StoreOp, UnaryOp, Val};

use crate::hooks::{Analysis, BlockKind, Hook, MemArg};
use crate::info::ModuleInfo;
use crate::location::{BranchTarget, Location};

/// Per-event context passed to every hook: the code location in the
/// *original* module plus, when the event comes from the Wasabi runtime,
/// the module's static info.
///
/// Analyses that are driven directly (e.g. in unit tests) can construct a
/// context with [`AnalysisCtx::at`], which carries no module info.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisCtx<'a> {
    /// Location of the instruction that triggered the event.
    pub loc: Location,
    /// Which cohort member triggered the event: 0 for ordinary
    /// single-instance runs, the member index for
    /// `Pipeline::run_cohort` sweeps. Analyses subscribe once and use
    /// this to aggregate or partition per instance.
    pub instance: u32,
    info: Option<&'a ModuleInfo>,
}

impl<'a> AnalysisCtx<'a> {
    /// A context for `loc` with the module's static info attached.
    pub fn new(loc: Location, info: &'a ModuleInfo) -> Self {
        AnalysisCtx {
            loc,
            instance: 0,
            info: Some(info),
        }
    }

    /// A bare context (no module info), for driving hooks directly.
    pub fn at(loc: Location) -> AnalysisCtx<'static> {
        AnalysisCtx {
            loc,
            instance: 0,
            info: None,
        }
    }

    /// The same context attributed to cohort member `instance`.
    pub fn with_instance(mut self, instance: u32) -> Self {
        self.instance = instance;
        self
    }

    /// The static module info, if this event was dispatched by the runtime.
    pub fn info(&self) -> Option<&'a ModuleInfo> {
        self.info
    }
}

/// Payload of the `if` hook: the evaluated condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IfEvt {
    pub condition: bool,
}

/// Payload of the `br` and `br_if` hooks: the resolved branch target and,
/// for `br_if`, the evaluated condition (`None` for the unconditional
/// `br`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchEvt {
    /// Resolved target (paper §2.4.4).
    pub target: BranchTarget,
    /// `Some(c)` for `br_if`, `None` for `br`.
    pub condition: Option<bool>,
}

impl BranchEvt {
    /// `true` if control actually transfers to [`BranchEvt::target`].
    pub fn taken(&self) -> bool {
        self.condition.unwrap_or(true)
    }
}

/// Payload of the `br_table` hook: all entry targets, the default target,
/// and the entry index selected at runtime (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchTableEvt<'a> {
    pub targets: &'a [BranchTarget],
    pub default: BranchTarget,
    /// The runtime operand selecting the entry (may be ≥ `targets.len()`,
    /// in which case the default is taken).
    pub index: u32,
}

impl BranchTableEvt<'_> {
    /// The target control actually transfers to.
    pub fn taken(&self) -> BranchTarget {
        self.targets
            .get(self.index as usize)
            .copied()
            .unwrap_or(self.default)
    }
}

/// Payload of the `begin` hook: which kind of block was entered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEvt {
    pub kind: BlockKind,
}

/// Payload of the `end` hook: the block kind and the location of the
/// matching block start (paper §2.4.5, dynamic block nesting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndEvt {
    pub kind: BlockKind,
    pub begin: Location,
}

/// Payload of the `memory_size` hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSizeEvt {
    /// Current size in 64 KiB pages.
    pub pages: u32,
}

/// Payload of the `memory_grow` hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemGrowEvt {
    /// Requested growth in pages.
    pub delta: u32,
    /// Size before the grow, or `-1` if the grow failed (the raw
    /// instruction result).
    pub previous_pages: i32,
}

/// Payload of the `const` and `drop` hooks: the pushed resp. dropped value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValEvt {
    pub value: Val,
}

/// Payload of the `select` hook.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectEvt {
    pub condition: bool,
    pub first: Val,
    pub second: Val,
}

impl SelectEvt {
    /// The value `select` leaves on the stack.
    pub fn selected(&self) -> Val {
        if self.condition {
            self.first
        } else {
            self.second
        }
    }
}

/// Payload of the `unary` hook.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnaryEvt {
    pub op: UnaryOp,
    pub input: Val,
    pub result: Val,
}

/// Payload of the `load` and `store` hooks, generic over the operation
/// ([`LoadOp`] or [`StoreOp`]).
///
/// # Examples
///
/// ```
/// use wasabi::event::{LoadEvt, MemEvt};
/// use wasabi::hooks::MemArg;
/// use wasabi_wasm::instr::{LoadOp, Val};
///
/// let evt: LoadEvt = MemEvt {
///     op: LoadOp::I32Load,
///     memarg: MemArg { addr: 16, offset: 4 },
///     value: Val::I32(7),
/// };
/// assert_eq!(evt.memarg.effective_addr(), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemEvt<Op> {
    pub op: Op,
    /// Dynamic address operand + static offset immediate.
    pub memarg: MemArg,
    /// The value read (`load`) resp. written (`store`).
    pub value: Val,
}

/// Payload of the `load` hook.
pub type LoadEvt = MemEvt<LoadOp>;
/// Payload of the `store` hook.
pub type StoreEvt = MemEvt<StoreOp>;

/// Payload of the `binary` hook.
///
/// # Examples
///
/// ```
/// use wasabi::event::BinaryEvt;
/// use wasabi_wasm::instr::{BinaryOp, Val};
///
/// let evt = BinaryEvt {
///     op: BinaryOp::I32Add,
///     first: Val::I32(2),
///     second: Val::I32(3),
///     result: Val::I32(5),
/// };
/// assert_eq!(evt.op.name(), "i32.add");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinaryEvt {
    pub op: BinaryOp,
    pub first: Val,
    pub second: Val,
    pub result: Val,
}

/// Payload of the `local` and `global` hooks, generic over the operation
/// ([`LocalOp`] or [`GlobalOp`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VarEvt<Op> {
    pub op: Op,
    /// Local resp. global index.
    pub index: u32,
    /// The value read resp. written.
    pub value: Val,
}

/// Payload of the `local` hook.
pub type LocalEvt = VarEvt<LocalOp>;
/// Payload of the `global` hook.
pub type GlobalEvt = VarEvt<GlobalOp>;

/// Payload of the `return` hook: the returned values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReturnEvt<'a> {
    pub results: &'a [Val],
}

/// Payload of the `call_pre` hook: resolved callee, arguments, and — for
/// `call_indirect` — the runtime table index (paper Table 2: "tableIndex ==
/// null iff direct call"). For an indirect call whose table slot cannot be
/// resolved (the call will trap), `func` is `u32::MAX`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CallEvt<'a> {
    /// Resolved target function index in the original module.
    pub func: u32,
    pub args: &'a [Val],
    /// `Some(i)` for `call_indirect` through table slot `i`.
    pub table_index: Option<u32>,
}

impl CallEvt<'_> {
    /// `true` for `call_indirect`.
    pub fn is_indirect(&self) -> bool {
        self.table_index.is_some()
    }
}

/// Payload of the `call_post` hook: the call's results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CallPostEvt<'a> {
    pub results: &'a [Val],
}

/// One fully-joined high-level event, built **once** by the runtime and
/// dispatched to every subscribed analysis (the fused single-pass dispatch
/// of the pipeline API).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event<'a> {
    Start,
    Nop,
    Unreachable,
    If(IfEvt),
    Br(BranchEvt),
    BrIf(BranchEvt),
    BrTable(BranchTableEvt<'a>),
    Begin(BlockEvt),
    End(EndEvt),
    MemorySize(MemSizeEvt),
    MemoryGrow(MemGrowEvt),
    Const(ValEvt),
    Drop(ValEvt),
    Select(SelectEvt),
    Unary(UnaryEvt),
    Binary(BinaryEvt),
    Load(LoadEvt),
    Store(StoreEvt),
    Local(LocalEvt),
    Global(GlobalEvt),
    Return(ReturnEvt<'a>),
    CallPre(CallEvt<'a>),
    CallPost(CallPostEvt<'a>),
}

impl Event<'_> {
    /// The high-level hook this event belongs to (drives the per-hook
    /// subscriber lists of the fused dispatch).
    pub fn hook(&self) -> Hook {
        match self {
            Event::Start => Hook::Start,
            Event::Nop => Hook::Nop,
            Event::Unreachable => Hook::Unreachable,
            Event::If(_) => Hook::If,
            Event::Br(_) => Hook::Br,
            Event::BrIf(_) => Hook::BrIf,
            Event::BrTable(_) => Hook::BrTable,
            Event::Begin(_) => Hook::Begin,
            Event::End(_) => Hook::End,
            Event::MemorySize(_) => Hook::MemorySize,
            Event::MemoryGrow(_) => Hook::MemoryGrow,
            Event::Const(_) => Hook::Const,
            Event::Drop(_) => Hook::Drop,
            Event::Select(_) => Hook::Select,
            Event::Unary(_) => Hook::Unary,
            Event::Binary(_) => Hook::Binary,
            Event::Load(_) => Hook::Load,
            Event::Store(_) => Hook::Store,
            Event::Local(_) => Hook::Local,
            Event::Global(_) => Hook::Global,
            Event::Return(_) => Hook::Return,
            Event::CallPre(_) => Hook::CallPre,
            Event::CallPost(_) => Hook::CallPost,
        }
    }
}

/// Deliver one event to one analysis by calling the matching hook method.
pub fn deliver<A: Analysis + ?Sized>(analysis: &mut A, ctx: &AnalysisCtx, event: &Event<'_>) {
    match event {
        Event::Start => analysis.start(ctx),
        Event::Nop => analysis.nop(ctx),
        Event::Unreachable => analysis.unreachable(ctx),
        Event::If(evt) => analysis.if_(ctx, evt),
        Event::Br(evt) => analysis.br(ctx, evt),
        Event::BrIf(evt) => analysis.br_if(ctx, evt),
        Event::BrTable(evt) => analysis.br_table(ctx, evt),
        Event::Begin(evt) => analysis.begin(ctx, evt),
        Event::End(evt) => analysis.end(ctx, evt),
        Event::MemorySize(evt) => analysis.memory_size(ctx, evt),
        Event::MemoryGrow(evt) => analysis.memory_grow(ctx, evt),
        Event::Const(evt) => analysis.const_(ctx, evt),
        Event::Drop(evt) => analysis.drop_(ctx, evt),
        Event::Select(evt) => analysis.select(ctx, evt),
        Event::Unary(evt) => analysis.unary(ctx, evt),
        Event::Binary(evt) => analysis.binary(ctx, evt),
        Event::Load(evt) => analysis.load(ctx, evt),
        Event::Store(evt) => analysis.store(ctx, evt),
        Event::Local(evt) => analysis.local(ctx, evt),
        Event::Global(evt) => analysis.global(ctx, evt),
        Event::Return(evt) => analysis.return_(ctx, evt),
        Event::CallPre(evt) => analysis.call_pre(ctx, evt),
        Event::CallPost(evt) => analysis.call_post(ctx, evt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::HookSet;

    #[test]
    fn event_hook_covers_all_23() {
        let target = BranchTarget {
            label: 0,
            location: Location::new(0, 0),
        };
        let events = [
            Event::Start,
            Event::Nop,
            Event::Unreachable,
            Event::If(IfEvt { condition: true }),
            Event::Br(BranchEvt {
                target,
                condition: None,
            }),
            Event::BrIf(BranchEvt {
                target,
                condition: Some(false),
            }),
            Event::BrTable(BranchTableEvt {
                targets: &[],
                default: target,
                index: 0,
            }),
            Event::Begin(BlockEvt {
                kind: BlockKind::Loop,
            }),
            Event::End(EndEvt {
                kind: BlockKind::Loop,
                begin: Location::new(0, 0),
            }),
            Event::MemorySize(MemSizeEvt { pages: 1 }),
            Event::MemoryGrow(MemGrowEvt {
                delta: 1,
                previous_pages: 1,
            }),
            Event::Const(ValEvt { value: Val::I32(0) }),
            Event::Drop(ValEvt { value: Val::I32(0) }),
            Event::Select(SelectEvt {
                condition: true,
                first: Val::I32(1),
                second: Val::I32(2),
            }),
            Event::Unary(UnaryEvt {
                op: UnaryOp::I32Eqz,
                input: Val::I32(0),
                result: Val::I32(1),
            }),
            Event::Binary(BinaryEvt {
                op: BinaryOp::I32Add,
                first: Val::I32(1),
                second: Val::I32(2),
                result: Val::I32(3),
            }),
            Event::Load(MemEvt {
                op: LoadOp::I32Load,
                memarg: MemArg { addr: 0, offset: 0 },
                value: Val::I32(0),
            }),
            Event::Store(MemEvt {
                op: StoreOp::I32Store,
                memarg: MemArg { addr: 0, offset: 0 },
                value: Val::I32(0),
            }),
            Event::Local(VarEvt {
                op: LocalOp::Get,
                index: 0,
                value: Val::I32(0),
            }),
            Event::Global(VarEvt {
                op: GlobalOp::Get,
                index: 0,
                value: Val::I32(0),
            }),
            Event::Return(ReturnEvt { results: &[] }),
            Event::CallPre(CallEvt {
                func: 0,
                args: &[],
                table_index: None,
            }),
            Event::CallPost(CallPostEvt { results: &[] }),
        ];
        let hooks: HookSet = events.iter().map(Event::hook).collect();
        assert_eq!(hooks.len(), 23, "every hook has exactly one event variant");
    }

    #[test]
    fn branch_evt_taken() {
        let target = BranchTarget {
            label: 1,
            location: Location::new(0, 5),
        };
        assert!(BranchEvt {
            target,
            condition: None
        }
        .taken());
        assert!(!BranchEvt {
            target,
            condition: Some(false)
        }
        .taken());
    }

    #[test]
    fn branch_table_evt_taken_falls_back_to_default() {
        let a = BranchTarget {
            label: 0,
            location: Location::new(0, 1),
        };
        let d = BranchTarget {
            label: 2,
            location: Location::new(0, 9),
        };
        let evt = BranchTableEvt {
            targets: &[a],
            default: d,
            index: 7,
        };
        assert_eq!(evt.taken(), d);
        let evt = BranchTableEvt {
            targets: &[a],
            default: d,
            index: 0,
        };
        assert_eq!(evt.taken(), a);
    }

    #[test]
    fn select_evt_selected() {
        let evt = SelectEvt {
            condition: false,
            first: Val::I32(1),
            second: Val::I32(2),
        };
        assert_eq!(evt.selected(), Val::I32(2));
    }

    #[test]
    fn ctx_carries_location_and_optional_info() {
        let ctx = AnalysisCtx::at(Location::new(3, 7));
        assert_eq!(ctx.loc, Location::new(3, 7));
        assert!(ctx.info().is_none());
        let info = ModuleInfo::default();
        let ctx = AnalysisCtx::new(Location::new(0, 0), &info);
        assert!(ctx.info().is_some());
    }

    #[test]
    fn deliver_routes_to_the_matching_method() {
        #[derive(Default)]
        struct Spy {
            binaries: u32,
            nops: u32,
        }
        impl Analysis for Spy {
            fn nop(&mut self, _: &AnalysisCtx) {
                self.nops += 1;
            }
            fn binary(&mut self, _: &AnalysisCtx, evt: &BinaryEvt) {
                assert_eq!(evt.result, Val::I32(3));
                self.binaries += 1;
            }
        }
        let mut spy = Spy::default();
        let ctx = AnalysisCtx::at(Location::new(0, 0));
        deliver(&mut spy, &ctx, &Event::Nop);
        deliver(
            &mut spy,
            &ctx,
            &Event::Binary(BinaryEvt {
                op: BinaryOp::I32Add,
                first: Val::I32(1),
                second: Val::I32(2),
                result: Val::I32(3),
            }),
        );
        assert_eq!((spy.nops, spy.binaries), (1, 1));
    }
}
