//! The low-level hook ABI: the calling convention between instrumented
//! WebAssembly code and the Wasabi runtime (paper §2.4.1/§2.4.3/§2.4.6).
//!
//! Low-level hooks are *imported functions* added to the instrumented
//! module. Their types must be fixed and monomorphic, and — mirroring the
//! JavaScript host of the paper — they must not take `i64` parameters:
//! every `i64` payload is split into a `(low, high)` pair of `i32`s
//! (Table 3 row 6), which the runtime joins back.
//!
//! Parameter layout of every hook: the instruction-specific payload in stack
//! order, followed by two trailing `i32`s for the location
//! `(func, instr)`.

use std::fmt::Write as _;

use wasabi_wasm::instr::{BinaryOp, GlobalOp, LoadOp, LocalOp, StoreOp, UnaryOp};
use wasabi_wasm::types::{FuncType, ValType};

use crate::hooks::{BlockKind, Hook};

/// Import module name under which all low-level hooks are imported.
pub const HOOK_MODULE: &str = "__wasabi_hooks";

/// A monomorphic low-level hook: one imported function in the instrumented
/// binary. Polymorphic high-level hooks (`call_pre`, `return`, `drop`, ...)
/// map to many low-level hooks, generated on demand (paper §2.4.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LowLevelHook {
    Start,
    Nop,
    Unreachable,
    /// `if` condition check; payload: `cond: i32`.
    If,
    /// Payload: `label: i32, target_instr: i32`.
    Br,
    /// Payload: `label: i32, target_instr: i32, cond: i32`.
    BrIf,
    /// Payload: `br_table_info_idx: i32, table_idx: i32`. End-hook replay
    /// and target resolution happen in the runtime (paper §2.4.5).
    BrTable,
    /// Block entry; no payload.
    Begin(BlockKind),
    /// Block exit; payload: `begin_instr: i32`.
    End(BlockKind),
    /// Payload: `current_pages: i32`.
    MemorySize,
    /// Payload: `delta: i32, previous_pages: i32`.
    MemoryGrow,
    /// Payload: the constant value.
    Const(ValType),
    /// Payload: the dropped value.
    Drop(ValType),
    /// Payload: `first: T, second: T, cond: i32`.
    Select(ValType),
    /// Payload: `input, result`.
    Unary(UnaryOp),
    /// Payload: `first, second, result`.
    Binary(BinaryOp),
    /// Payload: `addr: i32, offset: i32, value`.
    Load(LoadOp),
    /// Payload: `addr: i32, offset: i32, value`.
    Store(StoreOp),
    /// Payload: `index: i32, value`.
    Local(LocalOp, ValType),
    /// Payload: `index: i32, value`.
    Global(GlobalOp, ValType),
    /// Payload: the returned values (monomorphized per result types).
    Return(Vec<ValType>),
    /// Payload: `target: i32` (function index for direct calls, runtime
    /// table index for indirect ones), then the arguments.
    CallPre {
        args: Vec<ValType>,
        indirect: bool,
    },
    /// Payload: the call's results.
    CallPost(Vec<ValType>),
}

/// Character encoding of a type list for monomorphized hook names:
/// `i`/`I`/`f`/`F` for i32/i64/f32/f64 (e.g. `call_pre_iIf`).
fn type_chars(types: &[ValType]) -> String {
    types.iter().map(|t| t.to_char()).collect()
}

impl LowLevelHook {
    /// Unique import name of this hook, e.g. `i32.add`, `drop_I`,
    /// `call_pre_if`, `begin_loop`.
    pub fn name(&self) -> String {
        match self {
            LowLevelHook::Start => "start".to_string(),
            LowLevelHook::Nop => "nop".to_string(),
            LowLevelHook::Unreachable => "unreachable".to_string(),
            LowLevelHook::If => "if".to_string(),
            LowLevelHook::Br => "br".to_string(),
            LowLevelHook::BrIf => "br_if".to_string(),
            LowLevelHook::BrTable => "br_table".to_string(),
            LowLevelHook::Begin(kind) => format!("begin_{kind}"),
            LowLevelHook::End(kind) => format!("end_{kind}"),
            LowLevelHook::MemorySize => "memory_size".to_string(),
            LowLevelHook::MemoryGrow => "memory_grow".to_string(),
            LowLevelHook::Const(ty) => format!("{ty}.const"),
            LowLevelHook::Drop(ty) => format!("drop_{}", ty.to_char()),
            LowLevelHook::Select(ty) => format!("select_{}", ty.to_char()),
            LowLevelHook::Unary(op) => op.name().to_string(),
            LowLevelHook::Binary(op) => op.name().to_string(),
            LowLevelHook::Load(op) => op.name().to_string(),
            LowLevelHook::Store(op) => op.name().to_string(),
            LowLevelHook::Local(op, ty) => format!("{}_{}", op.name(), ty.to_char()),
            LowLevelHook::Global(op, ty) => format!("{}_{}", op.name(), ty.to_char()),
            LowLevelHook::Return(tys) => {
                let mut s = "return_".to_string();
                let _ = write!(s, "{}", type_chars(tys));
                s
            }
            LowLevelHook::CallPre { args, indirect } => {
                let prefix = if *indirect {
                    "call_indirect_pre"
                } else {
                    "call_pre"
                };
                format!("{prefix}_{}", type_chars(args))
            }
            LowLevelHook::CallPost(tys) => format!("call_post_{}", type_chars(tys)),
        }
    }

    /// The high-level hook this low-level hook reports to.
    pub fn hook(&self) -> Hook {
        match self {
            LowLevelHook::Start => Hook::Start,
            LowLevelHook::Nop => Hook::Nop,
            LowLevelHook::Unreachable => Hook::Unreachable,
            LowLevelHook::If => Hook::If,
            LowLevelHook::Br => Hook::Br,
            LowLevelHook::BrIf => Hook::BrIf,
            LowLevelHook::BrTable => Hook::BrTable,
            LowLevelHook::Begin(_) => Hook::Begin,
            LowLevelHook::End(_) => Hook::End,
            LowLevelHook::MemorySize => Hook::MemorySize,
            LowLevelHook::MemoryGrow => Hook::MemoryGrow,
            LowLevelHook::Const(_) => Hook::Const,
            LowLevelHook::Drop(_) => Hook::Drop,
            LowLevelHook::Select(_) => Hook::Select,
            LowLevelHook::Unary(_) => Hook::Unary,
            LowLevelHook::Binary(_) => Hook::Binary,
            LowLevelHook::Load(_) => Hook::Load,
            LowLevelHook::Store(_) => Hook::Store,
            LowLevelHook::Local(..) => Hook::Local,
            LowLevelHook::Global(..) => Hook::Global,
            LowLevelHook::Return(_) => Hook::Return,
            LowLevelHook::CallPre { .. } => Hook::CallPre,
            LowLevelHook::CallPost(_) => Hook::CallPost,
        }
    }

    /// The WebAssembly function type of the imported hook: flattened payload
    /// (i64 split into two i32s) plus the two trailing location i32s.
    pub fn wasm_type(&self) -> FuncType {
        let mut params = Vec::new();
        let mut push = |ty: ValType| params.extend_from_slice(flatten(ty));
        match self {
            LowLevelHook::Start | LowLevelHook::Nop | LowLevelHook::Unreachable => {}
            LowLevelHook::If => push(ValType::I32),
            LowLevelHook::Br => {
                push(ValType::I32);
                push(ValType::I32);
            }
            LowLevelHook::BrIf | LowLevelHook::BrTable => {
                // br_if: label, target, cond; br_table: info_idx, table_idx.
                push(ValType::I32);
                push(ValType::I32);
                if matches!(self, LowLevelHook::BrIf) {
                    push(ValType::I32);
                }
            }
            LowLevelHook::Begin(_) => {}
            LowLevelHook::End(_) => push(ValType::I32),
            LowLevelHook::MemorySize => push(ValType::I32),
            LowLevelHook::MemoryGrow => {
                push(ValType::I32);
                push(ValType::I32);
            }
            LowLevelHook::Const(ty) | LowLevelHook::Drop(ty) => push(*ty),
            LowLevelHook::Select(ty) => {
                push(*ty);
                push(*ty);
                push(ValType::I32);
            }
            LowLevelHook::Unary(op) => {
                push(op.input());
                push(op.result());
            }
            LowLevelHook::Binary(op) => {
                push(op.input());
                push(op.input());
                push(op.result());
            }
            LowLevelHook::Load(op) => {
                push(ValType::I32);
                push(ValType::I32);
                push(op.result());
            }
            LowLevelHook::Store(op) => {
                push(ValType::I32);
                push(ValType::I32);
                push(op.value_type());
            }
            LowLevelHook::Local(_, ty) | LowLevelHook::Global(_, ty) => {
                push(ValType::I32);
                push(*ty);
            }
            LowLevelHook::Return(tys) | LowLevelHook::CallPost(tys) => {
                for &ty in tys {
                    push(ty);
                }
            }
            LowLevelHook::CallPre { args, .. } => {
                push(ValType::I32);
                for &ty in args {
                    push(ty);
                }
            }
        }
        // Trailing location: (func, instr).
        params.push(ValType::I32);
        params.push(ValType::I32);
        FuncType::new(&params, &[])
    }

    /// Visit the payload types *before* flattening (used by the runtime to
    /// join i64 halves back together), excluding the trailing location.
    ///
    /// This is the allocation-free form of [`LowLevelHook::payload_types`],
    /// used on the per-call hook dispatch path.
    pub fn for_each_payload_type(&self, mut f: impl FnMut(ValType)) {
        match self {
            LowLevelHook::Start
            | LowLevelHook::Nop
            | LowLevelHook::Unreachable
            | LowLevelHook::Begin(_) => {}
            LowLevelHook::If | LowLevelHook::End(_) | LowLevelHook::MemorySize => {
                f(ValType::I32);
            }
            LowLevelHook::Br | LowLevelHook::BrTable | LowLevelHook::MemoryGrow => {
                f(ValType::I32);
                f(ValType::I32);
            }
            LowLevelHook::BrIf => {
                f(ValType::I32);
                f(ValType::I32);
                f(ValType::I32);
            }
            LowLevelHook::Const(ty) | LowLevelHook::Drop(ty) => f(*ty),
            LowLevelHook::Select(ty) => {
                f(*ty);
                f(*ty);
                f(ValType::I32);
            }
            LowLevelHook::Unary(op) => {
                f(op.input());
                f(op.result());
            }
            LowLevelHook::Binary(op) => {
                f(op.input());
                f(op.input());
                f(op.result());
            }
            LowLevelHook::Load(op) => {
                f(ValType::I32);
                f(ValType::I32);
                f(op.result());
            }
            LowLevelHook::Store(op) => {
                f(ValType::I32);
                f(ValType::I32);
                f(op.value_type());
            }
            LowLevelHook::Local(_, ty) | LowLevelHook::Global(_, ty) => {
                f(ValType::I32);
                f(*ty);
            }
            LowLevelHook::Return(tys) | LowLevelHook::CallPost(tys) => {
                for &ty in tys {
                    f(ty);
                }
            }
            LowLevelHook::CallPre { args, .. } => {
                f(ValType::I32);
                for &ty in args {
                    f(ty);
                }
            }
        }
    }

    /// The payload types *before* flattening, as a `Vec` (see
    /// [`LowLevelHook::for_each_payload_type`] for the allocation-free
    /// visitor the dispatch path uses).
    pub fn payload_types(&self) -> Vec<ValType> {
        let mut types = Vec::new();
        self.for_each_payload_type(|ty| types.push(ty));
        types
    }
}

/// How a value type is passed to a hook: `i64` as two `i32`s, everything
/// else as itself (paper §2.4.6).
pub fn flatten(ty: ValType) -> &'static [ValType] {
    match ty {
        ValType::I64 => &[ValType::I32, ValType::I32],
        ValType::I32 => &[ValType::I32],
        ValType::F32 => &[ValType::F32],
        ValType::F64 => &[ValType::F64],
    }
}

/// Join a split i64 back from its `(low, high)` i32 halves.
pub fn join_i64(low: i32, high: i32) -> i64 {
    (i64::from(high) << 32) | i64::from(low as u32)
}

/// Split an i64 into `(low, high)` i32 halves (inverse of [`join_i64`]).
pub fn split_i64(v: i64) -> (i32, i32) {
    (v as i32, (v >> 32) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i64_split_join_roundtrip() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 0x1234_5678_9abc_def0] {
            let (lo, hi) = split_i64(v);
            assert_eq!(join_i64(lo, hi), v);
        }
    }

    #[test]
    fn hook_names_are_unique() {
        use std::collections::HashSet;
        let mut hooks: Vec<LowLevelHook> = vec![
            LowLevelHook::Start,
            LowLevelHook::Nop,
            LowLevelHook::Unreachable,
            LowLevelHook::If,
            LowLevelHook::Br,
            LowLevelHook::BrIf,
            LowLevelHook::BrTable,
            LowLevelHook::MemorySize,
            LowLevelHook::MemoryGrow,
        ];
        for kind in [
            BlockKind::Function,
            BlockKind::Block,
            BlockKind::Loop,
            BlockKind::If,
            BlockKind::Else,
        ] {
            hooks.push(LowLevelHook::Begin(kind));
            hooks.push(LowLevelHook::End(kind));
        }
        for ty in ValType::ALL {
            hooks.push(LowLevelHook::Const(ty));
            hooks.push(LowLevelHook::Drop(ty));
            hooks.push(LowLevelHook::Select(ty));
            hooks.push(LowLevelHook::Local(LocalOp::Get, ty));
            hooks.push(LowLevelHook::Local(LocalOp::Set, ty));
            hooks.push(LowLevelHook::Global(GlobalOp::Get, ty));
        }
        for &op in UnaryOp::ALL {
            hooks.push(LowLevelHook::Unary(op));
        }
        for &op in BinaryOp::ALL {
            hooks.push(LowLevelHook::Binary(op));
        }
        for &op in LoadOp::ALL {
            hooks.push(LowLevelHook::Load(op));
        }
        for &op in StoreOp::ALL {
            hooks.push(LowLevelHook::Store(op));
        }
        hooks.push(LowLevelHook::Return(vec![]));
        hooks.push(LowLevelHook::Return(vec![ValType::I32]));
        hooks.push(LowLevelHook::CallPre {
            args: vec![ValType::I32, ValType::I64],
            indirect: false,
        });
        hooks.push(LowLevelHook::CallPre {
            args: vec![ValType::I32, ValType::I64],
            indirect: true,
        });
        hooks.push(LowLevelHook::CallPost(vec![ValType::F64]));

        let names: HashSet<String> = hooks.iter().map(LowLevelHook::name).collect();
        assert_eq!(names.len(), hooks.len(), "duplicate hook names");
    }

    #[test]
    fn i64_payloads_are_split_in_wasm_type() {
        let hook = LowLevelHook::Const(ValType::I64);
        // value (2 × i32) + location (2 × i32)
        assert_eq!(hook.wasm_type(), FuncType::new(&[ValType::I32; 4], &[]));
        assert_eq!(hook.name(), "i64.const");
    }

    #[test]
    fn binary_hook_type() {
        let hook = LowLevelHook::Binary(BinaryOp::I64Add);
        // first (2) + second (2) + result (2) + loc (2) = 8 × i32
        assert_eq!(hook.wasm_type().params.len(), 8);
        assert!(hook.wasm_type().results.is_empty());
    }

    #[test]
    fn call_pre_hook_type_and_name() {
        let hook = LowLevelHook::CallPre {
            args: vec![ValType::I32, ValType::F64, ValType::I64],
            indirect: false,
        };
        assert_eq!(hook.name(), "call_pre_iFI");
        // target + i32 + f64 + (i32,i32) + loc(2)
        assert_eq!(
            hook.wasm_type().params,
            vec![
                ValType::I32,
                ValType::I32,
                ValType::F64,
                ValType::I32,
                ValType::I32,
                ValType::I32,
                ValType::I32
            ]
        );
    }

    #[test]
    fn no_hook_type_contains_i64() {
        // The JavaScript-host constraint of the paper: no i64 crosses the
        // host boundary.
        let hooks = [
            LowLevelHook::Const(ValType::I64),
            LowLevelHook::Drop(ValType::I64),
            LowLevelHook::Select(ValType::I64),
            LowLevelHook::Unary(UnaryOp::I64Clz),
            LowLevelHook::Binary(BinaryOp::I64Mul),
            LowLevelHook::Load(LoadOp::I64Load),
            LowLevelHook::Store(StoreOp::I64Store),
            LowLevelHook::Local(LocalOp::Tee, ValType::I64),
            LowLevelHook::Return(vec![ValType::I64]),
            LowLevelHook::CallPost(vec![ValType::I64, ValType::I64]),
        ];
        for hook in hooks {
            assert!(
                hook.wasm_type().params.iter().all(|&t| t != ValType::I64),
                "{} leaks i64",
                hook.name()
            );
        }
    }

    #[test]
    fn payload_types_match_flattened_wasm_type() {
        let hooks = [
            LowLevelHook::Binary(BinaryOp::I64Add),
            LowLevelHook::Load(LoadOp::I64Load32U),
            LowLevelHook::CallPre {
                args: vec![ValType::I64, ValType::F32],
                indirect: true,
            },
            LowLevelHook::Select(ValType::I64),
        ];
        for hook in hooks {
            let flattened: usize = hook.payload_types().iter().map(|&t| flatten(t).len()).sum();
            assert_eq!(
                flattened + 2,
                hook.wasm_type().params.len(),
                "{}",
                hook.name()
            );
        }
    }
}
