//! Static module information produced by the instrumenter and consumed by
//! the Wasabi runtime (the analogue of the generated JavaScript
//! `Wasabi.module.info` of the paper, Fig. 2 "extract → information").

use wasabi_wasm::module::Module;
use wasabi_wasm::types::FuncType;

use crate::convention::LowLevelHook;
use crate::hooks::{BlockKind, HookSet};
use crate::location::{BranchTarget, Location};

/// Static description of one function of the *original* module.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionInfo {
    pub type_: FuncType,
    /// `(module, name)` if imported.
    pub import: Option<(String, String)>,
    /// Export names.
    pub export: Vec<String>,
    /// Debug name, if known.
    pub name: Option<String>,
    /// Number of instructions (0 for imports).
    pub instr_count: u32,
}

impl FunctionInfo {
    /// A human-readable identifier: debug name, first export, import name,
    /// or the function index as fallback.
    pub fn display_name(&self, idx: u32) -> String {
        if let Some(name) = &self.name {
            return name.clone();
        }
        if let Some(first) = self.export.first() {
            return first.clone();
        }
        if let Some((module, name)) = &self.import {
            return format!("{module}.{name}");
        }
        format!("func#{idx}")
    }
}

/// An `end` hook invocation to replay when a branch leaves blocks
/// (paper §2.4.5): the block kind, its begin location, and the location of
/// its `end` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndInfo {
    pub kind: BlockKind,
    pub begin: Location,
    pub end: Location,
}

/// One possible outcome of a `br_table`: its resolved target and the blocks
/// whose `end` hooks must fire if this entry is taken.
#[derive(Debug, Clone, PartialEq)]
pub struct BrTableEntry {
    pub target: BranchTarget,
    pub ends: Vec<EndInfo>,
}

/// Statically extracted information about one `br_table` instruction
/// (paper §2.4.5: "the instrumentation statically extracts the list of
/// ended blocks for every branch table entry and stores this information").
#[derive(Debug, Clone, PartialEq)]
pub struct BrTableInfo {
    /// Location of the `br_table` instruction itself.
    pub location: Location,
    pub entries: Vec<BrTableEntry>,
    pub default: BrTableEntry,
}

/// A static table initializer (element segment) of the original module,
/// used by the runtime to resolve indirect call targets.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSegmentInfo {
    /// Start offset, if statically known (constant expression).
    pub offset: Option<u32>,
    /// Original-module function indices.
    pub functions: Vec<u32>,
}

/// Everything the Wasabi runtime needs to turn low-level hook calls into
/// high-level analysis events. Serializable, mirroring the JSON the paper's
/// instrumenter emits for its JavaScript runtime.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModuleInfo {
    /// Per-function static info, indexed by original function index.
    pub functions: Vec<FunctionInfo>,
    /// Static element segments (for indirect-call resolution).
    pub table: Vec<TableSegmentInfo>,
    /// Per-`br_table` info, indexed by the immediate passed to the
    /// low-level `br_table` hook.
    pub br_tables: Vec<BrTableInfo>,
    /// The start function of the original module, if any.
    pub start: Option<u32>,
    /// Low-level hooks in import order (function indices
    /// `original_function_count..`).
    pub hooks: Vec<LowLevelHook>,
    /// The hook set the module was instrumented for.
    pub enabled: HookSet,
    /// Number of functions in the original module.
    pub original_function_count: u32,
}

impl ModuleInfo {
    /// Extract the per-function and table info from an original module
    /// (called by the instrumenter before transformation).
    pub fn from_module(module: &Module) -> Self {
        let functions = module
            .functions
            .iter()
            .map(|f| FunctionInfo {
                type_: f.type_.clone(),
                import: f.import().map(|i| (i.module.clone(), i.name.clone())),
                export: f.export.clone(),
                name: f.name.clone(),
                instr_count: f.instr_count() as u32,
            })
            .collect();
        let table = module
            .tables
            .first()
            .map(|t| {
                t.elements
                    .iter()
                    .map(|e| TableSegmentInfo {
                        offset: match e.offset.as_slice() {
                            [wasabi_wasm::Instr::Const(wasabi_wasm::Val::I32(o)), wasabi_wasm::Instr::End] => {
                                Some(*o as u32)
                            }
                            _ => None,
                        },
                        functions: e.functions.iter().map(|f| f.to_u32()).collect(),
                    })
                    .collect()
            })
            .unwrap_or_default();
        ModuleInfo {
            original_function_count: module.functions.len() as u32,
            start: module.start.map(|s| s.to_u32()),
            functions,
            table,
            ..ModuleInfo::default()
        }
    }

    /// Resolve a runtime table index to the original function index it maps
    /// to, using the static element segments. Returns `None` for
    /// out-of-range or uninitialized slots (or segments with non-constant
    /// offsets, which this embedding does not produce).
    pub fn resolve_table(&self, index: u32) -> Option<u32> {
        for segment in &self.table {
            let offset = segment.offset?;
            if index >= offset && (index - offset) < segment.functions.len() as u32 {
                return Some(segment.functions[(index - offset) as usize]);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_wasm::builder::ModuleBuilder;
    use wasabi_wasm::types::ValType;

    fn sample() -> ModuleInfo {
        let mut builder = ModuleBuilder::new();
        builder.import_function("env", "imported", &[ValType::I32], &[]);
        let f = builder.function("work", &[], &[ValType::I32], |f| {
            f.i32_const(1);
        });
        let g = builder.function("", &[], &[ValType::I32], |f| {
            f.i32_const(2);
        });
        builder.table(4);
        builder.elements(1, vec![f, g]);
        ModuleInfo::from_module(&builder.finish())
    }

    #[test]
    fn extracts_functions() {
        let info = sample();
        assert_eq!(info.original_function_count, 3);
        assert_eq!(
            info.functions[0].import,
            Some(("env".to_string(), "imported".to_string()))
        );
        assert_eq!(info.functions[1].export, vec!["work".to_string()]);
        assert_eq!(info.functions[1].instr_count, 2); // const + end
    }

    #[test]
    fn display_names() {
        let info = sample();
        assert_eq!(info.functions[0].display_name(0), "env.imported");
        assert_eq!(info.functions[1].display_name(1), "work");
        assert_eq!(info.functions[2].display_name(2), "func#2");
    }

    #[test]
    fn resolves_table_indices() {
        let info = sample();
        assert_eq!(info.resolve_table(0), None); // uninitialized slot
        assert_eq!(info.resolve_table(1), Some(1));
        assert_eq!(info.resolve_table(2), Some(2));
        assert_eq!(info.resolve_table(3), None);
        assert_eq!(info.resolve_table(100), None);
    }
}
