//! High-level module AST (paper Fig. 3).
//!
//! Unlike the raw binary format, this AST keeps *stable indices*: the
//! function list is in declaration order and may freely mix imported and
//! local functions. The binary encoder re-sorts imports first (as the binary
//! format requires) and remaps every function/global reference. This is what
//! makes instrumentation sound: Wasabi appends hook *imports* to an existing
//! module without invalidating any `call` immediate in the AST.

use crate::instr::{FunctionSpace, GlobalSpace, Idx, Instr, LocalSpace, Val};
use crate::types::{FuncType, GlobalType, Limits, MemoryType, TableType, ValType};

/// Provenance of a function/global/table/memory: imported or defined locally.
#[derive(Debug, Clone, PartialEq)]
pub struct Import {
    pub module: String,
    pub name: String,
}

impl Import {
    /// Create an import descriptor from module and field name.
    pub fn new(module: impl Into<String>, name: impl Into<String>) -> Self {
        Import {
            module: module.into(),
            name: name.into(),
        }
    }
}

/// Body of a locally-defined function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Code {
    /// Types of the explicit locals (the local index space is the function's
    /// parameters followed by these).
    pub locals: Vec<ValType>,
    /// Instruction sequence, terminated by an [`Instr::End`].
    pub body: Vec<Instr>,
}

/// A function: either imported or carrying code (paper Fig. 3, `function`).
///
/// Equality ignores the debug [`Function::name`], which is tooling metadata
/// that is not part of the binary format (so `decode(encode(m)) == m` holds
/// for modules with builder-assigned names).
#[derive(Debug, Clone)]
pub struct Function {
    pub type_: FuncType,
    pub kind: FunctionKind,
    /// Names under which this function is exported (may be several).
    pub export: Vec<String>,
    /// Optional debug name (not emitted to the binary, ignored by `==`).
    pub name: Option<String>,
}

impl PartialEq for Function {
    fn eq(&self, other: &Self) -> bool {
        self.type_ == other.type_ && self.kind == other.kind && self.export == other.export
    }
}

/// Import-or-code alternative for functions.
#[derive(Debug, Clone, PartialEq)]
pub enum FunctionKind {
    Import(Import),
    Local(Code),
}

impl Function {
    /// A locally-defined function with the given type, locals and body.
    pub fn new(type_: FuncType, locals: Vec<ValType>, body: Vec<Instr>) -> Self {
        Function {
            type_,
            kind: FunctionKind::Local(Code { locals, body }),
            export: Vec::new(),
            name: None,
        }
    }

    /// An imported function.
    pub fn new_import(type_: FuncType, module: &str, name: &str) -> Self {
        Function {
            type_,
            kind: FunctionKind::Import(Import::new(module, name)),
            export: Vec::new(),
            name: None,
        }
    }

    /// The import descriptor, if this function is imported.
    pub fn import(&self) -> Option<&Import> {
        match &self.kind {
            FunctionKind::Import(import) => Some(import),
            FunctionKind::Local(_) => None,
        }
    }

    /// The code, if this function is locally defined.
    pub fn code(&self) -> Option<&Code> {
        match &self.kind {
            FunctionKind::Local(code) => Some(code),
            FunctionKind::Import(_) => None,
        }
    }

    /// Mutable access to the code, if locally defined.
    pub fn code_mut(&mut self) -> Option<&mut Code> {
        match &mut self.kind {
            FunctionKind::Local(code) => Some(code),
            FunctionKind::Import(_) => None,
        }
    }

    /// Number of parameters.
    pub fn param_count(&self) -> usize {
        self.type_.params.len()
    }

    /// Type of the local with the given index (parameters first, then
    /// explicit locals), or `None` if out of range (or imported).
    pub fn local_type(&self, idx: Idx<LocalSpace>) -> Option<ValType> {
        let i = idx.to_usize();
        if i < self.type_.params.len() {
            return Some(self.type_.params[i]);
        }
        let code = self.code()?;
        code.locals.get(i - self.type_.params.len()).copied()
    }

    /// Append a fresh local of type `ty` and return its index.
    ///
    /// # Panics
    ///
    /// Panics if the function is imported (it has no locals).
    pub fn add_fresh_local(&mut self, ty: ValType) -> Idx<LocalSpace> {
        let param_count = self.type_.params.len();
        let code = self
            .code_mut()
            .expect("cannot add a local to an imported function");
        code.locals.push(ty);
        Idx::from(param_count + code.locals.len() - 1)
    }

    /// Number of instructions in the body (0 for imports).
    pub fn instr_count(&self) -> usize {
        self.code().map_or(0, |code| code.body.len())
    }
}

/// A global variable (paper Fig. 3, `global`).
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    pub type_: GlobalType,
    pub kind: GlobalKind,
    pub export: Vec<String>,
}

/// Import-or-initializer alternative for globals.
#[derive(Debug, Clone, PartialEq)]
pub enum GlobalKind {
    Import(Import),
    /// Initialization constant expression (a single `const` or `get_global`
    /// followed by `end` in Wasm 1.0).
    Init(Vec<Instr>),
}

impl Global {
    /// A local global initialized with a constant value.
    pub fn new(type_: GlobalType, init: Val) -> Self {
        Global {
            type_,
            kind: GlobalKind::Init(vec![Instr::Const(init), Instr::End]),
            export: Vec::new(),
        }
    }

    /// An imported global.
    pub fn new_import(type_: GlobalType, module: &str, name: &str) -> Self {
        Global {
            type_,
            kind: GlobalKind::Import(Import::new(module, name)),
            export: Vec::new(),
        }
    }

    /// The import descriptor, if imported.
    pub fn import(&self) -> Option<&Import> {
        match &self.kind {
            GlobalKind::Import(import) => Some(import),
            GlobalKind::Init(_) => None,
        }
    }
}

/// An element segment: function indices copied into the table at
/// instantiation (used by `call_indirect`).
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// Constant expression for the start offset.
    pub offset: Vec<Instr>,
    pub functions: Vec<Idx<FunctionSpace>>,
}

/// The table (at most one in Wasm 1.0), with its element segments attached.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub type_: TableType,
    pub import: Option<Import>,
    pub elements: Vec<Element>,
    pub export: Vec<String>,
}

impl Table {
    /// A local table with the given limits and no elements.
    pub fn new(limits: Limits) -> Self {
        Table {
            type_: TableType(limits),
            import: None,
            elements: Vec::new(),
            export: Vec::new(),
        }
    }
}

/// A data segment: bytes copied into linear memory at instantiation.
#[derive(Debug, Clone, PartialEq)]
pub struct Data {
    /// Constant expression for the start offset.
    pub offset: Vec<Instr>,
    pub bytes: Vec<u8>,
}

/// The linear memory (at most one in Wasm 1.0), with data segments attached.
#[derive(Debug, Clone, PartialEq)]
pub struct Memory {
    pub type_: MemoryType,
    pub import: Option<Import>,
    pub data: Vec<Data>,
    pub export: Vec<String>,
}

impl Memory {
    /// A local memory with the given page limits and no data segments.
    pub fn new(limits: Limits) -> Self {
        Memory {
            type_: MemoryType(limits),
            import: None,
            data: Vec::new(),
            export: Vec::new(),
        }
    }
}

/// An uninterpreted custom section (preserved byte-exactly on round-trips).
#[derive(Debug, Clone, PartialEq)]
pub struct CustomSection {
    pub name: String,
    pub bytes: Vec<u8>,
}

/// A WebAssembly module (paper Fig. 3, `module`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    pub functions: Vec<Function>,
    pub globals: Vec<Global>,
    pub tables: Vec<Table>,
    pub memories: Vec<Memory>,
    pub start: Option<Idx<FunctionSpace>>,
    /// Debug module name from the `name` custom section, if any.
    pub name: Option<String>,
    pub custom_sections: Vec<CustomSection>,
}

impl Module {
    /// An empty module.
    pub fn new() -> Self {
        Module::default()
    }

    /// Append a locally-defined function; returns its (stable) index.
    pub fn add_function(
        &mut self,
        type_: FuncType,
        locals: Vec<ValType>,
        body: Vec<Instr>,
    ) -> Idx<FunctionSpace> {
        self.functions.push(Function::new(type_, locals, body));
        Idx::from(self.functions.len() - 1)
    }

    /// Append an imported function; returns its (stable) index.
    ///
    /// Note that unlike in the raw binary format, imports may be added *after*
    /// local functions without renumbering: the encoder performs the
    /// imports-first permutation (this is how hook imports are injected).
    pub fn add_function_import(
        &mut self,
        type_: FuncType,
        module: &str,
        name: &str,
    ) -> Idx<FunctionSpace> {
        self.functions
            .push(Function::new_import(type_, module, name));
        Idx::from(self.functions.len() - 1)
    }

    /// Append a global; returns its index.
    pub fn add_global(&mut self, type_: GlobalType, init: Val) -> Idx<GlobalSpace> {
        self.globals.push(Global::new(type_, init));
        Idx::from(self.globals.len() - 1)
    }

    /// The function at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn function(&self, idx: Idx<FunctionSpace>) -> &Function {
        &self.functions[idx.to_usize()]
    }

    /// Mutable access to the function at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn function_mut(&mut self, idx: Idx<FunctionSpace>) -> &mut Function {
        &mut self.functions[idx.to_usize()]
    }

    /// Iterate over `(index, function)` pairs.
    pub fn iter_functions(&self) -> impl Iterator<Item = (Idx<FunctionSpace>, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (Idx::from(i), f))
    }

    /// Find an exported function by name.
    pub fn export_function(&self, name: &str) -> Option<Idx<FunctionSpace>> {
        self.iter_functions()
            .find(|(_, f)| f.export.iter().any(|e| e == name))
            .map(|(i, _)| i)
    }

    /// The deduplicated list of function types used anywhere in the module
    /// (function declarations and `call_indirect` immediates), in first-use
    /// order. This is the type section the encoder emits.
    pub fn collect_types(&self) -> Vec<FuncType> {
        let mut types = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut push = |ty: &FuncType, types: &mut Vec<FuncType>| {
            if seen.insert(ty.clone()) {
                types.push(ty.clone());
            }
        };
        for function in &self.functions {
            push(&function.type_, &mut types);
            if let Some(code) = function.code() {
                for instr in &code.body {
                    if let Instr::CallIndirect(ty, _) = instr {
                        push(ty, &mut types);
                    }
                }
            }
        }
        types
    }

    /// Total number of instructions across all local function bodies.
    pub fn instr_count(&self) -> usize {
        self.functions.iter().map(Function::instr_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BinaryOp, LocalOp};

    fn i32_i32_to_i32() -> FuncType {
        FuncType::new(&[ValType::I32, ValType::I32], &[ValType::I32])
    }

    fn add_function_body() -> Vec<Instr> {
        vec![
            Instr::Local(LocalOp::Get, Idx::from(0u32)),
            Instr::Local(LocalOp::Get, Idx::from(1u32)),
            Instr::Binary(BinaryOp::I32Add),
            Instr::End,
        ]
    }

    #[test]
    fn add_and_lookup_function() {
        let mut module = Module::new();
        let idx = module.add_function(i32_i32_to_i32(), vec![], add_function_body());
        assert_eq!(idx.to_u32(), 0);
        assert_eq!(module.function(idx).instr_count(), 4);
        assert_eq!(module.instr_count(), 4);
    }

    #[test]
    fn local_index_space_spans_params_and_locals() {
        let mut module = Module::new();
        let idx = module.add_function(i32_i32_to_i32(), vec![ValType::F64], add_function_body());
        let function = module.function(idx);
        assert_eq!(function.local_type(Idx::from(0u32)), Some(ValType::I32));
        assert_eq!(function.local_type(Idx::from(1u32)), Some(ValType::I32));
        assert_eq!(function.local_type(Idx::from(2u32)), Some(ValType::F64));
        assert_eq!(function.local_type(Idx::from(3u32)), None);
    }

    #[test]
    fn fresh_local_extends_index_space() {
        let mut module = Module::new();
        let idx = module.add_function(i32_i32_to_i32(), vec![], add_function_body());
        let function = module.function_mut(idx);
        let l = function.add_fresh_local(ValType::I64);
        assert_eq!(l.to_u32(), 2);
        assert_eq!(function.local_type(l), Some(ValType::I64));
    }

    #[test]
    fn collect_types_deduplicates() {
        let mut module = Module::new();
        module.add_function(i32_i32_to_i32(), vec![], add_function_body());
        module.add_function(i32_i32_to_i32(), vec![], add_function_body());
        module.add_function_import(FuncType::new(&[], &[]), "env", "f");
        assert_eq!(module.collect_types().len(), 2);
    }

    #[test]
    fn collect_types_includes_call_indirect() {
        let mut module = Module::new();
        let indirect_ty = FuncType::new(&[ValType::F32], &[]);
        module.add_function(
            FuncType::new(&[], &[]),
            vec![],
            vec![
                Instr::Const(Val::F32(0.0)),
                Instr::Const(Val::I32(0)),
                Instr::CallIndirect(indirect_ty.clone(), Idx::from(0u32)),
                Instr::End,
            ],
        );
        let types = module.collect_types();
        assert!(types.contains(&indirect_ty));
        assert_eq!(types.len(), 2);
    }

    #[test]
    fn export_lookup() {
        let mut module = Module::new();
        let idx = module.add_function(i32_i32_to_i32(), vec![], add_function_body());
        module.function_mut(idx).export.push("add".to_string());
        assert_eq!(module.export_function("add"), Some(idx));
        assert_eq!(module.export_function("missing"), None);
    }

    #[test]
    fn imported_function_has_no_code() {
        let f = Function::new_import(FuncType::new(&[], &[]), "wasabi", "hook");
        assert!(f.code().is_none());
        assert_eq!(f.import().map(|i| i.module.as_str()), Some("wasabi"));
    }
}
