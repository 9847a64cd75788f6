//! The complete WebAssembly 1.0 instruction set.
//!
//! Instruction names follow the paper-era (pre-standardization) text format
//! used throughout the Wasabi paper, e.g. `get_local`, `i32.wrap/i64`,
//! `f32.convert_s/i32`. Grouping mirrors the paper's hook API: all 47 unary
//! and 76 binary numeric instructions are represented by [`UnaryOp`] and
//! [`BinaryOp`] (123 numeric instructions in total, as counted in §2.3).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;

use crate::types::{FuncType, ValType};

/// A typed index into one of the module's index spaces.
///
/// The phantom parameter prevents, e.g., accidentally using a global index
/// where a function index is expected (C-NEWTYPE).
pub struct Idx<T> {
    index: u32,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Idx<T> {
    /// Wrap a raw `u32` index.
    pub fn new(index: u32) -> Self {
        Idx {
            index,
            _marker: PhantomData,
        }
    }

    /// The raw index value.
    pub fn to_u32(self) -> u32 {
        self.index
    }

    /// The raw index as `usize`, for container indexing.
    pub fn to_usize(self) -> usize {
        self.index as usize
    }
}

impl<T> From<u32> for Idx<T> {
    fn from(index: u32) -> Self {
        Idx::new(index)
    }
}

impl<T> From<usize> for Idx<T> {
    fn from(index: usize) -> Self {
        Idx::new(u32::try_from(index).expect("index space exceeds u32"))
    }
}

// Manual impls: derive would put bounds on `T` (C-STRUCT-BOUNDS).
impl<T> Clone for Idx<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Idx<T> {}
impl<T> PartialEq for Idx<T> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
    }
}
impl<T> Eq for Idx<T> {}
impl<T> PartialOrd for Idx<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Idx<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.index.cmp(&other.index)
    }
}
impl<T> Hash for Idx<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.index.hash(state);
    }
}
impl<T> fmt::Debug for Idx<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.index)
    }
}
impl<T> fmt::Display for Idx<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.index)
    }
}

/// Marker for the function index space (see [`crate::module::Function`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionSpace {}
/// Marker for the global index space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GlobalSpace {}
/// Marker for the per-function local index space (params followed by locals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LocalSpace {}
/// Marker for the table index space (at most one table in Wasm 1.0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableSpace {}
/// Marker for the memory index space (at most one memory in Wasm 1.0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemorySpace {}

/// A relative branch label: `0` targets the innermost enclosing block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(pub u32);

impl Label {
    pub fn to_u32(self) -> u32 {
        self.0
    }
    pub fn to_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Result type of a `block`/`loop`/`if` (empty or a single value in 1.0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct BlockType(pub Option<ValType>);

impl fmt::Display for BlockType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(t) => write!(f, "{t}"),
            None => Ok(()),
        }
    }
}

/// Static immediate of a load/store: alignment exponent and address offset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Memarg {
    /// Alignment as a power of two exponent (purely a hint in Wasm).
    pub alignment_exp: u32,
    /// Constant offset added to the dynamic address.
    pub offset: u32,
}

impl Memarg {
    /// Natural alignment for an access of `bytes` width, zero offset.
    pub fn natural(bytes: u32) -> Self {
        Memarg {
            alignment_exp: bytes.trailing_zeros(),
            offset: 0,
        }
    }

    /// Natural alignment with the given constant offset.
    pub fn with_offset(bytes: u32, offset: u32) -> Self {
        Memarg {
            alignment_exp: bytes.trailing_zeros(),
            offset,
        }
    }
}

/// An immediate constant value (payload of the four `*.const` instructions).
///
/// `PartialEq`/`Hash` compare floats **bit-wise** so that `Val` is usable in
/// round-trip tests and hook-map keys even for NaN payloads.
#[derive(Debug, Clone, Copy)]
pub enum Val {
    I32(i32),
    I64(i64),
    F32(f32),
    F64(f64),
}

impl Val {
    /// The type of this value.
    pub fn ty(self) -> ValType {
        match self {
            Val::I32(_) => ValType::I32,
            Val::I64(_) => ValType::I64,
            Val::F32(_) => ValType::F32,
            Val::F64(_) => ValType::F64,
        }
    }

    /// The all-zeroes value of the given type (default for locals).
    pub fn zero(ty: ValType) -> Val {
        match ty {
            ValType::I32 => Val::I32(0),
            ValType::I64 => Val::I64(0),
            ValType::F32 => Val::F32(0.0),
            ValType::F64 => Val::F64(0.0),
        }
    }

    /// The `i32` payload, if this is an `i32` value.
    pub fn as_i32(self) -> Option<i32> {
        match self {
            Val::I32(v) => Some(v),
            _ => None,
        }
    }

    /// The `i64` payload, if this is an `i64` value.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Val::I64(v) => Some(v),
            _ => None,
        }
    }

    /// The `f32` payload, if this is an `f32` value.
    pub fn as_f32(self) -> Option<f32> {
        match self {
            Val::F32(v) => Some(v),
            _ => None,
        }
    }

    /// The `f64` payload, if this is an `f64` value.
    pub fn as_f64(self) -> Option<f64> {
        match self {
            Val::F64(v) => Some(v),
            _ => None,
        }
    }
}

impl PartialEq for Val {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Val::I32(a), Val::I32(b)) => a == b,
            (Val::I64(a), Val::I64(b)) => a == b,
            (Val::F32(a), Val::F32(b)) => a.to_bits() == b.to_bits(),
            (Val::F64(a), Val::F64(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}
impl Eq for Val {}
impl Hash for Val {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Val::I32(v) => (0u8, *v).hash(state),
            Val::I64(v) => (1u8, *v).hash(state),
            Val::F32(v) => (2u8, v.to_bits()).hash(state),
            Val::F64(v) => (3u8, v.to_bits()).hash(state),
        }
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::I32(v) => write!(f, "{v}"),
            Val::I64(v) => write!(f, "{v}"),
            Val::F32(v) => write!(f, "{v}"),
            Val::F64(v) => write!(f, "{v}"),
        }
    }
}

impl From<i32> for Val {
    fn from(v: i32) -> Self {
        Val::I32(v)
    }
}
impl From<i64> for Val {
    fn from(v: i64) -> Self {
        Val::I64(v)
    }
}
impl From<f32> for Val {
    fn from(v: f32) -> Self {
        Val::F32(v)
    }
}
impl From<f64> for Val {
    fn from(v: f64) -> Self {
        Val::F64(v)
    }
}

macro_rules! op_enum {
    (
        $(#[$meta:meta])*
        $name:ident {
            $( $variant:ident = $opcode:literal, $text:literal; )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum $name {
            $( $variant, )*
        }

        impl $name {
            /// All operations of this kind, in opcode order.
            pub const ALL: &'static [$name] = &[ $( $name::$variant, )* ];

            /// The text-format mnemonic (paper-era naming).
            pub fn name(self) -> &'static str {
                match self {
                    $( $name::$variant => $text, )*
                }
            }

            /// The binary-format opcode byte.
            pub fn opcode(self) -> u8 {
                match self {
                    $( $name::$variant => $opcode, )*
                }
            }

            /// Parse an opcode byte back into the operation.
            pub fn from_opcode(byte: u8) -> Option<Self> {
                match byte {
                    $( $opcode => Some($name::$variant), )*
                    _ => None,
                }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.name())
            }
        }
    };
}

op_enum! {
    /// The 47 unary numeric instructions: tests, int/float unary ops, and all
    /// 25 conversions.
    UnaryOp {
        I32Eqz = 0x45, "i32.eqz";
        I64Eqz = 0x50, "i64.eqz";
        I32Clz = 0x67, "i32.clz";
        I32Ctz = 0x68, "i32.ctz";
        I32Popcnt = 0x69, "i32.popcnt";
        I64Clz = 0x79, "i64.clz";
        I64Ctz = 0x7a, "i64.ctz";
        I64Popcnt = 0x7b, "i64.popcnt";
        F32Abs = 0x8b, "f32.abs";
        F32Neg = 0x8c, "f32.neg";
        F32Ceil = 0x8d, "f32.ceil";
        F32Floor = 0x8e, "f32.floor";
        F32Trunc = 0x8f, "f32.trunc";
        F32Nearest = 0x90, "f32.nearest";
        F32Sqrt = 0x91, "f32.sqrt";
        F64Abs = 0x99, "f64.abs";
        F64Neg = 0x9a, "f64.neg";
        F64Ceil = 0x9b, "f64.ceil";
        F64Floor = 0x9c, "f64.floor";
        F64Trunc = 0x9d, "f64.trunc";
        F64Nearest = 0x9e, "f64.nearest";
        F64Sqrt = 0x9f, "f64.sqrt";
        I32WrapI64 = 0xa7, "i32.wrap/i64";
        I32TruncSF32 = 0xa8, "i32.trunc_s/f32";
        I32TruncUF32 = 0xa9, "i32.trunc_u/f32";
        I32TruncSF64 = 0xaa, "i32.trunc_s/f64";
        I32TruncUF64 = 0xab, "i32.trunc_u/f64";
        I64ExtendSI32 = 0xac, "i64.extend_s/i32";
        I64ExtendUI32 = 0xad, "i64.extend_u/i32";
        I64TruncSF32 = 0xae, "i64.trunc_s/f32";
        I64TruncUF32 = 0xaf, "i64.trunc_u/f32";
        I64TruncSF64 = 0xb0, "i64.trunc_s/f64";
        I64TruncUF64 = 0xb1, "i64.trunc_u/f64";
        F32ConvertSI32 = 0xb2, "f32.convert_s/i32";
        F32ConvertUI32 = 0xb3, "f32.convert_u/i32";
        F32ConvertSI64 = 0xb4, "f32.convert_s/i64";
        F32ConvertUI64 = 0xb5, "f32.convert_u/i64";
        F32DemoteF64 = 0xb6, "f32.demote/f64";
        F64ConvertSI32 = 0xb7, "f64.convert_s/i32";
        F64ConvertUI32 = 0xb8, "f64.convert_u/i32";
        F64ConvertSI64 = 0xb9, "f64.convert_s/i64";
        F64ConvertUI64 = 0xba, "f64.convert_u/i64";
        F64PromoteF32 = 0xbb, "f64.promote/f32";
        I32ReinterpretF32 = 0xbc, "i32.reinterpret/f32";
        I64ReinterpretF64 = 0xbd, "i64.reinterpret/f64";
        F32ReinterpretI32 = 0xbe, "f32.reinterpret/i32";
        F64ReinterpretI64 = 0xbf, "f64.reinterpret/i64";
    }
}

impl UnaryOp {
    /// Input type of the operation.
    pub fn input(self) -> ValType {
        use UnaryOp::*;
        match self {
            I32Eqz | I32Clz | I32Ctz | I32Popcnt | I64ExtendSI32 | I64ExtendUI32
            | F32ConvertSI32 | F32ConvertUI32 | F64ConvertSI32 | F64ConvertUI32
            | F32ReinterpretI32 => ValType::I32,
            I64Eqz | I64Clz | I64Ctz | I64Popcnt | I32WrapI64 | F32ConvertSI64 | F32ConvertUI64
            | F64ConvertSI64 | F64ConvertUI64 | F64ReinterpretI64 => ValType::I64,
            F32Abs | F32Neg | F32Ceil | F32Floor | F32Trunc | F32Nearest | F32Sqrt
            | I32TruncSF32 | I32TruncUF32 | I64TruncSF32 | I64TruncUF32 | F64PromoteF32
            | I32ReinterpretF32 => ValType::F32,
            F64Abs | F64Neg | F64Ceil | F64Floor | F64Trunc | F64Nearest | F64Sqrt
            | I32TruncSF64 | I32TruncUF64 | I64TruncSF64 | I64TruncUF64 | F32DemoteF64
            | I64ReinterpretF64 => ValType::F64,
        }
    }

    /// Result type of the operation.
    pub fn result(self) -> ValType {
        use UnaryOp::*;
        match self {
            I32Eqz | I64Eqz | I32Clz | I32Ctz | I32Popcnt | I32WrapI64 | I32TruncSF32
            | I32TruncUF32 | I32TruncSF64 | I32TruncUF64 | I32ReinterpretF32 => ValType::I32,
            I64Clz | I64Ctz | I64Popcnt | I64ExtendSI32 | I64ExtendUI32 | I64TruncSF32
            | I64TruncUF32 | I64TruncSF64 | I64TruncUF64 | I64ReinterpretF64 => ValType::I64,
            F32Abs | F32Neg | F32Ceil | F32Floor | F32Trunc | F32Nearest | F32Sqrt
            | F32ConvertSI32 | F32ConvertUI32 | F32ConvertSI64 | F32ConvertUI64 | F32DemoteF64
            | F32ReinterpretI32 => ValType::F32,
            F64Abs | F64Neg | F64Ceil | F64Floor | F64Trunc | F64Nearest | F64Sqrt
            | F64ConvertSI32 | F64ConvertUI32 | F64ConvertSI64 | F64ConvertUI64 | F64PromoteF32
            | F64ReinterpretI64 => ValType::F64,
        }
    }
}

op_enum! {
    /// The 76 binary numeric instructions: comparisons and arithmetic.
    BinaryOp {
        I32Eq = 0x46, "i32.eq";
        I32Ne = 0x47, "i32.ne";
        I32LtS = 0x48, "i32.lt_s";
        I32LtU = 0x49, "i32.lt_u";
        I32GtS = 0x4a, "i32.gt_s";
        I32GtU = 0x4b, "i32.gt_u";
        I32LeS = 0x4c, "i32.le_s";
        I32LeU = 0x4d, "i32.le_u";
        I32GeS = 0x4e, "i32.ge_s";
        I32GeU = 0x4f, "i32.ge_u";
        I64Eq = 0x51, "i64.eq";
        I64Ne = 0x52, "i64.ne";
        I64LtS = 0x53, "i64.lt_s";
        I64LtU = 0x54, "i64.lt_u";
        I64GtS = 0x55, "i64.gt_s";
        I64GtU = 0x56, "i64.gt_u";
        I64LeS = 0x57, "i64.le_s";
        I64LeU = 0x58, "i64.le_u";
        I64GeS = 0x59, "i64.ge_s";
        I64GeU = 0x5a, "i64.ge_u";
        F32Eq = 0x5b, "f32.eq";
        F32Ne = 0x5c, "f32.ne";
        F32Lt = 0x5d, "f32.lt";
        F32Gt = 0x5e, "f32.gt";
        F32Le = 0x5f, "f32.le";
        F32Ge = 0x60, "f32.ge";
        F64Eq = 0x61, "f64.eq";
        F64Ne = 0x62, "f64.ne";
        F64Lt = 0x63, "f64.lt";
        F64Gt = 0x64, "f64.gt";
        F64Le = 0x65, "f64.le";
        F64Ge = 0x66, "f64.ge";
        I32Add = 0x6a, "i32.add";
        I32Sub = 0x6b, "i32.sub";
        I32Mul = 0x6c, "i32.mul";
        I32DivS = 0x6d, "i32.div_s";
        I32DivU = 0x6e, "i32.div_u";
        I32RemS = 0x6f, "i32.rem_s";
        I32RemU = 0x70, "i32.rem_u";
        I32And = 0x71, "i32.and";
        I32Or = 0x72, "i32.or";
        I32Xor = 0x73, "i32.xor";
        I32Shl = 0x74, "i32.shl";
        I32ShrS = 0x75, "i32.shr_s";
        I32ShrU = 0x76, "i32.shr_u";
        I32Rotl = 0x77, "i32.rotl";
        I32Rotr = 0x78, "i32.rotr";
        I64Add = 0x7c, "i64.add";
        I64Sub = 0x7d, "i64.sub";
        I64Mul = 0x7e, "i64.mul";
        I64DivS = 0x7f, "i64.div_s";
        I64DivU = 0x80, "i64.div_u";
        I64RemS = 0x81, "i64.rem_s";
        I64RemU = 0x82, "i64.rem_u";
        I64And = 0x83, "i64.and";
        I64Or = 0x84, "i64.or";
        I64Xor = 0x85, "i64.xor";
        I64Shl = 0x86, "i64.shl";
        I64ShrS = 0x87, "i64.shr_s";
        I64ShrU = 0x88, "i64.shr_u";
        I64Rotl = 0x89, "i64.rotl";
        I64Rotr = 0x8a, "i64.rotr";
        F32Add = 0x92, "f32.add";
        F32Sub = 0x93, "f32.sub";
        F32Mul = 0x94, "f32.mul";
        F32Div = 0x95, "f32.div";
        F32Min = 0x96, "f32.min";
        F32Max = 0x97, "f32.max";
        F32Copysign = 0x98, "f32.copysign";
        F64Add = 0xa0, "f64.add";
        F64Sub = 0xa1, "f64.sub";
        F64Mul = 0xa2, "f64.mul";
        F64Div = 0xa3, "f64.div";
        F64Min = 0xa4, "f64.min";
        F64Max = 0xa5, "f64.max";
        F64Copysign = 0xa6, "f64.copysign";
    }
}

impl BinaryOp {
    /// Type of both inputs (Wasm binary numeric ops are homogeneous).
    pub fn input(self) -> ValType {
        use BinaryOp::*;
        match self {
            I32Eq | I32Ne | I32LtS | I32LtU | I32GtS | I32GtU | I32LeS | I32LeU | I32GeS
            | I32GeU | I32Add | I32Sub | I32Mul | I32DivS | I32DivU | I32RemS | I32RemU
            | I32And | I32Or | I32Xor | I32Shl | I32ShrS | I32ShrU | I32Rotl | I32Rotr => {
                ValType::I32
            }
            I64Eq | I64Ne | I64LtS | I64LtU | I64GtS | I64GtU | I64LeS | I64LeU | I64GeS
            | I64GeU | I64Add | I64Sub | I64Mul | I64DivS | I64DivU | I64RemS | I64RemU
            | I64And | I64Or | I64Xor | I64Shl | I64ShrS | I64ShrU | I64Rotl | I64Rotr => {
                ValType::I64
            }
            F32Eq | F32Ne | F32Lt | F32Gt | F32Le | F32Ge | F32Add | F32Sub | F32Mul | F32Div
            | F32Min | F32Max | F32Copysign => ValType::F32,
            F64Eq | F64Ne | F64Lt | F64Gt | F64Le | F64Ge | F64Add | F64Sub | F64Mul | F64Div
            | F64Min | F64Max | F64Copysign => ValType::F64,
        }
    }

    /// Result type (`i32` for comparisons, the input type otherwise).
    pub fn result(self) -> ValType {
        if self.is_comparison() {
            ValType::I32
        } else {
            self.input()
        }
    }

    /// `true` for the 32 relational operations (which produce an `i32` bool).
    pub fn is_comparison(self) -> bool {
        (self.opcode() >= 0x46 && self.opcode() <= 0x66) && self.opcode() != 0x50
    }
}

op_enum! {
    /// The 14 load instructions.
    LoadOp {
        I32Load = 0x28, "i32.load";
        I64Load = 0x29, "i64.load";
        F32Load = 0x2a, "f32.load";
        F64Load = 0x2b, "f64.load";
        I32Load8S = 0x2c, "i32.load8_s";
        I32Load8U = 0x2d, "i32.load8_u";
        I32Load16S = 0x2e, "i32.load16_s";
        I32Load16U = 0x2f, "i32.load16_u";
        I64Load8S = 0x30, "i64.load8_s";
        I64Load8U = 0x31, "i64.load8_u";
        I64Load16S = 0x32, "i64.load16_s";
        I64Load16U = 0x33, "i64.load16_u";
        I64Load32S = 0x34, "i64.load32_s";
        I64Load32U = 0x35, "i64.load32_u";
    }
}

impl LoadOp {
    /// Type of the loaded value.
    pub fn result(self) -> ValType {
        use LoadOp::*;
        match self {
            I32Load | I32Load8S | I32Load8U | I32Load16S | I32Load16U => ValType::I32,
            I64Load | I64Load8S | I64Load8U | I64Load16S | I64Load16U | I64Load32S | I64Load32U => {
                ValType::I64
            }
            F32Load => ValType::F32,
            F64Load => ValType::F64,
        }
    }

    /// Number of bytes read from memory.
    pub fn access_bytes(self) -> u32 {
        use LoadOp::*;
        match self {
            I32Load8S | I32Load8U | I64Load8S | I64Load8U => 1,
            I32Load16S | I32Load16U | I64Load16S | I64Load16U => 2,
            I32Load | F32Load | I64Load32S | I64Load32U => 4,
            I64Load | F64Load => 8,
        }
    }
}

op_enum! {
    /// The 9 store instructions.
    StoreOp {
        I32Store = 0x36, "i32.store";
        I64Store = 0x37, "i64.store";
        F32Store = 0x38, "f32.store";
        F64Store = 0x39, "f64.store";
        I32Store8 = 0x3a, "i32.store8";
        I32Store16 = 0x3b, "i32.store16";
        I64Store8 = 0x3c, "i64.store8";
        I64Store16 = 0x3d, "i64.store16";
        I64Store32 = 0x3e, "i64.store32";
    }
}

impl StoreOp {
    /// Type of the stored operand.
    pub fn value_type(self) -> ValType {
        use StoreOp::*;
        match self {
            I32Store | I32Store8 | I32Store16 => ValType::I32,
            I64Store | I64Store8 | I64Store16 | I64Store32 => ValType::I64,
            F32Store => ValType::F32,
            F64Store => ValType::F64,
        }
    }

    /// Number of bytes written to memory.
    pub fn access_bytes(self) -> u32 {
        use StoreOp::*;
        match self {
            I32Store8 | I64Store8 => 1,
            I32Store16 | I64Store16 => 2,
            I32Store | F32Store | I64Store32 => 4,
            I64Store | F64Store => 8,
        }
    }
}

/// Operations on locals: `get_local`, `set_local`, `tee_local`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LocalOp {
    Get,
    Set,
    Tee,
}

impl LocalOp {
    pub fn name(self) -> &'static str {
        match self {
            LocalOp::Get => "get_local",
            LocalOp::Set => "set_local",
            LocalOp::Tee => "tee_local",
        }
    }
}

impl fmt::Display for LocalOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Operations on globals: `get_global`, `set_global`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GlobalOp {
    Get,
    Set,
}

impl GlobalOp {
    pub fn name(self) -> &'static str {
        match self {
            GlobalOp::Get => "get_global",
            GlobalOp::Set => "set_global",
        }
    }
}

impl fmt::Display for GlobalOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single WebAssembly instruction (paper Fig. 3, `instr`).
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    Unreachable,
    Nop,

    // Structured control flow. `End` closes blocks and function bodies.
    Block(BlockType),
    Loop(BlockType),
    If(BlockType),
    Else,
    End,

    Br(Label),
    BrIf(Label),
    BrTable {
        table: Vec<Label>,
        default: Label,
    },
    Return,
    Call(Idx<FunctionSpace>),
    /// The function type is the static expected signature; the table index is
    /// always 0 in Wasm 1.0 but kept for completeness.
    CallIndirect(FuncType, Idx<TableSpace>),

    Drop,
    Select,

    Local(LocalOp, Idx<LocalSpace>),
    Global(GlobalOp, Idx<GlobalSpace>),

    Load(LoadOp, Memarg),
    Store(StoreOp, Memarg),
    MemorySize(Idx<MemorySpace>),
    MemoryGrow(Idx<MemorySpace>),

    Const(Val),
    Unary(UnaryOp),
    Binary(BinaryOp),
}

impl Instr {
    /// The text-format mnemonic of this instruction (without immediates).
    pub fn name(&self) -> &'static str {
        match self {
            Instr::Unreachable => "unreachable",
            Instr::Nop => "nop",
            Instr::Block(_) => "block",
            Instr::Loop(_) => "loop",
            Instr::If(_) => "if",
            Instr::Else => "else",
            Instr::End => "end",
            Instr::Br(_) => "br",
            Instr::BrIf(_) => "br_if",
            Instr::BrTable { .. } => "br_table",
            Instr::Return => "return",
            Instr::Call(_) => "call",
            Instr::CallIndirect(..) => "call_indirect",
            Instr::Drop => "drop",
            Instr::Select => "select",
            Instr::Local(op, _) => op.name(),
            Instr::Global(op, _) => op.name(),
            Instr::Load(op, _) => op.name(),
            Instr::Store(op, _) => op.name(),
            Instr::MemorySize(_) => "memory.size",
            Instr::MemoryGrow(_) => "memory.grow",
            Instr::Const(val) => match val.ty() {
                ValType::I32 => "i32.const",
                ValType::I64 => "i64.const",
                ValType::F32 => "f32.const",
                ValType::F64 => "f64.const",
            },
            Instr::Unary(op) => op.name(),
            Instr::Binary(op) => op.name(),
        }
    }

    /// `true` if this instruction opens a new block scope.
    pub fn begins_block(&self) -> bool {
        matches!(self, Instr::Block(_) | Instr::Loop(_) | Instr::If(_))
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Block(bt) | Instr::Loop(bt) | Instr::If(bt) => {
                write!(f, "{}", self.name())?;
                if bt.0.is_some() {
                    write!(f, " (result {bt})")?;
                }
                Ok(())
            }
            Instr::Br(l) => write!(f, "br {l}"),
            Instr::BrIf(l) => write!(f, "br_if {l}"),
            Instr::BrTable { table, default } => {
                write!(f, "br_table")?;
                for l in table {
                    write!(f, " {l}")?;
                }
                write!(f, " {default}")
            }
            Instr::Call(idx) => write!(f, "call {idx}"),
            Instr::CallIndirect(ty, _) => write!(f, "call_indirect {ty}"),
            Instr::Local(op, idx) => write!(f, "{op} {idx}"),
            Instr::Global(op, idx) => write!(f, "{op} {idx}"),
            Instr::Load(op, memarg) => write!(f, "{op} offset={}", memarg.offset),
            Instr::Store(op, memarg) => write!(f, "{op} offset={}", memarg.offset),
            Instr::Const(val) => write!(f, "{} {val}", self.name()),
            _ => f.write_str(self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_instruction_count_matches_paper() {
        // Paper §2.3: "there are 123 numeric instructions alone".
        assert_eq!(UnaryOp::ALL.len() + BinaryOp::ALL.len(), 123);
        assert_eq!(UnaryOp::ALL.len(), 47);
        assert_eq!(BinaryOp::ALL.len(), 76);
    }

    #[test]
    fn unary_opcode_roundtrip() {
        for &op in UnaryOp::ALL {
            assert_eq!(UnaryOp::from_opcode(op.opcode()), Some(op));
        }
    }

    #[test]
    fn binary_opcode_roundtrip() {
        for &op in BinaryOp::ALL {
            assert_eq!(BinaryOp::from_opcode(op.opcode()), Some(op));
        }
    }

    #[test]
    fn load_store_opcode_roundtrip() {
        for &op in LoadOp::ALL {
            assert_eq!(LoadOp::from_opcode(op.opcode()), Some(op));
        }
        for &op in StoreOp::ALL {
            assert_eq!(StoreOp::from_opcode(op.opcode()), Some(op));
        }
    }

    #[test]
    fn comparison_ops_produce_i32() {
        assert!(BinaryOp::I64LtS.is_comparison());
        assert_eq!(BinaryOp::I64LtS.result(), ValType::I32);
        assert!(!BinaryOp::I64Add.is_comparison());
        assert_eq!(BinaryOp::I64Add.result(), ValType::I64);
        assert!(BinaryOp::F64Ge.is_comparison());
        assert_eq!(BinaryOp::F64Ge.result(), ValType::I32);
        assert!(!BinaryOp::F64Max.is_comparison());
    }

    #[test]
    fn comparison_count() {
        let n = BinaryOp::ALL.iter().filter(|op| op.is_comparison()).count();
        assert_eq!(n, 32);
    }

    #[test]
    fn conversion_types() {
        assert_eq!(UnaryOp::I32WrapI64.input(), ValType::I64);
        assert_eq!(UnaryOp::I32WrapI64.result(), ValType::I32);
        assert_eq!(UnaryOp::F32ConvertSI64.input(), ValType::I64);
        assert_eq!(UnaryOp::F32ConvertSI64.result(), ValType::F32);
        assert_eq!(UnaryOp::F64PromoteF32.input(), ValType::F32);
        assert_eq!(UnaryOp::F64PromoteF32.result(), ValType::F64);
        assert_eq!(UnaryOp::I64ReinterpretF64.input(), ValType::F64);
        assert_eq!(UnaryOp::I64ReinterpretF64.result(), ValType::I64);
    }

    #[test]
    fn load_store_access_widths() {
        assert_eq!(LoadOp::I64Load32U.access_bytes(), 4);
        assert_eq!(LoadOp::I32Load8S.access_bytes(), 1);
        assert_eq!(LoadOp::F64Load.access_bytes(), 8);
        assert_eq!(StoreOp::I64Store32.access_bytes(), 4);
        assert_eq!(StoreOp::I32Store16.access_bytes(), 2);
    }

    #[test]
    fn val_bitwise_eq_handles_nan() {
        let nan1 = Val::F64(f64::NAN);
        let nan2 = Val::F64(f64::NAN);
        assert_eq!(nan1, nan2);
        assert_ne!(Val::F64(0.0), Val::F64(-0.0));
        assert_eq!(Val::F32(1.5), Val::F32(1.5));
    }

    #[test]
    fn idx_is_typed() {
        let f: Idx<FunctionSpace> = Idx::new(3);
        assert_eq!(f.to_u32(), 3);
        assert_eq!(f, Idx::from(3u32));
    }

    #[test]
    fn instr_display() {
        assert_eq!(Instr::Const(Val::I32(7)).to_string(), "i32.const 7");
        assert_eq!(Instr::Br(Label(1)).to_string(), "br 1");
        assert_eq!(
            Instr::Local(LocalOp::Get, Idx::new(0)).to_string(),
            "get_local 0"
        );
        assert_eq!(Instr::Binary(BinaryOp::I32Add).to_string(), "i32.add");
    }

    #[test]
    fn memarg_natural_alignment() {
        assert_eq!(Memarg::natural(4).alignment_exp, 2);
        assert_eq!(Memarg::natural(8).alignment_exp, 3);
        assert_eq!(Memarg::natural(1).alignment_exp, 0);
    }
}
