//! Value, function, global, table, and memory types of WebAssembly 1.0.

use std::fmt;

/// The four primitive WebAssembly value types (paper Fig. 3, `typeval`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValType {
    /// 32-bit integer (sign-agnostic).
    I32,
    /// 64-bit integer (sign-agnostic).
    I64,
    /// 32-bit IEEE 754 float.
    F32,
    /// 64-bit IEEE 754 float.
    F64,
}

impl ValType {
    /// All value types, in binary-format discriminant order.
    pub const ALL: [ValType; 4] = [ValType::I32, ValType::I64, ValType::F32, ValType::F64];

    /// Size of a value of this type in bytes.
    pub fn size_bytes(self) -> u32 {
        match self {
            ValType::I32 | ValType::F32 => 4,
            ValType::I64 | ValType::F64 => 8,
        }
    }

    /// Short one-character mnemonic used in monomorphized hook names
    /// (`i`, `I`, `f`, `F`).
    pub fn to_char(self) -> char {
        match self {
            ValType::I32 => 'i',
            ValType::I64 => 'I',
            ValType::F32 => 'f',
            ValType::F64 => 'F',
        }
    }

    /// Inverse of [`ValType::to_char`].
    pub fn from_char(c: char) -> Option<ValType> {
        match c {
            'i' => Some(ValType::I32),
            'I' => Some(ValType::I64),
            'f' => Some(ValType::F32),
            'F' => Some(ValType::F64),
            _ => None,
        }
    }

    /// `true` for `i32`/`i64`.
    pub fn is_int(self) -> bool {
        matches!(self, ValType::I32 | ValType::I64)
    }

    /// `true` for `f32`/`f64`.
    pub fn is_float(self) -> bool {
        matches!(self, ValType::F32 | ValType::F64)
    }
}

impl fmt::Display for ValType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ValType::I32 => "i32",
            ValType::I64 => "i64",
            ValType::F32 => "f32",
            ValType::F64 => "f64",
        })
    }
}

/// A function type: parameters and results (paper Fig. 3, `typefunc`).
///
/// WebAssembly 1.0 binaries allow at most one result, but the AST (like the
/// formal semantics of Haas et al.) supports arbitrarily many.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct FuncType {
    pub params: Vec<ValType>,
    pub results: Vec<ValType>,
}

impl FuncType {
    /// Create a function type from parameter and result slices.
    pub fn new(params: &[ValType], results: &[ValType]) -> Self {
        FuncType {
            params: params.to_vec(),
            results: results.to_vec(),
        }
    }
}

impl fmt::Display for FuncType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, t) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "] -> [")?;
        for (i, t) in self.results.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "]")
    }
}

/// Minimum and optional maximum size of a table or memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Limits {
    pub initial: u32,
    pub max: Option<u32>,
}

impl Limits {
    /// Limits with an initial size and no maximum.
    pub fn at_least(initial: u32) -> Self {
        Limits { initial, max: None }
    }

    /// Limits with both an initial size and a maximum.
    pub fn bounded(initial: u32, max: u32) -> Self {
        Limits {
            initial,
            max: Some(max),
        }
    }
}

/// Memory type: limits in units of 64 KiB pages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct MemoryType(pub Limits);

/// Table type: limits in number of `funcref` elements (the only element type
/// in WebAssembly 1.0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TableType(pub Limits);

/// Global type: a value type plus mutability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalType {
    pub val_type: ValType,
    pub mutable: bool,
}

impl GlobalType {
    /// An immutable global of the given value type.
    pub fn const_(val_type: ValType) -> Self {
        GlobalType {
            val_type,
            mutable: false,
        }
    }

    /// A mutable global of the given value type.
    pub fn mutable(val_type: ValType) -> Self {
        GlobalType {
            val_type,
            mutable: true,
        }
    }
}

/// WebAssembly page size: 64 KiB.
pub const PAGE_SIZE: u32 = 65536;

/// Hard limit on the number of memory pages (4 GiB address space).
pub const MAX_PAGES: u32 = 65536;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valtype_char_roundtrip() {
        for t in ValType::ALL {
            assert_eq!(ValType::from_char(t.to_char()), Some(t));
        }
        assert_eq!(ValType::from_char('x'), None);
    }

    #[test]
    fn valtype_display() {
        assert_eq!(ValType::I32.to_string(), "i32");
        assert_eq!(ValType::F64.to_string(), "f64");
    }

    #[test]
    fn valtype_sizes() {
        assert_eq!(ValType::I32.size_bytes(), 4);
        assert_eq!(ValType::I64.size_bytes(), 8);
        assert_eq!(ValType::F32.size_bytes(), 4);
        assert_eq!(ValType::F64.size_bytes(), 8);
    }

    #[test]
    fn valtype_classification() {
        assert!(ValType::I32.is_int() && ValType::I64.is_int());
        assert!(ValType::F32.is_float() && ValType::F64.is_float());
        assert!(!ValType::I32.is_float() && !ValType::F64.is_int());
    }

    #[test]
    fn functype_display() {
        let ty = FuncType::new(&[ValType::I32, ValType::F64], &[ValType::I64]);
        assert_eq!(ty.to_string(), "[i32 f64] -> [I64]".replace("I64", "i64"));
    }

    #[test]
    fn limits_constructors() {
        assert_eq!(
            Limits::at_least(3),
            Limits {
                initial: 3,
                max: None
            }
        );
        assert_eq!(
            Limits::bounded(1, 5),
            Limits {
                initial: 1,
                max: Some(5)
            }
        );
    }
}
