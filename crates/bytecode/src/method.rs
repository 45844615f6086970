//! Method metadata and code bodies.

use crate::{ClassId, Op};

/// Program-wide method identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MethodId(pub u32);

impl std::fmt::Display for MethodId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// A method: signature, local-frame shape and bytecode body.
///
/// The modeled *bytecode length* ([`Method::bytecode_bytes`]) feeds the
/// compilation-cost model of the runtime's baseline, optimizing and JIT
/// compilers, exactly as real compile time scales with method size in Jikes
/// RVM's cost/benefit model.
#[derive(Debug, Clone, PartialEq)]
pub struct Method {
    id: MethodId,
    class: ClassId,
    name: String,
    n_args: u8,
    n_locals: u8,
    returns_value: bool,
    code: Vec<Op>,
    bytecode_bytes: u32,
}

impl Method {
    pub(crate) fn new(
        id: MethodId,
        class: ClassId,
        name: String,
        n_args: u8,
        n_locals: u8,
        returns_value: bool,
        code: Vec<Op>,
    ) -> Self {
        let bytecode_bytes = code.iter().map(Op::encoded_len).sum();
        Self {
            id,
            class,
            name,
            n_args,
            n_locals,
            returns_value,
            code,
            bytecode_bytes,
        }
    }

    /// The method's program-wide identity.
    pub fn id(&self) -> MethodId {
        self.id
    }

    /// Declaring class.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// Method name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of arguments, which occupy local slots `0..n_args`.
    pub fn n_args(&self) -> u8 {
        self.n_args
    }

    /// Total local slots (arguments included).
    pub fn n_locals(&self) -> u8 {
        self.n_locals
    }

    /// Whether a call to this method leaves a value on the caller's stack.
    pub fn returns_value(&self) -> bool {
        self.returns_value
    }

    /// The bytecode body.
    pub fn code(&self) -> &[Op] {
        &self.code
    }

    /// Modeled encoded size of the body in bytes.
    pub fn bytecode_bytes(&self) -> u32 {
        self.bytecode_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytecode_bytes_sums_encoded_lengths() {
        let m = Method::new(
            MethodId(0),
            ClassId(0),
            "f".into(),
            1,
            2,
            true,
            vec![Op::Load(0), Op::ConstI(1), Op::Add, Op::RetV],
        );
        assert_eq!(m.bytecode_bytes(), 2 + 5 + 1 + 1);
        assert_eq!(m.n_args(), 1);
        assert!(m.returns_value());
        assert_eq!(format!("{}", m.id()), "M0");
    }
}
