//! The instruction set of the vmprobe stack machine.

use crate::{ClassId, MethodId};

/// Primitive type of a field, static slot or local variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// Reference to a heap object (or null).
    Ref,
}

impl Ty {
    /// Modeled size in bytes this type occupies inside an object payload.
    ///
    /// All slots are 8 bytes, matching a 64-bit JVM object layout without
    /// compressed oops.
    pub const fn size_bytes(self) -> u32 {
        8
    }
}

/// Element kind of an array object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrKind {
    /// Array of 64-bit integers.
    Int,
    /// Array of 64-bit floats.
    Float,
    /// Array of references; elements are traced by the garbage collector.
    Ref,
}

impl ArrKind {
    /// Modeled bytes per element.
    pub const fn elem_bytes(self) -> u32 {
        8
    }

    /// Whether elements are references the garbage collector must trace.
    pub const fn is_ref(self) -> bool {
        matches!(self, ArrKind::Ref)
    }
}

/// Transcendental / long-latency floating point intrinsics.
///
/// These model `java.lang.Math` style calls that SpecJVM98's `_222_mpegaudio`
/// and the Java Grande kernels lean on heavily. The platform model charges a
/// multi-cycle latency for each (and on the PXA255, which has no FPU, a large
/// software-emulation cost — the mechanism behind the XScale power inversion
/// in the paper's Section VI-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MathFn {
    /// Square root.
    Sqrt,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Natural logarithm.
    Log,
    /// Exponential.
    Exp,
}

/// A single bytecode instruction.
///
/// The machine is a classic operand-stack design: instructions pop their
/// operands from and push their results to an implicit stack; `Load`/`Store`
/// move values between the stack and method-local slots.
///
/// Control-flow targets (`Jump`, `BrTrue`, `BrFalse`) are absolute indices
/// into the owning method's code vector, validated by
/// [`verify_method`](crate::verify_method).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    // ---- constants and stack shuffling ----
    /// Push an integer constant.
    ConstI(i64),
    /// Push a float constant.
    ConstF(f64),
    /// Push the null reference.
    ConstNull,
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,
    /// Swap the two top stack values.
    Swap,
    /// Push local slot `n`.
    Load(u8),
    /// Pop into local slot `n`.
    Store(u8),

    // ---- integer ALU ----
    /// Integer add: pops `b`, `a`; pushes `a + b` (wrapping).
    Add,
    /// Integer subtract (wrapping).
    Sub,
    /// Integer multiply (wrapping).
    Mul,
    /// Integer divide; division by zero yields 0 (the VM traps in real Java;
    /// we saturate so workloads remain total functions).
    Div,
    /// Integer remainder; zero divisor yields 0.
    Rem,
    /// Integer negate.
    Neg,
    /// Shift left by `b & 63`.
    Shl,
    /// Arithmetic shift right by `b & 63`.
    Shr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,

    // ---- float ALU ----
    /// Float add.
    FAdd,
    /// Float subtract.
    FSub,
    /// Float multiply.
    FMul,
    /// Float divide.
    FDiv,
    /// Float negate.
    FNeg,
    /// Long-latency float intrinsic.
    Math(MathFn),

    // ---- conversions ----
    /// Integer to float.
    I2F,
    /// Float to integer (truncating; NaN becomes 0).
    F2I,

    // ---- comparisons: push integer 1 (true) or 0 (false) ----
    /// Less-than on two numbers of the same runtime kind.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Equality; also defined on references (identity) and null.
    Eq,
    /// Inequality.
    Ne,
    /// Pops a value; pushes 1 if it is the null reference.
    IsNull,

    // ---- control flow ----
    /// Unconditional jump to code index.
    Jump(u32),
    /// Pop an integer; jump if non-zero.
    BrTrue(u32),
    /// Pop an integer; jump if zero.
    BrFalse(u32),
    /// Call a method: pops `n_args` values (last argument on top), pushes the
    /// callee's return value if it returns one.
    Call(MethodId),
    /// Return with no value.
    Ret,
    /// Pop the top of stack and return it.
    RetV,

    // ---- objects and arrays ----
    /// Allocate an instance of a class (fields zero/null initialized);
    /// triggers class loading on first use and garbage collection when the
    /// heap is exhausted. Pushes the reference.
    New(ClassId),
    /// Pop an object reference; push its field `n`.
    GetField(u16),
    /// Pop value then object reference; store into field `n`. Reference
    /// stores pass through the collector's write barrier.
    PutField(u16),
    /// Push global static slot `n`.
    GetStatic(u16),
    /// Pop into global static slot `n`. Static reference slots are GC roots.
    PutStatic(u16),
    /// Pop a length; allocate an array and push its reference.
    NewArr(ArrKind),
    /// Pop index then array reference; push the element.
    ALoad,
    /// Pop value, index, then array reference; store the element.
    AStore,
    /// Pop an array reference; push its length.
    ArrLen,

    /// No operation (used as a patchable placeholder by tooling).
    Nop,
}

impl Op {
    /// Modeled encoded size of this instruction in a class file, in bytes.
    ///
    /// Used to compute method bytecode lengths (compilation cost) and
    /// class-file sizes (class loading cost). The values approximate JVM
    /// class-file encoding: one opcode byte plus operand bytes.
    pub const fn encoded_len(&self) -> u32 {
        match self {
            Op::ConstI(_) | Op::ConstF(_) => 5,
            Op::Jump(_) | Op::BrTrue(_) | Op::BrFalse(_) | Op::Call(_) | Op::New(_) => 3,
            Op::GetField(_) | Op::PutField(_) | Op::GetStatic(_) | Op::PutStatic(_) => 3,
            Op::Load(_) | Op::Store(_) | Op::NewArr(_) | Op::Math(_) => 2,
            _ => 1,
        }
    }

    /// Number of operand-stack values this instruction pops.
    ///
    /// `Call` pops the callee's argument count, which is not knowable from
    /// the opcode alone; the verifier special-cases it.
    pub fn pops(&self) -> usize {
        match self {
            Op::ConstI(_) | Op::ConstF(_) | Op::ConstNull | Op::Load(_) => 0,
            Op::GetStatic(_) | Op::Jump(_) | Op::Ret | Op::Nop | Op::New(_) => 0,
            Op::Dup => 1,
            Op::Pop | Op::Store(_) | Op::Neg | Op::FNeg | Op::Math(_) => 1,
            Op::I2F | Op::F2I | Op::IsNull | Op::BrTrue(_) | Op::BrFalse(_) => 1,
            Op::RetV | Op::GetField(_) | Op::PutStatic(_) => 1,
            Op::NewArr(_) | Op::ArrLen => 1,
            Op::Swap => 2,
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Rem => 2,
            Op::Shl | Op::Shr | Op::And | Op::Or | Op::Xor => 2,
            Op::FAdd | Op::FSub | Op::FMul | Op::FDiv => 2,
            Op::Lt | Op::Le | Op::Gt | Op::Ge | Op::Eq | Op::Ne => 2,
            Op::PutField(_) | Op::ALoad => 2,
            Op::AStore => 3,
            Op::Call(_) => 0, // verifier consults the callee signature
        }
    }

    /// Number of operand-stack values this instruction pushes.
    ///
    /// `Call` pushes 0 or 1 depending on the callee; the verifier
    /// special-cases it.
    pub fn pushes(&self) -> usize {
        match self {
            Op::Pop | Op::Store(_) | Op::Jump(_) | Op::BrTrue(_) | Op::BrFalse(_) => 0,
            Op::Ret | Op::RetV | Op::PutField(_) | Op::PutStatic(_) | Op::AStore | Op::Nop => 0,
            Op::Swap => 2,
            Op::Dup => 2,
            Op::Call(_) => 0, // verifier consults the callee signature
            _ => 1,
        }
    }

    /// Whether this instruction unconditionally transfers control (the
    /// instruction after it is not a fall-through successor).
    pub const fn is_terminator(&self) -> bool {
        matches!(self, Op::Jump(_) | Op::Ret | Op::RetV)
    }

    /// Branch target, if this is a control transfer with a static target.
    pub const fn branch_target(&self) -> Option<u32> {
        match self {
            Op::Jump(t) | Op::BrTrue(t) | Op::BrFalse(t) => Some(*t),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoded_len_matches_operand_width() {
        assert_eq!(Op::ConstI(1).encoded_len(), 5);
        assert_eq!(Op::Jump(0).encoded_len(), 3);
        assert_eq!(Op::Load(0).encoded_len(), 2);
        assert_eq!(Op::Add.encoded_len(), 1);
    }

    #[test]
    fn stack_effects_balance_for_simple_ops() {
        // A binary op consumes two and produces one.
        for op in [Op::Add, Op::FMul, Op::Lt, Op::Xor] {
            assert_eq!(op.pops(), 2);
            assert_eq!(op.pushes(), 1);
        }
        // Dup nets +1, Pop nets -1.
        assert_eq!(Op::Dup.pushes() as isize - Op::Dup.pops() as isize, 1);
        assert_eq!(Op::Pop.pushes() as isize - Op::Pop.pops() as isize, -1);
    }

    #[test]
    fn terminators_and_targets() {
        assert!(Op::Ret.is_terminator());
        assert!(Op::Jump(3).is_terminator());
        assert!(!Op::BrTrue(3).is_terminator());
        assert_eq!(Op::BrFalse(7).branch_target(), Some(7));
        assert_eq!(Op::Add.branch_target(), None);
    }

    #[test]
    fn ty_and_arrkind_sizes() {
        assert_eq!(Ty::Int.size_bytes(), 8);
        assert_eq!(ArrKind::Float.elem_bytes(), 8);
        assert!(ArrKind::Ref.is_ref());
        assert!(!ArrKind::Int.is_ref());
    }
}
