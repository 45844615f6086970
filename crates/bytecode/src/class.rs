//! Class metadata: fields, static slots, and the modeled class-file size
//! that drives class-loading cost in the runtime.

use crate::{MethodId, Ty};

/// Index of a class within a [`Program`](crate::Program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClassId(pub u16);

impl std::fmt::Display for ClassId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// An instance field declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    name: String,
    ty: Ty,
}

impl FieldDef {
    /// Create a field declaration.
    pub fn new(name: impl Into<String>, ty: Ty) -> Self {
        Self {
            name: name.into(),
            ty,
        }
    }

    /// Field name (for diagnostics and disassembly).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Field type.
    pub fn ty(&self) -> Ty {
        self.ty
    }
}

/// A global static slot declaration.
///
/// Statics live in a single program-wide table (as if every class's statics
/// were interned into one runtime area); reference-typed slots are garbage
/// collection roots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticDef {
    name: String,
    ty: Ty,
}

impl StaticDef {
    /// Create a static slot declaration.
    pub fn new(name: impl Into<String>, ty: Ty) -> Self {
        Self {
            name: name.into(),
            ty,
        }
    }

    /// Slot name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Slot type.
    pub fn ty(&self) -> Ty {
        self.ty
    }
}

/// A loaded class definition.
///
/// The `system` flag models the split the paper draws between Jikes RVM
/// (system classes merged into the boot image, so loading them at runtime is
/// free) and Kaffe (every class, including system classes, is loaded lazily
/// at runtime — the reason the class loader dominates Kaffe's energy on the
/// PXA255 in the paper's Figure 11).
#[derive(Debug, Clone, PartialEq)]
pub struct Class {
    id: ClassId,
    name: String,
    fields: Vec<FieldDef>,
    methods: Vec<MethodId>,
    system: bool,
    extra_classfile_bytes: u32,
}

/// Modeled bytes of class-file overhead per declared field (constant-pool
/// entries, attribute tables).
const CLASSFILE_BYTES_PER_FIELD: u32 = 24;
/// Modeled fixed class-file header/constant-pool overhead in bytes.
const CLASSFILE_HEADER_BYTES: u32 = 320;

impl Class {
    pub(crate) fn new(
        id: ClassId,
        name: String,
        fields: Vec<FieldDef>,
        system: bool,
        extra_classfile_bytes: u32,
    ) -> Self {
        Self {
            id,
            name,
            fields,
            methods: Vec::new(),
            system,
            extra_classfile_bytes,
        }
    }

    pub(crate) fn push_method(&mut self, m: MethodId) {
        self.methods.push(m);
    }

    /// The class's identity within its program.
    pub fn id(&self) -> ClassId {
        self.id
    }

    /// Class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared instance fields, in layout order.
    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    /// Number of instance fields.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Methods declared by this class.
    pub fn methods(&self) -> &[MethodId] {
        &self.methods
    }

    /// Whether this is a system (boot-image eligible) class.
    pub fn is_system(&self) -> bool {
        self.system
    }

    /// Modeled payload size in bytes of an instance (excluding the object
    /// header, which the heap adds).
    pub fn instance_payload_bytes(&self) -> u32 {
        self.fields.iter().map(|f| f.ty().size_bytes()).sum()
    }

    /// Modeled size of this class's class file in bytes, given the total
    /// encoded length of its method bodies.
    ///
    /// Class loading cost in the runtime is proportional to this value: the
    /// loader streams the file, builds runtime metadata and verifies each
    /// method body.
    pub fn classfile_bytes(&self, method_bytecode_bytes: u32) -> u32 {
        CLASSFILE_HEADER_BYTES
            + self.fields.len() as u32 * CLASSFILE_BYTES_PER_FIELD
            + self.extra_classfile_bytes
            + method_bytecode_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_size_counts_all_fields() {
        let c = Class::new(
            ClassId(0),
            "Pair".into(),
            vec![FieldDef::new("a", Ty::Int), FieldDef::new("b", Ty::Ref)],
            false,
            0,
        );
        assert_eq!(c.instance_payload_bytes(), 16);
        assert_eq!(c.field_count(), 2);
    }

    #[test]
    fn classfile_size_scales_with_fields_and_code() {
        let small = Class::new(ClassId(0), "A".into(), vec![], false, 0);
        let big = Class::new(
            ClassId(1),
            "B".into(),
            vec![FieldDef::new("x", Ty::Int); 10],
            false,
            512,
        );
        assert!(big.classfile_bytes(1000) > small.classfile_bytes(0));
        assert_eq!(small.classfile_bytes(0), 320);
    }

    #[test]
    fn system_flag_round_trips() {
        let c = Class::new(ClassId(3), "java/lang/String".into(), vec![], true, 0);
        assert!(c.is_system());
        assert_eq!(c.id(), ClassId(3));
        assert_eq!(format!("{}", c.id()), "C3");
    }
}
