//! A complete verified program: classes, methods, statics and an entry point.

use crate::{Class, ClassId, Method, MethodId, Op, StaticDef};

/// An immutable, verified program ready for execution by the runtime.
///
/// Produced by [`ProgramBuilder::finish`](crate::ProgramBuilder::finish),
/// which runs the verifier over every method. Indexing by [`ClassId`] /
/// [`MethodId`] is infallible for ids minted by the same builder.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    classes: Vec<Class>,
    methods: Vec<Method>,
    statics: Vec<StaticDef>,
    entry: MethodId,
}

impl Program {
    pub(crate) fn new(
        classes: Vec<Class>,
        methods: Vec<Method>,
        statics: Vec<StaticDef>,
        entry: MethodId,
    ) -> Self {
        Self {
            classes,
            methods,
            statics,
            entry,
        }
    }

    /// All classes, indexable by [`ClassId`].
    pub fn classes(&self) -> &[Class] {
        &self.classes
    }

    /// All methods, indexable by [`MethodId`].
    pub fn methods(&self) -> &[Method] {
        &self.methods
    }

    /// Global static slots.
    pub fn statics(&self) -> &[StaticDef] {
        &self.statics
    }

    /// The method where execution starts.
    pub fn entry(&self) -> MethodId {
        self.entry
    }

    /// Look up a class.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not minted for this program.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.0 as usize]
    }

    /// Look up a method.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not minted for this program.
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.0 as usize]
    }

    /// Total encoded bytecode bytes of the methods declared by `class`.
    pub fn class_method_bytes(&self, id: ClassId) -> u32 {
        self.class(id)
            .methods()
            .iter()
            .map(|&m| self.method(m).bytecode_bytes())
            .sum()
    }

    /// Modeled class-file size of `class` in bytes (metadata plus method
    /// bodies); the runtime's class loader charges cost proportional to this.
    pub fn classfile_bytes(&self, id: ClassId) -> u32 {
        self.class(id).classfile_bytes(self.class_method_bytes(id))
    }

    /// Sum of all class-file sizes — the modeled on-disk footprint of the
    /// application, reported by workload inventories.
    pub fn total_classfile_bytes(&self) -> u64 {
        (0..self.classes.len() as u16)
            .map(|i| u64::from(self.classfile_bytes(ClassId(i))))
            .sum()
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of methods.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Return a copy of this program with `method`'s body replaced by
    /// `code`, **bypassing all verification**.
    ///
    /// The result may be structurally invalid (dangling branch targets,
    /// unbalanced stacks, out-of-range ids); the modeled bytecode length
    /// is recomputed but nothing is checked. This exists for verifier
    /// and fault-injection testing — mutating a known-good program into
    /// a corrupt one that the verifiers must reject without panicking.
    /// Never feed an unverified program to the runtime.
    ///
    /// # Panics
    ///
    /// Panics if `method` was not minted for this program.
    pub fn with_method_code(&self, method: MethodId, code: Vec<Op>) -> Self {
        let mut p = self.clone();
        let m = &p.methods[method.0 as usize];
        p.methods[method.0 as usize] = Method::new(
            m.id(),
            m.class(),
            m.name().to_owned(),
            m.n_args(),
            m.n_locals(),
            m.returns_value(),
            code,
        );
        p
    }
}

#[cfg(test)]
mod tests {
    use crate::{ProgramBuilder, Ty};

    #[test]
    fn program_accessors() {
        let mut p = ProgramBuilder::new();
        let cls = p
            .class("Node")
            .field("next", Ty::Ref)
            .field("val", Ty::Int)
            .build();
        let s = p.static_slot("root", Ty::Ref);
        let main = p.method(cls, "main", 0, 1, |b| {
            b.new_obj(cls).store(0);
            b.load(0).put_static(s);
            b.get_static(s).ret_value();
        });
        let prog = p.finish(main).expect("verifies");
        assert_eq!(prog.class_count(), 1);
        assert_eq!(prog.method_count(), 1);
        assert_eq!(prog.entry(), main);
        assert_eq!(prog.statics().len(), 1);
        assert!(prog.classfile_bytes(cls) > 320);
        assert!(prog.total_classfile_bytes() >= u64::from(prog.classfile_bytes(cls)));
        assert_eq!(prog.class(cls).name(), "Node");
    }
}
