//! Execution statistics for a VM run.

/// Counters accumulated by the interpreter and runtime services.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Bytecodes executed.
    pub bytecodes: u64,
    /// Method invocations.
    pub calls: u64,
    /// Objects allocated.
    pub allocations: u64,
    /// Classes loaded at runtime.
    pub classes_loaded: u64,
    /// Class-file bytes streamed at runtime.
    pub classfile_bytes_loaded: u64,
    /// Stop-the-world collections the VM had to request.
    pub gc_requests: u64,
    /// Incremental GC steps driven at allocation sites (Kaffe).
    pub gc_increments: u64,
    /// Scheduler quanta elapsed.
    pub quanta: u64,
    /// Adaptive-controller activations.
    pub controller_activations: u64,
    /// Deepest call stack reached.
    pub max_stack_depth: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_zero() {
        let s = VmStats::default();
        assert_eq!(s.bytecodes, 0);
        assert_eq!(s.max_stack_depth, 0);
    }
}
