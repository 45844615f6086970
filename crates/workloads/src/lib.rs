//! Synthetic benchmark programs for the `vmprobe` runtime.
//!
//! The paper evaluates 16 applications across three suites (its Figure 5):
//! seven from **SpecJVM98** (run with the full `-s100` data set, or `-s10`
//! on the embedded board), five from **DaCapo** beta051009, and four
//! sequential **Java Grande Forum** kernels (data set A).
//!
//! The original workloads are Java programs we cannot run; each benchmark
//! here is a *bytecode program* for the `vmprobe` ISA whose resource
//! profile is modeled on published characterizations of its namesake:
//! total allocation volume, live-set size, object demographics (list/tree
//! churn vs long-lived record stores), pointer-chasing intensity,
//! integer vs floating-point mix, hot-method structure, and class-count /
//! class-file footprint. Those are precisely the axes the paper's results
//! move along (GC load, locality, compiler activity, class loading).
//!
//! All sizes are pre-scaled by the suite-wide `SIM_SCALE = 1/8` documented
//! in the `vmprobe` core crate: a paper heap of "32 MB" is simulated as
//! 4 MiB, and the blueprints below size their live sets against that.
//!
//! # Example
//!
//! ```
//! use vmprobe_workloads::{benchmark, InputScale, Suite};
//!
//! let b = benchmark("_209_db").expect("known benchmark");
//! assert_eq!(b.suite, Suite::SpecJvm98);
//! let program = b.build(InputScale::Full);
//! assert!(program.method_count() > 5);
//! ```

#![warn(missing_docs)]
mod blueprint;
mod dacapo;
mod jgf;
mod spec;
mod synth;

pub use blueprint::{build_program, Blueprint, InputScale};
pub use synth::StdLib;

use vmprobe_bytecode::Program;

/// Which published suite a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SpecJVM98 (seven applications).
    SpecJvm98,
    /// DaCapo beta051009 (five applications).
    DaCapo,
    /// Java Grande Forum sequential benchmarks, data set A (four kernels).
    JavaGrande,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Suite::SpecJvm98 => "SpecJVM98",
            Suite::DaCapo => "DaCapo",
            Suite::JavaGrande => "Java Grande Forum",
        })
    }
}

/// A registered benchmark.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Canonical name (matching the paper, e.g. `_213_javac`).
    pub name: &'static str,
    /// Owning suite.
    pub suite: Suite,
    /// One-line description from the paper's Figure 5.
    pub description: &'static str,
    /// Resource blueprint the program is generated from.
    pub blueprint: Blueprint,
}

impl Benchmark {
    /// Generate the executable program at the given input scale.
    pub fn build(&self, scale: InputScale) -> Program {
        blueprint::build_program(&self.blueprint, scale)
    }
}

/// Every benchmark, in the paper's Figure 5 order.
pub fn all_benchmarks() -> Vec<Benchmark> {
    let mut v = spec::benchmarks();
    v.extend(dacapo::benchmarks());
    v.extend(jgf::benchmarks());
    v
}

/// The benchmarks of one suite.
pub fn suite_benchmarks(suite: Suite) -> Vec<Benchmark> {
    all_benchmarks()
        .into_iter()
        .filter(|b| b.suite == suite)
        .collect()
}

/// Look up a benchmark by name.
pub fn benchmark(name: &str) -> Option<Benchmark> {
    all_benchmarks().into_iter().find(|b| b.name == name)
}

/// The five SpecJVM98 applications the paper runs on the PXA255 board
/// (Section VI-E), in its order.
pub fn pxa255_benchmarks() -> Vec<Benchmark> {
    [
        "_201_compress",
        "_202_jess",
        "_209_db",
        "_213_javac",
        "_228_jack",
    ]
    .iter()
    .map(|n| benchmark(n).expect("registered"))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_paper_figure5() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 16);
        assert_eq!(suite_benchmarks(Suite::SpecJvm98).len(), 7);
        assert_eq!(suite_benchmarks(Suite::DaCapo).len(), 5);
        assert_eq!(suite_benchmarks(Suite::JavaGrande).len(), 4);
        assert_eq!(pxa255_benchmarks().len(), 5);
    }

    #[test]
    fn names_are_unique_and_lookup_works() {
        let all = all_benchmarks();
        for b in &all {
            assert_eq!(benchmark(b.name).unwrap().name, b.name);
        }
        let mut names: Vec<_> = all.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn every_benchmark_builds_and_verifies() {
        for b in all_benchmarks() {
            let p = b.build(InputScale::Reduced);
            assert!(p.class_count() > 10, "{}: classes", b.name);
            assert!(p.method_count() >= 8, "{}: methods", b.name);
        }
    }
}
