//! The reference kernel: a fixed piece of work, owned by the benchmark,
//! whose CPU time says how fast the host runs at the moment it is measured.
//!
//! The reference host's speed moves by up to ±30 % over tens of seconds with
//! the load of its other tenants, and mostly through the memory system, not
//! the clock: a chain of multiplies moves a third as much as a vmprobe cell.
//! So the kernel is a small bytecode interpreter — dispatch on random
//! opcodes, data-dependent branches, loads and stores over a 64 KiB heap —
//! that slows down with the host the way the simulator does. The benchmark
//! runs it right before each cell, on the cell's thread, and scales the
//! cell's time by how much slower than [`NOMINAL`] it ran.
//!
//! Its code never changes with the program's, so a change to vmprobe moves
//! the cells' times and never the kernel's.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Duration;

use crate::clock::thread_cpu;
use crate::stats::SplitMix64;

/// Interpreter steps per run.
const STEPS: usize = 250_000;
const CODE_LEN: usize = 4096;
const HEAP_WORDS: usize = 8192;

/// CPU time of one run on the reference host (a 2-vCPU Xeon VM) at a quiet
/// moment. It only sets the scale: a run at the nominal speed leaves a
/// cell's time as measured.
pub const NOMINAL: Duration = Duration::from_micros(3200);

struct Kernel {
    code: Vec<u8>,
    heap: Vec<u64>,
}

impl Kernel {
    fn new() -> Self {
        let mut rng = SplitMix64::new(0x5eed_c0de);
        Self {
            code: (0..CODE_LEN).map(|_| rng.next_u64() as u8).collect(),
            heap: vec![0; HEAP_WORDS],
        }
    }

    fn interpret(&mut self) -> u64 {
        let heap = &mut self.heap;
        let (mut pc, mut acc, mut sp) = (0usize, 1u64, 0usize);
        for _ in 0..STEPS {
            let op = self.code[pc % CODE_LEN];
            pc += 1;
            match op % 8 {
                0 => acc = acc.wrapping_add(heap[sp % HEAP_WORDS]),
                1 => {
                    heap[sp % HEAP_WORDS] = acc;
                    sp = sp.wrapping_add((acc >> 7) as usize);
                }
                2 => acc ^= acc << 5,
                3 => acc = acc.wrapping_mul(31),
                4 => {
                    if acc & 1 == 0 {
                        pc += 3;
                    }
                }
                5 => sp = sp.wrapping_add(1),
                6 => acc = acc.rotate_left(7) ^ heap[acc as usize % HEAP_WORDS],
                _ => sp = sp.wrapping_sub(1),
            }
        }
        acc
    }
}

thread_local! {
    static KERNEL: RefCell<Kernel> = RefCell::new(Kernel::new());
}

/// Run the kernel once on the calling thread and return its CPU time.
pub fn measure() -> Duration {
    KERNEL.with(|k| {
        let mut k = k.borrow_mut();
        k.heap.fill(7);
        let t = thread_cpu();
        black_box(k.interpret());
        thread_cpu() - t
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let run = || {
            let mut k = Kernel::new();
            k.heap.fill(7);
            k.interpret()
        };
        assert_eq!(run(), run());
        assert!(measure() > Duration::ZERO);
    }
}
