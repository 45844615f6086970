//! The virtual machine: execution engine, runtime services and their
//! component instrumentation.

use std::sync::Arc;

use vmprobe_bytecode::{ArrKind, MathFn, MethodId, Op, Program};
use vmprobe_heap::{
    AllocRequest, CollectorKind, CollectorPlan, GcStats, ObjId, ObjKind, ObjectHeap, RootSet,
};
use vmprobe_platform::{Exec, STACK_BASE, VM_BASE};
use vmprobe_power::{analyze, ComponentId, PowerSample, Report, Seconds};

use crate::rir::{RirFrame, WindowPool};
use crate::{
    ClassLoader, CompilerStats, CompilerSubsystem, Controller, Meter, Personality, Tier, Value,
    VmConfig, VmError, VmStats,
};

/// Bytes of simulated stack frame per call depth.
const FRAME_STRIDE: u64 = 512;
/// Statics live at the start of the VM data region.
pub(crate) const STATICS_BASE: u64 = VM_BASE;
/// Controller activates every this many scheduler quanta (Jikes).
const CONTROLLER_PERIOD_QUANTA: u64 = 4;
/// Check the incremental collector's trigger every this many allocations.
const INCREMENT_CHECK_MASK: u64 = 63;

/// One activation record.
///
/// A frame runs on exactly one engine for its whole activation: `rir` is
/// `Some` for frames created at [`Tier::Opt`] with a lowered register
/// body (locals and operand stack live in `rir.window`; the `locals` and
/// `stack` vectors stay empty), `None` for stack-interpreter frames. The
/// engine choice — like `tier` and `code_addr` — is snapshotted at
/// invocation: there is no on-stack replacement.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    pub(crate) method: MethodId,
    pub(crate) pc: u32,
    pub(crate) locals: Vec<Value>,
    pub(crate) stack: Vec<Value>,
    pub(crate) stack_addr: u64,
    pub(crate) tier: Tier,
    pub(crate) code_addr: u64,
    pub(crate) rir: Option<RirFrame>,
}

impl Frame {
    /// The GC-live value slices of this frame: `(locals, operand stack)`.
    ///
    /// For a suspended register frame the operand portion is bounded by
    /// `live_sp` — registers above the call's save point hold dead values
    /// the stack engine would already have popped, and must not become
    /// roots (nor ambiguous words under conservative scanning).
    fn live_slices(&self) -> (&[Value], &[Value]) {
        match &self.rir {
            Some(rf) => {
                let l = rf.body.n_locals as usize;
                (&rf.window[..l], &rf.window[l..l + rf.live_sp as usize])
            }
            None => (&self.locals, &self.stack),
        }
    }

    /// Deliver a callee's return value into this (suspended) frame: the
    /// operand push for a stack frame, a write to the register just above
    /// the call's save point for a register frame.
    pub(crate) fn push_return(&mut self, v: Value) {
        match &mut self.rir {
            Some(rf) => {
                let idx = rf.body.n_locals as usize + rf.live_sp as usize;
                rf.window[idx] = v;
            }
            None => self.stack.push(v),
        }
    }
}

/// Everything a finished run yields: the measurement report plus runtime
/// statistics.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-component energy/power/performance report (the paper's offline
    /// analysis output).
    pub report: Report,
    /// Collector statistics.
    pub gc: GcStats,
    /// Interpreter/runtime statistics.
    pub vm: VmStats,
    /// Compilation statistics.
    pub compiler: CompilerStats,
    /// Simulated wall-clock duration of the run.
    pub duration: Seconds,
    /// Value returned by the entry method, if any.
    pub result: Option<Value>,
    /// Full 40 µs power trace when [`VmConfig::trace_power`] was set.
    pub power_trace: Option<Vec<PowerSample>>,
    /// Live heap bytes at exit.
    pub live_bytes_end: u64,
    /// Total bytes allocated over the run.
    pub total_alloc_bytes: u64,
    /// Component span trace on the virtual cycle clock when
    /// [`VmConfig::record_spans`] was set (deterministic: a pure function
    /// of the configuration, like every other field here).
    pub spans: Option<vmprobe_telemetry::SpanTrace>,
    /// Bytecodes executed on the register engine (a subset of
    /// `vm.bytecodes`). A host-side engine counter, deliberately outside
    /// [`VmStats`]: it reports which engine did the work, never changes
    /// what was computed or charged, and is zero with
    /// [`VmConfig::rir`] off.
    pub rir_bytecodes: u64,
}

/// A configured virtual machine ready to execute one program.
///
/// # Example
///
/// ```
/// use vmprobe_bytecode::ProgramBuilder;
/// use vmprobe_heap::CollectorKind;
/// use vmprobe_vm::{Vm, VmConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut p = ProgramBuilder::new();
/// let main = p.function("main", 0, 2, |b| {
///     b.const_i(0).store(0);
///     b.for_range(1, 0, 100, |b| {
///         b.load(0).load(1).add().store(0);
///     });
///     b.load(0).ret_value();
/// });
/// let program = p.finish(main)?;
///
/// let vm = Vm::new(program, VmConfig::jikes(CollectorKind::SemiSpace, 1 << 20));
/// let outcome = vm.run()?;
/// assert_eq!(outcome.result.map(|v| v.as_i()), Some(4950));
/// assert!(outcome.duration.seconds() > 0.0);
/// # Ok(())
/// # }
/// ```
pub struct Vm {
    pub(crate) program: Arc<Program>,
    config: VmConfig,
    pub(crate) meter: Meter,
    pub(crate) heap: ObjectHeap,
    pub(crate) plan: Box<dyn CollectorPlan>,
    pub(crate) loader: ClassLoader,
    pub(crate) compilers: CompilerSubsystem,
    controller: Controller,
    pub(crate) statics: Vec<Value>,
    pub(crate) frames: Vec<Frame>,
    pub(crate) stats: VmStats,
    pub(crate) next_quantum: f64,
    /// Bytecode count at which the run aborts (`u64::MAX` when no budget).
    pub(crate) step_budget: u64,
    /// Allocation count at which heap exhaustion is forced (`u64::MAX`
    /// when no injection).
    fail_alloc_at: u64,
    pub(crate) result: Option<Value>,
    /// Recycled register windows for [`Tier::Opt`] frames.
    pub(crate) windows: WindowPool,
    /// Bytecodes executed on the register engine.
    pub(crate) rir_bytecodes: u64,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("config", &self.config)
            .field("plan", &self.plan.name())
            .field("frames", &self.frames.len())
            .field("bytecodes", &self.stats.bytecodes)
            .finish_non_exhaustive()
    }
}

impl Vm {
    /// Build a VM for `program` under `config`.
    ///
    /// # Panics
    ///
    /// Panics when the collector rejects the configured heap; use
    /// [`Vm::try_new`] to get the typed error instead.
    pub fn new(program: Program, config: VmConfig) -> Self {
        Self::try_new(program, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build a VM for `program` under `config`, rejecting heaps the
    /// collector cannot lay out with [`VmError::HeapConfig`].
    pub fn try_new(program: Program, config: VmConfig) -> Result<Self, VmError> {
        let mut loader = ClassLoader::new(&program);
        loader.set_verify(config.verify);
        let compilers = CompilerSubsystem::new(&program);
        let statics = vec![Value::Null; program.statics().len()];
        let mut meter = Meter::with_probe(
            config.platform,
            config.trace_power,
            config.dvfs,
            config.faults,
            config.probe,
        );
        if config.record_spans {
            meter.enable_spans();
        }
        let plan = config
            .collector
            .try_new_plan_configured(config.heap_bytes, config.nursery_bytes)
            .map_err(|e| VmError::HeapConfig {
                collector: e.collector.name(),
                required_bytes: e.required_bytes,
                actual_bytes: e.actual_bytes,
            })?;
        let next_quantum = Meter::deadline(config.quantum_cycles);
        Ok(Self {
            program: Arc::new(program),
            config,
            meter,
            heap: ObjectHeap::new(),
            plan,
            loader,
            compilers,
            controller: Controller::default(),
            statics,
            frames: Vec::new(),
            stats: VmStats::default(),
            next_quantum,
            step_budget: config.faults.step_budget.unwrap_or(u64::MAX),
            fail_alloc_at: config.faults.fail_alloc_at.unwrap_or(u64::MAX),
            result: None,
            windows: WindowPool::default(),
            rir_bytecodes: 0,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// Execute the program's entry method to completion and analyze the
    /// run.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] on heap exhaustion or a runtime fault (null
    /// dereference, out-of-bounds access, stack overflow).
    pub fn run(mut self) -> Result<RunOutcome, VmError> {
        // Boot.
        if self.config.personality == Personality::JikesRvm {
            self.loader.preload_boot_image(&self.program);
        }
        self.meter.set_base(ComponentId::Application);
        let entry = self.program.entry();
        assert_eq!(
            self.program.method(entry).n_args(),
            0,
            "entry method must take no arguments"
        );
        self.invoke(entry)?;
        while !self.frames.is_empty() {
            self.step()?;
        }
        self.meter.flush_samples();

        // Offline analysis.
        self.stats.classes_loaded = self.loader.classes_loaded;
        self.stats.classfile_bytes_loaded = self.loader.bytes_loaded;
        self.stats.controller_activations = self.controller.activations;
        let gc = *self.plan.stats();
        let compiler = self.compilers.stats;
        let live_bytes_end = self.heap.live_bytes();
        let total_alloc_bytes = self.heap.total_alloc_bytes();
        let power_trace = self.meter.daq().trace().map(<[PowerSample]>::to_vec);
        let spans = self.meter.take_spans();
        let probe_stats = self.meter.probe_stats();
        let (machine, daq, perf) = self.meter.into_parts();
        let mut report = analyze(&daq, &perf, &machine);
        // The analyzer only sees the DAQ's transition exposure; the costs
        // actually paid are the metering adapter's ledger.
        report.probe = probe_stats;
        Ok(RunOutcome {
            duration: report.duration,
            report,
            gc,
            vm: self.stats,
            compiler,
            result: self.result,
            power_trace,
            live_bytes_end,
            total_alloc_bytes,
            spans,
            rir_bytecodes: self.rir_bytecodes,
        })
    }

    /// Execute the top frame until it calls, returns, or faults,
    /// dispatching to the engine the frame was created on.
    fn step(&mut self) -> Result<(), VmError> {
        let frame = self.frames.pop().expect("step with no frames");
        if frame.rir.is_some() {
            self.step_rir(frame)
        } else {
            self.step_stack(frame)
        }
    }

    /// The stack-bytecode interpreter: executes `frame` until it calls,
    /// returns, or faults. Semantically authoritative for every tier; the
    /// register engine in `rir::exec` must replay its exact meter-call
    /// sequence for [`Tier::Opt`] frames.
    fn step_stack(&mut self, mut frame: Frame) -> Result<(), VmError> {
        let program = Arc::clone(&self.program);
        let method = program.method(frame.method);
        let code = method.code();
        let dispatch = frame.tier.dispatch_ops();
        let locals_in_memory = frame.tier.locals_in_memory();
        let expansion = u64::from(frame.tier.code_expansion());

        macro_rules! fault {
            ($e:expr) => {{
                let e = $e;
                self.frames.push(frame);
                return Err(e);
            }};
        }

        loop {
            if self.meter.machine().raw_cycles() >= self.next_quantum {
                self.quantum();
            }
            let pc = frame.pc as usize;
            if pc & 7 == 0 {
                self.meter.ifetch(frame.code_addr + (pc as u64) * expansion);
            }
            if dispatch > 0 {
                self.meter.int_ops(dispatch);
            }
            self.stats.bytecodes += 1;
            if self.stats.bytecodes >= self.step_budget {
                fault!(VmError::StepBudgetExhausted {
                    budget: self.step_budget,
                });
            }
            let op = code[pc];
            frame.pc += 1;
            match op {
                // ---- constants & stack ----
                Op::ConstI(v) => {
                    self.meter.int_ops(1);
                    frame.stack.push(Value::I(v));
                }
                Op::ConstF(v) => {
                    self.meter.int_ops(1);
                    frame.stack.push(Value::F(v));
                }
                Op::ConstNull => {
                    self.meter.int_ops(1);
                    frame.stack.push(Value::Null);
                }
                Op::Dup => {
                    self.meter.int_ops(1);
                    let v = *frame.stack.last().expect("verified");
                    frame.stack.push(v);
                }
                Op::Pop => {
                    self.meter.int_ops(1);
                    frame.stack.pop();
                }
                Op::Swap => {
                    self.meter.int_ops(2);
                    let n = frame.stack.len();
                    frame.stack.swap(n - 1, n - 2);
                }
                Op::Load(n) => {
                    if locals_in_memory {
                        self.meter.load(frame.stack_addr + u64::from(n) * 8);
                    } else {
                        self.meter.int_ops(1);
                    }
                    frame.stack.push(frame.locals[n as usize]);
                }
                Op::Store(n) => {
                    if locals_in_memory {
                        self.meter.store(frame.stack_addr + u64::from(n) * 8);
                    } else {
                        self.meter.int_ops(1);
                    }
                    frame.locals[n as usize] = frame.stack.pop().expect("verified");
                }

                // ---- integer ALU ----
                Op::Add
                | Op::Sub
                | Op::Mul
                | Op::Div
                | Op::Rem
                | Op::Shl
                | Op::Shr
                | Op::And
                | Op::Or
                | Op::Xor => {
                    self.meter.int_ops(1);
                    let b = frame.stack.pop().expect("verified").as_i();
                    let a = frame.stack.pop().expect("verified").as_i();
                    let r = match op {
                        Op::Add => a.wrapping_add(b),
                        Op::Sub => a.wrapping_sub(b),
                        Op::Mul => a.wrapping_mul(b),
                        Op::Div => {
                            if b == 0 {
                                0
                            } else {
                                a.wrapping_div(b)
                            }
                        }
                        Op::Rem => {
                            if b == 0 {
                                0
                            } else {
                                a.wrapping_rem(b)
                            }
                        }
                        Op::Shl => a.wrapping_shl(b as u32 & 63),
                        Op::Shr => a.wrapping_shr(b as u32 & 63),
                        Op::And => a & b,
                        Op::Or => a | b,
                        Op::Xor => a ^ b,
                        _ => unreachable!(),
                    };
                    frame.stack.push(Value::I(r));
                }
                Op::Neg => {
                    self.meter.int_ops(1);
                    let a = frame.stack.pop().expect("verified").as_i();
                    frame.stack.push(Value::I(a.wrapping_neg()));
                }

                // ---- float ALU ----
                Op::FAdd | Op::FSub | Op::FMul | Op::FDiv => {
                    self.meter.fp_ops(1);
                    let b = frame.stack.pop().expect("verified").as_f();
                    let a = frame.stack.pop().expect("verified").as_f();
                    let r = match op {
                        Op::FAdd => a + b,
                        Op::FSub => a - b,
                        Op::FMul => a * b,
                        Op::FDiv => {
                            if b == 0.0 {
                                0.0
                            } else {
                                a / b
                            }
                        }
                        _ => unreachable!(),
                    };
                    frame.stack.push(Value::F(r));
                }
                Op::FNeg => {
                    self.meter.fp_ops(1);
                    let a = frame.stack.pop().expect("verified").as_f();
                    frame.stack.push(Value::F(-a));
                }
                Op::Math(f) => {
                    self.meter.math_op();
                    let a = frame.stack.pop().expect("verified").as_f();
                    let r = match f {
                        MathFn::Sqrt => a.abs().sqrt(),
                        MathFn::Sin => a.sin(),
                        MathFn::Cos => a.cos(),
                        MathFn::Log => a.abs().max(1e-300).ln(),
                        MathFn::Exp => a.min(700.0).exp(),
                    };
                    frame.stack.push(Value::F(r));
                }
                Op::I2F => {
                    self.meter.fp_ops(1);
                    let a = frame.stack.pop().expect("verified").as_i();
                    frame.stack.push(Value::F(a as f64));
                }
                Op::F2I => {
                    self.meter.fp_ops(1);
                    let a = frame.stack.pop().expect("verified").as_f();
                    frame
                        .stack
                        .push(Value::I(if a.is_nan() { 0 } else { a as i64 }));
                }

                // ---- comparisons ----
                Op::Lt | Op::Le | Op::Gt | Op::Ge | Op::Eq | Op::Ne => {
                    self.meter.int_ops(1);
                    let b = frame.stack.pop().expect("verified");
                    let a = frame.stack.pop().expect("verified");
                    let r = match (a, b) {
                        (Value::F(x), y) | (y, Value::F(x)) => {
                            let (x, y) = match (a, b) {
                                (Value::F(_), _) => (x, y.as_f()),
                                _ => (y.as_f(), x),
                            };
                            match op {
                                Op::Lt => x < y,
                                Op::Le => x <= y,
                                Op::Gt => x > y,
                                Op::Ge => x >= y,
                                Op::Eq => x == y,
                                Op::Ne => x != y,
                                _ => unreachable!(),
                            }
                        }
                        (Value::Ref(x), Value::Ref(y)) => match op {
                            Op::Eq => x == y,
                            Op::Ne => x != y,
                            _ => x.0 < y.0 && matches!(op, Op::Lt),
                        },
                        _ => {
                            let (x, y) = (a.as_i(), b.as_i());
                            match op {
                                Op::Lt => x < y,
                                Op::Le => x <= y,
                                Op::Gt => x > y,
                                Op::Ge => x >= y,
                                Op::Eq => x == y,
                                Op::Ne => x != y,
                                _ => unreachable!(),
                            }
                        }
                    };
                    frame.stack.push(Value::I(i64::from(r)));
                }
                Op::IsNull => {
                    self.meter.int_ops(1);
                    let v = frame.stack.pop().expect("verified");
                    frame.stack.push(Value::I(i64::from(v == Value::Null)));
                }

                // ---- control flow ----
                Op::Jump(t) => {
                    self.meter.branch();
                    if t <= pc as u32 {
                        self.compilers.method_mut(frame.method).hotness += 1;
                    }
                    frame.pc = t;
                }
                Op::BrTrue(t) | Op::BrFalse(t) => {
                    self.meter.branch();
                    let v = frame.stack.pop().expect("verified").truthy();
                    let take = if matches!(op, Op::BrTrue(_)) { v } else { !v };
                    if take {
                        if t <= pc as u32 {
                            self.compilers.method_mut(frame.method).hotness += 1;
                        }
                        frame.pc = t;
                    }
                }
                Op::Call(m) => {
                    self.meter.int_ops(4);
                    self.frames.push(frame);
                    return self.invoke(m);
                }
                Op::Ret => {
                    self.meter.int_ops(3);
                    return Ok(());
                }
                Op::RetV => {
                    self.meter.int_ops(3);
                    let v = frame.stack.pop().expect("verified");
                    match self.frames.last_mut() {
                        Some(caller) => caller.push_return(v),
                        None => self.result = Some(v),
                    }
                    return Ok(());
                }

                // ---- objects & arrays ----
                Op::New(c) => {
                    if let Err(e) = self.loader.ensure_loaded(&program, c, &mut self.meter) {
                        fault!(e);
                    }
                    let rt = self.loader.class(c);
                    let req = AllocRequest::instance(c.0, rt.ref_slots(), rt.prim_slots());
                    match self.alloc(req, &frame.locals, &frame.stack) {
                        Ok(id) => frame.stack.push(Value::Ref(id)),
                        Err(e) => fault!(e),
                    }
                }
                Op::NewArr(kind) => {
                    self.meter.int_ops(2);
                    let len = frame.stack.pop().expect("verified").as_i();
                    if len < 0 {
                        // The verifier cannot prove non-negativity (it
                        // tracks types, not ranges), so this is a runtime
                        // fault like its neighbors — not a silent clamp.
                        fault!(VmError::NegativeArrayLength {
                            method: frame.method,
                            pc: pc as u32,
                            len,
                        });
                    }
                    let len = len as u32;
                    let req = match kind {
                        ArrKind::Int => AllocRequest::int_array(len),
                        ArrKind::Float => AllocRequest::float_array(len),
                        ArrKind::Ref => AllocRequest::ref_array(len),
                    };
                    match self.alloc(req, &frame.locals, &frame.stack) {
                        Ok(id) => frame.stack.push(Value::Ref(id)),
                        Err(e) => fault!(e),
                    }
                }
                Op::GetField(fidx) => {
                    let obj = frame.stack.pop().expect("verified");
                    let Some(id) = obj.as_ref_id() else {
                        fault!(VmError::NullDereference {
                            method: frame.method,
                            pc: pc as u32
                        });
                    };
                    let ObjKind::Instance { class } = self.heap.get(id).kind() else {
                        fault!(VmError::BadSlot {
                            method: frame.method,
                            pc: pc as u32,
                            slot: fidx
                        });
                    };
                    let layout = self.loader.class(vmprobe_bytecode::ClassId(class)).layout();
                    let Some(&slot) = layout.get(fidx as usize) else {
                        fault!(VmError::BadSlot {
                            method: frame.method,
                            pc: pc as u32,
                            slot: fidx
                        });
                    };
                    self.meter
                        .load(self.heap.get(id).addr() + 16 + u64::from(fidx) * 8);
                    let v = if slot.is_ref {
                        match self.heap.get_ref(id, slot.slot as usize) {
                            Some(r) => Value::Ref(r),
                            None => Value::Null,
                        }
                    } else {
                        let bits = self.heap.get_prim(id, slot.slot as usize);
                        if slot.is_float {
                            Value::F(f64::from_bits(bits))
                        } else {
                            Value::I(bits as i64)
                        }
                    };
                    frame.stack.push(v);
                }
                Op::PutField(fidx) => {
                    let v = frame.stack.pop().expect("verified");
                    let obj = frame.stack.pop().expect("verified");
                    let Some(id) = obj.as_ref_id() else {
                        fault!(VmError::NullDereference {
                            method: frame.method,
                            pc: pc as u32
                        });
                    };
                    let ObjKind::Instance { class } = self.heap.get(id).kind() else {
                        fault!(VmError::BadSlot {
                            method: frame.method,
                            pc: pc as u32,
                            slot: fidx
                        });
                    };
                    let layout = self.loader.class(vmprobe_bytecode::ClassId(class)).layout();
                    let Some(&slot) = layout.get(fidx as usize) else {
                        fault!(VmError::BadSlot {
                            method: frame.method,
                            pc: pc as u32,
                            slot: fidx
                        });
                    };
                    self.meter
                        .store(self.heap.get(id).addr() + 16 + u64::from(fidx) * 8);
                    if slot.is_ref {
                        let target = v.as_ref_id();
                        self.plan
                            .write_barrier(&mut self.heap, id, target, &mut self.meter);
                        self.heap.set_ref(id, slot.slot as usize, target);
                    } else {
                        self.heap.set_prim(id, slot.slot as usize, v.to_bits());
                    }
                }
                Op::GetStatic(s) => {
                    self.meter.load(STATICS_BASE + u64::from(s) * 8);
                    frame.stack.push(self.statics[s as usize]);
                }
                Op::PutStatic(s) => {
                    self.meter.store(STATICS_BASE + u64::from(s) * 8);
                    self.statics[s as usize] = frame.stack.pop().expect("verified");
                }
                Op::ALoad => {
                    let idx = frame.stack.pop().expect("verified").as_i();
                    let arr = frame.stack.pop().expect("verified");
                    let Some(id) = arr.as_ref_id() else {
                        fault!(VmError::NullDereference {
                            method: frame.method,
                            pc: pc as u32
                        });
                    };
                    self.meter.int_ops(2); // bounds check
                    let (kind, len) = {
                        let o = self.heap.get(id);
                        (o.kind(), o.ref_count().max(o.prim_count()))
                    };
                    if idx < 0 || idx as usize >= len {
                        fault!(VmError::IndexOutOfBounds {
                            method: frame.method,
                            pc: pc as u32,
                            index: idx,
                            len,
                        });
                    }
                    self.meter
                        .load(self.heap.get(id).addr() + 16 + (idx as u64) * 8);
                    let v = match kind {
                        ObjKind::RefArray => match self.heap.get_ref(id, idx as usize) {
                            Some(r) => Value::Ref(r),
                            None => Value::Null,
                        },
                        ObjKind::FloatArray => {
                            Value::F(f64::from_bits(self.heap.get_prim(id, idx as usize)))
                        }
                        _ => Value::I(self.heap.get_prim(id, idx as usize) as i64),
                    };
                    frame.stack.push(v);
                }
                Op::AStore => {
                    let v = frame.stack.pop().expect("verified");
                    let idx = frame.stack.pop().expect("verified").as_i();
                    let arr = frame.stack.pop().expect("verified");
                    let Some(id) = arr.as_ref_id() else {
                        fault!(VmError::NullDereference {
                            method: frame.method,
                            pc: pc as u32
                        });
                    };
                    self.meter.int_ops(2);
                    let (kind, len) = {
                        let o = self.heap.get(id);
                        (o.kind(), o.ref_count().max(o.prim_count()))
                    };
                    if idx < 0 || idx as usize >= len {
                        fault!(VmError::IndexOutOfBounds {
                            method: frame.method,
                            pc: pc as u32,
                            index: idx,
                            len,
                        });
                    }
                    self.meter
                        .store(self.heap.get(id).addr() + 16 + (idx as u64) * 8);
                    if kind == ObjKind::RefArray {
                        let target = v.as_ref_id();
                        self.plan
                            .write_barrier(&mut self.heap, id, target, &mut self.meter);
                        self.heap.set_ref(id, idx as usize, target);
                    } else {
                        self.heap.set_prim(id, idx as usize, v.to_bits());
                    }
                }
                Op::ArrLen => {
                    let arr = frame.stack.pop().expect("verified");
                    let Some(id) = arr.as_ref_id() else {
                        fault!(VmError::NullDereference {
                            method: frame.method,
                            pc: pc as u32
                        });
                    };
                    // Length lives in the array header.
                    self.meter.load(self.heap.get(id).addr());
                    let o = self.heap.get(id);
                    frame
                        .stack
                        .push(Value::I(o.ref_count().max(o.prim_count()) as i64));
                }
                Op::Nop => {
                    self.meter.int_ops(1);
                }
            }
        }
    }

    /// Call `m`: load its class, compile on first invocation, push a frame.
    pub(crate) fn invoke(&mut self, m: MethodId) -> Result<(), VmError> {
        if self.frames.len() >= self.config.max_frames {
            return Err(VmError::StackOverflow {
                limit: self.config.max_frames,
            });
        }
        let program = Arc::clone(&self.program);
        let method = program.method(m);
        self.loader
            .ensure_loaded(&program, method.class(), &mut self.meter)?;

        if self.compilers.method(m).tier == Tier::Uncompiled {
            match self.config.personality {
                Personality::JikesRvm => {
                    self.meter.enter(ComponentId::BaseCompiler);
                    self.compilers
                        .baseline_compile(&program, m, &mut self.meter);
                    self.meter.exit();
                }
                Personality::Kaffe => {
                    self.meter.enter(ComponentId::JitCompiler);
                    self.compilers.jit_compile(&program, m, &mut self.meter);
                    self.meter.exit();
                }
            }
        }
        self.compilers.method_mut(m).hotness += 1;
        self.stats.calls += 1;

        let n_args = method.n_args() as usize;
        // Engine selection is per-activation, snapshotted here: only
        // methods already at Tier::Opt with a lowered body get a register
        // frame. Promotion during the activation changes nothing (no OSR),
        // identically to how `tier`/`code_addr` behave.
        let rt = *self.compilers.method(m);
        let mut rir = if self.config.rir && rt.tier == Tier::Opt {
            self.compilers.rir_body(m).map(|body| {
                let window = self.windows.acquire(body.n_regs as usize);
                RirFrame {
                    body,
                    window,
                    live_sp: 0,
                }
            })
        } else {
            None
        };
        let mut locals = match rir {
            Some(_) => Vec::new(),
            None => vec![Value::default(); method.n_locals() as usize],
        };
        {
            // Transfer arguments into the callee's slots 0..n_args — the
            // register window doubles as the locals array.
            let dst: &mut [Value] = match rir.as_mut() {
                Some(rf) => &mut rf.window,
                None => &mut locals,
            };
            if let Some(caller) = self.frames.last_mut() {
                match &mut caller.rir {
                    Some(crf) => {
                        let base = crf.body.n_locals as usize + crf.live_sp as usize;
                        dst[..n_args].copy_from_slice(&crf.window[base..base + n_args]);
                    }
                    None => {
                        for i in (0..n_args).rev() {
                            dst[i] = caller.stack.pop().expect("verified arg count");
                        }
                    }
                }
            }
        }
        let depth = self.frames.len() as u64;
        let stack_addr = STACK_BASE + depth * FRAME_STRIDE;
        for i in 0..n_args as u64 {
            self.meter.store(stack_addr + i * 8);
        }
        let stack = if rir.is_some() {
            Vec::new()
        } else {
            Vec::with_capacity(8)
        };
        self.frames.push(Frame {
            method: m,
            pc: 0,
            locals,
            stack,
            stack_addr,
            tier: rt.tier,
            code_addr: rt.code_addr,
            rir,
        });
        self.stats.max_stack_depth = self.stats.max_stack_depth.max(self.frames.len() as u64);
        Ok(())
    }

    /// Allocate, collecting (and retrying) on exhaustion.
    ///
    /// `cur_locals`/`cur_stack` are the in-flight frame's live slices
    /// (the run loop pops the executing frame, so it is not in
    /// `self.frames`): the locals and operand-stack vectors for a stack
    /// frame, the corresponding window slices for a register frame.
    pub(crate) fn alloc(
        &mut self,
        req: AllocRequest,
        cur_locals: &[Value],
        cur_stack: &[Value],
    ) -> Result<ObjId, VmError> {
        self.stats.allocations += 1;
        if self.stats.allocations >= self.fail_alloc_at {
            return Err(VmError::InjectedOom {
                at_allocation: self.stats.allocations,
            });
        }

        // Kaffe-style incremental marking at allocation sites.
        if self.stats.allocations & INCREMENT_CHECK_MASK == 0 && self.plan.wants_increment() {
            let roots = self.collect_roots(cur_locals, cur_stack);
            self.meter.enter(ComponentId::Gc);
            self.plan.increment(&mut self.heap, &roots, &mut self.meter);
            self.meter.exit();
            self.stats.gc_increments += 1;
        }

        for attempt in 0..3 {
            match self.plan.alloc(&mut self.heap, req, &mut self.meter) {
                Ok(id) => return Ok(id),
                Err(_) if attempt < 2 => {
                    let roots = self.collect_roots(cur_locals, cur_stack);
                    self.meter.enter(ComponentId::Gc);
                    self.plan.collect(&mut self.heap, &roots, &mut self.meter);
                    self.meter.exit();
                    self.stats.gc_requests += 1;
                }
                Err(_) => break,
            }
        }
        Err(VmError::OutOfMemory {
            requested: u64::from(req.size_bytes()),
            heap_bytes: self.config.heap_bytes,
        })
    }

    /// Enumerate roots: statics plus every frame (including the in-flight
    /// one, passed as its live slices), with raw integers passed as
    /// ambiguous words for conservative plans.
    fn collect_roots(&self, cur_locals: &[Value], cur_stack: &[Value]) -> RootSet {
        let conservative = self.config.collector == CollectorKind::KaffeIncremental;
        let mut roots = RootSet::new();
        fn scan(roots: &mut RootSet, conservative: bool, vals: &[Value]) {
            for v in vals {
                match v {
                    Value::Ref(id) => roots.refs.push(*id),
                    Value::I(x) if conservative => roots.ambiguous.push(*x as u64),
                    _ => {}
                }
            }
        }
        for v in &self.statics {
            if let Value::Ref(id) = v {
                roots.refs.push(*id);
            }
        }
        for f in &self.frames {
            let (locals, stack) = f.live_slices();
            scan(&mut roots, conservative, locals);
            scan(&mut roots, conservative, stack);
        }
        scan(&mut roots, conservative, cur_locals);
        scan(&mut roots, conservative, cur_stack);
        roots
    }

    /// Scheduler quantum: timer tick, controller activation, one optimizing
    /// compilation if queued.
    pub(crate) fn quantum(&mut self) {
        self.next_quantum = Meter::deadline(self.meter.cycles() + self.config.quantum_cycles);
        self.stats.quanta += 1;

        self.meter.enter(ComponentId::Scheduler);
        self.meter.int_ops(350);
        self.meter.store(VM_BASE + 0x8000);
        self.meter.load(VM_BASE + 0x8040);
        self.meter.exit();

        if self.config.personality == Personality::JikesRvm {
            if self.stats.quanta.is_multiple_of(CONTROLLER_PERIOD_QUANTA) {
                self.meter.enter(ComponentId::Controller);
                self.controller.scan(
                    &mut self.compilers,
                    self.config.opt_threshold,
                    &mut self.meter,
                );
                self.meter.exit();
            }
            if let Some(m) = self.compilers.opt_queue.pop_front() {
                let program = Arc::clone(&self.program);
                self.meter.enter(ComponentId::OptCompiler);
                self.compilers.opt_compile(&program, m, &mut self.meter);
                self.meter.exit();
            }
        }
    }
}
