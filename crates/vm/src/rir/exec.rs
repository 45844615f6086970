//! The register execution engine for [`Tier::Opt`](crate::Tier) frames.
//!
//! `Vm::step_rir` is the register twin of the stack interpreter's `step`:
//! it executes a lowered [`RirBody`](super::RirBody) over the frame's
//! register window instead of replaying operand-stack traffic. The hot
//! loop is the whole point — no `Vec` push/pop per operand, no dispatch
//! µop charges (the optimizing tier's budget is zero), just indexed moves
//! over one flat window.
//!
//! **Parity obligations** (checked by the differential harness): for every
//! executed instruction this loop must issue the *exact* meter-call
//! sequence the stack interpreter issues for an `Opt` frame — quantum
//! check first, `ifetch` on the same `pc & 7 == 0` cadence against the
//! same code address, zero dispatch charges, the same per-op charges in
//! the same order, and faults raised at the same `pc` with the same typed
//! error. Any divergence is a bug in this file, never a re-bless.

use std::sync::Arc;

use vmprobe_heap::{AllocRequest, ObjKind};
use vmprobe_platform::Exec;

use super::{compare, f_alu, int_alu, math_fn, RirOp};
use crate::vm::{Frame, Vm, STATICS_BASE};
use crate::{Value, VmError};

impl Vm {
    /// Execute a register frame until it calls, returns, or faults.
    ///
    /// The caller (the run loop's `step`) has already popped `frame` and
    /// checked that it carries register state.
    pub(crate) fn step_rir(&mut self, mut frame: Frame) -> Result<(), VmError> {
        let mut rf = frame.rir.take().expect("step_rir on a stack frame");
        let body = Arc::clone(&rf.body);
        let n_locals = body.n_locals as usize;
        // The instruction-budget hook: this engine exists for the tier
        // whose model charges no dispatch and keeps locals in registers.
        debug_assert_eq!(frame.tier.dispatch_ops(), 0, "register engine tier");
        debug_assert!(!frame.tier.locals_in_memory(), "register engine tier");
        let expansion = u64::from(frame.tier.code_expansion());
        let program = Arc::clone(&self.program);

        macro_rules! fault {
            ($e:expr) => {{
                let e = $e;
                frame.rir = Some(rf);
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
            // Tier::Opt dispatch_ops() == 0: no dispatch charge here, by
            // construction rather than by a skipped branch.
            self.stats.bytecodes += 1;
            self.rir_bytecodes += 1;
            if self.stats.bytecodes >= self.step_budget {
                fault!(VmError::StepBudgetExhausted {
                    budget: self.step_budget,
                });
            }
            let op = body.ops[pc];
            frame.pc += 1;
            match op {
                // ---- constants & moves ----
                RirOp::ConstI { dst, lit } => {
                    self.meter.int_ops(1);
                    rf.window[dst as usize] = Value::I(body.pool_i[lit as usize]);
                }
                RirOp::ConstF { dst, lit } => {
                    self.meter.int_ops(1);
                    rf.window[dst as usize] = Value::F(body.pool_f[lit as usize]);
                }
                RirOp::ConstNull { dst } => {
                    self.meter.int_ops(1);
                    rf.window[dst as usize] = Value::Null;
                }
                RirOp::Mov { dst, src } => {
                    self.meter.int_ops(1);
                    rf.window[dst as usize] = rf.window[src as usize];
                }
                RirOp::Drop => {
                    self.meter.int_ops(1);
                }
                RirOp::Swap { a, b } => {
                    self.meter.int_ops(2);
                    rf.window.swap(a as usize, b as usize);
                }

                // ---- integer ALU ----
                RirOp::IntAlu { kind, dst, a, b } => {
                    self.meter.int_ops(1);
                    let av = rf.window[a as usize].as_i();
                    let bv = rf.window[b as usize].as_i();
                    rf.window[dst as usize] = Value::I(int_alu(kind, av, bv));
                }
                RirOp::Neg { dst, src } => {
                    self.meter.int_ops(1);
                    let a = rf.window[src as usize].as_i();
                    rf.window[dst as usize] = Value::I(a.wrapping_neg());
                }

                // ---- float ALU ----
                RirOp::FAlu { kind, dst, a, b } => {
                    self.meter.fp_ops(1);
                    let av = rf.window[a as usize].as_f();
                    let bv = rf.window[b as usize].as_f();
                    rf.window[dst as usize] = Value::F(f_alu(kind, av, bv));
                }
                RirOp::FNeg { dst, src } => {
                    self.meter.fp_ops(1);
                    let a = rf.window[src as usize].as_f();
                    rf.window[dst as usize] = Value::F(-a);
                }
                RirOp::Math { f, dst, src } => {
                    self.meter.math_op();
                    let a = rf.window[src as usize].as_f();
                    rf.window[dst as usize] = Value::F(math_fn(f, a));
                }
                RirOp::I2F { dst, src } => {
                    self.meter.fp_ops(1);
                    let a = rf.window[src as usize].as_i();
                    rf.window[dst as usize] = Value::F(a as f64);
                }
                RirOp::F2I { dst, src } => {
                    self.meter.fp_ops(1);
                    let a = rf.window[src as usize].as_f();
                    rf.window[dst as usize] = Value::I(if a.is_nan() { 0 } else { a as i64 });
                }

                // ---- comparisons ----
                RirOp::Cmp { kind, dst, a, b } => {
                    self.meter.int_ops(1);
                    let r = compare(kind, rf.window[a as usize], rf.window[b as usize]);
                    rf.window[dst as usize] = Value::I(i64::from(r));
                }
                RirOp::IsNull { dst, src } => {
                    self.meter.int_ops(1);
                    let r = rf.window[src as usize] == Value::Null;
                    rf.window[dst as usize] = Value::I(i64::from(r));
                }

                // ---- control flow ----
                RirOp::Jump { target, back_edge } => {
                    self.meter.branch();
                    if back_edge {
                        self.compilers.method_mut(frame.method).hotness += 1;
                    }
                    frame.pc = target;
                }
                RirOp::Br {
                    cond,
                    target,
                    on_true,
                    back_edge,
                } => {
                    self.meter.branch();
                    let v = rf.window[cond as usize].truthy();
                    if v == on_true {
                        if back_edge {
                            self.compilers.method_mut(frame.method).hotness += 1;
                        }
                        frame.pc = target;
                    }
                }
                RirOp::Call { m, save_sp } => {
                    self.meter.int_ops(4);
                    rf.live_sp = save_sp;
                    frame.rir = Some(rf);
                    self.frames.push(frame);
                    return self.invoke(m);
                }
                RirOp::Ret => {
                    self.meter.int_ops(3);
                    self.windows.release(rf.window);
                    return Ok(());
                }
                RirOp::RetV { src } => {
                    self.meter.int_ops(3);
                    let v = rf.window[src as usize];
                    match self.frames.last_mut() {
                        Some(caller) => caller.push_return(v),
                        None => self.result = Some(v),
                    }
                    self.windows.release(rf.window);
                    return Ok(());
                }

                // ---- objects & arrays ----
                RirOp::New { class, dst, gc_sp } => {
                    if let Err(e) = self.loader.ensure_loaded(&program, class, &mut self.meter) {
                        fault!(e);
                    }
                    let rt = self.loader.class(class);
                    let req = AllocRequest::instance(class.0, rt.ref_slots(), rt.prim_slots());
                    let (live, rest) = rf.window.split_at(n_locals);
                    match self.alloc(req, live, &rest[..gc_sp as usize]) {
                        Ok(id) => rf.window[dst as usize] = Value::Ref(id),
                        Err(e) => fault!(e),
                    }
                }
                RirOp::NewArr {
                    kind,
                    len,
                    dst,
                    gc_sp,
                } => {
                    self.meter.int_ops(2);
                    let len = rf.window[len as usize].as_i();
                    if len < 0 {
                        fault!(VmError::NegativeArrayLength {
                            method: frame.method,
                            pc: pc as u32,
                            len,
                        });
                    }
                    let len = len as u32;
                    let req = match kind {
                        vmprobe_bytecode::ArrKind::Int => AllocRequest::int_array(len),
                        vmprobe_bytecode::ArrKind::Float => AllocRequest::float_array(len),
                        vmprobe_bytecode::ArrKind::Ref => AllocRequest::ref_array(len),
                    };
                    let (live, rest) = rf.window.split_at(n_locals);
                    match self.alloc(req, live, &rest[..gc_sp as usize]) {
                        Ok(id) => rf.window[dst as usize] = Value::Ref(id),
                        Err(e) => fault!(e),
                    }
                }
                RirOp::GetField { obj, dst, fidx } => {
                    let obj = rf.window[obj as usize];
                    let Some(id) = obj.as_ref_id() else {
                        fault!(VmError::NullDereference {
                            method: frame.method,
                            pc: pc as u32,
                        });
                    };
                    let ObjKind::Instance { class } = self.heap.get(id).kind() else {
                        fault!(VmError::BadSlot {
                            method: frame.method,
                            pc: pc as u32,
                            slot: fidx,
                        });
                    };
                    let layout = self.loader.class(vmprobe_bytecode::ClassId(class)).layout();
                    let Some(&slot) = layout.get(fidx as usize) else {
                        fault!(VmError::BadSlot {
                            method: frame.method,
                            pc: pc as u32,
                            slot: fidx,
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
                    rf.window[dst as usize] = v;
                }
                RirOp::PutField { obj, val, fidx } => {
                    let v = rf.window[val as usize];
                    let obj = rf.window[obj as usize];
                    let Some(id) = obj.as_ref_id() else {
                        fault!(VmError::NullDereference {
                            method: frame.method,
                            pc: pc as u32,
                        });
                    };
                    let ObjKind::Instance { class } = self.heap.get(id).kind() else {
                        fault!(VmError::BadSlot {
                            method: frame.method,
                            pc: pc as u32,
                            slot: fidx,
                        });
                    };
                    let layout = self.loader.class(vmprobe_bytecode::ClassId(class)).layout();
                    let Some(&slot) = layout.get(fidx as usize) else {
                        fault!(VmError::BadSlot {
                            method: frame.method,
                            pc: pc as u32,
                            slot: fidx,
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
                RirOp::GetStatic { dst, slot } => {
                    self.meter.load(STATICS_BASE + u64::from(slot) * 8);
                    rf.window[dst as usize] = self.statics[slot as usize];
                }
                RirOp::PutStatic { src, slot } => {
                    self.meter.store(STATICS_BASE + u64::from(slot) * 8);
                    self.statics[slot as usize] = rf.window[src as usize];
                }
                RirOp::ALoad { arr, idx, dst } => {
                    let idx = rf.window[idx as usize].as_i();
                    let arr = rf.window[arr as usize];
                    let Some(id) = arr.as_ref_id() else {
                        fault!(VmError::NullDereference {
                            method: frame.method,
                            pc: pc as u32,
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
                    rf.window[dst as usize] = v;
                }
                RirOp::AStore { arr, idx, val } => {
                    let v = rf.window[val as usize];
                    let idx = rf.window[idx as usize].as_i();
                    let arr = rf.window[arr as usize];
                    let Some(id) = arr.as_ref_id() else {
                        fault!(VmError::NullDereference {
                            method: frame.method,
                            pc: pc as u32,
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
                RirOp::ArrLen { arr, dst } => {
                    let arr = rf.window[arr as usize];
                    let Some(id) = arr.as_ref_id() else {
                        fault!(VmError::NullDereference {
                            method: frame.method,
                            pc: pc as u32,
                        });
                    };
                    // Length lives in the array header.
                    self.meter.load(self.heap.get(id).addr());
                    let o = self.heap.get(id);
                    rf.window[dst as usize] = Value::I(o.ref_count().max(o.prim_count()) as i64);
                }
                RirOp::Nop => {
                    self.meter.int_ops(1);
                }
            }
        }
    }
}
