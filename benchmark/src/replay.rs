//! The exec and kernel layers, measured from outside. `report_exec` times
//! `bind` and reads the bound program's size. The kernel replay walks a
//! compiled model's schedule at a bound batch size and calls the same
//! `lip_tensor::kernel` functions the executor calls, with the same shapes
//! and strides, timing each call by kind.
//!
//! The operands hold synthetic values (positive, so the matmul's zero-lhs
//! skip never fires); the replay measures the kernels' cost at the
//! schedule's shapes, not the model's outputs. Elementwise fast paths are
//! replayed through one generic closure per chain.

use std::time::Instant;

use lip_analyze::{eval_shape, NodeAttr};
use lip_data::CovariateSpec;
use lip_exec::{BoundModel, CompiledModel};
use lip_tensor::gelu_scalar;

use crate::common::{median, ms, Report};
use lip_tensor::kernel::{self, ViewRef};
use lip_tensor::shape::{contiguous_strides, is_row_major, numel, view_strides};

#[derive(Clone, Debug)]
struct View {
    shape: Vec<usize>,
    strides: Vec<usize>,
    offset: usize,
}

impl View {
    fn dense(shape: Vec<usize>) -> View {
        View {
            strides: contiguous_strides(&shape),
            shape,
            offset: 0,
        }
    }

    fn contiguous(&self) -> bool {
        is_row_major(&self.shape, &self.strides)
    }

    fn on<'a>(&'a self, data: &'a [f32]) -> ViewRef<'a> {
        ViewRef {
            data,
            offset: self.offset,
            shape: &self.shape,
            strides: &self.strides,
        }
    }
}

type Stage = (&'static str, NodeAttr);

enum Work {
    /// Batch loads, materialized reshapes.
    Copy(View),
    Map {
        src: View,
        chain: Vec<Stage>,
    },
    Zip {
        a: View,
        b: View,
        op: &'static str,
        post: Vec<Stage>,
        shape: Vec<usize>,
    },
    MatMul {
        a: View,
        b: View,
        post: Vec<Stage>,
        out: usize,
    },
    Softmax {
        src: View,
        width: usize,
        log: bool,
    },
    Reduce {
        src: View,
        axis: usize,
        mean: bool,
    },
    Concat {
        parts: Vec<View>,
        axis: usize,
        outer: usize,
        inner: usize,
    },
    Gather {
        rows: usize,
        row_len: usize,
        count: usize,
    },
}

/// Per-forward kernel time by kind, from a replay at one batch size.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelTimes {
    pub matmul_ms: f64,
    pub softmax_ms: f64,
    /// Everything else that touches data: elementwise maps and zips,
    /// reductions, concatenation, gathers, loads and operand packing.
    pub elementwise_ms: f64,
    /// Multiply-accumulates of the replayed matmuls.
    pub matmul_macs: u64,
    /// Operand and result bytes of the replayed matmuls, computed from
    /// their sizes (not measured traffic).
    pub matmul_bytes: u64,
}

pub struct Replay {
    work: Vec<Work>,
    src: Vec<f32>,
    out: Vec<f32>,
    scratch: Vec<f32>,
}

impl Replay {
    /// Lay out `model`'s schedule at batch size `b`, resolving views the
    /// way `CompiledModel::bind` does.
    pub fn new(model: &CompiledModel, b: usize) -> Replay {
        let sched = model.schedule();
        let mut views: Vec<Option<View>> = vec![None; sched.pred + 1];
        let mut work = Vec::new();
        let mut largest = 1usize;
        for step in &sched.steps {
            let shape = eval_shape(&step.shape, b);
            largest = largest.max(numel(&shape));
            let inputs: Vec<View> = step
                .inputs
                .iter()
                .map(|&i| views[i].clone().expect("input scheduled before use"))
                .collect();
            let post: Vec<Stage> = step.fused.iter().map(|f| (f.op, f.attr.clone())).collect();
            let dense = View::dense(shape.clone());
            let view = match step.op {
                "Param" => dense,
                "Leaf" => {
                    work.push(Work::Copy(dense.clone()));
                    dense
                }
                "Permute" => {
                    let NodeAttr::Axes(axes) = &step.attr else {
                        panic!("Permute without axes")
                    };
                    let src = &inputs[0];
                    View {
                        strides: axes.iter().map(|&a| src.strides[a]).collect(),
                        shape,
                        offset: src.offset,
                    }
                }
                "SliceAxis" => {
                    let NodeAttr::Slice { axis, start, .. } = step.attr else {
                        panic!("SliceAxis without range")
                    };
                    let src = &inputs[0];
                    View {
                        strides: src.strides.clone(),
                        shape,
                        offset: src.offset + start * src.strides[axis],
                    }
                }
                "Reshape" => {
                    let src = &inputs[0];
                    match view_strides(&src.shape, &src.strides, &shape) {
                        Some(strides) => View {
                            shape,
                            strides,
                            offset: src.offset,
                        },
                        None => {
                            work.push(Work::Copy(src.clone()));
                            dense
                        }
                    }
                }
                "Add" | "Sub" | "Mul" | "Div" => {
                    work.push(Work::Zip {
                        a: inputs[0].clone(),
                        b: inputs[1].clone(),
                        op: step.op,
                        post,
                        shape,
                    });
                    dense
                }
                "MatMul" => {
                    let out = numel(&shape);
                    work.push(Work::MatMul {
                        a: inputs[0].clone(),
                        b: inputs[1].clone(),
                        post,
                        out,
                    });
                    dense
                }
                "Softmax" | "LogSoftmax" => {
                    let width = *shape.last().expect("softmax on a scalar");
                    work.push(Work::Softmax {
                        src: inputs[0].clone(),
                        width,
                        log: step.op == "LogSoftmax",
                    });
                    dense
                }
                "SumAxis" | "MeanAxis" => {
                    let NodeAttr::Axis(axis) = step.attr else {
                        panic!("reduction without axis")
                    };
                    work.push(Work::Reduce {
                        src: inputs[0].clone(),
                        axis,
                        mean: step.op == "MeanAxis",
                    });
                    dense
                }
                "Concat" => {
                    let NodeAttr::Axis(axis) = step.attr else {
                        panic!("Concat without axis")
                    };
                    work.push(Work::Concat {
                        parts: inputs.clone(),
                        axis,
                        outer: shape[..axis].iter().product(),
                        inner: shape[axis + 1..].iter().product(),
                    });
                    dense
                }
                "GatherRows" => {
                    let table = &inputs[0];
                    work.push(Work::Gather {
                        rows: table.shape[0],
                        row_len: table.shape[1],
                        count: shape[0],
                    });
                    dense
                }
                op => {
                    let mut chain = vec![(op, step.attr.clone())];
                    chain.extend(post);
                    work.push(Work::Map {
                        src: inputs[0].clone(),
                        chain,
                    });
                    dense
                }
            };
            views[step.node] = Some(view);
        }
        // every view addresses at most its root's extent, and no root is
        // larger than the largest step output or parameter
        let roots = largest;
        let src = (0..roots).map(|i| 0.01 + (i % 97) as f32 * 0.01).collect();
        Replay {
            work,
            src,
            out: vec![0.0; roots],
            scratch: vec![0.0; 2 * roots],
        }
    }

    /// Replay the schedule `reps` times and return the per-forward median
    /// time of each kind.
    pub fn run(&mut self, reps: usize) -> KernelTimes {
        let mut per_rep = Vec::with_capacity(reps);
        for _ in 0..reps {
            per_rep.push(self.once());
        }
        let med = |f: fn(&KernelTimes) -> f64| median(&per_rep.iter().map(f).collect::<Vec<_>>());
        let first = per_rep.first().copied().unwrap_or_default();
        KernelTimes {
            matmul_ms: med(|k| k.matmul_ms),
            softmax_ms: med(|k| k.softmax_ms),
            elementwise_ms: med(|k| k.elementwise_ms),
            matmul_macs: first.matmul_macs,
            matmul_bytes: first.matmul_bytes,
        }
    }

    fn once(&mut self) -> KernelTimes {
        let mut t = KernelTimes::default();
        let Replay {
            work,
            src,
            out,
            scratch,
        } = self;
        let src = &src[..];
        for w in work.iter() {
            let started = Instant::now();
            let slot = match w {
                Work::Copy(v) => {
                    kernel::gather_into(v.on(src), &mut out[..numel(&v.shape)]);
                    &mut t.elementwise_ms
                }
                Work::Map { src: v, chain } => {
                    kernel::map_into(v.on(src), &mut out[..numel(&v.shape)], |x| apply(x, chain));
                    &mut t.elementwise_ms
                }
                Work::Zip {
                    a,
                    b,
                    op,
                    post,
                    shape,
                } => {
                    let f = match *op {
                        "Add" => |x: f32, y: f32| x + y,
                        "Sub" => |x: f32, y: f32| x - y,
                        "Mul" => |x: f32, y: f32| x * y,
                        _ => |x: f32, y: f32| x / y,
                    };
                    let o = &mut out[..numel(shape)];
                    if post.is_empty() {
                        kernel::zip_into(a.on(src), b.on(src), shape, o, f);
                    } else {
                        kernel::zip_into(a.on(src), b.on(src), shape, o, |x, y| {
                            apply(f(x, y), post)
                        });
                    }
                    &mut t.elementwise_ms
                }
                Work::MatMul { a, b, post, out: n } => {
                    let dense_strides;
                    let bv = if kernel::matmul_rows_dense(&b.on(src)) {
                        b.on(src)
                    } else {
                        // the attention K-transpose: packed first, as the
                        // executor does
                        let packed = Instant::now();
                        kernel::gather_into(b.on(src), &mut scratch[..numel(&b.shape)]);
                        t.elementwise_ms += ms(packed.elapsed());
                        dense_strides = contiguous_strides(&b.shape);
                        ViewRef {
                            data: &scratch[..],
                            offset: 0,
                            shape: &b.shape,
                            strides: &dense_strides,
                        }
                    };
                    let matmul_start = Instant::now();
                    if post.is_empty() {
                        kernel::matmul_packed_into(a.on(src), bv, &mut out[..*n], |v| v);
                    } else {
                        kernel::matmul_packed_into(a.on(src), bv, &mut out[..*n], |v| {
                            apply(v, post)
                        });
                    }
                    let k = a.shape[a.shape.len() - 1];
                    t.matmul_macs += (*n * k) as u64;
                    t.matmul_bytes += 4 * (numel(&a.shape) + numel(&b.shape) + *n) as u64;
                    t.matmul_ms += ms(matmul_start.elapsed());
                    continue;
                }
                Work::Softmax { src: v, width, log } => {
                    let n = numel(&v.shape);
                    let data = dense_of(v, src, &mut scratch[..]);
                    if *log {
                        kernel::log_softmax_lastdim_into(data, *width, &mut out[..n]);
                    } else {
                        kernel::softmax_lastdim_into(data, *width, &mut out[..n]);
                    }
                    &mut t.softmax_ms
                }
                Work::Reduce { src: v, axis, mean } => {
                    let data = dense_of(v, src, &mut scratch[..]);
                    let n = numel(&v.shape) / v.shape[*axis];
                    let o = &mut out[..n];
                    kernel::axis_accumulate_into(data, &v.shape, *axis, 0.0, |a, x| a + x, o);
                    if *mean {
                        let s = 1.0 / v.shape[*axis] as f32;
                        o.iter_mut().for_each(|x| *x *= s);
                    }
                    &mut t.elementwise_ms
                }
                Work::Concat {
                    parts,
                    axis,
                    outer,
                    inner,
                } => {
                    let mut at = 0usize;
                    let mut spans = Vec::with_capacity(parts.len());
                    for p in parts {
                        let n = numel(&p.shape);
                        kernel::gather_into(p.on(src), &mut scratch[at..at + n]);
                        spans.push((at, n, p.shape[*axis]));
                        at += n;
                    }
                    let packed: Vec<(&[f32], usize)> = spans
                        .iter()
                        .map(|&(s, n, len)| (&scratch[s..s + n], len))
                        .collect();
                    let total: usize = spans.iter().map(|s| s.1).sum();
                    kernel::concat_packed_into(&packed, *outer, *inner, &mut out[..total]);
                    &mut t.elementwise_ms
                }
                Work::Gather {
                    rows,
                    row_len,
                    count,
                } => {
                    let indices: Vec<usize> = (0..*count).map(|i| i % rows).collect();
                    kernel::gather_rows_into(
                        &src[..rows * row_len],
                        *rows,
                        *row_len,
                        &indices,
                        &mut out[..count * row_len],
                    );
                    &mut t.elementwise_ms
                }
            };
            *slot += ms(started.elapsed());
        }
        t
    }
}

/// A dense copy of `v`'s elements: `src` itself when already dense,
/// otherwise packed into `scratch` (the executor's pack step).
fn dense_of<'a>(v: &View, src: &'a [f32], scratch: &'a mut [f32]) -> &'a [f32] {
    let n = numel(&v.shape);
    if v.contiguous() {
        &src[v.offset..v.offset + n]
    } else {
        kernel::gather_into(v.on(src), &mut scratch[..n]);
        &scratch[..n]
    }
}

/// One elementwise chain, with the executor's per-element expressions.
fn apply(mut v: f32, chain: &[Stage]) -> f32 {
    for (op, attr) in chain {
        v = match (*op, attr) {
            ("AddScalar", NodeAttr::Scalar(s)) => v + s,
            ("MulScalar", NodeAttr::Scalar(s)) => v * s,
            ("Neg", _) => -v,
            ("Relu", _) => v.max(0.0),
            ("Gelu", _) => gelu_scalar(v),
            ("Sigmoid", _) => 1.0 / (1.0 + (-v).exp()),
            ("Tanh", _) => v.tanh(),
            ("Sqrt", _) => v.sqrt(),
            ("Exp", _) => v.exp(),
            ("Ln", _) => v.ln(),
            ("Square", _) => v * v,
            ("Abs", _) => v.abs(),
            (op, _) => panic!("{op} is not an elementwise stage"),
        };
    }
    v
}

/// `exec.*`: compile time, bind time at `b`, forward time and the bound
/// program's size.
pub fn report_exec(
    report: &mut Report,
    compiled: &CompiledModel,
    bound: &BoundModel,
    b: usize,
    compile_ms: &[f64],
    run_ms: f64,
) {
    let binds: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(compiled.bind(b));
            ms(t.elapsed()) * 1e3
        })
        .collect();
    let sched = compiled.schedule();
    report.metric("exec.compile_ms", median(compile_ms), "ms");
    report.metric("exec.bind_us", median(&binds), "us");
    report.metric("exec.run_ms.p50", run_ms, "ms");
    report.metric("exec.arena_bytes", bound.arena_bytes() as f64, "B");
    report.metric("exec.steps", sched.steps.len() as f64, "count");
    report.metric(
        "exec.fused_ops",
        sched.steps.iter().map(|s| s.fused.len()).sum::<usize>() as f64,
        "count",
    );
}

/// `kernel.*`: replay the schedule at `b` and compare with the measured
/// forward time `run_ms`.
pub fn report_kernels(
    report: &mut Report,
    compiled: &CompiledModel,
    spec: &CovariateSpec,
    b: usize,
    run_ms: f64,
) {
    let mut replay = Replay::new(compiled, b);
    replay.run(3);
    let k = replay.run(25);
    let plan = plan_matmul_macs(compiled, spec, b).unwrap_or(k.matmul_macs);
    report.note(format!(
        "kernel replay at B={b}: {} matmul MACs replayed, {plan} matmul MACs in the \
         lip-analyze plan; kernel.matmul.bytes is computed from operand sizes",
        k.matmul_macs
    ));
    report.metric("kernel.matmul.ms", k.matmul_ms, "ms");
    report.metric("kernel.matmul.macs", plan as f64, "count");
    report.metric(
        "kernel.matmul.gmacs",
        plan as f64 / (k.matmul_ms * 1e6),
        "GMAC/s",
    );
    report.metric("kernel.matmul.bytes", k.matmul_bytes as f64, "B");
    report.metric("kernel.softmax.ms", k.softmax_ms, "ms");
    report.metric("kernel.elementwise.ms", k.elementwise_ms, "ms");
    report.metric(
        "kernel.coverage",
        (k.matmul_ms + k.softmax_ms + k.elementwise_ms) / run_ms,
        "share",
    );
}

/// Matmul multiply-accumulates of the model's forward plan at batch `b`.
fn plan_matmul_macs(compiled: &CompiledModel, spec: &CovariateSpec, b: usize) -> Option<u64> {
    let plan = lip_analyze::plan_forward_loss(compiled.config(), spec, false).ok()?;
    let nodes = plan.tape.nodes();
    let macs = nodes
        .iter()
        .filter(|n| n.op == "MatMul")
        .map(|n| {
            let lhs = &nodes[n.inputs[0].0].shape;
            let k = *lhs.last().expect("matmul lhs has rank >= 2");
            lip_analyze::rules::mac_cost("MatMul", &n.shape, Some(k)).eval(b as u64)
        })
        .sum();
    Some(macs)
}
