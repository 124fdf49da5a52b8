//! Single-precision general matrix multiply (GEMM), tiled with on-chip
//! accumulation: "each PCU multiplies two tiles by successively performing
//! pipelined inner products" (§4.5).

use crate::util::*;
use crate::{Bench, Scale};
use plasticine_fpga::AppProfile;
use plasticine_ppir::*;

/// `C[M][P] = A[M][N] × B[N][P]`, tiled `(Tm × Tn) · (Tn × Tp)` with a
/// sequential reduction over `N`-tiles accumulating into the output tile.
pub fn gemm(scale: Scale) -> Bench {
    let (tm, tn, tp) = (32usize, 64usize, 64usize);
    let mt = 2 * scale.0.max(1);
    let nt = scale.0.max(2);
    let pt = 2;
    let (m, n, p) = (tm * mt, tn * nt, tp * pt);

    let mut b = ProgramBuilder::new("GEMM");
    let d_a = b.dram("A", DType::F32, m * n);
    let d_b = b.dram("B", DType::F32, n * p);
    let d_c = b.dram("C", DType::F32, m * p);
    let s_a = b.sram("tileA", DType::F32, &[tm, tn]);
    let s_b = b.sram("tileB", DType::F32, &[tn, tp]);
    let s_c = b.sram("tileC", DType::F32, &[tm, tp]);

    // Outer tile loops over the output.
    let c_tm = b.counter(0, mt as i64, 1, 2);
    let c_tp = b.counter(0, pt as i64, 1, 2);
    let (itm, itp) = (c_tm.index, c_tp.index);

    // Zero the accumulator tile.
    let ci = b.counter(0, tm as i64, 1, 1);
    let cj = b.counter(0, tp as i64, 1, 16);
    let (zi, zj) = (ci.index, cj.index);
    let mut zf = Func::new("zero");
    let z = zf.konst(Elem::F32(0.0));
    zf.set_outputs(vec![z]);
    let zf = b.func(zf);
    let zaddr = coords_func(&mut b, &[zi, zj]);
    let zero_c = b.inner(
        "zero_c",
        vec![ci, cj],
        InnerOp::Map(MapPipe {
            body: zf,
            writes: vec![PipeWrite {
                sram: s_c,
                addr: zaddr,
                value_slot: 0,
                mode: WriteMode::Overwrite,
            }],
        }),
    );

    // Reduction over N-tiles (sequential: loop-carried accumulation).
    let c_tk = b.counter(0, nt as i64, 1, 1);
    let itk = c_tk.index;
    let base_a = affine_func(&mut b, &[(itm, (tm * n) as i64), (itk, tn as i64)], 0);
    let base_b = affine_func(&mut b, &[(itk, (tn * p) as i64), (itp, tp as i64)], 0);
    let ld_a = load_2d(&mut b, "ld_a", d_a, base_a, s_a, tm, tn, n);
    let ld_b = load_2d(&mut b, "ld_b", d_b, base_b, s_b, tn, tp, p);

    // Inner products: for each (i, j), fold over k.
    let c_i = b.counter(0, tm as i64, 1, 2);
    let c_j = b.counter(0, tp as i64, 1, 2);
    let (ii, jj) = (c_i.index, c_j.index);
    let c_k = b.counter(0, tn as i64, 1, 16);
    let kk = c_k.index;
    let mut mf = Func::new("mac");
    let iv = mf.index(ii);
    let kv = mf.index(kk);
    let jv = mf.index(jj);
    let av = mf.load(s_a, vec![iv, kv]);
    let bv = mf.load(s_b, vec![kv, jv]);
    let prod = mf.binary(BinOp::Mul, av, bv);
    mf.set_outputs(vec![prod]);
    let mf = b.func(mf);
    let caddr = coords_func(&mut b, &[ii, jj]);
    let dot = b.inner(
        "dot",
        vec![c_k],
        InnerOp::Fold(FoldPipe {
            map: mf,
            combine: vec![BinOp::Add],
            init: vec![FoldInit::Const(Elem::F32(0.0))],
            out_regs: vec![None],
            writes: vec![PipeWrite {
                sram: s_c,
                addr: caddr,
                value_slot: 0,
                mode: WriteMode::Accumulate(BinOp::Add),
            }],
        }),
    );
    let ij_loop = b.outer("ij", Schedule::Pipelined, vec![c_i, c_j], vec![dot]);
    let k_loop = b.outer(
        "ktiles",
        Schedule::Sequential,
        vec![c_tk],
        vec![ld_a, ld_b, ij_loop],
    );

    let base_c = affine_func(&mut b, &[(itm, (tm * p) as i64), (itp, tp as i64)], 0);
    let st_c = store_2d(&mut b, "st_c", d_c, base_c, s_c, tm, tp, p);
    let mp_loop = b.outer(
        "mp_tiles",
        Schedule::Pipelined,
        vec![c_tm, c_tp],
        vec![zero_c, k_loop, st_c],
    );
    let root = b.outer("root", Schedule::Sequential, vec![], vec![mp_loop]);
    let program = b.finish(root).expect("gemm validates");

    // Inputs and golden (same accumulation order as the device: k ascending).
    let a: Vec<Elem> = (0..m * n)
        .map(|i| Elem::F32(hash_unit_f32(i as u64, 20) - 0.5))
        .collect();
    let bm: Vec<Elem> = (0..n * p)
        .map(|i| Elem::F32(hash_unit_f32(i as u64, 21) - 0.5))
        .collect();
    // i-k-j order over plain floats: each C[i][j] still starts at 0.0 and
    // adds its products in ascending k, so the result is bit-identical to
    // the i-j-k dot products (Rust does not contract `+ *` into FMAs).
    let af: Vec<f32> = a.iter().map(|e| e.as_f32().unwrap()).collect();
    let bf: Vec<f32> = bm.iter().map(|e| e.as_f32().unwrap()).collect();
    let mut cf = vec![0.0f32; m * p];
    for (c_row, a_row) in cf.chunks_exact_mut(p).zip(af.chunks_exact(n)) {
        for (&a_ik, b_row) in a_row.iter().zip(bf.chunks_exact(p)) {
            for (c, &b_kj) in c_row.iter_mut().zip(b_row) {
                *c += a_ik * b_kj;
            }
        }
    }
    let c: Vec<Elem> = cf.into_iter().map(Elem::F32).collect();

    Bench {
        name: "GEMM".into(),
        program,
        inputs: vec![(d_a, a), (d_b, bm)],
        expect_drams: vec![(d_c, c)],
        expect_regs: vec![],
        fpga: AppProfile {
            name: "GEMM".into(),
            total_ops: 2.0 * (m * n * p) as f64,
            fp_muls: (m * n * p) as f64,
            fp_adds: (m * n * p) as f64,
            ops_per_elem: 2.0,
            dense_bytes: 4.0 * (m * n * pt + n * p * mt + m * p) as f64,
            random_elems: 0.0,
            // Banked, double-buffered A/B/C tiles exhaust BRAM quickly
            // (the paper's stated FPGA limiter for GEMM).
            buffer_kb: ((tm * tn + tn * tp + tm * tp) * 4 * 2) as f64 / 1024.0,
            app_parallelism: 64.0,
            sequential_frac: 0.0,
            serial_iters: 0.0,
            serial_cycles: 0.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_functional_against_golden() {
        let bench = gemm(Scale::tiny());
        bench.run_and_verify().expect("gemm verifies");
    }

    /// The golden equals the plain dot products `C[i][j] = sum_k A[i][k]
    /// * B[k][j]` accumulated in ascending k, bit for bit.
    #[test]
    fn golden_is_bit_identical_to_ascending_k_dot_products() {
        for scale in [Scale(1), Scale(2)] {
            let bench = gemm(scale);
            let f = |d: &[Elem]| -> Vec<f32> { d.iter().map(|e| e.as_f32().unwrap()).collect() };
            let (a, b) = (f(&bench.inputs[0].1), f(&bench.inputs[1].1));
            let c = &bench.expect_drams[0].1;
            let (m, n) = (64 * scale.0, 64 * scale.0.max(2));
            let p = c.len() / m;
            for i in 0..m {
                for j in 0..p {
                    let mut acc = 0.0f32;
                    for k in 0..n {
                        acc += a[i * n + k] * b[k * p + j];
                    }
                    assert_eq!(c[i * p + j], Elem::F32(acc), "C[{i}][{j}] at {scale:?}");
                }
            }
        }
    }

    #[test]
    fn gemm_compiles_on_paper_params() {
        let bench = gemm(Scale::tiny());
        let out = plasticine_compiler::compile(
            &bench.program,
            &plasticine_arch::PlasticineParams::paper_final(),
        )
        .expect("gemm compiles");
        assert!(out.config.usage.pcus >= 2);
        assert!(out.config.usage.pmus >= 3);
    }
}
