//! Primitive-level backend comparison: the flavour of the paper's
//! evaluation tables, at example scale — sequential reference vs the
//! work-stealing parallel CPU backend vs the simulated CUDA device.
//!
//! ```text
//! cargo run --release --example backend_shootout
//! ```

use std::time::Instant;

use gbtl::algebra::{PlusMonoid, PlusTimes};
use gbtl::graphgen::{erdos_renyi, Rmat};
use gbtl::prelude::*;

fn main() {
    let scale = 11u32;
    let rmat = gbtl::algorithms::adjacency(Rmat::new(scale, 16).seed(3).generate());
    let er = gbtl::algorithms::adjacency(erdos_renyi(1 << scale, (1 << scale) * 16, 3));

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("parallel backend threads: {threads} (host parallelism)");
    println!(
        "{:<10} {:>10} {:>10}   {:<12} {:>12} {:>12} {:>14} {:>12}",
        "graph", "n", "nnz", "operation", "seq wall", "par wall", "cuda-sim wall", "modeled us"
    );

    for (name, a) in [("rmat", &rmat), ("erdos", &er)] {
        let af = gbtl::algorithms::pattern_matrix(&Context::sequential(), a, 1.0f64);
        let u = Vector::filled(a.ncols(), 1.0f64);

        // mxv
        let seq = Context::sequential();
        let t = Instant::now();
        let mut w1 = Vector::new(a.nrows());
        seq.mxv(
            &mut w1,
            None,
            no_accum(),
            PlusTimes::new(),
            &af,
            &u,
            &Descriptor::new(),
        )
        .unwrap();
        let seq_t = t.elapsed();

        let par = Context::parallel();
        let t = Instant::now();
        let mut wp = Vector::new(a.nrows());
        par.mxv(
            &mut wp,
            None,
            no_accum(),
            PlusTimes::new(),
            &af,
            &u,
            &Descriptor::new(),
        )
        .unwrap();
        let par_t = t.elapsed();
        assert_eq!(w1, wp);

        let cuda = Context::cuda_default();
        let t = Instant::now();
        let mut w2 = Vector::new(a.nrows());
        cuda.mxv(
            &mut w2,
            None,
            no_accum(),
            PlusTimes::new(),
            &af,
            &u,
            &Descriptor::new(),
        )
        .unwrap();
        let cuda_t = t.elapsed();
        assert_eq!(w1, w2);
        let modeled = cuda.gpu_stats().modeled_time_us();
        println!(
            "{name:<10} {:>10} {:>10}   {:<12} {:>12.2?} {:>12.2?} {:>14.2?} {:>12.1}",
            a.nrows(),
            a.nnz(),
            "mxv",
            seq_t,
            par_t,
            cuda_t,
            modeled
        );

        // reduce (matrix -> scalar)
        let seq = Context::sequential();
        let t = Instant::now();
        let r1 = seq.reduce_mat_scalar(PlusMonoid::<f64>::new(), &af);
        let seq_t = t.elapsed();
        let par = Context::parallel();
        let t = Instant::now();
        let rp = par.reduce_mat_scalar(PlusMonoid::<f64>::new(), &af);
        let par_t = t.elapsed();
        let cuda = Context::cuda_default();
        let t = Instant::now();
        let r2 = cuda.reduce_mat_scalar(PlusMonoid::<f64>::new(), &af);
        let cuda_t = t.elapsed();
        assert_eq!(r1, r2);
        assert_eq!(r1.map(f64::to_bits), rp.map(f64::to_bits));
        println!(
            "{name:<10} {:>10} {:>10}   {:<12} {:>12.2?} {:>12.2?} {:>14.2?} {:>12.1}",
            a.nrows(),
            a.nnz(),
            "reduce",
            seq_t,
            par_t,
            cuda_t,
            cuda.gpu_stats().modeled_time_us()
        );

        // transpose
        let seq = Context::sequential();
        let t = Instant::now();
        let mut t1 = Matrix::new(a.ncols(), a.nrows());
        seq.transpose(&mut t1, None, no_accum(), &af, &Descriptor::new())
            .unwrap();
        let seq_t = t.elapsed();
        let par = Context::parallel();
        let t = Instant::now();
        let mut tp = Matrix::new(a.ncols(), a.nrows());
        par.transpose(&mut tp, None, no_accum(), &af, &Descriptor::new())
            .unwrap();
        let par_t = t.elapsed();
        assert_eq!(t1, tp);
        let cuda = Context::cuda_default();
        let t = Instant::now();
        let mut t2 = Matrix::new(a.ncols(), a.nrows());
        cuda.transpose(&mut t2, None, no_accum(), &af, &Descriptor::new())
            .unwrap();
        let cuda_t = t.elapsed();
        assert_eq!(t1, t2);
        println!(
            "{name:<10} {:>10} {:>10}   {:<12} {:>12.2?} {:>12.2?} {:>14.2?} {:>12.1}",
            a.nrows(),
            a.nnz(),
            "transpose",
            seq_t,
            par_t,
            cuda_t,
            cuda.gpu_stats().modeled_time_us()
        );
    }

    println!("\nNote: `par wall` is the work-stealing CPU backend at host");
    println!("parallelism; `cuda-sim wall` is host wall-clock of the functional");
    println!("simulation (kernels execute natively, charges are analytic); `modeled us` is");
    println!("the SIMT cost model's kernel-time estimate for a K40-class device.");
}
