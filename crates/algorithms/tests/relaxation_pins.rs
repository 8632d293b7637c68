//! Pinned relaxations: `sssp` (`Auto` with `Aᵀ` resident, and forced pull),
//! `widest_path` and `sssp_multi` on rmat10 and torus16, with `u32` and `f64`
//! weights, on seq, par and cuda-sim.
//!
//! Each case pins four things read off the run: an FNV-1a checksum of the
//! distances, the number of level records, every level's `nnz_out` (the
//! frontier the epilogue handed on) and how many times a frontier switched
//! representation (`core.rep_switches`). The constants were recorded from
//! the relaxation whose epilogue rebuilt its frontier entry by entry; the
//! one that filters its product in place must read the same on every
//! backend.

use std::sync::Mutex;

use gbtl_algebra::{Min, Scalar};
use gbtl_algorithms::{adjacency, sssp, sssp_multi, sssp_with_direction, widest_path, Direction};
use gbtl_core::{direction_counters, Backend, Context, Matrix, TraceMode, Vector};
use gbtl_graphgen::{symmetrize, torus_2d, weights, Rmat};
use gbtl_sparse::CooMatrix;

/// `core.rep_switches` is process-wide: one case at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// `(case, distance checksum, levels, per-level nnz_out, rep switches)`.
type Pin = (&'static str, u64, usize, &'static [u64], u64);

#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("rmat10 u32 sssp auto", 0xb2f5b4aad3a66c7a, 10, &[347, 658, 605, 380, 225, 115, 44, 14, 2, 0], 0),
    ("rmat10 u32 sssp pull", 0xb2f5b4aad3a66c7a, 10, &[347, 658, 605, 380, 225, 115, 44, 14, 2, 0], 10),
    ("rmat10 u32 widest_path", 0xdff3ec7e7a0e9075, 20, &[347, 701, 548, 309, 190, 108, 57, 42, 31, 26, 19, 7, 3, 2, 2, 2, 1, 1, 1, 0], 0),
    ("rmat10 u32 sssp_multi", 0xf0b823bd63e21a75, 13, &[695, 1396, 1880, 1434, 1056, 695, 434, 251, 96, 30, 9, 1, 0], 0),
    ("rmat10 f64 sssp auto", 0x8790ba5c2f7609af, 6, &[347, 626, 445, 172, 26, 0], 0),
    ("rmat10 f64 sssp pull", 0x8790ba5c2f7609af, 6, &[347, 626, 445, 172, 26, 0], 6),
    ("rmat10 f64 widest_path", 0x666afb8ee5b876c9, 16, &[347, 721, 551, 341, 205, 141, 79, 38, 18, 13, 7, 1, 2, 2, 2, 0], 0),
    ("rmat10 f64 sssp_multi", 0xe764c9c007546b7a, 8, &[695, 1332, 1558, 943, 334, 67, 6, 0], 0),
    ("torus16 u32 sssp auto", 0xd83994b17b1fec3c, 19, &[4, 8, 12, 19, 24, 30, 36, 41, 44, 39, 38, 31, 26, 17, 16, 8, 4, 2, 0], 0),
    ("torus16 u32 sssp pull", 0xd83994b17b1fec3c, 19, &[4, 8, 12, 19, 24, 30, 36, 41, 44, 39, 38, 31, 26, 17, 16, 8, 4, 2, 0], 19),
    ("torus16 u32 widest_path", 0xdf82561506a2c693, 61, &[4, 8, 14, 20, 28, 37, 48, 56, 64, 68, 68, 62, 55, 55, 60, 57, 54, 48, 45, 37, 31, 23, 23, 17, 15, 9, 10, 6, 3, 2, 2, 3, 4, 4, 7, 6, 2, 2, 1, 1, 2, 2, 2, 2, 2, 1, 2, 4, 4, 4, 3, 3, 5, 4, 5, 6, 5, 1, 1, 2, 0], 0),
    ("torus16 u32 sssp_multi", 0xf302762b2ada9556, 19, &[12, 24, 37, 58, 72, 89, 105, 121, 129, 118, 116, 93, 71, 49, 42, 23, 10, 5, 0], 0),
    ("torus16 f64 sssp auto", 0xa2152ee5a918f604, 19, &[4, 8, 13, 18, 22, 28, 34, 38, 41, 36, 29, 23, 19, 14, 10, 5, 4, 3, 0], 0),
    ("torus16 f64 sssp pull", 0xa2152ee5a918f604, 19, &[4, 8, 13, 18, 22, 28, 34, 38, 41, 36, 29, 23, 19, 14, 10, 5, 4, 3, 0], 19),
    ("torus16 f64 widest_path", 0x9e1d054c552643b8, 40, &[4, 8, 14, 20, 26, 33, 40, 49, 50, 58, 60, 58, 57, 58, 55, 41, 35, 26, 27, 24, 17, 14, 14, 9, 10, 8, 7, 6, 7, 3, 5, 3, 3, 2, 2, 2, 3, 1, 2, 0], 0),
    ("torus16 f64 sssp_multi", 0xf2e05504e1e8fdab, 19, &[12, 24, 38, 52, 64, 81, 99, 109, 113, 105, 84, 68, 53, 39, 31, 15, 11, 7, 0], 0),
];

/// What one case reads: `(checksum, levels, nnz_out per level, rep switches)`.
type Reading = (u64, usize, Vec<u64>, u64);

/// FNV-1a over the length and every `(index, value bits)` pair of `vs`.
fn checksum<T: Scalar>(vs: &[Vector<T>], bits: impl Fn(T) -> u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in vs {
        eat(v.len() as u64);
        for (i, x) in v.iter() {
            eat(i as u64);
            eat(bits(x));
        }
    }
    h
}

/// Run `solve` on `ctx` and read its distances' checksum and its books.
fn read<B: Backend, T: Scalar>(
    ctx: &Context<B>,
    bits: impl Fn(T) -> u64,
    solve: impl FnOnce() -> Vec<Vector<T>>,
) -> Reading {
    ctx.clear_trace();
    let before = direction_counters().rep_switches;
    let dist = solve();
    let switches = direction_counters().rep_switches - before;
    let trace = ctx.trace();
    let nnz_out: Vec<u64> = trace
        .spans
        .iter()
        .filter(|sp| sp.fields.op == "level")
        .map(|sp| sp.fields.nnz_out)
        .collect();
    (checksum(&dist, bits), nnz_out.len(), nnz_out, switches)
}

/// The two graphs, symmetric and loop-free, by name.
fn graphs() -> [(&'static str, CooMatrix<bool>); 2] {
    [
        ("rmat10", symmetrize(&Rmat::new(10, 8).seed(1).generate())),
        ("torus16", torus_2d(16, 16)),
    ]
}

/// The loop-free structure of `coo`.
fn structure(coo: CooMatrix<bool>) -> CooMatrix<bool> {
    let adj = adjacency(coo);
    let (r, c, v) = adj.extract_tuples();
    CooMatrix::from_triples(adj.nrows(), adj.ncols(), r, c, v).expect("valid triples")
}

/// Every case of one weight type on one graph.
fn cases<B: Backend, T>(
    ctx: &Context<B>,
    graph: &str,
    ty: &str,
    w: &Matrix<T>,
    bits: impl Fn(T) -> u64 + Copy,
    out: &mut Vec<(String, Reading)>,
) where
    T: Scalar
        + PartialOrd
        + gbtl_algebra::Bounded
        + gbtl_algorithms::sssp::DefaultZero
        + std::ops::Add<Output = T>,
{
    ctx.prewarm_transpose(w);
    let n = w.nrows();
    let trio = [0, n / 3, 0];
    let mut case = |algo: &str, solve: &dyn Fn() -> Vec<Vector<T>>| {
        out.push((format!("{graph} {ty} {algo}"), read(ctx, bits, solve)));
    };
    case("sssp auto", &|| vec![sssp(ctx, w, 0).unwrap()]);
    case("sssp pull", &|| {
        vec![sssp_with_direction(ctx, w, 0, Direction::Pull).unwrap()]
    });
    case("widest_path", &|| vec![widest_path(ctx, w, 0).unwrap()]);
    case("sssp_multi", &|| sssp_multi(ctx, w, &trio).unwrap());
}

/// Every case on `ctx`, against [`PINS`].
fn pins_hold<B: Backend>(ctx: Context<B>) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ctx = ctx.with_trace_mode(TraceMode::Summary);
    let mut got = Vec::new();
    for (name, coo) in graphs() {
        let s = structure(coo);
        let w32 = Matrix::from_coo(weights::uniform_u32_symmetric(&s, 1, 255, 7), Min::new());
        let w64 = Matrix::from_coo(weights::uniform_f64(&s, 0.5, 8.0, 7), Min::new());
        cases(&ctx, name, "u32", &w32, u64::from, &mut got);
        cases(&ctx, name, "f64", &w64, f64::to_bits, &mut got);
    }
    let render = |(case, (sum, levels, nnz_out, switches)): &(String, Reading)| {
        format!("    ({case:?}, {sum:#018x}, {levels}, &{nnz_out:?}, {switches}),")
    };
    let want: Vec<String> = PINS
        .iter()
        .map(|&(case, sum, levels, nnz_out, switches)| {
            render(&(case.into(), (sum, levels, nnz_out.to_vec(), switches)))
        })
        .collect();
    let got: Vec<String> = got.iter().map(render).collect();
    assert!(
        got == want,
        "{}: the relaxations read\n{}",
        ctx.backend_name(),
        got.join("\n")
    );
}

#[test]
fn relaxations_read_their_pins_on_seq() {
    pins_hold(Context::sequential());
}

#[test]
fn relaxations_read_their_pins_on_par() {
    pins_hold(Context::parallel_with_threads(2));
}

#[test]
fn relaxations_read_their_pins_on_cuda() {
    pins_hold(Context::cuda_default());
}
