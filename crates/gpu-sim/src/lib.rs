#![warn(missing_docs)]
// Cost-model byte budgets are written as `count * size_of::<T>()` on
// purpose: the count is the *modeled* element traffic, which does not
// always coincide with one particular slice's length.
#![allow(clippy::manual_slice_size_calculation)]

//! A software-simulated CUDA-like device for GBTL-RS.
//!
//! GBTL-CUDA's backend runs on NVIDIA hardware through CUSP/Thrust. This
//! crate is the reproduction's hardware substitution (see DESIGN.md): a
//! functional simulator that executes the *same data-parallel
//! decompositions* a CUDA backend uses — device memory with explicit
//! transfers, kernel launches over thread-block grids, Thrust-style
//! primitives — while a SIMT cost model charges the effects that produce the
//! paper's performance shapes:
//!
//! * **memory coalescing** — warp-step loads/stores are charged by the
//!   number of distinct 128-byte segments their lane addresses touch;
//! * **divergence** — a warp instruction issues once regardless of how many
//!   lanes are active;
//! * **roofline timing** — kernel time is `launch_overhead +
//!   max(instructions / issue_rate, transactions·128B / bandwidth)`;
//! * **PCIe transfers** — `h2d`/`d2h` charge latency + bandwidth, so
//!   transfer-avoiding designs measurably win.
//!
//! The simulator keeps two clocks apart by one rule — **execute natively,
//! charge analytically**: the functional result of a kernel or primitive is
//! one plain host pass at sequential-backend cost, and its `KernelTally` is
//! arithmetic over sizes and borrowed index slices, with nothing allocated
//! per warp-step. Only the modeled clock is a result of the reproduction;
//! host time is what computing it costs, and `tests/model_identity.rs`
//! holds the modeled numbers fixed while the host cost is worked on.
//!
//! ```
//! use gbtl_gpu_sim::{Gpu, GpuConfig, primitives};
//!
//! let gpu = Gpu::new(GpuConfig::k40());
//! let xs = gpu.h2d(&[1.0f64, 2.0, 3.0]);
//! let doubled = primitives::transform(&gpu, xs.as_slice(), |x| x * 2.0);
//! let total = primitives::reduce(&gpu, &doubled, 0.0, |a, b| a + b);
//! assert_eq!(total, 12.0);
//! let stats = gpu.stats();
//! assert!(stats.kernels_launched >= 2 && stats.bytes_h2d == 24);
//! ```

mod config;
mod device;
mod launch;
mod memory;
pub mod primitives;
pub mod report;
mod stats;

pub use config::GpuConfig;
pub use device::Gpu;
pub use launch::{BlockCtx, Coalescer};
pub use memory::DeviceBuffer;
pub use stats::{GpuStats, KernelRecord, KernelTally};
