#![warn(missing_docs)]
// Cost-model byte budgets are written as `count * size_of::<T>()` on
// purpose: the count is the *modeled* element traffic, which does not
// always coincide with one particular slice's length.
#![allow(clippy::manual_slice_size_calculation)]

//! A software-simulated CUDA-like device for GBTL-RS.
//!
//! GBTL-CUDA's backend runs on NVIDIA hardware through CUSP/Thrust. This
//! crate is the reproduction's hardware substitution (see DESIGN.md): a
//! device that is *charged* for the data-parallel decompositions a CUDA
//! backend runs — kernel launches over thread-block grids, Thrust-style
//! primitives, host↔device transfers — by a SIMT cost model of the effects
//! that produce the paper's performance shapes:
//!
//! * **memory coalescing** — warp-step loads/stores are charged by the
//!   number of distinct 128-byte segments their lane addresses touch;
//! * **divergence** — a warp instruction issues once regardless of how many
//!   lanes are active;
//! * **roofline timing** — kernel time is `launch_overhead +
//!   max(instructions / issue_rate, transactions·128B / bandwidth)`;
//! * **PCIe transfers** — each crossing charges latency + bandwidth, so
//!   transfer-avoiding designs measurably win.
//!
//! The simulator keeps two clocks apart by one rule — **execute natively,
//! charge analytically**: a backend computes its result with the
//! sequential kernel, and what the device would have done is a
//! `KernelTally` of arithmetic over sizes and borrowed index slices, with
//! nothing allocated per warp-step. Only the modeled clock is a result of
//! the reproduction; host time is what computing it costs, and
//! `tests/model_identity.rs` holds the modeled numbers fixed while the host
//! cost is worked on.
//!
//! ```
//! use gbtl_gpu_sim::{primitives, Gpu, GpuConfig};
//!
//! let gpu = Gpu::new(GpuConfig::k40());
//! gpu.charge_transfer_bytes(24, true);
//! primitives::map::charge_transform::<f64, f64>(&gpu, 3);
//! primitives::reduce::charge_reduce::<f64>(&gpu, 3);
//! let stats = gpu.stats();
//! assert!(stats.kernels_launched == 2 && stats.bytes_h2d == 24);
//! ```

mod config;
mod device;
mod launch;
pub mod primitives;
pub mod report;
mod stats;

pub use config::GpuConfig;
pub use device::Gpu;
pub use launch::{BlockCtx, Coalescer};
pub use stats::{GpuStats, KernelRecord, KernelTally};
