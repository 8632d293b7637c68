//! gbtl-shard: a sharded graph catalog over N [`gbtl_serve::EnginePool`]s.
//!
//! One listener, N independent engine shards — each with its own worker
//! pool, bounded queue, admission control, result cache, and metrics
//! registry. Graphs are placed on shards by consistent hashing over the
//! graph name ([`placement`]), with explicit pins for operator overrides;
//! a scatter-gather [`router::Router`] implements the
//! [`gbtl_net::Engine`] contract so both gbtl-serve front-ends (threaded
//! and evented, `GBTL_SERVE_MODE`) drive the sharded catalog exactly as
//! they drive a single pool. Single-graph requests forward to the owning
//! shard untouched; catalog-wide requests scatter to every shard and merge
//! — with per-shard deadline propagation and labeled partial results, so a
//! slow or draining shard degrades an answer but never hangs it.
//!
//! Snapshot persistence rides along: each shard writes and restores
//! `.gbsnap` files (see [`gbtl_serve::snapshot`]) in a shared
//! `GBTL_SNAPSHOT_DIR`, and a catalog-wide `{"op":"restore"}` hands every
//! shard only the graphs the placement assigns it.
//!
//! Start a sharded server in-process with [`start_sharded`] (the
//! integration tests do), or run the `gbtl-shard` binary:
//!
//! ```text
//! gbtl-shard --shards 4 --snapshot-dir /var/lib/gbtl \
//!            --load g0=rmat:8:8:1 --load g1=rmat:8:8:2 ...
//! ```

#![warn(missing_docs)]

pub mod placement;
pub mod router;

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use gbtl_serve::{start_frontend, EnginePool, Frontend, ServerConfig};

pub use placement::Placement;
pub use router::Router;

/// Configuration for a sharded server: the shard count, the pin table,
/// and the per-shard base config (every shard gets `base.workers` workers,
/// `base.queue_capacity` queue slots, and so on).
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of engine shards (`GBTL_SHARDS`, default 1).
    pub shards: usize,
    /// Explicit placement overrides: graph name → shard index.
    pub pins: HashMap<String, usize>,
    /// Per-shard engine-pool config plus the front-end knobs; the listener
    /// binds `base.addr`, each shard applies the rest.
    pub base: ServerConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            pins: HashMap::new(),
            base: ServerConfig::default(),
        }
    }
}

impl ShardConfig {
    /// [`ServerConfig::from_env`] plus the `GBTL_SHARDS` knob.
    pub fn from_env() -> Self {
        ShardConfig {
            shards: gbtl_util::env::usize_var("GBTL_SHARDS", 1).unwrap_or(1),
            pins: HashMap::new(),
            base: ServerConfig::from_env(),
        }
    }
}

/// A running sharded server; the multi-pool counterpart of
/// [`gbtl_serve::ServerHandle`] — the same [`Frontend`] lifecycle over the
/// router, whose drain fans out to every shard.
#[derive(Debug)]
pub struct ShardHandle(Frontend<Router>);

impl ShardHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// The router (for in-process inspection: placement, member pools).
    pub fn router(&self) -> &Arc<Router> {
        self.0.engine()
    }

    /// [`Frontend::begin_shutdown`].
    pub fn begin_shutdown(&self) {
        self.0.begin_shutdown();
    }

    /// [`Frontend::join`]: the front-end, then every shard's workers.
    pub fn join(self) {
        self.0.join();
    }

    /// [`Frontend::shutdown_and_join`].
    pub fn shutdown_and_join(self) {
        self.0.shutdown_and_join();
    }
}

/// Bind, build the placement and the N member pools (preloads split by
/// placement), spawn every shard's workers, and start the configured
/// front-end over the router.
pub fn start_sharded(config: ShardConfig) -> std::io::Result<ShardHandle> {
    let listener = TcpListener::bind(&config.base.addr)?;
    let addr = listener.local_addr()?;
    let placement = Placement::new(config.shards, config.pins)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;

    let mut pools: Vec<Arc<EnginePool>> = Vec::with_capacity(config.shards);
    let mut workers = Vec::new();
    for shard in 0..config.shards {
        let mut pool_config = config.base.clone();
        // member pools never listen; the router owns the socket
        pool_config.addr = "127.0.0.1:0".into();
        pool_config.preload = config
            .base
            .preload
            .iter()
            .filter(|(name, _)| placement.shard_for(name) == shard)
            .cloned()
            .collect();
        let pool = EnginePool::new(pool_config)?;
        workers.extend(pool.spawn_workers());
        pools.push(pool);
    }

    let router = Arc::new(Router::new(pools, placement, config.base.clone()));
    router.set_listen_addr(addr);

    let frontend = start_frontend(listener, router.clone(), &config.base, workers)?;
    if let Some(stats) = frontend.net_stats() {
        router.set_net_stats(stats);
    }
    Ok(ShardHandle(frontend))
}
