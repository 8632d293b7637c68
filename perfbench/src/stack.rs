//! A serving stack assembled from its public parts — engine pools, the
//! optional shard router, the evented listener — exactly as
//! `gbtl_serve::start` / `gbtl_shard::start_sharded` assemble them, but
//! with every layer left reachable. The workloads drive the stock entry
//! points; the ladder and the layer probes use this so they can call each
//! layer directly, from outside.

use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use gbtl_net::{Engine, EventedConfig, EventedHandle, Reply, Submission};
use gbtl_serve::{EnginePool, ServerConfig};
use gbtl_shard::{Placement, Router};

/// Pools, optional router, evented front-end.
#[derive(Debug)]
pub struct Stack {
    /// The member pools (one when unsharded).
    pub pools: Vec<Arc<EnginePool>>,
    /// The router, when sharded.
    pub router: Option<Arc<Router>>,
    evented: Option<EventedHandle>,
    workers: Vec<JoinHandle<()>>,
}

impl Stack {
    /// Start `shards` pools (0 = one pool, no router) configured by
    /// `config`, with `config.preload` split by placement, behind an
    /// evented listener on an ephemeral port.
    pub fn start(config: ServerConfig, shards: usize) -> std::io::Result<Stack> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let bad = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, e);
        let placement = Placement::new(shards.max(1), Default::default()).map_err(bad)?;
        let mut pools = Vec::new();
        let mut workers = Vec::new();
        for shard in 0..shards.max(1) {
            let mut pool_config = config.clone();
            pool_config
                .preload
                .retain(|(name, _)| placement.shard_for(name) == shard);
            let pool = EnginePool::new(pool_config)?;
            workers.extend(pool.spawn_workers());
            pools.push(pool);
        }
        let router =
            (shards > 0).then(|| Arc::new(Router::new(pools.clone(), placement, config.clone())));
        let engine: Arc<dyn Engine> = match &router {
            Some(r) => r.clone(),
            None => pools[0].clone(),
        };
        let evented = gbtl_net::serve(
            listener,
            engine,
            EventedConfig {
                max_line: config.max_line,
                idle_timeout: config.idle_timeout(),
                ..EventedConfig::default()
            },
        )?;
        Ok(Stack {
            pools,
            router,
            evented: Some(evented),
            workers,
        })
    }

    /// Where the evented listener accepts.
    pub fn addr(&self) -> SocketAddr {
        self.evented.as_ref().expect("running").addr()
    }

    /// The listener's connection-layer counters.
    pub fn net_stats(&self) -> Arc<gbtl_net::NetStats> {
        self.evented.as_ref().expect("running").stats()
    }

    /// The pool that owns `graph`.
    pub fn owner(&self, graph: &str) -> &Arc<EnginePool> {
        match &self.router {
            Some(r) => &self.pools[r.placement().shard_for(graph)],
            None => &self.pools[0],
        }
    }

    /// The front door the listener serves: the router, else the pool.
    pub fn front(&self) -> &dyn Engine {
        match &self.router {
            Some(r) => r.as_ref(),
            None => self.pools[0].as_ref(),
        }
    }

    /// Drain, stop the listener, join every thread.
    pub fn stop(mut self) {
        self.front().drain();
        if let Some(ev) = self.evented.take() {
            ev.begin_shutdown();
            ev.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Submit `line` to `engine` in-process and wait for its one response —
/// what a front-end does, minus the socket.
pub fn call(engine: &dyn Engine, line: &str) -> String {
    let (tx, rx) = mpsc::channel();
    let reply = Reply::new(move |response: String| {
        let _ = tx.send(response);
    });
    match engine.submit(line, reply, None) {
        Submission::Inline(response) => response,
        Submission::Accepted { .. } => rx.recv().unwrap_or_else(|_| {
            "{\"ok\":false,\"code\":\"internal\",\"error\":\"reply dropped\"}".into()
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{is_ok, Conn};

    fn config() -> ServerConfig {
        ServerConfig {
            workers: 1,
            par_threads: 1,
            preload: vec![
                ("a".into(), "karate".into()),
                ("b".into(), "rmat:6:4:1".into()),
                ("c".into(), "grid:6".into()),
            ],
            ..ServerConfig::default()
        }
    }

    #[test]
    fn every_layer_of_a_sharded_stack_answers_the_same_query() {
        let stack = Stack::start(config(), 2).unwrap();
        let line = r#"{"op":"query","graph":"a","algo":"triangle_count","backend":"seq"}"#;
        let via_pool = call(stack.owner("a").as_ref(), line);
        let via_router = call(stack.front(), line);
        let via_tcp = Conn::connect(stack.addr()).unwrap().request(line).unwrap();
        for r in [&via_pool, &via_router, &via_tcp] {
            assert!(is_ok(r), "{r}");
            assert!(r.contains("\"triangles\":45"), "{r}");
        }
        let graphs: usize = stack.pools.iter().map(|p| p.graphs().len()).sum();
        assert_eq!(graphs, 3);
        stack.stop();
    }

    #[test]
    fn an_unsharded_stack_has_no_router() {
        let stack = Stack::start(config(), 0).unwrap();
        assert!(stack.router.is_none());
        assert!(is_ok(&call(stack.front(), "{\"op\":\"ping\"}")));
        stack.stop();
    }
}
